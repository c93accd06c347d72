import csv
import math
import tracemalloc

import numpy as np
import pytest

import optoepr as oe
from optoepr import cli, steady_state, sweeps
from optoepr.cli import _build_parser, _grid, main
from optoepr.io import BASE_COLUMNS, read_jsonlines
from optoepr.langevin import evaluate
from optoepr.spectrum import metric_columns, spectrum_flags
from tests.test_config_io import (PAPER_TEXT, POWERS_CONFIG, RESPELLINGS, reference_render_rows,
                                  respelled)
from tests.test_langevin import reference_deviations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_rows(omegas, gamma, model, x, flags, **columns):
    """Table rows as one dict per grid point, a key per column, as a reference.

    ``columns`` adds per-point arrays such as n, k_x or dev_<model>; a
    column a row lacks renders as missing.
    """
    cols = {"omega_rads": omegas.tolist(), "omega_over_gamma": (omegas / gamma).tolist(),
            **metric_columns(x), **{name: a.tolist() for name, a in columns.items()},
            "model": [model] * len(omegas), "flags": list(flags)}
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


class TestDerive:
    def test_paper_defaults(self, capsys):
        code, out, _ = run(capsys, "derive")
        assert code == 0
        assert "|alpha_1| = 1000" in out
        assert "regime checks:" in out
        assert "overall: pass" in out

    @pytest.mark.parametrize("bounds", [("--omega-min=-1e9",),
                                        ("--omega-min=-1e9", "--omega-max", "1e6"),
                                        ("--omega-min", "1e6", "--omega-max", "1e9")])
    def test_elimination_quoted_at_the_largest_bound(self, bounds, capsys):
        # the band reaches 1e9 rad/s, so delta / 1e9 = 0.063 fails the check
        code, out, _ = run(capsys, "derive", *bounds)
        assert code == 0
        assert "  [FAIL] elimination: ratio = 0.0628 (threshold 5)\n" in out
        assert "overall: FAIL" in out

    def test_tiny_temperature(self, capsys):
        # at 1 uK the thermal occupancy underflows to 0
        code, out, _ = run(capsys, "derive", "--set", "temperature_k=1e-6")
        assert code == 0
        assert "  n_m = 0   multistable = True\n" in out


class TestSpectrum:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["spectrum", "--omega-points", "51", "--at-optimum-d"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == ("omega_rads,omega_over_gamma,n,k_x,epr_variance,"
                          "S_db,eof,log_negativity,model,flags")

    def test_jsonlines_output(self, tmp_path):
        path = tmp_path / "s.jsonl"
        assert main(["spectrum", "--omega-points", "11", "--format", "jsonlines",
                     "--out", str(path)]) == 0
        rows = read_jsonlines(path.read_text())
        assert len(rows) == 11
        assert rows[0]["model"] == "adiabatic"

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--omega-points", "5")
        assert code == 0
        assert out.startswith("omega_rads,")
        assert len(out.splitlines()) == 6

    def test_negative_exponent_bound_in_equals_form(self, capsys):
        # argparse reads "-4e7" after a space as an option, not as a number
        code, out, _ = run(capsys, "spectrum", "--omega-points", "3",
                           "--omega-min=-4e7", "--omega-max=4e7")
        assert code == 0
        assert [r["omega_rads"] for r in csv.DictReader(out.splitlines())] == ["-40000000", "0",
                                                                               "40000000"]


class TestAtOptimumD:
    def test_retunes_through_retuned_d(self, paper_params, paper_derived, monkeypatch, capsys):
        # the flag moves d by retuned_d to the base's closed-form optimum, holding
        # |alpha| and delta of the base as operating_point_params would
        d_o = oe.optimum_d(paper_derived).d_o
        retuned = oe.retuned_d(paper_params, d_o)
        assert retuned == steady_state.operating_point_params(
            paper_params, paper_derived.alpha, paper_derived.delta, d_o)
        retunes, solved = [], []

        def retuning(*args):
            retunes.append(args)
            return steady_state.retuned_d(*args)

        def solving(params):
            solved.append(params)
            return steady_state.solve_steady_state(params)
        monkeypatch.setattr(cli, "retuned_d", retuning)
        monkeypatch.setattr(cli, "solve_steady_state", solving)
        code, _, _ = run(capsys, "derive", "--at-optimum-d")
        assert code == 0
        assert retunes == [(paper_params, d_o)]
        assert solved == [paper_params, retuned]

    def test_occupation_of_the_retuned_point(self, paper_params, paper_derived, capsys):
        retuned = oe.retuned_d(paper_params, oe.optimum_d(paper_derived).d_o)
        value = oe.intracavity_occupation(oe.solve_steady_state(retuned))
        code, out, _ = run(capsys, "occupation", "--at-optimum-d")
        assert code == 0
        assert out.startswith(f"<a1^dag a1> = {value:.6g}\n")
        assert run(capsys, "occupation")[1] != out

    @pytest.mark.parametrize("argv", [
        ["derive"], ["optimum"], ["occupation"], ["spectrum", "--omega-points", "5"],
        ["sweep", "--axis", "T", "--values", "4", "--omega-points", "5"],
        ["verify", "--omega-points", "5"]], ids=lambda argv: argv[0])
    def test_every_command_runs_at_the_retuned_point(self, argv, paper_params, paper_derived,
                                                     tmp_path, capsys):
        # the flag acts as a config holding the retuned point would
        retuned = oe.retuned_d(paper_params, oe.optimum_d(paper_derived).d_o)
        path = tmp_path / "retuned.txt"
        path.write_text(oe.serialize_config(oe.RunConfig(params=retuned)))
        assert run(capsys, *argv, "--at-optimum-d") == run(capsys, *argv, "--config", str(path))


class TestSweep:
    def test_temperature_sweep(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, _, err = run(capsys, "sweep", "--axis", "T", "--values", "4,300",
                           "--omega-points", "101", "--at-optimum-d", "--out", str(path))
        assert code == 0
        body = path.read_text().splitlines()
        assert len(body) == 1 + 2 * 101
        assert "T=4" in body[1]
        assert "peak_eof=" in err

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    def test_out_file_equals_stdout(self, fmt, tmp_path, capsys):
        path = tmp_path / "table.txt"
        argv = ["sweep", "--axis", "alpha", "--values", "500,20000", "--omega-points", "5",
                "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, out_with_file, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out_with_file == ""
        assert path.read_bytes() == out.encode()

    def test_axis_required(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 2
        assert "axis" in err

    def test_out_of_domain_row_recorded(self, capsys):
        # alpha = 20000 puts a laser more than 10 omega_m from the cavity: that
        # row is an error row, the alpha = 500 rows are still written
        code, out, err = run(capsys, "sweep", "--axis", "alpha", "--values", "500,20000",
                             "--omega-points", "5")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        flags = [r["flags"] for r in rows]
        assert flags == ["alpha=500"] * 5 + ["alpha=20000;error:ParameterError"]
        assert all(r["eof"] != "nan" for r in rows[:5])
        notes = err.splitlines()
        assert notes[0].startswith("# alpha=500: peak_eof=")
        assert notes[1] == "# alpha=20000: ParameterError"

    def test_tiny_temperature_row(self, capsys):
        # at 1 uK the thermal occupancy underflows to 0
        code, out, err = run(capsys, "sweep", "--axis", "T", "--values", "1e-6,4",
                             "--omega-points", "5")
        assert code == 0
        flags = [r["flags"] for r in csv.DictReader(out.splitlines())]
        assert flags == ["T=9.9999999999999995e-07"] * 5 + ["T=4"] * 5
        assert err.startswith("# T=1e-06: peak_eof=")

    @pytest.mark.parametrize("axis, values", [("Q", "0,1"), ("T", "nan")])
    def test_invalid_axis_value_row_recorded(self, axis, values, capsys):
        # Q = 0 would divide omega_m by zero, Q = 1 puts gamma_m at omega_m,
        # and a NaN temperature is outside the domain: each is an error row
        code, out, err = run(capsys, "sweep", "--axis", axis, "--values", values,
                             "--omega-points", "5")
        assert code == 0
        flags = [r["flags"] for r in csv.DictReader(out.splitlines())]
        labels = [f"{axis}={v}" for v in values.split(",")]
        assert flags == [f"{label};error:ParameterError" for label in labels]
        assert err.splitlines() == [f"# {label}: ParameterError" for label in labels]


class TestSharedRows:
    def test_spectrum_and_sweep_metric_columns_agree(self, tmp_path):
        # the default config is at T = 300 K, so the one-value sweep row is
        # the spectrum itself
        spec, sweep = tmp_path / "spectrum.csv", tmp_path / "sweep.csv"
        assert main(["spectrum", "--out", str(spec)]) == 0
        assert main(["sweep", "--axis", "T", "--values", "300", "--out", str(sweep)]) == 0
        a = list(csv.DictReader(spec.open()))
        b = list(csv.DictReader(sweep.open()))
        assert len(a) == len(b) == 2001
        for col in ("omega_rads", "epr_variance", "S_db", "eof", "log_negativity"):
            assert [r[col] for r in a] == [r[col] for r in b], col


class TestTablesAsTheReference:
    """CLI tables byte for byte against the per-cell renderer fed per-point dicts."""

    # +-8e7 rad/s reaches past delta, so some rows carry the elimination-band flag
    GRID = ("--omega-points", "17", "--omega-min=-8e7", "--omega-max", "8e7")

    @staticmethod
    def grid():
        return np.linspace(-8e7, 8e7, 17)

    def table(self, capsys, *argv):
        """Exit code and table of a command that writes its table to stdout."""
        code, out, _ = run(capsys, *argv)
        return code, out

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    def test_spectrum(self, fmt, paper_derived, capsys):
        code, out = self.table(capsys, "spectrum", "--format", fmt, *self.GRID)
        grid = self.grid()
        ev = evaluate(paper_derived, grid, "adiabatic")
        flags = (";".join(f) for f in spectrum_flags(paper_derived, grid, ev.error))
        rows = reference_rows(grid, paper_derived.gamma, "adiabatic", ev.x, flags,
                              n=ev.n, k_x=ev.k_x)
        assert any("omega_outside_elimination_band" in row["flags"] for row in rows)
        assert code == 0 and out == reference_render_rows(rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    def test_sweep_with_an_error_row(self, fmt, paper_params, capsys):
        code, out = self.table(capsys, "sweep", "--axis", "alpha", "--values", "500,20000",
                               "--format", fmt, *self.GRID)
        spec = oe.SweepSpec(axis="alpha", values=(500.0, 20000.0), base=paper_params,
                            omega_grid=self.grid(), model="adiabatic")
        rows = []
        for row in oe.run_sweep(spec).rows:
            tag = f"alpha={row.value:.17g}"
            if row.error:
                rows.append({"model": "adiabatic", "flags": f"{tag};error:{row.error}"})
            else:
                rows += reference_rows(row.omega, paper_params.gamma, "adiabatic",
                                       row.epr_variance, [tag] * len(row.omega))
        assert rows[-1] == {"model": "adiabatic", "flags": "alpha=20000;error:ParameterError"}
        assert code == 0 and out == reference_render_rows(rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    def test_verify(self, fmt, paper_derived, capsys):
        models = ("adiabatic", "rwa3", "full6")
        code, out = self.table(capsys, "verify", "--models", ",".join(models), "--format", fmt,
                               *self.GRID)
        grid = self.grid()
        evals = {m: evaluate(paper_derived, grid, m) for m in models}
        devs, _ = reference_deviations(evals, models)
        assert all(np.isnan(dev).any() and not np.isnan(dev).all() for dev in devs.values())
        dev_cols = {f"dev_{m}": dev for m, dev in devs.items()}
        per_model = [reference_rows(grid, paper_derived.gamma, m, evals[m].x,
                                    (f"error:{e}" if e else "" for e in evals[m].error),
                                    **dev_cols)
                     for m in models]
        rows = [row for group in zip(*per_model) for row in group]
        columns = BASE_COLUMNS + tuple(dev_cols)
        assert code == 0 and out == reference_render_rows(rows, fmt, columns)


class TestTablesInBlocks(TestTablesAsTheReference):
    """The same tables, formed and written 5 grid points at a time (the 17-point grid
    in four blocks), to stdout and to ``--out``."""

    @pytest.fixture(autouse=True, params=["stdout", "out"])
    def small_blocks(self, request, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 5)
        self.out = tmp_path / "table" if request.param == "out" else None

    def table(self, capsys, *argv):
        if self.out is None:
            return super().table(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(self.out))
        assert out == ""
        return code, self.out.read_bytes().decode()


class TestTableMemory:
    """A table command's traced memory does not grow with its table: only the
    physics' arrays grow with the grid, not the rows or their text."""

    @staticmethod
    def peak(tmp_path, *argv):
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "table")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Measured: 0.87 -> 1.61 MB for 3 -> 12 sweep values and 0.96 -> 1.71 MB for
    # 2001 -> 20001 spectrum points, against 4.1 -> 16.7 and 1.5 -> 16.7 MB when
    # every row was held and rendered at once.
    GROWTH = 2.5

    def test_sweep_values(self, tmp_path):
        args = ("sweep", "--axis", "T", "--values")
        self.peak(tmp_path, *args, "4,77,300")   # the imports it makes are not the table's
        few = self.peak(tmp_path, *args, "4,77,300")
        many = self.peak(tmp_path, *args, ",".join(str(4.0 + 25.0 * i) for i in range(12)))
        assert many <= self.GROWTH * few

    def test_spectrum_points(self, tmp_path):
        self.peak(tmp_path, "spectrum")
        few = self.peak(tmp_path, "spectrum", "--omega-points", "2001")
        many = self.peak(tmp_path, "spectrum", "--omega-points", "20001")
        assert many <= self.GROWTH * few


class TestOptimum:
    def test_prints_closed_form(self, capsys):
        code, out, _ = run(capsys, "optimum")
        assert code == 0
        assert "d_o = " in out
        assert "S_o = 16.77" in out
        assert "EOF_o = 5.01" in out

    def test_default_grid_is_the_search_default(self):
        # without grid flags the search runs on default_omega_grid, to the bit
        for gamma in (oe.parse_config("defaults: paper\n").params.gamma, 1.0, 3e7 / 7.0):
            grid = _grid(_build_parser().parse_args(["optimum", "--numeric"]), gamma)
            expected = oe.default_omega_grid(gamma)
            assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()

    def test_numeric_search_runs_on_the_grid_flags(self, capsys, monkeypatch):
        # the command imports the search where it runs it, from sweeps
        grids = []
        search = sweeps.find_optimum_d_numeric

        def spy(params, bracket, omega_grid=None):
            grids.append(omega_grid)
            return search(params, bracket, omega_grid=omega_grid)
        monkeypatch.setattr(sweeps, "find_optimum_d_numeric", spy)
        code, out, _ = run(capsys, "optimum", "--numeric", "--omega-points", "201",
                           "--omega-min=-3e7", "--omega-max", "3e7")
        assert code == 0 and "numeric optimum d* = " in out
        grid, = grids
        assert grid.tobytes() == np.linspace(-3e7, 3e7, 201).tobytes()

    def test_numeric_search_on_one_point_exits_2(self, capsys):
        # one grid point leaves the search no cell to refine its minimum in
        code, out, err = run(capsys, "optimum", "--numeric", "--omega-points", "1")
        assert code == 2
        assert err == "configuration error: invalid omega grid\n"
        assert out == ""

    def test_numeric_search_at_unbounded_limit_prints_no_deviation(self, capsys):
        # a tiny gamma rounds d_o to 0: the bracket is (0, 0), the search returns 0, and
        # there is no deviation from d_o to quote
        code, out, err = run(capsys, "optimum", "--numeric", "--set", "gamma_rads=1e-4")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("d_o = 0 rad/s")
        assert lines[3] == "warning: squeezing unbounded in this limit"
        assert lines[4:] == ["numeric optimum d* = 0 rad/s"]

    @pytest.mark.parametrize("eta", ["1e-300", "1e-12"])   # g = 0 and g = 3.4e-9 rad/s
    @pytest.mark.parametrize("points", ["5", "2001"])
    def test_numeric_search_flat_within_rounding_ends_at_the_top(self, eta, points, capsys):
        # at vanishing coupling every row's least x is 1 within a few ulp: the rows tie
        # as separable, and of equal values the highest d is the best, so the search ends
        # within _TOL_FRAC of the bracket's top, gamma / 2 here
        code, out, err = run(capsys, "optimum", "--numeric", "--omega-points", points,
                             "--set", f"eta={eta}")
        assert code == 0 and err == ""
        hi = 0.5 * oe.parse_config("defaults: paper\n").params.gamma
        prefix = "numeric optimum d* = "
        last = out.splitlines()[-1]
        assert last.startswith(prefix)
        d_star = float(last[len(prefix):].split()[0])
        assert hi - 1e-4 * hi <= d_star <= hi

    def test_failed_search_prints_nothing(self, capsys, monkeypatch):
        # the closed-form lines wait for the search: a failed one leaves stdout empty
        def fail(params, bracket, omega_grid=None):
            raise oe.BracketError("peak EOF not unimodal on bracket")
        monkeypatch.setattr(sweeps, "find_optimum_d_numeric", fail)
        code, out, err = run(capsys, "optimum", "--numeric")
        assert code == 3
        assert out == ""
        assert err == "physics error: peak EOF not unimodal on bracket\n"


class TestVerify:
    def test_deviation_columns(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        code, _, err = run(capsys, "verify", "--models", "adiabatic,rwa3",
                           "--omega-points", "5", "--omega-min=-1e6",
                           "--omega-max", "1e6", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].endswith("flags,dev_rwa3")
        assert len(lines) == 1 + 5 * 2
        assert "max |rel dev|" in err

    def test_no_point_compared_is_said(self, tmp_path, capsys):
        # at omega = -2 gamma alone both exact models fail (NotSymmetricState): their
        # worst deviation is 0.0 by compare_models' rule, which compared nothing
        code, _, err = run(capsys, "verify", "--omega-points", "1", "--out",
                           str(tmp_path / "v.csv"))
        assert code == 0
        assert err == ("# max |rel dev| of n-k_x, rwa3 vs adiabatic: no point compared\n"
                       "# max |rel dev| of n-k_x, full6 vs adiabatic: no point compared\n")

    def test_worst_deviation_printed_where_a_point_compares(self, tmp_path, capsys):
        derived = oe.solve_steady_state(oe.paper_default_config().params)
        grid = np.linspace(-1e6, 1e6, 5)
        models = ("adiabatic", "rwa3")
        _, worst = reference_deviations({m: evaluate(derived, grid, m) for m in models}, models)
        assert worst["rwa3"] > 0.0
        code, _, err = run(capsys, "verify", "--models", ",".join(models), "--omega-points", "5",
                           "--omega-min=-1e6", "--omega-max", "1e6",
                           "--out", str(tmp_path / "v.csv"))
        assert code == 0
        assert err == f"# max |rel dev| of n-k_x, rwa3 vs adiabatic: {worst['rwa3']:.6g}\n"


class TestOccupation:
    def test_reports_value(self, capsys):
        code, out, _ = run(capsys, "occupation")
        assert code == 0
        assert "<a1^dag a1> = 706" in out
        assert "ratio" in out

    def test_undriven_cavity_prints_a_nan_ratio(self, tmp_path, capsys):
        drive = oe.DriveSpec(Delta_1=-5e8, Delta_2=5e8, omega_1=0.0, omega_2=0.0)
        undriven = oe.paper_default_config().params.scaled(drive=drive)
        path = tmp_path / "undriven.txt"
        path.write_text(oe.serialize_config(oe.RunConfig(params=undriven)))
        code, out, err = run(capsys, "occupation", "--config", str(path))
        assert (code, err) == (0, "")
        assert out == "<a1^dag a1> = 0\n|alpha_1|^2 = 0  (ratio nan)\n"


class TestSetOverrides:
    """``--set`` is the last of a configuration's layers: it replaces a quantity
    in any spelling and gives each quantity once."""

    @pytest.mark.parametrize("key, value, replaced", RESPELLINGS)
    @pytest.mark.parametrize("config", ["defaults: paper\n", PAPER_TEXT],
                             ids=["over_defaults", "over_file"])
    def test_set_replaces_a_quantity_in_any_spelling(self, key, value, replaced, config,
                                                     tmp_path, capsys):
        expected = tmp_path / "expected.cfg"
        expected.write_text(respelled(key, value, replaced))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        result = run(capsys, "derive", "--config", str(cfg), "--set", f"{key}={value}")
        assert result[0] == 0
        assert result == run(capsys, "derive", "--config", str(expected))

    @pytest.mark.parametrize("settings, message", [
        (("temperature_k=4", "temperature_k=300"), "--set 'temperature_k' given more than once"),
        (("gamma_hz=3.2e6", "gamma_rads=2e7"), "'gamma_hz' and 'gamma_rads'"),
        (("q_factor=30000", "gamma_m_hz=2450"), "'q_factor' and 'gamma_m_hz'"),
    ])
    def test_set_giving_a_quantity_twice_exits_2(self, settings, message, capsys):
        code, out, err = run(capsys, "derive", *(arg for s in settings for arg in ("--set", s)))
        assert code == 2
        assert err.startswith("configuration error: ") and message in err
        assert out == ""


# Lasers blue of both modes violate the sign convention: the steady state fails.
BLUE_DRIVEN_CONFIG = """
omega_p_hz = 3.0e14
omega_m_hz = 73.5e6
gamma_hz = 3.2e6
q_factor = 30000
nu_hz = 1.0e8
eta = 1.0e-4
temperature_k = 300
radius_m = 38e-6
n0 = 1.45
delta1_hz = 83.5e6
delta2_hz = 83.5e6
drive_omega1_rads = 1e12
drive_omega2_rads = 1e12
"""


class TestErrorPaths:
    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run(capsys, "derive", "--set", "nonsense=1")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("key", ["format", "out"])
    @pytest.mark.parametrize("where", ["file", "--set"])
    def test_table_keys_are_unknown(self, key, where, tmp_path, capsys):
        # how and where a table is written is --format and --out alone
        table = tmp_path / "table.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"defaults: paper\n{key} = {table}\n" if where == "file"
                       else "defaults: paper\n")
        setting = ["--set", f"{key}={table}"] if where == "--set" else []
        code, out, err = run(capsys, "spectrum", "--omega-points", "5", "--config", str(cfg),
                             *setting)
        assert code == 2
        assert err == f"configuration error: unknown configuration key '{key}'\n"
        assert out == "" and not table.exists()

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"defaults: paper\ntemperature_k = 300 # \xff\n")
        table = tmp_path / "table.csv"
        for argv in (("derive",), ("spectrum", "--omega-points", "5", "--out", str(table))):
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 2
            assert err.startswith(f"configuration error: {cfg}: not UTF-8 text")
            assert out == "" and not table.exists()

    def test_bad_set_syntax_exits_2(self, capsys):
        code, _, err = run(capsys, "derive", "--set", "nonsense")
        assert code == 2

    def test_missing_config_file_exits_4(self, capsys):
        code, _, err = run(capsys, "derive", "--config", "/no/such/file.cfg")
        assert code == 4
        assert "io error" in err

    def test_physics_error_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BLUE_DRIVEN_CONFIG)
        code, _, err = run(capsys, "derive", "--config", str(cfg))
        assert code == 3
        assert "physics error" in err

    def test_unknown_verify_model_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--models", "adiabatic,bogus",
                           "--omega-points", "5")
        assert code == 2
        assert "configuration error" in err and "bogus" in err

    def test_repeated_verify_model_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--models", "rwa3,rwa3", "--omega-points", "5")
        assert code == 2
        assert "configuration error" in err and "once" in err
        assert out == ""

    def test_empty_verify_models_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--models", ",", "--omega-points", "5")
        assert code == 2
        assert "configuration error" in err

    def test_non_numeric_sweep_values_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "T", "--values", "x",
                           "--omega-points", "5")
        assert code == 2
        assert "configuration error" in err

    def test_empty_sweep_values_exit_2(self, capsys):
        # an empty --values is a configuration error, not the axis's default values
        code, out, err = run(capsys, "sweep", "--axis", "T", "--values", "",
                             "--omega-points", "5")
        assert code == 2
        assert err.startswith("configuration error: invalid --values ''")
        assert out == ""

    def test_non_monotone_sweep_values_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "T", "--values", "300,4,300",
                           "--omega-points", "5")
        assert code == 2
        assert "monotone" in err

    NON_FINITE_GRIDS = [
        ("spectrum", "--omega-min", "nan", "--omega-points", "3"),
        ("spectrum", "--omega-max", "inf", "--omega-points", "3"),
        ("verify", "--omega-min", "nan", "--omega-points", "5"),
        ("verify", "--omega-min=-inf", "--omega-points", "5"),
        ("sweep", "--axis", "T", "--omega-min", "nan", "--omega-points", "5"),
        ("derive", "--omega-max", "nan"),
        ("derive", "--omega-max", "inf"),
        ("derive", "--omega-min=nan"),
    ]

    @pytest.mark.parametrize("argv", NON_FINITE_GRIDS, ids=lambda argv: " ".join(argv))
    def test_non_finite_grid_bound_exits_2(self, argv, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, *argv, "--out", str(table))
        assert code == 2
        assert err == "configuration error: invalid omega grid\n"
        assert out == "" and not table.exists()

    # Bands beyond spectrum.OMEGA_LIMIT (5.79e76 rad/s), where the closed form's omega^4
    # overflows (and full6's omega^2 from 1.3e154): rejected before any output model runs.
    BEYOND_LIMIT_GRIDS = [
        ("spectrum", "--omega-min", "1e300", "--omega-max", "1.7e308", "--omega-points", "3"),
        ("spectrum", "--omega-max", "1e77", "--omega-points", "3"),
        ("sweep", "--axis", "T", "--omega-min", "1e300", "--omega-max", "1.7e308",
         "--omega-points", "3"),
        ("verify", "--omega-min", "1e300", "--omega-max", "1.7e308", "--omega-points", "3"),
        ("verify", "--omega-min=-1e77", "--omega-points", "3"),
        ("optimum", "--numeric", "--omega-min", "1e300", "--omega-max", "1.7e308",
         "--omega-points", "3"),
    ]

    @pytest.mark.parametrize("argv", BEYOND_LIMIT_GRIDS, ids=lambda argv: " ".join(argv))
    def test_grid_beyond_the_limit_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("solved before the grid was checked")
        monkeypatch.setattr(oe.spectrum, "_closed_form", fail)
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, *argv, "--out", str(table))
        assert code == 2
        assert err == "configuration error: invalid omega grid\n"
        assert out == "" and not table.exists()

    AT_LIMIT_COMMANDS = [("spectrum",),
                         ("verify", "--models", "adiabatic,adiabatic_response,rwa3,full6")]

    @pytest.mark.parametrize("command", AT_LIMIT_COMMANDS, ids=lambda command: command[0])
    def test_grid_at_the_limit_runs(self, command, tmp_path, capsys):
        # every model is finite there, with no overflow warning (an error under pytest)
        limit = repr(oe.spectrum.OMEGA_LIMIT)
        code, _, _ = run(capsys, *command, f"--omega-min=-{limit}", "--omega-max", limit,
                         "--omega-points", "3", "--out", str(tmp_path / "table.csv"))
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "table.csv").read_text().splitlines()))
        assert rows and all(math.isfinite(float(row["epr_variance"])) for row in rows)

    INVERTED_GRIDS = [
        ("derive", "--omega-min", "1", "--omega-max", "0"),
        ("derive", "--omega-min=-1e6", "--omega-max=-2e6"),
        ("spectrum", "--omega-min", "1", "--omega-max", "0", "--omega-points", "3"),
        ("verify", "--omega-min", "1", "--omega-max", "0", "--omega-points", "5"),
        ("sweep", "--axis", "T", "--omega-min", "1", "--omega-max", "0", "--omega-points", "5"),
    ]

    @pytest.mark.parametrize("argv", INVERTED_GRIDS, ids=lambda argv: " ".join(argv))
    def test_inverted_grid_exits_2(self, argv, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, *argv, "--out", str(table))
        assert code == 2
        assert err == "configuration error: invalid omega grid\n"
        assert out == "" and not table.exists()

    @pytest.mark.parametrize("command", [("sweep", "--axis", "T"), ("spectrum",), ("verify",)],
                             ids=lambda command: command[0])
    def test_failed_physics_writes_no_table(self, command, tmp_path, capsys):
        # the physics runs before the table is opened: a command whose steady state
        # fails leaves no --out file (an inverted band: test_inverted_grid_exits_2)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BLUE_DRIVEN_CONFIG)
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, *command, "--omega-points", "5", "--config", str(cfg),
                             "--out", str(table))
        assert code == 3
        assert err.startswith("physics error: ")
        assert out == "" and not table.exists()

    def test_derive_accepts_one_bound_beyond_the_default_band(self, capsys):
        # derive has no grid: a lone bound only sets where the ratios are quoted
        assert run(capsys, "derive", "--omega-min", "1e9")[0] == 0

    # Parameters outside their domain: eta >= 1, T < 0, delta <= 0, a laser
    # more than 10 omega_m from the cavity, Q = 0 and NaN or infinite values
    # (a sweep row out of the domain is recorded instead, see TestSweep).
    INVALID_PARAMETERS = [
        ("derive", "--set", "eta=2"),
        ("derive", "--set", "temperature_k=-1"),
        ("derive", "--set", "target_delta_hz=-5"),
        ("spectrum", "--omega-points", "5", "--set", "target_alpha=20000"),
        ("derive", "--set", "q_factor=0"),
        ("derive", "--set", "q_factor=nan"),
        ("derive", "--set", "temperature_k=nan"),
        ("derive", "--set", "temperature_k=inf"),
        ("derive", "--set", "target_alpha=nan"),
        ("derive", "--set", "target_delta_hz=nan"),
        ("derive", "--set", "target_d_over_gamma=nan"),
        ("derive", "--set", "omega_p_hz=nan"),
        # numbers that overflow a double: the thermal occupancy, the intensity quintic
        # (gamma^2 underflows to 0 at 1e-300 Hz) and, where n_m does not, the occupation's
        # output covariance
        ("occupation", "--set", "temperature_k=1e306"),
        ("verify", "--omega-points", "5", "--set", "temperature_k=1e308"),
        ("occupation", "--set", "gamma_hz=1e-20"),
        ("derive", "--set", "gamma_hz=1e-300"),
        ("occupation", "--set", "gamma_hz=100", "--set", "temperature_k=1e305"),
        # the occupation integral itself, where each point's density is finite
        ("occupation", "--set", "gamma_hz=100", "--set", "temperature_k=2e304"),
    ]

    @pytest.mark.parametrize("argv", INVALID_PARAMETERS, ids=lambda argv: " ".join(argv))
    def test_invalid_parameter_exits_2(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    # Settings at the edges of double range, each run through every command on a small
    # grid: an overflowing thermal occupancy (1e306 K) or intensity quintic (1e-20 and
    # 1e-300 Hz) exits 2 (see INVALID_PARAMETERS), and the others exit as their error
    # class says.
    EXTREME_SETTINGS = ["temperature_k=1e306", "temperature_k=1e305", "gamma_hz=1e-20",
                        "gamma_hz=1e-300", "q_factor=1.0000001", "eta=1e-300",
                        "target_alpha=1e-300", "target_delta_hz=1e-300",
                        "target_d_over_gamma=-1e6"]
    EXTREME_COMMANDS = [("derive",), ("spectrum", "--omega-points", "5"),
                        ("verify", "--omega-points", "5"),
                        ("optimum", "--numeric", "--omega-points", "5"), ("occupation",),
                        ("sweep", "--axis", "T", "--omega-points", "5"),
                        ("sweep", "--axis", "d", "--omega-points", "5")]

    @pytest.mark.parametrize("setting", EXTREME_SETTINGS)
    @pytest.mark.parametrize("command", EXTREME_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
    def test_extreme_setting_exits_with_a_documented_code(self, command, setting, capsys):
        code, _, err = run(capsys, *command, "--set", setting)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    @pytest.mark.parametrize("override, message", [
        ("p1_w=-1", "drive powers must be >= 0"),
        ("gamma_hz=-3.2e6", "gamma must be strictly positive"),
    ])
    def test_invalid_powers_config_exits_2(self, override, message, tmp_path, capsys):
        cfg = tmp_path / "powers.cfg"
        cfg.write_text(POWERS_CONFIG)
        code, out, err = run(capsys, "derive", "--config", str(cfg), "--set", override)
        assert code == 2
        assert err == f"configuration error: {message}\n"
        assert out == ""

    def test_config_file_loaded(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("defaults: paper\ntemperature_k = 77\n")
        code, out, _ = run(capsys, "derive", "--config", str(cfg))
        assert code == 0
        assert "n_m = 21828" in out
