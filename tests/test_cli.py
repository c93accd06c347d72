import csv

import pytest

from optoepr.cli import main
from optoepr.io import read_jsonlines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_paper_defaults(self, capsys):
        code, out, _ = run(capsys, "derive")
        assert code == 0
        assert "|alpha_1| = 1000" in out
        assert "regime checks:" in out
        assert "overall: pass" in out


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


class TestOptimum:
    def test_prints_closed_form(self, capsys):
        code, out, _ = run(capsys, "optimum")
        assert code == 0
        assert "d_o = " in out
        assert "S_o = 16.77" in out
        assert "EOF_o = 5.01" in out


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


class TestOccupation:
    def test_reports_value(self, capsys):
        code, out, _ = run(capsys, "occupation")
        assert code == 0
        assert "<a1^dag a1> = 706" in out
        assert "ratio" in out


class TestErrorPaths:
    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run(capsys, "derive", "--set", "nonsense=1")
        assert code == 2
        assert "configuration error" in err

    def test_bad_set_syntax_exits_2(self, capsys):
        code, _, err = run(capsys, "derive", "--set", "nonsense")
        assert code == 2

    def test_missing_config_file_exits_4(self, capsys):
        code, _, err = run(capsys, "derive", "--config", "/no/such/file.cfg")
        assert code == 4
        assert "io error" in err

    def test_physics_error_exits_3(self, tmp_path, capsys):
        # lasers blue of both modes violate the sign convention
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
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
""")
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
    ]

    @pytest.mark.parametrize("argv", NON_FINITE_GRIDS, ids=lambda argv: " ".join(argv))
    def test_non_finite_grid_bound_exits_2(self, argv, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, *argv, "--out", str(table))
        assert code == 2
        assert err == "configuration error: invalid omega grid\n"
        assert out == "" and not table.exists()

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
    ]

    @pytest.mark.parametrize("argv", INVALID_PARAMETERS, ids=lambda argv: " ".join(argv))
    def test_invalid_parameter_exits_2(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    def test_config_file_loaded(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("defaults: paper\ntemperature_k = 77\n")
        code, out, _ = run(capsys, "derive", "--config", str(cfg))
        assert code == 0
        assert "n_m = 21828" in out
