import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import optoepr as oe
from optoepr.io import BASE_COLUMNS, read_jsonlines, render_rows
from optoepr.params import TWO_PI


POWERS_CONFIG = """
omega_p_hz = 3.0e14
omega_m_hz = 73.5e6
gamma_hz = 3.2e6
q_factor = 30000
nu_hz = 1.0e8
eta = 1.0e-4
temperature_k = 300
radius_m = 38e-6
n0 = 1.45
delta1_hz = -86.6e6
delta2_hz = 80.2e6
p1_w = 0.01
p2_w = 0.02
"""


class TestParseConfig:
    def test_paper_defaults_directive(self):
        cfg = oe.parse_config("defaults: paper\n")
        p = cfg.params
        assert p.omega_p == pytest.approx(TWO_PI * 3e14, rel=1e-12)
        assert p.omega_m == pytest.approx(TWO_PI * 73.5e6, rel=1e-12)
        assert p.gamma == pytest.approx(TWO_PI * 3.2e6, rel=1e-12)
        assert p.q_factor == pytest.approx(30000.0, rel=1e-9)
        assert p.R == 38e-6
        assert p.eta == 1e-4
        assert p.T == 300.0
        derived = oe.solve_steady_state(p)
        assert abs(derived.alpha_1) == pytest.approx(1000.0, rel=1e-5)
        assert derived.delta == pytest.approx(TWO_PI * 1e7, rel=1e-5)
        assert derived.d == pytest.approx(0.07 * p.gamma, rel=1e-4)

    def test_hz_conversion(self):
        cfg = oe.parse_config("defaults: paper\ngamma_hz = 3.2e6\n")
        assert cfg.params.gamma == pytest.approx(2.0106e7, rel=1e-4)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ndefaults: paper\ntemperature_k = 77  # inline comment\n"
        cfg = oe.parse_config(text)
        assert cfg.params.T == 77.0

    def test_duplicate_key_names_the_key(self):
        text = "defaults: paper\ntemperature_k = 4\ntemperature_k = 300\n"
        with pytest.raises(oe.ParseError, match="temperature_k"):
            oe.parse_config(text)

    def test_unknown_key(self):
        with pytest.raises(oe.UnknownKey, match="shoe_size"):
            oe.parse_config("defaults: paper\nshoe_size = 42\n")

    def test_missing_unit_suffix(self):
        with pytest.raises(oe.UnitError, match="gamma"):
            oe.parse_config("defaults: paper\ngamma = 3.2e6\n")

    def test_bad_number(self):
        with pytest.raises(oe.ParseError):
            oe.parse_config("defaults: paper\ntemperature_k = warm\n")

    def test_missing_required_key(self):
        with pytest.raises(oe.ParseError, match="missing"):
            oe.parse_config("omega_p_hz = 3e14\n")

    def test_flag_overrides_replace_file_values(self):
        cfg = oe.parse_config("defaults: paper\n", {"temperature_k": "4"})
        assert cfg.params.T == 4.0

    def test_quantity_given_twice_in_different_units(self):
        with pytest.raises(oe.ParseError):
            oe.parse_config("defaults: paper\ngamma_rads = 2e7\ngamma_hz = 3.2e6\n")

    def test_mixed_drive_styles_rejected(self):
        with pytest.raises(oe.ParseError):
            oe.parse_config("defaults: paper\ndelta1_hz = -5e8\n")

    def test_direct_style_with_powers(self):
        # powers convert to amplitudes once, at load, by the one conversion
        params = oe.parse_config(POWERS_CONFIG).params
        drive = params.drive
        assert (drive.Delta_1, drive.Delta_2) == (TWO_PI * -86.6e6, TWO_PI * 80.2e6)
        omega_l, omega_lp = params.laser_frequencies()
        assert omega_l == TWO_PI * 3.0e14 + TWO_PI * 1.0e8 + TWO_PI * -86.6e6
        assert drive.omega_1 == oe.power_to_amplitude(0.01, omega_l, params.gamma)
        assert drive.omega_2 == oe.power_to_amplitude(0.02, omega_lp, params.gamma)
        assert params.drive_amplitudes() == (drive.omega_1, drive.omega_2)
        assert params.drive_powers() == pytest.approx((0.01, 0.02), rel=1e-15)

    def test_laser_frequencies_convert_to_detunings_once(self):
        text = POWERS_CONFIG.replace("delta1_hz = -86.6e6", "omega_l_hz = 300000013.4e6")
        text = text.replace("delta2_hz = 80.2e6", "omega_lp_hz = 299999980.2e6")
        params = oe.parse_config(text).params
        delta_1, delta_2 = oe.detunings(TWO_PI * 300000013.4e6, TWO_PI * 299999980.2e6,
                                        params.omega_p, params.nu)
        assert (params.drive.Delta_1, params.drive.Delta_2) == (delta_1, delta_2)
        omega_l, omega_lp = params.laser_frequencies()
        assert params.drive.omega_1 == oe.power_to_amplitude(0.01, omega_l, params.gamma)
        assert params.drive.omega_2 == oe.power_to_amplitude(0.02, omega_lp, params.gamma)

    @pytest.mark.parametrize("override, message", [
        ({"p1_w": "-1"}, "drive powers must be >= 0"),
        ({"p2_w": "-1"}, "drive powers must be >= 0"),
        ({"p2_w": "nan"}, "key 'p2_w': 'nan' is not a finite number"),
    ])
    def test_bad_power_rejected(self, override, message):
        with pytest.raises(oe.ParameterError, match=message):
            oe.parse_config(POWERS_CONFIG, override)

    def test_powers_convert_after_gamma_is_validated(self):
        with pytest.raises(oe.ParameterError, match="gamma must be strictly positive"):
            oe.parse_config(POWERS_CONFIG, {"gamma_hz": "-3.2e6"})

    def test_format_key_validated(self):
        with pytest.raises(oe.ParseError, match="format"):
            oe.parse_config("defaults: paper\nformat = yaml\n")


class TestSerializeRoundTrip:
    def test_identity_on_paper_config(self):
        cfg = oe.parse_config("defaults: paper\n")
        text = oe.serialize_config(cfg)
        # the drive is written as the detunings it holds
        assert f"delta1_rads = {cfg.params.drive.Delta_1:.17g}" in text
        assert "omega_l" not in text
        again = oe.parse_config(text)
        assert again.params == cfg.params
        assert again.format == cfg.format

    def test_identity_on_power_drive(self):
        # a powers config serializes as its amplitudes, which parse back exactly
        cfg = oe.parse_config(POWERS_CONFIG + "format = jsonlines\n")
        text = oe.serialize_config(cfg)
        assert "p1_w" not in text and f"drive_omega1_rads = {cfg.params.drive.omega_1:.17g}" in text
        again = oe.parse_config(text)
        assert again.params == cfg.params
        assert again.format == "jsonlines"


class TestEmitRows:
    def row(self, columns=BASE_COLUMNS, **extra):
        base = {
            "omega_rads": 1.25e6, "omega_over_gamma": 0.0621,
            "n": 23.5, "k_x": 23.4, "epr_variance": 0.021,
            "S_db": 16.8, "eof": 5.01, "log_negativity": 5.57,
            "model": "adiabatic", "flags": "",
        }
        base.update(extra)
        return tuple(base[col] for col in columns)

    def test_empty_rows_header_only(self):
        text = render_rows([], "csv")
        assert text == ",".join(BASE_COLUMNS) + "\n"

    def test_column_order_fixed(self):
        text = render_rows([self.row()], "csv")
        header = text.splitlines()[0]
        assert header == ("omega_rads,omega_over_gamma,n,k_x,epr_variance,"
                          "S_db,eof,log_negativity,model,flags")

    def test_jsonlines_round_trip_bit_exact(self):
        rows = [self.row(omega_rads=-1.2345678901234567e7, eof=0.1 + 0.2)]
        text = render_rows(rows, "jsonlines")
        parsed = read_jsonlines(text)
        again = render_rows([tuple(row.values()) for row in parsed], "jsonlines")
        assert again == text
        assert parsed[0]["omega_rads"] == rows[0][0]
        assert parsed[0]["eof"] == rows[0][6]

    def test_seventeen_digit_floats(self):
        text = render_rows([self.row(omega_rads=math.pi * 1e7)], "csv")
        assert "31415926.535897933" in text

    def test_deterministic(self):
        rows = [self.row(), self.row(omega_rads=2e6)]
        assert render_rows(rows, "csv") == render_rows(rows, "csv")

    def test_missing_values(self):
        # a missing value is a NaN cell: nan in CSV, null in JSON lines
        text = render_rows([self.row(n=math.nan, eof=math.nan)], "csv")
        cells = text.splitlines()[1].split(",")
        assert cells[2] == "nan"
        assert cells[6] == "nan"
        js = read_jsonlines(render_rows([self.row(n=math.nan)], "jsonlines"))
        assert js[0]["n"] is None

    def test_deviation_columns_appended(self):
        cols = BASE_COLUMNS + ("dev_rwa3",)
        text = render_rows([self.row(cols, dev_rwa3=0.031)], "csv", columns=cols)
        assert text.splitlines()[0].endswith("flags,dev_rwa3")
        last_cell = text.splitlines()[1].split(",")[-1]
        assert float(last_cell) == 0.031  # 17-significant-digit serialization round-trips

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_rows([], "xml")

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    @pytest.mark.parametrize("cell", [None, 3, True, np.float64(0.5), "0.5"],
                             ids=["None", "int", "bool", "float64", "mixed"])
    def test_cell_of_another_type_rejected(self, cell, fmt):
        # a column is all floats or all strings; anything else is a bug upstream,
        # so n here is a float in the first row and the cell in the second
        with pytest.raises(TypeError, match="'n'"):
            render_rows([self.row(), self.row(n=cell)], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    @pytest.mark.parametrize("rows", [[()], [("a",) * 11]], ids=["short", "long"])
    def test_row_of_another_length_rejected(self, rows, fmt):
        with pytest.raises(ValueError, match="one cell per column"):
            render_rows(rows, fmt)


def reference_render_rows(rows, fmt, columns=BASE_COLUMNS):
    """render_rows formatting every cell on its own, as a reference."""
    def csv_value(value):
        if value is None:
            return "nan"
        if isinstance(value, str):
            return value
        if isinstance(value, float) and math.isnan(value):
            return "nan"
        if isinstance(value, (int, float)):
            return f"{float(value):.17g}"
        return str(value)

    def json_value(value):
        if value is None:
            return None
        if isinstance(value, float):
            if math.isnan(value) or math.isinf(value):
                return None
            return float(f"{value:.17g}")
        return value

    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(csv_value(row.get(col)) for col in columns))
        return "\n".join(lines) + "\n"
    lines = []
    for row in rows:
        obj = {col: json_value(row.get(col)) for col in columns}
        lines.append(json.dumps(obj, separators=(",", ":"), sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")


# Cells: floats of every kind, -0.0, NaN and the infinities among them, and
# strings with the characters CSV, JSON and % templates treat specially.
CELLS = {
    float: st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])),
    str: st.text(alphabet=st.sampled_from(list('ab,"%\\ \u00e9\u03b3\u2603\n')), max_size=6),
}
EXTRA_COLUMNS = st.lists(st.sampled_from(["dev_rwa3", "dev_%s", "x,y", 'q"', "\u03b3"]),
                         max_size=3, unique=True)


@st.composite
def tables(draw):
    """Tuple rows under BASE_COLUMNS and some extra columns, each column all floats or all strings."""
    columns = BASE_COLUMNS + tuple(draw(EXTRA_COLUMNS))
    kinds = [draw(st.sampled_from([float, str])) for _ in columns]
    rows = [tuple(draw(CELLS[kind]) for kind in kinds) for _ in range(draw(st.integers(0, 6)))]
    return rows, columns


class TestColumnwiseRendering:
    @given(tables(), st.sampled_from(["csv", "jsonlines"]))
    def test_as_the_per_cell_renderer(self, table, fmt):
        rows, columns = table
        expected = reference_render_rows([dict(zip(columns, row)) for row in rows], fmt, columns)
        assert render_rows(rows, fmt, columns) == expected

    @pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
    def test_sweep_table_as_the_per_cell_renderer(self, fmt):
        # a sweep's error row, NaN in every float column, renders as a row
        # that holds only model and flags
        row = TestEmitRows().row
        rows = [row(omega_rads=w, eof=math.nan if w < 0 else 0.1 * w) for w in (-1.5, 0.0, 2.5e6)]
        error = {"model": "adiabatic", "flags": "alpha=20000;error:ParameterError"}
        expected = [dict(zip(BASE_COLUMNS, r)) for r in rows]
        rows.insert(1, (math.nan,) * 8 + tuple(error.values()))
        expected.insert(1, error)
        assert render_rows(rows, fmt) == reference_render_rows(expected, fmt)
