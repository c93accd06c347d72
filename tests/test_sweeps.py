import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import optoepr as oe
from optoepr import langevin, spectrum, sweeps
from optoepr.spectrum import closed_form_grid, eof_array, offset_x
from optoepr.sweeps import PeakStats, SweepSpec, _parabolic_refine, peak_statistics, run_sweep


def reference_peak_statistics(omega, eof_curve, within=0.01):
    """peak_statistics with its local maxima found point by point, as a reference."""
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(eof_curve, dtype=float)
    maxima = []
    for i in range(len(y)):
        left = y[i - 1] if i > 0 else -math.inf
        right = y[i + 1] if i < len(y) - 1 else -math.inf
        if y[i] >= left and y[i] >= right and (y[i] > left or y[i] > right):
            maxima.append(i)
    if not maxima:
        maxima = [int(np.argmax(y))]
    refined = [_parabolic_refine(omega, y, i) for i in maxima]
    peak = max(v for _, v in refined)
    peak_omegas = tuple(sorted(x for x, v in refined if v >= (1.0 - within) * peak))

    half = 0.5 * peak
    above = y >= half
    fwhm = 0.0
    if np.any(above):
        lo = int(np.argmax(above))
        hi = len(above) - 1 - int(np.argmax(above[::-1]))
        left_edge = omega[lo]
        if lo > 0 and y[lo] != y[lo - 1]:
            left_edge = omega[lo - 1] + (half - y[lo - 1]) * (omega[lo] - omega[lo - 1]) / (y[lo] - y[lo - 1])
        right_edge = omega[hi]
        if hi < len(y) - 1 and y[hi] != y[hi + 1]:
            right_edge = omega[hi] + (half - y[hi]) * (omega[hi + 1] - omega[hi]) / (y[hi + 1] - y[hi])
        fwhm = float(right_edge - left_edge)
    return PeakStats(peak_eof=float(peak), peak_omegas=peak_omegas, fwhm=fwhm)


# Curves of 1 to 40 points: levels 0..4 (plateaus, flat tops and ends), levels
# rounded from random floats, constants, and unrounded floats.
CURVES = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=40).map(lambda v: 0.75 * np.array(v, float)),
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40).map(lambda v: np.round(v, 0)),
    st.builds(np.full, st.integers(1, 12), st.floats(0.0, 20.0)),
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40).map(np.array),
)


class TestPeakStatistics:
    def test_single_parabola(self):
        omega = np.linspace(-1.0, 1.0, 201)
        curve = 5.0 - 4.0 * omega**2
        stats = peak_statistics(omega, curve)
        assert stats.peak_eof == pytest.approx(5.0, rel=1e-9)
        assert stats.peak_omegas == pytest.approx((0.0,), abs=1e-9)
        # half maximum at 5 - 4 w^2 = 2.5 -> w = sqrt(0.625)
        assert stats.fwhm == pytest.approx(2 * math.sqrt(0.625), rel=1e-3)

    def test_twin_peaks(self):
        omega = np.linspace(-2.0, 2.0, 801)
        curve = np.exp(-((np.abs(omega) - 1.0) ** 2) / 0.05)
        stats = peak_statistics(omega, curve)
        assert len(stats.peak_omegas) == 2
        assert stats.peak_omegas[0] == pytest.approx(-1.0, abs=1e-3)
        assert stats.peak_omegas[1] == pytest.approx(1.0, abs=1e-3)

    @given(CURVES)
    @example(np.array([2.0]))
    @example(np.array([1.0, 2.0]))
    @example(np.array([2.0, 1.0, 2.0]))
    @example(np.array([3.0, 3.0, 1.0, 1.0, 2.0, 2.0]))
    @example(np.array([0.0, 0.0, 0.0]))
    def test_matches_pointwise_loop(self, curve):
        omega = np.linspace(-1.0, 1.0, len(curve))
        assert peak_statistics(omega, curve) == reference_peak_statistics(omega, curve)

    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.75, 1.5, 3.0, math.nan]) | st.floats(0.0, 20.0),
                 min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_curves_of_a_block_as_the_pointwise_loop(self, curves):
        y = np.array(curves)
        omega = np.linspace(-1.0, 1.0, y.shape[1])
        # repr tells NaN fields apart where == cannot
        stats = [sweeps._peak_statistics_row(omega, curve, maxima)
                 for curve, maxima in zip(y, sweeps._refined_maxima(omega, y))]
        assert repr(stats) == repr([reference_peak_statistics(omega, curve) for curve in y])

    @pytest.mark.parametrize("curve", [[math.nan] * 3, [1.0, math.nan, 3.0, 2.0],
                                       [math.nan, 2.0, 2.0, 1.0]])
    def test_nan_points_as_the_pointwise_loop(self, curve):
        omega = np.linspace(-1.0, 1.0, len(curve))
        # repr tells NaN fields apart where == cannot
        assert repr(peak_statistics(omega, curve)) == repr(reference_peak_statistics(omega, curve))

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            peak_statistics([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            peak_statistics(np.linspace(-1.0, 1.0, 5), np.ones(4))

    @pytest.mark.parametrize("curve, message", [
        ([0.1, math.inf, 0.2], "must not hold an infinite value"),
        ([-math.inf, 0.3, 0.2], "must not hold an infinite value"),
        ([[0.1], [0.3], [0.2]], r"must be 1-D, got shape \(3, 1\)"),
        ([[0.1, 0.3, 0.2]], r"must be 1-D, got shape \(1, 3\)"),
    ], ids=["inf", "minus_inf", "column", "row"])
    def test_curve_not_1d_or_infinite_rejected(self, curve, message):
        # an infinite point gave fwhm = nan with two RuntimeWarnings; NaN marks a failed
        # point and stays allowed
        with pytest.raises(ValueError, match="eof_curve " + message):
            peak_statistics(np.linspace(-1.0, 1.0, 3), curve)
        omega, nan_curve = np.linspace(-1.0, 1.0, 5), [0.1, math.nan, 0.2, 0.5, 0.3]
        assert repr(peak_statistics(omega, nan_curve)) == repr(
            reference_peak_statistics(omega, nan_curve))

    def test_descending_grid_rejected(self):
        # read on the reversed grid, the half-maximum edges swap and the FWHM turns negative
        omega = np.linspace(-2.0, 2.0, 401)
        curve = np.exp(-omega * omega / 0.25)
        assert peak_statistics(omega, curve).fwhm == pytest.approx(math.sqrt(math.log(2.0)),
                                                                   rel=1e-4)
        with pytest.raises(ValueError, match="omega_grid must be ascending"):
            peak_statistics(omega[::-1], curve[::-1])

    def test_uneven_grid_rejected(self):
        # the parabola assumes even spacing: on this grid it reads 1.0368 at 0.2805 for a
        # Gaussian whose maximum is 1.0 at 0.3
        omega = np.sort(np.concatenate([np.linspace(-2.0, 0.25, 30), [0.31, 0.9],
                                        np.linspace(1.0, 2.0, 9)]))
        even = np.linspace(-2.0, 2.0, 41)
        stats = peak_statistics(even, np.exp(-(even - 0.3) ** 2))
        assert stats.peak_eof == pytest.approx(1.0) and stats.peak_omegas == pytest.approx((0.3,))
        with pytest.raises(ValueError, match="omega_grid must be evenly spaced"):
            peak_statistics(omega, np.exp(-(omega - 0.3) ** 2))


def forbid_solves(monkeypatch):
    def solve(params):
        raise AssertionError("steady state solved before the grid was checked")
    monkeypatch.setattr(sweeps, "solve_steady_state", solve)


UNEVEN = np.array([0.0, 1e6, 3e6])


# Grids the frequency-grid rule (spectrum.one_d_grid) rejects, with its message.
NOT_FINITE = "frequency grid must be finite and |omega| <= 5.79e+76 rad/s"
BAD_GRIDS = {"infinite": ([0.0, math.inf], NOT_FINITE),
             "nan": ([math.nan, 0.0, 1.0], NOT_FINITE),
             "beyond the limit": ([0.0, 1e300], NOT_FINITE),
             "just beyond the limit": ([-np.nextafter(spectrum.OMEGA_LIMIT, math.inf), 0.0],
                                       NOT_FINITE),
             "2d": (np.zeros((2, 3)), "frequency grid must be 1-D, got shape (2, 3)")}

# Every entry point that takes a frequency grid and checks it by the rule, as a call
# on (params, derived, grid).
GRID_ENTRY_POINTS = {
    **{f"evaluate {model}": lambda params, derived, grid, model=model:
       oe.evaluate(derived, grid, model) for model in ("adiabatic_response", "rwa3", "full6")},
    "compare_models": lambda params, derived, grid: oe.compare_models(derived, grid),
    "SweepSpec": lambda params, derived, grid: SweepSpec(
        axis="temperature", values=(4.0, 300.0), base=params, omega_grid=grid),
    "peak_statistics": lambda params, derived, grid: peak_statistics(grid, np.zeros(len(grid))),
    "sensitivity_analysis": lambda params, derived, grid: oe.sensitivity_analysis(
        params, 1e5, 0.01, omega_grid=grid),
    "find_optimum_d_numeric": lambda params, derived, grid: oe.find_optimum_d_numeric(
        params, (1e6, 2e6), omega_grid=grid),
}


@pytest.mark.parametrize("grid_name", BAD_GRIDS)
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
def test_grid_rule_rejects_before_solving(entry, grid_name, paper_params, paper_derived,
                                          monkeypatch):
    def fail(*args):
        raise AssertionError("solved or evaluated before the grid was checked")
    forbid_solves(monkeypatch)
    monkeypatch.setattr(langevin, "_output_rows", fail)
    monkeypatch.setattr(spectrum, "_closed_form", fail)
    grid, message = BAD_GRIDS[grid_name]
    with pytest.raises(ValueError, match=re.escape(message)):
        GRID_ENTRY_POINTS[entry](paper_params, paper_derived, grid)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0, 0.0])
def test_default_grid_needs_a_positive_finite_gamma(gamma):
    # a NaN gamma would give a NaN grid and a negative one a descending grid, which
    # only the grid checks downstream would reject, by messages about the grid
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        oe.default_omega_grid(gamma)


class TestRunSweep:
    def test_single_value_sweep_equals_direct_spectrum(self, optimum_params,
                                                       optimum_derived, omega_grid):
        spec = SweepSpec(axis="temperature", values=(300.0,), base=optimum_params,
                         omega_grid=omega_grid)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        direct = eof_array(oe.evaluate(optimum_derived, omega_grid, "adiabatic").x)
        assert np.allclose(result.rows[0].eof, direct, rtol=1e-9)

    def test_temperature_insensitive_peak_and_narrowing_width(self, optimum_params,
                                                              omega_grid):
        spec = SweepSpec(axis="temperature", values=(4.0, 77.0, 300.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        peaks = [r.peak_eof for r in rows]
        assert (max(peaks) - min(peaks)) < 0.01 * max(peaks)
        fwhm_4, fwhm_77, fwhm_300 = (r.fwhm for r in rows)
        assert fwhm_300 < fwhm_77 < fwhm_4

    def test_q_insensitivity(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="Q", values=(300.0, 3000.0, 30000.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        peaks = [r.peak_eof for r in rows]
        assert (max(peaks) - min(peaks)) < 0.03 * max(peaks)

    def test_strong_driving_splits_peaks(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="alpha", values=(2000.0, 3000.0, 4000.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        separations = []
        for row in rows:
            assert row.error is None
            assert len(row.peak_omegas) == 2
            lo, hi = row.peak_omegas
            assert lo == pytest.approx(-hi, rel=1e-6)
            separations.append(hi - lo)
        assert separations[0] < separations[1] < separations[2]

    def test_row_order_independent(self, optimum_params, omega_grid):
        up = run_sweep(SweepSpec(axis="temperature", values=(4.0, 300.0),
                                 base=optimum_params, omega_grid=omega_grid))
        down = run_sweep(SweepSpec(axis="temperature", values=(300.0, 4.0),
                                   base=optimum_params, omega_grid=omega_grid))
        assert up.rows[0].peak_eof == down.rows[1].peak_eof
        assert up.rows[1].peak_eof == down.rows[0].peak_eof

    def test_error_rows_recorded_not_fatal(self, paper_params, paper_derived, omega_grid):
        # second value pushes Delta_2' through zero: no valid operating point
        big = paper_params.omega_m + 2.0 * paper_derived.delta
        spec = SweepSpec(axis="d", values=(1e6, big), base=paper_params,
                         omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        assert rows[0].error is None
        assert rows[1].error is not None
        assert math.isnan(rows[1].peak_eof)

    def test_row_failing_its_solve_recorded_by_name(self, paper_params, paper_derived,
                                                    omega_grid):
        # eleven times the drive power pushes the operating point out of the window
        recorded, = sweeps._axis_rows("power_fluct", paper_params, paper_derived, [10.0])
        with pytest.raises(oe.SignConventionViolated) as raised:
            oe.solve_steady_state(sweeps._scaled_powers(paper_params, 11.0))
        assert type(recorded) is type(raised.value) and str(recorded) == str(raised.value)
        row, = run_sweep(SweepSpec(axis="power_fluct", values=(10.0,), base=paper_params,
                                   omega_grid=omega_grid)).rows
        assert row.error == "SignConventionViolated"
        assert math.isnan(row.peak_eof) and row.derived is None

    def test_out_of_domain_row_recorded_not_fatal(self, paper_params, omega_grid):
        # alpha = 20000 puts a laser more than 10 omega_m from the cavity
        rows = run_sweep(SweepSpec(axis="alpha", values=(500.0, 20000.0), base=paper_params,
                                   omega_grid=omega_grid)).rows
        assert rows[0].error is None and rows[0].peak_eof > 0.0
        assert rows[1].error == "ParameterError"
        assert math.isnan(rows[1].peak_eof) and rows[1].derived is None

    def test_peak_eof_monotone_in_alpha_with_reoptimized_d(self, paper_params,
                                                           paper_derived, omega_grid):
        peaks = []
        for alpha in (500.0, 1000.0, 2000.0):
            tuned = oe.operating_point_params(paper_params, alpha,
                                              paper_derived.delta, paper_derived.d)
            derived = oe.solve_steady_state(tuned)
            at_opt = oe.retuned_d(tuned, oe.optimum_d(derived).d_o)
            derived_opt = oe.solve_steady_state(at_opt)
            stats = peak_statistics(omega_grid,
                                    eof_array(oe.evaluate(derived_opt, omega_grid, "adiabatic").x))
            peaks.append(stats.peak_eof)
        assert peaks[0] < peaks[1] < peaks[2]

    def test_adiabatic_response_model_accepted(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="temperature", values=(4.0, 300.0), base=optimum_params,
                         omega_grid=omega_grid, model="adiabatic_response")
        rows = run_sweep(spec).rows
        assert [r.value for r in rows] == [4.0, 300.0]
        for row in rows:
            assert row.error is None
            assert row.peak_eof > 0.0

    def test_spec_validation(self, paper_params, omega_grid):
        with pytest.raises(ValueError):
            SweepSpec(axis="bogus", values=(1.0,), base=paper_params, omega_grid=omega_grid)
        with pytest.raises(ValueError):
            SweepSpec(axis="d", values=(), base=paper_params, omega_grid=omega_grid)
        with pytest.raises(ValueError):
            SweepSpec(axis="d", values=(1.0, 3.0, 2.0), base=paper_params,
                      omega_grid=omega_grid)

    def test_unknown_model_rejected_by_the_model_set_rule(self, paper_params, omega_grid):
        # the message evaluate, compare_models and verify give for the same name
        with pytest.raises(ValueError) as raised:
            langevin.model_set(("bogus",))
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            SweepSpec(axis="d", values=(1.0,), base=paper_params, omega_grid=omega_grid,
                      model="bogus")
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            oe.evaluate(oe.solve_steady_state(paper_params), omega_grid, "bogus")

    def test_uneven_grid_rejected(self, paper_params):
        with pytest.raises(ValueError, match="omega_grid must be evenly spaced"):
            SweepSpec(axis="d", values=(1.0,), base=paper_params, omega_grid=UNEVEN)

    @pytest.mark.parametrize("grid", [np.linspace(-4e7, 4e7, 100001), np.linspace(-1e7, 3e7, 7),
                                      np.linspace(1e9, 1e9 + 1e-3, 9),   # steps ~ the rounding
                                      np.array([2e6]), np.array([1e6, 3e6])])
    def test_linspace_grids_accepted(self, paper_params, grid):
        assert SweepSpec(axis="d", values=(1.0,), base=paper_params, omega_grid=grid).axis == "d"

    @pytest.mark.parametrize("grid", [np.linspace(3e7, -1e7, 7), np.array([3e6, 1e6])],
                             ids=["7_points", "2_points"])
    def test_descending_grid_rejected(self, paper_params, grid):
        with pytest.raises(ValueError, match="omega_grid must be ascending"):
            SweepSpec(axis="d", values=(1.0,), base=paper_params, omega_grid=grid)


def alone(derived, omega):
    """_peaks of one solved row, raising its error."""
    result, = sweeps._peaks([derived], omega, "adiabatic")
    if isinstance(result, Exception):
        raise result
    return result


def reference_peak(derived, omega):
    """x, EOF curve and peak EOF of one solved row, or the error its first failed point
    names, taken from the named closed-form evaluation and the full peak statistics."""
    ev = oe.evaluate(derived, omega, "adiabatic")
    if ev.failed.any():
        i = int(np.argmax(ev.failed))
        return getattr(oe, ev.error[i])(f"adiabatic output failed at omega = {omega[i]:.6e}")
    curve = eof_array(ev.x)
    return ev.x, curve, peak_statistics(omega, curve).peak_eof


def assert_as_reference(result, omega):
    """A _peaks result equals reference_peak of its row, or records the same error."""
    if isinstance(result, Exception):
        return
    derived, x, curve, maxima = result
    ref_x, ref_curve, ref_peak = reference_peak(derived, omega)
    assert np.array_equal(x, ref_x) and np.array_equal(curve, ref_curve)
    assert maxima == sweeps._refined_maxima(omega, curve[None, :])[0]
    assert max(v for _, v in maxima) == ref_peak == peak_statistics(omega, curve).peak_eof


def spy_peaks(monkeypatch):
    """Record every _peaks call as (rows, results)."""
    calls = []
    peaks = sweeps._peaks

    def spy(rows, omega, model):
        results = peaks(rows, omega, model)
        calls.append((list(rows), results))
        return results
    monkeypatch.setattr(sweeps, "_peaks", spy)
    return calls


# Configs of the `opsearch` pool (perfbench) written out: a moderate one, and two
# strong drives whose grid-peak objective showed separated maxima on the 33-point
# scan, so that the search raised BracketError.
MODERATE_CONFIG = ("defaults: paper\ntarget_alpha = 611.9592110650846\n"
                   "target_delta_hz = 27098745.985448983\ntarget_d_over_gamma = 0.24833265076341998\n"
                   "temperature_k = 62.35446312365716\nq_factor = 64893.719388428224\n")
STRONG_CONFIGS = {
    "alpha_11015": ("defaults: paper\ntarget_alpha = 11014.541807496174\n"
                    "target_delta_hz = 7210599.971802066\ntarget_d_over_gamma = 0.15642596201563333\n"
                    "temperature_k = 48.85455373626206\nq_factor = 4456.571267524191\n"),
    "alpha_9136": ("defaults: paper\ntarget_alpha = 9136.412218260257\n"
                   "target_delta_hz = 2243026.7940301253\ntarget_d_over_gamma = 0.26871118252803156\n"
                   "temperature_k = 32.847275296907284\nq_factor = 132733.75452892095\n"),
}


def eof_objective(monkeypatch):
    """Make the d-search's objective the negated EOF of the plain objective's least x."""
    objective = sweeps._search_objective
    monkeypatch.setattr(sweeps, "_search_objective", lambda base_derived, d, omega:
                        -eof_array(objective(base_derived, d, omega)))


def search_setup(config):
    """Params, base steady state, the benchmark's bracket (d_o / 4 to 4 d_o, capped at
    gamma / 2) and 401-point grid of a config."""
    params = oe.parse_config(config).params
    derived = oe.solve_steady_state(params)
    d_o = oe.optimum_d(derived).d_o
    return (params, derived, (0.25 * d_o, min(4.0 * d_o, 0.5 * params.gamma)),
            oe.default_omega_grid(params.gamma, 401))


def spy_objective(monkeypatch):
    """Record the offsets of every pass of the d-search's objective."""
    passes = []
    objective = sweeps._search_objective

    def spy(base_derived, d, omega):
        passes.append(np.array(d))
        return objective(base_derived, d, omega)
    monkeypatch.setattr(sweeps, "_search_objective", spy)
    return passes


def no_prefetch(monkeypatch):
    """Make the d-search predict no rows ahead: each round's pass scores its own rows alone,
    one pass per round."""
    monkeypatch.setattr(sweeps, "_rounds_ahead", lambda *args: [])


def failing_objective(monkeypatch, failing):
    """Make the d-search's objective raise DomainError for a pass holding any of the offsets
    ``failing``, naming the last of them in the pass; return the passes that raised."""
    objective = sweeps._search_objective
    raised = []

    def stub(base_derived, d, omega):
        hit = [dk for dk in d.tolist() if dk in failing]
        if hit:
            raised.append(np.array(d))
            raise oe.DomainError(f"stub failure at d = {hit[-1]!r}")
        return objective(base_derived, d, omega)
    monkeypatch.setattr(sweeps, "_search_objective", stub)
    return raised


def continuous_min(derived, d, omega):
    """The designed rows' x at the offsets ``d`` on the grid and their continuous minima."""
    x_at = offset_x(derived, d)
    x, _ = x_at(omega)
    return x, sweeps._continuous_min(x_at, omega, x)


def assert_designed_rows(params, derived, d, omega):
    """Each designed row at the offsets ``d`` is its solved ``d`` row, and its continuous
    minimum is the least x over the cells next to its grid minimum.

    The solved row realizes its offset only up to the rounding of its intensity
    root, so the designed row is compared at the solved row's realized offset,
    where its x matches the solved row's closed form to 1e-8 relative.  The
    continuous minimum is at most the grid minimum, and agrees with the minimum on
    a 100x finer grid over the same cells: no worse than it by more than rounding
    (4 ulp of n), and better by at most what that finer grid can miss, its
    curvature times (spacing / 2)^2 / 2.
    """
    x, least = continuous_min(derived, d, omega)
    rounding = []
    for dk in d.tolist():
        solved = oe.solve_steady_state(sweeps._row_params("d", params, derived, dk))
        assert abs(solved.d - dk) <= 1e-6 * abs(dk)
        named = closed_form_grid(solved, omega)
        assert not named.failed.any()
        designed, _ = offset_x(derived, [solved.d])(omega)
        assert np.max(np.abs(designed[0] - named.x) / named.x) <= 1e-8
        rounding.append(4.0 * np.spacing(named.n[np.argmin(named.x)]))
    assert np.all(least <= x.min(axis=1))

    rows = np.arange(len(d))
    i = np.argmin(x, axis=1)
    left, right = omega[np.maximum(i - 1, 0)], omega[np.minimum(i + 1, len(omega) - 1)]
    step = (right - left) / 200
    fine = offset_x(derived, d)(left[:, None] + step[:, None] * np.arange(201))[0]
    j = np.clip(np.argmin(fine, axis=1), 1, 199)
    curvature = (fine[rows, j - 1] - 2.0 * fine[rows, j] + fine[rows, j + 1]) / step**2
    fine_min = fine.min(axis=1)
    assert np.all(least <= fine_min + rounding)
    assert np.all(fine_min - least <= curvature * step**2 / 8.0 + rounding)


def domain_edge_bracket(params, derived, edge):
    """A search bracket from inside the domain of the ``d`` rows across one of its edges:
    Delta_2' = 0, Delta_1' = 0, or laser 1 or 2 10 omega_m below (-) or above (+) the
    cavity."""
    d_o = oe.optimum_d(derived).d_o
    center = params.omega_m + derived.delta
    if edge == "delta_2p":   # Delta_2' = center - d
        return d_o, center + derived.delta
    if edge == "delta_1p":   # Delta_1' = -(center + d)
        return -2.0 * center, d_o
    # laser j sits at omega_p -/+ nu + Delta_j' - shift, Delta_j' = -/+ center - d
    j, side = int(edge[6]), edge[7]
    shift = 2.0 * params.eta**2 * params.omega_m * (2.0 * derived.alpha**2)
    sign = 1.0 if side == "+" else -1.0
    at = (params.nu if j == 1 else -params.nu) + (-center if j == 1 else center) - shift
    d = at - sign * 10.0 * params.omega_m   # the offset putting the laser at the edge
    return (d_o, d + abs(d)) if d > d_o else (d - abs(d), d_o)


def wide_nu_point(params, derived):
    """The paper's operating point at nu = 10 omega_m + (omega_m + delta) / 2, and its
    steady state: laser 1 reaches 10 omega_m above the cavity, and laser 2 10 omega_m
    below it, inside the window Delta_1' < 0 < Delta_2'."""
    nu = 10.0 * params.omega_m + 0.5 * (params.omega_m + derived.delta)
    wide = oe.operating_point_params(params.scaled(nu=nu), derived.alpha, derived.delta,
                                     derived.d)
    return wide, oe.solve_steady_state(wide)


def sequential_scan_error(params, derived, scan, omega):
    """The error of scanning the offsets ``scan`` one ``d`` row at a time: a row outside
    the parameter domain before any other, then the first row whose building or full
    evaluation fails; None if none fails."""
    rows = []
    for dval in scan:
        try:
            rows.append(sweeps._row_params("d", params, derived, dval))
        except (oe.ParameterError, oe.PhysicsError) as exc:
            rows.append(exc)
    parameter = [row for row in rows if isinstance(row, oe.ParameterError)]
    if parameter:
        return parameter[0]
    for row in rows:
        if isinstance(row, Exception):
            return row
        try:
            alone(oe.solve_steady_state(row), omega)
        except oe.PhysicsError as exc:
            return exc
    return None


class TestBatchedPeaks:
    """The batched pass gives each row exactly what the row evaluated alone gives."""

    @pytest.mark.parametrize("points", [401, 2001])
    def test_sweep_rows_equal_single_peaks(self, paper_params, paper_derived, points):
        omega = oe.default_omega_grid(paper_params.gamma, points)
        d_o = oe.optimum_d(paper_derived).d_o
        values = tuple(np.linspace(0.3 * d_o, 3.0 * d_o, 11))
        rows = run_sweep(SweepSpec(axis="d", values=values, base=paper_params,
                                   omega_grid=omega)).rows
        for value, row in zip(values, rows):
            derived, x, eof_curve, maxima = alone(oe.solve_steady_state(
                sweeps._row_params("d", paper_params, paper_derived, float(value))), omega)
            assert row.derived == derived
            assert np.array_equal(row.epr_variance, x) and np.array_equal(row.eof, eof_curve)
            stats = reference_peak_statistics(omega, eof_curve)
            assert (row.peak_eof, row.peak_omegas, row.fwhm) == (stats.peak_eof,
                                                                 stats.peak_omegas, stats.fwhm)
            assert row.peak_eof == max(v for _, v in maxima)

    def test_sweep_refines_each_row_once(self, paper_params, omega_grid, monkeypatch):
        calls = []
        refined = sweeps._refined_maxima

        def spy(omega, y):
            calls.append(y.shape[0])
            return refined(omega, y)
        monkeypatch.setattr(sweeps, "_refined_maxima", spy)
        run_sweep(SweepSpec(axis="temperature", values=(4.0, 77.0, 300.0), base=paper_params,
                            omega_grid=omega_grid))
        assert calls == [3]   # the three rows in one block, none refined again for its stats

    @pytest.mark.parametrize("points", [401, 2001])
    def test_optimum_scan_equals_single_peaks(self, paper_params, paper_derived, points,
                                              monkeypatch):
        # the search's scan rows are designed, not solved: each is its solved d row
        omega = oe.default_omega_grid(paper_params.gamma, points)
        d_o = oe.optimum_d(paper_derived).d_o
        passes = spy_objective(monkeypatch)
        oe.find_optimum_d_numeric(paper_params, (0.3 * d_o, 3.0 * d_o), omega_grid=omega)
        assert len(passes[0]) == 33
        assert_designed_rows(paper_params, paper_derived, passes[0], omega)

    def test_raised_evaluation_error_recorded_on_its_row(self, optimum_params, omega_grid,
                                                         monkeypatch):
        # an exact model's rows go through langevin.evaluate, imported where it is run
        evaluate = langevin.evaluate

        def singular_when_hot(derived, omegas, model):
            if derived.n_m > 1e5:
                raise oe.SingularDrift("rwa3 drift singular on the frequency grid")
            return evaluate(derived, omegas, model)
        monkeypatch.setattr(langevin, "evaluate", singular_when_hot)
        rows = run_sweep(SweepSpec(axis="temperature", values=(4.0, 3000.0), base=optimum_params,
                                   omega_grid=omega_grid[::20], model="rwa3")).rows
        assert rows[0].error != "SingularDrift" and rows[1].error == "SingularDrift"

    def test_failed_evaluation_kept_as_the_single_peak_raises_it(self, omega_grid):
        # alpha = 2000: a 1% power excursion unbalances the amplitudes
        params = oe.parse_config("defaults: paper\ntarget_alpha = 2000\n").params
        with pytest.warns(UserWarning, match="unequal cavity amplitudes"):
            rows = [oe.solve_steady_state(p) for p in (params, sweeps._scaled_powers(params, 1.01))]
        ok, failed = sweeps._peaks(rows, omega_grid, "adiabatic")
        with pytest.raises(oe.DomainError) as raised:
            alone(rows[1], omega_grid)
        expected = reference_peak(rows[1], omega_grid)
        assert ok[3] == alone(rows[0], omega_grid)[3]
        assert_as_reference(ok, omega_grid)
        assert type(failed) is type(expected) is oe.DomainError
        assert str(failed) == str(raised.value) == str(expected)


class TestSearchRows:
    """Every row of the d-search is its solved row, designed, and every row of the sensitivity
    analysis is the row's full evaluation."""

    def test_scan_and_round_rows_as_their_solved_rows(self, monkeypatch):
        params, derived, bracket, omega = search_setup(MODERATE_CONFIG)
        passes = spy_objective(monkeypatch)
        oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        # the scan, then rounds whose passes hold the rows of the rounds they predict
        assert len(passes) > 1 and any(len(d) > sweeps._ROUND_ROWS - 2 for d in passes[1:])
        for d in passes:
            assert_designed_rows(params, derived, d, omega)

    @pytest.mark.parametrize("config", ["paper", "moderate"])
    def test_no_offset_scored_twice(self, config, monkeypatch):
        # a round takes its bracket's ends from the pass before and scores only the rows inside
        # that no pass scored, its predicted rounds' rows included
        params, derived, bracket, omega = search_setup(
            "defaults: paper\n" if config == "paper" else MODERATE_CONFIG)
        passes = spy_objective(monkeypatch)
        oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        scored = np.concatenate(passes)
        assert len(passes) >= 3 and len(np.unique(scored)) == len(scored)

    @pytest.mark.parametrize("config", ["paper", "moderate", *STRONG_CONFIGS])
    def test_least_x_ranks_as_the_eof(self, config, monkeypatch):
        # the search ranks the rows by their least x, clipped at 1; ranking them by the
        # EOF of that x, highest first, finds the same d* to the bit
        params, derived, bracket, omega = search_setup(
            {"paper": "defaults: paper\n", "moderate": MODERATE_CONFIG, **STRONG_CONFIGS}[config])
        d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        eof_objective(monkeypatch)
        assert oe.find_optimum_d_numeric(params, bracket, omega_grid=omega) == d_star

    def test_separable_rows_score_one(self, paper_params, paper_derived, omega_grid):
        # at the paper point the rows at -4 gamma and -gamma / 2 are separable (least x
        # 2.79 and 1.02), where the EOF is 0: they score exactly 1.0, the others their x
        d = np.array([-4.0, -0.5, 0.1, 1.0]) * paper_params.gamma
        _, least = continuous_min(paper_derived, d, omega_grid)
        assert (least >= 1.0).tolist() == [True, True, False, False]
        scores = sweeps._search_objective(paper_derived, d, omega_grid)
        assert scores.tolist() == [1.0, 1.0, *least[2:].tolist()]

    @pytest.mark.parametrize("target_alpha", [1000, 2000])   # 2000: power cases fail
    def test_sensitivity_rows_as_their_full_curves(self, target_alpha, omega_grid, monkeypatch):
        # the baseline and the d rows are the base's designed rows, each the x of its offset
        # (offset_x) to the bit; the power rows are solved
        params = oe.parse_config(f"defaults: paper\ntarget_alpha = {target_alpha}\n").params
        base_derived = oe.solve_steady_state(params)
        calls = spy_peaks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = oe.sensitivity_analysis(params, 0.02 * params.gamma, 0.01,
                                             omega_grid=omega_grid)
            (rows, results), = calls
            for row, result in zip(rows, results):
                expected = row if isinstance(row, Exception) else reference_peak(row, omega_grid)
                if isinstance(expected, Exception):
                    assert type(result) is type(expected) and str(result) == str(expected)
                else:
                    assert_as_reference(result, omega_grid)
        for k in (0, 1, 3):   # baseline, d-jitter, d+jitter
            x, _ = offset_x(base_derived, [report.cases[k].d])(omega_grid)
            assert np.array_equal(results[k][1], x[0])
        assert sum(isinstance(r, Exception) for r in results) == (2 if target_alpha == 2000 else 0)

    @pytest.mark.parametrize("config", ["paper", "moderate", *STRONG_CONFIGS])
    def test_designed_row_is_its_solved_row(self, config):
        # measured over these offsets: every field within 8.5e-15 relative of the solved
        # row's, and d within 2.2e-10 (the solved d is the half sum of two detunings far
        # larger than itself)
        params, derived, bracket, omega = search_setup(
            "defaults: paper\n" if config == "paper" else STRONG_CONFIGS.get(config, MODERATE_CONFIG))
        for d in np.linspace(*bracket, 9).tolist():
            designed = sweeps._designed_row(params, derived, d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                solved = oe.solve_steady_state(sweeps._row_params("d", params, derived, d))
            assert designed.d == d and designed.g_prime == derived.g + d
            assert designed.d == pytest.approx(solved.d, rel=1e-9, abs=0.0)
            for name in ("alpha_1", "alpha_2", "beta", "Delta_1p", "Delta_2p", "delta", "g",
                         "gamma_m_tilde", "n_m"):
                assert getattr(designed, name) == pytest.approx(getattr(solved, name),
                                                                rel=5e-14, abs=0.0)
            assert not closed_form_grid(designed, omega).failed.any()

    def test_designed_row_outside_the_window_is_its_error(self, paper_params, paper_derived):
        edge = -(paper_params.omega_m + paper_derived.delta)   # Delta_1' = 0
        row = sweeps._designed_row(paper_params, paper_derived, 1.1 * edge)
        expected = sweeps._offset_error(paper_params, paper_derived, 1.1 * edge)
        assert type(row) is type(expected) is oe.SignConventionViolated
        assert str(row) == str(expected)

    def test_search_solves_the_base_then_one_pass_per_round(self, paper_params, paper_derived,
                                                            omega_grid, monkeypatch):
        d_o = oe.optimum_d(paper_derived).d_o
        lo, hi = 0.3 * d_o, 3.0 * d_o
        single, checked = [], []
        solve, drive = sweeps.solve_steady_state, sweeps.designed_drive

        def counting(params):
            single.append(params)
            return solve(params)

        def counting_checked(*args):
            checked.append(args)
            return drive(*args)

        def no_build(params):
            raise AssertionError("PhysicalParams built")

        monkeypatch.setattr(sweeps, "solve_steady_state", counting)
        monkeypatch.setattr(sweeps, "designed_drive", counting_checked)
        monkeypatch.setattr(oe.PhysicalParams, "__post_init__", no_build)
        monkeypatch.setattr(sweeps, "_SCAN_POINTS", 17)
        passes = spy_objective(monkeypatch)
        oe.find_optimum_d_numeric(paper_params, (lo, hi), omega_grid=omega_grid)
        # the base alone is solved; the bracket's two ends are checked, and no row after
        # them; nothing is built
        assert single == [paper_params]
        assert [args[3] for args in checked] == [lo, hi]
        rounds = len(passes) - 1
        # a round's rows are _ROUND_ROWS evenly spaced between the two rows of the pass
        # before around its best (two scored offsets of different passes may lie 1 ulp
        # apart, so the ends are taken from that pass's rows); it scores the
        # _ROUND_ROWS - 2 inside, less any an earlier pass scored: its middle row where
        # np.linspace reproduces the best offset of the pass before
        reused = []
        previous = passes[0]   # the scan scores all its rows
        for k in range(1, len(passes)):
            seen, d = np.concatenate(passes[:k]), passes[k]
            previous = np.linspace(previous[previous < d[0]].max(),
                                   previous[previous > d[-1]].min(), sweeps._ROUND_ROWS)
            rows = previous[1:-1]
            assert np.array_equal(d, rows[~np.isin(rows, seen)])
            reused.append(np.isin(rows, seen).tolist())
        middle_only = [False] * 3 + [True] + [False] * 3
        assert all(r in ([False] * 7, middle_only) for r in reused) and middle_only in reused
        assert [len(d) for d in passes] == [17] + [sweeps._ROUND_ROWS - 2 - sum(r) for r in reused]
        # the scan keeps 2 of its 16 cells, each round 2 of its _ROUND_ROWS - 1, until
        # the bracket is at most _TOL_FRAC of its larger end
        kept = math.log(sweeps._TOL_FRAC * hi / (2.0 * (hi - lo) / 16.0)) / math.log(2.0 / (sweeps._ROUND_ROWS - 1))
        assert kept % 1.0 > 0.01 and rounds == math.ceil(kept)


class TestSearchBlocks:
    """The d-search evaluates its offsets in blocks of at most ``_BLOCK_POINTS`` grid points:
    its memory does not grow with the grid, and neither its bits nor its errors move."""

    # Measured: 1.65 MB on the 20001-point grid (1.09 MB on 2001 points), against
    # 32.0 MB when the 33-row scan was one (33, N) block.
    PEAK_BYTES = 2.5e6

    def test_traced_peak_on_a_large_grid(self, paper_params, paper_derived):
        d_o = oe.optimum_d(paper_derived).d_o
        bracket = (0.25 * d_o, min(4.0 * d_o, 0.5 * paper_params.gamma))
        omega = oe.default_omega_grid(paper_params.gamma, 20001)
        assert sweeps._BLOCK_POINTS // len(omega) == 0   # one row per block
        tracemalloc.start()
        try:
            oe.find_optimum_d_numeric(paper_params, bracket, omega_grid=omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BYTES

    @pytest.mark.parametrize("config", ["paper", "moderate", *STRONG_CONFIGS])
    @pytest.mark.parametrize("rows_per_block", [1, 3, 5])
    def test_blocks_keep_the_bits(self, config, rows_per_block, monkeypatch):
        params, derived, bracket, omega = search_setup(
            {"paper": "defaults: paper\n", "moderate": MODERATE_CONFIG, **STRONG_CONFIGS}[config])
        scan = np.linspace(*bracket, sweeps._SCAN_POINTS)
        assert sweeps._BLOCK_POINTS // len(omega) >= len(scan)   # one block by default
        whole = sweeps._search_objective(derived, scan, omega)
        d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        monkeypatch.setattr(sweeps, "_BLOCK_POINTS", rows_per_block * len(omega))
        assert sweeps._search_objective(derived, scan, omega).tobytes() == whole.tobytes()
        assert oe.find_optimum_d_numeric(params, bracket, omega_grid=omega) == d_star

    @pytest.mark.parametrize("failing", [["degenerate", "nan"], ["nan", "degenerate"]])
    def test_first_failing_row_raised_from_a_later_block(self, paper_derived, failing,
                                                         monkeypatch):
        # with gamma = 2 s and g = 1.25 s (s a power of 2), the row at g' = 0.75 s has
        # |Delta|^2 = 0 exactly at omega = 0: DegenerateResponse there; a NaN offset
        # fails every point: DomainError at the grid's first
        s = 2.0**20
        derived = dataclasses.replace(paper_derived, g=1.25 * s, gamma=2.0 * s)
        omega = np.arange(-200, 201) * (s / 64)
        offsets = {"degenerate": -0.5 * s, "nan": math.nan}
        d = np.zeros(12)
        d[[7, 11]] = [offsets[name] for name in failing]
        expected = {"degenerate": (oe.DegenerateResponse, 0.0), "nan": (oe.DomainError, omega[0])}
        error, at = expected[failing[0]]
        for rows_per_block in (12, 5, 3, 1):   # one block, then the rows in later blocks
            monkeypatch.setattr(sweeps, "_BLOCK_POINTS", rows_per_block * len(omega))
            with pytest.raises(error) as raised:
                sweeps._search_objective(derived, d, omega)
            assert type(raised.value) is error
            assert str(raised.value) == f"adiabatic output failed at omega = {at:.6e}"


class TestSearchPrefetch:
    """A round's pass also scores the rows of the rounds it predicts after it, where they fit
    in its block; every decision reads scored values alone, so neither d* nor an error a
    round raises moves."""

    @pytest.mark.parametrize("config", ["paper", "moderate", *STRONG_CONFIGS])
    def test_prefetch_keeps_d_star(self, config, monkeypatch):
        params, _, bracket, omega = search_setup(
            {"paper": "defaults: paper\n", "moderate": MODERATE_CONFIG, **STRONG_CONFIGS}[config])
        d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        no_prefetch(monkeypatch)
        assert oe.find_optimum_d_numeric(params, bracket, omega_grid=omega) == d_star

    def test_prefetched_row_that_raises_changes_nothing(self, monkeypatch):
        # a row of a mispredicted round, which no round of the search scores, fails: the
        # pass holding it is run again on its round's own rows, and d* keeps its bits
        params, _, bracket, omega = search_setup("defaults: paper\n")
        passes = spy_objective(monkeypatch)
        d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        prefetched = np.concatenate(passes)
        passes.clear()
        with monkeypatch.context() as m:
            no_prefetch(m)
            oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        unused = prefetched[~np.isin(prefetched, np.concatenate(passes))]
        raised = failing_objective(monkeypatch, {float(unused[0])})
        assert oe.find_optimum_d_numeric(params, bracket, omega_grid=omega) == d_star
        assert len(raised) == 1

    @pytest.mark.parametrize("config", ["paper", "moderate"])
    def test_round_row_that_raises_raises_as_without_prefetch(self, config, monkeypatch):
        # the second round's first row fails, and the third round's last: without
        # prediction the second round's pass raises for its row; with it, the passes
        # holding both raise for the later one, and are run again on their round's own
        # rows, which raise the same error
        params, _, bracket, omega = search_setup(
            "defaults: paper\n" if config == "paper" else MODERATE_CONFIG)
        passes = spy_objective(monkeypatch)
        with monkeypatch.context() as m:
            no_prefetch(m)
            oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        rounds = passes[1:]   # one pass per round
        first = float(rounds[1][0])
        raised = failing_objective(monkeypatch, {first, float(rounds[2][-1])})
        with monkeypatch.context() as m:
            no_prefetch(m)
            with pytest.raises(oe.DomainError) as alone:
                oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        with pytest.raises(oe.DomainError) as prefetching:
            oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        assert type(prefetching.value) is type(alone.value) is oe.DomainError
        assert str(prefetching.value) == str(alone.value) == f"stub failure at d = {first!r}"
        assert any(len(d) > sweeps._ROUND_ROWS - 2 for d in raised)   # a prefetching pass raised

    @pytest.mark.parametrize("config", ["paper", "moderate"])
    def test_walk_predicted_right_scores_the_rows_in_a_third_of_the_passes(self, config,
                                                                          monkeypatch):
        # with the search's own d* as the predicted minimum, each pass scores its round
        # and the two after it as the search then takes them: the rows of the search
        # without prediction, in their order, in 1 + ceil(R / 3) passes for its R rounds
        params, _, bracket, omega = search_setup(
            "defaults: paper\n" if config == "paper" else MODERATE_CONFIG)
        passes = spy_objective(monkeypatch)
        with monkeypatch.context() as m:
            no_prefetch(m)
            d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=omega)
        alone = list(passes)
        passes.clear()
        walk = sweeps._rounds_ahead
        monkeypatch.setattr(sweeps, "_rounds_ahead", lambda _, *args: walk(d_star, *args))
        assert oe.find_optimum_d_numeric(params, bracket, omega_grid=omega) == d_star
        assert np.concatenate(passes).tobytes() == np.concatenate(alone).tobytes()
        assert len(passes) == 1 + math.ceil((len(alone) - 1) / 3) < len(alone)


class TestFindOptimumD:
    def test_matches_closed_form_within_five_percent(self, paper_params, paper_derived):
        d_o = oe.optimum_d(paper_derived).d_o
        d_star = oe.find_optimum_d_numeric(paper_params, (0.3 * d_o, 3.0 * d_o))
        assert abs(d_star - d_o) / d_o < 0.05

    def test_scaling_with_gamma(self, paper_params, paper_derived):
        # doubling gamma rescales the optimum consistently with the closed form
        d_o_1 = oe.optimum_d(paper_derived).d_o
        d_star_1 = oe.find_optimum_d_numeric(paper_params, (0.3 * d_o_1, 3.0 * d_o_1))
        wide = paper_params.scaled(gamma=2 * paper_params.gamma)
        wide = oe.operating_point_params(wide, 1000.0, paper_derived.delta, paper_derived.d)
        d_o_2 = oe.optimum_d(oe.solve_steady_state(wide)).d_o
        d_star_2 = oe.find_optimum_d_numeric(wide, (0.3 * d_o_2, 3.0 * d_o_2))
        assert d_star_2 / d_star_1 == pytest.approx(d_o_2 / d_o_1, rel=0.10)

    def test_degenerate_bracket_returns_point(self, paper_params, paper_derived):
        d_o = oe.optimum_d(paper_derived).d_o
        assert oe.find_optimum_d_numeric(paper_params, (d_o, d_o)) == d_o

    @pytest.mark.parametrize("f", [0.3, 0.95, 2.0])
    @pytest.mark.parametrize("r", [1e-9, 1e-12, 1e-14])
    def test_bracket_within_its_tolerance_returns_its_midpoint(self, paper_params,
                                                                paper_derived, f, r,
                                                                monkeypatch):
        # no row is scored: a scan of such a bracket differs only by rounding, and its
        # rounding dips read as separated maxima
        d_o = oe.optimum_d(paper_derived).d_o
        lo, hi = f * d_o, f * d_o * (1.0 + r)
        passes = spy_objective(monkeypatch)
        assert oe.find_optimum_d_numeric(paper_params, (lo, hi)) == 0.5 * (lo + hi)
        assert passes == []

    @pytest.mark.parametrize("bracket", [(1e30, 1e30), (1e30, 1e30 + 1e15)])
    def test_bracket_beyond_the_window_raises_for_its_point(self, paper_params, bracket):
        # a degenerate bracket's point is checked as a bracket's end is
        with pytest.raises(oe.SignConventionViolated) as error:
            oe.find_optimum_d_numeric(paper_params, bracket)
        assert type(error.value) is oe.SignConventionViolated
        assert str(error.value) == ("target d = 1.0000e+30 too large: "
                                    "Delta_2' = -1.0000e+30 would not be positive")

    def test_invalid_bracket(self, paper_params):
        with pytest.raises(oe.BracketError):
            oe.find_optimum_d_numeric(paper_params, (2e6, 1e6))

    def test_empty_grid_rejected_before_solving(self, paper_params, monkeypatch):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must be nonempty"):
            oe.find_optimum_d_numeric(paper_params, (1e6, 2e6), omega_grid=np.array([]))

    def test_uneven_grid_rejected_before_solving(self, paper_params, monkeypatch):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must be evenly spaced"):
            oe.find_optimum_d_numeric(paper_params, (1e6, 2e6), omega_grid=UNEVEN)

    @pytest.mark.parametrize("bracket", [(1e6, 2e6), (1e6, 1e6)])
    def test_one_point_grid_rejected_before_solving(self, paper_params, monkeypatch, bracket):
        # one point has no cell to refine the minimum in: the objective would be the
        # EOF at that frequency alone
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must have at least 2 points, got 1"):
            oe.find_optimum_d_numeric(paper_params, bracket, omega_grid=np.array([-6.4e7]))

    def test_descending_grid_rejected_before_solving(self, paper_params, omega_grid,
                                                     monkeypatch):
        # on a descending grid the continuous minimum would clip every round to one point
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must be ascending"):
            oe.find_optimum_d_numeric(paper_params, (1e6, 2e6), omega_grid=omega_grid[::-1])
        with pytest.raises(ValueError, match="omega_grid must be ascending"):
            oe.sensitivity_analysis(paper_params, 1e5, 0.01, omega_grid=omega_grid[::-1])

    def test_scan_row_out_of_domain_raised_before_solving(self, paper_params, paper_derived,
                                                          monkeypatch):
        # a laser more than 10 omega_m from the cavity fails the row's parameter checks
        forbid_solves(monkeypatch)
        monkeypatch.setattr(sweeps, "solve_steady_state", lambda params: paper_derived)
        bracket = (-20.0 * paper_params.omega_m, 1e6)
        with pytest.raises(oe.ParameterError):
            oe.find_optimum_d_numeric(paper_params, bracket)


    def test_separated_scan_maxima_raise(self, paper_params, monkeypatch):
        # two dips of the objective (humps of the EOF), at d = 1.25e6 and 1.75e6, on the
        # 33-point scan of (1e6, 2e6)
        monkeypatch.setattr(sweeps, "_search_objective", lambda derived, d, omega:
                            np.minimum(np.abs(d - 1.25e6), np.abs(d - 1.75e6)))
        with pytest.raises(oe.BracketError, match=r"scan maxima at d = \[1250000\.0, 1750000\.0\]"):
            oe.find_optimum_d_numeric(paper_params, (1e6, 2e6))

    def test_flat_objective_moves_the_bracket_up(self, paper_params, monkeypatch):
        # on equal values the highest offset is the best, so a flat objective ends at hi
        monkeypatch.setattr(sweeps, "_search_objective",
                            lambda derived, d, omega: np.zeros(len(d)))
        lo, hi = 1e6, 2e6
        d_star = oe.find_optimum_d_numeric(paper_params, (lo, hi))
        assert hi - 1e-4 * hi <= d_star <= hi

    def test_search_ends_when_no_float_is_left_in_the_bracket(self, paper_params,
                                                              paper_derived, monkeypatch):
        monkeypatch.setattr(sweeps, "_TOL_FRAC", 1e-300)
        d_o = oe.optimum_d(paper_derived).d_o
        d_star = oe.find_optimum_d_numeric(paper_params, (0.3 * d_o, 3.0 * d_o),
                                           omega_grid=oe.default_omega_grid(paper_params.gamma, 201))
        assert abs(d_star - d_o) / d_o < 0.05

    @pytest.mark.parametrize("name", sorted(STRONG_CONFIGS))
    def test_strong_drive_optimum_is_the_best_of_a_dense_scan(self, name):
        # the continuous-minimum objective has one maximum on the scan where the grid
        # peak had several; x is quantized at ulp(n) there, so d* itself is not pinned
        params, derived, (lo, hi), omega = search_setup(STRONG_CONFIGS[name])
        d_star = oe.find_optimum_d_numeric(params, (lo, hi), omega_grid=omega)
        assert lo <= d_star <= hi
        dense = np.linspace(lo, hi, 2001)
        _, least = continuous_min(derived, dense, omega)
        _, found = continuous_min(derived, np.array([d_star]), omega)
        best = dense[np.argmin(least)]
        solved = closed_form_grid(
            oe.solve_steady_state(sweeps._row_params("d", params, derived, float(best))), omega)
        floor = 4.0 * np.spacing(solved.n[np.argmin(solved.x)])
        assert eof_array(found)[0] >= eof_array(least.min() + floor)

    @pytest.mark.parametrize("bracket", [
        pytest.param((1e6, math.inf), id="d_above_inf"),
        pytest.param((-math.inf, 1e6), id="d_below_inf"),
        pytest.param((1e6, math.nan), id="d_nan"),
        pytest.param((math.nan, 1e6), id="lo_nan"),
        pytest.param((math.inf, math.inf), id="both_inf"),   # lo == hi: not returned
        pytest.param((-math.inf, -math.inf), id="both_minus_inf")])
    def test_non_finite_bracket_rejected_before_solving(self, paper_params, bracket,
                                                        monkeypatch):
        forbid_solves(monkeypatch)
        lo, hi = bracket
        with pytest.raises(oe.BracketError, match=re.escape(f"invalid bracket ({lo:g}, {hi:g})")):
            oe.find_optimum_d_numeric(paper_params, bracket)

    @pytest.mark.parametrize("point, edge, raised", [
        ("paper", "delta_2p", oe.SignConventionViolated),
        ("paper", "delta_1p", oe.SignConventionViolated),
        # at the paper point both Delta' edges lie inside the laser edges
        ("paper", "laser_1-", oe.SignConventionViolated), ("paper", "laser_1+", oe.ParameterError),
        ("paper", "laser_2-", oe.SignConventionViolated), ("paper", "laser_2+", oe.ParameterError),
        ("wide_nu", "laser_1+", oe.ParameterError), ("wide_nu", "laser_2-", oe.ParameterError)])
    def test_offset_rows_fail_as_the_sequential_scan(self, point, edge, raised, paper_params,
                                                     paper_derived, omega_grid):
        params, derived = ((paper_params, paper_derived) if point == "paper"
                           else wide_nu_point(paper_params, paper_derived))
        # a search across the edge raises what the rows' sequential scan raises
        bracket = domain_edge_bracket(params, derived, edge)
        expected = sequential_scan_error(params, derived, np.linspace(*bracket, 33).tolist(),
                                         omega_grid)
        assert type(expected) is raised
        with pytest.raises(raised) as error:
            oe.find_optimum_d_numeric(params, bracket, omega_grid=omega_grid)
        assert str(error.value) == str(expected)

    def test_designed_root_outside_the_window_raised(self, paper_params, paper_derived,
                                                      omega_grid):
        edge = -(paper_params.omega_m + paper_derived.delta)
        with pytest.raises(oe.SignConventionViolated, match="Delta_1' < 0 < Delta_2'"):
            oe.find_optimum_d_numeric(paper_params, (1.1 * edge, 0.9 * edge),
                                      omega_grid=omega_grid)


class TestSensitivityAnalysis:
    def test_zero_jitter_zero_degradation(self, paper_params):
        report = oe.sensitivity_analysis(paper_params, 0.0, 0.0)
        assert report.degradation == 0.0
        assert report.worst_peak_eof == report.baseline_peak_eof

    def test_detuning_jitter_keeps_entanglement_high(self, paper_params):
        report = oe.sensitivity_analysis(paper_params, 0.02 * paper_params.gamma, 0.0)
        assert report.baseline_peak_eof == pytest.approx(5.0, abs=0.1)
        assert report.worst_peak_eof > 4.0
        assert report.degradation < 0.25

    def test_power_jitter_shifts_d_through_intensity_term(self, paper_params,
                                                          paper_derived):
        report = oe.sensitivity_analysis(paper_params, 0.0, 0.01)
        d_o = oe.optimum_d(paper_derived).d_o
        expected_shift = (4.0 * paper_params.eta**2 * paper_params.omega_m
                          * paper_derived.alpha**2 * 0.01)
        drifts = {c.label: abs(c.d - d_o) for c in report.cases if "power" in c.label}
        assert drifts
        for drift in drifts.values():
            assert drift == pytest.approx(expected_shift, rel=0.05)
        assert report.worst_peak_eof > 4.5

    def test_failed_power_case_recorded_at_strong_drive(self):
        # at alpha = 2000 a 1% power excursion unbalances the amplitudes beyond
        # the output model's tolerance; the detuning cases must survive it
        params = oe.parse_config("defaults: paper\ntarget_alpha = 2000\n").params
        with pytest.warns(UserWarning, match="unequal cavity amplitudes"):
            report = oe.sensitivity_analysis(params, 0.02 * params.gamma, 0.01)
        cases = {case.label: case for case in report.cases}
        for label in ("d-jitter", "d+jitter"):
            assert cases[label].error is None
            assert math.isfinite(cases[label].peak_eof)
        for label in ("power-jitter", "power+jitter"):
            assert cases[label].error == "DomainError"
            assert math.isnan(cases[label].peak_eof) and math.isnan(cases[label].d)
        succeeded = [c.peak_eof for c in report.cases if c.error is None]
        assert report.worst_peak_eof == min(succeeded)

    def test_negative_jitter_rejected(self, paper_params):
        with pytest.raises(ValueError):
            oe.sensitivity_analysis(paper_params, -1.0, 0.0)

    @pytest.mark.parametrize("jitters, name", [((math.nan, 0.01), "d_jitter"),
                                               ((1e5, math.nan), "power_jitter_frac"),
                                               ((1e5, -0.01), "power_jitter_frac"),
                                               ((math.inf, 0.01), "d_jitter"),
                                               ((1e5, math.inf), "power_jitter_frac")])
    def test_nan_jitter_rejected_before_solving(self, paper_params, monkeypatch, jitters, name):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            oe.sensitivity_analysis(paper_params, *jitters)

    def test_excursion_out_of_domain_raised(self, paper_params):
        # a power excursion of -150% asks for a negative drive power
        with pytest.raises(oe.ParameterError, match="drive powers must be >= 0"):
            oe.sensitivity_analysis(paper_params, 0.0, 1.5)

    def test_empty_grid_rejected_before_solving(self, paper_params, monkeypatch):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must be nonempty"):
            oe.sensitivity_analysis(paper_params, 1e5, 0.01, omega_grid=np.array([]))

    def test_uneven_grid_rejected_before_solving(self, paper_params, monkeypatch):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="omega_grid must be evenly spaced"):
            oe.sensitivity_analysis(paper_params, 1e5, 0.01, omega_grid=UNEVEN)

    def test_base_solved_once(self, paper_params, monkeypatch):
        solved = []
        solve = sweeps.solve_steady_state

        def counting(params):
            solved.append(params)
            return solve(params)
        monkeypatch.setattr(sweeps, "solve_steady_state", counting)
        oe.sensitivity_analysis(paper_params, 0.02 * paper_params.gamma, 0.01)
        assert solved.count(paper_params) == 1

    @pytest.mark.parametrize("target_alpha", [1000, 2000])   # 2000: power cases fail
    def test_baseline_and_d_rows_designed_not_solved(self, target_alpha, omega_grid,
                                                      monkeypatch):
        # the base and the two power rows are solved; the baseline at d_o and the d rows
        # are the base's designed rows, and all five go through one _peaks pass
        params = oe.parse_config(f"defaults: paper\ntarget_alpha = {target_alpha}\n").params
        base_derived = oe.solve_steady_state(params)
        d_o, d_jitter = oe.optimum_d(base_derived).d_o, 0.02 * params.gamma
        at_opt = sweeps._row_params("d", params, base_derived, d_o)
        solved = []
        solve = sweeps.solve_steady_state

        def counting(params):
            solved.append(params)
            return solve(params)
        monkeypatch.setattr(sweeps, "solve_steady_state", counting)
        calls = spy_peaks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = oe.sensitivity_analysis(params, d_jitter, 0.01, omega_grid=omega_grid)
        assert solved == [params] + [sweeps._scaled_powers(at_opt, 1.0 + v) for v in (-0.01, 0.01)]
        (rows, _), = calls
        offsets = [d_o, d_o - d_jitter, d_o + d_jitter]
        assert [rows[k] for k in (0, 1, 3)] == [sweeps._designed_row(params, base_derived, d)
                                                for d in offsets]
        assert [report.cases[k].d for k in (0, 1, 3)] == offsets


class TestPowerFluctuation:
    def test_scaled_powers_convert_once(self, paper_params):
        # the scaled powers go through power_to_amplitude once, from the base's amplitudes
        drive, gamma = paper_params.drive, paper_params.gamma
        p1, p2 = paper_params.drive_powers()
        omega_l, omega_lp = paper_params.laser_frequencies()
        scaled = sweeps._scaled_powers(paper_params, 1.01)
        assert scaled == paper_params.scaled(drive=oe.DriveSpec(
            drive.Delta_1, drive.Delta_2, oe.power_to_amplitude(p1 * 1.01, omega_l, gamma),
            oe.power_to_amplitude(p2 * 1.01, omega_lp, gamma)))

    def test_power_fluct_row_matches_power_jitter_case(self, paper_params, paper_derived,
                                                        omega_grid):
        d_o = oe.optimum_d(paper_derived).d_o
        at_opt = oe.retuned_d(paper_params, d_o)
        rows = run_sweep(SweepSpec(axis="power_fluct", values=(0.01,), base=at_opt,
                                   omega_grid=omega_grid)).rows
        d_jitter = 0.02 * paper_params.gamma
        report = oe.sensitivity_analysis(paper_params, d_jitter, 0.01, omega_grid=omega_grid)
        cases = {case.label: case for case in report.cases}
        jitter = cases["power+jitter"]
        assert rows[0].error is None
        assert rows[0].peak_eof == jitter.peak_eof
        assert rows[0].derived.d == jitter.d
        # the d cases are designed rows of the base, not solved: each is its offset's x from
        # offset_x, to the bit, and its solved d sweep row to the rounding of the solved root
        # (measured at this point: peak EOF 1.3e-13 and 1.6e-13 relative, d 2.2e-14)
        values = (d_o - d_jitter, d_o + d_jitter)
        d_rows = run_sweep(SweepSpec(axis="d", values=values, base=at_opt,
                                     omega_grid=omega_grid)).rows
        for value, row, label in zip(values, d_rows, ("d-jitter", "d+jitter")):
            case = cases[label]
            assert row.error is None and case.error is None
            x, _ = offset_x(paper_derived, [value])(omega_grid)
            assert case.d == value
            assert case.peak_eof == peak_statistics(omega_grid, eof_array(x[0])).peak_eof
            assert row.peak_eof == pytest.approx(case.peak_eof, rel=1e-12, abs=0.0)
            assert row.derived.d == pytest.approx(case.d, rel=1e-13, abs=0.0)
