"""Exact symmetries of the physics, checked without a reference value.

Scaling every rate and frequency by 2^k leaves the physics unchanged, and in
floating point every product or quotient of rates is then scaled exactly by
a power of two.  The exact models' input couplings are sqrt(gamma) and
sqrt(gamma_m), which scale by a power of two only when k is even, so k is
even here.  The operating points are the benchmark pools
(``perfbench/workloads.py``): the ``opsearch`` pool, a fifth of it strongly
driven, and the ``oracle_grid`` pool.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optoepr as oe
from optoepr.langevin import MODELS
from optoepr.spectrum import closed_form_grid, offset_x
from tests.test_benchmark_reference import wl

OPSEARCH_POOL = [oe.parse_config(text).params for text in wl.OpSearch().pool()]
POOL = OPSEARCH_POOL + [oe.parse_config(text).params for text in wl.OracleGrid().pool()]
ORACLE_POOL = [oe.solve_steady_state(oe.parse_config(text).params)
               for text in wl.OracleGrid().pool()]
GRID_POINTS = wl.OracleGrid.GRID_POINTS

# The rate fields of DerivedParams; the others are dimensionless.
RATES = ("Delta_1p", "Delta_2p", "delta", "d", "g", "g_prime", "gamma_m_tilde", "gamma", "gamma_m",
         "omega_m")

# |n(w) - n(-w)| / |n(w)| of full6 reads at most 4.4e-16 at the paper point and on the
# oracle_grid configs below (5.6e-16 over both pools at 201 and 2001 points).
FULL6_EVEN_RTOL = 4.0 * np.finfo(float).eps


def scaled_params(params, factor):
    """``params`` with omega_p, omega_m, gamma, gamma_m, nu, T and the drive scaled by
    ``factor``; eta, R and n0 kept."""
    drive = params.drive
    return params.scaled(
        omega_p=factor * params.omega_p, omega_m=factor * params.omega_m,
        gamma=factor * params.gamma, gamma_m=factor * params.gamma_m, nu=factor * params.nu,
        T=factor * params.T,
        drive=oe.DriveSpec(factor * drive.Delta_1, factor * drive.Delta_2,
                           factor * drive.omega_1, factor * drive.omega_2))


def scaled_rates(derived, factor):
    return replace(derived, **{name: getattr(derived, name) * factor for name in RATES})


def even_powers(lo, hi):
    """2^k for even k in [2 lo, 2 hi]."""
    return st.integers(lo, hi).map(lambda j: 2.0 ** (2 * j))


def assert_same_evaluation(a, b):
    for name in ("n", "k_x", "x"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert np.array_equal(a.failed, b.failed)
    assert np.array_equal(a.error, b.error)


class TestPowerOfTwoScaling:
    @given(st.sampled_from(POOL), even_powers(-3, 5))
    def test_steady_state_scales_its_rates(self, params, factor):
        assert oe.solve_steady_state(scaled_params(params, factor)) == scaled_rates(
            oe.solve_steady_state(params), factor)

    @given(st.sampled_from(ORACLE_POOL), st.sampled_from(MODELS), even_powers(-10, 6))
    def test_models_are_unchanged_on_scaled_rates(self, derived, model, factor):
        grid = oe.default_omega_grid(derived.gamma, GRID_POINTS)
        assert_same_evaluation(oe.evaluate(scaled_rates(derived, factor), factor * grid, model),
                               oe.evaluate(derived, grid, model))


class TestEvenInOmega:
    # The closed form is left out: its thermal factor (w + g' - g)^2 + gamma^2/4 is
    # one-sided in w (see the README's "Model fidelity").
    def test_exact_models_n_is_even(self, paper_derived):
        for derived in [paper_derived] + ORACLE_POOL[:20]:
            grid = oe.default_omega_grid(derived.gamma, GRID_POINTS)
            for model in ("adiabatic_response", "rwa3"):
                assert_same_evaluation(oe.evaluate(derived, -grid, model),
                                       oe.evaluate(derived, grid, model))
            plus, minus = (oe.evaluate(derived, w, "full6") for w in (grid, -grid))
            assert np.array_equal(plus.failed, minus.failed)
            ok = ~plus.failed
            assert np.all(np.abs(plus.n[ok] - minus.n[ok]) <= FULL6_EVEN_RTOL * plus.n[ok])


def search_setup(params):
    """The steady state, closed-form optimum d, bracket and grid of an ``opsearch`` op."""
    derived = oe.solve_steady_state(params)
    d_o = oe.optimum_d(derived).d_o
    return (derived, d_o, (0.25 * d_o, min(4.0 * d_o, 0.5 * params.gamma)),
            oe.default_omega_grid(params.gamma, wl.OpSearch.GRID_POINTS))


def outcome(f, *args, **kwargs):
    """``f(*args, **kwargs)``, or the class of the PhysicsError it raises."""
    try:
        return f(*args, **kwargs)
    except oe.PhysicsError as exc:
        return type(exc)


class TestPowerOfTwoScalingOfTheAnalyses:
    """The closed-form rows, the d-search, the sensitivity analysis and the occupation
    scale with the rates, their inputs (offsets, brackets, jitters, grids) scaled alike.
    Strong ``opsearch`` ops unbalance the amplitudes of their power excursions; that
    warning is not the subject here."""

    @given(st.lists(st.sampled_from(ORACLE_POOL), min_size=2, max_size=4), even_powers(-5, 5))
    def test_closed_form_rows_are_unchanged(self, rows, factor):
        grid = oe.default_omega_grid(rows[0].gamma, GRID_POINTS)
        assert_same_evaluation(closed_form_grid([scaled_rates(r, factor) for r in rows],
                                                factor * grid),
                               closed_form_grid(rows, grid))

    @settings(max_examples=30)
    @given(st.sampled_from(OPSEARCH_POOL), even_powers(-2, 3))
    def test_offset_rows_are_unchanged(self, params, factor):
        derived, _, bracket, grid = search_setup(params)
        d = np.linspace(*bracket, 9)
        x, abs_D2 = offset_x(derived, d)(grid)
        scaled_x, scaled_abs_D2 = offset_x(scaled_rates(derived, factor), factor * d)(factor * grid)
        assert np.array_equal(scaled_x, x) and np.array_equal(scaled_abs_D2, factor**4 * abs_D2)

    @settings(max_examples=20)
    @given(st.sampled_from(OPSEARCH_POOL), even_powers(-2, 3))
    def test_optimum_d_scales(self, params, factor):
        _, _, (lo, hi), grid = search_setup(params)
        d_star = outcome(oe.find_optimum_d_numeric, params, (lo, hi), omega_grid=grid)
        scaled = outcome(oe.find_optimum_d_numeric, scaled_params(params, factor),
                         (factor * lo, factor * hi), omega_grid=factor * grid)
        assert scaled == (d_star * factor if isinstance(d_star, float) else d_star)

    @staticmethod
    def assert_sensitivity_cases_scale(params, factor):
        _, d_o, _, grid = search_setup(params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = outcome(oe.sensitivity_analysis, params, 0.05 * d_o, 0.01, omega_grid=grid)
            scaled = outcome(oe.sensitivity_analysis, scaled_params(params, factor),
                             factor * 0.05 * d_o, 0.01, omega_grid=factor * grid)
        if isinstance(report, type):
            assert scaled is report
            return
        assert ((scaled.baseline_peak_eof, scaled.worst_peak_eof, scaled.degradation)
                == (report.baseline_peak_eof, report.worst_peak_eof, report.degradation))
        # repr: a failed case's d and peak are NaN
        assert ([repr((c.label, c.d, c.peak_eof, c.error)) for c in scaled.cases]
                == [repr((c.label, factor * c.d, c.peak_eof, c.error)) for c in report.cases])

    @settings(max_examples=20)
    @given(st.integers(0, len(OPSEARCH_POOL) - 1), st.integers(-2, 3).map(lambda j: 2 * j))
    def test_sensitivity_cases_scale(self, index, k):
        self.assert_sensitivity_cases_scale(OPSEARCH_POOL[index], 2.0**k)

    # op 83's d - jitter row squares a Delta_1' whose ``**`` (the C library's pow, not
    # correctly rounded) differed from 2^(2k) x**2 by 1 ulp at these k; its drive
    # amplitude squares by products, which scale to the bit
    @pytest.mark.parametrize("k", [-4, 4, 6])
    def test_sensitivity_cases_scale_at_op_83(self, k):
        self.assert_sensitivity_cases_scale(OPSEARCH_POOL[83], 2.0**k)

    @settings(max_examples=6, deadline=None)   # up to ~0.1 s per occupation
    @given(st.sampled_from(OPSEARCH_POOL), even_powers(-2, 3))
    def test_occupation_is_unchanged(self, params, factor):
        derived = oe.solve_steady_state(params)
        assert (outcome(oe.intracavity_occupation, scaled_rates(derived, factor))
                == outcome(oe.intracavity_occupation, derived))
