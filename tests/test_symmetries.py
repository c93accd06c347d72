"""Exact symmetries of the physics, checked without a reference value.

Scaling every rate and frequency by 2^k leaves the physics unchanged, and in
floating point every product or quotient of rates is then scaled exactly by
a power of two.  The exact models' input couplings are sqrt(gamma) and
sqrt(gamma_m), which scale by a power of two only when k is even, so k is
even here.  The operating points are the benchmark pools
(``perfbench/workloads.py``): the ``opsearch`` pool, a fifth of it strongly
driven, and the ``oracle_grid`` pool.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import optoepr as oe
from optoepr.langevin import MODELS
from tests.test_benchmark_reference import wl

POOL = [oe.parse_config(text).params for text in wl.OpSearch().pool() + wl.OracleGrid().pool()]
ORACLE_POOL = [oe.solve_steady_state(oe.parse_config(text).params)
               for text in wl.OracleGrid().pool()]
GRID_POINTS = wl.OracleGrid.GRID_POINTS

# The rate fields of DerivedParams; the others are dimensionless.
RATES = ("Delta_1p", "Delta_2p", "delta", "d", "g", "g_prime", "gamma_m_tilde", "gamma", "gamma_m",
         "omega_m")

# |n(w) - n(-w)| / |n(w)| of full6 reads at most 4.4e-16 at the paper point and on the
# oracle_grid configs below (5.6e-16 over both pools at 201 and 2001 points).
FULL6_EVEN_RTOL = 4.0 * np.finfo(float).eps


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
        # omega_p, omega_m, gamma, gamma_m, nu, T and the drive scaled; eta, R and n0 kept
        drive = params.drive
        scaled = params.scaled(
            omega_p=factor * params.omega_p, omega_m=factor * params.omega_m,
            gamma=factor * params.gamma, gamma_m=factor * params.gamma_m, nu=factor * params.nu,
            T=factor * params.T,
            drive=oe.DriveSpec(factor * drive.Delta_1, factor * drive.Delta_2,
                               factor * drive.omega_1, factor * drive.omega_2))
        assert oe.solve_steady_state(scaled) == scaled_rates(oe.solve_steady_state(params),
                                                             factor)

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
