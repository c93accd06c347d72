import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import optoepr as oe
from optoepr.params import TWO_PI
from optoepr.steady_state import _intensity_roots, steady_state_residual


def linear_cavity_params(omega_1=1e12, omega_2=1.1e12, eta=1e-30):
    """Negligible coupling: the displacement equations decouple and are exactly Lorentzian."""
    base = oe.paper_default_config().params
    drive = oe.DriveSpec(Delta_1=base.drive.Delta_1,
                         Delta_2=base.drive.Delta_2, omega_1=omega_1, omega_2=omega_2)
    return base.scaled(eta=eta, drive=drive)


class TestLinearCavityLimit:
    def test_closed_form_amplitudes(self):
        params = linear_cavity_params()
        with pytest.warns(UserWarning, match="unequal"):
            derived = oe.solve_steady_state(params)
        d1, d2 = params.drive.Delta_1, params.drive.Delta_2
        expect_1 = 1e12 / math.sqrt(params.gamma**2 + 4 * d1**2)
        expect_2 = 1.1e12 / math.sqrt(params.gamma**2 + 4 * d2**2)
        assert abs(derived.alpha_1) == pytest.approx(expect_1, rel=1e-12)
        assert abs(derived.alpha_2) == pytest.approx(expect_2, rel=1e-12)
        assert not derived.multistable

    def test_amplitude_monotone_in_drive(self):
        amplitudes = []
        for omega_1 in np.linspace(1e11, 2e12, 12):
            params = linear_cavity_params(omega_1=omega_1, omega_2=omega_1)
            with pytest.warns(UserWarning, match="unequal"):
                derived = oe.solve_steady_state(params)
            amplitudes.append(abs(derived.alpha_1))
        assert np.all(np.diff(amplitudes) > 0)


class TestPaperOperatingPoint:
    def test_amplitudes_hit_target(self, paper_derived):
        assert abs(paper_derived.alpha_1) == pytest.approx(1000.0, rel=1e-6)
        assert abs(paper_derived.alpha_2) == pytest.approx(1000.0, rel=1e-6)

    def test_delta_and_d(self, paper_params, paper_derived):
        assert paper_derived.delta == pytest.approx(TWO_PI * 1e7, rel=1e-6)
        assert paper_derived.d == pytest.approx(0.07 * paper_params.gamma, rel=1e-5)

    def test_effective_rates(self, paper_derived):
        assert paper_derived.g == pytest.approx(3.394e7, rel=1e-3)
        assert paper_derived.gamma_m_tilde == pytest.approx(8.32e3, rel=1e-3)
        assert paper_derived.n_m == pytest.approx(8.50e4, rel=1e-3)

    def test_residual_below_contract(self, paper_params, paper_derived):
        assert steady_state_residual(paper_params, paper_derived) < 1e-10

    def test_sign_conventions(self, paper_derived):
        assert paper_derived.Delta_1p < 0 < paper_derived.Delta_2p
        assert paper_derived.delta > 0

    def test_g_prime_minus_g_is_d(self, paper_derived):
        assert paper_derived.g_prime - paper_derived.g == paper_derived.d

    def test_g_prime_follows_g_and_d(self, paper_derived):
        # g' is g + d of the record itself, not a field that a replace could leave behind
        moved = dataclasses.replace(paper_derived, g=2.0 * paper_derived.g, d=-3.0)
        assert moved.g_prime == 2.0 * paper_derived.g - 3.0
        assert "g_prime" not in {f.name for f in dataclasses.fields(oe.DerivedParams)}

    def test_gamma_m_tilde_ratio_exact(self, paper_derived):
        ratio = (paper_derived.eta * paper_derived.alpha * paper_derived.omega_m
                 / paper_derived.delta) ** 2
        assert paper_derived.gamma_m_tilde / paper_derived.gamma_m == pytest.approx(ratio, rel=1e-12)

    def test_kerr_branch_structure_flagged(self, paper_derived):
        # the intensity equation has a bistable high-N branch at these drives
        assert paper_derived.multistable

    def test_beta_shift(self, paper_derived):
        n_tot = paper_derived.n_total
        assert paper_derived.beta == pytest.approx(-paper_derived.eta * n_tot, rel=1e-6)
        expected_imag = (paper_derived.eta * n_tot * paper_derived.gamma_m
                         / (2 * paper_derived.omega_m))
        assert paper_derived.beta_imag_dropped == pytest.approx(expected_imag, rel=1e-3)


class TestSignConvention:
    def test_wrong_sideband_arrangement_rejected(self, paper_params):
        # both lasers on the blue side of their modes: Delta_1' > 0
        drive = paper_params.drive
        bad = oe.DriveSpec(Delta_1=1e8,
                           Delta_2=drive.Delta_2,
                           omega_1=drive.omega_1, omega_2=drive.omega_2)
        with pytest.raises(oe.SignConventionViolated):
            oe.solve_steady_state(paper_params.scaled(drive=bad))


def strong_drive_params(paper_params):
    """alpha = 1e4: five intensity roots, the designed one N = 2 alpha^2 third from below."""
    return oe.operating_point_params(paper_params, 1e4, TWO_PI * 1e7, 0.07 * paper_params.gamma)


class TestIntensityRoots:
    def test_all_five_roots_at_strong_drive(self, paper_params):
        params = strong_drive_params(paper_params)
        omegas, deltas = params.drive_amplitudes(), (params.drive.Delta_1, params.drive.Delta_2)
        c = 2.0 * params.eta**2 * params.omega_m
        roots = _intensity_roots(*omegas, *deltas, c, params.gamma)
        expected = (3.26e7, 7.14e7, 2.000e8, 2.054e8, 2.91e8)
        assert roots == pytest.approx(expected, rel=2e-3)
        for N in roots:
            rhs = sum((om**2 / 4.0) / ((dj + c * N)**2 + params.gamma**2 / 4.0)
                      for om, dj in zip(omegas, deltas))
            assert abs(N - rhs) <= 1e-12 * N


    @pytest.mark.parametrize("c", [0.0, 1e-30])
    def test_vanishing_coupling_drops_to_the_linear_root(self, c):
        params = linear_cavity_params()
        omegas, deltas = params.drive_amplitudes(), (params.drive.Delta_1, params.drive.Delta_2)
        roots = _intensity_roots(*omegas, *deltas, c, params.gamma)
        linear = sum((om**2 / 4.0) / (dj**2 + params.gamma**2 / 4.0)
                     for om, dj in zip(omegas, deltas))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(linear, rel=1e-12)

    def test_mixed_batch_equals_each_row_alone(self, paper_params):
        # three roots, five roots, and a c = 0 row whose quintic drops to degree 1
        rows = [(*params.drive_amplitudes(), params.drive.Delta_1, params.drive.Delta_2,
                 2.0 * params.eta**2 * params.omega_m, params.gamma)
                for params in (paper_params, strong_drive_params(paper_params))]
        linear = linear_cavity_params()
        rows.append((*linear.drive_amplitudes(), linear.drive.Delta_1, linear.drive.Delta_2, 0.0,
                     linear.gamma))
        assert [len(_intensity_roots(*row)) for row in rows] == [3, 5, 1]

    def test_subnormal_bracket_is_the_undriven_cavity(self):
        # upper = 8.8e-319: the quintic's subnormal coefficients lose the root in [0, upper]
        assert _intensity_roots(2.01e-151, 0.0, -2.54e3, 6.91e6, 0.0, 2.14e8) == [0.0]

    def test_root_at_the_bracket_end_kept(self):
        # |Delta_j + c N| << gamma puts the root within rounding of upper, and its
        # companion-matrix eigenvalue at 1 + eps
        omegas, deltas = (0.08910731132868606, 532779315.96440756), (-2765.3668692225187,
                                                                    -167.2439812383435)
        c, gamma = 36.501050036345774, 247952972.57145017
        roots = _intensity_roots(*omegas, *deltas, c, gamma)
        upper = sum(om * om for om in omegas) / gamma**2
        assert roots == pytest.approx([upper], rel=1e-12)

    def test_weak_drive_solves_from_valid_params(self):
        # eta^2 underflows to c = 0, and the bracket, 8.8e-319, is subnormal
        params = oe.paper_default_config().params.scaled(
            omega_m=3e6, gamma_m=1e3, nu=5e6, gamma=2.14e8, eta=1e-200,
            drive=oe.DriveSpec(-2.54e3, 6.91e6, 2.01e-151, 0.0))
        with pytest.warns(UserWarning, match="unequal cavity amplitudes"):
            derived = oe.solve_steady_state(params)
        assert (derived.Delta_1p, derived.Delta_2p, derived.g) == (-2.54e3, 6.91e6, 0.0)

    @given(drives=st.tuples(st.floats(-170.0, 14.0), st.floats(-170.0, 14.0),
                            st.booleans()),
           detunings=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                               st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
           c=st.one_of(st.just(0.0), st.floats(-6.0, 4.0).map(lambda e: 10.0**e)),
           gamma=st.floats(5.0, 10.0).map(lambda e: 10.0**e))
    def test_every_drive_has_a_root(self, drives, detunings, c, gamma):
        # drives from 1e-170 to 1e14 rad/s, one of them possibly off
        e1, e2, second_off = drives
        omegas = 10.0**e1, 0.0 if second_off else 10.0**e2
        deltas = detunings[2] * 10.0 ** detunings[0], detunings[3] * 10.0 ** detunings[1]
        roots = _intensity_roots(*omegas, *deltas, c, gamma)
        upper = sum(om * om for om in omegas) / gamma**2
        assert roots and all(0.0 <= N <= upper * (1.0 + 8.0 * np.finfo(float).eps) for N in roots)


class TestBatchedSolve:
    """Parameter sets solved one after another are independent: a failed one raises its
    own error and leaves the solves around it unchanged."""

    def test_rows_equal_single_solves_and_keep_their_errors(self, paper_params):
        drive = paper_params.drive
        blue = oe.DriveSpec(Delta_1=1e8,
                            Delta_2=drive.Delta_2, omega_1=drive.omega_1, omega_2=drive.omega_2)
        rows = [paper_params, paper_params.scaled(drive=blue), strong_drive_params(paper_params)]
        first, last = oe.solve_steady_state(rows[0]), oe.solve_steady_state(rows[2])
        with pytest.raises(oe.SignConventionViolated,
                           match=re.escape("requires Delta_1' < 0 < Delta_2'")):
            oe.solve_steady_state(rows[1])
        assert oe.solve_steady_state(rows[0]) == first and oe.solve_steady_state(rows[2]) == last

    def test_unequal_amplitude_warning_names_the_calling_line(self):
        params = linear_cavity_params()
        with pytest.warns(UserWarning, match="unequal") as single:
            oe.solve_steady_state(params)
        line = inspect.currentframe().f_lineno - 1   # the call's line, just above
        assert [(w.filename, w.lineno) for w in single] == [(__file__, line)]


class TestBranchSelection:
    def test_designed_root_selected_at_strong_drive(self, paper_params):
        # the smallest root has Delta_2' < 0; the designed root N = 2e8 is the first in the window
        params = strong_drive_params(paper_params)
        derived = oe.solve_steady_state(params)
        assert derived.n_total == pytest.approx(2e8, rel=1e-9)
        assert abs(derived.alpha_1) == pytest.approx(1e4, rel=1e-6)
        assert abs(derived.alpha_2) == pytest.approx(1e4, rel=1e-6)
        assert derived.d == pytest.approx(0.07 * paper_params.gamma, rel=1e-6)
        assert derived.multistable
        assert steady_state_residual(params, derived) < 1e-10


class TestAmplitudeToDrive:
    def test_linear_limit_closed_form(self):
        params = linear_cavity_params()
        delta_eff = -5.0e8
        omega = oe.amplitude_to_drive(1000.0, delta_eff, params)
        assert omega == pytest.approx(1000.0 * math.sqrt(params.gamma**2 + 4 * delta_eff**2),
                                      rel=1e-12)

    def test_paper_scale_drive(self, paper_params, paper_derived):
        delta_eff = -(paper_params.omega_m + paper_derived.delta)
        omega = oe.amplitude_to_drive(1000.0, delta_eff, paper_params)
        assert omega == pytest.approx(1.0493e12, rel=1e-2)

    def test_round_trip_through_solver(self, paper_params, paper_derived):
        # drives derived for a requested alpha reproduce it after the full solve
        for target in (300.0, 1000.0, 2500.0):
            tuned = oe.operating_point_params(paper_params, target,
                                              paper_derived.delta, paper_derived.d)
            derived = oe.solve_steady_state(tuned)
            assert abs(derived.alpha_1) == pytest.approx(target, rel=1e-3)
            assert abs(derived.alpha_2) == pytest.approx(target, rel=1e-3)

    def test_rejects_nonpositive_target(self, paper_params):
        with pytest.raises(ValueError):
            oe.amplitude_to_drive(0.0, -5e8, paper_params)


class TestRetunedD:
    def test_moves_d_keeps_delta_and_alpha(self, paper_params, paper_derived):
        target = 0.11 * paper_params.gamma
        retuned = oe.retuned_d(paper_params, target)
        derived = oe.solve_steady_state(retuned)
        assert derived.d == pytest.approx(target, rel=1e-6)
        assert derived.delta == pytest.approx(paper_derived.delta, rel=1e-6)
        assert derived.alpha == pytest.approx(paper_derived.alpha, rel=1e-5)

    def test_symmetric_shift_of_effective_detunings(self, paper_params, paper_derived):
        target = 0.12 * paper_params.gamma
        derived = oe.solve_steady_state(oe.retuned_d(paper_params, target))
        shift = target - paper_derived.d
        assert derived.Delta_1p - paper_derived.Delta_1p == pytest.approx(-shift, rel=1e-4)
        assert derived.Delta_2p - paper_derived.Delta_2p == pytest.approx(-shift, rel=1e-4)
