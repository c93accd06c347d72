import math

import numpy as np
import pytest

import optoepr as oe
from optoepr.params import TWO_PI
from optoepr.spectrum import Evaluation, ent_metrics, eof_array
from optoepr.steady_state import DerivedParams

GAMMA = TWO_PI * 3.2e6


def make_derived(g=3.394334e7, d=None, gamma=GAMMA, gamma_m_tilde=8316.118,
                 n_m=85046.93, delta=TWO_PI * 1e7, alpha=1000.0):
    """Hand-built linearized-model parameters for formula-level tests."""
    if d is None:
        d = 0.07 * gamma
    omega_m = TWO_PI * 73.5e6
    return DerivedParams(
        alpha_1=complex(alpha), alpha_2=complex(alpha), beta=-2e-4 * alpha**2,
        beta_imag_dropped=0.0,
        Delta_1p=-(omega_m + delta + d), Delta_2p=omega_m + delta - d,
        delta=delta, d=d, g=g, g_prime=g + d, gamma_m_tilde=gamma_m_tilde,
        n_m=n_m, gamma=gamma, gamma_m=omega_m / 30000.0, omega_m=omega_m,
        eta=1e-4, multistable=False,
    )


class TestTransferFunctions:
    def test_undriven_cavity_is_pure_phase(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        for omega in (0.0, 0.3 * GAMMA, 2.0 * GAMMA):
            tp = oe.transfer_functions(derived, omega)
            assert tp.H == 0.0
            assert tp.I == 0.0
            assert abs(tp.G) == pytest.approx(1.0, rel=1e-12)

    def test_beam_splitter_identity_101_points(self, paper_derived):
        # |G|^2 - |H|^2 = 1, exact algebra of the printed coefficients
        for omega in np.linspace(-GAMMA, GAMMA, 101):
            tp = oe.transfer_functions(paper_derived, omega)
            assert abs(tp.G) ** 2 - abs(tp.H) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_commutator_defect_bounded_by_noise_rate(self, paper_derived):
        # with mechanical noise present the defect is |I|^2 <= 5 gamma_m~/gamma
        bound = 5.0 * paper_derived.gamma_m_tilde / paper_derived.gamma
        for omega in np.linspace(-GAMMA, GAMMA, 41):
            tp = oe.transfer_functions(paper_derived, omega)
            defect = abs(tp.G) ** 2 - abs(tp.H) ** 2 + abs(tp.I) ** 2 - 1.0
            assert abs(defect) <= bound

    def test_delta_of_omega_definition(self, paper_derived):
        omega = 0.4 * GAMMA
        tp = oe.transfer_functions(paper_derived, omega)
        expected = ((-1j * omega + paper_derived.gamma / 2) ** 2
                    + paper_derived.g_prime**2 - paper_derived.g**2)
        assert tp.Delta_of_omega == pytest.approx(expected)

    def test_degenerate_response_raises(self):
        # g'^2 - g^2 = -gamma^2/4 puts a response zero on the real axis;
        # values chosen exactly representable so Delta(0) is a float zero
        derived = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        with pytest.raises(oe.DegenerateResponse):
            oe.transfer_functions(derived, 0.0)

    def test_degenerate_response_flagged_per_point_on_grid(self):
        # the batched closed form flags the response zero at omega = 0 only
        derived = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        ev = oe.evaluate(derived, [0.0, 1.0, -1.0], "adiabatic")
        assert list(ev.error) == ["DegenerateResponse", "", ""]
        assert np.isnan(ev.x[0])
        assert np.all(np.isfinite(ev.x[1:]))

    def test_failure_names_from_standard_form(self):
        # a point failed upstream keeps its name even where n - k_x <= 0 as well
        n, k_x = np.array([2.0, 1.0, 1.0, 3.0]), np.array([1.0, 1.0, 2.0, 1.0])
        ev = Evaluation.from_standard_form(n, k_x, np.array([False, False, True, True]),
                                           "DegenerateResponse")
        assert list(ev.error) == ["", "DomainError", "DegenerateResponse", "DegenerateResponse"]
        assert list(ev.failed) == [False, True, True, True]
        assert ev.x[0] == 1.0 and np.all(np.isnan(ev.x[1:]))


class TestClosedFormCovariance:
    def test_vacuum_limit(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        tp = oe.transfer_functions(derived, 0.2 * GAMMA)
        V, sf = oe.closed_form_covariance(tp, 0.0, derived)
        assert sf.n == pytest.approx(1.0, rel=1e-12)
        assert sf.k_x == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(V, np.eye(4), atol=1e-12)

    def test_optimum_point_epr_variance(self, optimum_derived):
        # at d = d_o, omega = 0 the thermal terms cancel: n - k_x = 4 (d_o/gamma)^2
        tp = oe.transfer_functions(optimum_derived, 0.0)
        _, sf = oe.closed_form_covariance(tp, optimum_derived.n_m, optimum_derived)
        assert sf.n - sf.k_x == pytest.approx(0.0210, rel=0.02)
        d_over_gamma = optimum_derived.d / optimum_derived.gamma
        assert sf.n - sf.k_x == pytest.approx(4 * d_over_gamma**2, rel=5e-3)

    def test_thermal_insensitivity_at_optimum(self, optimum_derived):
        tp = oe.transfer_functions(optimum_derived, 0.0)
        _, sf1 = oe.closed_form_covariance(tp, optimum_derived.n_m, optimum_derived)
        _, sf2 = oe.closed_form_covariance(tp, 2 * optimum_derived.n_m, optimum_derived)
        x1, x2 = sf1.n - sf1.k_x, sf2.n - sf2.k_x
        assert abs(x2 - x1) < 5e-3 * x1

    def test_matrix_is_standard_form(self, paper_derived):
        tp = oe.transfer_functions(paper_derived, 0.5 * GAMMA)
        V, sf = oe.closed_form_covariance(tp, paper_derived.n_m, paper_derived)
        expected = np.array([
            [sf.n, 0, sf.k_x, 0],
            [0, sf.n, 0, -sf.k_x],
            [sf.k_x, 0, sf.n, 0],
            [0, -sf.k_x, 0, sf.n],
        ])
        assert np.allclose(V, expected, rtol=1e-12)
        assert sf.k_p == -sf.k_x
        assert sf.residual == 0.0

    def test_spectral_symmetry_optical_sector(self, paper_derived):
        # the optical part of the closed form is exactly even in omega;
        # its thermal factor (omega + g' - g)^2 is not (the exact response
        # covariance is even -- see the langevin tests), so evenness of the
        # closed-form entries is checked with the mechanical noise off
        from dataclasses import replace
        derived = replace(paper_derived, gamma_m_tilde=0.0)
        omegas = np.linspace(0.1 * GAMMA, 2 * GAMMA, 7)
        x_plus = oe.evaluate(derived, omegas, "adiabatic").x
        x_minus = oe.evaluate(derived, -omegas, "adiabatic").x
        assert np.allclose(x_plus, x_minus, rtol=1e-12)

    def test_direct_combination_variances(self, paper_derived):
        tp = oe.transfer_functions(paper_derived, 0.0)
        _, sf = oe.closed_form_covariance(tp, paper_derived.n_m, paper_derived)
        squeezed, anti = sf.epr_combination_variances()
        assert squeezed == pytest.approx(2 * (sf.n - sf.k_x))
        assert anti == pytest.approx(2 * (sf.n + sf.k_x))


class TestEntanglementOfFormation:
    def test_separability_boundary(self):
        assert oe.eof(1.0) == 0.0

    def test_paper_value(self):
        assert oe.eof(0.0210) == pytest.approx(5.01, abs=0.02)

    def test_separable_clamped(self):
        assert oe.eof(2.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(oe.DomainError):
            oe.eof(0.0)
        with pytest.raises(oe.DomainError):
            oe.eof(-0.1)

    def test_strictly_decreasing_on_unit_interval(self):
        xs = np.linspace(1e-4, 1.0 - 1e-9, 1000)
        values = [oe.eof(x) for x in xs]
        assert np.all(np.diff(values) < 0)

    def test_positive_iff_entangled(self):
        for x in (0.01, 0.5, 0.999):
            assert oe.eof(x) > 0.0
        for x in (1.0, 1.5, 10.0):
            assert oe.eof(x) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.01, 0.2, 0.9, 1.0, 3.0])
        assert np.allclose(eof_array(xs), [oe.eof(x) for x in xs], rtol=1e-12)


class TestSqueezing:
    def test_vacuum_is_zero_db(self):
        assert oe.squeezing_db(1.0) == 0.0

    def test_decade(self):
        assert oe.squeezing_db(0.1) == pytest.approx(10.0, abs=1e-12)

    def test_paper_value(self):
        assert oe.squeezing_db(0.0210) == pytest.approx(16.8, abs=0.1)

    def test_anti_squeezing_not_clamped(self):
        assert oe.squeezing_db(2.0) < 0.0

    def test_strictly_decreasing(self):
        xs = np.geomspace(1e-4, 1e2, 500)
        values = [oe.squeezing_db(x) for x in xs]
        assert np.all(np.diff(values) < 0)

    def test_domain_error(self):
        with pytest.raises(oe.DomainError):
            oe.squeezing_db(0.0)


class TestMetricConsistency:
    def test_log_negativity_matches_squeezing(self, paper_derived):
        for omega in (0.0, 0.3 * GAMMA, GAMMA):
            tp = oe.transfer_functions(paper_derived, omega)
            _, sf = oe.closed_form_covariance(tp, paper_derived.n_m, paper_derived)
            m = ent_metrics(sf)
            if m.entangled:
                assert m.log_negativity == pytest.approx(
                    m.S_db / (10 * math.log10(2)), rel=1e-9)

    def test_entangled_flag(self):
        derived = make_derived()
        tp = oe.transfer_functions(derived, 0.0)
        _, sf = oe.closed_form_covariance(tp, derived.n_m, derived)
        m = ent_metrics(sf)
        assert m.entangled == (m.epr_variance < 1.0)


class TestOptimumD:
    def test_paper_defaults(self, paper_derived):
        opt = oe.optimum_d(paper_derived)
        assert opt.d_o / paper_derived.gamma == pytest.approx(0.073, abs=0.003)
        assert opt.d_o == pytest.approx(1.46e6, rel=5e-3)
        assert opt.S_o_db == pytest.approx(16.8, abs=0.1)
        assert opt.eof_o == pytest.approx(5.0, abs=0.05)
        assert not opt.unbounded

    def test_weak_coupling_limit(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        opt = oe.optimum_d(derived)
        assert opt.d_o == pytest.approx(GAMMA / 2, rel=1e-12)
        assert opt.S_o_db == pytest.approx(0.0, abs=1e-9)
        assert opt.eof_o == 0.0

    def test_lossless_limit_flagged_unbounded(self):
        from dataclasses import replace
        derived = replace(make_derived(), gamma=0.0)
        opt = oe.optimum_d(derived)
        assert opt.d_o == 0.0
        assert opt.unbounded
        assert math.isinf(opt.S_o_db)


class TestSpectrum:
    def test_empty_grid(self, paper_derived):
        assert oe.spectrum(paper_derived, []) == []

    def test_peak_near_zero_at_optimum(self, optimum_derived, omega_grid):
        points = oe.spectrum(optimum_derived, omega_grid)
        eofs = np.array([p.metrics.eof for p in points])
        peak_omega = points[int(np.argmax(eofs))].omega
        assert abs(peak_omega) < 0.05 * optimum_derived.gamma

    def test_strong_driving_splits_peak(self, paper_params, paper_derived, omega_grid):
        strong = oe.operating_point_params(paper_params, 3000.0,
                                           paper_derived.delta, paper_derived.d)
        derived = oe.solve_steady_state(strong)
        points = oe.spectrum(derived, omega_grid)
        eofs = np.array([p.metrics.eof for p in points])
        peak_omega = points[int(np.argmax(eofs))].omega
        assert abs(peak_omega) > 0.5 * derived.gamma

    def test_elimination_band_flag(self, paper_derived):
        points = oe.spectrum(paper_derived, [0.0, 2.0 * paper_derived.delta])
        assert points[0].flags == ()
        assert "omega_outside_elimination_band" in points[1].flags

    def test_order_preserving_and_deterministic(self, paper_derived, omega_grid):
        a = oe.spectrum(paper_derived, omega_grid[:50])
        b = oe.spectrum(paper_derived, omega_grid[:50])
        assert [p.omega for p in a] == list(omega_grid[:50])
        assert a == b
