import math
from dataclasses import replace

import numpy as np
import pytest

import optoepr as oe
from optoepr import langevin
from optoepr.langevin import Covariance4, LinearResponse, adiabatic_response
from optoepr.params import TWO_PI
from tests.test_spectrum import make_derived

GAMMA = TWO_PI * 3.2e6


def exact_standard_entries(derived, omega):
    """Independent oracle: symmetrized spectral covariance of the eliminated model.

    Derived by hand from the output relations with vacuum optical inputs and
    the correlated thermal mechanical input, after operator symmetrization
    and reduction to the real frequency-even part:

        n   = [(u-v)^2 + (g'^2+g^2) g^2_c + (w^2 + d^2 + g_c^2/4) t] / |D|^2
        V14 = [-2 g g_c (u-v) + d g_c t] / |D|^2
        V24 = [2 g' g g_c^2 + (w^2 - d^2 + g_c^2/4) t] / |D|^2

    with g_c = gamma, u = w^2 + gamma^2/4, v = g'^2 - g^2 and
    t = gamma gamma_m~ (2 n_m + 1).
    """
    g, gp, gamma, d = derived.g, derived.g_prime, derived.gamma, derived.d
    t = gamma * derived.gamma_m_tilde * (2.0 * derived.n_m + 1.0)
    u_minus_v = omega**2 + gamma**2 / 4 + g * g - gp * gp
    abs_d2 = (gamma**2 / 4 - omega**2 + gp * gp - g * g) ** 2 + omega**2 * gamma**2
    n = (u_minus_v**2 + (gp * gp + g * g) * gamma**2
         + (omega**2 + d * d + gamma**2 / 4) * t) / abs_d2
    v14 = (-2 * g * gamma * u_minus_v + d * gamma * t) / abs_d2
    v24 = (2 * gp * g * gamma**2 + (omega**2 - d * d + gamma**2 / 4) * t) / abs_d2
    return n, v14, v24


def exact_covariance_matrix(derived, omega):
    n, v14, v24 = exact_standard_entries(derived, omega)
    return np.array([
        [n, 0.0, -v24, v14],
        [0.0, n, v14, v24],
        [-v24, v14, n, 0.0],
        [v14, v24, 0.0, n],
    ])


def passthrough_response(omega=0.0):
    rows = np.zeros((4, 6), dtype=complex)
    for k in range(4):
        rows[k, k] = 1.0
    return LinearResponse(omega=omega, map_rows=rows)


class TestResponseStructure:
    def test_undriven_rwa3_is_pure_reflection(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        resp = oe.rwa3_solve(derived, 0.3 * GAMMA)
        T = resp.map_rows
        assert abs(T[0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(T[0, 1:])) < 1e-14
        assert abs(T[3, 3]) == pytest.approx(1.0, rel=1e-12)

    def test_full6_decouples_without_coupling(self, paper_derived):
        from dataclasses import replace
        derived = replace(paper_derived, eta=1e-30)
        resp = oe.full6_solve(derived, 0.2 * GAMMA)
        mech_cols = resp.map_rows[:, 4:6]
        assert np.max(np.abs(mech_cols)) < 1e-12

    def test_commutator_preservation_with_thermal_noise(self, paper_derived):
        for omega in np.linspace(-GAMMA, GAMMA, 101):
            assert oe.rwa3_solve(paper_derived, omega).commutator_defect() < 1e-10
        for omega in np.linspace(-GAMMA, GAMMA, 21):
            assert oe.full6_solve(paper_derived, omega).commutator_defect() < 1e-10

    def test_conjugate_pairing_invariant(self, paper_derived):
        for omega in (0.0, 0.17 * GAMMA, 0.9 * GAMMA):
            plus = oe.full6_solve(paper_derived, omega)
            minus = oe.full6_solve(paper_derived, -omega)
            assert np.allclose(minus.map_rows, plus.mirrored(), rtol=1e-10, atol=1e-12)
            plus3 = oe.rwa3_solve(paper_derived, omega)
            minus3 = oe.rwa3_solve(paper_derived, -omega)
            assert np.allclose(minus3.map_rows, plus3.mirrored(), rtol=1e-10, atol=1e-12)


class TestAssembleCovariance:
    def test_identity_passthrough_gives_two_vacua(self):
        for n_m in (0.0, 1e5):
            V = oe.assemble_covariance(passthrough_response(), n_m)
            assert np.allclose(V.entries, np.eye(4), atol=1e-12)

    def test_adiabatic_response_matches_exact_entries(self, paper_derived):
        # internal consistency oracle for the assembly + the eliminated model
        for omega in (0.0, 0.2 * GAMMA, 0.8 * GAMMA, 1.7 * GAMMA):
            V = oe.assemble_covariance(adiabatic_response(paper_derived, omega),
                                       paper_derived.n_m)
            expected = exact_covariance_matrix(paper_derived, omega)
            assert np.allclose(V.entries, expected, rtol=1e-10, atol=1e-10)

    def test_closed_form_reproduced_without_mechanical_noise(self, paper_derived):
        # with gamma_m~ = 0 the closed-form entries coincide with the exact
        # assembly to machine precision
        from dataclasses import replace
        derived = replace(paper_derived, gamma_m_tilde=0.0)
        for omega in (0.0, 0.35 * GAMMA, 1.2 * GAMMA):
            V = oe.assemble_covariance(adiabatic_response(derived, omega), derived.n_m)
            tp = oe.transfer_functions(derived, omega)
            _, sf = oe.closed_form_covariance(tp, derived.n_m, derived)
            reduced = oe.standard_form_reduce(V)
            assert reduced.n == pytest.approx(sf.n, rel=1e-12)
            assert reduced.k_x == pytest.approx(sf.k_x, rel=1e-12)

    def test_thermal_terms_enter_only_through_mechanical_columns(self, paper_derived):
        resp = oe.rwa3_solve(paper_derived, 0.1 * GAMMA)
        masked_rows = resp.map_rows.copy()
        masked_rows[:, 4:6] = 0.0
        masked = LinearResponse(omega=resp.omega, map_rows=masked_rows)
        cold = oe.assemble_covariance(masked, 0.0)
        hot = oe.assemble_covariance(masked, 8.5e4)
        assert np.allclose(cold.entries, hot.entries, atol=1e-12)

    def test_covariance_physicality(self, paper_derived):
        for omega in (0.0, 0.2 * GAMMA, GAMMA):
            for solver in (oe.rwa3_solve, oe.full6_solve):
                V = oe.assemble_covariance(solver(paper_derived, omega), paper_derived.n_m)
                scale = max(1.0, float(np.max(np.abs(V.entries))))
                assert V.physicality_defect() > -1e-8 * scale

    def test_diagonal_at_or_above_vacuum(self, paper_derived):
        V = oe.assemble_covariance(oe.rwa3_solve(paper_derived, 0.3 * GAMMA),
                                   paper_derived.n_m)
        assert np.all(np.diag(V.entries) >= 1.0 - 1e-6)

    def test_covariance_frequency_even(self, paper_derived):
        # the symmetrized spectral covariance of the exact models is even
        for omega in (0.13 * GAMMA, 0.7 * GAMMA):
            plus = oe.assemble_covariance(oe.rwa3_solve(paper_derived, omega),
                                          paper_derived.n_m)
            minus = oe.assemble_covariance(oe.rwa3_solve(paper_derived, -omega),
                                           paper_derived.n_m)
            assert np.allclose(plus.entries, minus.entries, rtol=1e-9, atol=1e-9)


class TestStandardFormReduce:
    def test_identity(self):
        sf = oe.standard_form_reduce(Covariance4(entries=np.eye(4), omega=0.0))
        assert (sf.n, sf.k_x, sf.k_p, sf.residual) == (1.0, 0.0, 0.0, 0.0)

    def test_recovers_parameters_under_local_rotations(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = rng.uniform(1.0, 50.0)
            k_x = rng.uniform(0.0, n - 0.01)
            V = np.diag([n, n, n, n]).astype(float)
            V[0, 2] = V[2, 0] = k_x
            V[1, 3] = V[3, 1] = -k_x
            th1, th2 = rng.uniform(0, 2 * np.pi, size=2)

            def rot(t):
                return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])

            R = np.zeros((4, 4))
            R[0:2, 0:2] = rot(th1)
            R[2:4, 2:4] = rot(th2)
            rotated = Covariance4(entries=R @ V @ R.T, omega=0.0)
            sf = oe.standard_form_reduce(rotated)
            assert sf.n == pytest.approx(n, rel=1e-10)
            assert sf.k_x == pytest.approx(k_x, rel=1e-10, abs=1e-10)
            assert sf.k_p == pytest.approx(-k_x, rel=1e-10, abs=1e-10)
            assert sf.residual < 1e-9

    def test_rwa3_output_is_symmetric_form(self, optimum_derived):
        V = oe.assemble_covariance(oe.rwa3_solve(optimum_derived, 0.0), optimum_derived.n_m)
        sf = oe.standard_form_reduce(V)
        assert sf.residual < 0.01 * sf.n
        assert abs(sf.k_p + sf.k_x) < 0.02 * sf.k_x

    def test_rejects_non_symmetric_state(self):
        V = np.diag([10.0, 10.0, 1.0, 1.0])
        with pytest.raises(oe.NotSymmetricState):
            oe.standard_form_reduce(Covariance4(entries=V, omega=0.0))


class TestLogNegativity:
    def test_vacuum(self):
        assert oe.log_negativity(Covariance4(entries=np.eye(4), omega=0.0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_symmetric_standard_form_closed_form(self):
        # brute symplectic spectrum vs -log2(n - k_x) on sampled (n, k_x)
        for n, k_x in [(1.02, 0.5), (2.0, 1.5), (10.0, 9.5), (23.7, 23.0)]:
            V = np.diag([n, n, n, n]).astype(float)
            V[0, 2] = V[2, 0] = k_x
            V[1, 3] = V[3, 1] = -k_x
            expected = max(0.0, -math.log2(n - k_x)) if n - k_x < 1 else 0.0
            got = oe.log_negativity(Covariance4(entries=V, omega=0.0))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_product_of_squeezed_vacua_is_separable(self):
        r, s = 1.2, 0.4
        V = np.diag([math.exp(2 * r), math.exp(-2 * r), math.exp(2 * s), math.exp(-2 * s)])
        assert oe.log_negativity(Covariance4(entries=V, omega=0.0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_squeezing_metric_on_closed_form(self, optimum_derived):
        tp = oe.transfer_functions(optimum_derived, 0.0)
        V, sf = oe.closed_form_covariance(tp, optimum_derived.n_m, optimum_derived)
        ln = oe.log_negativity(Covariance4(entries=V, omega=0.0))
        x = sf.n - sf.k_x
        assert ln == pytest.approx(-math.log2(x), rel=1e-9)


class TestIntracavityOccupation:
    def test_vacuum_inputs_no_coupling(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, n_m=0.0, alpha=0.0)
        assert oe.intracavity_occupation(derived) == 0.0

    def test_paper_defaults_order_of_magnitude(self, paper_derived):
        occ = oe.intracavity_occupation(paper_derived)
        assert 1e2 <= occ <= 1e4
        assert occ < 1e-2 * abs(paper_derived.alpha_1) ** 2
        # regression anchor for the converged integral
        assert occ == pytest.approx(706.1, rel=0.02)

    def test_nonconvergent_budget(self, paper_derived):
        with pytest.raises(oe.NonConvergent):
            oe.intracavity_occupation(paper_derived, rel_tol=1e-12, max_points=4097)


class TestModelAgreement:
    def test_adiabatic_response_tracks_rwa3(self, paper_derived):
        band = np.linspace(-0.1 * paper_derived.delta, 0.1 * paper_derived.delta, 11)
        report = oe.compare_models(paper_derived, band,
                                   models=("rwa3", "adiabatic_response"))
        assert report.max_deviation["adiabatic_response"] < 0.01

    def test_rwa3_tracks_full6(self, paper_derived):
        band = np.linspace(-0.1 * paper_derived.delta, 0.1 * paper_derived.delta, 11)
        report = oe.compare_models(paper_derived, band, models=("rwa3", "full6"))
        assert report.max_deviation["full6"] < 0.06

    def test_closed_form_thermal_cancellation_absent_from_exact_models(self, paper_derived):
        # the closed form and the exact solvers disagree strongly in the
        # thermal sector at room temperature; this pins the discrepancy
        report = oe.compare_models(paper_derived, [0.0], models=("adiabatic", "rwa3"))
        assert report.max_deviation["rwa3"] > 10.0

    def test_vacuum_limit_all_models_agree(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, n_m=0.0, alpha=0.0)
        report = oe.compare_models(derived, [0.0, 0.5 * GAMMA],
                                   models=("adiabatic", "rwa3", "full6"))
        for row in report.rows:
            for model in ("adiabatic", "rwa3", "full6"):
                assert row.values[model].epr_variance == pytest.approx(1.0, rel=1e-9)

    def test_elimination_degrades_as_delta_shrinks(self, paper_params, paper_derived):
        # hold g fixed (alpha ~ sqrt(delta)) and compare on a fixed band
        band = np.linspace(-0.1 * paper_derived.delta, 0.1 * paper_derived.delta, 7)
        devs = []
        for factor in (1.0, 0.5, 0.1):
            cold = paper_params.scaled(T=0.0, gamma_m=paper_params.omega_m / 3e9)
            tuned = oe.operating_point_params(cold, 1000.0 * math.sqrt(factor),
                                              factor * paper_derived.delta, paper_derived.d)
            derived = oe.solve_steady_state(tuned)
            report = oe.compare_models(derived, band, models=("rwa3", "adiabatic_response"))
            devs.append(report.max_deviation["adiabatic_response"])
        assert devs[0] < devs[1] < devs[2]

    def test_rwa_degrades_as_omega_m_shrinks(self, paper_params, paper_derived):
        # hold the coupling rate fixed (alpha ~ 1/omega_m) so only the
        # counter-rotating frequency scale changes
        band = np.linspace(-0.1 * paper_derived.delta, 0.1 * paper_derived.delta, 7)
        devs = []
        for factor in (7.35, 4.0, 2.0):
            omega_m = factor * paper_derived.delta
            alpha = 1000.0 * paper_params.omega_m / omega_m
            cold = paper_params.scaled(T=0.0, omega_m=omega_m, gamma_m=omega_m / 30000.0)
            tuned = oe.operating_point_params(cold, alpha, paper_derived.delta,
                                              paper_derived.d)
            derived = oe.solve_steady_state(tuned)
            report = oe.compare_models(derived, band, models=("rwa3", "full6"))
            devs.append(report.max_deviation["full6"])
        assert devs[0] < devs[1] < devs[2]

    def test_unknown_model_rejected(self, paper_derived):
        with pytest.raises(ValueError):
            oe.compare_models(paper_derived, [0.0], models=("adiabatic", "bogus"))


class TestBatchedKernel:
    """compare_models evaluates each model in one batched pass; it must match
    the single-frequency chain point by point."""

    MODELS = ("adiabatic", "adiabatic_response", "rwa3", "full6")
    SOLVERS = {"adiabatic_response": oe.adiabatic_response, "rwa3": oe.rwa3_solve,
               "full6": oe.full6_solve}

    def per_point(self, derived, model, omega):
        """n - k_x from the single-frequency chain, or the name of its failure."""
        try:
            if model == "adiabatic":
                tp = oe.transfer_functions(derived, omega)
                sf = oe.closed_form_covariance(tp, derived.n_m, derived)[1]
            else:
                resp = self.SOLVERS[model](derived, omega)
                sf = oe.standard_form_reduce(oe.assemble_covariance(resp, derived.n_m))
        except oe.NotSymmetricState as exc:
            return type(exc).__name__
        return sf.n - sf.k_x

    def test_matches_single_frequency_chain(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 41)
        report = oe.compare_models(paper_derived, grid, models=self.MODELS)
        failures = dict.fromkeys(self.MODELS, 0)
        for row in report.rows:
            for model in self.MODELS:
                expected = self.per_point(paper_derived, model, row.omega)
                point = row.values[model]
                if isinstance(expected, str):
                    assert point.error == expected
                    assert point.epr_variance is None
                    failures[model] += 1
                else:
                    assert point.error is None
                    assert point.epr_variance == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert failures == {"adiabatic": 0, "adiabatic_response": 0, "rwa3": 26, "full6": 28}

    def test_failed_points_left_out_of_deviation(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 41)
        report = oe.compare_models(paper_derived, grid, models=("adiabatic", "rwa3"))
        for row in report.rows:
            assert ("rwa3" in row.deviations) == (row.values["rwa3"].error is None)

    @pytest.mark.parametrize("model", langevin.MODELS)
    def test_failure_mask_matches_error_names(self, model, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 41)
        unequal = replace(paper_derived, alpha_2=1.01 * paper_derived.alpha_2)
        degenerate = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        cases = [(paper_derived, grid), (unequal, grid), (degenerate, [0.0, 1.0, -1.0])]
        for derived, omegas in cases:
            if model == "adiabatic_response" and derived is degenerate:
                # the exact eliminated model's drift itself is singular at omega = 0
                with pytest.raises(oe.SingularDrift):
                    oe.evaluate(derived, omegas, model)
                continue
            ev = oe.evaluate(derived, omegas, model)
            assert ev.failed.dtype == bool
            assert np.array_equal(ev.failed, ev.error != "")
            for values in (ev.n, ev.k_x, ev.x):
                assert np.array_equal(np.isnan(values), ev.failed)
        if model == "adiabatic":
            assert list(oe.evaluate(unequal, grid, model).error) == ["DomainError"] * len(grid)
            assert list(oe.evaluate(degenerate, [0.0, 1.0, -1.0], model).error) == [
                "DegenerateResponse", "", ""]
