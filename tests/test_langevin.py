import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import optoepr as oe
from optoepr import langevin
from optoepr.langevin import Covariance4, LinearResponse, adiabatic_response
from optoepr.params import TWO_PI
from optoepr.spectrum import closed_form_grid, metric_columns
from optoepr.steady_state import DerivedParams
from tests import closed_form_reference as ref
from tests.test_spectrum import make_derived

GAMMA = TWO_PI * 3.2e6
EPS = np.finfo(float).eps


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


def reference_masked_density(T_plus, T_minus, C):
    """Co-rotating/mirrored pairing as two products of zero-padded row blocks, as a reference."""
    def block(T, rows):
        out = np.zeros_like(T)
        out[..., rows, :] = T[..., rows, :]
        return out

    swap = langevin._swap
    return (block(T_plus, langevin._A_ROWS) @ C @ swap(block(T_minus, langevin._B_ROWS))
            + block(T_plus, langevin._B_ROWS) @ C @ swap(block(T_minus, langevin._A_ROWS)))


def reference_input_moments(n_m):
    """Second moments <in_a(w) in_b(-w)> of the six inputs (vacuum optics, thermal mechanics)."""
    C = np.zeros((6, 6))
    C[0, 1] = 1.0
    C[2, 3] = 1.0
    C[4, 5] = n_m + 1.0
    C[5, 4] = n_m
    return C


# Quadrature map (X1, P1, X2, P2) <- (a1, a1^dag, a2, a2^dag) at fixed sideband.
REFERENCE_QUAD = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [-1.0j, 1.0j, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, -1.0j, 1.0j],
])


def reference_covariances(T_plus, n_m):
    """Covariances from the two ordered densities and two quadrature sandwiches, as a reference."""
    C = reference_input_moments(n_m)
    T_minus = langevin._mirror(T_plus)
    swap = langevin._swap
    D_plus = reference_masked_density(T_plus, T_minus, C)
    D_minus = reference_masked_density(T_minus, T_plus, C)
    Q = REFERENCE_QUAD
    S = 0.5 * (Q @ D_plus @ Q.T + swap(Q @ D_minus @ Q.T))
    herm_defect = np.max(np.abs(S - np.conj(swap(S))), axis=(-2, -1))
    assert np.all(herm_defect <= 1e-7 * np.maximum(1.0, np.max(np.abs(S), axis=(-2, -1))))
    return 0.5 * (S.real + swap(S.real))


def reference_reduce(V):
    """n, k_x, k_p and residual with the cross block reduced by a stacked svd and det."""
    n = np.trace(V, axis1=-2, axis2=-1) / 4.0
    nI = n[..., None, None] * np.eye(2)
    residual = np.maximum(np.max(np.abs(V[..., 0:2, 0:2] - nI), axis=(-2, -1)),
                          np.max(np.abs(V[..., 2:4, 2:4] - nI), axis=(-2, -1)))
    cross = V[..., 0:2, 2:4]
    svals = np.linalg.svd(cross, compute_uv=False)
    return n, svals[..., 0], svals[..., 1] * np.sign(np.linalg.det(cross)), residual


def passthrough_response(omega=0.0):
    rows = np.zeros((4, 6), dtype=complex)
    for k in range(4):
        rows[k, k] = 1.0
    return LinearResponse(omega=omega, map_rows=rows)


def reference_resolvent(M, l, omegas):
    """(-i w - M)^-1 diag(l) at every w of ``omegas`` by one stacked LU solve, shape (N, k, k)."""
    A = -1j * omegas[:, None, None] * np.eye(len(M)) - M
    return np.linalg.solve(A, np.broadcast_to(np.diag(l).astype(complex), A.shape))


# Each exact model's resolvent call: its drift, the rows it keeps, its number of
# cavity modes, and whether it is solved at the pre-RWA sideband w + omega_m + delta.
# ``rwa3_interior`` is the intracavity density's call.
KERNELS = {
    "adiabatic_response": (langevin._adiabatic_drift, [0, 1], 0, False),
    "rwa3": (langevin._rwa3_drift, [0, 1], 2, False),
    "rwa3_interior": (langevin._rwa3_drift, [0], 2, False),
    "full6": (langevin._full6_drift, [0, 3], 4, True),
}

# The retuned operating point of the strong-drive ``opsearch`` benchmark input 74
# (target_alpha 11532, target_delta_hz 3.93e6, target_d_over_gamma 0.0288,
# 2.66 K, Q 5.67e5) as the steady-state solver returns it: g is 570 gamma while
# g' - g = d is 2.2e-4 gamma, so its drifts are ill-conditioned (up to 2.6e6).
OP74 = DerivedParams(
    alpha_1=(-11529.783504838944 - 238.26159236841045j),
    alpha_2=(11529.783420143069 - 238.26589488662364j),
    beta=-26598.535260671964, beta_imag_dropped=0.023440534413667728,
    Delta_1p=-486482210.36347246, Delta_2p=486473422.07244444,
    delta=24663696.14025885, d=4394.145514011383,
    g=11500162561.664803, g_prime=11500166955.810316,
    gamma_m_tilde=379535.85369015776, n_m=752.7395009288225,
    gamma=20106192.982974675, gamma_m=813.9673608572623,
    omega_m=461814120.0776996, eta=0.0001, multistable=True,
)


class TestResolvent:
    """The cavity-elimination kernel against the stacked LU solve it replaced.

    Tolerance: at each frequency, the largest deviation over the kept rows is
    at most 8 eps cond(A) of that point's largest reference entry, A = -i w - M
    (the forward-error scale of a backward-stable solve; both are one).  The
    largest on these grids is 0.95 eps cond(A), at a point with cond(A) = 1.9.
    """

    def assert_rows_match(self, model, derived, sidebands):
        drift, rows, cavity, pre_rwa = KERNELS[model]
        M, l = drift(derived)
        omegas = np.asarray(sidebands, dtype=float)
        if pre_rwa:
            omegas = omegas + derived.omega_m + derived.delta
        got = langevin._resolvent(M, l, omegas, rows, cavity, model)
        ref = reference_resolvent(M, l, omegas)[:, rows]
        assert got.shape == ref.shape == (len(omegas), len(rows), len(M))
        cond = np.linalg.cond(-1j * omegas[:, None, None] * np.eye(len(M)) - M)
        deviation = np.max(np.abs(got - ref), axis=(-2, -1), initial=0.0)
        scale = np.max(np.abs(ref), axis=(-2, -1), initial=0.0)
        assert np.all(deviation <= 8.0 * EPS * cond * scale)

    @pytest.mark.parametrize("model", KERNELS)
    def test_paper_point_in_and_off_band(self, model, paper_params, paper_derived):
        in_band = oe.default_omega_grid(paper_params.gamma, 201)
        off_band = np.linspace(-3.0 * paper_derived.delta, 3.0 * paper_derived.delta, 61)
        for grid in (in_band, off_band):
            self.assert_rows_match(model, paper_derived, np.concatenate([grid, -grid]))

    @pytest.mark.parametrize("model", KERNELS)
    def test_strong_drive_point(self, model):
        grid = oe.default_omega_grid(OP74.gamma, 41)
        self.assert_rows_match(model, OP74, np.concatenate([[0.0], grid, -grid]))

    @pytest.mark.parametrize("model", KERNELS)
    def test_empty_and_one_point_grids(self, model, paper_derived):
        self.assert_rows_match(model, paper_derived, [])
        self.assert_rows_match(model, paper_derived, [0.3 * GAMMA])

    def test_strong_drive_commutators(self):
        # an eigendecomposition of the drift instead of the elimination read 2.5e-8 here
        for solve in (oe.rwa3_solve, oe.full6_solve):
            assert solve(OP74, 0.0).commutator_defect() <= 1e-9

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="long double is double here")
    def test_one_point_maps_held_in_long_double(self):
        # n ~ 2.7e6 here: a map rounded to double carries a commutator defect of ~eps n,
        # 2e-10 to 1.7e-9 over a few ulp of the operating point
        for solve in (oe.rwa3_solve, oe.full6_solve):
            resp = solve(OP74, 0.0)
            assert resp.map_rows.dtype == np.clongdouble
            assert resp.commutator_defect() <= 1e-11

    @pytest.mark.parametrize("M, cavity, pivot", [
        # cavity pivot D_0 = -M_00 = 0 at w = 0
        ([[0, 0, 1], [0, -1, 1], [1, 1, -1]], 2, "zero cavity pivot"),
        # 1x1 Schur complement 1 - (-1)(1)(-1) = 0 at w = 0
        ([[-1, 0, 1], [0, -1, 0], [1, 0, -1]], 2, "singular mechanical"),
        # 2x2 Schur complement [[1 - 1, 0], [0, 1]] at w = 0
        ([[-1, 1, 0], [1, -1, 0], [0, 0, -1]], 1, "singular mechanical"),
        # no cavity mode: the 2x2 drift itself, det 1 - 1 = 0 at w = 0
        ([[-1, 1], [1, -1]], 0, "singular mechanical"),
    ])
    def test_singular_drift_raises_by_name(self, M, cavity, pivot):
        M = np.array(M, dtype=complex)
        omegas = np.array([1.0, 0.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(oe.SingularDrift, match=pivot):
                langevin._resolvent(M, np.ones(len(M)), omegas, [0], cavity, "test")
            # the same drift away from w = 0 is regular
            langevin._resolvent(M, np.ones(len(M)), omegas[[0, 2]], [0], cavity, "test")


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
        omegas = [0.0, 0.35 * GAMMA, 1.2 * GAMMA]
        closed = closed_form_grid(derived, omegas)
        for omega, n, k_x in zip(omegas, closed.n.tolist(), closed.k_x.tolist()):
            V = oe.assemble_covariance(adiabatic_response(derived, omega), derived.n_m)
            reduced = oe.standard_form_reduce(V)
            assert reduced.n == pytest.approx(n, rel=1e-12)
            assert reduced.k_x == pytest.approx(k_x, rel=1e-12)

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


class TestMaskedDensity:
    """The single masked product equals the two zero-padded block products exactly."""

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    def assert_equal_to_reference(self, T_plus, n_m):
        T_minus = langevin._mirror(T_plus)
        for C in (reference_input_moments(n_m), langevin._J_IN):
            for a, b in ((T_plus, T_minus), (T_minus, T_plus)):
                assert np.array_equal(langevin._masked_density(a, b, C),
                                      reference_masked_density(a, b, C))

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_model_maps(self, model, paper_params, paper_derived):
        in_band = oe.default_omega_grid(paper_params.gamma, 201)
        off_band = np.linspace(-3.0 * paper_derived.delta, 3.0 * paper_derived.delta, 61)
        for omegas in (in_band, off_band):
            T = langevin._response_maps(paper_derived, omegas, model)
            self.assert_equal_to_reference(T, paper_derived.n_m)

    def test_seeded_random_maps(self):
        rng = np.random.default_rng(20080101)
        for scale in (1e-3, 1.0, 1e4):
            T = scale * (rng.standard_normal((64, 4, 6)) + 1j * rng.standard_normal((64, 4, 6)))
            self.assert_equal_to_reference(T, float(rng.uniform(0.0, 1e5)))

    def test_unpaired_entries_zero(self):
        rng = np.random.default_rng(7)
        T = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        D = langevin._masked_density(T, langevin._mirror(T), reference_input_moments(3.0))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)]:
            assert D[i, j] == 0.0


class TestCovariances:
    """One symmetric density gives the two-density covariances to rounding."""

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    def assert_close_to_reference(self, T_plus, n_m):
        V = langevin._covariances(T_plus, n_m)
        ref = reference_covariances(T_plus, n_m)
        assert V.shape == ref.shape and np.array_equal(V, langevin._swap(V))
        deviation = np.max(np.abs(V - ref), axis=(-2, -1))
        assert np.all(deviation <= 4.0 * EPS * np.max(np.abs(ref), axis=(-2, -1)))

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_model_maps(self, model, paper_params, paper_derived):
        in_band = oe.default_omega_grid(paper_params.gamma, 201)
        off_band = np.linspace(-3.0 * paper_derived.delta, 3.0 * paper_derived.delta, 61)
        for omegas in (in_band, off_band):
            T = langevin._response_maps(paper_derived, omegas, model)
            self.assert_close_to_reference(T, paper_derived.n_m)
            self.assert_close_to_reference(T[len(omegas) // 3], paper_derived.n_m)

    def test_seeded_random_maps(self):
        rng = np.random.default_rng(20080101)
        for scale in (1e-3, 1.0, 1e4):
            T = scale * (rng.standard_normal((64, 4, 6)) + 1j * rng.standard_normal((64, 4, 6)))
            self.assert_close_to_reference(T, float(rng.uniform(0.0, 1e5)))

    def test_non_finite_map_rejected(self, paper_derived):
        T = langevin._response_maps(paper_derived, [0.0, 1e5], "rwa3")
        T[1, 2, 4] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            langevin._covariances(T, paper_derived.n_m)


# Block entries before scaling: 0 or 1e-6 <= |entry| <= 1, so no product underflows.
BLOCK_ENTRIES = st.just(0.0) | st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6)


@st.composite
def cross_blocks(draw):
    """Real 2x2 blocks from 1e-100 to 1e100: general, zero, rank-one, negative determinant."""
    kind = draw(st.sampled_from(["general", "zero", "rank_one", "negative_det"]))
    a, b, c, d = (draw(BLOCK_ENTRIES) for _ in range(4))
    if kind == "zero":
        a = b = c = d = 0.0
    elif kind == "rank_one":
        c, d = c * a, c * b
    elif kind == "negative_det" and a * d - b * c > 0.0:
        a, b, c, d = c, d, a, b
    return np.array([[a, b], [c, d]]) * 10.0 ** draw(st.integers(-100, 100))


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

    @given(cross_blocks())
    @example(np.zeros((2, 2)))
    @example(np.array([[1.0, 2.0], [2.0, 4.0]]))
    @example(np.array([[0.0, 1e100], [-1e100, 0.0]]))
    @example(np.array([[1e-100, 0.0], [0.0, -1e-100]]))
    def test_closed_form_cross_block_as_svd_and_det(self, cross):
        V = np.eye(4)
        V[0:2, 2:4] = cross
        V[2:4, 0:2] = cross.T
        _, k_x, k_p, _ = langevin._reduce(V)
        svals = np.linalg.svd(cross, compute_uv=False)
        assert abs(k_x - svals[0]) <= 4.0 * EPS * svals[0]
        if svals[0] == 0.0:
            assert k_p == 0.0
        else:
            expected = svals[1] * np.sign(np.linalg.det(cross))
            assert abs(k_p - expected) <= 8.0 * EPS * svals[0]

    @pytest.mark.parametrize("model", TestCovariances.EXACT_MODELS)
    def test_model_covariances_as_the_svd_reference(self, model, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 201)
        V = langevin._covariances(langevin._response_maps(paper_derived, grid, model),
                                  paper_derived.n_m)
        n, k_x, k_p, residual = langevin._reduce(V)
        ref_n, ref_k_x, ref_k_p, ref_residual = reference_reduce(V)
        assert np.array_equal(n, ref_n) and np.array_equal(residual, ref_residual)
        assert np.all(np.abs(k_x - ref_k_x) <= 4.0 * EPS * ref_k_x)
        assert np.all(np.abs(k_p - ref_k_p) <= 8.0 * EPS * ref_k_x)


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
        tp = ref.transfer_functions(optimum_derived, 0.0)
        V, sf = ref.closed_form_covariance(tp, optimum_derived.n_m, optimum_derived)
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

    def test_nonconvergent_budget(self, paper_derived, monkeypatch):
        monkeypatch.setattr(langevin, "_OCCUPATION_RTOL", 1e-12)
        monkeypatch.setattr(langevin, "_OCCUPATION_MAX_POINTS", 4097)
        with pytest.raises(oe.NonConvergent, match="not converged to 1e-12 within 4097 points"):
            oe.intracavity_occupation(paper_derived)


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
                tp = ref.transfer_functions(derived, omega)
                sf = ref.closed_form_covariance(tp, derived.n_m, derived)[1]
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

    def test_failures_and_values_on_the_default_grid_as_the_reference(self, paper_params,
                                                                       paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 2001)
        failures = {}
        for model in ("rwa3", "full6"):
            ev = oe.evaluate(paper_derived, grid, model)
            T = langevin._response_maps(paper_derived, grid, model)
            n, k_x, _, residual = reference_reduce(reference_covariances(T, paper_derived.n_m))
            assert np.array_equal(ev.failed, residual > 0.05 * np.abs(n))
            ok = ~ev.failed
            assert np.all(np.abs(ev.x[ok] - (n - k_x)[ok]) <= 1e-12 * (n - k_x)[ok])
            failures[model] = int(np.count_nonzero(ev.error == "NotSymmetricState"))
        assert failures == {"rwa3": 1300, "full6": 1310}

    def test_point_metrics_equal_metric_columns(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 41)
        report = oe.compare_models(paper_derived, grid, models=self.MODELS)
        for model in self.MODELS:
            ev = oe.evaluate(paper_derived, grid, model)
            cols = metric_columns(ev.x)
            for row, err, x, s_db, eof in zip(report.rows, ev.error, cols["epr_variance"],
                                              cols["S_db"], cols["eof"]):
                point = row.values[model]
                if err:
                    assert point == langevin.ModelPoint(None, None, None, error=err)
                else:
                    assert (point.epr_variance, point.S_db, point.eof) == (x, s_db, eof)
                    assert point.error is None

    def test_single_model_rows_have_no_deviations(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 5)
        report = oe.compare_models(paper_derived, grid, models=("rwa3",))
        assert [row.omega for row in report.rows] == grid.tolist()
        assert all(row.deviations == {} for row in report.rows)
        assert report.max_deviation == {} and report.baseline == "rwa3"

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


# A config of the `oracle_grid` pool (perfbench) written out: on its 201-point
# default grid rwa3 and full6 fail 94 points as NotSymmetricState.
ORACLE_CONFIG = ("defaults: paper\ntarget_alpha = 807.4552652242064\n"
                 "target_delta_hz = 25757671.221442174\ntarget_d_over_gamma = 0.1883510661743733\n"
                 "temperature_k = 305.8818424941077\nq_factor = 57623.23031183088\n")


def bits(value):
    """``value`` with every float as its hex form and every dict as its item list, so
    that == compares floats to the bit and dicts in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, bits(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return value


class TestComparisonRecords:
    """compare_models' records, against the same records assembled point by point."""

    MODELS = TestBatchedKernel.MODELS

    @pytest.fixture(scope="class", params=["paper", "oracle_pool"])
    def case(self, request, paper_params, paper_derived):
        if request.param == "paper":
            params, derived = paper_params, paper_derived
        else:
            params = oe.parse_config(ORACLE_CONFIG).params
            derived = oe.solve_steady_state(params)
        grid = oe.default_omega_grid(params.gamma, 201)
        return derived, grid, oe.compare_models(derived, grid, models=self.MODELS)

    def test_points_as_their_assembly(self, case):
        derived, grid, report = case
        evals = {m: oe.evaluate(derived, grid, m) for m in self.MODELS}
        failures = 0
        for model, ev in evals.items():
            cols = metric_columns(ev.x)
            for i, row in enumerate(report.rows):
                point = row.values[model]
                assert type(point) is langevin.ModelPoint
                if ev.failed[i]:
                    expected = (None, None, None, ev.error[i])
                    failures += ev.error[i] == "NotSymmetricState"
                else:
                    expected = (cols["epr_variance"][i], cols["S_db"][i], cols["eof"][i], None)
                assert bits(point) == bits(expected)
        assert failures > 0
        assert [type(row) for row in report.rows] == [langevin.ComparisonRow] * len(grid)
        assert bits([row.omega for row in report.rows]) == bits(grid.tolist())
        assert [list(row.values) for row in report.rows] == [list(self.MODELS)] * len(grid)

    def test_deviations_hold_exactly_the_finite_entries(self, case):
        derived, grid, report = case
        evals = {m: oe.evaluate(derived, grid, m) for m in self.MODELS}
        devs, worst = langevin.model_deviations(evals, self.MODELS)
        dropped = 0
        for i, row in enumerate(report.rows):
            finite = {m: float(devs[m][i]) for m in self.MODELS[1:] if np.isfinite(devs[m][i])}
            dropped += len(self.MODELS) - 1 - len(finite)
            assert bits(row.deviations) == bits(finite)
        assert (dropped > 0) == any(ev.failed.any() for ev in evals.values())
        assert bits(report.max_deviation) == bits(worst)
        assert report.baseline == self.MODELS[0]

    def test_records_are_immutable_tuples(self, case):
        _, _, report = case
        row = report.rows[0]
        point = row.values["rwa3"]
        with pytest.raises(AttributeError):
            point.eof = 1.0
        with pytest.raises(AttributeError):
            row.omega = 1.0
        x, s_db, eof, error = point
        assert point == (x, s_db, eof, error)
        assert langevin.ModelPoint(None, None, None, error="NotSymmetricState") == \
            (None, None, None, "NotSymmetricState")


def reference_evaluation(derived, omegas, model):
    """An exact model's Evaluation by the general 4x4 path, the covariances laid out and
    reduced by :func:`langevin._reduce`, as the reference."""
    V = langevin._covariances(langevin._response_maps(derived, omegas, model), derived.n_m)
    n, k_x, _, residual = langevin._reduce(V)
    return langevin.Evaluation.from_standard_form(n, k_x, residual > 0.05 * np.abs(n),
                                                  "NotSymmetricState")


class TestBlockReduction:
    """evaluate reduces the covariance blocks in closed form, to the last bit what the
    general 4x4 path gives."""

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    def assert_as_the_4x4_path(self, derived, omegas, model):
        omegas = np.asarray(omegas, dtype=float)
        got, ref = oe.evaluate(derived, omegas, model), reference_evaluation(derived, omegas, model)
        for name in ("n", "k_x", "x", "failed"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape == omegas.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name
        assert got.error.tolist() == ref.error.tolist()
        return got

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_paper_point(self, model, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 201)
        ev = self.assert_as_the_4x4_path(paper_derived, grid, model)
        assert (ev.error == "NotSymmetricState").any() == (model != "adiabatic_response")

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_strong_drive_point(self, model):
        self.assert_as_the_4x4_path(OP74, oe.default_omega_grid(OP74.gamma, 201), model)

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_oracle_pool_config(self, model):
        params = oe.parse_config(ORACLE_CONFIG).params
        derived = oe.solve_steady_state(params)
        ev = self.assert_as_the_4x4_path(derived, oe.default_omega_grid(params.gamma, 201),
                                         model)
        if model != "adiabatic_response":
            assert np.count_nonzero(ev.error == "NotSymmetricState") == 94

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_empty_and_one_point_grids(self, model, paper_derived):
        assert self.assert_as_the_4x4_path(paper_derived, [], model).x.shape == (0,)
        grid = oe.default_omega_grid(paper_derived.gamma, 201)
        for omega in grid[[77, 81, 87, 89, 100, 109, 111]]:   # symmetric points, |w| <= 0.46 gamma
            self.assert_as_the_4x4_path(paper_derived, [omega], model)


class TestCompareModelsArguments:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The models compare_models evaluates."""
        calls = []
        evaluate = langevin.evaluate

        def spy(derived, omegas, model):
            calls.append(model)
            return evaluate(derived, omegas, model)

        monkeypatch.setattr(langevin, "evaluate", spy)
        return calls

    def test_repeated_model_rejected(self, paper_derived, evaluated):
        with pytest.raises(ValueError, match="once"):
            oe.compare_models(paper_derived, [0.0], models=("rwa3", "rwa3"))
        with pytest.raises(ValueError, match="once"):
            oe.compare_models(paper_derived, [0.0], models=("adiabatic", "rwa3", "adiabatic"))
        assert evaluated == []

    @pytest.mark.parametrize("grid", [0.0, [[0.0, 1e6]], np.zeros((2, 3))],
                             ids=["scalar", "row", "2d"])
    def test_grid_not_1d_rejected_before_any_model(self, grid, paper_derived, evaluated):
        with pytest.raises(ValueError, match="1-D"):
            oe.compare_models(paper_derived, grid, models=("adiabatic", "rwa3"))
        assert evaluated == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["adiabatic_response", "rwa3", "full6"])
    def test_exact_models_reject_a_grid_not_finite(self, model, paper_derived):
        for grid in ([0.0, math.nan], [math.inf], [-math.inf, 0.0, 1e6]):
            with pytest.raises(ValueError, match="frequency grid must be finite"):
                oe.evaluate(paper_derived, grid, model)

    @pytest.mark.filterwarnings("error")
    def test_grid_not_finite_rejected_before_any_model(self, paper_derived, evaluated):
        with pytest.raises(ValueError, match="frequency grid must be finite"):
            oe.compare_models(paper_derived, [0.0, math.nan], models=("adiabatic", "rwa3"))
        assert evaluated == []

    @pytest.mark.parametrize("model", ["adiabatic_response", "rwa3", "full6"])
    def test_exact_models_reject_a_grid_not_1d(self, model, paper_derived):
        for grid in (0.0, np.zeros((2, 3))):
            with pytest.raises(ValueError, match="1-D"):
                oe.evaluate(paper_derived, grid, model)

    def test_closed_form_takes_any_shape(self, paper_derived):
        grid = np.linspace(-1e6, 1e6, 6)
        flat = oe.evaluate(paper_derived, grid, "adiabatic")
        block = oe.evaluate(paper_derived, grid.reshape(2, 3), "adiabatic")
        assert np.array_equal(block.x, flat.x.reshape(2, 3))
        point = oe.evaluate(paper_derived, 0.0, "adiabatic")
        assert point.x.shape == () and point.x == oe.evaluate(paper_derived, [0.0], "adiabatic").x[0]
