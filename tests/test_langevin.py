import math
import warnings
from dataclasses import astuple, replace
from functools import partial

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


# Reference helpers for response maps (..., 4, 6): the row blocks, the transpose of a
# stack, the map at -omega, the 4x4 layout of covariance blocks, and the two layouts
# of the output rows, as 4x6 maps and as a (2N, 2, 6) stack of row pairs, into which
# six_columns expands langevin._output_rows' three-column rows.
A_ROWS, B_ROWS = [0, 3], [1, 2]   # co-rotating outputs (a1_out, a2_out^dag), their partners
# Bosonic commutators [o_a(w), o_b(-w)] over (o, o^dag) pairs: the 6 inputs, the 4 outputs.
J_IN = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
J_OUT = J_IN[:4, :4]


def swap(A):
    """Transpose of each matrix in a stack."""
    return np.swapaxes(A, -1, -2)


def mirror(T):
    """Response maps (..., 4, 6) at -omega: rows and inputs swapped within partner pairs,
    conjugated."""
    return np.conj(T[..., [1, 0, 3, 2], :])[..., [1, 0, 3, 2, 5, 4]]


def layout(n1, n2, a, b):
    """Covariances (..., 4, 4) with diagonal blocks n1 I and n2 I, cross block [[a, b], [b, -a]]."""
    zero = np.zeros_like(n1)
    entries = [n1, zero, a, b, zero, n1, b, -a, a, b, n2, zero, b, -a, zero, n2]
    return np.stack(entries, axis=-1).reshape(np.shape(n1) + (4, 4))


def rows_of(T):
    """Maps (N, 4, 6) as output rows (2N, 2, 6): the pairs (a1_out, a2_out^dag), then
    their partner pairs (a1_out^dag, a2_out)."""
    return np.concatenate([T[:, A_ROWS], T[:, B_ROWS]])


def six_columns(rows):
    """Output rows (2N, 2, k) of langevin._output_rows over all six inputs, (2N, 2, 6).

    Three-column rows, over (a1_in, a2_in^dag, a_m_in) and in the partner half over
    their partners, are laid out as six-column rows were formed: the rows at +w and at
    -w zero-filled, then the partner half mirrored (conjugated with partner inputs
    swapped), so that its zeros carry the signs the conjugate gave them.  Six-column
    rows are returned as they are.
    """
    if rows.shape[-1] == 6:
        return rows
    half = len(rows) // 2
    out = np.zeros(rows.shape[:-1] + (6,), dtype=rows.dtype)
    out[..., [0, 3, 4]] = np.concatenate([rows[:half], np.conj(rows[half:])])
    out[half:] = np.conj(out[half:])[..., [1, 0, 3, 2, 5, 4]]
    return out


def maps_of(rows):
    """Output rows (2N, 2, k) as maps (N, 4, 6) over (a1_out, a1_out^dag, a2_out, a2_out^dag)."""
    plus, partner = np.split(six_columns(rows), 2)
    return np.stack([plus[:, 0], partner[:, 0], partner[:, 1], plus[:, 1]], axis=1)


def covariances(rows, n_m):
    """Covariances (N, 4, 4) of output rows (2N, 2, k) laid out from
    :func:`langevin._covariance_blocks`."""
    return layout(*langevin._covariance_blocks(rows, n_m))


def reference_gram(T_plus, w):
    """Weighted Gram entries G[i, k] = sum_l w_l T+[i, l] conj(T+[k, l]) of maps
    (..., 4, 6), i and k in one row block, shape (8, maps flat), in the order
    G_00, G_03, G_30, G_33, G_11, G_12, G_21, G_22: the map Gram the row products
    replaced, as a reference."""
    entries = [6 * i + l for i in A_ROWS + B_ROWS for l in range(6)]
    R = np.ascontiguousarray(T_plus.reshape(-1, 24)[:, entries].T).reshape(2, 2, 6, -1)
    return np.einsum("bilp,bklp,l->bikp", R, np.conj(R), w).reshape(8, -1)


def reference_blocks(T_plus, n_m):
    """Covariance blocks (n1, n2, a, b) of maps (..., 4, 6) from the 8-entry map Gram, as a
    reference: n1 = G_00 + G_11, n2 = G_33 + G_22 and a + i b the mean of
    G_03 + conj(G_12) and conj(G_30) + G_21, checked Hermitian to 1e-7 of the
    point's largest entry (or of 1)."""
    g = reference_gram(T_plus, np.array([0.5, 0.5, 0.5, 0.5, n_m + 0.5, n_m + 0.5]))
    herm = np.max(np.abs(g - np.conj(g[[0, 2, 1, 3, 4, 6, 5, 7]])), axis=0)
    if not np.all(herm <= 1e-7 * np.maximum(1.0, np.max(np.abs(g), axis=0))):
        raise ValueError(f"cross-spectrum not Hermitian: defect {np.max(herm):.3e}")
    n1, n2 = g[0].real + g[4].real, g[3].real + g[7].real
    pair, anti = g[1] + g[6], g[2] + g[5]          # G_03 + G_21, G_30 + G_12
    return n1, n2, 0.5 * (pair.real + anti.real), 0.5 * (pair.imag - anti.imag)


def reference_masked_density(T_plus, T_minus, C):
    """Co-rotating/mirrored pairing as two products of zero-padded row blocks, as a reference."""
    def block(T, rows):
        out = np.zeros_like(T)
        out[..., rows, :] = T[..., rows, :]
        return out

    return (block(T_plus, A_ROWS) @ C @ swap(block(T_minus, B_ROWS))
            + block(T_plus, B_ROWS) @ C @ swap(block(T_minus, A_ROWS)))


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
    T_minus = mirror(T_plus)
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
    return LinearResponse(omega=omega, rows=rows_of(rows[None]))


def adiabatic_drift(derived):
    """Drift of the eliminated two-mode model (a1, a2^dag), with unit input coupling."""
    gamma, g, gp = derived.gamma, derived.g, derived.g_prime
    M = -np.array([[gamma / 2.0 + 1j * gp, 1j * g], [-1j * g, gamma / 2.0 - 1j * gp]])
    return M, np.ones(2)


def reference_resolvent(M, l, omegas):
    """(-i w - M)^-1 diag(l) at every w of ``omegas`` by one stacked LU solve, shape (N, k, k)."""
    A = -1j * omegas[:, None, None] * np.eye(len(M)) - M
    return np.linalg.solve(A, np.broadcast_to(np.diag(l).astype(complex), A.shape))


def strided_resolvent(M, l, omegas, rows, cavity, label):
    """langevin._resolvent with the tail it had before its contiguous one, as the reference:
    the unit term added to the kept rows' cavity columns, then those columns scaled by
    1/D, each in place through a strided view."""
    m = len(M) - cavity
    eye = np.eye(m)
    z = -1j * omegas[:, None]
    M = np.asarray(M, dtype=z.dtype)
    d = z - M.diagonal()[:cavity]
    d_inv = 1.0 / d
    X, Y = M[:cavity, cavity:], M[cavity:, :cavity]
    S = (z * eye.ravel() - M[cavity:, cavity:].ravel()
         - d_inv @ (Y.T[:, :, None] * X[:, None, :]).reshape(cavity, m * m))
    YI = np.concatenate([Y, eye], axis=1) * l
    G = (X[rows].T[:, None, :, None] * YI[None, :, None, :]).reshape(m * m, -1)
    if m == 1:
        det, num = S[:, 0], G
    else:
        det, num = S[:, 0] * S[:, 3] - S[:, 1] * S[:, 2], S @ (langevin._ADJUGATE_2X2 @ G)
    out = num.reshape(-1, len(rows), len(M)) * (d_inv[:, rows] / det[:, None])[:, :, None]
    out[:, :, :cavity] += np.eye(cavity)[rows] * l[:cavity]
    out[:, :, :cavity] *= d_inv[:, None, :]
    return out


def six_column_rows(derived, omegas, model):
    """An exact model's output rows (2N, 2, 6) as they were formed before rows kept only
    the inputs a model couples, as the reference: each generator's rows zero-filled to
    the six inputs, the cavity models' on :func:`strided_resolvent`, and the rows at -w
    conjugated with partner inputs swapped."""
    both = np.concatenate([omegas, -omegas])
    sqrt_gamma = math.sqrt(derived.gamma)
    if model == "full6":
        rows = sqrt_gamma * strided_resolvent(*langevin._full6_drift(derived),
                                              both + derived.omega_m + derived.delta,
                                              [0, 3], 4, "6-mode")
    elif model == "rwa3":
        S = strided_resolvent(*langevin._rwa3_drift(derived), both, [0, 1], 2, "3-mode")
        rows = np.zeros((len(both), 2, 6), dtype=S.dtype)
        rows[:, :, [0, 3, 4]] = sqrt_gamma * S
    else:
        Ainv = langevin._adiabatic_resolvent(derived, both)
        rows = np.zeros((len(both), 2, 6), dtype=Ainv.dtype)
        rows[:, :, 0] = derived.gamma * Ainv[:, :, 0]
        rows[:, :, 3] = derived.gamma * Ainv[:, :, 1]
        rows[:, :, 4] = (math.sqrt(derived.gamma * derived.gamma_m_tilde)
                         * (Ainv[:, :, 0] - Ainv[:, :, 1]))
    rows[:, 0, 0] -= 1.0
    rows[:, 1, 3] -= 1.0
    rows[len(omegas):] = np.conj(rows[len(omegas):])[..., [1, 0, 3, 2, 5, 4]]
    return rows


# Each exact model's resolvent call: its drift, the rows it keeps, its number of
# cavity modes, and whether it is solved at the pre-RWA sideband w + omega_m + delta.
# ``rwa3_interior`` is the intracavity density's call; ``adiabatic_response`` has no
# cavity mode and is inverted explicitly (``langevin._adiabatic_resolvent``).
KERNELS = {
    "adiabatic_response": (adiabatic_drift, [0, 1], 0, False),
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
    g=11500162561.664803,
    gamma_m_tilde=379535.85369015776, n_m=752.7395009288225,
    gamma=20106192.982974675, gamma_m=813.9673608572623,
    omega_m=461814120.0776996, eta=0.0001, multistable=True,
)


class TestResolvent:
    """The cavity-elimination kernel, and the eliminated model's explicit inverse,
    against the stacked LU solve they replaced.

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
        if cavity:
            got = langevin._resolvent(M, l, omegas, rows, cavity, model)
        else:
            got = langevin._adiabatic_resolvent(derived, omegas)
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
            assert resp.rows.dtype == np.clongdouble
            assert resp.commutator_defect() <= 1e-11

    @pytest.mark.parametrize("M, cavity, pivot", [
        # cavity pivot D_0 = -M_00 = 0 at w = 0
        ([[0, 0, 1], [0, -1, 1], [1, 1, -1]], 2, "zero cavity pivot"),
        # 1x1 Schur complement 1 - (-1)(1)(-1) = 0 at w = 0
        ([[-1, 0, 1], [0, -1, 0], [1, 0, -1]], 2, "singular mechanical"),
        # 2x2 Schur complement [[1 - 1, 0], [0, 1]] at w = 0
        ([[-1, 1, 0], [1, -1, 0], [0, 0, -1]], 1, "singular mechanical"),
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

    def test_adiabatic_singular_drift_raises_by_name(self):
        # Delta = s^2 + d (2 g + d) = 2^2 - 2 (4 - 2) = 0 at w = 0 (s = gamma / 2 = 2)
        derived = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        omegas = np.array([1.0, 0.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(oe.SingularDrift, match="adiabatic drift .* zero determinant"):
                langevin._adiabatic_resolvent(derived, omegas)
            langevin._adiabatic_resolvent(derived, omegas[[0, 2]])


class TestCompactRows:
    """rwa3 and adiabatic_response keep only the three inputs they couple; laid out over
    the six inputs (:func:`six_columns`) their rows are the six-column rows, to the bit."""

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_expanded_rows_as_the_six_column_rows(self, model, dtype, paper_derived):
        for derived in (paper_derived, OP74):
            omegas = oe.default_omega_grid(derived.gamma, 201).astype(dtype)
            rows = langevin._output_rows(derived, omegas, model)
            assert rows.shape == (402, 2, 6 if model == "full6" else 3)
            assert same_bits(six_columns(rows), six_column_rows(derived, omegas, model))

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_one_point_products_as_on_six_columns(self, model, paper_derived):
        # the commutator weights flip sign on the partner pair's columns; the
        # symmetrized weights are equal for an input and its partner
        for derived in (paper_derived, OP74):
            for omega in (0.0, 0.3 * derived.gamma, -1.7 * derived.gamma):
                resp = langevin._one_point(derived, omega, model)
                wide = LinearResponse(omega, six_columns(resp.rows))
                assert bits(resp.commutator_defect()) == bits(wide.commutator_defect())
                got, ref = (oe.assemble_covariance(r, derived.n_m) for r in (resp, wide))
                assert got.entries.tobytes() == ref.entries.tobytes()


class TestResponseStructure:
    def test_undriven_rwa3_is_pure_reflection(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        resp = oe.rwa3_solve(derived, 0.3 * GAMMA)
        T = maps_of(resp.rows)[0]
        assert abs(T[0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(T[0, 1:])) < 1e-14
        assert abs(T[3, 3]) == pytest.approx(1.0, rel=1e-12)

    def test_full6_decouples_without_coupling(self, paper_derived):
        from dataclasses import replace
        derived = replace(paper_derived, eta=1e-30)
        resp = oe.full6_solve(derived, 0.2 * GAMMA)
        mech_cols = resp.rows[..., 4:6]
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
            assert np.allclose(maps_of(minus.rows), mirror(maps_of(plus.rows)), rtol=1e-10,
                               atol=1e-12)
            plus3 = oe.rwa3_solve(paper_derived, omega)
            minus3 = oe.rwa3_solve(paper_derived, -omega)
            assert np.allclose(maps_of(minus3.rows), mirror(maps_of(plus3.rows)), rtol=1e-10,
                               atol=1e-12)


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
        masked_rows = resp.rows.copy()
        masked_rows[..., 2] = 0.0   # a_m_in, and a_m_in^dag in the partner pair
        masked = LinearResponse(omega=resp.omega, rows=masked_rows)
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
    """commutator_defect is the largest deviation of the reference masked density of the
    commutators, against J_in, from J_out.

    The two sum the same six products of map entries in different orders, so they
    agree to about eps of the products' absolute sum: to 1e-15 on the model maps
    (held in long double, as the single-frequency solvers hold them; 5e-19 apart at
    the paper point), and to 1e-15 of max(1, |T| |T|^T) on random maps of any scale.
    """

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    def assert_defects_as_the_reference(self, T_plus, relative=False):
        for T in T_plus:
            expected = float(np.max(np.abs(reference_masked_density(T, mirror(T), J_IN) - J_OUT)))
            got = LinearResponse(omega=0.0, rows=rows_of(T[None])).commutator_defect()
            scale = max(1.0, float(np.max(np.abs(T) @ np.abs(T).T))) if relative else 1.0
            assert abs(got - expected) <= 1e-15 * scale

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_model_maps(self, model, paper_params, paper_derived):
        in_band = oe.default_omega_grid(paper_params.gamma, 201)
        off_band = np.linspace(-3.0 * paper_derived.delta, 3.0 * paper_derived.delta, 61)
        for omegas in (in_band, off_band):
            T = maps_of(langevin._output_rows(paper_derived, omegas.astype(np.longdouble), model))
            self.assert_defects_as_the_reference(T)

    def test_seeded_random_maps(self):
        rng = np.random.default_rng(20080101)
        for scale in (1e-3, 1.0, 1e4):
            T = scale * (rng.standard_normal((64, 4, 6)) + 1j * rng.standard_normal((64, 4, 6)))
            self.assert_defects_as_the_reference(T, relative=True)


class TestCovariances:
    """One symmetric density gives the two-density covariances to rounding."""

    EXACT_MODELS = ("adiabatic_response", "rwa3", "full6")

    def assert_close_to_reference(self, rows, n_m):
        V = covariances(rows, n_m)
        ref = reference_covariances(maps_of(rows), n_m)
        assert V.shape == ref.shape and np.array_equal(V, swap(V))
        deviation = np.max(np.abs(V - ref), axis=(-2, -1))
        assert np.all(deviation <= 4.0 * EPS * np.max(np.abs(ref), axis=(-2, -1)))

    @pytest.mark.parametrize("model", EXACT_MODELS)
    def test_model_maps(self, model, paper_params, paper_derived):
        in_band = oe.default_omega_grid(paper_params.gamma, 201)
        off_band = np.linspace(-3.0 * paper_derived.delta, 3.0 * paper_derived.delta, 61)
        for omegas in (in_band, off_band):
            rows = langevin._output_rows(paper_derived, omegas, model)
            self.assert_close_to_reference(rows, paper_derived.n_m)
            k = len(omegas) // 3   # one point: its pair and its partner pair
            self.assert_close_to_reference(rows[[k, len(omegas) + k]], paper_derived.n_m)

    def test_seeded_random_maps(self):
        rng = np.random.default_rng(20080101)
        for scale in (1e-3, 1.0, 1e4):
            shape = (128, 2, 6)
            rows = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            self.assert_close_to_reference(rows, float(rng.uniform(0.0, 1e5)))

    def test_non_finite_map_rejected(self, paper_derived):
        rows = langevin._output_rows(paper_derived, [0.0, 1e5], "rwa3")
        rows[3, 1, 2] = np.nan   # a2_out at the second sideband, mechanical input
        with pytest.raises(ValueError, match="not finite"):
            langevin._covariance_blocks(rows, paper_derived.n_m)


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

    @pytest.mark.parametrize("entry, value", [((0, 2), math.nan), ((0, 0), math.inf),
                                              ((1, 3), -math.inf), ((3, 3), math.nan)],
                             ids=["cross-nan", "diagonal-inf", "cross-minus-inf", "diagonal-nan"])
    def test_rejects_non_finite_entries(self, entry, value):
        # a NaN or infinite entry passed the symmetry check (nan > tol is False) and
        # reduced to a standard form with n = inf or k_x = nan
        V = 3.0 * np.eye(4)
        V[entry] = V[entry[::-1]] = value
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            Covariance4(entries=V, omega=0.0)

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
        V = covariances(langevin._output_rows(paper_derived, grid, model), paper_derived.n_m)
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
        solved = []
        output_rows = langevin._output_rows
        monkeypatch.setattr(langevin, "_output_rows",
                            lambda d, omegas, m: solved.append(len(omegas)) or output_rows(d, omegas, m))
        with pytest.raises(oe.NonConvergent, match="not converged to 1e-12 within 4097 points"):
            oe.intracavity_occupation(paper_derived)
        # the grids over [0, delta] of the symmetric grids of 2049 and 4097 points
        assert sum(solved) == 2049

    def test_as_the_full_grid_loop(self, paper_derived, optimum_derived):
        for derived in (paper_derived, optimum_derived):
            expected = reference_intracavity_occupation(derived)
            got = oe.intracavity_occupation(derived)
            assert abs(got - expected) <= FULL_GRID_RTOL * expected

    def test_blocks_do_not_move_the_value(self, paper_derived, monkeypatch):
        # blocks that split each level's new points unevenly give the default block's bits
        expected = oe.intracavity_occupation(paper_derived)
        for block in (1, 7, 999, 4096):
            monkeypatch.setattr(langevin, "_OCCUPATION_BLOCK", block)
            assert oe.intracavity_occupation(paper_derived) == expected

    def test_as_the_symmetric_grid_trapezoid(self, paper_derived, optimum_derived):
        # the integral over [0, delta] of the output block is the trapezoid of the
        # intracavity density over [-delta, delta] on the same spacing, but for rounding
        for derived in (paper_derived, optimum_derived):
            expected = symmetric_grid_occupation(derived)
            got = oe.intracavity_occupation(derived)
            assert abs(got - expected) <= SYMMETRIC_GRID_RTOL * expected

    @pytest.mark.parametrize("delta", np.concatenate([
        np.geomspace(1e5, 1e9, 9), np.random.default_rng(7).uniform(1e5, 1e9, 6),
        [TWO_PI * 1e7, math.nextafter(TWO_PI * 1e7, math.inf), 3.0 * TWO_PI * 1e7 / 7.0]]))
    def test_doubled_grid_holds_the_previous_one(self, paper_derived, monkeypatch, delta):
        # every level the loop can reach solves its new points, and holds the earlier
        # levels' as its even-index points, at linspace(0, delta, npts)'s points to the bit;
        # the rows are stubbed and the tolerance never met, so every level is made
        solved = []
        monkeypatch.setattr(langevin, "_output_rows", lambda d, omegas, m: solved.append(omegas)
                            or np.zeros((2 * len(omegas), 2, 3), dtype=complex))
        monkeypatch.setattr(langevin, "_OCCUPATION_RTOL", -1.0)
        with pytest.raises(oe.NonConvergent):
            oe.intracavity_occupation(replace(paper_derived, delta=delta))
        solved = np.concatenate(solved)
        npts = 1025
        points, solved = solved[:npts], solved[npts:]
        assert np.array_equal(points, np.linspace(0.0, delta, npts))
        while len(solved):
            npts = 2 * npts - 1
            finer = np.empty(npts)
            finer[::2], finer[1::2], solved = points, solved[:npts // 2], solved[npts // 2:]
            points = finer
            assert np.array_equal(points, np.linspace(0.0, delta, npts))
        assert 2 * (2 * npts - 1) - 1 > langevin._OCCUPATION_MAX_POINTS


# intracavity_occupation against reference_intracavity_occupation, relative: measured
# 0 at the paper point and at its optimum and at most 2.1e-16 over the 18 cli_tables
# configs (the nested rule rounds T_n / 2 + h sum f(new points) once a level).
FULL_GRID_RTOL = 5e-16

# intracavity_occupation against symmetric_grid_occupation, relative: measured
# 6.4e-16 at the paper point, 6.7e-16 at its optimum and at most 7.2e-15 over the
# 18 cli_tables configs.
SYMMETRIC_GRID_RTOL = 1.5e-14


def occupation_density(derived, omegas):
    """intracavity_occupation's density (n1 - 1) / gamma over ``omegas``, from rwa3's
    output block n1, every point at once."""
    n1 = langevin._covariance_blocks(langevin._output_rows(derived, omegas, "rwa3"),
                                     derived.n_m)[0]
    return (n1 - 1.0) / derived.gamma


def doubled_trapezoid(grid, density):
    """The trapezoid integral / 2 pi of ``density`` on ``grid(npts)``, npts the points of
    [-delta, delta] at its spacing, doubled from 2049 until the integral moves by at most
    the occupation's tolerance; every level evaluated whole and summed at uniform spacing
    h, h (sum of the interior + (y_0 + y_N) / 2), by ``math.fsum``."""
    npts, previous = 2049, None
    while npts <= langevin._OCCUPATION_MAX_POINTS:
        omegas = grid(npts)
        y = density(omegas)
        h = (omegas[-1] - omegas[0]) / (len(omegas) - 1)
        value = h * math.fsum([*y[1:-1].tolist(), y[0] / 2.0, y[-1] / 2.0]) / (2.0 * math.pi)
        if previous is not None and (value == previous == 0.0 or
                                     abs(value - previous) <= langevin._OCCUPATION_RTOL * abs(value)):
            return value
        previous = value
        npts = 2 * (npts - 1) + 1
    raise oe.NonConvergent("occupation integral not converged")


def reference_intracavity_occupation(derived):
    """intracavity_occupation evaluating the density on every point of each level's
    grid over [0, delta], as a reference."""
    return doubled_trapezoid(lambda n: np.linspace(0.0, derived.delta, (n + 1) // 2),
                             partial(occupation_density, derived))


def symmetric_grid_occupation(derived):
    """The trapezoid of the drift's intracavity density (:func:`intracavity_density`)
    over [-delta, delta], on the grids whose halves intracavity_occupation integrates."""
    return doubled_trapezoid(lambda n: np.linspace(-derived.delta, derived.delta, n),
                             partial(intracavity_density, derived, model="rwa3"))


def intracavity_density(derived, omegas, model):
    """<a1^dag a1>(w) of ``model``'s drift over ``omegas``: row 0 of (-i w - M)^-1 diag(l)
    by ``np.linalg.inv``, each input's |entry|^2 weighted by its normally ordered moment,
    0 for an optical o_in, 1 for its o_in^dag, n_m for b_in and n_m + 1 for b_in^dag.

    rwa3's inputs are (a1_in, a2_in^dag, a_m_in), so its density is |S_01|^2 +
    n_m |S_02|^2; full6's are (a1_in, a1_in^dag, a2_in, a2_in^dag, b_in, b_in^dag),
    solved at the pre-RWA frequency w + omega_m + delta.
    """
    n_m = derived.n_m
    if model == "rwa3":
        (M, l), freqs, weights = langevin._rwa3_drift(derived), omegas, [0.0, 1.0, n_m]
    else:
        (M, l), freqs, weights = (langevin._full6_drift(derived),
                                  omegas + derived.omega_m + derived.delta,
                                  [0.0, 1.0, 0.0, 1.0, n_m, n_m + 1.0])
    row = np.linalg.inv(-1j * freqs[:, None, None] * np.eye(len(M)) - M)[:, 0, :] * l
    return np.abs(row) ** 2 @ np.array(weights)


class TestOutputBlockAsIntracavityDensity:
    """Input-output theory: with vacuum optical inputs, a1_out = -a1_in + sqrt(gamma) a1
    makes rwa3's and full6's output block n1(w) - 1 = gamma [rho(w) + rho(-w)], rho the
    intracavity density of a1, which checks _covariance_blocks' symmetrized input
    weights against normally ordered ones with code it does not share."""

    # Measured over 257 points of [0, delta], relative to n1 - 1: at the paper point
    # 2.0e-14 (rwa3) and 2.3e-14 (full6), at OP74 2.4e-12 and 2.8e-12.  The reference's
    # inversion sets it; the resolvent's own rows give the identity to 8.6e-16.
    RTOL = {"paper": 5e-14, "OP74": 6e-12}

    @pytest.mark.parametrize("model", ["rwa3", "full6"])
    @pytest.mark.parametrize("point", ["paper", "OP74"])
    def test_identity(self, point, model, paper_derived):
        derived = paper_derived if point == "paper" else OP74
        omegas = np.linspace(0.0, derived.delta, 257)
        n1 = langevin._covariance_blocks(langevin._output_rows(derived, omegas, model),
                                         derived.n_m)[0]
        expected = derived.gamma * (intracavity_density(derived, omegas, model)
                                    + intracavity_density(derived, -omegas, model))
        assert np.max(np.abs(n1 - 1.0 - expected) / expected) <= self.RTOL[point]


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

    @pytest.mark.parametrize("model", ["adiabatic_response", "rwa3", "full6"])
    def test_exact_models_take_one_operating_point(self, model, paper_derived, monkeypatch):
        # the closed form takes a list of operating points; an exact model rejects
        # one by name before it solves anything
        assert oe.evaluate([paper_derived], [0.0, 1e6], "adiabatic").x.shape == (1, 2)

        def fail(*args):
            raise AssertionError("solved before the operating point was checked")
        monkeypatch.setattr(langevin, "_output_rows", fail)
        with pytest.raises(ValueError, match=f"model '{model}' takes one operating point, got list"):
            oe.evaluate([paper_derived], [0.0, 1e6], model)


def eliminated_further(derived, s):
    """``derived`` with delta and gamma_m times s and the amplitudes times sqrt(s): g, g'
    and gamma_m_tilde are held, so ``adiabatic_response`` is unchanged while rwa3's
    mechanics sit s times further from the cavity band."""
    root = math.sqrt(s)
    return replace(derived, delta=s * derived.delta, gamma_m=s * derived.gamma_m,
                   alpha_1=root * derived.alpha_1, alpha_2=root * derived.alpha_2)


def rotated_further(derived, s):
    """``derived`` with omega_m times s, the amplitudes over s and the detunings moved
    with omega_m: kappa = eta omega_m alpha, delta and d are held, so ``rwa3`` is
    unchanged while full6's counter-rotating terms sit s times further off."""
    omega_m = s * derived.omega_m
    return replace(derived, omega_m=omega_m,
                   alpha_1=derived.alpha_1 / s, alpha_2=derived.alpha_2 / s,
                   Delta_1p=-(omega_m + derived.delta + derived.d),
                   Delta_2p=omega_m + derived.delta - derived.d)


class TestConvergenceOrder:
    """Each approximation's error falls at its order as the ratio it rests on doubles.

    At the paper point, over s = 1, 2, 4 ... 32, the relative deviation of
    x = n - k_x falls per doubling by 4.00 to 3.85 for the elimination at
    omega = 0.3 gamma (second order in 1/delta; at omega = gamma the s = 1 point
    is NotSymmetricState) and by 1.96 to 2.01 for the rotating wave at omega = 0
    and 0.3 gamma (first order in 1/omega_m).  The bands hold those ratios.
    """

    SCALES = [2.0**k for k in range(6)]

    @pytest.mark.parametrize("scan, held, model, omega_over_gamma, band", [
        (eliminated_further, "adiabatic_response", "rwa3", 0.3, (3.8, 4.05)),
        (rotated_further, "rwa3", "full6", 0.0, (1.95, 2.02)),
        (rotated_further, "rwa3", "full6", 0.3, (1.95, 2.02)),
    ])
    def test_deviation_falls_at_its_order(self, paper_derived, scan, held, model,
                                          omega_over_gamma, band):
        grid = [omega_over_gamma * paper_derived.gamma]
        held_x, devs = set(), []
        for s in self.SCALES:
            derived = scan(paper_derived, s)
            exact = float(oe.evaluate(derived, grid, held).x[0])
            held_x.add(exact)
            devs.append(abs(float(oe.evaluate(derived, grid, model).x[0]) - exact) / exact)
        assert len(held_x) == 1   # the scan leaves the held model's inputs to the bit
        ratios = [a / b for a, b in zip(devs, devs[1:])]
        assert all(band[0] <= r <= band[1] for r in ratios), ratios


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
            T = maps_of(langevin._output_rows(paper_derived, grid, model))
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
            for i, (row, err) in enumerate(zip(report.rows, ev.error)):
                point = row.values[model]
                if err:
                    assert point == langevin.ModelPoint(None, err)
                else:
                    assert point == langevin.ModelPoint(cols["epr_variance"][i], None)
                    # the record's x gives the columns' metrics
                    alone = metric_columns(np.array([point.epr_variance]))
                    assert alone == {name: [column[i]] for name, column in cols.items()}

    def test_single_model_rows_have_no_deviations(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 5)
        report = oe.compare_models(paper_derived, grid, models=("rwa3",))
        assert [row.omega for row in report.rows] == grid.tolist()
        assert all(list(row.values) == ["rwa3"] for row in report.rows)
        assert list(report.evaluations) == ["rwa3"]
        assert (report.deviations, report.max_deviation) == ({}, {})
        assert report.baseline == "rwa3"

    def test_failed_points_left_out_of_deviation(self, paper_params, paper_derived):
        grid = oe.default_omega_grid(paper_params.gamma, 41)
        models = ("adiabatic", "rwa3")
        report = oe.compare_models(paper_derived, grid, models=models)
        devs, worst = report.deviations, report.max_deviation
        compared = [row.values["rwa3"].error is None for row in report.rows]
        assert np.array_equal(np.isnan(devs["rwa3"]), np.logical_not(compared))
        assert not all(compared)
        _, expected = reference_deviations(
            {m: oe.evaluate(paper_derived, grid, m) for m in models}, models)
        assert worst == expected == {"rwa3": float(np.max(devs["rwa3"][compared]))}

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


def reference_deviations(evals, models):
    """Each model after the first: |x - x_base| / |x_base| per point, NaN where either
    point failed, and the worst over the rest, 0.0 when no point compares; as a
    reference, point by point."""
    base = evals[models[0]]
    devs, worst = {}, {}
    for m in models[1:]:
        devs[m] = np.array([math.nan if base.failed[i] or evals[m].failed[i]
                            else abs(evals[m].x[i] - base.x[i]) / abs(base.x[i])
                            for i in range(len(base.x))])
        worst[m] = max((d for d in devs[m].tolist() if not math.isnan(d)), default=0.0)
    return devs, worst


def same_bits(got, ref):
    """Whether two complex arrays hold the same numbers to the bit: dtype, shape, values
    and the signs of zero parts (long double's ``tobytes`` holds padding as well)."""
    return (got.dtype == ref.dtype and got.shape == ref.shape and np.array_equal(got, ref)
            and all(np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))
                    for part in (np.real, np.imag)))


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
                    expected = (None, ev.error[i])
                    failures += ev.error[i] == "NotSymmetricState"
                else:
                    expected = (cols["epr_variance"][i], None)
                assert bits(point) == bits(expected)
        assert failures > 0
        assert [type(row) for row in report.rows] == [langevin.ComparisonRow] * len(grid)
        assert bits([row.omega for row in report.rows]) == bits(grid.tolist())
        assert [list(row.values) for row in report.rows] == [list(self.MODELS)] * len(grid)

    def test_deviations_hold_exactly_the_finite_entries(self, case):
        derived, grid, report = case
        evals = {m: oe.evaluate(derived, grid, m) for m in self.MODELS}
        devs, worst = report.deviations, report.max_deviation
        dropped = 0
        for i, row in enumerate(report.rows):
            base = row.values[self.MODELS[0]].epr_variance
            # finite exactly where both records hold an x, and formed from those x
            finite = {m: abs(row.values[m].epr_variance - base) / abs(base)
                      for m in self.MODELS[1:]
                      if base is not None and row.values[m].epr_variance is not None}
            dropped += len(self.MODELS) - 1 - len(finite)
            assert bits({m: float(devs[m][i]) for m in self.MODELS[1:]
                         if np.isfinite(devs[m][i])}) == bits(finite)
        assert (dropped > 0) == any(ev.failed.any() for ev in evals.values())
        assert bits(worst) == bits(reference_deviations(evals, self.MODELS)[1])
        assert report.baseline == self.MODELS[0]

    def test_evaluations_and_deviations_as_their_reference(self, case):
        derived, grid, report = case
        assert list(report.evaluations) == list(self.MODELS)
        for model in self.MODELS:
            got, expected = report.evaluations[model], oe.evaluate(derived, grid, model)
            for name in ("n", "k_x", "x", "failed"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.error.tolist() == expected.error.tolist()
        devs, _ = reference_deviations(report.evaluations, self.MODELS)
        assert list(report.deviations) == list(self.MODELS[1:])
        for model, dev in devs.items():
            got = report.deviations[model]
            assert np.array_equal(np.isnan(got), np.isnan(dev))
            assert got.tobytes() == dev.tobytes()

    def test_records_are_immutable_tuples(self, case):
        _, _, report = case
        row = report.rows[0]
        point = row.values["rwa3"]
        with pytest.raises(AttributeError):
            point.epr_variance = 1.0
        with pytest.raises(AttributeError):
            row.omega = 1.0
        x, error = point
        assert point == (x, error)
        assert langevin.ModelPoint(None, "NotSymmetricState") == (None, "NotSymmetricState")
        assert langevin.ModelPoint._fields == ("epr_variance", "error")
        assert langevin.ComparisonRow._fields == ("omega", "values")


def reference_evaluation(derived, omegas, model):
    """An exact model's Evaluation by the general 4x4 path, the covariances laid out
    (:func:`covariances`) and reduced by :func:`langevin._reduce`, as the reference."""
    V = covariances(langevin._output_rows(derived, omegas, model), derived.n_m)
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


def reference_block_evaluation(derived, omegas, model):
    """An exact model's Evaluation from the map Gram's blocks (:func:`reference_blocks` of
    the maps of :func:`langevin._output_rows`) reduced as :func:`langevin.evaluate` reduces
    them, as the reference."""
    n1, n2, a, b = reference_blocks(maps_of(langevin._output_rows(derived, omegas, model)),
                                    derived.n_m)
    n = (n1 + n1 + n2 + n2) / 4.0
    residual = np.maximum(np.abs(n1 - n), np.abs(n2 - n))
    k_x = 0.5 * np.hypot(a + a, b + b)
    return langevin.Evaluation.from_standard_form(n, k_x, residual > 0.05 * np.abs(n),
                                                  "NotSymmetricState")


class TestRowProductsAsTheMapGram:
    """The row products give every covariance the 8-entry map Gram gave, to the bit.

    Of the Gram's entries, G_30 and G_21 are exactly the conjugates of G_03 and
    G_12 (each product's real part is a commuted product, its imaginary part a
    negated sum), so the mean of G_03 + conj(G_12) and conj(G_30) + G_21 is
    G_03 + conj(G_12) in floating point; the powers are the same sums of the
    same products as G_00, G_11, G_22 and G_33.
    """

    SOLVERS = {"rwa3": oe.rwa3_solve, "full6": oe.full6_solve}

    @pytest.fixture(scope="class", params=["paper", "oracle_pool", "op74"])
    def point(self, request, paper_derived):
        if request.param == "paper":
            return paper_derived
        if request.param == "op74":
            return OP74
        return oe.solve_steady_state(oe.parse_config(ORACLE_CONFIG).params)

    @pytest.mark.parametrize("model", SOLVERS)
    def test_evaluate(self, model, point):
        grid = oe.default_omega_grid(point.gamma, 201)
        got, ref = oe.evaluate(point, grid, model), reference_block_evaluation(point, grid, model)
        for name in ("n", "k_x", "x", "failed"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert got.error.tolist() == ref.error.tolist()

    @pytest.mark.parametrize("model", SOLVERS)
    def test_one_point_chain(self, model, point):
        # the long-double maps of the single-frequency solvers
        for omega in oe.default_omega_grid(point.gamma, 201)[[0, 60, 100, 111, 140, 200]]:
            resp = self.SOLVERS[model](point, float(omega))
            V = oe.assemble_covariance(resp, point.n_m)
            ref = Covariance4(entries=layout(*(v[0] for v in reference_blocks(maps_of(resp.rows),
                                                                              point.n_m))),
                              omega=resp.omega)
            assert V.entries.tobytes() == ref.entries.tobytes()
            try:
                expected = oe.standard_form_reduce(ref)
            except oe.NotSymmetricState:
                with pytest.raises(oe.NotSymmetricState):
                    oe.standard_form_reduce(V)
            else:
                assert bits(astuple(oe.standard_form_reduce(V))) == bits(astuple(expected))

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_seeded_random_rows(self, dtype):
        rng = np.random.default_rng(20080102)
        for scale in (1e-3, 1.0, 1e4):
            T = scale * (rng.standard_normal((64, 4, 6)) + 1j * rng.standard_normal((64, 4, 6)))
            T = T.astype(dtype)
            n_m = float(rng.uniform(0.0, 1e5))
            got, ref = langevin._covariance_blocks(rows_of(T), n_m), reference_blocks(T, n_m)
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and np.array_equal(g, r)


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

    def test_model_set_rule(self, paper_derived, evaluated):
        # the one rule of compare_models and verify: a tuple of at least one known name,
        # each once, from any iterable of names but not from one string
        assert langevin.model_set(iter(["rwa3", "adiabatic"])) == ("rwa3", "adiabatic")
        assert langevin.model_set(m for m in ["full6"]) == ("full6",)
        for models, message in [("rwa3", "got the string 'rwa3'"), ((), "at least one model"),
                                (["adiabatic", "bogus"], "unknown model 'bogus'"),
                                (("rwa3", "full6", "rwa3"), "once")]:
            with pytest.raises(ValueError, match=message):
                langevin.model_set(models)
            with pytest.raises(ValueError, match=message):
                oe.compare_models(paper_derived, [0.0], models=models)
        assert evaluated == []

    def test_models_from_an_iterator_as_from_a_tuple(self, paper_derived):
        grid = [0.0, 1e6]
        models = ("adiabatic", "rwa3")
        got = oe.compare_models(paper_derived, grid, models=iter(models))
        expected = oe.compare_models(paper_derived, grid, models=models)
        assert got.baseline == "adiabatic" and list(got.evaluations) == list(models)
        assert bits(got.rows) == bits(expected.rows)
        assert bits(got.max_deviation) == bits(expected.max_deviation)

    @pytest.mark.parametrize("model", langevin.MODELS)
    def test_every_model_finite_at_the_grid_limit(self, model, paper_derived):
        # with no overflow warning, which pytest turns into an error
        limit = oe.spectrum.OMEGA_LIMIT
        oracle = oe.solve_steady_state(oe.parse_config(ORACLE_CONFIG).params)
        for derived in (paper_derived, oracle):
            ev = oe.evaluate(derived, [-limit, 0.0, limit], model)
            assert not ev.failed.any() and np.isfinite(ev.x).all()

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solve", [oe.rwa3_solve, oe.full6_solve, adiabatic_response])
    def test_one_point_solvers_take_the_frequency_rule(self, solve, paper_derived):
        # evaluate's frequency rule, checked before anything is solved
        for omega in (math.nan, math.inf, -math.inf, 1e300, -1e300):
            with pytest.raises(ValueError, match="frequency grid must be finite"):
                solve(paper_derived, omega)
        limit = oe.spectrum.OMEGA_LIMIT
        assert np.isfinite(solve(paper_derived, limit).rows.astype(complex)).all()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="long double is double here")
    def test_one_point_solves_its_long_double_frequency(self, paper_derived):
        omega = np.longdouble(0.3 * GAMMA) * (1 + np.finfo(np.longdouble).eps)
        assert float(omega) == 0.3 * GAMMA   # no double holds it
        rows = langevin._output_rows(paper_derived, np.array([omega]), "rwa3")
        assert same_bits(oe.rwa3_solve(paper_derived, omega).rows, rows)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                        reason="long double is double here")
    def test_long_double_beyond_double_range_rejected_without_a_warning(self, paper_derived):
        # cast to double it is inf, which the frequency rule rejects; numpy's overflow
        # warning raised before the ValueError under -W error
        beyond = np.longdouble("1e400")
        calls = (lambda: oe.spectrum.one_d_grid(np.array([beyond])),
                 lambda: oe.rwa3_solve(paper_derived, beyond))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="frequency grid must be finite"):
                    call()

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
