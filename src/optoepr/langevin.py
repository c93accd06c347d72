"""Exact frequency-domain Langevin solvers and covariance assembly.

Three linear response models share one representation here:

* ``rwa3``  - the 3-mode rotating-wave system {a1, a2^dag, a_m};
* ``full6`` - the 6-operator pre-RWA system with counter-rotating
  couplings retained (solved at its physical sidebands +-(omega_m + delta)
  and mapped back to the rotating-frame sideband frequency);
* ``adiabatic_response`` - the eliminated two-mode model, reconstructed as a
  response map so the closed-form covariance can be cross-checked.

Each model has one generator that solves its drift over a whole frequency
grid, and the rest of the chain is stacked too.  In every drift the cavity
modes couple only to the mechanics, so the solve eliminates the diagonal
cavity block per frequency in closed form and inverts the remaining 1x1 or
2x2 mechanical block (the inverse dressed mechanical susceptibility) by its
adjugate, forming only the resolvent rows the model keeps
(:func:`_resolvent`); no LU factorization or eigendecomposition is involved.
:func:`evaluate` runs it for one model on one grid (the closed form
included); the single-frequency functions are its one-point case in long
double: a commutator cancels entries ~sqrt(n) down to 1, so a double map's
defect is ~eps n (~1e-9 at strong drive), an x86 long-double map's ~1e-13.

A :class:`LinearResponse` maps the six input operators
(a1_in, a1_in^dag, a2_in, a2_in^dag, a_m_in, a_m_in^dag), evaluated at the
response's sideband frequency, onto the four outputs
(a1_out, a1_out^dag, a2_out, a2_out^dag).  Daggered entries follow the
mirrored-frequency convention: the row/column for o^dag at sideband w is the
complex conjugate of o's at -w, with partner columns swapped.  The map at -w
is therefore fully determined by the map at +w, which is what the
covariance assembly exploits.

The mechanical bath enters both optical modes through the same noise
operator (the correlated (a_m_in, -a_m_in) injection); this sign structure
is what suppresses thermal noise in the difference channel.

Covariances are the symmetrized spectral densities over
xi = (X1, P1, X2, P2): Hermitian cross-spectra are reduced to their real
(frequency-even) part, the standard real covariance convention for
stationary fields.  The two ordered densities <o(w) o(-w)> and
<o(-w) o(w)> fold into one symmetric density, so each covariance is formed
from 8 weighted Gram entries of the map at +w.  They give its blocks
directly (:func:`_covariance_blocks`): diagonal blocks n1 I and n2 I, cross
block [[a, b], [b, -a]].  :func:`evaluate` reduces those four numbers per
point in closed form, n = (n1 + n2) / 2 and k_x = hypot(a, b) in exact
arithmetic, and never lays out a 4x4 matrix; only
:func:`assemble_covariance` does.  A general cross block [[a, b], [c, d]]
reduces to Simon's standard form diag(k_x, k_p) by
k_x = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 and
k_p = (ad - bc) / k_x (:func:`_reduce`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NonConvergent, NotSymmetricState, SingularDrift
from .spectrum import Evaluation, StandardForm, closed_form_grid, epr_columns, one_d_grid
from .steady_state import DerivedParams

_MIRROR_PERM = np.array([1, 0, 3, 2, 5, 4])
_A_ROWS = [0, 3]   # co-rotating outputs (a1_out, a2_out^dag)
_B_ROWS = [1, 2]   # their mirrored partners
# Output pairs (i, j) with one row in each block: the densities' only nonzero entries.
_PAIRED = np.zeros((4, 4), dtype=bool)
_PAIRED[np.ix_(_A_ROWS, _B_ROWS)] = True
_PAIRED[np.ix_(_B_ROWS, _A_ROWS)] = True
# The paired density's 8 weighted Gram entries G[i, k], i and k in one row
# block, come in (block, i, k) order: G_00, G_03, G_30, G_33, G_11, G_12,
# G_21, G_22 (see :func:`_covariances`).  The flat (row, input) positions of
# the response map's rows, block by block, and each entry's partner G[k, i]:
_GRAM_MAP_ENTRIES = [6 * i + l for i in _A_ROWS + _B_ROWS for l in range(6)]
_GRAM_PARTNER = [0, 2, 1, 3, 4, 6, 5, 7]
# Flattened covariance over (X1, P1, X2, P2) from (n1, n2, a, b): diagonal
# blocks n1 I and n2 I, cross blocks [[a, b], [b, -a]].
_COV_LAYOUT = np.array([
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
], dtype=float)
# Flat (row-major) positions of the two diagonal 2x2 blocks of a 4x4 covariance, and I, I there.
_DIAGONAL_BLOCKS = [0, 1, 4, 5, 10, 11, 14, 15]
_DIAGONAL_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])[:, None]

# Largest deviation of the diagonal blocks from n*I, relative to n, for which
# the symmetric-state metrics are quoted.
_SYMMETRY_RTOL = 0.05

# intracavity_occupation doubles its grid until the integral moves by less than
# _OCCUPATION_RTOL of itself, and gives up past _OCCUPATION_MAX_POINTS points.
_OCCUPATION_RTOL = 5e-3
_OCCUPATION_MAX_POINTS = 2**20

# adj(S) = [[S11, -S01], [-S10, S00]] of a 2x2 S as a linear map of S's row-major entries.
_ADJUGATE_2X2 = np.array([[0.0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]])

# Bosonic commutators [o_a(w), o_b(-w)] over (o, o^dag) pairs: the 6 inputs, the 4 outputs.
# The output block is also the symplectic form for the X = a + a^dag
# normalization (vacuum variance 1) over (X1, P1, X2, P2).
_J_IN = np.kron(np.eye(3, dtype=int), [[0, 1], [-1, 0]]).astype(float)
SYMPLECTIC_FORM = _J_OUT = _J_IN[:4, :4]


@dataclass(frozen=True)
class Covariance4:
    """4x4 real symmetric spectral covariance over (X1, P1, X2, P2) at one frequency."""

    entries: np.ndarray
    omega: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (4, 4):
            raise ValueError("Covariance4 requires a 4x4 matrix")
        asym = np.max(np.abs(entries - entries.T))
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(entries)))):
            raise ValueError(f"covariance not symmetric: max asymmetry {asym:.3e}")
        object.__setattr__(self, "entries", 0.5 * (entries + entries.T))

    def physicality_defect(self) -> float:
        """Most negative eigenvalue of V + i Omega (>= 0 for a physical state)."""
        ev = np.linalg.eigvalsh(self.entries + 1j * SYMPLECTIC_FORM)
        return float(ev.min())


@dataclass(frozen=True)
class LinearResponse:
    """Output response map at one rotating-frame sideband frequency.

    ``map_rows`` is the 4x6 matrix from the input basis
    (a1_in, a1_in^dag, a2_in, a2_in^dag, a_m_in, a_m_in^dag) to
    (a1_out, a1_out^dag, a2_out, a2_out^dag).
    """

    omega: float
    map_rows: np.ndarray

    def mirrored(self) -> np.ndarray:
        """The 4x6 response map at -omega, from conjugate pairing."""
        return _mirror(self.map_rows)

    def commutator_defect(self) -> float:
        """Max deviation of the output commutators from the bosonic values.

        Pairs the co-rotating and mirrored row blocks against each other
        only, exactly as the covariance assembly does: same-block products
        connect distinct physical frequencies and carry no commutator weight.
        """
        J = _masked_density(self.map_rows, self.mirrored(), _J_IN)
        return float(np.max(np.abs(J - _J_OUT)))


def _swap(A: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(A, -1, -2)


def _mirror(T: np.ndarray) -> np.ndarray:
    """Response maps (..., 4, 6) at -omega: rows swapped within partner pairs, conjugated."""
    return np.conj(T[..., [1, 0, 3, 2], :])[..., _MIRROR_PERM]


def _resolvent(M: np.ndarray, l: np.ndarray, omegas: np.ndarray, rows: list[int],
               cavity: int, label: str) -> np.ndarray:
    """Rows ``rows`` of (-i w - M)^-1 diag(l) for every w of ``omegas``, shape (N, len(rows), k).

    The first ``cavity`` modes of M couple only to the last one or two
    (mechanical) ones, so A = -i w - M = [[D, X], [Y, E]] has a diagonal
    cavity block D.  Eliminating it leaves the mechanical Schur complement
    S = E - Y D^-1 X, the inverse dressed mechanical susceptibility, which
    is inverted in closed form, S^-1 = adj(S) / det S (1x1 or 2x2).  The
    kept rows are cavity rows r, whose row of A^-1 is
    -(X_r / D_r) S^-1 [-Y D^-1, 1] plus 1/D_r on column r; with no cavity
    modes, S = A and they are rows of S^-1.  It works in the precision of
    ``omegas``: a long-double grid gives long-double rows.

    Raises SingularDrift where a pivot, an entry of D or det S, is exactly zero.
    """
    m = len(M) - cavity
    eye = np.eye(m)
    z = -1j * omegas[:, None]
    M = np.asarray(M, dtype=z.dtype)
    d = z - M.diagonal()[:cavity]
    if not d.all():
        raise SingularDrift(f"{label} drift singular on the frequency grid: zero cavity pivot")
    d_inv = 1.0 / d
    X, Y = M[:cavity, cavity:], M[cavity:, :cavity]          # -X and -Y
    # S row-major, (N, m * m); Y D^-1 X is one (N, cavity) @ (cavity, m * m) product.
    S = (z * eye.ravel() - M[cavity:, cavity:].ravel()
         - d_inv @ (Y.T[:, :, None] * X[:, None, :]).reshape(cavity, m * m))
    # u_r adj(S) [-Y, 1] diag(l) of every kept row r, linear in S: one column of G per
    # (row, mode), with u_r = -X_r for a cavity row and the unit row for a mechanical one.
    U = X[rows] if cavity else eye[rows]
    YI = np.concatenate([Y, eye], axis=1) * l
    G = (U.T[:, None, :, None] * YI[None, :, None, :]).reshape(m * m, -1)
    if m == 1:
        det, num = S[:, 0], G
    else:
        det, num = S[:, 0] * S[:, 3] - S[:, 1] * S[:, 2], S @ (_ADJUGATE_2X2 @ G)
    if not det.all():
        raise SingularDrift(f"{label} drift singular on the frequency grid: "
                            "singular mechanical Schur complement")
    if not cavity:
        return num.reshape(-1, len(rows), m) / det[:, None, None]
    out = num.reshape(-1, len(rows), len(M)) * (d_inv[:, rows] / det[:, None])[:, :, None]
    out[:, :, :cavity] += np.eye(cavity)[rows] * l[:cavity]
    out[:, :, :cavity] *= d_inv[:, None, :]
    return out


def _rwa3_drift(derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift and (diagonal) input coupling of the 3-mode RWA system {a1, a2^dag, a_m}."""
    gamma, gamma_m = derived.gamma, derived.gamma_m
    d = derived.d
    kappa = derived.eta * derived.omega_m * derived.alpha
    M = np.array([
        [-1j * d - gamma / 2.0, 0.0, -1j * kappa],
        [0.0, 1j * d - gamma / 2.0, 1j * kappa],
        [-1j * kappa, -1j * kappa, 1j * derived.delta - gamma_m / 2.0],
    ], dtype=complex)
    return M, np.array([math.sqrt(gamma), math.sqrt(gamma), math.sqrt(gamma_m)])


def _rwa3_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the 3-mode RWA system, shape (N, 2, 6)."""
    S = _resolvent(*_rwa3_drift(derived), omegas, [0, 1], 2, "3-mode")
    gen = np.zeros((len(omegas), 2, 6), dtype=S.dtype)
    gen[:, :, [0, 3, 4]] = math.sqrt(derived.gamma) * S   # a1_in, a2_in^dag, a_m_in
    return gen


def _full6_drift(derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift and (diagonal) input coupling of (a1, a1^dag, a2, a2^dag, b, b^dag).

    Each daggered row of the drift mirrors its partner's.
    """
    cm = derived.eta * derived.omega_m
    a1, a2 = derived.alpha_1, derived.alpha_2
    M = np.zeros((6, 6), dtype=complex)
    M[0, 0] = 1j * derived.Delta_1p - derived.gamma / 2.0
    M[2, 2] = 1j * derived.Delta_2p - derived.gamma / 2.0
    M[4, 4] = -1j * derived.omega_m - derived.gamma_m / 2.0
    M[0, 4:] = -1j * cm * a1
    M[2, 4:] = -1j * cm * a2
    M[4, :4] = -1j * cm * np.array([np.conj(a1), a1, np.conj(a2), a2])
    M[1::2] = np.conj(M[0::2])[:, _MIRROR_PERM]
    return M, np.array([math.sqrt(derived.gamma)] * 4 + [math.sqrt(derived.gamma_m)] * 2)


def _full6_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the 6-operator model, shape (N, 2, 6).

    The pre-RWA frame carries the sidebands at +-(omega_m + delta); the
    co-rotating pair (a1, a2^dag) at rotating-frame sideband w lives at the
    pre-RWA frequency w + omega_m + delta.
    """
    S = _resolvent(*_full6_drift(derived), omegas + derived.omega_m + derived.delta,
                   [0, 3], 4, "6-mode")
    return math.sqrt(derived.gamma) * S


def _adiabatic_drift(derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift of the eliminated two-mode model (a1, a2^dag), with unit input coupling."""
    gamma, g, gp = derived.gamma, derived.g, derived.g_prime
    M = -np.array([[gamma / 2.0 + 1j * gp, 1j * g], [-1j * g, gamma / 2.0 - 1j * gp]])
    return M, np.ones(2)


def _adiabatic_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the eliminated two-mode model, shape (N, 2, 6)."""
    gamma = derived.gamma
    Ainv = _resolvent(*_adiabatic_drift(derived), omegas, [0, 1], 0, "adiabatic")
    gen = np.zeros((len(omegas), 2, 6), dtype=Ainv.dtype)
    gen[:, :, 0] = gamma * Ainv[:, :, 0]
    gen[:, :, 3] = gamma * Ainv[:, :, 1]
    gen[:, :, 4] = math.sqrt(gamma * derived.gamma_m_tilde) * (Ainv[:, :, 0] - Ainv[:, :, 1])
    return gen


_GENERATORS = {
    "adiabatic_response": _adiabatic_generator,
    "rwa3": _rwa3_generator,
    "full6": _full6_generator,
}

# Models :func:`evaluate` accepts: the closed form and the exact response models.
MODELS = ("adiabatic",) + tuple(_GENERATORS)


def _response_maps(derived: DerivedParams, omegas, model: str) -> np.ndarray:
    """4x6 response maps of an exact model at every sideband of ``omegas``, shape (N, 4, 6),
    in the precision of ``omegas``."""
    omegas = np.asarray(omegas)
    gen = _GENERATORS[model](derived, np.concatenate([omegas, -omegas]))
    gen[:, 0, 0] -= 1.0   # a_out = -a_in + sqrt(gamma) a
    gen[:, 1, 3] -= 1.0
    plus, minus = gen[:len(omegas)], np.conj(gen[len(omegas):])[..., _MIRROR_PERM]
    return np.stack([plus[:, 0], minus[:, 0], minus[:, 1], plus[:, 1]], axis=1)


def _one_point(derived: DerivedParams, omega: float, model: str) -> LinearResponse:
    """The response of ``model`` at one sideband, its map solved and held in long double."""
    return LinearResponse(omega, _response_maps(derived, np.array([omega], dtype=np.longdouble),
                                                model)[0])


def rwa3_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 3-mode rotating-wave system at sideband omega."""
    return _one_point(derived, omega, "rwa3")


def full6_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 6-operator pre-RWA model at sideband omega."""
    return _one_point(derived, omega, "full6")


def adiabatic_response(derived: DerivedParams, omega: float) -> LinearResponse:
    """The adiabatic output model expressed as a LinearResponse (for cross-checks)."""
    return _one_point(derived, omega, "adiabatic_response")


def _masked_density(T_plus: np.ndarray, T_minus: np.ndarray, C: np.ndarray) -> np.ndarray:
    """<o_i(w) o_j(-w)> with co-rotating/mirrored rows paired against each other only.

    Rows of a response live at the model's physical frequency for their
    block; pairing a block with itself would cross distinct physical
    frequencies (a vanishing delta function), so only A-B products survive.
    For the 3-mode and adiabatic models the discarded products are
    identically zero; for the 6-operator model they would be spurious.

    Each kept entry is one row of ``T_plus`` against one row of ``T_minus``,
    so a single product with the unpaired entries zeroed gives them all.
    """
    return np.where(_PAIRED, T_plus @ C @ _swap(T_minus), 0.0)


def _covariance_blocks(T_plus: np.ndarray, n_m: float):
    """Blocks (n1, n2, a, b) of the symmetrized quadrature covariances of response maps
    (..., 4, 6), each flat over the maps: diagonal blocks n1 I and n2 I, cross block
    [[a, b], [b, -a]].

    The two masked densities D+ = P o (T+ C T-^T) and D- = P o (T- C T+^T)
    enter as S = (Q D+ Q^T + (Q D- Q^T)^T) / 2, and because the pairing mask
    P is symmetric this is one density, S = Q (P o (T+ Cs T-^T)) Q^T with
    Cs = (C + C^T) / 2.  Cs couples each input only to its (o, o^dag)
    partner l', with weight 1/2 (optical) or n_m + 1/2 (mechanical), and the
    mirror T-[j, l] = conj(T+[j', l']) swaps partners back, so the paired
    entry (i, j) is the weighted Gram entry
    G[i, j'] = sum_l w_l T+[i, l] conj(T+[j', l]) with
    w = (1/2, 1/2, 1/2, 1/2, n_m + 1/2, n_m + 1/2): 8 entries per point, i
    and j' in the same block.  Q = diag(q, q), q = [[1, 1], [-i, i]], turns
    them block by block into V = Re S: n1 = G_00 + G_11, n2 = G_22 + G_33 and
    a + i b = (G_03 + conj(G_12) + conj(G_30) + G_21) / 2, the mean of two
    forms that are equal for a Hermitian G.

    Raises ValueError if any cross-spectrum is not Hermitian (a broken map):
    an entry differs from its partner's conjugate by more than 1e-7 of the
    point's largest entry (or of 1), or is not finite.
    """
    # (block, row, input, point).  einsum sums the products without forming
    # them all: that (entry, input, point) temporary cost fresh memory pages
    # on every call of a few-hundred-point grid.
    R = np.ascontiguousarray(T_plus.reshape(-1, 24)[:, _GRAM_MAP_ENTRIES].T).reshape(2, 2, 6, -1)
    w = np.array([0.5, 0.5, 0.5, 0.5, n_m + 0.5, n_m + 0.5])
    g = np.einsum("bilp,bklp,l->bikp", R, np.conj(R), w).reshape(8, -1)     # (entry, point)
    herm = np.max(np.abs(g - np.conj(g[_GRAM_PARTNER])), axis=0)
    scale = np.maximum(1.0, np.max(np.abs(g), axis=0))
    if not np.all(herm <= 1e-7 * scale):
        raise ValueError(f"cross-spectrum not Hermitian: defect {np.max(herm):.3e}")
    n1, n2 = g[0].real + g[4].real, g[3].real + g[7].real
    pair, anti = g[1] + g[6], g[2] + g[5]          # G_03 + G_21, G_30 + G_12
    return n1, n2, 0.5 * (pair.real + anti.real), 0.5 * (pair.imag - anti.imag)


def _covariances(T_plus: np.ndarray, n_m: float) -> np.ndarray:
    """Symmetrized quadrature covariances (..., 4, 4) of response maps (..., 4, 6), laid
    out from their blocks (:func:`_covariance_blocks`)."""
    blocks = np.array(_covariance_blocks(T_plus, n_m))
    return (blocks.T @ _COV_LAYOUT).reshape(T_plus.shape[:-2] + (4, 4))


def assemble_covariance(resp: LinearResponse, n_m: float) -> Covariance4:
    """Symmetrized quadrature covariance of the outputs for given bath occupancy.

    Optical inputs are vacuum; the mechanical input carries ``n_m``; all
    anomalous input moments vanish.  The Hermitian cross-spectrum is reduced
    to its real, frequency-even part.
    """
    return Covariance4(entries=_covariances(resp.map_rows, n_m), omega=resp.omega)


def _reduce(V: np.ndarray):
    """n, k_x, k_p and the diagonal-block residual of covariances (..., 4, 4).

    Two local rotations take the real cross block [[a, b], [c, d]] to
    diag(k_x, k_p) (Simon, PRL 84, 2726 (2000)): k_x is its larger singular
    value, sigma_1 = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2, and
    k_p = (ad - bc) / sigma_1 is the smaller one with the determinant's sign
    (0 for a zero block).
    """
    v = V.reshape(-1, 16).T                        # (entry, point), row-major entries
    n = (v[0] + v[5] + v[10] + v[15]) / 4.0
    residual = np.max(np.abs(v[_DIAGONAL_BLOCKS] - n * _DIAGONAL_IDENTITY), axis=0)
    a, b, c, d = v[2], v[3], v[6], v[7]
    k_x = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    k_p = (a * d - b * c) / np.where(k_x > 0.0, k_x, 1.0)
    return tuple(q.reshape(V.shape[:-2]) for q in (n, k_x, k_p, residual))


def standard_form_reduce(V: Covariance4) -> StandardForm:
    """Reduce a covariance to standard form by two local rotations.

    The diagonal blocks must already be close to n*I (local rotations cannot
    fix them); their worst deviation is reported as ``residual``.  The cross
    block goes to diag(k_x, k_p) in closed form: its singular values, the
    determinant's sign carried into k_p (see :func:`_reduce`).

    Raises
    ------
    NotSymmetricState
        If the residual exceeds ``_SYMMETRY_RTOL * n``; symmetric-state metrics
        must not be quoted for such a state.
    """
    n, k_x, k_p, residual = (float(v) for v in _reduce(V.entries))
    if residual > _SYMMETRY_RTOL * abs(n):
        raise NotSymmetricState(
            f"diagonal blocks deviate from n*I by {residual:.3e} (n = {n:.3e}); "
            "state is not symmetric enough for the standard form"
        )
    return StandardForm(n=n, k_x=k_x, k_p=k_p, residual=residual)


def evaluate(derived: DerivedParams, omegas, model: str) -> Evaluation:
    """n, k_x and n - k_x of one model over a frequency grid, in one batched pass.

    ``model`` is one of :data:`MODELS` (``adiabatic`` is the closed form).  An
    exact model's covariance blocks (n1, n2, a, b) per point
    (:func:`_covariance_blocks`) reduce in closed form, with no 4x4 matrix: n is
    the mean of the diagonal, (n1 + n1 + n2 + n2) / 4, the diagonal-block
    residual max(|n1 - n|, |n2 - n|) and k_x = hypot(a + a, b + b) / 2, to the
    last bit what :func:`_reduce` gives on the laid-out covariance.  Failed
    points are flagged by name: ``NotSymmetricState`` where an exact model's
    residual exceeds 5% of n, ``DomainError`` where n - k_x is not positive.
    The closed form takes a grid of any shape, the exact models a finite 1-D
    one.  Raises ValueError for an unknown model or an exact model's grid that
    breaks that rule (:func:`~optoepr.spectrum.one_d_grid`, before anything is
    solved), and SingularDrift if a drift is singular anywhere on the grid.
    """
    if model == "adiabatic":
        return closed_form_grid(derived, omegas)
    if model not in _GENERATORS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    n1, n2, a, b = _covariance_blocks(_response_maps(derived, one_d_grid(omegas), model),
                                      derived.n_m)
    # _reduce's arithmetic on the laid-out blocks: the cross block's first hypot is hypot(0, 0)
    n = (n1 + n1 + n2 + n2) / 4.0
    residual = np.maximum(np.abs(n1 - n), np.abs(n2 - n))
    k_x = 0.5 * np.hypot(a + a, b + b)
    return Evaluation.from_standard_form(n, k_x, residual > _SYMMETRY_RTOL * np.abs(n),
                                         "NotSymmetricState")


def log_negativity(V: Covariance4) -> float:
    """Logarithmic negativity from the partially transposed symplectic spectrum."""
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    Vt = P @ V.entries @ P
    ev = np.linalg.eigvals(1j * SYMPLECTIC_FORM @ Vt)
    nu_min = float(np.min(np.abs(ev)))
    if nu_min <= 0:
        return math.inf
    return max(0.0, -math.log2(nu_min))


def _rwa3_interior_density(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Spectral density <a1^dag a1>(w) of the intracavity field, batched over omegas."""
    S = _resolvent(*_rwa3_drift(derived), omegas, [0], 2, "3-mode")
    # Occupation picks up the (n+1)-ordered moments of the daggered inputs:
    # vacuum through the a2_in^dag column, thermal through the mechanical one.
    return np.abs(S[:, 0, 1]) ** 2 + derived.n_m * np.abs(S[:, 0, 2]) ** 2


def intracavity_occupation(derived: DerivedParams) -> float:
    """Stationary <a1^dag a1> from the 3-mode interior solution.

    Integrates the intracavity spectral density over [-delta, delta],
    doubling the grid until the trapezoid integral changes by less than
    ``_OCCUPATION_RTOL`` (0.5%) of itself.

    Raises
    ------
    NonConvergent
        If the grid would exceed ``_OCCUPATION_MAX_POINTS`` (2**20) points.
    """
    npts = 2049
    previous = None
    while npts <= _OCCUPATION_MAX_POINTS:
        omegas = np.linspace(-derived.delta, derived.delta, npts)
        density = _rwa3_interior_density(derived, omegas)
        value = float(np.trapezoid(density, omegas)) / (2.0 * math.pi)
        if previous is not None:
            if value == 0.0 and previous == 0.0:
                return 0.0
            if abs(value - previous) <= _OCCUPATION_RTOL * abs(value):
                return value
        previous = value
        npts = 2 * (npts - 1) + 1
    raise NonConvergent(
        f"occupation integral not converged to {_OCCUPATION_RTOL:g} within "
        f"{_OCCUPATION_MAX_POINTS} points"
    )


class ModelPoint(NamedTuple):
    """One model's metrics at one frequency, or, if the point failed, the failure's name."""

    epr_variance: float | None
    S_db: float | None
    eof: float | None
    error: str | None = None


class ComparisonRow(NamedTuple):
    """Every model's :class:`ModelPoint` at one frequency and the finite deviations there."""

    omega: float
    values: dict[str, ModelPoint]
    deviations: dict[str, float]


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[ComparisonRow]
    max_deviation: dict[str, float]
    baseline: str


def model_deviations(evals: dict[str, Evaluation], models: tuple[str, ...]
                     ) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Relative deviation of n - k_x from the baseline ``models[0]``, per point and worst.

    A point where either model failed deviates by NaN and is left out of
    the worst case (0.0 when no point compares).
    """
    base = evals[models[0]].x
    devs = {m: np.abs(evals[m].x - base) / np.abs(base) for m in models[1:]}
    worst = {m: float(np.max(dev, initial=0.0, where=~np.isnan(dev))) for m, dev in devs.items()}
    return devs, worst


def _records(cls, fields) -> list:
    """``cls`` records, a NamedTuple's, from an iterable of complete field tuples.

    ``tuple.__new__`` builds each one in C, with no Python call per record.
    """
    return list(map(partial(tuple.__new__, cls), fields))


def compare_models(derived: DerivedParams, omega_grid,
                   models: tuple[str, ...] = ("adiabatic", "rwa3", "full6")) -> ComparisonReport:
    """Cross-validate the closed-form model against the exact solvers.

    The first model in ``models`` is the deviation baseline.  ``adiabatic``
    is the closed form from :mod:`optoepr.spectrum`; ``adiabatic_response`` (the eliminated
    model assembled exactly) is also accepted.  Each model is evaluated once
    over the whole 1-D grid (:func:`evaluate`), the metrics its records keep
    are formed as :func:`~optoepr.spectrum.epr_columns` (no log negativity)
    and the deviations as :func:`model_deviations`.  The report holds one
    :class:`ComparisonRow` per grid point: its ``values`` map each model to a
    :class:`ModelPoint`, which names the failure of a failed point in place of
    its metrics, and its ``deviations`` map each non-baseline model to its
    relative deviation there, left out where either model failed.  Failed
    points are also left out of ``max_deviation``.

    Raises ValueError for an unknown model, and for no model, a repeated
    model or a grid that is not 1-D or not finite before any model is
    evaluated.
    """
    if not models:
        raise ValueError("at least one model required")
    if len(set(models)) != len(models):
        raise ValueError(f"each model may be compared once; got {models}")
    omegas = one_d_grid(omega_grid)
    evals = {m: evaluate(derived, omegas, m) for m in models}
    devs, worst = model_deviations(evals, models)
    points = []
    for ev in evals.values():
        cols = epr_columns(ev.x)
        column = _records(ModelPoint, zip(cols["epr_variance"], cols["S_db"], cols["eof"],
                                          repeat(None)))
        failures = _records(ModelPoint, zip(repeat(None), repeat(None), repeat(None),
                                            ev.error[ev.failed].tolist()))
        for i, point in zip(ev.failed.nonzero()[0].tolist(), failures):
            column[i] = point
        points.append(column)
    names = models[1:]
    # (point, model) deviations; (N, 0) for one model, whose rows get empty dicts
    block = np.array([devs[m] for m in names]).reshape(len(names), len(omegas)).T
    deviations = list(map(dict, map(zip, repeat(names), block.tolist())))
    for i, k in zip(*(a.tolist() for a in np.isnan(block).nonzero())):
        del deviations[i][names[k]]
    values = map(dict, map(zip, repeat(models), zip(*points)))
    rows = _records(ComparisonRow, zip(omegas.tolist(), values, deviations))
    return ComparisonReport(rows=rows, max_deviation=worst, baseline=models[0])
