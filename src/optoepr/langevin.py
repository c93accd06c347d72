"""Exact frequency-domain Langevin solvers and covariance assembly.

Three linear response models share one representation here:

* ``rwa3``  - the 3-mode rotating-wave system {a1, a2^dag, a_m};
* ``full6`` - the 6-operator pre-RWA system with counter-rotating
  couplings retained (solved at its physical sidebands +-(omega_m + delta)
  and mapped back to the rotating-frame sideband frequency);
* ``adiabatic_response`` - the eliminated two-mode model, reconstructed as
  output rows so the closed-form covariance can be cross-checked.

Each model has one generator that solves its drift over a whole frequency
grid, and the rest of the chain is stacked too.  In the 3-mode and 6-operator
drifts the cavity modes couple only to the mechanics, so the solve eliminates
the diagonal cavity block per frequency in closed form and inverts the
remaining 1x1 or 2x2 mechanical block by its adjugate, forming only the
resolvent rows the model keeps (:func:`_resolvent`); the eliminated model's
2x2 drift is inverted explicitly (:func:`_adiabatic_resolvent`).  No LU
factorization or eigendecomposition is involved.  :func:`evaluate` runs one
model on one grid (the closed form included); the single-frequency functions
are its one-point case in long double, under the same frequency rule: a
commutator cancels entries ~sqrt(n) down to 1, so double rows' defect is ~eps n
(~1e-9 at strong drive), x86 long-double rows' ~1e-13.

An output row maps the six inputs (a1_in, a1_in^dag, a2_in, a2_in^dag, a_m_in,
a_m_in^dag), at its sideband frequency, onto one of the four outputs (a1_out,
a1_out^dag, a2_out, a2_out^dag).  The row for o^dag at sideband w is the
conjugate of o's at -w over the partner inputs, so two output rows per
frequency are independent (:func:`_output_rows`, held at one frequency by a
:class:`LinearResponse`): those of (a1_out, a2_out^dag) at +w and at -w, the
latter conjugated into their partners' rows.  ``rwa3`` and ``adiabatic_response``
keep only the columns of the three inputs they couple (:data:`_COVERED`).

The mechanical bath enters both optical modes through the same noise
operator (the correlated (a_m_in, -a_m_in) injection); this sign structure
is what suppresses thermal noise in the difference channel.

Covariances are the symmetrized spectral densities over
xi = (X1, P1, X2, P2): Hermitian cross-spectra are reduced to their real
(frequency-even) part, the standard real covariance convention for
stationary fields.  Every second-order quantity comes from one weighted product
of each row pair (P_0, P_1) (:func:`_row_gram`): the powers sum_l w_l |P_jl|^2
and the cross product sum_l w_l P_0l conj(P_1l), l over the columns the rows
keep, each weighted as its input.  With the inputs' symmetrized occupations as
weights they give the covariance blocks (:func:`_covariance_blocks`): diagonal
blocks n1 I and n2 I, cross block [[a, b], [b, -a]], Hermitian by construction.
With +1 for each input o and -1 for each o^dag they give the output commutators
(:meth:`LinearResponse.commutator_defect`).  :func:`evaluate` reduces the four
numbers per point in closed form, n = (n1 + n2) / 2 and k_x = hypot(a, b), and
lays out no 4x4 matrix; the one-point chain lays out the 4x4 and reduces it to
Simon's standard form (:func:`_reduce`).
:func:`compare_models` evaluates several models on one grid and reports each
:class:`~optoepr.spectrum.Evaluation` beside its deviations from the first.

:func:`intracavity_occupation` integrates (n1 - 1) / gamma of ``rwa3``'s blocks,
the intracavity density at w plus that at -w, over [0, delta] by the nested
trapezoid rule: each doubling of the grid evaluates only its new points, in
blocks, and adds their ``math.fsum`` to half the last value, so its memory is
one block's, whatever the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NonConvergent, NotSymmetricState, ParameterError, SingularDrift
from .spectrum import Evaluation, StandardForm, closed_form_grid, one_d_grid
from .steady_state import DerivedParams

_MIRROR_PERM = np.array([1, 0, 3, 2, 5, 4])
# The inputs of an output row's columns by row width, in the pairs at +w and the partners'.
_COVERED = {6: np.array([range(6)] * 2), 3: np.array([[0, 3, 4], [1, 2, 5]])}
# Row-product weights of the commutators, +1 for each input o and -1 for each o^dag,
# and their bosonic values: the powers of (a1_out, a2_out^dag) and of their partners.
_COMMUTATOR_WEIGHTS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_BOSONIC_POWER = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Flat (row-major) positions of the two diagonal 2x2 blocks of a 4x4 covariance, and I, I there.
_DIAGONAL_BLOCKS = [0, 1, 4, 5, 10, 11, 14, 15]
_DIAGONAL_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])[:, None]

# Largest deviation of the diagonal blocks from n*I, relative to n, for which
# the symmetric-state metrics are quoted.
_SYMMETRY_RTOL = 0.05

# intracavity_occupation doubles its grid until the integral moves by less than
# _OCCUPATION_RTOL of itself, and gives up past _OCCUPATION_MAX_POINTS points of
# [-delta, delta] at its spacing.
_OCCUPATION_RTOL = 5e-3
_OCCUPATION_MAX_POINTS = 2**20
# It evaluates the density (each point at +-w) at most _OCCUPATION_BLOCK grid
# points at a time, so that its temporaries do not grow with the grid.
_OCCUPATION_BLOCK = 512

# adj(S) = [[S11, -S01], [-S10, S00]] of a 2x2 S as a linear map of S's row-major entries.
_ADJUGATE_2X2 = np.array([[0.0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]])

# The symplectic form over (X1, P1, X2, P2) for the X = a + a^dag normalization
# (vacuum variance 1).
SYMPLECTIC_FORM = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


@dataclass(frozen=True)
class Covariance4:
    """4x4 real symmetric spectral covariance over (X1, P1, X2, P2) at one frequency."""

    entries: np.ndarray
    omega: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (4, 4):
            raise ValueError("Covariance4 requires a 4x4 matrix")
        if not np.isfinite(entries).all():
            raise ValueError("covariance entries must be finite")
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
    """Output response at one rotating-frame sideband frequency.

    ``rows`` are the (2, 2, k) output rows of :func:`_output_rows` at this one
    frequency: the pair (a1_out, a2_out^dag), then its partners (a1_out^dag,
    a2_out), over the six inputs (a1_in, a1_in^dag, a2_in, a2_in^dag, a_m_in,
    a_m_in^dag) or, with k = 3, over the three a model couples (:data:`_COVERED`).
    """

    omega: float
    rows: np.ndarray

    def commutator_defect(self) -> float:
        """Max deviation of the output commutators from the bosonic values.

        The commutators [o_i(w), o_j(-w)], i and j in different row pairs, are
        the row products (:func:`_row_gram`) weighted +1 on each input o and -1 on
        each o^dag of a pair's columns: +-1 for the powers, 0 for the cross products.
        """
        weights = _COMMUTATOR_WEIGHTS[_COVERED[self.rows.shape[-1]]]
        power, cross = zip(*map(_row_gram, self.rows, weights))
        return float(max(np.max(np.abs(np.subtract(power, _BOSONIC_POWER))), np.max(np.abs(cross))))


def _resolvent(M: np.ndarray, l: np.ndarray, omegas: np.ndarray, rows: list[int],
               cavity: int, label: str) -> np.ndarray:
    """Rows ``rows`` of (-i w - M)^-1 diag(l) for every w of ``omegas``, shape (N, len(rows), k).

    The first ``cavity`` (>= 1) modes of M couple only to the last one or two
    (mechanical) ones, so A = -i w - M = [[D, X], [Y, E]] has a diagonal
    cavity block D.  Eliminating it leaves the mechanical Schur complement
    S = E - Y D^-1 X, the inverse dressed mechanical susceptibility, which
    is inverted in closed form, S^-1 = adj(S) / det S (1x1 or 2x2).  The
    kept rows are cavity rows r, whose row of A^-1 is
    -(X_r / D_r) S^-1 [-Y D^-1, 1] plus 1/D_r on column r.  It works in the
    precision of ``omegas``: a long-double grid gives long-double rows.

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
    # -X_r adj(S) [-Y, 1] diag(l) of every kept row r, linear in S: one column of G per
    # (row, mode).
    YI = np.concatenate([Y, eye], axis=1) * l
    G = (X[rows].T[:, None, :, None] * YI[None, :, None, :]).reshape(m * m, -1)
    if m == 1:
        det, num = S[:, 0], G
    else:
        det, num = S[:, 0] * S[:, 3] - S[:, 1] * S[:, 2], S @ (_ADJUGATE_2X2 @ G)
    if not det.all():
        raise SingularDrift(f"{label} drift singular on the frequency grid: "
                            "singular mechanical Schur complement")
    out = num.reshape(-1, len(rows), len(M)) * (d_inv[:, rows] / det[:, None])[:, :, None]
    for i, r in enumerate(rows):
        out[:, i, r] += l[r]
    # then every column by [1/D | 1], contiguous: times 1.0 is exact
    out *= np.concatenate([d_inv, np.ones((len(d), m), dtype=d.dtype)], axis=1)[:, None, :]
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
    """Generator rows sqrt(gamma) (a1, a2^dag) of the 3-mode RWA system, shape (N, 2, 3)."""
    return math.sqrt(derived.gamma) * _resolvent(*_rwa3_drift(derived), omegas, [0, 1], 2, "3-mode")


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


def _adiabatic_resolvent(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """(-i w - M)^-1 of the eliminated model (a1, a2^dag) at every w of ``omegas``, (N, 2, 2),
    in their precision: M = -[[gamma/2 + i g', i g], [-i g, gamma/2 - i g']], so with
    s = gamma/2 - i w it is [[s - i g', -i g], [i g, s + i g']] / Delta, Delta = s^2 +
    d (2g + d) formed from d (g'^2 - g^2 cancels most digits at strong drive).  Raises
    SingularDrift where Delta is exactly zero."""
    real = omegas.real.dtype.type
    g, d = real(derived.g), real(derived.d)
    s = real(derived.gamma) / 2 - 1j * omegas
    delta = s * s + d * (2 * g + d)
    if not delta.all():
        raise SingularDrift("adiabatic drift singular on the frequency grid: zero determinant")
    gp, off = 1j * (g + d), np.full_like(s, 1j * g)
    return np.stack([s - gp, -off, off, s + gp], axis=-1).reshape(-1, 2, 2) / delta[:, None, None]


def _adiabatic_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the eliminated two-mode model, (N, 2, 3)."""
    Ainv = _adiabatic_resolvent(derived, omegas)
    thermal = math.sqrt(derived.gamma * derived.gamma_m_tilde) * (Ainv[:, :, :1] - Ainv[:, :, 1:])
    return np.concatenate([derived.gamma * Ainv, thermal], axis=-1)


_GENERATORS = {
    "adiabatic_response": _adiabatic_generator,
    "rwa3": _rwa3_generator,
    "full6": _full6_generator,
}

# Models :func:`evaluate` accepts: the closed form and the exact response models.
MODELS = ("adiabatic",) + tuple(_GENERATORS)


def model_set(models) -> tuple[str, ...]:
    """The model-set rule: ``models``, an iterable of names (not one string), as a tuple
    of at least one name of :data:`MODELS`, each once; ValueError otherwise."""
    if isinstance(models, str):
        raise ValueError(f"models must be an iterable of names, got the string {models!r}")
    models = tuple(models)
    unknown = [m for m in models if m not in MODELS]
    if unknown or not models:
        raise ValueError(f"unknown model {unknown[0]!r}; expected one of {MODELS}" if unknown
                         else f"at least one model required, from {MODELS}")
    if len(set(models)) != len(models):
        raise ValueError(f"each model may be compared once; got {models}")
    return models


def _output_rows(derived: DerivedParams, omegas, model: str) -> np.ndarray:
    """An exact model's output rows (2N, 2, k) over the inputs of :data:`_COVERED`, in the
    precision of ``omegas``: (a1_out, a2_out^dag) at every sideband w of ``omegas``, then
    their partners (a1_out^dag, a2_out), the rows at -w conjugated (full6's permuted)."""
    omegas = np.asarray(omegas)
    rows = _GENERATORS[model](derived, np.concatenate([omegas, -omegas]))
    six = rows.shape[-1] == 6
    rows[:, 0, 0] -= 1.0   # a_out = -a_in + sqrt(gamma) a
    rows[:, 1, 3 if six else 1] -= 1.0
    rows[len(omegas):] = np.conj(rows[len(omegas):])[..., _MIRROR_PERM if six else slice(None)]
    return rows


def _one_point(derived: DerivedParams, omega: float, model: str) -> LinearResponse:
    """The response of ``model`` at one sideband, its rows solved and held in long double;
    ValueError, before anything is solved, for an ``omega`` :func:`one_d_grid` rejects."""
    one_d_grid([omega])
    return LinearResponse(omega, _output_rows(derived, np.array([omega], dtype=np.longdouble),
                                              model))


def rwa3_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 3-mode rotating-wave system at sideband omega."""
    return _one_point(derived, omega, "rwa3")


def full6_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 6-operator pre-RWA model at sideband omega."""
    return _one_point(derived, omega, "full6")


def adiabatic_response(derived: DerivedParams, omega: float) -> LinearResponse:
    """The adiabatic output model expressed as a LinearResponse (for cross-checks)."""
    return _one_point(derived, omega, "adiabatic_response")


def _row_gram(rows: np.ndarray, w: np.ndarray):
    """Powers sum_l w_l |P_jl|^2, (..., 2), and cross products sum_l w_l P_0l conj(P_1l),
    (...), of row pairs (P_0, P_1) ``rows`` (..., 2, k), ``w`` their k inputs' weights.

    For rows T_i and T_k of one pair, sum_l w_l T_il conj(T_kl) is the density
    <o_i(w) o_j(-w)>, j the partner of k, of inputs that pair each input with its
    partner alone, with weight w_l; (k, i) gives its conjugate.  Two outputs of one
    pair cross two physical frequencies (a vanishing delta function): their
    product is zero for the 3-mode and adiabatic models, spurious for full6.
    """
    conj = np.conj(rows)
    return (np.einsum("...l,...l,l->...", rows, conj, w).real,
            np.einsum("...l,...l,l->...", rows[..., 0, :], conj[..., 1, :], w))


def _covariance_blocks(rows: np.ndarray, n_m: float):
    """Blocks (n1, n2, a, b), each (N,), of the symmetrized quadrature covariances of
    output rows (2N, 2, k) (:func:`_output_rows`): diagonal blocks n1 I and n2 I,
    cross block [[a, b], [b, -a]].

    The two ordered densities <o_i(w) o_j(-w)> and <o_j(-w) o_i(w)> enter the covariance
    as their mean, the row products (:func:`_row_gram`) with the columns' symmetrized
    input weights, 1/2 (optical) and n_m + 1/2 (mechanical), equal for partners.  The
    quadrature map Q = diag(q, q), q = [[1, 1], [-i, i]], turns them into V: n1 and n2
    are the powers of a1_out and a2_out^dag plus their partners', and a + i b is the
    cross product at w plus the conjugate of the partners'.

    Raises ParameterError, a ValueError, if a product is not finite: broken rows, or
    an operating point whose covariance overflows a double.
    """
    weights = np.repeat([0.5, 0.5, n_m + 0.5], 2)[_COVERED[rows.shape[-1]][0]]
    power, cross = _row_gram(rows, weights)
    if not (np.isfinite(power).all() and np.isfinite(cross).all()):
        raise ParameterError("cross-spectrum not finite")
    half = len(rows) // 2
    n1, n2 = (power[:half] + power[half:]).T
    c = cross[:half] + np.conj(cross[half:])
    return n1, n2, c.real, c.imag


def assemble_covariance(resp: LinearResponse, n_m: float) -> Covariance4:
    """Symmetrized quadrature covariance of the outputs for given bath occupancy.

    Optical inputs are vacuum; the mechanical input carries ``n_m``; all
    anomalous input moments vanish.  The Hermitian cross-spectrum is reduced
    to its real, frequency-even part, laid out from its blocks
    (:func:`_covariance_blocks`).
    """
    n1, n2, a, b = (v[0] for v in _covariance_blocks(resp.rows, n_m))
    return Covariance4(entries=np.array([[n1, 0.0, a, b], [0.0, n1, b, -a],
                                         [a, b, n2, 0.0], [b, -a, 0.0, n2]]), omega=resp.omega)


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
    The closed form takes a sequence of operating points too
    (:func:`~optoepr.spectrum.closed_form_grid`) and a grid of any shape, the
    exact models one operating point and a finite 1-D grid.  Raises ValueError
    for an unknown model (:func:`model_set`), or an exact model's input that breaks
    that rule (:func:`~optoepr.spectrum.one_d_grid` for the grid), before anything
    is solved, and SingularDrift if a drift is singular anywhere on the grid.
    """
    if model == "adiabatic":
        return closed_form_grid(derived, omegas)
    model_set((model,))
    if not isinstance(derived, DerivedParams):
        raise ValueError(f"model {model!r} takes one operating point, "
                         f"got {type(derived).__name__}")
    n1, n2, a, b = _covariance_blocks(_output_rows(derived, one_d_grid(omegas), model),
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


def intracavity_occupation(derived: DerivedParams) -> float:
    """Stationary <a1^dag a1> of the 3-mode model, from its output block n1.

    With vacuum optical inputs, a1_out = -a1_in + sqrt(gamma) a1 makes n1
    (:func:`_covariance_blocks`) 1 + gamma [rho(w) + rho(-w)], rho the intracavity
    density (Gardiner and Collett, PRA 31, 3761 (1985)): the integral of rho over
    [-delta, delta] is that of (n1 - 1) / gamma over [0, delta].  It is the nested
    trapezoid rule (Numerical Recipes, 3rd ed., section 4.2, ``trapzd``): level 0 takes
    the 1025 points k h, h = delta / 1024, and each doubling halves h and evaluates
    only its new, odd-index points, T_2n = T_n / 2 + h sum f(new points), until T
    changes by less than ``_OCCUPATION_RTOL`` (0.5%) of itself.  The points k h are
    ``linspace(0, delta, npts)``'s to the bit (npts - 1 is a power of two).  Each
    point's density (n1 - 1) / gamma is formed before it is summed (a sum of n1 - 1
    overflows at 1e305 K, where the occupation is finite), and each level's densities
    are summed by ``math.fsum``, correctly rounded, so that evaluating them
    ``_OCCUPATION_BLOCK`` points at a time does not move a bit.  No grid-sized array
    is held.  A cavity the drift leaves uncoupled from the mechanics holds no
    photons: 0.0, not n1 - 1's rounding.

    Raises
    ------
    NonConvergent
        If [-delta, delta] at the grid's spacing would exceed
        ``_OCCUPATION_MAX_POINTS`` (2**20) points.
    ParameterError
        If an output block overflows a double (:func:`_covariance_blocks`), or a
        level's value does.
    """
    if _rwa3_drift(derived)[0][0, 2] == 0.0:
        return 0.0
    npts = 1025   # points k h of [0, delta]; [-delta, delta] holds 2 npts - 1
    ks, value = range(npts), None
    while 2 * npts - 1 <= _OCCUPATION_MAX_POINTS:
        h = derived.delta / (npts - 1)
        new = h * math.fsum(_occupation_density(derived, h, ks))
        previous, value = value, new if value is None else value / 2.0 + new
        if not math.isfinite(value):   # inf would pass the test below: |inf - T| <= inf
            raise ParameterError(f"occupation integral overflows a double at "
                                 f"{2 * npts - 1} points")
        if previous is not None and abs(value - previous) <= _OCCUPATION_RTOL * abs(value):
            return value / (2.0 * math.pi)
        npts = 2 * npts - 1
        ks = range(1, npts, 2)   # the next level's new points
    raise NonConvergent(
        f"occupation integral not converged to {_OCCUPATION_RTOL:g} within "
        f"{_OCCUPATION_MAX_POINTS} points"
    )


def _occupation_density(derived: DerivedParams, h: float, ks: range):
    """The trapezoid's terms (n1 - 1) / gamma at the points k h, k of ``ks``, as floats,
    weighted 1/2 at the ends k = 0 and k = ``ks.stop`` - 1; ``_OCCUPATION_BLOCK`` points
    solved at a time."""
    for start in range(0, len(ks), _OCCUPATION_BLOCK):
        block = ks[start:start + _OCCUPATION_BLOCK]
        k = np.arange(block.start, block.stop, block.step, dtype=float)
        n1 = _covariance_blocks(_output_rows(derived, k * h, "rwa3"), derived.n_m)[0]
        density = (n1 - 1.0) / derived.gamma
        density[(k == 0.0) | (k == ks.stop - 1)] /= 2.0
        yield from density.tolist()


class ModelPoint(NamedTuple):
    """One model at one frequency: its EPR variance x = n - k_x and None, or, if the
    point failed, None and the failure's name."""

    epr_variance: float | None
    error: str | None


class ComparisonRow(NamedTuple):
    """Every model's :class:`ModelPoint` at one frequency."""

    omega: float
    values: dict[str, ModelPoint]


@dataclass(frozen=True)
class ComparisonReport:
    """What :func:`compare_models` found over one grid, from its first model, the baseline."""

    rows: list[ComparisonRow]
    max_deviation: dict[str, float]
    baseline: str
    evaluations: dict[str, Evaluation]
    deviations: dict[str, np.ndarray]


def _records(cls, fields) -> list:
    """``cls`` records, a NamedTuple's, from an iterable of complete field tuples.

    ``tuple.__new__`` builds each one in C, with no Python call per record.
    """
    return list(map(partial(tuple.__new__, cls), fields))


def compare_models(derived: DerivedParams, omega_grid,
                   models=("adiabatic", "rwa3", "full6")) -> ComparisonReport:
    """Cross-validate the closed-form model against the exact solvers.

    Each model of ``models`` (:func:`model_set`) is evaluated once over the 1-D grid
    (:func:`evaluate`) and kept in ``evaluations``; each after the first (the
    ``baseline``) deviates per point by |x - x_base| / |x_base| (NaN where either
    point failed) and at worst by ``max_deviation`` (failed points left out; 0.0 when
    no point compares).  ``rows`` holds every model's x per grid point as records.

    Raises ValueError, before any model is evaluated, for a model set or a grid
    (:func:`~optoepr.spectrum.one_d_grid`) that its rule rejects.
    """
    models = model_set(models)
    omegas = one_d_grid(omega_grid)
    evals = {m: evaluate(derived, omegas, m) for m in models}
    base = evals[models[0]].x
    devs = {m: np.abs(evals[m].x - base) / np.abs(base) for m in models[1:]}
    worst = {m: float(np.max(dev, initial=0.0, where=~np.isnan(dev))) for m, dev in devs.items()}
    columns = [_records(ModelPoint, zip(np.where(ev.failed, None, ev.x).tolist(),
                                        np.where(ev.failed, ev.error, None).tolist()))
               for ev in evals.values()]
    values = map(dict, map(zip, repeat(models), zip(*columns)))
    rows = _records(ComparisonRow, zip(omegas.tolist(), values))
    return ComparisonReport(rows=rows, max_deviation=worst, baseline=models[0],
                            evaluations=evals, deviations=devs)
