"""Exact frequency-domain Langevin solvers and covariance assembly.

Three linear response models share one representation here:

* ``rwa3``  - the 3-mode rotating-wave system {a1, a2^dag, a_m};
* ``full6`` - the 6-operator pre-RWA system with counter-rotating
  couplings retained (solved at its physical sidebands +-(omega_m + delta)
  and mapped back to the rotating-frame sideband frequency);
* ``adiabatic_response`` - the eliminated two-mode model, reconstructed as a
  response map so the closed-form covariance can be cross-checked.

Each model has one generator that solves its drift over a whole frequency
grid in one stacked ``np.linalg.solve``, and the rest of the chain is stacked
too.  :func:`evaluate` runs it for one model on one grid (the closed form
included); the single-frequency functions are its one-point case.

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
stationary fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, NotSymmetricState, SingularDrift
from .spectrum import Evaluation, StandardForm, closed_form_grid, metric_columns
from .steady_state import DerivedParams

_MIRROR_PERM = np.array([1, 0, 3, 2, 5, 4])
_A_ROWS = [0, 3]   # co-rotating outputs (a1_out, a2_out^dag)
_B_ROWS = [1, 2]   # their mirrored partners

# Largest deviation of the diagonal blocks from n*I, relative to n, for which
# the symmetric-state metrics are quoted.
_SYMMETRY_RTOL = 0.05

# Quadrature map (X1, P1, X2, P2) <- (a1, a1^dag, a2, a2^dag) at fixed sideband.
_QUAD = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [-1.0j, 1.0j, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, -1.0j, 1.0j],
])

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


def _resolvent(M: np.ndarray, L: np.ndarray, omegas: np.ndarray, label: str) -> np.ndarray:
    """(-i w - M)^-1 L for every w of ``omegas``, shape (N, k, k); SingularDrift if singular."""
    A = -1j * omegas[:, None, None] * np.eye(len(M)) - M
    try:
        # a complex L broadcasts without a full-size cast copy
        return np.linalg.solve(A, np.broadcast_to(L.astype(complex), A.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularDrift(f"{label} drift singular on the frequency grid") from exc


def _rwa3_drift(derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Drift and input coupling of the 3-mode RWA system {a1, a2^dag, a_m}."""
    gamma, gamma_m = derived.gamma, derived.gamma_m
    d = derived.d
    kappa = derived.eta * derived.omega_m * derived.alpha
    M = np.array([
        [-1j * d - gamma / 2.0, 0.0, -1j * kappa],
        [0.0, 1j * d - gamma / 2.0, 1j * kappa],
        [-1j * kappa, -1j * kappa, 1j * derived.delta - gamma_m / 2.0],
    ], dtype=complex)
    L = np.diag([math.sqrt(gamma), math.sqrt(gamma), math.sqrt(gamma_m)])
    return M, L


def _rwa3_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the 3-mode RWA system, shape (N, 2, 6)."""
    S = _resolvent(*_rwa3_drift(derived), omegas, "3-mode")
    gen = np.zeros((len(omegas), 2, 6), dtype=complex)
    gen[:, :, [0, 3, 4]] = math.sqrt(derived.gamma) * S[:, :2, :]   # a1_in, a2_in^dag, a_m_in
    return gen


def _full6_drift(derived: DerivedParams) -> np.ndarray:
    """Drift of (a1, a1^dag, a2, a2^dag, b, b^dag); each daggered row mirrors its partner's."""
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
    return M


def _full6_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the 6-operator model, shape (N, 2, 6).

    The pre-RWA frame carries the sidebands at +-(omega_m + delta); the
    co-rotating pair (a1, a2^dag) at rotating-frame sideband w lives at the
    pre-RWA frequency w + omega_m + delta.
    """
    gamma, gamma_m = derived.gamma, derived.gamma_m
    L = np.diag([math.sqrt(gamma)] * 4 + [math.sqrt(gamma_m)] * 2)
    S = _resolvent(_full6_drift(derived), L, omegas + derived.omega_m + derived.delta, "6-mode")
    return math.sqrt(gamma) * S[:, [0, 3], :]


def _adiabatic_generator(derived: DerivedParams, omegas: np.ndarray) -> np.ndarray:
    """Generator rows sqrt(gamma) (a1, a2^dag) of the eliminated two-mode model, shape (N, 2, 6)."""
    gamma, g, gp = derived.gamma, derived.g, derived.g_prime
    M = -np.array([[gamma / 2.0 + 1j * gp, 1j * g], [-1j * g, gamma / 2.0 - 1j * gp]])
    Ainv = _resolvent(M, np.eye(2), omegas, "adiabatic")
    gen = np.zeros((len(omegas), 2, 6), dtype=complex)
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
    """4x6 response maps of an exact model at every sideband of ``omegas``, shape (N, 4, 6)."""
    omegas = np.asarray(omegas, dtype=float)
    gen = _GENERATORS[model](derived, np.concatenate([omegas, -omegas]))
    gen[:, 0, 0] -= 1.0   # a_out = -a_in + sqrt(gamma) a
    gen[:, 1, 3] -= 1.0
    plus, minus = gen[:len(omegas)], np.conj(gen[len(omegas):])[..., _MIRROR_PERM]
    return np.stack([plus[:, 0], minus[:, 0], minus[:, 1], plus[:, 1]], axis=1)


def rwa3_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 3-mode rotating-wave system at sideband omega."""
    return LinearResponse(omega, _response_maps(derived, [omega], "rwa3")[0])


def full6_solve(derived: DerivedParams, omega: float) -> LinearResponse:
    """Exact output response of the 6-operator pre-RWA model at sideband omega."""
    return LinearResponse(omega, _response_maps(derived, [omega], "full6")[0])


def adiabatic_response(derived: DerivedParams, omega: float) -> LinearResponse:
    """The adiabatic output model expressed as a LinearResponse (for cross-checks)."""
    return LinearResponse(omega, _response_maps(derived, [omega], "adiabatic_response")[0])


def _input_moments(n_m: float) -> np.ndarray:
    """Second moments <in_a(w) in_b(-w)> of the six inputs (vacuum optics, thermal mechanics)."""
    C = np.zeros((6, 6))
    C[0, 1] = 1.0
    C[2, 3] = 1.0
    C[4, 5] = n_m + 1.0
    C[5, 4] = n_m
    return C


def _masked_density(T_plus: np.ndarray, T_minus: np.ndarray, C: np.ndarray) -> np.ndarray:
    """<o_i(w) o_j(-w)> with co-rotating/mirrored rows paired against each other only.

    Rows of a response live at the model's physical frequency for their
    block; pairing a block with itself would cross distinct physical
    frequencies (a vanishing delta function), so only A-B products survive.
    For the 3-mode and adiabatic models the discarded products are
    identically zero; for the 6-operator model they would be spurious.
    """
    def block(T, rows):
        out = np.zeros_like(T)
        out[..., rows, :] = T[..., rows, :]
        return out

    return (block(T_plus, _A_ROWS) @ C @ _swap(block(T_minus, _B_ROWS))
            + block(T_plus, _B_ROWS) @ C @ _swap(block(T_minus, _A_ROWS)))


def _covariances(T_plus: np.ndarray, n_m: float) -> np.ndarray:
    """Symmetrized quadrature covariances (..., 4, 4) of response maps (..., 4, 6).

    Raises ValueError if any cross-spectrum is not Hermitian (a broken map).
    """
    C = _input_moments(n_m)
    T_minus = _mirror(T_plus)
    D_plus = _masked_density(T_plus, T_minus, C)
    D_minus = _masked_density(T_minus, T_plus, C)
    S = 0.5 * (_QUAD @ D_plus @ _QUAD.T + _swap(_QUAD @ D_minus @ _QUAD.T))
    herm_defect = np.max(np.abs(S - np.conj(_swap(S))), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(S), axis=(-2, -1)))
    if np.any(herm_defect > 1e-7 * scale):
        raise ValueError(f"cross-spectrum not Hermitian: defect {np.max(herm_defect):.3e}")
    return 0.5 * (S.real + _swap(S.real))


def assemble_covariance(resp: LinearResponse, n_m: float) -> Covariance4:
    """Symmetrized quadrature covariance of the outputs for given bath occupancy.

    Optical inputs are vacuum; the mechanical input carries ``n_m``; all
    anomalous input moments vanish.  The Hermitian cross-spectrum is reduced
    to its real, frequency-even part.
    """
    return Covariance4(entries=_covariances(resp.map_rows, n_m), omega=resp.omega)


def _reduce(V: np.ndarray):
    """n, k_x, k_p and the diagonal-block residual of covariances (..., 4, 4).

    The cross block is diagonalized singular-value style with the sign of
    its determinant carried into k_p.
    """
    n = np.trace(V, axis1=-2, axis2=-1) / 4.0
    nI = n[..., None, None] * np.eye(2)
    residual = np.maximum(np.max(np.abs(V[..., 0:2, 0:2] - nI), axis=(-2, -1)),
                          np.max(np.abs(V[..., 2:4, 2:4] - nI), axis=(-2, -1)))
    cross = V[..., 0:2, 2:4]
    svals = np.linalg.svd(cross, compute_uv=False)
    k_p = svals[..., 1] * np.sign(np.linalg.det(cross))
    return n, svals[..., 0], k_p, residual


def standard_form_reduce(V: Covariance4, residual_tol: float = _SYMMETRY_RTOL) -> StandardForm:
    """Reduce a covariance to standard form by two local rotations.

    The diagonal blocks must already be close to n*I (local rotations cannot
    fix them); their worst deviation is reported as ``residual``.  The cross
    block is diagonalized singular-value style with the sign of its
    determinant carried into k_p.

    Raises
    ------
    NotSymmetricState
        If the residual exceeds ``residual_tol * n``; symmetric-state metrics
        must not be quoted for such a state.
    """
    n, k_x, k_p, residual = (float(v) for v in _reduce(V.entries))
    if residual > residual_tol * abs(n):
        raise NotSymmetricState(
            f"diagonal blocks deviate from n*I by {residual:.3e} (n = {n:.3e}); "
            "state is not symmetric enough for the standard form"
        )
    return StandardForm(n=n, k_x=k_x, k_p=k_p, residual=residual)


def evaluate(derived: DerivedParams, omegas, model: str) -> Evaluation:
    """n, k_x and n - k_x of one model over a frequency grid, in one batched pass.

    ``model`` is one of :data:`MODELS` (``adiabatic`` is the closed form).
    Failed points are flagged by name: ``NotSymmetricState`` where an exact
    model's diagonal blocks deviate from n*I by more than 5% of n,
    ``DomainError`` where n - k_x <= 0.  Raises ValueError for an unknown
    model and SingularDrift if a drift is singular anywhere on the grid.
    """
    if model == "adiabatic":
        return closed_form_grid(derived, omegas)
    if model not in _GENERATORS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    V = _covariances(_response_maps(derived, omegas, model), derived.n_m)
    n, k_x, _, residual = _reduce(V)
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
    S = _resolvent(*_rwa3_drift(derived), omegas, "3-mode")
    # Occupation picks up the (n+1)-ordered moments of the daggered inputs:
    # vacuum through the a2_in^dag column, thermal through the mechanical one.
    return np.abs(S[:, 0, 1]) ** 2 + derived.n_m * np.abs(S[:, 0, 2]) ** 2


def intracavity_occupation(derived: DerivedParams, rel_tol: float = 5e-3,
                           max_points: int = 2**20) -> float:
    """Stationary <a1^dag a1> from the 3-mode interior solution.

    Integrates the intracavity spectral density over [-delta, delta],
    doubling the grid until the trapezoid integral changes by less than
    ``rel_tol``.

    Raises
    ------
    NonConvergent
        If the grid would exceed ``max_points``.
    """
    npts = 2049
    previous = None
    while npts <= max_points:
        omegas = np.linspace(-derived.delta, derived.delta, npts)
        density = _rwa3_interior_density(derived, omegas)
        value = float(np.trapezoid(density, omegas)) / (2.0 * math.pi)
        if previous is not None:
            if value == 0.0 and previous == 0.0:
                return 0.0
            if abs(value - previous) <= rel_tol * abs(value):
                return value
        previous = value
        npts = 2 * (npts - 1) + 1
    raise NonConvergent(
        f"occupation integral not converged to {rel_tol:g} within {max_points} points"
    )


@dataclass(frozen=True)
class ModelPoint:
    epr_variance: float | None
    S_db: float | None
    eof: float | None
    error: str | None = None


@dataclass(frozen=True)
class ComparisonRow:
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


def compare_models(derived: DerivedParams, omega_grid,
                   models: tuple[str, ...] = ("adiabatic", "rwa3", "full6")) -> ComparisonReport:
    """Cross-validate the closed-form model against the exact solvers.

    The first model in ``models`` is the deviation baseline.  ``adiabatic``
    is the closed form from :mod:`optoepr.spectrum`; ``adiabatic_response`` (the eliminated
    model assembled exactly) is also accepted.  Per-point failures are
    recorded in-row and excluded from the deviation summary.
    """
    if not models:
        raise ValueError("at least one model required")
    omegas = np.asarray(omega_grid, dtype=float)
    evals = {m: evaluate(derived, omegas, m) for m in models}
    devs, worst = model_deviations(evals, models)
    points = {}
    for m, ev in evals.items():
        cols = metric_columns(ev.x)
        points[m] = [ModelPoint(None, None, None, error=err) if err else ModelPoint(x, s_db, e)
                     for x, s_db, e, err in zip(cols["epr_variance"], cols["S_db"], cols["eof"],
                                                ev.error)]
    dev_lists = {m: dev.tolist() for m, dev in devs.items()}
    rows = [ComparisonRow(omega=omega, values={m: points[m][i] for m in models},
                          deviations={m: d[i] for m, d in dev_lists.items()
                                      if not math.isnan(d[i])})
            for i, omega in enumerate(omegas.tolist())]
    return ComparisonReport(rows=rows, max_deviation=worst, baseline=models[0])
