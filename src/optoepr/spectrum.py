"""Closed-form output model: transfer functions, standard-form covariance, metrics.

After adiabatic elimination of the mechanical mode, the two-mode output
state has the closed form

    Delta(w) = (-i w + gamma/2)^2 + g'^2 - g^2
    G(w) = (w^2 + gamma^2/4 + g^2 - g'^2 - i g' gamma) / Delta(w)
    H(w) = i g gamma / Delta(w)
    I(w) = (-i w + gamma/2 - i g' + i g) sqrt(gamma gamma_m~) / Delta(w)

with the spectral covariance in standard form

    n   = [(w^2 + gamma^2/4 + g^2 - g'^2)^2 + (g'^2 + g^2) gamma^2
           + ((w + g' - g)^2 + gamma^2/4) gamma gamma_m~ (2 n_m + 1)] / |Delta|^2
    V14 = -2 g gamma (w^2 + gamma^2/4 + g^2 - g'^2) / |Delta|^2
    V24 = [2 g' g gamma^2 + ((w + g' - g)^2 + gamma^2/4) gamma gamma_m~ (2 n_m + 1)] / |Delta|^2
    k_x = sqrt(V14^2 + V24^2)

The exact frequency-domain solvers in :mod:`optoepr.langevin`
cross-validate this model; see ``compare_models`` for where they agree and
disagree (the thermal factors above cancel in n - k_x, which the exact
response covariance does not reproduce).

Quadrature normalization: X = a + a^dag, P = (a - a^dag)/i, vacuum variance 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateResponse, DomainError
from .steady_state import ALPHA_MATCH_RTOL, DerivedParams


@dataclass(frozen=True)
class TransferPoint:
    """Complex transfer functions of the output model at one sideband frequency."""

    omega: float
    G: complex
    H: complex
    I: complex
    Delta_of_omega: complex


@dataclass(frozen=True)
class StandardForm:
    """Two-mode covariance in standard form: diagonal blocks n*I, cross block diag(k_x, k_p)."""

    n: float
    k_x: float
    k_p: float
    residual: float

    def epr_combination_variances(self) -> tuple[float, float]:
        """Direct quadrature-combination variances (squeezed, anti-squeezed).

        <d^2(X1 -/+ X2)> and <d^2(P1 +/- P2)> evaluate to 2(n - k_x) and
        2(n + k_x) in this normalization; recorded for transparency next to
        the operative EPR variance n - k_x.
        """
        return 2.0 * (self.n - self.k_x), 2.0 * (self.n + self.k_x)


@dataclass(frozen=True)
class EntMetrics:
    """Entanglement metrics of a symmetric two-mode Gaussian state."""

    epr_variance: float
    S_db: float
    eof: float
    entangled: bool
    log_negativity: float


@dataclass(frozen=True)
class SpectrumPoint:
    omega: float
    standard_form: StandardForm | None
    metrics: EntMetrics | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Evaluation:
    """One output model over a frequency grid: n, k_x and x = n - k_x, NaN where a
    point failed, per point whether it ``failed`` and the failure's name in
    ``error`` ("" if none)."""

    n: np.ndarray
    k_x: np.ndarray
    x: np.ndarray
    error: np.ndarray
    failed: np.ndarray

    @classmethod
    def from_standard_form(cls, n: np.ndarray, k_x: np.ndarray,
                           failed: np.ndarray, name: str) -> "Evaluation":
        """Name the ``failed`` points ``name``, form x = n - k_x, flag the other points
        with x <= 0 as ``DomainError`` and blank every failed point."""
        x = n - k_x
        domain = (x <= 0) & ~failed
        error = np.empty(x.shape, dtype=object)
        error.fill("")   # cheaper than np.full for an object array
        error[failed] = name
        error[domain] = "DomainError"
        failed = failed | domain
        if failed.any():
            n, k_x, x = (np.where(failed, np.nan, a) for a in (n, k_x, x))
        return cls(n=n, k_x=k_x, x=x, error=error, failed=failed)


@dataclass(frozen=True)
class OptimumD:
    """Optimum offset d and the metrics it yields at the spectrum center."""

    d_o: float
    S_o_db: float
    eof_o: float
    unbounded: bool


def _require_symmetric(derived: DerivedParams):
    if derived.alpha_mismatch() > ALPHA_MATCH_RTOL:
        raise DomainError(
            f"output model requires |alpha_1| = |alpha_2|; relative mismatch "
            f"{derived.alpha_mismatch():.3e} exceeds {ALPHA_MATCH_RTOL:g}"
        )


def transfer_functions(derived: DerivedParams, omega: float) -> TransferPoint:
    """Evaluate G, H, I and Delta at one sideband frequency.

    Raises
    ------
    DegenerateResponse
        If |Delta(omega)| is vanishingly small relative to gamma^2 + omega^2,
        signalling a parametric instability outside the model's regime.
    """
    _require_symmetric(derived)
    g, gp, gamma = derived.g, derived.g_prime, derived.gamma
    Dw, degenerate = _denominator(derived, omega)
    if degenerate:
        raise DegenerateResponse(f"response denominator vanished at omega = {omega:.6e}")
    u_minus_v = omega * omega + gamma * gamma / 4.0 + g * g - gp * gp
    s = math.sqrt(derived.gamma * derived.gamma_m_tilde)
    return TransferPoint(
        omega=omega,
        G=(u_minus_v - 1j * gp * gamma) / Dw,
        H=1j * g * gamma / Dw,
        I=(-1j * omega + gamma / 2.0 - 1j * (gp - g)) * s / Dw,
        Delta_of_omega=Dw,
    )


def _denominator(derived: DerivedParams, omega):
    """Delta(omega) and whether it has vanished (numpy-polymorphic in omega)."""
    g, gp, gamma = derived.g, derived.g_prime, derived.gamma
    Dw = (-1j * omega + gamma / 2.0) ** 2 + gp * gp - g * g
    return Dw, abs(Dw) < 1e-30 * (gamma * gamma + omega * omega)


# The DerivedParams fields that _covariance_entries reads.
_CLOSED_FORM_FIELDS = ("g", "g_prime", "gamma", "gamma_m_tilde", "n_m")


def _covariance_entries(derived: DerivedParams, omega):
    """n, V14, V24 of the closed-form standard form and |Delta|^2.

    numpy-polymorphic in omega and in the fields :data:`_CLOSED_FORM_FIELDS`
    of ``derived``: (K, 1) columns of them give (K, N) arrays on an N-point grid.
    g'^2, g^2, gamma^2/4 and the thermal mechanical term that n and V24 share
    are each formed once, every sum and product in the association order of
    the formulas in the module docstring.
    """
    g, gp, gamma = derived.g, derived.g_prime, derived.gamma
    therm = derived.gamma * derived.gamma_m_tilde * (2.0 * derived.n_m + 1.0)
    g2, gp2, quarter = g * g, gp * gp, gamma * gamma / 4.0
    w2 = omega * omega
    u_minus_v = w2 + quarter + g2 - gp2
    abs_D2 = (quarter - w2 + gp2 - g2) ** 2 + w2 * gamma * gamma
    mech = ((omega + gp - g) ** 2 + quarter) * therm
    n = (u_minus_v**2 + (gp2 + g2) * gamma * gamma + mech) / abs_D2
    v14 = -2.0 * g * gamma * u_minus_v / abs_D2
    v24 = (2.0 * gp * g * gamma * gamma + mech) / abs_D2
    return n, v14, v24, abs_D2


def closed_form_covariance(tp: TransferPoint, n_m: float,
                           derived: DerivedParams) -> tuple[np.ndarray, StandardForm]:
    """Assemble the 4x4 spectral covariance (standard form) at tp.omega.

    Returns the matrix over (X1, P1, X2, P2) together with its
    :class:`StandardForm` summary (k_p = -k_x exactly for this closed form).
    ``n_m`` overrides the occupancy stored in ``derived``, which lets callers
    probe thermal sensitivity without re-solving the steady state.
    """
    scaled = derived if n_m == derived.n_m else replace(derived, n_m=n_m)
    n, v14, v24, _ = _covariance_entries(scaled, tp.omega)
    k_x = float(np.hypot(v14, v24))
    V = np.array([
        [n, 0.0, k_x, 0.0],
        [0.0, n, 0.0, -k_x],
        [k_x, 0.0, n, 0.0],
        [0.0, -k_x, 0.0, n],
    ])
    return V, StandardForm(n=float(n), k_x=k_x, k_p=-k_x, residual=0.0)


def eof(x: float) -> float:
    """Entanglement of formation [ebits] of a symmetric state with EPR variance x.

    The one-point case of :func:`eof_array`.
    """
    return float(eof_array(np.array([x], dtype=float))[0])


def squeezing_db(x: float) -> float:
    """Two-mode squeezing S = -10 log10(x) [dB]; negative values mean anti-squeezing."""
    if x <= 0:
        raise DomainError(f"EPR variance must be > 0, got {x:g}")
    return -10.0 * math.log10(x)


def _log_negativity(x: float) -> float:
    """Logarithmic negativity max(0, -log2 x) of a symmetric state; NaN stays NaN."""
    return 0.0 if x >= 1.0 else -math.log2(x)


def ent_metrics(sf: StandardForm) -> EntMetrics:
    """All entanglement metrics of a standard-form covariance."""
    x = sf.n - sf.k_x
    if x <= 0:
        raise DomainError(f"unphysical standard form: n - k_x = {x:g} <= 0")
    return EntMetrics(
        epr_variance=x,
        S_db=squeezing_db(x),
        eof=eof(x),
        entangled=x < 1.0,
        log_negativity=_log_negativity(x),
    )


def epr_columns(x: np.ndarray) -> dict[str, list[float]]:
    """epr_variance, S_db and eof of each EPR variance in ``x``.

    NaN entries (failed points) stay NaN.  S_db takes its logarithms from
    :mod:`math`, as :func:`squeezing_db` does, to the last bit (numpy's ``log10``
    is not correctly rounded).  Raises DomainError at the first x <= 0, as
    :func:`squeezing_db` would.
    """
    x = np.asarray(x, dtype=float)
    eofs = eof_array(x).tolist()   # checks x <= 0 before math.log10 could see it
    xs = x.tolist()
    return {"epr_variance": xs, "S_db": [-10.0 * v for v in map(math.log10, xs)], "eof": eofs}


def metric_columns(x: np.ndarray) -> dict[str, list[float]]:
    """:func:`epr_columns` and the log_negativity of each EPR variance in ``x``.

    log_negativity takes its logarithms from :mod:`math`, as :func:`_log_negativity`
    does, to the last bit (numpy's ``log2`` is not correctly rounded).
    """
    cols = epr_columns(x)
    xs = cols["epr_variance"]
    cols["log_negativity"] = [0.0 if v >= 1.0 else -lg for v, lg in zip(xs, map(math.log2, xs))]
    return cols


def optimum_d(derived: DerivedParams) -> OptimumD:
    """Closed-form optimum of the offset d and the center-frequency metrics there.

    d_o = sqrt(g^2 + gamma^2/4) - g, at which the EPR variance at omega = 0
    is 4 (d_o/gamma)^2, so S_o = -10 log10(4 d_o^2/gamma^2).  gamma -> 0
    drives d_o -> 0 and the squeezing unbounded; reported via the flag.
    """
    g, gamma = derived.g, derived.gamma
    if g < 0:
        raise ValueError("g must be >= 0")
    d_o = math.sqrt(g * g + gamma * gamma / 4.0) - g
    x = 4.0 * (d_o / gamma) ** 2 if gamma > 0 else 0.0
    if x <= 0:
        return OptimumD(d_o=d_o, S_o_db=math.inf, eof_o=math.inf, unbounded=True)
    return OptimumD(d_o=d_o, S_o_db=squeezing_db(x), eof_o=eof(x), unbounded=False)


def _closed_form(derived: DerivedParams | Sequence[DerivedParams], omegas):
    """n, k_x and x = n - k_x of the closed form, nothing blanked, with the failure causes:
    ``degenerate`` points, where the response denominator vanishes (see
    :func:`transfer_functions`), and ``mismatch``, true for a row whose amplitudes differ
    (a scalar for one row, else a (K, 1) column).  Shapes as in :func:`closed_form_grid`.
    """
    omegas = np.asarray(omegas, dtype=float)
    rows = [derived] if isinstance(derived, DerivedParams) else list(derived)
    mismatch = [d.alpha_mismatch() > ALPHA_MATCH_RTOL for d in rows]
    gamma2 = [d.gamma**2 for d in rows]   # Python's float pow, not numpy's square
    if len(rows) != 1:
        params = SimpleNamespace(**{name: np.array([getattr(d, name) for d in rows])[:, None]
                                    for name in _CLOSED_FORM_FIELDS})
        mismatch, gamma2 = (np.array(v)[:, None] for v in (mismatch, gamma2))
    else:   # one row's scalars broadcast as its (1, 1) columns would, but cheaper
        params, mismatch, gamma2 = rows[0], mismatch[0], gamma2[0]
        if not isinstance(derived, DerivedParams):
            omegas = omegas[None, :]
    n, k_x, x, abs_D2 = _standard_form(params, omegas)
    return n, k_x, x, degenerate_mask(abs_D2, gamma2, omegas), mismatch


def _standard_form(params, omegas):
    """n, k_x, x = n - k_x and |Delta|^2 of the closed form of ``params``
    (see :func:`_covariance_entries`)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n, v14, v24, abs_D2 = _covariance_entries(params, omegas)
        k_x = np.hypot(v14, v24)
        return n, k_x, n - k_x, abs_D2


def degenerate_mask(abs_D2, gamma2, omegas):
    """Where the response denominator has vanished, |Delta| < 1e-30 (gamma^2 + omega^2)
    as :func:`transfer_functions` tests it, from |Delta|^2 and gamma^2 = ``gamma2``."""
    return abs_D2 < (1e-30 * (gamma2 + omegas**2)) ** 2


def offset_x(derived: DerivedParams, d, omegas):
    """x = n - k_x of the closed form at ``derived`` moved to each offset in ``d``, and
    |Delta|^2, from which :func:`degenerate_mask` (with ``derived.gamma**2``) forms the
    mask of the points where the response denominator vanishes.

    Moving d with alpha and delta held, as :func:`operating_point_params` does at
    its designed root N = 2 alpha^2, changes no field the closed form reads but
    g' = g + d.  So nothing is solved: the K offsets enter as one (K, 1) column
    of g', and row k equals :func:`closed_form_x` of ``derived`` with ``d`` and
    ``g_prime`` replaced, to the last bit.  ``omegas`` is an N-point grid or a
    (K, M) block of per-row frequencies.  The amplitudes are equal by design, so
    no row is failed for a mismatch, and x <= 0 is left to the caller.
    """
    params = SimpleNamespace(g=derived.g, g_prime=derived.g + np.asarray(d, dtype=float)[:, None],
                             gamma=derived.gamma, gamma_m_tilde=derived.gamma_m_tilde,
                             n_m=derived.n_m)
    _, _, x, abs_D2 = _standard_form(params, np.asarray(omegas, dtype=float))
    return x, abs_D2


def closed_form_x(derived: DerivedParams | Sequence[DerivedParams], omegas):
    """x = n - k_x of the closed form and the mask of the points that fail.

    The points that fail are those :func:`closed_form_grid` names; x is not
    blanked there, and no name is formed.  Shapes as in :func:`closed_form_grid`,
    whose x equals this one wherever no point failed.
    """
    _, _, x, degenerate, mismatch = _closed_form(derived, omegas)
    return x, degenerate | mismatch | (x <= 0)


def closed_form_grid(derived: DerivedParams | Sequence[DerivedParams], omegas) -> Evaluation:
    """The closed-form standard form over a frequency grid, failures flagged per point.

    ``derived`` is one operating point, giving arrays shaped like ``omegas``,
    or a sequence of K, giving (K, N) arrays over the N-point grid in one
    pass: each row's scalars enter as a (K, 1) column, so row k equals
    ``derived[k]`` evaluated alone, to the last bit.

    Unequal amplitudes fail every point of a row with ``DomainError``; a
    vanishing response denominator (see :func:`transfer_functions`) fails a
    point with ``DegenerateResponse``; n - k_x <= 0 fails it with
    ``DomainError``.
    """
    n, k_x, _, degenerate, mismatch = _closed_form(derived, omegas)
    with np.errstate(invalid="ignore"):
        ev = Evaluation.from_standard_form(n, k_x, degenerate | mismatch, "DegenerateResponse")
    if np.any(mismatch):
        ev.error[np.broadcast_to(mismatch, ev.error.shape)] = "DomainError"
    return ev


def spectrum_flags(derived: DerivedParams, omegas, error) -> list[tuple[str, ...]]:
    """Per-point flags: the elimination-band warning for |omega| >= delta, then the failure."""
    outside = (np.abs(np.asarray(omegas, dtype=float)) >= derived.delta).tolist()
    return [(("omega_outside_elimination_band",) if out else ()) + ((f"error:{e}",) if e else ())
            for out, e in zip(outside, error)]


def spectrum(derived: DerivedParams, omega_grid) -> list[SpectrumPoint]:
    """Evaluate the closed-form output state on a frequency grid.

    Per-point failures are recorded in the point's flags instead of aborting
    the grid; points with |omega| >= delta carry an elimination-regime
    warning flag.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    ev = closed_form_grid(derived, omegas)
    points = []
    for omega, n, k_x, flags in zip(omegas.tolist(), ev.n.tolist(), ev.k_x.tolist(),
                                    spectrum_flags(derived, omegas, ev.error)):
        sf = None if math.isnan(n) else StandardForm(n=n, k_x=k_x, k_p=-k_x, residual=0.0)
        points.append(SpectrumPoint(omega, sf, None if sf is None else ent_metrics(sf), flags))
    return points


def eof_array(x: np.ndarray) -> np.ndarray:
    """Entanglement of formation [ebits] of symmetric states with EPR variances x.

    E = C+(x) log2 C+(x) - C-(x) log2 C-(x), C+-(x) = (x^-1/2 +- x^1/2)^2 / 4,
    valid for x < 1; exactly 0 for x >= 1 (separable); NaN stays NaN.  Any
    shape, a (K, N) block of curves included.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError(f"EPR variance must be > 0, got {x[x <= 0].flat[0]:g}")
    entangled = x < 1.0
    out = np.where(x >= 1.0, 0.0, np.nan)   # NaN stays NaN; x < 1 is filled in below
    root = np.sqrt(x[entangled])
    inverse = 1.0 / root
    c_plus = (inverse + root) ** 2 / 4.0
    c_minus = (inverse - root) ** 2 / 4.0
    # C-(x) log2 C-(x) -> 0 as C-(x) -> 0: log2 of 1 in its place
    out[entangled] = (c_plus * np.log2(c_plus)
                      - c_minus * np.log2(np.where(c_minus > 0, c_minus, 1.0)))
    return out
