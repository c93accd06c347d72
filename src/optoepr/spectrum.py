"""Closed-form output model: standard-form covariance over a frequency grid, metrics.

After adiabatic elimination of the mechanical mode, the two output modes
respond to the optical vacuum inputs and the mechanical noise input through
the transfer functions

    Delta(w) = (-i w + gamma/2)^2 + g'^2 - g^2
    G(w) = (w^2 + gamma^2/4 + g^2 - g'^2 - i g' gamma) / Delta(w)
    H(w) = i g gamma / Delta(w)
    I(w) = (-i w + gamma/2 - i g' + i g) sqrt(gamma gamma_m~) / Delta(w)

(|G|^2 - |H|^2 = 1 identically), and the two-mode output state
has the spectral covariance in standard form

    n   = [(w^2 + gamma^2/4 + g^2 - g'^2)^2 + (g'^2 + g^2) gamma^2
           + ((w + g' - g)^2 + gamma^2/4) gamma gamma_m~ (2 n_m + 1)] / |Delta|^2
    V14 = -2 g gamma (w^2 + gamma^2/4 + g^2 - g'^2) / |Delta|^2
    V24 = [2 g' g gamma^2 + ((w + g' - g)^2 + gamma^2/4) gamma gamma_m~ (2 n_m + 1)] / |Delta|^2
    k_x = sqrt(V14^2 + V24^2)

One kernel, :func:`_closed_form`, evaluates n and k_x from these formulas
without forming G, H or I, in two parts: a row part that forms once the terms
that hold no frequency, and a frequency part that evaluates the rest over any
frequencies, in place.  :func:`closed_form_grid` runs both parts once, for one
or K operating points over a grid; :func:`offset_x` runs the row part once for
K offsets of d and returns the frequency part, which the d-search calls on
its grid and on each round of its continuous minimum.  Every square is a
product, so one frequency alone and the same frequency on a grid give the
same bits.  The point-by-point chain through G, H and I (transfer
functions, 4x4 covariance, metrics) is kept in
``tests/closed_form_reference.py``, as the reference the kernel is checked
against to the last bit.

The exact frequency-domain solvers in :mod:`optoepr.langevin`
cross-validate this model; see ``compare_models`` for where they agree and
disagree (the thermal factors above cancel in n - k_x, which the exact
response covariance does not reproduce).

Quadrature normalization: X = a + a^dag, P = (a - a^dag)/i, vacuum variance 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .steady_state import ALPHA_MATCH_RTOL, DerivedParams

# Default evaluation grid of the command line and the sweeps: 2001 points
# over [-2 gamma, 2 gamma].
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_HALF_WIDTH_GAMMAS = 2.0
# Largest |omega| of a grid: half of float max ** (1/4), where the closed form's omega^4 overflows.
OMEGA_LIMIT = float(np.finfo(float).max) ** 0.25 / 2.0


def one_d_grid(omega_grid) -> np.ndarray:
    """The frequency-grid rule: ``omega_grid`` as a float array, ValueError unless it
    is 1-D, finite and within |omega| <= :data:`OMEGA_LIMIT`.  A wider float beyond
    double range is cast to inf without numpy's overflow warning, and rejected."""
    omegas = np.asarray(omega_grid)
    if omegas.dtype != float:   # a double array needs no cast, and takes no errstate
        with np.errstate(over="ignore"):
            omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"frequency grid must be 1-D, got shape {omegas.shape}")
    if not np.abs(omegas).max(initial=0.0) <= OMEGA_LIMIT:   # False for a NaN too
        raise ValueError(f"frequency grid must be finite and |omega| <= {OMEGA_LIMIT:.3g} rad/s")
    return omegas


@dataclass(frozen=True)
class StandardForm:
    """Two-mode covariance in standard form: diagonal blocks n*I, cross block diag(k_x, k_p)."""

    n: float
    k_x: float
    k_p: float
    residual: float


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
        whose x is not positive (or NaN) as ``DomainError``, blank every failed point."""
        x = n - k_x
        domain = ~(x > 0) & ~failed
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


# The DerivedParams attributes the closed-form kernel takes, in its argument order.
_CLOSED_FORM_FIELDS = ("g", "g_prime", "gamma", "gamma_m_tilde", "n_m")


def _closed_form(g, g_prime, gamma, gamma_m_tilde, n_m):
    """The closed-form kernel of the five numbers :data:`_CLOSED_FORM_FIELDS` names:
    the row part is formed here, the frequency part is returned,
    ``standard_form(omegas) -> (n, k_x, x, |Delta|^2)``.

    numpy-polymorphic in the five numbers and in omega: (K, 1) columns of them
    give (K, N) arrays on an N-point grid or on a (K, N) block of per-row
    frequencies.  g' has the rows' shape, and every other number is a scalar
    or has that shape.  The row part forms what holds no frequency once: g^2,
    g'^2, gamma^2/4, the thermal factor of the mechanical term,
    (g'^2 + g^2) gamma^2, 2 g' g gamma^2 and -2 g gamma, each scalar as a 0-d
    array, which numpy combines with an array faster than a float.  The
    frequency part forms the terms that hold omega alone at omega's shape,
    then works in place on the arrays it has allocated.  Both parts run under
    one ``np.errstate``: beyond :data:`OMEGA_LIMIT` a square overflows, and
    above about 1e305 K the thermal factor does, so x is NaN, with no numpy
    warning.  Every sum and product is formed in the association order of
    the formulas in the module docstring and every square as a product (a
    ``** 2`` of a 0-d value would be a ``pow``), so a point has the same bits
    whatever the shape it comes in.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        therm = gamma * gamma_m_tilde * (2.0 * n_m + 1.0)
        g2, gp2, quarter = g * g, g_prime * g_prime, gamma * gamma / 4.0
        static = (gp2 + g2) * gamma * gamma
        cross = 2.0 * g_prime * g * gamma * gamma
        v14_factor = -2.0 * g * gamma
    g, gp, gamma, therm, g2, gp2, quarter, static, cross, v14_factor = (
        np.asarray(v, dtype=float)
        for v in (g, g_prime, gamma, therm, g2, gp2, quarter, static, cross, v14_factor))

    def standard_form(omegas):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w2 = omegas * omegas
            u_minus_v = w2 + quarter + g2 - gp2
            abs_D2 = quarter - w2 + gp2
            abs_D2 -= g2
            abs_D2 *= abs_D2
            damping = w2 * gamma
            damping *= gamma
            abs_D2 += damping
            mech = omegas + gp
            mech -= g
            mech *= mech
            mech += quarter
            mech *= therm
            n = u_minus_v * u_minus_v
            n += static
            n += mech
            n /= abs_D2
            v24 = mech
            v24 += cross
            v24 /= abs_D2
            v14 = u_minus_v
            v14 *= v14_factor
            v14 /= abs_D2
            k_x = np.hypot(v14, v24)
            return n, k_x, n - k_x, abs_D2
    return standard_form


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


def metric_columns(x: np.ndarray) -> dict[str, list[float]]:
    """epr_variance, S_db, eof and log_negativity of each EPR variance in ``x``.

    NaN entries (failed points) stay NaN.  S_db = -10 log10 x and
    log_negativity = max(0, -log2 x) take their logarithms from :mod:`math`,
    as :func:`squeezing_db` does, to the last bit (numpy's ``log10`` and
    ``log2`` are not correctly rounded).  Raises DomainError at the first
    x <= 0, as :func:`squeezing_db` would.
    """
    x = np.asarray(x, dtype=float)
    eofs = eof_array(x).tolist()   # checks x <= 0 before math.log10 could see it
    xs = x.tolist()
    return {"epr_variance": xs, "S_db": [-10.0 * v for v in map(math.log10, xs)], "eof": eofs,
            "log_negativity": [0.0 if v >= 1.0 else -lg for v, lg in zip(xs, map(math.log2, xs))]}


def optimum_d(derived: DerivedParams) -> OptimumD:
    """Closed-form optimum of the offset d and the center-frequency metrics there.

    d_o = sqrt(g^2 + gamma^2/4) - g, at which the EPR variance at omega = 0
    is 4 (d_o/gamma)^2, so S_o = -10 log10(4 d_o^2/gamma^2).  gamma -> 0
    drives d_o -> 0 and the squeezing unbounded; reported via the flag.
    """
    d_o, gamma = optimum_offset(derived), derived.gamma
    x = 4.0 * (d_o / gamma) ** 2 if gamma > 0 else 0.0
    if x <= 0:
        return OptimumD(d_o=d_o, S_o_db=math.inf, eof_o=math.inf, unbounded=True)
    return OptimumD(d_o=d_o, S_o_db=squeezing_db(x), eof_o=eof(x), unbounded=False)


def optimum_offset(derived: DerivedParams) -> float:
    """The closed-form optimum offset d_o = sqrt(g^2 + gamma^2/4) - g of :func:`optimum_d`,
    without its metrics; ValueError if g < 0."""
    g, gamma = derived.g, derived.gamma
    if g < 0:
        raise ValueError("g must be >= 0")
    return math.sqrt(g * g + gamma * gamma / 4.0) - g


def degenerate_mask(abs_D2, gamma2, omegas):
    """Where the response denominator has vanished, |Delta| < 1e-30 (gamma^2 + omega^2),
    from |Delta|^2 and gamma^2 = ``gamma2``: a parametric instability outside the
    model's regime.  Squares are products (and may overflow), as in :func:`_closed_form`."""
    with np.errstate(over="ignore"):
        bound = 1e-30 * (gamma2 + omegas * omegas)
        return abs_D2 < bound * bound


def offset_x(derived: DerivedParams, d):
    """The evaluator of the closed form at ``derived`` moved to each offset in ``d``:
    ``x_at(omegas) -> (x, |Delta|^2)``, x = n - k_x per offset, from whose |Delta|^2
    :func:`degenerate_mask` (with ``derived.gamma**2``) forms the mask of the points
    where the response denominator vanishes.

    Moving d with alpha and delta held, as :func:`operating_point_params` does at
    its designed root N = 2 alpha^2, changes no field the closed form reads but
    g' = g + d.  So nothing is solved: the K offsets enter :func:`_closed_form`
    as one (K, 1) column of g' beside four scalars, its row part is formed
    here, once for all the ``x_at`` calls, and row k equals the x of
    :func:`closed_form_grid` of ``derived`` with ``d`` and ``g_prime``
    replaced, to the last bit, wherever that x is not blanked.  ``omegas`` is
    an N-point grid, a (K, M) block of per-row frequencies or one frequency.
    The amplitudes are equal by design, so no row is failed for a mismatch;
    an x that is not positive is left to the caller.
    """
    standard_form = _closed_form(derived.g, derived.g + np.asarray(d, dtype=float)[:, None],
                                 derived.gamma, derived.gamma_m_tilde, derived.n_m)

    def x_at(omegas):
        _, _, x, abs_D2 = standard_form(np.asarray(omegas, dtype=float))
        return x, abs_D2
    return x_at


def closed_form_grid(derived: DerivedParams | Sequence[DerivedParams], omegas) -> Evaluation:
    """The closed-form standard form over a frequency grid, failures flagged per point.

    ``derived`` is one operating point, giving arrays shaped like ``omegas``,
    or a sequence of K, giving (K, N) arrays over the N-point grid in one
    pass: each row's scalars enter as a (K, 1) column, one operating point's
    too, so row k equals ``derived[k]`` evaluated alone, to the last bit.

    Unequal amplitudes fail every point of a row with ``DomainError``; a
    vanishing response denominator (:func:`degenerate_mask`) fails a point
    with ``DegenerateResponse``; an n - k_x that is not positive (NaN at a
    non-finite frequency) fails it with ``DomainError``.
    """
    omegas = np.asarray(omegas, dtype=float)
    rows = [derived] if isinstance(derived, DerivedParams) else list(derived)
    fields = [np.array([getattr(d, name) for d in rows])[:, None] for name in _CLOSED_FORM_FIELDS]
    mismatch = np.array([d.alpha_mismatch() > ALPHA_MATCH_RTOL for d in rows], dtype=bool)[:, None]
    # Python's float pow, not numpy's square
    gamma2 = np.array([d.gamma**2 for d in rows])[:, None]
    n, k_x, _, abs_D2 = _closed_form(*fields)(omegas)
    failed = degenerate_mask(abs_D2, gamma2, omegas) | mismatch
    if isinstance(derived, DerivedParams):   # its (1, 1) columns broadcast to two axes or more
        n, k_x, failed = (a.reshape(omegas.shape) for a in (n, k_x, failed))
    with np.errstate(invalid="ignore"):
        ev = Evaluation.from_standard_form(n, k_x, failed, "DegenerateResponse")
    if mismatch.any():
        ev.error[np.broadcast_to(mismatch, abs_D2.shape).reshape(ev.error.shape)] = "DomainError"
    return ev


def spectrum_flags(derived: DerivedParams, omegas, error) -> list[tuple[str, ...]]:
    """Per-point flags: the elimination-band warning for |omega| >= delta, then the failure."""
    outside = (np.abs(np.asarray(omegas, dtype=float)) >= derived.delta).tolist()
    return [(("omega_outside_elimination_band",) if out else ()) + ((f"error:{e}",) if e else ())
            for out, e in zip(outside, error)]


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
