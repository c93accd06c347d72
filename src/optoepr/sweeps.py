"""Parameter sweeps, peak statistics and robustness analyses.

Sweep axes re-derive the operating point per row:

* ``temperature``  bath temperature [K]; the steady state is unchanged, only
  the occupancy moves.
* ``alpha``        target cavity amplitude; drives and laser frequencies are
  re-derived per point holding delta and d fixed.
* ``d``            both laser frequencies shift by the same amount, moving d
  without touching delta.
* ``Q``            mechanical quality factor (gamma_m = omega_m / Q).
* ``power_fluct``  both drive powers scaled by (1 + value); d drifts through
  the intensity shift exactly as the steady state dictates.
* ``d_fluct``      absolute excursions of d around the base value.

Every peak EOF is a sweep row's: ``find_optimum_d_numeric`` maximizes the
``d`` row's peak, and ``sensitivity_analysis`` takes its excursions as ``d``
and ``power_fluct`` rows around the optimum, recording a failed one by name.

Peak statistics are measured on the EOF(omega) curve: the peak is refined
parabolically, ``peak_omegas`` collects every local maximum within 1% of the
peak, and the FWHM is the width at half the peak EOF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import BracketError, PhysicsError
from .langevin import MODELS, evaluate
from .params import DriveSpec, PhysicalParams
from .spectrum import eof_array, optimum_d
from .steady_state import (DerivedParams, operating_point_params, retuned_d,
                           solve_steady_state)

SWEEP_AXES = ("temperature", "alpha", "d", "Q", "power_fluct", "d_fluct")

# Default evaluation grid: 2001 points over [-2 gamma, 2 gamma].
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_HALF_WIDTH_GAMMAS = 2.0


def default_omega_grid(gamma: float, points: int = DEFAULT_GRID_POINTS,
                       half_width: float | None = None) -> np.ndarray:
    hw = DEFAULT_GRID_HALF_WIDTH_GAMMAS * gamma if half_width is None else half_width
    return np.linspace(-hw, hw, points)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    base: PhysicalParams
    omega_grid: np.ndarray
    model: str = "adiabatic"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ValueError("values must be nonempty")
        diffs = np.diff(np.asarray(self.values, dtype=float))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("values must be strictly monotone")
        if len(np.asarray(self.omega_grid)) == 0:
            raise ValueError("omega_grid must be nonempty")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


@dataclass(frozen=True)
class PeakStats:
    peak_eof: float
    peak_omegas: tuple[float, ...]
    fwhm: float


@dataclass(frozen=True)
class SweepRow:
    value: float
    omega: np.ndarray
    eof: np.ndarray
    epr_variance: np.ndarray
    peak_eof: float
    peak_omegas: tuple[float, ...]
    fwhm: float
    derived: DerivedParams | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through (x, y) at grid index i and its neighbours."""
    if i == 0 or i == len(x) - 1:
        return float(x[i]), float(y[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if denom >= 0.0:   # not locally concave; keep the grid point
        return float(x1), float(y1)
    h = x1 - x0
    shift = 0.5 * h * (y0 - y2) / denom
    xv = x1 + shift
    yv = y1 - 0.25 * (y0 - y2) * shift / h
    return float(xv), float(yv)


def peak_statistics(omega: np.ndarray, eof_curve: np.ndarray,
                    within: float = 0.01) -> PeakStats:
    """Peak EOF, all near-peak local maxima, and the FWHM of the EOF curve.

    A grid point is a local maximum when it is >= both neighbours and > at
    least one, a missing neighbour past either end counting as -inf.  So an
    endpoint at or above its one neighbour is a maximum (both ends of a
    constant curve are), a run of equal points is a maximum at each end of
    the run past which the curve drops, and a point next to a NaN never is.
    A curve with no local maximum (all NaN, say) falls back to the point
    ``np.argmax`` picks.  Each maximum is refined by the vertex of the
    parabola through it and its neighbours, which assumes an evenly spaced
    grid.

    Raises ValueError for an empty curve or one whose length differs from
    ``omega``'s.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(eof_curve, dtype=float)
    if len(y) == 0:
        raise ValueError("eof_curve must be nonempty")
    if len(omega) != len(y):
        raise ValueError(f"omega and eof_curve lengths differ: {len(omega)} != {len(y)}")
    padded = np.concatenate(([-math.inf], y, [-math.inf]))
    left, right = padded[:-2], padded[2:]
    maxima = np.flatnonzero((y >= left) & (y >= right) & ((y > left) | (y > right))).tolist()
    if not maxima:
        maxima = [int(np.argmax(y))]
    refined = [_parabolic_refine(omega, y, i) for i in maxima]
    peak = max(v for _, v in refined)
    peak_omegas = tuple(sorted(x for x, v in refined if v >= (1.0 - within) * peak))

    half = 0.5 * peak
    above = y >= half
    fwhm = 0.0
    if np.any(above):
        lo = int(np.argmax(above))
        hi = len(above) - 1 - int(np.argmax(above[::-1]))
        left_edge = omega[lo]
        if lo > 0 and y[lo] != y[lo - 1]:
            left_edge = omega[lo - 1] + (half - y[lo - 1]) * (omega[lo] - omega[lo - 1]) / (y[lo] - y[lo - 1])
        right_edge = omega[hi]
        if hi < len(y) - 1 and y[hi] != y[hi + 1]:
            right_edge = omega[hi] + (half - y[hi]) * (omega[hi + 1] - omega[hi]) / (y[hi + 1] - y[hi])
        fwhm = float(right_edge - left_edge)
    return PeakStats(peak_eof=float(peak), peak_omegas=peak_omegas, fwhm=fwhm)


def _scaled_powers(params: PhysicalParams, factor: float) -> PhysicalParams:
    """``params`` with both drive powers multiplied by ``factor`` (laser frequencies kept)."""
    p1, p2 = params.drive_powers()
    d = params.drive
    return params.scaled(drive=DriveSpec(mode="powers", omega_l=d.omega_l, omega_lp=d.omega_lp,
                                         p_1=p1 * factor, p_2=p2 * factor))


def _peak(params: PhysicalParams, omega: np.ndarray, model: str):
    """Derived params, x, EOF curve and peak statistics of ``model`` at ``params``; raises
    the :mod:`errors` class named by the first grid point :func:`evaluate` flags."""
    derived = solve_steady_state(params)
    ev = evaluate(derived, omega, model)
    if ev.failed.any():
        i = int(np.argmax(ev.failed))
        raise getattr(errors, ev.error[i])(f"{model} output failed at omega = {omega[i]:.6e}")
    eof_curve = eof_array(ev.x)
    return derived, ev.x, eof_curve, peak_statistics(omega, eof_curve)


def _row_params(axis: str, base: PhysicalParams, base_derived: DerivedParams,
                value: float) -> PhysicalParams:
    """``base`` moved to ``value`` along ``axis``; ``base_derived`` is its steady state."""
    if axis == "temperature":
        return base.scaled(T=value)
    if axis == "alpha":
        return operating_point_params(base, value, base_derived.delta, base_derived.d)
    if axis in ("d", "d_fluct"):
        d = value if axis == "d" else base_derived.d + value
        return operating_point_params(base, base_derived.alpha, base_derived.delta, d)
    if axis == "Q":
        return base.scaled(gamma_m=base.omega_m / value)
    if axis == "power_fluct":
        return _scaled_powers(base, 1.0 + value)
    raise ValueError(axis)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the entanglement spectrum for each axis value.

    Row failures (e.g. NoSteadyState, or the first point of the grid
    that fails in :func:`optoepr.langevin.evaluate`) are recorded on the row
    by name, never fatal.
    Rows are computed independently and assembled in value order.
    """
    base_derived = solve_steady_state(spec.base)
    omega = np.asarray(spec.omega_grid, dtype=float)
    result = SweepResult(spec=spec)
    for value in spec.values:
        try:
            derived, x, eof_curve, stats = _peak(
                _row_params(spec.axis, spec.base, base_derived, float(value)), omega, spec.model)
        except PhysicsError as exc:
            result.rows.append(SweepRow(
                value=float(value), omega=omega, eof=np.array([]), epr_variance=np.array([]),
                peak_eof=math.nan, peak_omegas=(), fwhm=math.nan,
                derived=None, error=type(exc).__name__))
            continue
        result.rows.append(SweepRow(
            value=float(value), omega=omega, eof=eof_curve, epr_variance=x,
            peak_eof=stats.peak_eof, peak_omegas=stats.peak_omegas,
            fwhm=stats.fwhm, derived=derived))
    return result


@dataclass(frozen=True)
class SensitivityCase:
    label: str
    d: float
    peak_eof: float
    error: str | None = None


@dataclass(frozen=True)
class SensitivityReport:
    baseline_peak_eof: float
    worst_peak_eof: float
    degradation: float
    cases: list[SensitivityCase]


def _search_grid(base: PhysicalParams, omega_grid: np.ndarray | None) -> np.ndarray:
    """``omega_grid`` as floats, the default grid of ``base`` if None; ValueError if empty."""
    if omega_grid is None:
        return default_omega_grid(base.gamma)
    omega = np.asarray(omega_grid, dtype=float)
    if len(omega) == 0:
        raise ValueError("omega_grid must be nonempty")
    return omega


def sensitivity_analysis(base: PhysicalParams, d_jitter: float,
                         power_jitter_frac: float,
                         omega_grid: np.ndarray | None = None) -> SensitivityReport:
    """Worst-case peak EOF under detuning and drive-power excursions.

    The operating point is first moved to the optimum d; the baseline peak
    EOF is taken there, and the excursions are the ``d`` sweep rows at
    d_o -/+ j and the ``power_fluct`` rows at -/+ eps around it.  Power
    scaling drags d through the intensity-shift term, which the re-solve
    accounts for exactly.  A failed excursion is recorded as a case with its
    error name and NaN d and peak; ``worst_peak_eof`` and ``degradation``
    cover the cases that succeeded.  A failed baseline raises, and an empty
    ``omega_grid`` raises ValueError before anything is solved.
    """
    if d_jitter < 0 or power_jitter_frac < 0:
        raise ValueError("jitters must be >= 0")
    omega = _search_grid(base, omega_grid)
    d_o = optimum_d(solve_steady_state(base)).d_o
    at_opt = retuned_d(base, d_o)

    base_peak = _peak(at_opt, omega, "adiabatic")[3].peak_eof
    excursions = (("d", "d", d_o, d_jitter), ("power", "power_fluct", 0.0, power_jitter_frac))
    rows = {label: run_sweep(SweepSpec(axis, (mid - jitter, mid + jitter), at_opt, omega)).rows
            for label, axis, mid, jitter in excursions if jitter > 0}
    cases = [SensitivityCase("baseline", d_o, base_peak)]
    for i, sign in enumerate("-+"):
        for label, sweep in rows.items():
            row = sweep[i]
            cases.append(SensitivityCase(f"{label}{sign}jitter",
                                         math.nan if row.derived is None else row.derived.d,
                                         row.peak_eof, row.error))
    worst = min(c.peak_eof for c in cases if c.error is None)
    degradation = 0.0 if base_peak == 0 else (base_peak - worst) / base_peak
    return SensitivityReport(baseline_peak_eof=base_peak, worst_peak_eof=worst,
                             degradation=degradation, cases=cases)


def find_optimum_d_numeric(base: PhysicalParams, search_bracket: tuple[float, float],
                           omega_grid: np.ndarray | None = None,
                           tol_frac: float = 1e-4, scan_points: int = 33) -> float:
    """Golden-section maximization of peak EOF over the offset d.

    A coarse scan first checks unimodality on the bracket; a bracket whose
    scan shows several separated local maxima raises :class:`BracketError`
    with the scan attached.  A degenerate bracket returns its single point.
    An empty ``omega_grid`` raises ValueError before anything is solved.
    """
    lo, hi = float(search_bracket[0]), float(search_bracket[1])
    if hi < lo:
        raise BracketError(f"invalid bracket ({lo:g}, {hi:g})")
    omega = _search_grid(base, omega_grid)
    if hi == lo:
        return lo
    base_derived = solve_steady_state(base)

    def peak(dval: float) -> float:
        return _peak(_row_params("d", base, base_derived, dval), omega, "adiabatic")[3].peak_eof

    scan_d = np.linspace(lo, hi, scan_points)
    scan_v = np.array([peak(dv) for dv in scan_d])
    interior_maxima = [i for i in range(1, scan_points - 1)
                       if scan_v[i] >= scan_v[i - 1] and scan_v[i] >= scan_v[i + 1]]
    if len(interior_maxima) > 1:
        gaps = np.diff(interior_maxima)
        if np.any(gaps > 1):   # separated humps rather than one flat top
            raise BracketError(
                f"peak EOF not unimodal on bracket; scan maxima at d = "
                f"{[float(scan_d[i]) for i in interior_maxima]}"
            )

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = peak(c), peak(e)
    while (b - a) > tol_frac * max(abs(hi), abs(lo)):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = peak(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = peak(e)
    return 0.5 * (a + b)
