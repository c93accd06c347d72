"""Parameter sweeps, peak statistics and robustness analyses.

Sweep axes re-derive the operating point per row:

* ``temperature``  bath temperature [K]; the steady state is unchanged, only
  the occupancy moves.
* ``alpha``        target cavity amplitude; drive amplitudes and detunings are
  re-derived per point holding delta and d fixed.
* ``d``            shifts both detunings by the same amount, moving d
  without touching delta.
* ``Q``            mechanical quality factor (gamma_m = omega_m / Q).
* ``power_fluct``  both drive powers scaled by (1 + value), detunings kept; d
  drifts through the intensity shift exactly as the steady state dictates.

``sensitivity_analysis`` takes its excursions as ``d`` and ``power_fluct``
rows around the optimum, recording a failed one by name.  Each row of a
sweep and of the excursions is solved where it is built, and the solved
rows are evaluated in one pass: their spectra form one (rows, N)
closed-form evaluation, in blocks that bound its temporaries.  A row's
numbers equal those of the row evaluated alone, to the last bit.  An
excursion forms only its peak EOF; the peak's omegas and the FWHM are formed
for sweep rows alone, and an error name only for a row that failed.  A
sweep row outside the parameter domain is recorded as a ``ParameterError``
row; in an analysis or a search it is raised, as an input error.  Only a
sweep of an exact model loads :mod:`optoepr.langevin`, where its model is
checked and where its rows are evaluated.

``find_optimum_d_numeric`` solves the base alone.  Its rows are the ``d``
rows at their designed root N = 2 alpha^2, where holding alpha and delta
leaves every input of the closed form but g' = g + d at the base's: K
offsets are (K, N) closed-form blocks (``spectrum.offset_x``) of at most
``_BLOCK_POINTS`` grid points, as in the sweeps, so the search's memory does
not grow with the grid; a 401-point grid holds a whole pass.  Only the
bracket's two ends are built to check the rows: the offsets whose rows pass
form an interval, and every row lies between the ends.  A row's objective
is the EOF of its least x over continuous omega, refined in the grid cells
next to its grid minimum; unlike the grid peak it is smooth in d.  Each block
of offsets forms the row part of the closed form once, and its evaluator
serves the grid pass and every refinement of the continuous minimum.  A
coarse scan checks unimodality, then refinement rounds of ``_ROUND_ROWS``
rows, one pass each, narrow the bracket to the two cells around the best row
(of equal values the highest d) until it is ``_TOL_FRAC`` of its larger end
wide.  A round's two ends are rows of the pass before, reproduced exactly by
``np.linspace``, so a round scores its ``_ROUND_ROWS - 2`` inner rows, and
one fewer when its middle row is the pass before's best offset: no offset is
scored twice in one search.

Peak statistics are measured on the EOF(omega) curve: every local maximum
is refined parabolically and the peak is the largest vertex, in the sweeps
and the sensitivity analysis alike; ``peak_omegas`` collects every vertex
within 1% of the peak, and the FWHM is the width at half the peak EOF.  The
parabola assumes an evenly spaced grid.  Every entry point checks its
``omega_grid`` by one rule before anything is solved (:func:`_check_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import BracketError, DegenerateResponse, DomainError, ParameterError, PhysicsError
from .params import DriveSpec, PhysicalParams, gamma_m_from_q, power_to_amplitude
from .spectrum import (DEFAULT_GRID_HALF_WIDTH_GAMMAS, DEFAULT_GRID_POINTS, closed_form_grid,
                       degenerate_mask, eof_array, offset_x, one_d_grid, optimum_d)
from .steady_state import DerivedParams, operating_point_params, solve_steady_state, window_error

SWEEP_AXES = ("temperature", "alpha", "d", "Q", "power_fluct")

# Largest deviation of an omega grid's steps from the mean step, relative to
# it, that still counts as evenly spaced.  On top of it a step may be off by
# the rounding of the grid values (np.linspace stays within 2 eps max|omega|).
_SPACING_RTOL = 1e-9

# Most grid points evaluated at once: sweep rows and the d-search's offsets go
# through the closed form in blocks of _BLOCK_POINTS // N rows of an N-point
# grid (at least one), which bounds the (rows, N) temporaries.
_BLOCK_POINTS = 2**14

# Local maxima within this fraction of the peak EOF are reported as peaks.
_NEAR_PEAK = 0.01

# find_optimum_d_numeric scans its bracket at _SCAN_POINTS offsets, then
# narrows it in rounds of _ROUND_ROWS rows, each keeping 2 of its
# _ROUND_ROWS - 1 cells, until it is _TOL_FRAC of its larger end wide.
_SCAN_POINTS = 33
_ROUND_ROWS = 9
_TOL_FRAC = 1e-4

# The continuous minimum of x(omega): _MIN_ROUNDS rounds of _MIN_POINTS
# frequencies, each narrowing the cells around the best by (_MIN_POINTS - 1) / 2,
# _MIN_OFFSETS their offsets in units of one cell.
_MIN_POINTS = 33
_MIN_ROUNDS = 3
_MIN_OFFSETS = np.linspace(-1.0, 1.0, _MIN_POINTS)


def default_omega_grid(gamma: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """``points`` frequencies evenly over [-2 gamma, 2 gamma]; ValueError unless gamma
    is finite and > 0."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    hw = DEFAULT_GRID_HALF_WIDTH_GAMMAS * gamma
    return np.linspace(-hw, hw, points)


def _check_grid(omega_grid) -> np.ndarray:
    """``omega_grid`` as a float array; ValueError unless it is 1-D and finite
    (:func:`~optoepr.spectrum.one_d_grid`), nonempty, ascending and evenly spaced, as
    peak refinement and the continuous minimum assume."""
    omega = one_d_grid(omega_grid)
    if len(omega) == 0:
        raise ValueError("omega_grid must be nonempty")
    if omega[-1] < omega[0]:
        raise ValueError("omega_grid must be ascending")
    if len(omega) > 2:
        step = (omega[-1] - omega[0]) / (len(omega) - 1)
        rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(omega))
        if not np.all(np.abs(np.diff(omega) - step) <= _SPACING_RTOL * abs(step) + rounding):
            raise ValueError("omega_grid must be evenly spaced")
    return omega


@dataclass(frozen=True)
class SweepSpec:
    """``values`` along ``axis`` from ``base``, rows of ``model`` on ``omega_grid``, held as
    the array :func:`_check_grid` returns.  ValueError for an unknown axis or model (the
    model-set rule), values empty or not strictly monotone, and a grid that check rejects."""

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
        object.__setattr__(self, "omega_grid", _check_grid(self.omega_grid))
        if self.model != "adiabatic":   # the closed form needs no langevin
            from .langevin import model_set
            model_set((self.model,))


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


def peak_statistics(omega: np.ndarray, eof_curve: np.ndarray) -> PeakStats:
    """Peak EOF, all near-peak local maxima, and the FWHM of the EOF curve.

    A grid point is a local maximum when it is >= both neighbours and > at
    least one, a missing neighbour past either end counting as -inf.  So an
    endpoint at or above its one neighbour is a maximum (both ends of a
    constant curve are), a run of equal points is a maximum at each end of
    the run past which the curve drops, and a point next to a NaN never is.
    A curve with no local maximum (all NaN, say) falls back to the point
    ``np.argmax`` picks.  Each maximum is refined by the vertex of the
    parabola through it and its neighbours, which assumes an evenly spaced
    grid, and the peak EOF is the largest vertex; the peak frequencies are
    the vertices within ``_NEAR_PEAK`` (1%) of it.

    Raises ValueError for an ``omega`` that :func:`_check_grid` rejects (not
    1-D, not finite or empty; descending, on which the FWHM would come out
    negative; unevenly spaced, on which the parabola misplaces the peak) and a
    curve that is not 1-D, holds an infinite value (the FWHM interpolation
    has no meaning there; NaN marks a failed point and is allowed) or whose
    length differs from ``omega``'s.
    """
    omega = _check_grid(omega)
    y = np.asarray(eof_curve, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"eof_curve must be 1-D, got shape {y.shape}")
    if np.isinf(y).any():
        raise ValueError("eof_curve must not hold an infinite value")
    if len(omega) != len(y):
        raise ValueError(f"omega and eof_curve lengths differ: {len(omega)} != {len(y)}")
    return _peak_statistics_row(omega, y, _refined_maxima(omega, y[None, :])[0])


def _refined_maxima(omega: np.ndarray, y: np.ndarray) -> list[list[tuple[float, float]]]:
    """Per row of the (K, N) curves ``y``: the (omega, value) vertex of each local maximum.

    The local maxima of all rows are found at once, by the rule of
    :func:`peak_statistics`, and refined one by one.
    """
    padded = np.full((y.shape[0], y.shape[1] + 2), -math.inf)
    padded[:, 1:-1] = y
    left, right = padded[:, :-2], padded[:, 2:]
    rows, cols = np.nonzero((y >= left) & (y >= right) & ((y > left) | (y > right)))
    maxima = [[] for _ in y]
    for k, i in zip(rows.tolist(), cols.tolist()):
        maxima[k].append(_parabolic_refine(omega, y[k], i))
    for k, found in enumerate(maxima):
        if not found:
            found.append(_parabolic_refine(omega, y[k], int(np.argmax(y[k]))))
    return maxima


def _peak_value(maxima: list[tuple[float, float]]) -> float:
    """The peak EOF of one row's refined maxima: the largest vertex."""
    return max(v for _, v in maxima)


def _peak_statistics_row(omega: np.ndarray, y: np.ndarray, maxima: list) -> PeakStats:
    """:func:`peak_statistics` of the curve ``y`` on ``omega``, given its refined maxima
    (its row of :func:`_refined_maxima`)."""
    peak = _peak_value(maxima)
    peak_omegas = tuple(sorted(x for x, v in maxima if v >= (1.0 - _NEAR_PEAK) * peak))
    half = 0.5 * peak
    above = y >= half
    fwhm = 0.0
    if above.any():
        last = len(y) - 1
        lo = int(np.argmax(above))
        hi = last - int(np.argmax(above[::-1]))
        left_edge = omega[lo]
        if lo > 0 and y[lo] != y[lo - 1]:
            left_edge = omega[lo - 1] + (half - y[lo - 1]) * (omega[lo] - omega[lo - 1]) / (y[lo] - y[lo - 1])
        right_edge = omega[hi]
        if hi < last and y[hi] != y[hi + 1]:
            right_edge = omega[hi] + (half - y[hi]) * (omega[hi + 1] - omega[hi]) / (y[hi + 1] - y[hi])
        fwhm = float(right_edge - left_edge)
    return PeakStats(peak_eof=float(peak), peak_omegas=peak_omegas, fwhm=fwhm)


def _scaled_powers(params: PhysicalParams, factor: float) -> PhysicalParams:
    """``params`` with both drive powers multiplied by ``factor`` (detunings kept)."""
    d = params.drive
    omega_1, omega_2 = (power_to_amplitude(p * factor, w, params.gamma)
                        for p, w in zip(params.drive_powers(), params.laser_frequencies()))
    return params.scaled(drive=DriveSpec(d.Delta_1, d.Delta_2, omega_1, omega_2))


def _peaks(rows: list, omega: np.ndarray, model: str) -> list:
    """Derived params, x, EOF curve and refined EOF maxima of ``model`` for every row, in one pass.

    A row is its solved :class:`DerivedParams` (see :func:`_axis_rows`), or
    the error building or solving it raised, which is passed through; no row
    is solved here.  The closed form (:func:`closed_form_grid`),
    ``eof_array`` and the peak search run over (rows, N) arrays in blocks of
    at most ``_BLOCK_POINTS`` grid points; the other models are evaluated
    row by row.  The maxima are the row's
    :func:`_refined_maxima`, whose largest vertex is its peak EOF.  A row
    with a failed grid point holds, unraised, the :mod:`errors` class named
    at its first failed point, and its EOF curve is not formed.  Each row's
    numbers equal those of the row evaluated alone, to the last bit.
    """
    results = list(rows)
    solved = [k for k, row in enumerate(rows) if isinstance(row, DerivedParams)]
    size = max(1, _BLOCK_POINTS // len(omega)) if model == "adiabatic" else 1
    if model != "adiabatic":
        from .langevin import evaluate
    for start in range(0, len(solved), size):
        block = solved[start:start + size]
        derived = [results[k] for k in block]
        if model == "adiabatic":
            ev = closed_form_grid(derived, omega)
        else:
            try:
                ev = evaluate(derived[0], omega, model)
            except PhysicsError as exc:   # a singular drift fails its row
                results[block[0]] = exc
                continue
        x, failed, error = (a.reshape(len(block), -1) for a in (ev.x, ev.failed, ev.error))
        bad = failed.any(axis=1)
        curves = eof_array(x[~bad] if bad.any() else x)
        done = zip(curves, _refined_maxima(omega, curves))
        for k, d, x_row, row_failed, row_error, row_bad in zip(block, derived, x, failed, error,
                                                               bad.tolist()):
            if row_bad:
                i = int(np.argmax(row_failed))
                results[k] = getattr(errors, row_error[i])(
                    f"{model} output failed at omega = {omega[i]:.6e}")
            else:
                results[k] = (d, x_row, *next(done))
    return results


def _raise_domain_error(rows: list) -> None:
    """Raise the first ParameterError among ``rows``, if any."""
    for row in rows:
        if isinstance(row, ParameterError):
            raise row


def _row_params(axis: str, base: PhysicalParams, base_derived: DerivedParams,
                value: float) -> PhysicalParams:
    """``base`` moved to ``value`` along ``axis``; ``base_derived`` is its steady state."""
    if axis == "temperature":
        return base.scaled(T=value)
    if axis == "alpha":
        return operating_point_params(base, value, base_derived.delta, base_derived.d)
    if axis == "d":
        return operating_point_params(base, base_derived.alpha, base_derived.delta, value)
    if axis == "Q":
        return base.scaled(gamma_m=gamma_m_from_q(base.omega_m, value))
    if axis == "power_fluct":
        return _scaled_powers(base, 1.0 + value)
    raise ValueError(axis)


def _axis_rows(axis: str, base: PhysicalParams, base_derived: DerivedParams,
               values) -> list:
    """The steady state of each value's :func:`_row_params`, or the PhysicsError or
    ParameterError building or solving that row raised."""
    rows = []
    for value in values:
        try:
            rows.append(solve_steady_state(_row_params(axis, base, base_derived, value)))
        except (PhysicsError, ParameterError) as exc:
            rows.append(exc)
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the entanglement spectrum for each axis value.

    Each row is solved where it is built (:func:`_axis_rows`) and the solved
    rows' spectra are evaluated together (see :func:`_peaks`), each row's
    numbers equal to its own evaluation; each row's :func:`peak_statistics`
    is then formed from its EOF curve and the maxima that pass refined.  A row's failure
    (e.g. NoSteadyState, a value outside the parameter domain, or the first
    point of the grid that fails in :func:`optoepr.langevin.evaluate`) is
    recorded on that row by name, never fatal.  Rows are in value order.
    """
    base_derived = solve_steady_state(spec.base)
    omega = spec.omega_grid
    values = [float(value) for value in spec.values]
    result = SweepResult(spec=spec)
    for value, peak in zip(values, _peaks(_axis_rows(spec.axis, spec.base, base_derived, values),
                                          omega, spec.model)):
        if isinstance(peak, Exception):
            result.rows.append(SweepRow(
                value=value, omega=omega, eof=np.array([]), epr_variance=np.array([]),
                peak_eof=math.nan, peak_omegas=(), fwhm=math.nan,
                derived=None, error=type(peak).__name__))
            continue
        derived, x, eof_curve, maxima = peak
        stats = _peak_statistics_row(omega, eof_curve, maxima)
        result.rows.append(SweepRow(
            value=value, omega=omega, eof=eof_curve, epr_variance=x,
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


def sensitivity_analysis(base: PhysicalParams, d_jitter: float,
                         power_jitter_frac: float,
                         omega_grid: np.ndarray | None = None) -> SensitivityReport:
    """Worst-case peak EOF under detuning and drive-power excursions.

    The operating point is first moved to the optimum d; the baseline peak
    EOF is taken there, and the excursions are the ``d`` sweep rows at
    d_o -/+ j and the ``power_fluct`` rows at -/+ eps around it, all of them
    evaluated in one pass with the baseline, each for its peak EOF only.
    Power scaling drags d through the intensity-shift term, which the
    re-solve accounts for exactly.  A failed excursion is recorded as a case
    with its error name and NaN d and peak; ``worst_peak_eof`` and
    ``degradation`` cover the cases that succeeded.  A failed baseline
    raises, and so does an excursion outside the parameter domain
    (ParameterError), before a later excursion is solved.  A negative,
    infinite or NaN jitter and an ``omega_grid`` that :func:`_check_grid`
    rejects raise ValueError before anything is solved.
    """
    for name, jitter in (("d_jitter", d_jitter), ("power_jitter_frac", power_jitter_frac)):
        if not 0 <= jitter < math.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {jitter!r}")
    omega = default_omega_grid(base.gamma) if omega_grid is None else _check_grid(omega_grid)
    base_derived = solve_steady_state(base)
    d_o = optimum_d(base_derived).d_o
    at_opt = _row_params("d", base, base_derived, d_o)
    opt_derived = solve_steady_state(at_opt)

    excursions = [(label, axis, mid, jitter) for label, axis, mid, jitter in
                  (("d", "d", d_o, d_jitter), ("power", "power_fluct", 0.0, power_jitter_frac))
                  if jitter > 0]
    labels, rows = ["baseline"], [opt_derived]
    for sign in "-+":
        for label, axis, mid, jitter in excursions:
            labels.append(f"{label}{sign}jitter")
            rows += _axis_rows(axis, at_opt, opt_derived,
                               [mid - jitter if sign == "-" else mid + jitter])
            _raise_domain_error(rows[-1:])
    peaks = _peaks(rows, omega, "adiabatic")
    if isinstance(peaks[0], Exception):
        raise peaks[0]

    base_peak = _peak_value(peaks[0][3])
    cases = [SensitivityCase("baseline", d_o, base_peak)]
    for label, peak in zip(labels[1:], peaks[1:]):
        if isinstance(peak, Exception):
            cases.append(SensitivityCase(label, math.nan, math.nan, type(peak).__name__))
        else:
            cases.append(SensitivityCase(label, peak[0].d, _peak_value(peak[3])))
    worst = min(c.peak_eof for c in cases if c.error is None)
    degradation = 0.0 if base_peak == 0 else (base_peak - worst) / base_peak
    return SensitivityReport(baseline_peak_eof=base_peak, worst_peak_eof=worst,
                             degradation=degradation, cases=cases)


def _offset_error(base: PhysicalParams, base_derived: DerivedParams,
                  d: float) -> PhysicsError | ParameterError | None:
    """What the designed ``d`` row at the offset ``d`` raises before it is evaluated, or None.

    That is the error building the row raises (:func:`operating_point_params`),
    else, for a designed root outside the window Delta_1' < 0 < Delta_2', the
    error the solve raises for it (building has checked Delta_2' > 0).
    """
    try:
        _row_params("d", base, base_derived, d)
    except (PhysicsError, ParameterError) as exc:
        return exc
    d1p = -(base.omega_m + base_derived.delta + d)
    return window_error(d1p, base.omega_m + base_derived.delta - d) if d1p >= 0.0 else None


def _raise_scan_failure(base: PhysicalParams, base_derived: DerivedParams, d: np.ndarray,
                        omega: np.ndarray) -> None:
    """Raise what scanning the offsets ``d`` row by row raises, given that one of them fails.

    A row outside the parameter domain (ParameterError) is raised first, as an
    input error; then the first failing row's error: :func:`_offset_error`, or
    a failed grid point, found by evaluating the rows before the first
    :func:`_offset_error` (each row's numbers are its own, to the last bit).
    """
    failures = [_offset_error(base, base_derived, dk) for dk in d.tolist()]
    _raise_domain_error(failures)
    k = next(k for k, exc in enumerate(failures) if exc is not None)
    if k:
        _search_objective(base_derived, d[:k], omega)
    raise failures[k]


def _search_objective(base_derived: DerivedParams, d: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
    """The search's objective at the offsets ``d``: the EOF of each designed ``d`` row's
    least x over continuous omega (:func:`offset_x`, :func:`_continuous_min`).

    The rows must build and lie in the window (see :func:`_offset_error`).  A
    row with a failed grid point raises, for the first such row, the class
    :func:`closed_form_grid` names at its first failed point.  The offsets are
    evaluated in blocks of at most ``_BLOCK_POINTS`` grid points, as in
    :func:`_peaks`, each running its grid pass, failure check and continuous
    minimum in turn; a row's numbers are its own, to the last bit.
    """
    size = max(1, _BLOCK_POINTS // len(omega))
    least = np.empty(len(d))
    for start in range(0, len(d), size):
        x_at = offset_x(base_derived, d[start:start + size])
        x, abs_D2 = x_at(omega)
        degenerate = degenerate_mask(abs_D2, base_derived.gamma**2, omega)
        failed = degenerate | ~(x > 0)
        if failed.any():
            k, i = divmod(int(np.argmax(failed)), len(omega))
            error = DegenerateResponse if degenerate[k, i] else DomainError
            raise error(f"adiabatic output failed at omega = {omega[i]:.6e}")
        least[start:start + size] = _continuous_min(x_at, omega, x)
    return eof_array(least)


def _continuous_min(x_at, omega: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row of the (K, N) block ``x`` on the grid ``omega``: the least x(omega) over
    continuous omega in the grid cells next to the row's grid minimum.

    ``x_at`` is the rows' :func:`offset_x` evaluator, called on a (K, M) block of
    frequencies in each round.  Each of ``_MIN_ROUNDS`` rounds evaluates
    ``_MIN_POINTS`` evenly spaced frequencies across the two cells around each
    row's best point so far (clipped to the grid's span) and keeps the best of
    them, so the cells narrow by
    (``_MIN_POINTS`` - 1) / 2 per round.  The best point is among those
    evaluated, so the result never exceeds the grid minimum.
    """
    rows = np.arange(x.shape[0])
    best = np.argmin(x, axis=1)
    center, least = omega[best], x[rows, best]
    half = (omega[-1] - omega[0]) / (len(omega) - 1)
    for _ in range(_MIN_ROUNDS):
        w = np.clip(center[:, None] + half * _MIN_OFFSETS, omega[0], omega[-1])
        values = x_at(w)[0]
        best = np.argmin(values, axis=1)
        center, least = w[rows, best], np.minimum(least, values[rows, best])
        half *= 2.0 / (_MIN_POINTS - 1)
    return least


def find_optimum_d_numeric(base: PhysicalParams, search_bracket: tuple[float, float],
                           omega_grid: np.ndarray | None = None) -> float:
    """Maximize over the offset d the EOF of the least EPR variance over frequency.

    The objective of an offset is the EOF of its ``d`` row's closed-form x at its
    minimum over continuous omega (:func:`_continuous_min`), which, unlike the
    grid peak, is smooth in d.  The rows are designed: held at their designed
    root, they need no steady-state solve after the base's (:func:`offset_x`).
    A coarse scan first checks unimodality on the bracket: its points are the
    rows at ``_SCAN_POINTS`` evenly spaced offsets, evaluated in one pass, and
    the first row that fails raises its error (a row outside the parameter
    domain before any other).  Only the bracket's two ends are built to check
    the rows, as the offsets whose rows pass form an interval; where an end
    fails, the scan's rows are built one by one to find the error.  A bracket
    whose scan shows several separated local maxima raises
    :class:`BracketError` with the scan attached.  The scan's best row and its
    two neighbours then bound the bracket, and each refinement round takes
    ``_ROUND_ROWS`` evenly spaced rows across the current bracket, scores in
    one pass those that no earlier pass scored (all but the ends, and the
    middle where it is the previous best) and keeps the two cells around the
    best.  Of equal values the highest d is the best, so a flat objective
    moves the bracket up.  The rounds stop once the bracket is at most
    ``_TOL_FRAC * max(|lo|, |hi|)`` wide, or no float lies inside it, and the
    search returns its midpoint.  A degenerate bracket returns its single
    point.  A bracket with a non-finite end or with hi < lo raises
    :class:`BracketError`, and an ``omega_grid`` that :func:`_check_grid`
    rejects or of fewer than 2 points (with no cell to refine the minimum in)
    ValueError, before anything is solved.
    """
    lo, hi = float(search_bracket[0]), float(search_bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise BracketError(f"invalid bracket ({lo:g}, {hi:g})")
    omega = default_omega_grid(base.gamma) if omega_grid is None else _check_grid(omega_grid)
    if len(omega) < 2:
        raise ValueError(f"omega_grid must have at least 2 points, got {len(omega)}")
    if hi == lo:
        return lo
    base_derived = solve_steady_state(base)

    scan_d = np.linspace(lo, hi, _SCAN_POINTS)
    # Each rule a row must pass before it is evaluated (Delta_2' > 0, each laser
    # within 10 omega_m of the cavity, Delta_1' < 0) compares a monotone, rounded
    # function of d with a bound, so the offsets that pass form an interval.  Every scan
    # and round row lies in [lo, hi], both ends reproduced by np.linspace: where the ends
    # pass, every row does.
    if any(_offset_error(base, base_derived, end) is not None for end in (lo, hi)):
        _raise_scan_failure(base, base_derived, scan_d, omega)
    scan_v = _search_objective(base_derived, scan_d, omega)
    interior_maxima = [i for i in range(1, _SCAN_POINTS - 1)
                       if scan_v[i] >= scan_v[i - 1] and scan_v[i] >= scan_v[i + 1]]
    if len(interior_maxima) > 1:
        gaps = np.diff(interior_maxima)
        if np.any(gaps > 1):   # separated humps rather than one flat top
            raise BracketError(
                f"peak EOF not unimodal on bracket; scan maxima at d = "
                f"{[float(scan_d[i]) for i in interior_maxima]}"
            )

    tol = _TOL_FRAC * max(abs(hi), abs(lo))
    a, b = lo, hi
    rows, values = scan_d, scan_v
    scored = dict(zip(scan_d.tolist(), scan_v.tolist()))   # this search's scored offsets
    while b - a > tol:
        j = len(rows) - 1 - int(np.argmax(values[::-1]))   # the highest of equal values
        bracket = float(rows[max(j - 1, 0)]), float(rows[min(j + 1, len(rows) - 1)])
        if bracket == (a, b):   # no float left inside
            break
        a, b = bracket
        if b - a > tol:
            # np.linspace reproduces a and b exactly, and often the best row between
            # them: a round scores only the offsets no earlier pass scored
            rows = np.linspace(a, b, _ROUND_ROWS)
            new = list(dict.fromkeys(dk for dk in rows.tolist() if dk not in scored))
            if new:
                scored.update(zip(new, _search_objective(base_derived, np.array(new),
                                                         omega).tolist()))
            values = np.array([scored[dk] for dk in rows.tolist()])
    return 0.5 * (a + b)
