"""Command-line interface.

Commands: derive, spectrum, sweep, optimum, verify, occupation.  Without
``--config`` the built-in default operating point is used.  Exit codes:
0 success, 2 configuration error, 3 physics-domain error, 4 IO error.

Each command imports what it runs beyond the closed form: ``sweep`` and
``optimum --numeric`` load :mod:`optoepr.sweeps`, ``verify`` and
``occupation`` load :mod:`optoepr.langevin`, and ``derive``, ``spectrum``
and ``optimum`` load neither.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io as tabio
from .config import parse_config
from .errors import ConfigError, OptoEprError, PhysicsError
from .params import PhysicalParams, validate_regime
from .spectrum import (DEFAULT_GRID_HALF_WIDTH_GAMMAS, DEFAULT_GRID_POINTS, OMEGA_LIMIT,
                       closed_form_grid, metric_columns, optimum_d, spectrum_flags)
from .steady_state import retuned_d, solve_steady_state

# A table command forms and writes its rows for at most this many grid points at a
# time, so that its memory does not grow with its table.
_BLOCK_POINTS = 1024

_AXIS_NAMES = {"T": "temperature", "alpha": "alpha", "d": "d", "Q": "Q"}
_DEFAULT_SWEEP_VALUES = {
    "temperature": "4,77,300",
    "alpha": "500,1000,2000",
    "Q": "300,3000,30000",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoepr",
        description="EPR entanglement of the output beams of a driven two-mode "
                    "optomechanical cavity (frequency-domain, stationary).",
    )
    parser.add_argument("command", choices=["derive", "spectrum", "sweep", "optimum",
                                            "verify", "occupation"])
    parser.add_argument("--config", metavar="PATH",
                        help="key=value configuration file (default: built-in paper defaults)")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration quantity (repeatable, each key once)")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=["csv", "jsonlines"], default="csv")
    parser.add_argument("--omega-min", type=float, default=None,
                        help="grid start [rad/s] (default -2 gamma)")
    parser.add_argument("--omega-max", type=float, default=None,
                        help="grid end [rad/s] (default +2 gamma)")
    parser.add_argument("--omega-points", type=int, default=DEFAULT_GRID_POINTS)
    parser.add_argument("--axis", choices=sorted(_AXIS_NAMES), help="sweep axis")
    parser.add_argument("--values", help="comma-separated sweep values")
    parser.add_argument("--models", default="adiabatic,rwa3,full6",
                        help="comma-separated models for verify")
    parser.add_argument("--at-optimum-d", action="store_true",
                        help="retune d to the closed-form optimum before running")
    parser.add_argument("--numeric", action="store_true",
                        help="optimum: also run the numeric 1-D optimization")
    return parser


def _load_config(args) -> PhysicalParams:
    """The operating point of ``--config`` (or the paper defaults) and ``--set``,
    retuned to the closed-form optimum d under ``--at-optimum-d``."""
    text = "defaults: paper\n"
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from exc
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in overrides:
            raise ConfigError(f"--set {key!r} given more than once")
        overrides[key] = value
    params = parse_config(text, overrides).params
    if args.at_optimum_d:
        params = retuned_d(params, optimum_d(solve_steady_state(params)).d_o)
    return params


def _grid(args, gamma: float, min_points: int = 1) -> np.ndarray:
    half_width = DEFAULT_GRID_HALF_WIDTH_GAMMAS * gamma
    lo = -half_width if args.omega_min is None else args.omega_min
    hi = half_width if args.omega_max is None else args.omega_max
    if args.omega_points < min_points or not np.abs([lo, hi]).max() <= OMEGA_LIMIT or hi < lo:
        raise ConfigError("invalid omega grid")
    return np.linspace(lo, hi, args.omega_points)


def _blocks(npoints: int) -> list[slice]:
    """Consecutive slices of an ``npoints``-point grid, ``_BLOCK_POINTS`` points or fewer each."""
    return [slice(start, start + _BLOCK_POINTS) for start in range(0, npoints, _BLOCK_POINTS)]


def _rows(omegas: np.ndarray, gamma: float, model: str, x: np.ndarray, flags,
          n=None, k_x=None, devs=()) -> list[tuple]:
    """Table rows of one model's EPR variance ``x`` over a grid (NaN marks a failed point).

    Each row is a tuple in :data:`~optoepr.io.BASE_COLUMNS` order followed by
    one cell per array of ``devs``; ``n`` and ``k_x`` are NaN when not given.
    """
    missing = [math.nan] * len(omegas)
    metrics = metric_columns(x)
    return list(zip(omegas.tolist(), (omegas / gamma).tolist(),
                    missing if n is None else n.tolist(), missing if k_x is None else k_x.tolist(),
                    metrics["epr_variance"], metrics["S_db"], metrics["eof"],
                    metrics["log_negativity"], [model] * len(omegas), flags,
                    *(dev.tolist() for dev in devs)))


def _emit(blocks, args, columns=tabio.BASE_COLUMNS) -> None:
    """Write a table, given as blocks of rows, to ``--out`` or stdout in ``--format``.

    Called once the command's physics has run, so that a command that fails
    leaves no file and writes no table.
    """
    if not args.out:   # an empty --out writes to stdout too
        tabio.write_rows(sys.stdout, blocks, args.format, columns)
    else:
        with open(args.out, "w", newline="") as handle:
            tabio.write_rows(handle, blocks, args.format, columns)


def _cmd_derive(args, params: PhysicalParams) -> int:
    derived = solve_steady_state(params)
    # regime ratios are quoted at the elimination band edge unless the
    # caller pins a band explicitly, then at its largest |bound|
    lo, hi = args.omega_min, args.omega_max
    bounds = [abs(b) for b in (lo, hi) if b is not None]
    if not np.isfinite(bounds).all() or (len(bounds) == 2 and hi < lo):
        raise ConfigError("invalid omega grid")
    omega_max = max(bounds) if bounds else 0.1 * derived.delta
    report = validate_regime(params, derived, omega_max=omega_max)
    print("derived parameters (rad/s unless noted):")
    print(f"  |alpha_1| = {abs(derived.alpha_1):.6g}   |alpha_2| = {abs(derived.alpha_2):.6g}")
    print(f"  beta = {derived.beta:.6g} (dropped imaginary part {derived.beta_imag_dropped:.3g})")
    print(f"  Delta_1' = {derived.Delta_1p:.6g}   Delta_2' = {derived.Delta_2p:.6g}")
    print(f"  delta = {derived.delta:.6g}   d = {derived.d:.6g} ({derived.d / derived.gamma:.4f} gamma)")
    print(f"  g = {derived.g:.6g}   g' = {derived.g_prime:.6g}   gamma_m~ = {derived.gamma_m_tilde:.6g}")
    print(f"  n_m = {derived.n_m:.6g}   multistable = {derived.multistable}")
    print("regime checks:")
    print(str(report))
    return 0


def _cmd_spectrum(args, params: PhysicalParams) -> int:
    derived = solve_steady_state(params)
    grid = _grid(args, params.gamma)
    ev = closed_form_grid(derived, grid)
    _emit((_rows(grid[s], derived.gamma, "adiabatic", ev.x[s],
                 (";".join(f) for f in spectrum_flags(derived, grid[s], ev.error[s])),
                 n=ev.n[s], k_x=ev.k_x[s]) for s in _blocks(len(grid))), args)
    return 0


def _cmd_sweep(args, params: PhysicalParams) -> int:
    from .sweeps import SweepSpec, run_sweep
    if not args.axis:
        raise ConfigError("sweep requires --axis {T|alpha|d|Q}")
    axis = _AXIS_NAMES[args.axis]
    grid = _grid(args, params.gamma)
    try:
        if args.values is not None:   # an empty --values is an error, not the defaults
            values = tuple(float(v) for v in args.values.split(","))
        elif axis == "d":
            values = tuple(np.linspace(0.02 * params.gamma, 0.14 * params.gamma, 7))
        else:
            values = tuple(float(v) for v in _DEFAULT_SWEEP_VALUES[axis].split(","))
        spec = SweepSpec(axis=axis, values=values, base=params, omega_grid=grid, model="adiabatic")
    except ValueError as exc:
        raise ConfigError(f"invalid --values {args.values!r}: {exc}") from exc
    rows = run_sweep(spec).rows

    def blocks():
        for row in rows:
            tag = f"{args.axis}={row.value:.17g}"
            if row.error:
                yield _rows(np.array([math.nan]), params.gamma, "adiabatic", np.array([math.nan]),
                            [f"{tag};error:{row.error}"])
                continue
            for s in _blocks(len(row.omega)):
                omegas = row.omega[s]
                yield _rows(omegas, params.gamma, "adiabatic", row.epr_variance[s],
                            [tag] * len(omegas))

    _emit(blocks(), args)
    notes = [f"# {args.axis}={row.value:g}: {row.error}" if row.error else
             f"# {args.axis}={row.value:g}: peak_eof={row.peak_eof:.6g} "
             f"fwhm={row.fwhm:.6g} peaks_at={[f'{w:.4g}' for w in row.peak_omegas]}"
             for row in rows]
    print("\n".join(notes), file=sys.stderr)
    return 0


def _cmd_optimum(args, params: PhysicalParams) -> int:
    derived = solve_steady_state(params)
    opt = optimum_d(derived)
    if args.numeric:   # searched before anything is printed: a failed search prints nothing
        from .sweeps import find_optimum_d_numeric
        bracket = (0.25 * opt.d_o, min(4.0 * opt.d_o, 0.5 * params.gamma))
        # the search refines between grid points: it needs two
        grid = _grid(args, params.gamma, min_points=2)
        d_star = find_optimum_d_numeric(params, bracket, omega_grid=grid)
    print(f"d_o = {opt.d_o:.10g} rad/s = {opt.d_o / params.gamma:.6g} gamma")
    print(f"S_o = {opt.S_o_db:.6g} dB")
    print(f"EOF_o = {opt.eof_o:.6g} ebits")
    if opt.unbounded:
        print("warning: squeezing unbounded in this limit")
    if args.numeric:   # no deviation from a closed-form d_o of 0 (the unbounded limit)
        deviation = (f" ({abs(d_star - opt.d_o) / opt.d_o:.3%} from closed form)"
                     if opt.d_o else "")
        print(f"numeric optimum d* = {d_star:.10g} rad/s{deviation}")
    return 0


def _cmd_verify(args, params: PhysicalParams) -> int:
    from .langevin import compare_models, model_set
    try:
        models = model_set(m.strip() for m in args.models.split(",") if m.strip())
    except ValueError as exc:
        raise ConfigError(f"--models {args.models!r}: {exc}") from exc
    derived = solve_steady_state(params)
    grid = _grid(args, params.gamma)
    report = compare_models(derived, grid, models)
    evals, devs = report.evaluations, report.deviations

    def blocks():   # each grid point's rows, one per model, together
        for s in _blocks(len(grid)):
            per_model = [_rows(grid[s], params.gamma, m, evals[m].x[s],
                               (f"error:{e}" if e else "" for e in evals[m].error[s]),
                               devs=[dev[s] for dev in devs.values()])
                         for m in models]
            yield [row for group in zip(*per_model) for row in group]

    _emit(blocks(), args, tabio.BASE_COLUMNS + tuple(f"dev_{m}" for m in models[1:]))
    for model, dev in report.max_deviation.items():
        summary = "no point compared" if np.isnan(devs[model]).all() else f"{dev:.6g}"
        print(f"# max |rel dev| of n-k_x, {model} vs {models[0]}: {summary}", file=sys.stderr)
    return 0


def _cmd_occupation(args, params: PhysicalParams) -> int:
    from .langevin import intracavity_occupation
    derived = solve_steady_state(params)
    value = intracavity_occupation(derived)
    alpha_sq = abs(derived.alpha_1) ** 2
    ratio = value / alpha_sq if alpha_sq else math.nan   # an undriven cavity holds no photons
    print(f"<a1^dag a1> = {value:.6g}")
    print(f"|alpha_1|^2 = {alpha_sq:.6g}  (ratio {ratio:.3e})")
    return 0


_COMMANDS = {
    "derive": _cmd_derive,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "optimum": _cmd_optimum,
    "verify": _cmd_verify,
    "occupation": _cmd_occupation,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load_config(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except OptoEprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
