"""Span tracing of the optoepr package from outside it.

``install`` replaces every public function of every ``optoepr`` module with
a wrapper that records a span (name, start, end, parent, op id) while the
tracer is active.  The same wrapper is bound in every module namespace that
holds the function (``sweeps.solve_steady_state``, ``cli.spectrum``,
``optoepr.rwa3_solve``, ...) and in module-level dicts of functions such as
a model-name dispatch table, so calls are caught whichever binding they go
through.  Nothing inside ``src/`` is modified on disk.

Spans are kept in memory.  ``aggregate`` turns them into the per-layer
metrics: calls, self time (span time minus the time its child spans cover),
failures and a few work counters taken from arguments or results.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "optoepr"

# Entry points the benchmark wraps itself, with a more specific span name.
SKIP = frozenset({"cli.main"})

# Layers are the package's modules; spans are attributed by their prefix.
LAYERS = ("config", "params", "steady_state", "spectrum", "langevin", "sweeps", "io", "cli")


def _len(x):
    try:
        return len(x)
    except TypeError:
        return 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _compare_counts(args, kwargs, result):
    rows = getattr(result, "rows", [])
    points = errors = 0
    for row in rows:
        values = getattr(row, "values", {})
        points += len(values)
        errors += sum(1 for v in values.values() if getattr(v, "error", None) is not None)
    return {"points": points, "errors": errors}


# Work counters recorded per span: function -> (args, kwargs, result) -> counts.
PROBES = {
    "steady_state.solve_steady_state":
        lambda a, k, r: {"multistable": int(bool(getattr(r, "multistable", False)))},
    "spectrum.spectrum": lambda a, k, r: {"points": _len(_arg(a, k, 1, "omega_grid"))},
    "spectrum.epr_variance_array": lambda a, k, r: {"points": _len(_arg(a, k, 1, "omega"))},
    "langevin.compare_models": _compare_counts,
    "io.render_rows": lambda a, k, r: {"rows": _len(_arg(a, k, 0, "rows")),
                                       "bytes": len(r.encode()) if isinstance(r, str) else 0},
}

# Span record layout.
NAME, START, END, PARENT, OP, FAILED, EXTRA = range(7)


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1

    def add(self, name, start, end, failed=False, extra=None):
        """Record a finished span under the current parent."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op, failed, extra])
        return len(self.spans) - 1

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, False, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
            if probe is not None:
                span[EXTRA] = probe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


def _package_modules():
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> int:
    """Wrap every public package function in every namespace binding it; returns the count."""
    modules = _package_modules()
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__ and not hasattr(obj, "__wrapped__")):
                name = f"{short}.{obj.__name__}"
                if name not in SKIP:
                    wrappers[obj] = tracer.wrap(name, obj, PROBES.get(name))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
            elif isinstance(obj, dict) and any(inspect.isfunction(v) and v in wrappers
                                               for v in obj.values()):
                setattr(module, attr, {k: wrappers.get(v, v) if inspect.isfunction(v) else v
                                       for k, v in obj.items()})
    return len(wrappers)


def dump_spans(spans, path):
    """Write spans as JSON lines: name, start, end, parent, op, failed, extra."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def merge(into: list, spans: list, op: int) -> None:
    """Append spans recorded by another process, re-basing parents and tagging the op."""
    base = len(into)
    for span in spans:
        span = list(span)
        span[PARENT] = span[PARENT] + base if span[PARENT] >= 0 else -1
        span[OP] = op
        into.append(span)


def function_stats(spans):
    """Per span name: calls, self_ms, incl_ms, fail and summed probe counters."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    stats = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        st = stats[span[NAME]]
        duration = span[END] - span[START]
        st["calls"] += 1
        st["incl_ms"] += 1e3 * duration
        st["self_ms"] += 1e3 * (duration - covered[i])
        st["fail"] += bool(span[FAILED])
        for key, value in (span[EXTRA] or {}).items():
            st[key] += value
    return stats


def descendants_of(spans, ancestor_name, name):
    """Number of spans called ``name`` that run inside a span called ``ancestor_name``."""
    count = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor_name:
                count += 1
                break
            parent = spans[parent][PARENT]
    return count


def layer_self_ms(stats):
    """Self time summed per package module."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += st["self_ms"]
    return totals
