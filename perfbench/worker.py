"""One workload in one fresh interpreter: set up, run the op loop, check every op.

Started by ``run.py`` with the BLAS thread counts pinned.  Prints ``ready``
once set-up is done (the first op could start), then, unless
``--setup-only``, one JSON line with the raw results.

Untraced (``--trace 0``): closed loop, one op at a time, in whole passes over
the workload's input pool (each pass in a seeded order, see
``workloads.op_order``) until ``--seconds`` have passed.

Traced (``--trace 1``): a fixed number of ops (``TRACE_OPS``) from the seeded
order, run untraced and then again with the span wrappers active, so the
per-layer counts repeat exactly for a seed.  Per-layer metrics are totals
over the traced pass; traced minus untraced time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import speed
import tracing
import workloads as wl

MIN_OPS = 100          # so that at least ten samples lie beyond p90
HARD_CAP_S = 140.0     # the whole run must end within 180 s
MAX_PROBLEMS = 5
TRACE_OPS = {"opsearch": 25, "oracle_grid": 50, "cli_tables": 22}
SETUP_PROBES = 3       # speed probes after a set-up-only start, to scale its set-up time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Run:
    """Set-up state of one workload run and its op loop."""

    def __init__(self, name, seed, trace):
        with open(os.path.join(HERE, "reference.json")) as handle:
            reference = json.load(handle)[name]
        self.workdir = None
        if name == "cli_tables":
            os.makedirs(RUNS_DIR, exist_ok=True)
            self.workdir = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
            os.makedirs(self.workdir, exist_ok=True)
            self.workload = wl.CliTables(self.workdir, env=os.environ.copy(),
                                         trace_child=os.path.join(HERE, "cli_child.py") if trace else None)
        else:
            self.workload = wl.WORKLOADS[name]()
        self.pool = self.workload.pool()
        if wl.pool_digest(self.pool) != reference["pool_digest"]:
            raise SystemExit("input pool differs from the one the reference was recorded for")
        self.workload.prepare()
        self.order = wl.op_order(len(self.pool), seed)
        self.reference = reference["items"]
        self.tracer = tracing.Tracer() if trace else None
        self.digests = {}

    def close(self):
        if self.workdir is not None:
            self.workload.close()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def loop(self, seconds, min_ops, indices=None, traced=False):
        """Run whole passes until time and count are reached, or replay ``indices``."""
        records, probes = [], []
        start = perf_counter()
        while True:
            probes.append(speed.probe_ms())
            if indices is not None:
                if len(records) == len(indices):
                    break
                index = indices[len(records)]
            else:
                elapsed = perf_counter() - start
                if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(records) >= min_ops
                                             and len(records) % len(self.pool) == 0):
                    break
                index = next(self.order)
            records.append(self.one_op(index, len(records), traced))
        for record, scaled in zip(records, speed.scale([r["ms"] for r in records], probes)):
            record["scaled_ms"] = scaled
        return records, probes

    def one_op(self, index, op_id, traced):
        item = self.pool[index]
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op = op_id
            tracer.active = True
        error = raw = None
        t0 = perf_counter()
        try:
            raw = self.workload.execute(item)
        except wl.CliExit as exc:
            error = exc.kind
        except Exception as exc:       # the op boundary: record the failure and go on
            error = type(exc).__name__
        finally:
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        record = self.check(index, item, raw, error, latency)
        if isinstance(self.workload, wl.CliTables):
            path = self.workload.trace_spans
            if tracer is not None and path and os.path.exists(path):
                tracing.merge(tracer.spans, tracing.load_spans(path), op_id)
                os.remove(path)
            if (tracer is None and error is None
                    and op_id % self.workload.REPEAT_EVERY == self.workload.REPEAT_EVERY - 1):
                self.repeat(item, raw, record)
        return record

    def repeat(self, item, raw, record):
        """Run a CLI op again, untimed; its output must be byte-identical."""
        try:
            again = self.workload.execute(item)
        except Exception as exc:       # reported as a check failure of the op
            again_digest = type(exc).__name__
        else:
            again_digest = self.workload.digest(again)
        if again_digest != self.workload.digest(raw):
            record["problems"].append("repeating the op gave different output")
            record["error"] = "check"

    def check(self, index, item, raw, error, latency):
        ref = self.reference[index]
        record = {"index": index, "ms": 1e3 * latency, "error": error, "problems": [],
                  "kind": item["kind"] if isinstance(item, dict) else None}
        if error is not None:
            if "out" in ref:
                record["problems"].append(f"raised {error}; the reference op succeeded")
            return record
        problems = list(self.workload.invariants(item, raw))
        summary = self.workload.summarize(item, raw)
        if "out" in ref:
            problems += wl.compare(summary, ref["out"], self.workload.tolerances(item))
        else:
            record["unreferenced"] = True
        if isinstance(self.workload, wl.CliTables):
            digest = self.workload.digest(raw)
            if self.digests.setdefault(index, digest) != digest:
                problems.append("output differs from an identical earlier op")
        record["problems"] = problems
        if problems:
            record["error"] = "check"
        return record


def summarize_records(records, probes):
    failures = Counter(r["error"] for r in records if r["error"] is not None)
    problems = [f"op {r['index']}: {p}" for r in records for p in r["problems"]]
    kinds = {}
    for r in records:
        if r["kind"] is not None:
            kinds.setdefault(r["kind"], []).append(r["scaled_ms"])
    return {
        "latencies_ms": [r["scaled_ms"] for r in records],
        "raw_latencies_ms": [r["ms"] for r in records],
        "probe_ms": probes,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "incorrect": sum(1 for r in records if r["problems"]),
        "unreferenced": sum(1 for r in records if r.get("unreferenced")),
        "problems": problems[:MAX_PROBLEMS],
        "kind_p50_ms": {k: statistics.median(v) for k, v in sorted(kinds.items())},
    }


def peak_rss_mb(workload) -> float:
    """Peak RSS of the process that ran the ops: the worker, or the largest CLI process."""
    if isinstance(workload, wl.CliTables):
        return workload.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_metrics(spans, records, untraced_records):
    """Per-layer metrics of the traced ops, plus tracing overhead against the untraced ones."""
    stats = tracing.function_stats(spans)
    raw_ms = sum(r["ms"] for r in records)
    traced_ms = sum(r["scaled_ms"] for r in records)
    untraced_ms = sum(r["scaled_ms"] for r in untraced_records)
    metrics = {}

    def put(name, stat, value, unit):
        metrics[f"{name}.{stat}"] = {"value": value, "unit": unit}

    for name, stat_list in PER_FUNCTION.items():
        st = stats.get(name, {})
        for stat in stat_list:
            put(name, stat, float(st.get(stat, 0.0)),
                "ms" if stat.endswith("_ms") else "bytes" if stat == "bytes" else "count")
    solves = stats.get("steady_state.solve_steady_state", {})
    ok_solves = solves.get("calls", 0) - solves.get("fail", 0)
    metrics["steady_state.multistable_frac"] = {
        "value": solves.get("multistable", 0) / ok_solves if ok_solves else 0.0, "unit": "ratio"}
    optima = stats.get("sweeps.find_optimum_d_numeric", {}).get("calls", 0)
    inner = tracing.descendants_of(spans, "sweeps.find_optimum_d_numeric",
                                   "steady_state.solve_steady_state")
    metrics["sweeps.solves_per_optimum"] = {"value": inner / optima if optima else 0.0,
                                            "unit": "count"}
    compare = stats.get("langevin.compare_models", {})
    metrics["langevin.compare_models.error_frac"] = {
        "value": compare.get("errors", 0) / compare["points"] if compare.get("points") else 0.0,
        "unit": "ratio"}
    layers = tracing.layer_self_ms(stats)
    for layer, ms in layers.items():
        metrics[f"layer.{layer}.self_frac"] = {"value": ms / raw_ms if raw_ms else 0.0,
                                               "unit": "ratio"}
    metrics["layer.untraced.self_frac"] = {
        "value": 1.0 - sum(layers.values()) / raw_ms if raw_ms else 0.0, "unit": "ratio"}
    n = len(records)
    metrics["trace.overhead_ms_per_op"] = {"value": (traced_ms - untraced_ms) / n if n else 0.0,
                                           "unit": "ms"}
    metrics["trace.overhead_frac"] = {
        "value": traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": float(len(spans)), "unit": "count"}
    failures = Counter(r["error"] for r in records if r["error"])
    for kind in FAILURE_KINDS:
        metrics[f"ops.fail.{kind}"] = {"value": float(failures.pop(kind, 0)), "unit": "count"}
    metrics["ops.fail.other"] = {"value": float(sum(failures.values())), "unit": "count"}
    table = {name: {k: st[k] for k in ("calls", "self_ms", "incl_ms", "fail")}
             for name, st in sorted(stats.items())}
    return metrics, table


CLI_COMMANDS = ("derive", "spectrum", "sweep", "optimum", "verify", "occupation")
PER_FUNCTION = {
    "steady_state.solve_steady_state": ("calls", "self_ms", "fail"),
    "steady_state.operating_point_params": ("calls", "self_ms"),
    "steady_state.retuned_d": ("calls", "self_ms"),
    "sweeps.find_optimum_d_numeric": ("calls", "self_ms", "fail"),
    "sweeps.peak_statistics": ("calls", "self_ms"),
    "sweeps.sensitivity_analysis": ("calls", "self_ms"),
    "sweeps.run_sweep": ("calls", "self_ms"),
    "langevin.rwa3_solve": ("calls", "self_ms"),
    "langevin.full6_solve": ("calls", "self_ms"),
    "langevin.adiabatic_response": ("calls", "self_ms"),
    "langevin.assemble_covariance": ("calls", "self_ms"),
    "langevin.standard_form_reduce": ("calls", "self_ms", "fail"),
    "langevin.compare_models": ("calls", "points", "self_ms"),
    "langevin.intracavity_occupation": ("calls", "self_ms"),
    "spectrum.spectrum": ("calls", "points", "self_ms"),
    "spectrum.epr_variance_array": ("calls", "points", "self_ms"),
    "spectrum.eof_array": ("calls", "self_ms"),
    "spectrum.optimum_d": ("calls", "self_ms"),
    "io.render_rows": ("calls", "rows", "bytes", "self_ms"),
    "config.parse_config": ("calls", "self_ms"),
    "params.validate_regime": ("calls", "self_ms"),
    "cli.import": ("calls", "self_ms"),
    **{f"cli.main.{cmd}": ("calls", "self_ms") for cmd in CLI_COMMANDS},
}
FAILURE_KINDS = ("BracketError", "SignConventionViolated", "DomainError", "check")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # unwinds through Run.close


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    run = Run(args.workload, args.seed, args.trace)
    try:
        print("ready", flush=True)
        if args.setup_only:
            probe = statistics.median(speed.probe_ms() for _ in range(SETUP_PROBES))
            print(json.dumps({"setup_scale": speed.REFERENCE_MS / probe}), flush=True)
            return 0
        if args.trace:
            indices = [next(run.order) for _ in range(TRACE_OPS[args.workload])]
            untraced, probes = run.loop(0.0, 0, indices=indices)
            tracing.install(run.tracer)
            records, traced_probes = run.loop(0.0, 0, indices=indices, traced=True)
            os.makedirs(RUNS_DIR, exist_ok=True)
            tracing.dump_spans(run.tracer.spans, os.path.join(
                RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            result = summarize_records(untraced + records, probes + traced_probes)
            result["per_layer"], result["functions"] = trace_metrics(run.tracer.spans, records,
                                                                     untraced)
        else:
            result = summarize_records(*run.loop(args.seconds, MIN_OPS))
        result["peak_rss_mb"] = peak_rss_mb(run.workload)
        result["numpy"] = np.__version__
        result["python"] = platform.python_version()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
