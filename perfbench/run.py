"""optoepr benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root.  Workloads: opsearch, oracle_grid, cli_tables,
or ``all`` for the three in turn.  Each workload runs in a fresh interpreter
(``worker.py``) with the BLAS thread counts pinned to 1; set-up time is
measured over several fresh interpreters and reported as the median.

Prints a run-environment record and a readable summary as ``#`` lines, then,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or the per-layer metrics with
``--trace 1``).  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("opsearch", "oracle_grid", "cli_tables")
DEFAULT_SEED = 1      # the seed to develop and tune with
HELD_OUT_SEED = 2     # reserved for confirming a claimed change
SETUP_REPEATS = 7
DEADLINE_S = 170.0

# BLAS threads buy nothing on 3x3/6x6 solves, and on a 2-CPU machine extra
# threads would measure the scheduler.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def child_env():
    env = os.environ.copy()
    env.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, extra, deadline):
    """Start a worker; return (seconds until it was ready, its final JSON line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        ready_s = perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.terminate()               # the worker stops what it started, then exits
        try:
            proc.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise SystemExit(f"{args.workload}: worker exceeded the time limit")
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"{args.workload}: worker failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _quantiles(values):
    """p50 and p90 of ``values`` and how many samples lie beyond p90."""
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return p50, p90, sum(1 for v in values if v > p90)


def run_one(args):
    deadline = perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            ready_s, probe = _worker(args, ["--setup-only"], deadline)
            setups.append((ready_s, ready_s * probe["setup_scale"]))
    _, res = _worker(args, [], deadline)
    if res is None:
        raise SystemExit(f"{args.workload}: worker printed no result")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
              "python": res["python"], "numpy": res["numpy"], "pinned_env": PINNED_ENV}
    print(f"# env {json.dumps(record)}")
    lat = res["latencies_ms"]
    attempted, failed = res["attempted"], res["failed"]
    correct = res["incorrect"] == 0
    p50, p90, beyond = _quantiles(lat)
    print(f"# {args.workload}: {attempted} ops, {failed} failed ({failed / attempted:.3f}) "
          f"by type {json.dumps(res['failures'], sort_keys=True)}; "
          f"{res['unreferenced']} ops without a reference output")
    raw50, raw90, _ = _quantiles(res["raw_latencies_ms"])
    print(f"# {args.workload}: latency p50 {p50:.2f} ms, p90 {p90:.2f} ms "
          f"({len(lat)} samples, {beyond} beyond p90); unscaled p50 {raw50:.2f} ms, "
          f"p90 {raw90:.2f} ms; speed probe median {statistics.median(res['probe_ms']):.3f} ms")
    if setups:
        print(f"# {args.workload}: set-up unscaled median "
              f"{statistics.median(s for s, _ in setups):.4f} s over {len(setups)} starts")
    for problem in res["problems"]:
        print(f"# check failed: {problem}")
    for kind, ms in res["kind_p50_ms"].items():
        print(f"# {args.workload}: {kind} p50 {ms:.1f} ms")

    if args.trace:
        metrics = res["per_layer"]
        print(f"# {'function':44s} {'calls':>8s} {'incl ms/call':>13s} {'self ms/call':>13s} {'fail':>6s}")
        for name, st in res["functions"].items():
            calls = st["calls"]
            print(f"# {name:44s} {calls:8.0f} {st['incl_ms'] / calls:13.4f} "
                  f"{st['self_ms'] / calls:13.4f} {st['fail']:6.0f}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "ops_per_s": {"value": attempted / (sum(lat) / 1e3), "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"# {args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"order of the inputs (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "optoepr", "__init__.py")):
        print(f"no optoepr sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_one(args)))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
