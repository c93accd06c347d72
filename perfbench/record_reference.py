"""Record the reference outputs of every pool input: ``python3 perfbench/record_reference.py``.

Run from the repository root at the commit whose outputs become the
reference.  Writes ``perfbench/reference.json``: per workload, the digest of
the input pool and, per pool item, either the exception the op raised or
the summary of its outputs.  Invariant violations are printed; ops with
them are stored as raising ``check``.
"""

import json
import os
import shutil
import sys
from time import perf_counter

import run

PATH = os.path.join(run.HERE, "reference.json")


def record(wl, workload):
    items = []
    pool = workload.pool()
    start = perf_counter()
    for i, item in enumerate(pool):
        try:
            raw = workload.execute(item)
        except wl.CliExit as exc:
            items.append({"raised": exc.kind})
            continue
        except Exception as exc:
            items.append({"raised": type(exc).__name__})
            continue
        problems = workload.invariants(item, raw)
        if problems:
            print(f"{workload.name} item {i}: {problems}", file=sys.stderr)
            items.append({"raised": "check"})
            continue
        items.append({"out": workload.summarize(item, raw)})
    raised = sum("raised" in x for x in items)
    print(f"{workload.name}: {len(items)} items, {raised} raised, {perf_counter() - start:.1f} s")
    return {"pool_digest": wl.pool_digest(pool), "items": items}


def main():
    # Pin BLAS threads before numpy is imported, and use the checkout's sources.
    os.environ.update(run.child_env())
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads as wl

    workdir = os.path.join(run.ROOT, ".perfbench_runs", "record")
    os.makedirs(workdir, exist_ok=True)
    cli = wl.CliTables(workdir, env=os.environ.copy())
    try:
        cli.prepare()
        reference = {w.name: record(wl, w) for w in (wl.OpSearch(), wl.OracleGrid(), cli)}
    finally:
        cli.close()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PATH, "w") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
