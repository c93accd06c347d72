"""The benchmark's recorded outputs, reproduced in this process.

``perfbench/reference.json`` holds, for every input of each benchmark
workload, the summary of the op's outputs or the error it raised.  Every
input with a recorded summary of ``opsearch`` and ``oracle_grid`` is run
here, and one config of each ``cli_tables`` kind goes through
``optoepr.cli.main``; each op is checked as the benchmark checks it: its
invariants, then its summary against the reference at the workload's own
tolerances.  ``perfbench/workloads.py`` supplies the pools, the ops and the
checks.
"""

import importlib.util
import json
import pathlib
import warnings
from types import SimpleNamespace

import pytest

from optoepr import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _workloads()


def check(workload, item, raw, reference):
    """The benchmark's problems with one op's outputs."""
    return (list(workload.invariants(item, raw))
            + wl.compare(workload.summarize(item, raw), reference, workload.tolerances(item)))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_pool_is_the_recorded_one(name, tmp_path):
    workload = wl.CliTables(tmp_path) if name == "cli_tables" else wl.WORKLOADS[name]()
    assert wl.pool_digest(workload.pool()) == REFERENCE[name]["pool_digest"]


@pytest.mark.parametrize("name", ["opsearch", "oracle_grid"])
def test_in_process_ops_as_recorded(name):
    workload = wl.WORKLOADS[name]()
    problems = []
    for index, (item, reference) in enumerate(zip(workload.pool(), REFERENCE[name]["items"])):
        if "out" not in reference:
            continue
        with warnings.catch_warnings():
            # strong drives unbalance the power excursions' amplitudes
            warnings.filterwarnings("ignore", "unequal cavity amplitudes", UserWarning)
            raw = workload.execute(item)
        problems += [f"op {index}: {p}" for p in check(workload, item, raw, reference["out"])]
    assert problems == []


@pytest.mark.parametrize("kind", list(wl.CLI_KINDS))
def test_cli_kind_as_recorded(kind, tmp_path, capsys):
    workload = wl.CliTables(tmp_path)
    workload.prepare()
    pool = workload.pool()
    # the kinds in turn take the configs in turn
    config = list(wl.CLI_KINDS).index(kind) % workload.CONFIGS
    index = next(i for i, item in enumerate(pool)
                 if item["kind"] == kind and item["config"] == config)
    reference = REFERENCE["cli_tables"]["items"][index]
    args, out = workload._argv(pool[index])
    capsys.readouterr()
    assert cli.main(args) == 0
    stdout = capsys.readouterr().out.encode()
    table = pathlib.Path(out).read_bytes() if out is not None else None
    raw = SimpleNamespace(stdout=stdout, table=table)
    assert check(workload, pool[index], raw, reference["out"]) == []
