"""The benchmark's recorded outputs, reproduced in this process.

``perfbench/reference.json`` holds, for every input of each benchmark
workload, the summary of the op's outputs or the error it raised.  Every
input with a recorded summary of ``opsearch`` and ``oracle_grid`` is run
here, and one config of each ``cli_tables`` kind goes through
``optoepr.cli.main``; each op is checked as the benchmark checks it: its
invariants, then its summary against the reference at the workload's own
tolerances.  ``perfbench/workloads.py`` supplies the pools, the ops and the
checks.  The pools also serve as a spread of operating points on which the
drive's coordinates are checked: each ``d`` row of the d-search's scan
realizes its offset, and every pool config survives serialization.
"""

import importlib.util
import json
import pathlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import optoepr as oe
from optoepr import cli, sweeps

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


def test_opsearch_scan_rows_realize_their_offset():
    # the drive holds the detunings operating_point_params designs, so a solved d row's
    # offset misses its target only by the rounding of its intensity root
    worst = 0.0
    for text in wl.OpSearch().pool():
        params = oe.parse_config(text).params
        derived = oe.solve_steady_state(params)
        d_o = oe.optimum_d(derived).d_o
        # the bracket opsearch searches, at the d-search's scan points
        scan = np.linspace(0.25 * d_o, min(4.0 * d_o, 0.5 * params.gamma), sweeps._SCAN_POINTS)
        rows = [sweeps._row_params("d", params, derived, d) for d in scan.tolist()]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "unequal cavity amplitudes", UserWarning)
            solved = [oe.solve_steady_state(row) for row in rows]
        worst = max([worst] + [abs(row.d - d) / abs(d) for row, d in zip(solved, scan)])
    assert worst <= 1e-8


# A direct-style drive given as laser frequencies and powers, converted once at load.
LASER_FREQUENCY_CONFIG = """
omega_p_hz = 3.0e14
omega_m_hz = 73.5e6
gamma_hz = 3.2e6
q_factor = 30000
nu_hz = 1.0e8
eta = 1.0e-4
temperature_k = 300
radius_m = 38e-6
n0 = 1.45
omega_l_hz = 300000013.4e6
omega_lp_hz = 299999980.2e6
p1_w = 0.01
p2_w = 0.02
"""


def test_serialization_round_trip_is_exact(tmp_path):
    texts = (wl.OpSearch().pool() + wl.OracleGrid().pool()
             + [item["text"] for item in wl.CliTables(tmp_path).pool()] + [LASER_FREQUENCY_CONFIG])
    for text in texts:
        cfg = oe.parse_config(text)
        assert oe.parse_config(oe.serialize_config(cfg)) == cfg
