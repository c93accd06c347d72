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
realizes its offset, and every pool config survives serialization; and on
which the exact models' resolvent rows are pinned to the strided tail's.
"""

import importlib.util
import json
import pathlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import optoepr as oe
from optoepr import cli, langevin, spectrum, steady_state, sweeps
from tests.test_langevin import (FULL_GRID_RTOL, KERNELS, OP74, SYMMETRIC_GRID_RTOL,
                                 occupation_density, reference_intracavity_occupation, same_bits,
                                 strided_resolvent, symmetric_grid_occupation)
from tests.test_sweeps import eof_objective, no_prefetch, spy_objective

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


def executed(workload, recorded):
    """(index, item, outputs, reference) of each pool input whose reference records
    outputs (``recorded``) or an error raised (not ``recorded``), the input run."""
    for index, (item, reference) in enumerate(zip(workload.pool(),
                                                  REFERENCE[workload.name]["items"])):
        if ("out" in reference) != recorded:
            continue
        with warnings.catch_warnings():
            # strong drives unbalance the power excursions' amplitudes
            warnings.filterwarnings("ignore", "unequal cavity amplitudes", UserWarning)
            raw = workload.execute(item)
        yield index, item, raw, reference


@pytest.mark.parametrize("name", ["opsearch", "oracle_grid"])
def test_in_process_ops_as_recorded(name):
    workload = wl.WORKLOADS[name]()
    problems = []
    for index, item, raw, reference in executed(workload, recorded=True):
        problems += [f"op {index}: {p}" for p in check(workload, item, raw, reference["out"])]
    assert problems == []


def test_opsearch_ops_recorded_as_raising_keep_their_invariants():
    # the strong-drive inputs, every fifth, are recorded as raising but now succeed;
    # with no outputs to compare, each must still pass the op's invariants
    workload = wl.OpSearch()
    ops = list(executed(workload, recorded=False))
    problems = [f"op {index}: {p}" for index, item, raw, _ in ops
                for p in workload.invariants(item, raw)]
    assert [index for index, *_ in ops] == list(range(4, 100, 5))
    assert problems == []


def test_opsearch_op_solves_seven_operating_points(monkeypatch):
    # per op: the base (by the op and again in retuned_d), the retuned point, the
    # d-search's base, and the sensitivity analysis' base and two power rows; the
    # analysis' baseline and d rows are designed rows of its base, unsolved
    calls = []
    solve = steady_state.solve_steady_state

    def counting(params):
        calls.append(params)
        return solve(params)
    for module in (oe, steady_state, sweeps):
        monkeypatch.setattr(module, "solve_steady_state", counting)
    workload = wl.OpSearch()
    per_op = []
    for text in workload.pool():
        calls.clear()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "unequal cavity amplitudes", UserWarning)
            workload.execute(text)
        per_op.append(len(calls))
    assert per_op == [7] * workload.POOL_SIZE


def test_opsearch_op_builds_six_physical_params(monkeypatch):
    # per op: the config's base and its designed params, retuned_d's params, the
    # sensitivity analysis' retuned params and its two power rows; the d-search's bracket
    # ends and the analysis' designed rows are checked without being built
    built = []
    post_init = oe.PhysicalParams.__post_init__

    def counting(params):
        built.append(params)
        post_init(params)
    monkeypatch.setattr(oe.PhysicalParams, "__post_init__", counting)
    workload = wl.OpSearch()
    per_op = []
    for text in workload.pool():
        built.clear()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "unequal cavity amplitudes", UserWarning)
            workload.execute(text)
        per_op.append(len(built))
    assert per_op == [6] * workload.POOL_SIZE


def opsearch_searches():
    """The d-search of each opsearch op: its params, bracket and grid, as the op sets them."""
    for text in wl.OpSearch().pool():
        params = oe.parse_config(text).params
        d_o = oe.optimum_d(oe.solve_steady_state(params)).d_o
        yield (params, (0.25 * d_o, min(4.0 * d_o, 0.5 * params.gamma)),
               oe.default_omega_grid(params.gamma, wl.OpSearch.GRID_POINTS))


def test_opsearch_search_forms_no_eof(monkeypatch):
    calls = []
    eof_array = spectrum.eof_array

    def counting(x):
        calls.append(x)
        return eof_array(x)
    for module in (spectrum, sweeps):
        monkeypatch.setattr(module, "eof_array", counting)
    per_op = []
    for params, bracket, grid in opsearch_searches():
        calls.clear()
        oe.find_optimum_d_numeric(params, bracket, omega_grid=grid)
        per_op.append(len(calls))
    assert per_op == [0] * wl.OpSearch.POOL_SIZE


def test_opsearch_least_x_ranks_as_the_eof(monkeypatch):
    # ranking the rows by the EOF of their least x, highest first, finds each op's d*
    # to the bit, the strong ops' included
    searches = list(opsearch_searches())
    plain = [oe.find_optimum_d_numeric(params, bracket, omega_grid=grid)
             for params, bracket, grid in searches]
    eof_objective(monkeypatch)
    assert [oe.find_optimum_d_numeric(params, bracket, omega_grid=grid)
            for params, bracket, grid in searches] == plain


def searched(searches, passes):
    """d* of each search, and the offsets of each of its passes (recorded in ``passes``)."""
    results = []
    for params, bracket, grid in searches:
        passes.clear()
        results.append((oe.find_optimum_d_numeric(params, bracket, omega_grid=grid),
                        [d.tolist() for d in passes]))
    return results


def test_opsearch_prefetch_keeps_d_star_in_fewer_passes(monkeypatch):
    # each round's pass also scores the rows of the two rounds it predicts after it: over
    # the pool a search runs 3.23 passes and 67.72 rows, not 5.54 passes, and finds every
    # d* to the bit
    searches = list(opsearch_searches())
    passes = spy_objective(monkeypatch)
    predicted = searched(searches, passes)
    no_prefetch(monkeypatch)
    alone = searched(searches, passes)
    assert [d for d, _ in predicted] == [d for d, _ in alone]
    assert sum(len(p) for _, p in predicted) <= 3.3 * wl.OpSearch.POOL_SIZE
    assert sum(len(d) for _, p in predicted for d in p) <= 68 * wl.OpSearch.POOL_SIZE
    assert sum(len(p) for _, p in alone) == 554


def test_cli_search_scores_its_rows_in_its_passes_without_prediction(tmp_path, monkeypatch):
    # on optimum --numeric's 2001-point grid a block holds 8 rows, and no round of 6 or 7
    # new rows leaves room for another: each of the 18 cli_tables searches runs the
    # passes it runs with no prediction, 104 in all
    configs = {item["config"]: item["text"] for item in wl.CliTables(tmp_path).pool()}
    searches = []
    for text in configs.values():
        params = oe.parse_config(text).params
        d_o = oe.optimum_d(oe.solve_steady_state(params)).d_o
        searches.append((params, (0.25 * d_o, min(4.0 * d_o, 0.5 * params.gamma)),
                         oe.default_omega_grid(params.gamma)))
    passes = spy_objective(monkeypatch)
    predicted = searched(searches, passes)
    no_prefetch(monkeypatch)
    assert predicted == searched(searches, passes)
    assert len(predicted) == 18 and sum(len(p) for _, p in predicted) == 104


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


def cli_derived(tmp_path):
    """The solved operating point of each of the 18 cli_tables configs, by config."""
    configs = {item["config"]: item["text"] for item in wl.CliTables(tmp_path).pool()}
    assert len(configs) == 18
    return {k: oe.solve_steady_state(oe.parse_config(text).params) for k, text in configs.items()}


def test_occupation_as_the_full_grid_loop(tmp_path):
    # the occupation adds each level's new points to half the last level's value; on
    # every cli_tables config (config 5 doubles up to 32769 points) it is the trapezoid
    # of every point of every level, but for the rounding of each level's sum
    for derived in cli_derived(tmp_path).values():
        expected = reference_intracavity_occupation(derived)
        assert abs(oe.intracavity_occupation(derived) - expected) <= FULL_GRID_RTOL * expected


def test_occupation_as_the_symmetric_grid_trapezoid(tmp_path):
    # the output block's integral over [0, delta] against the drift's density over
    # [-delta, delta], on every cli_tables config
    for derived in cli_derived(tmp_path).values():
        expected = symmetric_grid_occupation(derived)
        got = oe.intracavity_occupation(derived)
        assert abs(got - expected) <= SYMMETRIC_GRID_RTOL * expected


# intracavity_occupation against np.trapezoid on config 5's converged 32769-point grid,
# relative: measured 6.1e-14 (np.trapezoid sums its cells pairwise, not exactly).
TRAPEZOID_RTOL = 1.5e-13
# Traced peak of intracavity_occupation on config 5 (32769 points) over that at the
# paper point (2049 points): measured 224 bytes at the default block, against 262 KB
# for one float a point of config 5's grid.
OCCUPATION_PEAK_MARGIN_BYTES = 4096


def traced_peak(func, *args) -> int:
    """The peak of tracemalloc's traced memory while ``func(*args)`` runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_occupation_on_the_largest_cli_grid(tmp_path, paper_derived):
    # config 5's integral converges on 32769 points: there it is np.trapezoid's but for
    # rounding, and its traced peak is the paper point's, whose grid is 16 times smaller:
    # no array grows with the grid
    derived = cli_derived(tmp_path)[5]
    omegas = np.linspace(0.0, derived.delta, 32769)
    density = occupation_density(derived, omegas)
    expected = float(np.trapezoid(density, omegas)) / (2.0 * np.pi)
    previous = float(np.trapezoid(density[::2], omegas[::2])) / (2.0 * np.pi)
    assert abs(expected - previous) <= langevin._OCCUPATION_RTOL * abs(expected)
    assert abs(oe.intracavity_occupation(derived) - expected) <= TRAPEZOID_RTOL * expected
    del omegas, density
    peak = traced_peak(oe.intracavity_occupation, derived)
    assert peak <= traced_peak(oe.intracavity_occupation, paper_derived) + OCCUPATION_PEAK_MARGIN_BYTES


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


@pytest.mark.parametrize("name", ["opsearch", "oracle_grid"])
def test_resolvent_tail_as_the_strided_tail(name):
    # _resolvent adds the unit term per kept row, then scales every column by [1/D | 1]
    # in one contiguous pass (times 1 is exact): the strided tail's rows to the bit, for
    # every pool config (and the paper point and OP74) at +-w of the op's grid, in double
    # and long double, for rows [0, 1] and [0] of the 3-mode drift and [0, 3] of the
    # 6-operator one
    points = [oe.solve_steady_state(oe.paper_default_config().params), OP74]
    points += [oe.solve_steady_state(oe.parse_config(text).params)
               for text in wl.WORKLOADS[name]().pool()]
    for derived in points:
        grid = oe.default_omega_grid(derived.gamma, 201)
        for model, (drift, rows, cavity, pre_rwa) in KERNELS.items():
            if not cavity:
                continue
            M, l = drift(derived)
            for dtype in (np.float64, np.longdouble):
                omegas = np.concatenate([grid, -grid]).astype(dtype)
                if pre_rwa:
                    omegas = omegas + derived.omega_m + derived.delta
                got = langevin._resolvent(M, l, omegas, rows, cavity, model)
                assert same_bits(got, strided_resolvent(M, l, omegas, rows, cavity, model)), \
                    (derived, model, dtype)
