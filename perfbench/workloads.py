"""Seeded workloads, their inputs, and the per-op correctness checks.

Every workload runs whole passes over a fixed pool of at least 100 inputs
generated from ``POOL_SEED``; the run seed chooses the order of each pass.
Running every input of the pool in every run keeps the mix, and so the
latency distribution, the same from run to run; the fixed pool is also what
lets each op be compared with the outputs recorded at the seed commit in
``reference.json``.  The fixed pool is what lets each op be
compared with the outputs recorded at the seed commit in
``reference.json``.  The package sees only the generated config texts and
command lines.

Each workload provides
  ``pool()``             the input list (config texts, or CLI op specs);
  ``execute(item)``      one op, the only timed part;
  ``summarize(item, r)`` numbers the op produced, compared with the reference;
  ``invariants(item, r)`` problems with invariants any correct code satisfies.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
import os
import random
import re
import select
import signal
import subprocess
import sys
from types import SimpleNamespace

import optoepr as oe
from optoepr import io as tabio

POOL_SEED = 20080811

# Relative tolerance against the seed-commit reference.  The numeric
# d-optimiser stops at tol_frac = 1e-4 of its bracket, so its result may move
# by that much when the arithmetic under it changes order.
REL_TOL = 1e-6
REL_TOL_OPTIMUM = 1e-3

# Invariant thresholds: the seed commit reaches residual <= 5e-16,
# commutator defect <= 4e-13 and physicality >= 2e-3 on these inputs.
MAX_STEADY_STATE_RESIDUAL = 1e-12
MAX_COMMUTATOR_DEFECT = 1e-9
MIN_PHYSICALITY = -1e-9


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _config_text(alpha, delta_hz, d_over_gamma, temperature_k, q_factor):
    return ("defaults: paper\n"
            f"target_alpha = {alpha!r}\n"
            f"target_delta_hz = {delta_hz!r}\n"
            f"target_d_over_gamma = {d_over_gamma!r}\n"
            f"temperature_k = {temperature_k!r}\n"
            f"q_factor = {q_factor!r}\n")


def _moderate_configs(rng, count):
    """Operating points inside the model's regime, around the paper default."""
    return [_config_text(_loguniform(rng, 300.0, 1100.0), _loguniform(rng, 3e6, 3e7),
                         rng.uniform(0.03, 0.2), _loguniform(rng, 1.0, 400.0),
                         _loguniform(rng, 1e4, 3e5))
            for _ in range(count)]


def _floats(values):
    return [math.nan if v is None else float(v) for v in values]


def _defects(problems, label, resp, cov):
    commutator = resp.commutator_defect()
    if not commutator <= MAX_COMMUTATOR_DEFECT:
        problems.append(f"{label}: commutator defect {commutator:.3e}")
    physicality = cov.physicality_defect()
    if not physicality >= MIN_PHYSICALITY:
        problems.append(f"{label}: physicality defect {physicality:.3e}")


def _residual(problems, label, params, derived):
    residual = oe.steady_state_residual(params, derived)
    if not residual <= MAX_STEADY_STATE_RESIDUAL:
        problems.append(f"{label}: steady-state residual {residual:.3e}")


class _InProcess:
    """Workloads whose ops call the package in the benchmark's own process."""

    def prepare(self):
        """Parse every input once; part of set-up."""
        for text in self.pool():
            oe.parse_config(text)


class OpSearch(_InProcess):
    """Find the best operating point: steady state, d-optimum, robustness, exact check at w=0."""

    name = "opsearch"
    POOL_SIZE = 100
    GRID_POINTS = 401
    # One input in five drives the cavity hard (alpha > 1100), where the
    # steady state has several branches and the branch selection fails.
    STRONG_EVERY = 5

    def tolerances(self, item):
        return {"d_star": REL_TOL_OPTIMUM}

    def pool(self):
        rng = random.Random(POOL_SEED)
        items = []
        for i in range(self.POOL_SIZE):
            strong = i % self.STRONG_EVERY == self.STRONG_EVERY - 1
            alpha = (_loguniform(rng, 1100.0, 12000.0) if strong
                     else _loguniform(rng, 250.0, 1100.0))
            items.append(_config_text(alpha, _loguniform(rng, 2e6, 3e7), rng.uniform(0.02, 0.3),
                                      _loguniform(rng, 1.0, 400.0), _loguniform(rng, 3e3, 1e6)))
        return items

    def execute(self, text):
        params = oe.parse_config(text).params
        derived = oe.solve_steady_state(params)
        opt = oe.optimum_d(derived)
        at_opt = oe.retuned_d(params, opt.d_o)
        grid = oe.default_omega_grid(params.gamma, self.GRID_POINTS)
        bracket = (0.25 * opt.d_o, min(4.0 * opt.d_o, 0.5 * params.gamma))
        d_star = oe.find_optimum_d_numeric(params, bracket, omega_grid=grid)
        sens = oe.sensitivity_analysis(params, d_jitter=0.05 * opt.d_o, power_jitter_frac=0.01,
                                       omega_grid=grid)
        derived_opt = oe.solve_steady_state(at_opt)
        exact = {}
        for model, solve in (("rwa3", oe.rwa3_solve), ("full6", oe.full6_solve)):
            resp = solve(derived_opt, 0.0)
            cov = oe.assemble_covariance(resp, derived_opt.n_m)
            exact[model] = (resp, cov, oe.standard_form_reduce(cov))
        return SimpleNamespace(params=params, derived=derived, opt=opt, at_opt=at_opt,
                               derived_opt=derived_opt, d_star=d_star, sens=sens, exact=exact)

    def summarize(self, text, r):
        out = {
            "n_total": [r.derived.n_total],
            "g": [r.derived.g, r.derived_opt.g],
            "d": [r.derived.d, r.opt.d_o, r.derived_opt.d],
            "d_star": [r.d_star],
            "peak_eof": [r.sens.baseline_peak_eof, r.sens.worst_peak_eof],
            "multistable": int(r.derived.multistable),
        }
        for model, (_, _, sf) in r.exact.items():
            out[model] = [sf.n, sf.k_x, sf.k_p]
        return out

    def invariants(self, text, r):
        problems = []
        _residual(problems, "steady state", r.params, r.derived)
        _residual(problems, "retuned steady state", r.at_opt, r.derived_opt)
        for model, (resp, cov, _) in r.exact.items():
            _defects(problems, model, resp, cov)
        return problems


class OracleGrid(_InProcess):
    """Cross-validate the closed form against the exact oracles on a 201-point grid."""

    name = "oracle_grid"
    POOL_SIZE = 100
    GRID_POINTS = 201
    MODELS = ("adiabatic", "adiabatic_response", "rwa3", "full6")
    SAMPLE_STRIDE = 25

    def tolerances(self, item):
        return {}

    def pool(self):
        return _moderate_configs(random.Random(POOL_SEED + 1), self.POOL_SIZE)

    def execute(self, text):
        params = oe.parse_config(text).params
        derived = oe.solve_steady_state(params)
        grid = oe.default_omega_grid(params.gamma, self.GRID_POINTS)
        report = oe.compare_models(derived, grid, models=self.MODELS)
        return SimpleNamespace(params=params, derived=derived, grid=grid, report=report)

    def summarize(self, text, r):
        rows = r.report.rows
        out = {"n_total": [r.derived.n_total], "g": [r.derived.g], "d": [r.derived.d]}
        for model in self.MODELS:
            points = [row.values[model] for row in rows]
            out[f"epr:{model}"] = _floats(p.epr_variance for p in points[::self.SAMPLE_STRIDE])
            out[f"errors:{model}"] = sum(p.error is not None for p in points)
            if model in r.report.max_deviation:
                out[f"max_dev:{model}"] = [r.report.max_deviation[model]]
        return out

    def invariants(self, text, r):
        problems = []
        _residual(problems, "steady state", r.params, r.derived)
        if len(r.report.rows) != len(r.grid):
            problems.append(f"{len(r.report.rows)} comparison rows for {len(r.grid)} points")
        for omega in (r.grid[0], r.grid[len(r.grid) // 2], r.grid[-1]):
            for model, solve in (("rwa3", oe.rwa3_solve), ("full6", oe.full6_solve)):
                resp = solve(r.derived, float(omega))
                _defects(problems, f"{model} at {omega:.4g}", resp,
                         oe.assemble_covariance(resp, r.derived.n_m))
        return problems


# CLI op kinds: arguments after ``--config PATH``; OUT marks the table file.
OUT = "{out}"
CLI_KINDS = {
    "derive": ["derive"],
    "spectrum_csv": ["spectrum", "--format", "csv", "--out", OUT],
    "spectrum_jsonl": ["spectrum", "--format", "jsonlines", "--out", OUT],
    "sweep_T": ["sweep", "--axis", "T", "--out", OUT],
    "sweep_Q": ["sweep", "--axis", "Q", "--out", OUT],
    "sweep_alpha": ["sweep", "--axis", "alpha", "--out", OUT],
    "sweep_d": ["sweep", "--axis", "d", "--out", OUT],
    "optimum": ["optimum"],
    "optimum_numeric": ["optimum", "--numeric"],
    "occupation": ["occupation"],
    "verify": ["verify", "--omega-points", "101", "--out", OUT],
}
SWEEP_VALUE_COUNTS = {"T": 3, "Q": 3, "alpha": 3, "d": 7}
SPECTRUM_POINTS = 2001
VERIFY_POINTS = 101
VERIFY_MODELS = ("adiabatic", "rwa3", "full6")
CLI_TIMEOUT_S = 60.0

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])(%?)")


def _printed_numbers(text):
    """Text with numbers masked, and each number with one unit of its last printed digit.

    Percentages are masked but not compared: the CLI prints them only as a
    ratio of two numbers that are compared.
    """
    numbers = []
    for match in _NUMBER.finditer(text):
        if match.group(1):
            continue
        token = match.group(0)
        mantissa, _, exponent = token.lower().partition("e")
        decimals = len(mantissa.split(".", 1)[1]) if "." in mantissa else 0
        numbers.append([float(token), 10.0 ** (int(exponent or 0) - decimals)])
    return _NUMBER.sub(lambda m: "#" + m.group(1), text), numbers


class CliTables:
    """A fixed mix of CLI subprocess invocations that write tables to a scratch directory.

    The pool is every kind with each of its configs, so each pass has the
    same mix.  ``optimum --numeric``, the slowest kind, runs on twice as many
    configs as the others: then the top decile of latencies lies inside that
    kind's spread instead of at the edge between two kinds, where p90 would
    jump from run to run.
    """

    name = "cli_tables"
    CONFIGS = 9
    CONFIGS_PER_KIND = {"optimum_numeric": 18}
    REPEAT_EVERY = 10   # every tenth op is run again, untimed, and must give the same bytes

    def __init__(self, workdir, env=None, trace_child=None):
        self.workdir = workdir
        self.env = env
        self.trace_child = trace_child      # path of the traced entry script, or None
        self.trace_spans = None             # spans file of the last traced op
        self.peak_rss_kb = 0                # largest peak RSS of any CLI process so far
        self._spawner = None

    def _configs(self):
        return _moderate_configs(random.Random(POOL_SEED + 2), max(self.CONFIGS_PER_KIND.values()))

    def pool(self):
        configs = self._configs()
        return [{"kind": kind, "config": i, "text": configs[i]}
                for kind in CLI_KINDS for i in range(self.CONFIGS_PER_KIND.get(kind, self.CONFIGS))]

    def prepare(self):
        """Write (and parse) the config files the ops read; part of set-up."""
        for i, text in enumerate(self._configs()):
            with open(os.path.join(self.workdir, f"config{i}.txt"), "w") as handle:
                handle.write(text)
            oe.parse_config(text)

    def tolerances(self, item):
        return {"numbers": REL_TOL_OPTIMUM if item["kind"] == "optimum_numeric" else REL_TOL}

    def _argv(self, item):
        out = os.path.join(self.workdir, f"out-{item['kind']}.txt")
        args = [a.replace(OUT, out) for a in CLI_KINDS[item["kind"]]]
        config = os.path.join(self.workdir, f"config{item['config']}.txt")
        return args[:1] + ["--config", config] + args[1:], (out if OUT in CLI_KINDS[item["kind"]] else None)

    def execute(self, item):
        args, out = self._argv(item)
        if out is not None and os.path.exists(out):
            os.remove(out)
        if self.trace_child is None:
            cmd = [sys.executable, "-m", "optoepr.cli"] + args
        else:
            self.trace_spans = os.path.join(self.workdir, "spans.jsonl")
            cmd = [sys.executable, self.trace_child, self.trace_spans, "--"] + args
        code, stdout, stderr = self._run(cmd)
        if code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise CliExit(code, tail[0] if tail else "")
        table = None
        if out is not None:
            with open(out, "rb") as handle:
                table = handle.read()
        return SimpleNamespace(stdout=stdout, table=table)

    def _run(self, cmd):
        """Run ``cmd`` through the spawner; return exit code, stdout and stderr."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
                start_new_session=True)
        paths = [os.path.join(self.workdir, name) for name in ("stdout.txt", "stderr.txt")]
        self._spawner.stdin.write(json.dumps({"argv": cmd, "stdout": paths[0],
                                              "stderr": paths[1]}) + "\n")
        self._spawner.stdin.flush()
        ready, _, _ = select.select([self._spawner.stdout], [], [], CLI_TIMEOUT_S)
        line = self._spawner.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise TimeoutError(f"no answer within {CLI_TIMEOUT_S} s for {cmd[2:4]}")
        reply = json.loads(line)
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        outputs = []
        for path in paths:
            with open(path, "rb") as handle:
                outputs.append(handle.read())
        return reply["code"], outputs[0], outputs[1]

    def close(self):
        """Stop the spawner and anything it is running, and wait for it."""
        spawner, self._spawner = self._spawner, None
        if spawner is None:
            return
        os.killpg(spawner.pid, signal.SIGKILL)
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()

    def summarize(self, item, r):
        if r.table is None:
            masked, numbers = _printed_numbers(r.stdout.decode())
            return {"text": masked, "numbers": numbers}
        columns, rows = _parse_table(r.table, item["kind"])
        out = {"columns": list(columns), "rows": len(rows)}
        for j, col in enumerate(columns):
            values = [row[j] for row in rows]
            if col in ("model", "flags"):
                counts = {}
                for v in values:
                    counts[str(v)] = counts.get(str(v), 0) + 1
                out[f"str:{col}"] = sorted(counts.items())
                continue
            finite = [float(v) for v in values if v is not None and not math.isnan(float(v))]
            out[f"nan:{col}"] = len(values) - len(finite)
            if finite:
                out[f"col:{col}"] = [sum(finite) / len(finite), sum(abs(v) for v in finite)
                                     / len(finite), finite[0], finite[-1]]
        return out

    def invariants(self, item, r):
        if r.table is None:
            return [] if r.stdout.strip() else ["empty output"]
        problems = []
        columns, rows = _parse_table(r.table, item["kind"])
        kind = item["kind"]
        expected_cols = tabio.BASE_COLUMNS
        if kind == "verify":
            expected_cols = expected_cols + tuple(f"dev_{m}" for m in VERIFY_MODELS[1:])
        if tuple(columns) != tuple(expected_cols):
            problems.append(f"columns {columns}")
        flags = columns.index("flags") if "flags" in columns else None
        if kind.startswith("spectrum"):
            expected = SPECTRUM_POINTS
        elif kind == "verify":
            expected = VERIFY_POINTS * len(VERIFY_MODELS)
        else:
            errors = sum(1 for row in rows if flags is not None and "error:" in str(row[flags]))
            expected = errors + SPECTRUM_POINTS * (SWEEP_VALUE_COUNTS[kind.split("_", 1)[1]] - errors)
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        return problems

    @staticmethod
    def digest(r):
        return hashlib.sha256(r.stdout + b"\0" + (r.table or b"")).hexdigest()


class CliExit(Exception):
    """A CLI op exited with a non-zero code."""

    def __init__(self, code, message):
        super().__init__(f"exit {code}: {message}")
        self.code = code

    @property
    def kind(self):
        return f"exit{self.code}"


def _parse_table(data, kind):
    text = data.decode()
    if kind == "spectrum_jsonl":
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        columns = list(records[0]) if records else []
        return columns, [[rec.get(c) for c in columns] for rec in records]
    reader = csv.reader(_io.StringIO(text))
    columns = next(reader, [])
    rows = []
    for raw in reader:
        row = []
        for col, value in zip(columns, raw):
            row.append(value if col in ("model", "flags") else float(value))
        rows.append(row)
    return columns, rows


WORKLOADS = {cls.name: cls for cls in (OpSearch, OracleGrid, CliTables)}


def pool_digest(pool) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def op_order(pool_size: int, seed: int):
    """Endless seeded sequence of pool indices: a fresh permutation of the pool per pass."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(range(pool_size), pool_size)


def compare(summary, reference, tolerances):
    """Differences between an op summary and its reference, as messages."""
    problems = []
    for key in sorted(set(summary) | set(reference)):
        got, want = summary.get(key), reference.get(key)
        if key == "numbers" and got is not None and want is not None:
            problems += _compare_printed(got, want, tolerances.get(key, REL_TOL))
        elif (isinstance(want, list) and want and all(isinstance(v, float) for v in want)
              and isinstance(got, list) and len(got) == len(want)):
            tol = tolerances.get(key, REL_TOL)
            scale = max((abs(v) for v in want if not math.isnan(v)), default=0.0)
            for g, w in zip(got, want):
                if math.isnan(w) != math.isnan(g) or abs(g - w) > tol * scale:
                    problems.append(f"{key}: {got} vs reference {want}")
                    break
        elif _plain(got) != _plain(want):
            problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems


def _plain(value):
    return json.loads(json.dumps(value))


def _compare_printed(got, want, tol):
    if len(got) != len(want):
        return [f"{len(got)} printed numbers vs reference {len(want)}"]
    for (g, _), (w, unit) in zip(got, want):
        if abs(g - w) > max(tol * abs(w), 1.01 * unit):
            return [f"printed {g!r} vs reference {w!r}"]
    return []
