"""Which package modules each command loads, and the names the package exports.

``optoepr`` imports ``config``, ``errors``, ``params``, ``steady_state`` and
``spectrum``; the names it re-exports from ``langevin`` and ``sweeps`` load
their module on first use.  Each command runs in a fresh interpreter here, so
the modules it loads are its own.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import optoepr

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# The names the package exported before its langevin and sweeps names loaded on
# first use, by the module that defines each.
EXPORTS = {
    "config": ("PAPER_DEFAULTS", "RunConfig", "paper_default_config", "parse_config",
               "serialize_config"),
    "errors": ("BracketError", "ConfigError", "ConstraintViolated", "DegenerateResponse",
               "DomainError", "NonConvergent", "NoSteadyState", "NotSymmetricState",
               "OptoEprError", "ParameterError", "ParseError", "PhysicsError",
               "SignConventionViolated", "SingularDrift", "UnitError", "UnknownKey"),
    "langevin": ("Covariance4", "LinearResponse", "adiabatic_response", "assemble_covariance",
                 "compare_models", "evaluate", "full6_solve", "intracavity_occupation",
                 "log_negativity", "rwa3_solve", "standard_form_reduce"),
    "params": ("DriveSpec", "PhysicalParams", "RegimeReport", "amplitude_to_power",
               "detunings", "eta_from_geometry", "normal_mode_drives", "power_to_amplitude",
               "thermal_occupancy", "validate_regime"),
    "spectrum": ("OptimumD", "StandardForm", "eof", "optimum_d", "squeezing_db"),
    "steady_state": ("DerivedParams", "amplitude_to_drive", "operating_point_params",
                     "retuned_d", "solve_steady_state", "steady_state_residual"),
    "sweeps": ("SweepResult", "SweepSpec", "default_omega_grid", "find_optimum_d_numeric",
               "peak_statistics", "run_sweep", "sensitivity_analysis"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from ``src``."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


# Runs ``cli.main`` on argv[2:], then writes the package modules loaded to argv[1].
RUN_COMMAND = """
import json, sys
from optoepr import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(sorted(m for m in sys.modules if m.partition(".")[0] == "optoepr"), handle)
sys.exit(code)
"""

CORE = ["optoepr", "optoepr.cli", "optoepr.config", "optoepr.constants", "optoepr.errors",
        "optoepr.io", "optoepr.params", "optoepr.spectrum", "optoepr.steady_state"]


@pytest.mark.parametrize("argv, extra", [
    (["derive"], []),
    (["optimum"], []),
    (["spectrum", "--omega-points", "5", "--out", "OUT"], []),
    (["optimum", "--numeric", "--omega-points", "21"], ["optoepr.sweeps"]),
    (["sweep", "--axis", "T", "--values", "4,300", "--omega-points", "5", "--out", "OUT"],
     ["optoepr.sweeps"]),
    (["verify", "--omega-points", "5", "--out", "OUT"], ["optoepr.langevin"]),
    (["occupation"], ["optoepr.langevin"]),
], ids=["derive", "optimum", "spectrum", "optimum --numeric", "sweep", "verify", "occupation"])
def test_command_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    modules = tmp_path / "modules.json"
    argv = [str(tmp_path / "table.csv") if word == "OUT" else word for word in argv]
    done = fresh(RUN_COMMAND, str(modules), *argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(modules.read_text()) == sorted(CORE + extra)


def test_exported_names_load_their_module_on_first_use():
    done = fresh("""
import json, sys
import optoepr
loaded = lambda: [m for m in ("optoepr.langevin", "optoepr.sweeps") if m in sys.modules]
steps = [loaded()]
evaluate = optoepr.evaluate
steps += [loaded(), "evaluate" in vars(optoepr),
          evaluate is sys.modules["optoepr.langevin"].evaluate]
sweeps = optoepr.sweeps
steps += [loaded(), sweeps is sys.modules["optoepr.sweeps"], "run_sweep" in vars(optoepr)]
print(json.dumps(steps))
""")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], ["optoepr.langevin"], True, True,
                                       ["optoepr.langevin", "optoepr.sweeps"], True, False]


@pytest.mark.parametrize("module, name", EXPORTED, ids=lambda v: v)
def test_exported_name_is_the_defining_modules(module, name):
    assert getattr(optoepr, name) is getattr(importlib.import_module(f"optoepr.{module}"), name)
    assert name in dir(optoepr) and name in optoepr.__all__


def test_all_is_the_exported_names():
    assert sorted(optoepr.__all__) == sorted(name for _, name in EXPORTED)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from optoepr import *", namespace)
    assert [name for module, name in EXPORTED if namespace.get(name)
            is not getattr(importlib.import_module(f"optoepr.{module}"), name)] == []


@pytest.mark.parametrize("module", ["langevin", "sweeps", "spectrum"])
def test_submodule_is_an_attribute(module):
    assert getattr(optoepr, module) is importlib.import_module(f"optoepr.{module}")
    assert module in dir(optoepr)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'optoepr' has no attribute 'MODELS'"):
        optoepr.MODELS
    assert not hasattr(optoepr, "no_such_name")
