"""The package imports nothing but the standard library and numpy (scipy is for tests only)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "optoepr"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: module`` of every absolute import outside :data:`ALLOWED`."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:   # not an import, or a relative one
            continue
        found += [f"{filename}:{node.lineno}: {module}" for module in modules
                  if module.partition(".")[0] not in ALLOWED]
    return found


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [line for path in sources for line in foreign_imports(path.read_text(), path.name)]
    assert found == []


def test_foreign_imports_found():
    source = ("from __future__ import annotations\nimport math, numpy.linalg as la\n"
              "from . import errors\nfrom .spectrum import eof\n"
              "import scipy\nfrom scipy.linalg import expm\n"
              "def f():\n    import hypothesis\n")
    assert foreign_imports(source) == ["<source>:5: scipy", "<source>:6: scipy.linalg",
                                       "<source>:8: hypothesis"]


BENCHMARK_WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"


def attributes_read(source: str, names) -> set[tuple[str, str]]:
    """``(name, attribute)`` of every ``<name>.<attribute>`` read in ``source``."""
    return {(node.value.id, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in names}


def test_benchmark_calls_only_existing_api():
    # the benchmark imports the package as ``oe`` and its io module as ``tabio``
    import optoepr
    from optoepr import io as tabio
    modules = {"oe": optoepr, "tabio": tabio}
    read = attributes_read(BENCHMARK_WORKLOADS.read_text(), modules)
    assert {name for name, _ in read} == set(modules)
    assert sorted(f"{name}.{attr}" for name, attr in read
                  if not hasattr(modules[name], attr)) == []


def test_attributes_read_found():
    source = "import optoepr as oe\nx = oe.solve(1).y\noe.z = 2\nother.w\n"
    assert attributes_read(source, {"oe"}) == {("oe", "solve")}


# The cavity frequency and the mode splitting: read in params alone, the one module
# that forms absolute laser frequencies (omega_p -/+ nu + Delta_j) from the detunings
# the drive holds.
CAVITY_FREQUENCIES = ("omega_p", "nu")


def cavity_frequency_reads(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: attribute`` of every read of an attribute in :data:`CAVITY_FREQUENCIES`."""
    return sorted(f"{filename}:{node.lineno}: {node.attr}"
                  for node in ast.walk(ast.parse(source, filename))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in CAVITY_FREQUENCIES)


def test_only_params_reads_the_cavity_frequencies():
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "params.py")
    assert len(sources) > 5
    found = [line for path in sources
             for line in cavity_frequency_reads(path.read_text(), path.name)]
    assert found == []


def test_cavity_frequency_reads_found():
    source = "w = p.omega_p + p.nu\np.nu = 1.0\nfields['omega_p']\nomega_p = nu\nx = a.b.nu\n"
    assert cavity_frequency_reads(source) == ["<source>:1: nu", "<source>:1: omega_p",
                                              "<source>:5: nu"]
