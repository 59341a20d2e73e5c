import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "instanton"


def test_package_imports_only_the_standard_library():
    """Every absolute import of the package names a standard-library module;
    relative imports stay inside the package."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_every_oracle_the_readme_names_exists():
    """Each `tests/oracles.py::name` in README.md is a top-level function or
    class of tests/oracles.py."""
    named = set(re.findall(r"tests/oracles\.py::(\w+)", (ROOT / "README.md").read_text()))
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert named
    assert sorted(named - defined) == []


_IMPORT_WHAT_EVERY_COMMAND_LOADS = """
import sys
import instanton, instanton.cli
print(*sorted(m for m in sys.modules if m.startswith("instanton.")))
print(*sorted(set(sys.argv[1:]) & set(sys.modules)))
"""


def test_import_loads_what_every_command_needs_and_no_more():
    """``import instanton, instanton.cli``, which every ``floer`` process runs,
    loads the eager modules of ``__init__`` (the benchmark's setup probes time
    that import, and its tracer reads ``floer`` and ``relations``), but not
    ``dataclasses`` with ``inspect`` and the modules they pull in, not
    ``pathlib``, and not ``acceptance``, which only ``verify`` imports.  ``-S``
    keeps whatever the host's ``site`` imports out of the measurement."""
    unwanted = ["dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy",
                "pathlib", "instanton.acceptance"]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_WHAT_EVERY_COMMAND_LOADS,
                           *unwanted], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, loaded = proc.stdout.split("\n")[:2]
    assert package.split() == ["instanton.cli", "instanton.floer", "instanton.linalg",
                               "instanton.poly", "instanton.quotient", "instanton.relations",
                               "instanton.series"]
    assert loaded == ""


_TRACE_EVERY_BOUNDARY = """
import sys
sys.path.insert(0, "perfbench")
import instanton
import layertrace
tracer = layertrace.Tracer("")
layertrace.install(tracer)
layertrace.memo_entries(tracer)
print(len(tracer.stats), tracer.extra["relations.memo.entries"])
"""


def test_the_benchmark_tracer_installs_over_every_boundary():
    """What every benchmark child does after importing the package, traced or
    not: wrap every layer boundary (each must exist and every alias of it be
    rebound) and read the memo tables.  A renamed function or a deleted memo
    dict would make every benchmark run exit 1."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _TRACE_EVERY_BOUNDARY], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "0.0"


_TRACE_THE_MODEL_WORKLOAD = """
import sys
from fractions import Fraction
sys.path.insert(0, "perfbench")
import instanton
import layertrace
import run
from instanton import floer
tracer = layertrace.Tracer("")
layertrace.install(tracer)
for g, sign, theta in run.MODEL_CASES:
    theta = None if theta == "-" else Fraction(theta)
    floer.model_for(int(g), sign, theta)
    floer.eigen_verify(int(g), sign, theta)
print(*[m for m in run._NUMERIC if not tracer.stats[m].calls])
"""


def test_the_traced_model_workload_calls_every_numeric_boundary():
    """What the traced sample of the benchmark's ``model`` workload runs, in one
    interpreter: wrap every layer boundary, then build and check each model
    case.  Each numeric boundary must record a call, or the benchmark run
    exits 1 (a call that bypasses a wrapper reads as a silent zero)."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _TRACE_THE_MODEL_WORKLOAD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_TRACE_THE_VERIFY_WORKLOAD = """
import sys
sys.path.insert(0, "perfbench")
import instanton
import layertrace
import run
from instanton import acceptance
tracer = layertrace.Tracer("")
layertrace.install(tracer)
failed = [i for i in range(1, 14) if not getattr(acceptance, f"check_a{i}")().passed]
print(*[f"A{i}:failed" for i in failed],
      *[m for m in run.EXPECTED_CALLS["verify"] if not tracer.stats[m].calls])
"""


def test_the_traced_verify_workload_calls_every_expected_boundary():
    """What the traced sample of the benchmark's ``verify`` workload runs, in
    one interpreter: wrap every layer boundary, then run A1..A13.  Each check
    must pass and each boundary of ``run.EXPECTED_CALLS["verify"]`` must record
    a call, or the benchmark run exits 1 (a path that routes around
    ``floer.graded``, ``quotient.canonical_rep`` or ``poly.flip`` reads as a
    silent zero)."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _TRACE_THE_VERIFY_WORKLOAD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_package_import_is_used():
    """Every name a module of the package imports is read somewhere in that
    module: as a name, or as the base of an attribute.  The re-exports of
    ``__init__`` and ``from __future__ import annotations`` are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []


def test_every_package_export_is_read_in_the_package():
    """Every name ``__init__`` re-exports is read, as a name or as an
    attribute, in some other module of the package: exported API that
    nothing calls is deleted."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name: node.module for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert exported
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{module}.{name}" for name, module in sorted(exported.items())
              if name not in read]
    assert unread == []


def test_every_package_function_is_read_in_the_package():
    """Every top-level function and class of the package, and every method of
    a top-level class, is read, as a name or as an attribute, somewhere in the
    package: API that nothing calls is deleted.  Dunder methods are exempt."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, item.lineno, f"{node.name}.{item.name}")
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined
    unread = [f"{name}:{line}: {qualname}" for name, line, qualname in defined
              if qualname.rpartition(".")[2] not in read]
    assert unread == []
