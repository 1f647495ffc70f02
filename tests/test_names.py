"""Every module-level function and class of the package has a caller.

A name counts as used where the program refers to it: as a name, an
attribute, an import, or a string (the lazy-import tables and the
benchmark's patch points name functions in strings). Public names, those
in ``bter.__all__``, need no caller. Each of those patch points must also
still resolve to an attribute of the program. And no module of the package
imports dataclasses, whose generated code every command would pay for at
start-up.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import bter

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "benchmark")


def _references(tree: ast.AST) -> Counter:
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(set(node.value.split(".")))
    return found


def test_every_module_level_name_has_a_caller():
    used: Counter = Counter()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            used += _references(ast.parse(path.read_text(encoding="utf-8")))
    public = set(bter.__all__)
    dead = []
    for path in sorted((ROOT / "src" / "bter").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in public or (name.startswith("__") and name.endswith("__")):
                continue
            # a reference inside the definition itself (recursion) is no caller
            if used[name] - _references(node)[name] <= 0:
                dead.append(f"{path.stem}.{name}")
    assert dead == [], f"defined but never used: {dead}"


def test_no_module_imports_dataclasses():
    # each dataclass execs generated methods as its module is imported,
    # about 1 ms a class, which every command would pay at start-up; the
    # package's records are NamedTuples
    found = []
    for path in sorted((ROOT / "src" / "bter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"modules that import dataclasses: {found}"


def _benchmark_tracing():
    name = "benchmark_tracing"
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmark" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are made
    with mock.patch.dict(sys.modules, {name: module}):
        spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points_resolve():
    # the benchmark replaces these attributes by name; a renamed or deleted
    # one would otherwise surface only when the benchmark's own tests run
    tracing = _benchmark_tracing()
    missing = []
    for module, path, *_ in tracing.PATCH_POINTS + tracing.PEAK_POINTS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == [], f"benchmark patch points that do not resolve: {missing}"
