"""Rules that the repository keeps: on the library's syntax trees, on its
size, and on the files that git tracks."""

from __future__ import annotations

import ast
import doctest
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cubic93
import mutants
import oracles

PACKAGE = Path(cubic93.__file__).resolve().parent
# what building, testing and running leave behind (see .gitignore)
BUILD_ARTIFACT = re.compile(
    r"(^|/)(__pycache__|[^/]*\.egg-info|\.pytest_cache|\.hypothesis)/|^perfbench/out/|\.pyc$"
)


def test_no_assert_in_the_library_or_the_oracles():
    # python -O strips assert statements and turns __debug__ off, and pytest
    # rewrites only test modules, so an invariant in these files must raise
    # instead, and no code there may run differently under -O; it raises
    # ArithmeticError, which the CLI maps to exit 2, never AssertionError
    files = sorted(PACKAGE.glob("*.py")) + [Path(oracles.__file__)]
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id in ("__debug__", "AssertionError"))
    ]
    assert len(files) > 1 and found == []


def test_only_one_helper_switches_the_cyclic_collector():
    # the collector's state is process-wide, so one function owns the switch:
    # classifier.scan, which restores what it found
    switches = {"disable", "enable", "freeze", "collect"}
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "scan" and path.name == "classifier.py"
        ]
        in_helper = {id(node) for fn in helper for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in switches
            ):
                (inside if id(node) in in_helper else outside).append(
                    f"{path.name}:{node.lineno}: gc.{node.attr}"
                )
            elif (isinstance(node, ast.ImportFrom) and node.module == "gc") or (
                isinstance(node, ast.Import)
                and any(a.name == "gc" and a.asname for a in node.names)
            ):
                outside.append(f"{path.name}:{node.lineno}: imports gc by another name")
    assert outside == []
    assert [entry.split(": ")[1] for entry in inside] == ["gc.disable", "gc.enable"]
    assert {entry.split(":")[0] for entry in inside} == {"classifier.py"}


def test_source_stays_below_2400_lines_and_62_public_names():
    # lines as `wc -l` counts them; names in a fresh `python -S` process,
    # since this one has also imported the cli submodule
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    names = subprocess.run(
        [sys.executable, "-S", "-c",
         "import cubic93; print(len([k for k in vars(cubic93) if not k.startswith('_')]))"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, encoding="utf-8", timeout=120, check=True,
    )
    assert lines < 2400
    assert int(names.stdout) <= 62


def test_every_mutant_applies_once_and_names_tests_that_exist():
    # tests/mutants.py runs for minutes, so a stale entry, one whose old
    # text is gone or whose named test is, shows up here first
    root = Path(__file__).resolve().parents[1]
    defined: dict[str, set[str]] = {}
    stale = []
    for mutant in mutants.MUTANTS:
        try:
            mutants.mutated(mutant)
        except ValueError as exc:
            stale.append(f"{mutant.name}: {exc}")
        for node_id in mutant.tests:
            path, _, name = node_id.partition("::")
            if path not in defined:
                tree = ast.parse((root / path).read_text(encoding="utf-8"))
                defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            if name.split("[")[0] not in defined[path]:
                stale.append(f"{mutant.name}: no test {node_id}")
    assert mutants.MUTANTS
    assert stale == []


def test_perfbench_clears_every_cache_that_import_cubic93_can_reach():
    # perfbench's measure.py collects the cache_clear callables once, right
    # after `import cubic93`, and empties them before every timed pass; a
    # cache in a submodule that the package imports only later would stay
    # warm from the second pass on, so the two sets must be the same
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (
        "import importlib, json, pkgutil, sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import cubic93\n"
        "from measure import library_caches\n"
        "def names():\n"
        "    return sorted(f'{f.__module__}.{f.__qualname__}' for f in library_caches())\n"
        "first = names()\n"
        "for m in pkgutil.iter_modules(cubic93.__path__):\n"
        "    importlib.import_module(f'cubic93.{m.name}')\n"
        "print(json.dumps([first, names()]))\n"
    )
    caches = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, encoding="utf-8", timeout=120, check=True,
    )
    first, every = json.loads(caches.stdout)
    assert first == every
    assert {"cubic93.eisenstein.factor_rational_prime", "cubic93.genus.period_polynomial"} <= set(first)


def test_the_readme_library_sketch_runs_as_shown():
    # the README's >>> lines are a doctest, so a result that changes fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert result.failed == 0 and result.attempted >= 10


def test_the_cli_imports_no_dataclasses_inspect_or_importlib_resources():
    # a CLI query's wall time is mostly import: dataclasses pulls in inspect,
    # importlib.resources pulls in tempfile and shutil, and the package needs
    # neither (its records are named tuples, its table a plain file)
    heavy = ("dataclasses", "inspect", "importlib.resources")
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, cubic93.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, encoding="utf-8", timeout=120, check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_git_tracks_no_build_artifacts():
    root = Path(__file__).resolve().parents[1]
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--is-inside-work-tree"],
        capture_output=True, encoding="utf-8", timeout=120,
    )
    if inside.stdout.strip() != "true":
        pytest.skip(f"{root} is not a git work tree")
    tracked = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z"],
        capture_output=True, encoding="utf-8", timeout=120, check=True,
    ).stdout.split("\0")
    assert [path for path in tracked if BUILD_ARTIFACT.search(path)] == []
