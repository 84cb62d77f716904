"""Rules that the library's source files keep, checked on their syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

import cubic93
import oracles


def test_no_assert_in_the_library_or_the_oracles():
    # python -O strips assert statements, and pytest rewrites only test
    # modules, so an invariant in these files must raise instead
    files = sorted(Path(cubic93.__file__).parent.glob("*.py")) + [Path(oracles.__file__)]
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(files) > 1 and asserts == []
