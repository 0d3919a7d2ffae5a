"""Source guards. Guards must not vanish under `python -O`: the package raises
its errors with explicit checks, never with assert statements, which -O
strips. And no line is longer than MAX_LINE, so a line count measures code,
not how densely it is packed."""

import ast
from pathlib import Path

import streamrl

PACKAGE = Path(streamrl.__file__).resolve().parent
MAX_LINE = 105


def test_no_assert_statements_in_the_package():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"


def test_no_line_is_longer_than_the_limit():
    long = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == [], f"lines longer than {MAX_LINE} characters: {long}"
