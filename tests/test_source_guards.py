"""Guards must not vanish under `python -O`: the package raises its errors
with explicit checks, never with assert statements, which -O strips."""

import ast
from pathlib import Path

import streamrl

PACKAGE = Path(streamrl.__file__).resolve().parent


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
