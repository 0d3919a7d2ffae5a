"""Source guards. Guards must not vanish under `python -O`: the package raises
its errors with explicit checks, never with assert statements, which -O
strips. No line is longer than MAX_LINE, so a line count measures code,
not how densely it is packed. And no module imports a name it never uses."""

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



def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name `source` imports and never reads. An import
    on a `# noqa: F401` line is kept on purpose, and `from __future__`
    imports are directives."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read
    ]


def test_no_module_imports_a_name_it_never_uses():
    # an __init__.py imports names to re-export them
    files = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    assert files
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert found == [], f"imported and never used: {found}"


def test_the_unused_import_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys  # noqa: F401\n"
        "from math import pi, tau\n"
        "import numpy as np\n"
        "print(tau, np.zeros(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "pi")]
