"""Source guards. Guards must not vanish under `python -O`: the package raises
its errors with explicit checks, never with assert statements, which -O
strips. No line is longer than MAX_LINE, so a line count measures code,
not how densely it is packed. And no module imports a name it never uses."""

import ast
import subprocess
from collections import Counter
from pathlib import Path

import pytest

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


def scoped_matches(source: str, matches) -> list[tuple[int, str]]:
    """(line, enclosing def/class path) of each AST node of `source` for
    which `matches(node)` holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((child.lineno, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(source), "")
    return found


def grid_moves_reads(source: str) -> list[tuple[int, str]]:
    """(line, enclosing def/class path) of each place `source` reads
    GRID_MOVES: by name, as a module attribute, or in an import."""
    return scoped_matches(source, lambda node: (
        isinstance(node, ast.Name) and node.id == "GRID_MOVES" and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "GRID_MOVES"
        or isinstance(node, ast.alias) and node.name == "GRID_MOVES"))


def test_grid_moves_is_read_only_where_the_move_table_is_built():
    """GridScene.moves, built by _move_table, is the one gridworld movement
    rule; a second rule that does its own GRID_MOVES arithmetic cannot come
    back unseen."""
    reads = {
        (path.relative_to(PACKAGE).as_posix(), scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for _, scope in grid_moves_reads(path.read_text())
    }
    assert reads == {("envs.py", ".GridScene._move_table")}


def test_the_grid_moves_scan_finds_what_it_should():
    source = (
        "from .envs import GRID_MOVES\n"
        "from . import envs\n"
        "GRID_MOVES = ((0, 1),)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return envs.GRID_MOVES, GRID_MOVES[0]\n"
    )
    assert grid_moves_reads(source) == [(1, ""), (6, ".A.f"), (6, ".A.f")]


def moves_reads(source: str) -> list[tuple[int, str]]:
    """Where `source` subscripts an attribute named `moves` (`x.moves[...]`)."""
    return scoped_matches(source, lambda node: isinstance(node, ast.Subscript)
                          and isinstance(node.value, ast.Attribute) and node.value.attr == "moves")


def test_the_move_table_is_read_only_by_the_grid_step_rule():
    """GridWorld._advance is the one grid step rule: GridWorld.step, its lane
    kernel and TaskStreamEnv.step all call it. The only other reader is the
    scene's own reachability walk, which takes whole rows."""
    reads = {
        (path.relative_to(PACKAGE).as_posix(), scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for _, scope in moves_reads(path.read_text())
    }
    assert reads == {("envs.py", ".GridWorld._advance"), ("envs.py", ".GridScene._reachable")}


def test_the_cart_pole_equations_are_written_once():
    """_cartpole_step holds the cart-pole equations; CartPole.step, its lane
    kernel and cartpole_derivatives call it, so a second copy of the physics
    cannot come back unseen."""
    texts = {path.relative_to(PACKAGE).as_posix(): path.read_text()
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert [name for name, text in texts.items() for _ in range(text.count("math.sin("))] == ["envs.py"]
    trig = {(name, scope) for name, text in texts.items() for _, scope in scoped_matches(
        text, lambda node: isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
        and isinstance(node.value, ast.Name) and node.value.id == "math")}
    assert trig == {("envs.py", "._cartpole_step")}


def test_the_moves_scan_finds_what_it_should():
    source = (
        "class G:\n"
        "    def f(self, scene):\n"
        "        return scene.moves[0][1], self.moves, moves[2]\n"
        "def g(env):\n"
        "    return env.scene.moves[(0, 0)]\n"
    )
    assert moves_reads(source) == [(3, ".G.f"), (5, ".g")]


NDARRAY_REDUCTIONS = ("sum", "max", "cumsum", "mean", "all")


def method_reductions(source: str) -> list[tuple[int, str]]:
    """(line, enclosing def/class path) of each `.sum(`, `.max(`, `.cumsum(`,
    `.mean(` or `.all(` call in `source`. numpy runs the ndarray methods
    .sum, .max, .mean and .all through a Python-level wrapper before the ufunc."""
    return scoped_matches(source, lambda node: isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr in NDARRAY_REDUCTIONS)


def test_the_a2c_acting_step_and_losses_call_numpy_reductions_as_ufuncs():
    """The A2C sampler and update, and the softmax and losses they call, reduce
    with np.maximum.reduce, np.add.reduce and np.add.accumulate: the same IEEE
    operations as the ndarray methods, without their per-call wrapper."""
    a2c = (PACKAGE / "training" / "a2c.py").read_text()
    assert method_reductions(a2c) == []
    nn = [scope for _, scope in method_reductions((PACKAGE / "nn.py").read_text())]
    assert not set(nn) & {"._softmax_parts", ".policy_losses", ".mse_loss"}


def test_the_reduction_scan_finds_what_it_should():
    source = (
        "def f(x):\n"
        "    return x.sum(axis=1), np.add.reduce(x), sum(x), x.max()\n"
        "class A:\n"
        "    def g(self, y):\n"
        "        return (y * y).mean() + y.cumsum().all(), y.argmax()\n"
    )
    assert method_reductions(source) == [(2, ".f"), (2, ".f"), (5, ".A.g"), (5, ".A.g"), (5, ".A.g")]


def discounted_recursions(source: str) -> list[tuple[int, str]]:
    """Where `source` assigns `acc = <term> + <factor> * acc` (any names): a
    discounted recursion, as the n-step returns run."""
    def matches(node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Add)):
            return False
        name = node.targets[0].id
        return any(isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                   and any(isinstance(side, ast.Name) and side.id == name
                           for side in (term.left, term.right))
                   for term in (node.value.left, node.value.right))
    return scoped_matches(source, matches)


def test_the_nstep_recursion_is_written_once():
    """compute_nstep_returns and A2cStrategy.apply_update share _nstep_returns,
    so a second copy of the return recursion cannot come back unseen."""
    found = [
        (path.relative_to(PACKAGE).as_posix(), scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for _, scope in discounted_recursions(path.read_text())
    ]
    assert found == [("training/a2c.py", "._nstep_returns")]


def test_the_recursion_scan_finds_what_it_should():
    source = (
        "def f(rewards, gamma):\n"
        "    acc = 0.0\n"
        "    for r in rewards:\n"
        "        acc = r + gamma * acc\n"
        "        total = gamma * total + r\n"
        "        other = r + gamma * acc\n"
        "    return acc\n"
    )
    assert discounted_recursions(source) == [(4, ".f"), (5, ".f")]


def literal_comparisons(source: str) -> list[tuple[int, str]]:
    """(line, enclosing def/class path) of each ==, !=, in or not in comparison
    in `source` with a str constant on either side, alone or in a tuple, list
    or set literal: the test an if/elif kind ladder is made of."""
    def text(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                or isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(map(text, node.elts)))

    return scoped_matches(source, lambda node: isinstance(node, ast.Compare)
                          and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                                  for op in node.ops)
                          and any(map(text, (node.left, *node.comparators))))


def test_the_config_walk_selects_every_kind_by_table_lookup():
    """cli.py picks each config kind (generator, env, strategy, plugin and the
    one-key choices) by one lookup in its table, whose keys also write the
    "choose from" message, so a hand-kept kind ladder cannot come back unseen.
    main's subcommand dispatch and the module's __main__ check read no config."""
    found = [(line, scope) for line, scope in literal_comparisons((PACKAGE / "cli.py").read_text())
             if scope not in ("", ".main")]
    assert found == []


def test_the_literal_comparison_scan_finds_what_it_should():
    source = (
        "def walk(section, other):\n"
        "    kind = section.get('env')\n"
        "    if kind == 'gridworld' or 'map' in section:\n"
        "        return 1\n"
        "    elif kind in ('cartpole', 'bandit') or kind != other:\n"
        "        return 2\n"
        "    return TABLE[kind] if kind is not None and 'x' < kind else 0\n"
        "class Main:\n"
        "    def main(self, args):\n"
        "        return args.command == 'run' or ['eval'] != args.rest\n"
    )
    assert literal_comparisons(source) == [
        (3, ".walk"), (3, ".walk"), (5, ".walk"), (10, ".Main.main"), (10, ".Main.main")]


# the commit before the shared argument checks of checks.py
BEFORE_SHARED_CHECKS = "ac614bbfd8a17580d2e09695d4bf6d6a96e2e831"
CHECK_MODULES = ("checks.py", "cli.py")


def hand_written_checks(source: str) -> list[tuple[int, str]]:
    """(line, mark) of each import of `numbers` in `source` and each
    isinstance(..., bool) test, bool alone or in a tuple of types: the two
    marks of an argument check written out by hand."""
    def bool_test(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(t, ast.Name) and t.id == "bool" for t in types)

    def numbers_import(node):
        return (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "numbers")

    return sorted((node.lineno, "import numbers" if numbers_import(node) else "isinstance bool")
                  for node in ast.walk(ast.parse(source)) if numbers_import(node) or bool_test(node))


def test_argument_checks_go_through_the_checks_module():
    """checks.count and checks.finite hold the count and finite-number rules;
    cli.py keeps its schema checks, which report key paths."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {mark}"
        for path in sorted(PACKAGE.rglob("*.py")) if path.name not in CHECK_MODULES
        for line, mark in hand_written_checks(path.read_text())
    ]
    assert found == [], f"hand-written argument checks; call streamrl.checks instead: {found}"


def test_the_hand_written_check_scan_finds_what_it_should():
    source = (
        "import math, numbers\n"
        "from numbers import Integral\n"
        "def f(x):\n"
        "    if isinstance(x, bool) or not isinstance(x, (int, float)):\n"
        "        return isinstance(x, (np.bool_, bool)) or type(x) is bool\n"
    )
    assert hand_written_checks(source) == [
        (1, "import numbers"), (2, "import numbers"), (4, "isinstance bool"), (5, "isinstance bool")]


def test_the_hand_written_check_scan_finds_the_copies_the_checks_module_replaced():
    root = PACKAGE.parent.parent
    listed = subprocess.run(["git", "-C", str(root), "ls-tree", "-r", "--name-only",
                             BEFORE_SHARED_CHECKS, "src/streamrl"], capture_output=True, text=True,
                            timeout=60)
    if listed.returncode != 0:
        pytest.skip(f"no git history with commit {BEFORE_SHARED_CHECKS[:7]} here")
    found = Counter()
    for name in listed.stdout.split():
        if name.endswith(".py") and Path(name).name not in CHECK_MODULES:
            source = subprocess.run(["git", "-C", str(root), "show", f"{BEFORE_SHARED_CHECKS}:{name}"],
                                    capture_output=True, text=True, check=True, timeout=60).stdout
            found.update((name.removeprefix("src/streamrl/"), mark)
                         for _, mark in hand_written_checks(source))
    assert {name: n for (name, mark), n in found.items() if mark == "import numbers"} == {
        "training/dqn.py": 1, "plugins.py": 1, "envs.py": 1, "task_stream.py": 1}
    assert sum(n for (_, mark), n in found.items() if mark == "isinstance bool") == 7
