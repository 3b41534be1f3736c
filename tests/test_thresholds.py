"""Every cut-off of a verdict is a row of ``thresholds.py``, and every row
is read.

The walk reads the ``ast`` of each ``src/weylrec/*.py`` and fails on a float
literal x with 0 < |x| < 1e-2 anywhere but in the table: such a value is a
tolerance, and a tolerance written in place is one the table does not show.
It also fails on a row that no other module reads, as ``thresholds.NAME`` or
by ``from .thresholds import NAME``: such a row decides nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylrec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "thresholds.py")


def small_float_literals(tree: ast.AST):
    """(value, line) of every float literal of modulus in (0, 1e-2)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-2:
            yield node.value, node.lineno


def table_rows():
    tree = ast.parse((SRC / "thresholds.py").read_text(encoding="utf-8"))
    return [target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets]


def rows_read(tree: ast.AST):
    """The table rows ``tree`` reads, by attribute or by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "thresholds":
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "thresholds":
            yield from (alias.name for alias in node.names)


def test_the_walk_sees_every_module():
    assert {p.name for p in MODULES} >= {"catalog.py", "cli.py", "invariants.py", "symmetry.py", "tensor.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_outside_the_table(path):
    found = [f"{value!r} (line {line})" for value, line in small_float_literals(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"{path.name} writes tolerances in place; make them rows of thresholds.py: {', '.join(found)}"


def test_a_small_literal_is_caught():
    tree = ast.parse("ok = abs(x) <= 1e-9 * max(1.0, s) and y > -2.5e-3 and z > 0.01\n")
    assert [value for value, _ in small_float_literals(tree)] == [1e-9, 2.5e-3]


def test_the_table_holds_only_named_constants():
    """No import, no code: one unique upper-case name per row."""
    tree = ast.parse((SRC / "thresholds.py").read_text(encoding="utf-8"))
    body = [node for node in tree.body if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert all(isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) for node in body)
    names = table_rows()
    assert all(name.isupper() for name in names) and len(set(names)) == len(names)


def test_every_row_has_a_reader():
    read = {name for path in MODULES for name in rows_read(ast.parse(path.read_text(encoding="utf-8")))}
    unread = [name for name in table_rows() if name not in read]
    assert "HOLONOMY_RANK_TOL" in table_rows()
    assert not unread, f"thresholds.py rows that no module reads: {', '.join(unread)}"


def test_both_kinds_of_read_are_seen():
    tree = ast.parse("from .thresholds import TAN_POLE\nok = x <= thresholds.METRIC_SINGULAR * other.NO_CURVATURE\n")
    assert sorted(rows_read(tree)) == ["METRIC_SINGULAR", "TAN_POLE"]
