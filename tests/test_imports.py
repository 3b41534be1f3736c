"""Every name a module of the package or of the tests imports is used in that module.

The walk reads the ``ast`` of each ``src/weylrec/*.py`` except the package
``__init__`` (whose imports are its exports), and of each ``tests/*.py``.
A name imported on a line marked ``# noqa: F401`` is exempt: it is kept on
purpose, for a reader outside the module.

The group actions on jets are test code (``tests/group_actions.py``): no
library module defines or re-exports them.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylrec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module, lines):
    """(bound name, line) of every import outside ``from __future__``, less the exempt lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno


def used_names(tree: ast.Module):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_walk_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "invariants.py", "symmetry.py", "tensor.py", "conftest.py", "test_cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree, source.splitlines()) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from .jets import JetPoly, JetDomainError\n\nx = JetPoly\n")
    lines = ["from .jets import JetPoly, JetDomainError"]
    assert [n for n, _ in imported_names(tree, lines) if n not in used_names(tree)] == ["JetDomainError"]


def test_a_noqa_line_is_exempt():
    source = "from .tensor import _curvature_jets  # noqa: F401\n"
    assert list(imported_names(ast.parse(source), source.splitlines())) == []


# the group actions on jets and their helpers: the oracle of the invariant tests, kept in tests/group_actions.py
GROUP_ACTION_NAMES = (
    "GroupElemD4", "act_d4", "GroupElem3D2", "act_3d2", "PseudoElem3D1", "act_3d1", "_derivative_jet", "MobiusPoleError",
    "jet_from_derivatives", "compose_univariate", "inverse_univariate", "MOBIUS_POLE",
)


def test_no_library_module_exports_the_group_actions():
    for module in ("weylrec", "weylrec.invariants", "weylrec.jets", "weylrec.thresholds"):
        found = [name for name in GROUP_ACTION_NAMES if hasattr(importlib.import_module(module), name)]
        assert not found, f"{module} defines or re-exports test-only names: {', '.join(found)}"
