"""Every module-level private name of the package is used somewhere.

The walk reads the ``ast`` of each ``src/weylrec/*.py`` and collects the
private names (``_x``, not dunders) that a module defines at its top level:
functions, classes and assignment targets.  A name counts as used when some
file under ``src/``, ``tests/`` or ``benchmarks/`` reads it, outside its own
definition: as a name, an attribute, an imported name, or a dotted
``module:name`` string such as the benchmark tracer's layer table.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylrec"
MODULES = sorted(SRC.glob("*.py"))
SCANNED = sorted(p for folder in ("src", "tests", "benchmarks") for p in (ROOT / folder).rglob("*.py"))
_PATH_STRING = re.compile(r"[\w.:]+")


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module):
    """(name, defining node) of every private name bound at the top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if is_private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and is_private(sub.id):
                        yield sub.id, node


def references(tree: ast.AST, skip=()):
    """Every name ``tree`` reads, outside the subtrees in ``skip``."""
    skipped = {id(sub) for node in skip for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]
        elif isinstance(node, ast.Global):
            yield from node.names
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _PATH_STRING.fullmatch(node.value):
            yield from re.split(r"[.:]", node.value)


def _trees():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SCANNED}


TREES = _trees()
USED_ELSEWHERE = {path: set(references(tree)) for path, tree in TREES.items()}


def unreferenced_private_names(path: Path):
    """The private top-level names of ``path`` that no other definition or file reads."""
    tree = TREES[path]
    elsewhere = set().union(*(refs for p, refs in USED_ELSEWHERE.items() if p != path))
    return [
        f"{name} (line {node.lineno})"
        for name, node in private_definitions(tree)
        if name not in elsewhere and name not in set(references(tree, skip=[node]))
    ]


def test_the_walk_sees_every_folder():
    folders = {p.relative_to(ROOT).parts[0] for p in SCANNED}
    assert folders == {"src", "tests", "benchmarks"}
    assert {p.name for p in MODULES} >= {"catalog.py", "cli.py", "invariants.py", "tensor.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    unused = unreferenced_private_names(path)
    assert not unused, f"{path.name} defines private names nothing references: {', '.join(unused)}"


def test_an_unreferenced_name_is_caught():
    tree = ast.parse("_CUT = 1e-9\n_USED = 2\n\n\ndef _helper(x):\n    return _helper(x - 1) + _USED\n")
    defined = dict(private_definitions(tree))
    assert sorted(defined) == ["_CUT", "_USED", "_helper"]
    reads = set(references(tree, skip=[defined["_helper"]]))
    assert "_helper" not in reads and "_CUT" not in reads


def test_a_tracer_path_string_is_a_reference():
    assert "_curvature_jets" in set(references(ast.parse('LAYERS = ("einsteinweyl:_curvature_jets",)\n')))
