"""One batch rule for lanes: only ``jets.on_lanes`` silences numpy or catches every exception.

A pass on lanes runs under ``np.errstate`` and gives None where it raises,
whatever it raises, so that its caller takes the points one by one
(``jets.on_lanes``).  The walk reads the ``ast`` of each
``src/weylrec/*.py`` and finds each ``with`` item that calls ``errstate``
and each ``except`` clause that catches every exception (``Exception``,
``BaseException`` or a bare ``except:``), by the innermost function that
holds it.  Only the batch rule may hold one: a second copy of the rule is
a second place where it can drift.  In the same way, ``cli`` calls
``on_lanes`` at one site, its point rule (``cli._each_point``), which both
of verify's passes go through, and ``catalog`` calls it at one site, its
domain probe (``catalog._probe``), which every family's probes go through.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "weylrec").glob("*.py"))
BATCH_RULE = [("jets.py", "on_lanes", "errstate"), ("jets.py", "on_lanes", "except Exception")]
CLI = ROOT / "src" / "weylrec" / "cli.py"
CATALOG = ROOT / "src" / "weylrec" / "catalog.py"


def opens_errstate(item: ast.withitem) -> bool:
    call = item.context_expr
    return isinstance(call, ast.Call) and "errstate" in (getattr(call.func, "attr", None), getattr(call.func, "id", None))


def catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names)


def batch_rules(tree: ast.AST, function: str = "<module>"):
    """(function, "errstate" or "except Exception") of each such block in
    ``tree``, by the innermost function that holds it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            yield from ((function, "errstate") for item in node.items if opens_errstate(item))
        if isinstance(node, ast.ExceptHandler) and catches_everything(node):
            yield function, "except Exception"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from batch_rules(node, inner)


def calls(tree: ast.AST, name: str, function: str = "<module>"):
    """The innermost function that holds each call of ``name`` (as ``name(...)``
    or ``module.name(...)``) in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            yield function
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from calls(node, name, inner)


def test_only_the_batch_rule_silences_numpy_or_catches_everything():
    found = [(path.name, *rule) for path in MODULES for rule in batch_rules(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(found) == sorted(BATCH_RULE)


def test_a_second_copy_is_caught():
    source = """
def on_lanes(run, points):
    try:
        with np.errstate(all="ignore"):
            return run(points)
    except Exception:
        return None

def _curve(points):
    def sample():
        with errstate(divide="ignore"):
            pass
    try:
        pass
    except (ValueError, Exception):
        pass
    try:
        pass
    except:
        raise
    try:
        pass
    except ValueError:
        pass
"""
    assert sorted(batch_rules(ast.parse(source))) == [
        ("_curve", "except Exception"),
        ("_curve", "except Exception"),
        ("on_lanes", "errstate"),
        ("on_lanes", "except Exception"),
        ("sample", "errstate"),
    ]


def test_cli_calls_on_lanes_only_in_its_point_rule():
    assert list(calls(ast.parse(CLI.read_text(encoding="utf-8")), "on_lanes")) == ["_each_point"]


def test_a_second_call_site_is_caught():
    source = """
def _each_point(path, run, points):
    lanes = on_lanes(run, points)

def _verify_checks(entry):
    def curvature(at):
        return jets.on_lanes(run, at)
    return on_lanes
"""
    assert list(calls(ast.parse(source), "on_lanes")) == ["_each_point", "curvature"]


def test_catalog_calls_on_lanes_only_in_its_probe():
    assert list(calls(ast.parse(CATALOG.read_text(encoding="utf-8")), "on_lanes")) == ["_probe"]


def test_a_second_catalog_call_site_is_caught():
    source = """
def _probe(expr, what, axes, must, box, chart=None):
    def value(at):
        return exprlang.eval_number(expr, dict(zip(axes, at)))

    lanes = on_lanes(value, grid)

def sample_box(chart, box, count, seed=0):
    return jets.on_lanes(lambda at: chart.violated(at), candidates)
"""
    assert list(calls(ast.parse(source), "on_lanes")) == ["_probe", "sample_box"]
