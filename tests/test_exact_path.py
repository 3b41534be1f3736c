"""Exact jets on cleared denominators (``jets._exact_product``,
``jets._exact_quotient``): who takes them, what they give, what they read.

* Float and Lanes base points never enter the integer loops: ``verify``
  runs with the helpers replaced by ones that record the call and raise.
* At one rational point of two polynomial structures, the ``repr`` of every
  exact Christoffel and curvature coefficient, and ``recurrence_theta``'s
  report, hash to the digests the Fraction loops gave before the integer
  loops existed.
* ``src/weylrec`` reads no private attribute of ``Fraction``: its internals
  differ between the Python versions the package supports.
"""

import ast
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from weylrec import jets, tensor
from weylrec.catalog import make_dim_ge4, standard_catalog
from weylrec.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "weylrec").glob("*.py"))
EXACT_HELPERS = ("_cleared", "_exact_product", "_exact_quotient")


@pytest.mark.parametrize("key", ["dim4-psi-cubic", "3d2-inv-u"])
def test_float_and_lane_points_never_enter_the_integer_loops(tmp_path, monkeypatch, key):
    entered = []

    def refuse(name):
        def helper(*args):
            entered.append(name)
            raise AssertionError(f"{name} at a float or Lanes base point")

        return helper

    for name in EXACT_HELPERS:
        monkeypatch.setattr(jets, name, refuse(name))
    path = str(tmp_path / f"{key}.json")
    assert main(["catalog", "emit", key, path]) == 0
    assert main(["verify", path, "--samples", "6"]) == 0
    assert entered == []


# ----------------------------------------------------------------------
# the pin: sha256 of the text below, recorded with the Fraction loops
# ----------------------------------------------------------------------

PSI_CUBIC_D6 = make_dim_ge4("t^3+t", 4)  # chart (t, v, x1, x2, x3, u)
INV_U = standard_catalog()["3d2-inv-u"]  # chart (v, x, u)
EXACT_POINTS = {
    "psi=t^3+t d=6": (PSI_CUBIC_D6, (Fraction(5, 4), Fraction(1, 3), Fraction(-1, 2), Fraction(1, 4), Fraction(2, 3), Fraction(3, 4))),
    "3d2-inv-u": (INV_U, (Fraction(1, 3), Fraction(3, 4), Fraction(5, 4))),
}
EXACT_DIGESTS = {
    "psi=t^3+t d=6": "e401cddf26e721908810ebd5eb8d9f10912d93de70758cc4ff4d305bbe336291",
    "3d2-inv-u": "5bbbf26c14d620bd821d0461deedad94525c5b682364da1d3b013cdb3f331183",
}


def exact_text(entry, point) -> str:
    """One line per coefficient of the Christoffel and curvature jets of the
    connections that ``recurrence_theta`` builds at jet orders 3 and 5, and
    one per report."""
    lines = []
    for order in (3, 5):
        conn = tensor.weyl_connection(entry.structure, point, order - 1)
        jets_in_order = [("gamma", (f, e, a), conn.gamma[f][e][a]) for f in range(conn.dim) for e in range(conn.dim) for a in range(conn.dim)]
        jets_in_order += [("R", slot, jet) for slot, jet in conn.curvature_jets.items()]
        for what, index, jet in jets_in_order:
            lines += [f"{order} {what} {index} {alpha} {c!r}" for alpha, c in jet.coeffs.items()]
        report = vars(tensor.recurrence_theta(entry.structure, point, jet_order=order))
        lines.append(f"{order} report {dict(report, theta=report['theta'].tolist())!r}")  # every bit of theta
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(EXACT_POINTS))
def test_exact_coefficients_and_reports_are_pinned(name):
    entry, point = EXACT_POINTS[name]
    text = exact_text(entry, point)
    assert "Fraction(" in text
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_DIGESTS[name]


# ----------------------------------------------------------------------
# Fraction's public interface only
# ----------------------------------------------------------------------

PRIVATE_FRACTION_ATTRIBUTES = {"_numerator", "_denominator"}


def private_fraction_reads(tree: ast.AST):
    """(line, name) of each read of a private Fraction attribute in ``tree``:
    ``x._numerator`` or ``x._denominator``, any ``Fraction._name``, and
    either name as a string (``getattr(x, "_numerator")``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            on_fraction = isinstance(node.value, ast.Name) and node.value.id == "Fraction"
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            if node.attr in PRIVATE_FRACTION_ATTRIBUTES or (on_fraction and private):
                yield node.lineno, node.attr
        if isinstance(node, ast.Constant) and node.value in PRIVATE_FRACTION_ATTRIBUTES:
            yield node.lineno, node.value


def test_the_package_reads_no_private_fraction_attribute():
    found = [(path.name, *read) for path in MODULES for read in private_fraction_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_a_private_fraction_read_is_caught():
    source = """
def _cleared(terms):
    den = 1
    for c in terms.values():
        den = math.lcm(den, c._denominator)
    return [c._numerator * (den // c.denominator) for c in terms.values()], den

def fast(n, d):
    return Fraction._from_coprime_ints(n, d), getattr(n, "_numerator"), Fraction.__new__, n.numerator
"""
    assert sorted(private_fraction_reads(ast.parse(source))) == [
        (5, "_denominator"),
        (6, "_numerator"),
        (9, "_from_coprime_ints"),
        (9, "_numerator"),
    ]
