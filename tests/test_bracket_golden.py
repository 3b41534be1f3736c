"""Golden contract for ``brackets.bracket_closure``, the tests' exact
Lie-bracket closure check: the closed flag, the exact structure constants
(``Fraction`` reprs, in their order) and the failing pairs for 52 field sets.
Twelve are the catalog's: the Killing fields, the Killing plus the five extra
fields, and the homogeneous model's fields, for n = 2..5.  Forty are random
polynomial fields, stored with their goldens.

The goldens in ``goldens/bracket_closure.json`` were recorded from the source
that defined the contract; a refactor of the jet arithmetic or of
``brackets.py`` must reproduce them exactly.  To record them again (only when
a result is meant to change), run this file as a script from the repository
root; Python puts its folder, ``tests/``, on the import path, so ``brackets``
imports::

    PYTHONPATH=src python tests/test_bracket_golden.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from weylrec import exprlang
from weylrec.catalog import killing_fields, make_homogeneous_model
from weylrec.jets import JetPoly

from brackets import bracket_closure, expr_to_poly, field_bracket
from extra_fields import extra_fields

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "bracket_closure.json"


def _chart(n: int):
    """Coordinate names of the dim n+2 forms."""
    return ("t", "v", *(f"x{i}" for i in range(1, n)), "u")


def catalog_field_sets():
    """label -> (names, fields) for the catalog's field lists, n = 2..5."""
    sets = {}
    for n in range(2, 6):
        names = _chart(n)
        killing = [comps for _, comps in killing_fields(n)]
        sets[f"killing-n{n}"] = (names, killing)
        sets[f"killing-extra-n{n}"] = (names, killing + [comps for _, comps in extra_fields(n)])
        sets[f"homogeneous-n{n}"] = (names, [comps for _, comps in make_homogeneous_model(n).symmetry_fields])
    return sets


def _random_polynomial(rng: random.Random, names, degree: int) -> str:
    """A random polynomial written with the operators the walk accepts:
    + - * / by constants, ^ by integers, unary minus and parentheses."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice(["1", "2", "3", "1/2", "(0-3)/4", "5/3", "(2-7)"])
        factors = [coeff]
        for _ in range(rng.randint(0, degree)):
            factors.append(rng.choice([rng.choice(names), f"{rng.choice(names)}^{rng.randint(0, 2)}", f"({rng.choice(names)}+1)"]))
        terms.append("*".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(["+", "-"]) + term
    return rng.choice([text, f"-({text})", f"({text})/2"])


def random_field_sets(count: int = 40, seed: int = 20221):
    """label -> (names, fields): half random polynomial fields, half rational
    combinations of catalog fields (so that some sets close)."""
    rng = random.Random(seed)
    sets = {}
    for k in range(count):
        if k % 2 == 0:
            names = tuple(rng.sample(("t", "v", "x1", "u"), rng.randint(2, 4)))
            fields = [
                tuple(rng.choice(["0", _random_polynomial(rng, names, rng.randint(1, 3))]) for _ in names)
                for _ in range(rng.randint(2, 4))
            ]
        else:
            n = rng.randint(2, 3)
            names = _chart(n)
            pool = [comps for _, comps in killing_fields(n) + extra_fields(n)]
            fields = []
            for _ in range(rng.randint(2, 4)):
                picks = rng.sample(pool, rng.randint(1, 2))
                coeffs = [rng.choice(["1", "2", "1/3", "(0-5)/2"]) for _ in picks]
                fields.append(tuple("+".join(f"({c})*({f[a]})" for c, f in zip(coeffs, picks)) for a in range(len(names))))
        sets[f"random-{k:02d}"] = (names, fields)
    return sets


def closure_record(names, fields) -> dict:
    result = bracket_closure(fields, names)
    return {
        "names": list(names),
        "fields": [list(f) for f in fields],
        "closed": result.closed,
        "structure_constants": [[i, j, [repr(c) for c in cs]] for (i, j), cs in result.structure_constants.items()],
        "failures": [list(pair) for pair in result.failures],
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_the_catalog_field_sets(goldens):
    assert len(goldens) == 52
    for label, (names, fields) in catalog_field_sets().items():
        assert goldens[label]["names"] == list(names)
        assert goldens[label]["fields"] == [list(f) for f in fields]


@pytest.mark.parametrize("label", sorted({**catalog_field_sets(), **random_field_sets()}))
def test_bracket_closure_matches_golden(goldens, label):
    want = goldens[label]
    assert closure_record(want["names"], want["fields"]) == want


def _evaluate(jet, point):
    """Value at ``point`` of the polynomial a jet at the origin holds exactly."""
    total = Fraction(0)
    for alpha, c in jet.coeffs.items():
        term = Fraction(c)
        for x, k in zip(point, alpha):
            term *= x**k
        total += term
    return total


@pytest.mark.parametrize("label", [f"random-{k:02d}" for k in range(0, 40, 5)] + ["homogeneous-n3"])
def test_bracket_agrees_with_symbolic_derivatives(goldens, label):
    """[X, Y]^a = X(Y^a) - Y(X^a), the right side from ``exprlang.derivative``
    and ``eval_number`` at rational points: exactly equal."""
    names, fields = goldens[label]["names"], goldens[label]["fields"]
    rng = random.Random(label)
    exprs = [[exprlang.parse(c) for c in f] for f in fields]
    # exact jets at the origin of one order for all components, above the sum
    # of any two fields' degrees (at most 6 each here)
    env = {name: JetPoly.variable(i, len(names), 13, (0,) * len(names)) for i, name in enumerate(names)}
    for f in exprs:
        for c in f:
            assert expr_to_poly(c, names).coeffs == exprlang.eval_jet(c, env).coeffs
    jets = [[exprlang.eval_jet(c, env) for c in f] for f in exprs]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            bracket = field_bracket(jets[i], jets[j])
            for _ in range(3):
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in names]
                env = dict(zip(names, point))
                X = [exprlang.eval_number(c, env) for c in exprs[i]]
                Y = [exprlang.eval_number(c, env) for c in exprs[j]]
                for a in range(len(names)):
                    want = sum(
                        X[b] * exprlang.eval_number(exprlang.derivative(exprs[j][a], names[b]), env)
                        - Y[b] * exprlang.eval_number(exprlang.derivative(exprs[i][a], names[b]), env)
                        for b in range(len(names))
                    )
                    assert _evaluate(bracket[a], point) == want


if __name__ == "__main__":
    cases = {**catalog_field_sets(), **random_field_sets()}
    recorded = {label: closure_record(names, fields) for label, (names, fields) in cases.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
