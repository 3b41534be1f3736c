"""Exact Lie-bracket closure of polynomial vector fields, a reference check
for the tests.

Each component is turned into an exact ``JetPoly`` at the origin, whose Taylor
coefficients are its monomial coefficients, so the brackets use the same jet
arithmetic as the library; a bracket is then solved for in the span of the
fields over the rationals.  ``goldens/bracket_closure.json`` pins every
result (``test_bracket_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from weylrec import exprlang
from weylrec.exprlang import Expr
from weylrec.jets import JetPoly, coordinate_jets


def _degree(node: Expr, names: Sequence[str]) -> int:
    """A bound on the degree of a polynomial Expr in ``names``; raises
    ValueError on anything that is not a polynomial."""
    if isinstance(node, exprlang.Const):
        return 0
    if isinstance(node, exprlang.Var):
        if node.name not in names:
            raise ValueError(f"unknown coordinate {node.name!r}")
        return 1
    if isinstance(node, exprlang.Neg):
        return _degree(node.operand, names)
    if isinstance(node, exprlang.BinOp):
        if node.op == "^":
            if not isinstance(node.right, exprlang.Const) or Fraction(node.right.value).denominator != 1:
                raise ValueError("only integer powers in polynomial fields")
            if node.right.value < 0:
                raise ValueError("negative powers are not polynomial")
            return int(node.right.value) * _degree(node.left, names)
        if node.op == "/":
            if list(expr_to_poly(node.right, names).coeffs) != [(0,) * len(names)]:
                raise ValueError("division only by constants in polynomial fields")
            return _degree(node.left, names)
        left, right = _degree(node.left, names), _degree(node.right, names)
        return left + right if node.op == "*" else max(left, right)
    raise ValueError(f"not a polynomial expression: {exprlang.to_source(node)}")


def expr_to_poly(e: Union[str, Expr], names: Sequence[str]) -> JetPoly:
    """Exact polynomial form of an Expr: its jet at the origin of ``names``,
    of order the degree bound, whose Taylor coefficients are the monomial
    coefficients; raises ValueError if the Expr is not a polynomial."""
    e = exprlang.as_expr(e)
    return exprlang.eval_jet(e, coordinate_jets(names, (0,) * len(names), _degree(e, names)))


@dataclass(frozen=True)
class BracketClosure:
    closed: bool
    structure_constants: Dict[Tuple[int, int], Tuple[Fraction, ...]]
    failures: Tuple[Tuple[int, int], ...]


def field_bracket(X: Sequence[JetPoly], Y: Sequence[JetPoly]) -> List[JetPoly]:
    """[X, Y]^a = X^b d_b Y^a - Y^b d_b X^a for polynomial fields whose
    components are exact jets of one order k at the origin; the bracket has
    order k - 1 and is exact when k is at least the sum of the two fields'
    degrees."""
    n = len(X)
    X_low = [x.truncated(x.order - 1) for x in X]
    Y_low = [y.truncated(y.order - 1) for y in Y]
    out = []
    for a in range(n):
        acc = X_low[a].like_constant(0)
        for b in range(n):
            acc = acc + X_low[b] * Y[a].derivative(b) - Y_low[b] * X[a].derivative(b)
        out.append(acc)
    return out


def bracket_closure(
    fields: Sequence[Sequence[Union[str, Expr]]],
    names: Sequence[str],
) -> BracketClosure:
    """Pairwise Lie brackets of polynomial vector fields, expanded exactly and
    expressed in the span; non-representable brackets are flagged."""
    exprs = [[exprlang.as_expr(comp) for comp in f] for f in fields]
    top = max((_degree(comp, names) for f in exprs for comp in f), default=0)
    # the brackets, of order 2 top, hold degree 2 top - 1 whole
    env = coordinate_jets(names, (0,) * len(names), 2 * top + 1)
    polys = [[exprlang.eval_jet(comp, env) for comp in f] for f in exprs]

    # collect all monomial slots appearing anywhere (fields and brackets)
    brackets = {}
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            brackets[(i, j)] = field_bracket(polys[i], polys[j])
    slots = set()
    for f in [*polys, *brackets.values()]:
        for a, comp in enumerate(f):
            slots.update((a, k) for k in comp.coeffs)
    slots = sorted(slots)
    index = {s: i for i, s in enumerate(slots)}

    def vectorize(f: Sequence[JetPoly]) -> List[Fraction]:
        v = [Fraction(0)] * len(slots)
        for a, comp in enumerate(f):
            for k, val in comp.coeffs.items():
                v[index[(a, k)]] = Fraction(val)
        return v

    basis_vecs = [vectorize(f) for f in polys]
    constants: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    failures: List[Tuple[int, int]] = []
    for key, br in brackets.items():
        target = vectorize(br)
        sol = _solve_exact(basis_vecs, target)
        if sol is None:
            failures.append(key)
        else:
            constants[key] = tuple(sol)
    return BracketClosure(closed=not failures, structure_constants=constants, failures=tuple(failures))


def _solve_exact(basis: List[List[Fraction]], target: List[Fraction]) -> Optional[List[Fraction]]:
    """Solve sum_k x_k basis[k] = target exactly over the rationals, or None."""
    m = len(target)
    n = len(basis)
    # augmented columns: basis vectors as columns
    A = [[basis[k][r] for k in range(n)] + [target[r]] for r in range(m)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, m) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        pv = A[row][col]
        A[row] = [x / pv for x in A[row]]
        for r in range(m):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if A[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = A[r][n]
    # verify (columns without pivots default to zero)
    for r in range(m):
        acc = sum((sol[k] * basis[k][r] for k in range(n)), Fraction(0))
        if acc != target[r]:
            return None
    return sol
