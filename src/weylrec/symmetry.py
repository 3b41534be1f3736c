"""Symmetry detection by linear algebra on the symmetry ODE systems, the
cohomogeneity trichotomy, and normal-form identification.

A linear combination of the five extra coordinate-form-preserving fields is a
symmetry of the one-function family exactly when its coefficient vector lies
in the kernel of a sampled linear system; the kernel dimension gives the
cohomogeneity and the kernel vector pins down the normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import exprlang, thresholds
from .catalog import _halton, _halton_start
from .exprlang import Expr
from .invariants import pair_signature_curve, psi_signature_curve
from .jets import JetPoly, coordinate_jets, derivatives_from_jet
from .tensor import numerical_rank


@dataclass(frozen=True)
class SymmetryKernel:
    dim: int
    basis: np.ndarray  # shape (dim, n_unknowns), unit rows
    singular_values: np.ndarray


def _kernel_from_rows(rows: np.ndarray) -> SymmetryKernel:
    n = rows.shape[1]
    _, sv, vt = np.linalg.svd(rows)
    rank = numerical_rank(sv, thresholds.KERNEL_SV_TOL)
    return SymmetryKernel(n - rank, vt[rank:] if rank else np.eye(n), sv)


def _default_samples(lo: float, hi: float, count: int, seed: int) -> List[float]:
    # low-discrepancy placement, seedable (same radical-inverse scheme as the catalog)
    start = _halton_start(seed, 911)
    return [lo + (hi - lo) * _halton(start + k, 2) for k in range(count)]


def _row(f: str, x: str, at: float, e: Expr, make: Callable[..., List[float]], *jets: JetPoly) -> List[float]:
    """``make`` of the values and first derivatives of ``jets`` as floats: the
    symmetry-system row of the function ``f`` (written ``e``) at ``x = at``.
    A row value that is not a finite float, also an exact one that ``float``
    refuses, is beyond the float range: a domain error, as in evaluation."""
    try:
        row = make(*(float(v) for jet in jets for v in derivatives_from_jet(jet)))
    except OverflowError:
        row = [math.inf]
    if not all(map(math.isfinite, row)):
        raise exprlang.ExprDomainError(f"the symmetry row of {f}({x}) at {x} = {at!r}: overflow", e.span)
    return row


def _psi_rows(t: float, psi_e: Expr) -> List[List[float]]:
    """The one symmetry-system row [psi', 2 t psi', 1, -2 psi, psi^2] at t."""
    jet = exprlang.eval_jet(psi_e, coordinate_jets(("t",), (t,), 1))
    return [_row("psi", "t", t, psi_e, lambda p0, p1: [p1, 2.0 * t * p1, 1.0, -2.0 * p0, p0**2], jet)]


def _pair_rows(u: float, a_e: Expr, c_e: Expr) -> List[List[float]]:
    """The two symmetry-system rows of the pair family at u."""
    env = coordinate_jets(("u",), (u,), 1)
    a, c = exprlang.eval_jet(a_e, env), exprlang.eval_jet(c_e, env)
    return [
        _row("a", "u", u, a_e, lambda a0, a1: [a1, 0.0, u * a1 + a0, u * a1 + 2.0 * a0], a),
        _row("c", "u", u, c_e, lambda a0, a1, c0, c1: [c1, a0, u * c1 + 2.0 * c0, u * c1 + c0], a, c),
    ]


def _system(
    rows_at: Callable[..., List[List[float]]], exprs: Sequence[Union[str, Expr]], points: Sequence[float]
) -> np.ndarray:
    """The sampled symmetry system: ``rows_at(p, *exprs)`` stacked over the points."""
    exprs = [exprlang.as_expr(e) for e in exprs]
    return np.array([row for p in points for row in rows_at(p, *exprs)])


def psi_symmetry_kernel(
    psi: Union[str, Expr], interval: Tuple[float, float] = (0.6, 1.8), seed: int = 0
) -> SymmetryKernel:
    """Kernel of the sampled symmetry system for the one-function family.

    A combination (a1..a5) of the five extra fields is a symmetry iff
    (a1 + 2 t a2) psi' + a5 psi^2 - 2 a4 psi + a3 = 0; each sample point
    contributes the row [psi', 2 t psi', 1, -2 psi, psi^2].
    """
    return _kernel_from_rows(_system(_psi_rows, [psi], _default_samples(*interval, thresholds.KERNEL_SAMPLES, seed)))


def kernel_3d2(
    a: Union[str, Expr], c: Union[str, Expr], interval: Tuple[float, float] = (0.5, 1.5), seed: int = 0
) -> SymmetryKernel:
    """Kernel of the sampled symmetry system for the 3D pair family.

    Unknowns (A1, A2, A3, A4); each sample point u yields two rows,
        [a', 0, u a' + a,  u a' + 2a]  and  [c', a, u c' + 2c, u c' + c].
    """
    return _kernel_from_rows(_system(_pair_rows, [a, c], _default_samples(*interval, thresholds.KERNEL_SAMPLES, seed)))


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    cohomogeneity: Optional[int]  # None for a kernel dimension that no kind has
    kind: str
    parameter: Optional[float]
    kernel: SymmetryKernel
    consistent: bool
    invariant_spread: float  # diameter of the invariant evidence curve


def _psi_kind_from_vector(v: np.ndarray) -> Tuple[str, Optional[float]]:
    """Normal-form kind from a unit kernel vector (a1, a2, a3, a4, a5).

    The translation/scaling split of the source factor is decided by a2; the
    conjugacy class of the target generator by the sign of the quadratic
    discriminant a4^2 - a3 a5 (hyperbolic / parabolic / elliptic).  The
    family parameter for Power/TanLog is the conjugation-invariant ratio
    sqrt(|a4^2 - a3 a5|) / |a2|; for Log it is the direct kernel readout
    -a3 / (2 a2) (Log normal forms keep the parabolic generator at infinity,
    so no conjugation correction applies).
    """
    a1, a2, a3, a4, a5 = (float(x) for x in v)
    disc = a4 * a4 - a3 * a5
    if abs(a2) <= thresholds.PATTERN_TOL:
        if disc > thresholds.PATTERN_TOL:
            return "Exp", None
        if disc < -thresholds.PATTERN_TOL:
            return "Tan", None
        return "Inconsistent", None  # parabolic with a2 = 0 would be the homogeneous case
    if disc > thresholds.PATTERN_TOL * (a2 * a2):
        return "Power", math.sqrt(disc) / abs(a2)
    if disc < -thresholds.PATTERN_TOL * (a2 * a2):
        return "TanLog", math.sqrt(-disc) / (2.0 * abs(a2))
    return "Log", -a3 / (2.0 * a2)


def classify_psi(
    psi: Union[str, Expr],
    interval: Tuple[float, float] = (0.6, 1.8),
    seed: int = 0,
) -> ClassificationResult:
    """Cohomogeneity and normal-form kind of a one-function structure.

    Cross-checks the kernel dimension against invariant-constancy evidence,
    the signature curve on EVIDENCE_POINTS points of the interval (constant
    invariants: a point curve); a mismatch is reported as kind
    "Inconsistent", never silently resolved.  A kernel of dimension 3 or
    more has no kind: the kind is "Inconsistent" and the cohomogeneity None.
    A curve with no evidence (every sample dropped unevaluated) makes the
    kind "Inconsistent" too.
    """
    psi = exprlang.as_expr(psi)  # parsed once for the kernel and the evidence curve
    kern = psi_symmetry_kernel(psi, interval=interval, seed=seed)
    curve = psi_signature_curve(psi, *interval, thresholds.EVIDENCE_POINTS)
    all_singular = not curve.tuples
    if kern.dim == 2:
        kind, parameter = "Homogeneous", None
        consistent = all_singular and curve.has_evidence
    elif kern.dim == 1:
        kind, parameter = _psi_kind_from_vector(kern.basis[0])
        consistent = kind != "Inconsistent" and curve.degenerate and not all_singular
    elif kern.dim == 0:
        kind, parameter = "Generic", None
        consistent = not curve.degenerate and not all_singular
    else:
        kind, parameter, consistent = "Inconsistent", None, False
    # a disagreement of kernel and invariant evidence is reported, never resolved silently
    return ClassificationResult(
        2 - kern.dim if kern.dim <= 2 else None,
        kind if consistent else "Inconsistent",
        parameter,
        kern,
        consistent,
        curve.diameter,
    )


_3D2_KINDS = {0: "Generic3D2", 1: "OneSymmetry3D2", 2: "TwoSymmetry3D2"}


def classify_3d2(
    a: Union[str, Expr],
    c: Union[str, Expr],
    interval: Tuple[float, float] = (0.5, 1.5),
    seed: int = 0,
) -> ClassificationResult:
    """Cohomogeneity (= 3 - kernel dim: the pair family has no automatic
    symmetries) and symmetry count for the 3D holonomy-2 family, cross-checked
    against the pair signature curve as in :func:`classify_psi`.  A kernel of
    dimension 3 or more has no kind: its cohomogeneity is None.  A curve with
    no evidence makes the kind "Inconsistent"."""
    a, c = exprlang.as_expr(a), exprlang.as_expr(c)
    kern = kernel_3d2(a, c, interval=interval, seed=seed)
    curve = pair_signature_curve(a, c, *interval, thresholds.EVIDENCE_POINTS)
    kind = _3D2_KINDS.get(kern.dim, "Inconsistent")
    consistent = (kern.dim == 0) == (not curve.degenerate) and kind != "Inconsistent" and curve.has_evidence
    return ClassificationResult(
        3 - kern.dim if kern.dim in _3D2_KINDS else None,
        kind if consistent else "Inconsistent",
        None,
        kern,
        consistent,
        curve.diameter,
    )


def symmetry_residual_3d1(
    F: Union[str, Expr],
    A: Union[str, Expr],
    B: Union[str, Expr],
    C0: float,
    C1: float,
    points: Sequence[Tuple[float, float]],
) -> float:
    """Residual of the candidate field A(x) d_x + B(u) d_u + (C0 + C1 v) d_v
    as a symmetry of the two-variable family:

        A F_x + B F_u + (C1 + B'(u))/2 - A'(x) = 0

    at the given (x, u) points.  (The unknowns are functions, so there is no
    finite kernel search here; candidates are user-supplied.)
    """
    F_e, A_e, B_e = exprlang.as_expr(F), exprlang.as_expr(A), exprlang.as_expr(B)
    if set(exprlang.variables_of(A_e)) - {"x"}:
        raise ValueError("A must depend only on x")
    if set(exprlang.variables_of(B_e)) - {"u"}:
        raise ValueError("B must depend only on u")
    worst = 0.0
    for x, u in points:
        Fj = exprlang.eval_jet(F_e, coordinate_jets(("x", "u"), (x, u), 1))
        fx, fu = (float(v) for v in Fj.gradient())
        Aj = exprlang.eval_jet(A_e, coordinate_jets(("x",), (x,), 1))
        Bj = exprlang.eval_jet(B_e, coordinate_jets(("u",), (u,), 1))
        A0, A1 = (float(v) for v in derivatives_from_jet(Aj))
        B0, B1 = (float(v) for v in derivatives_from_jet(Bj))
        resid = A0 * fx + B0 * fu + (C1 + B1) / 2.0 - A1
        worst = max(worst, abs(resid))
    return worst


# ----------------------------------------------------------------------
# Lie-bracket closure for polynomial vector fields
# ----------------------------------------------------------------------


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
