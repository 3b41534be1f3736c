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
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import exprlang, thresholds
from .catalog import _halton, _halton_start
from .exprlang import Expr
from .invariants import pair_signature_curve, psi_signature_curve
from .jets import JetPoly, Lanes, coordinate_jets, derivatives_from_jet, lane_values, on_lanes
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


def _row(f: str, x: str, at, e: Expr, make: Callable[..., list], *jets: JetPoly) -> list:
    """``make`` of the values and first derivatives of ``jets`` as floats: the
    symmetry-system row of the function ``f`` (written ``e``) at ``x = at``;
    for a Lanes ``at``, the rows at all its points, as one list of lane
    values per entry.  A row value that is not a finite float, also an exact
    one that ``float`` refuses, is beyond the float range: a domain error, as
    in evaluation."""
    try:
        row = make(*(v if type(v) is Lanes else float(v) for jet in jets for v in derivatives_from_jet(jet)))
    except OverflowError:
        row = [math.inf]
    if type(at) is Lanes:
        row = [lane_values(v, len(at.array)) for v in row]
        finite = bool(np.isfinite(row).all())
    else:
        finite = all(map(math.isfinite, row))
    if not finite:
        raise exprlang.ExprDomainError(f"the symmetry row of {f}({x}) at {x} = {at!r}: overflow", e.span)
    return row


def _psi_rows(t, psi_e: Expr) -> List[list]:
    """The one symmetry-system row [psi', 2 t psi', 1, -2 psi, psi^2] at t."""
    jet = exprlang.eval_jet(psi_e, coordinate_jets(("t",), (t,), 1))
    return [_row("psi", "t", t, psi_e, lambda p0, p1: [p1, 2.0 * t * p1, 1.0, -2.0 * p0, p0**2], jet)]


def _pair_rows(u, a_e: Expr, c_e: Expr) -> List[list]:
    """The two symmetry-system rows of the pair family at u."""
    env = coordinate_jets(("u",), (u,), 1)
    a, c = exprlang.eval_jet(a_e, env), exprlang.eval_jet(c_e, env)
    return [
        _row("a", "u", u, a_e, lambda a0, a1: [a1, 0.0, u * a1 + a0, u * a1 + 2.0 * a0], a),
        _row("c", "u", u, c_e, lambda a0, a1, c0, c1: [c1, a0, u * c1 + 2.0 * c0, u * c1 + c0], a, c),
    ]


def _system(
    rows_at: Callable[..., List[list]], exprs: Sequence[Union[str, Expr]], points: Sequence[float]
) -> np.ndarray:
    """The sampled symmetry system: ``rows_at(p, *exprs)`` stacked over the
    points, from one evaluation at all of them on lanes (``jets.on_lanes``).
    Where that gives None (a row that is not finite, or lanes that would
    branch apart), the rows are made point by point, and a failing row
    reports its point."""
    exprs = [exprlang.as_expr(e) for e in exprs]
    rows = on_lanes(lambda at: np.array(rows_at(at, *exprs)), points)  # (rows per point, entries, points)
    if rows is None:
        return np.array([row for p in points for row in rows_at(p, *exprs)])
    return rows.transpose(2, 0, 1).reshape(len(points) * len(rows), -1)


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
