"""Differential invariants on jets, signature curves and the
local-equivalence decider.

The three normal forms are classified by jets of their defining functions:

* one function of one variable (dimension >= 4), up to a 6-parameter group
  (affine source, fractional-linear target, a discrete flip);
* a pair of functions of one variable (3D, holonomy 2), up to a 4-parameter
  affine group;
* one function of two variables (3D, holonomy 1), up to an
  infinite-dimensional pseudogroup.

Two structures are equivalent when their signature curves (the invariants
along the defining functions) coincide; no verb applies a group element.
A curve evaluates its jets and formulas at all of its sample points in one
pass, on jets whose coefficients are ``jets.Lanes``, one float per point
(``jets.on_lanes``), and where that pass gives None it runs the same
sampler at each point in turn, so its samples are to the bit those of the
point-by-point path.
The tests hold the invariants to the group actions on jets, which live
beside them.

All invariants are rational in the jet entries, so exact (Fraction) inputs
produce exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from . import exprlang, thresholds
from .jets import JetDomainError, JetPoly, Lanes, coordinate_jets, derivatives_from_jet, lane_values, lanes_at, on_lanes


class SingularStratumError(ValueError):
    """The jet sits on a singular stratum where the invariants are undefined."""


class OverflowSampleError(SingularStratumError):
    """A power of the jet entries overflows the float range: the invariants
    were not computed, so the sample says nothing about a stratum."""


class NotIncreasingError(ValueError):
    """psi'(t) <= 0 at the jet's base point, which lies off the one-function family's domain."""


def _sq(x):
    return x * x


def _vanishes(x, *sizes, floor: float = thresholds.SCALE_FLOOR) -> bool:
    """The singular-stratum test: |x| is at most SINGULAR_STRATUM times the
    largest of ``floor`` and the moduli of ``sizes``."""
    return abs(float(x)) <= thresholds.SINGULAR_STRATUM * max(*(abs(float(s)) for s in sizes), floor)


def _exactify(values):
    """Promote ints to Fractions so rational formulas stay exact on int jets."""
    return tuple(Fraction(v) if isinstance(v, int) else v for v in values)


class _Formula:
    """The failure rule of an invariant formula, as a ``with`` block around
    its arithmetic: a power of a jet entry that rounds to 0 (a zero divisor)
    puts the jet on the singular stratum ``stratum`` names, and a float power
    beyond the range (OverflowError) leaves the sample unevaluated."""

    def __init__(self, stratum: str):
        self.stratum = stratum

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OverflowError):
            raise OverflowSampleError("a power of the jet entries overflows the float range") from exc
        if isinstance(exc, (ZeroDivisionError, JetDomainError)):
            raise SingularStratumError(self.stratum) from exc


# ----------------------------------------------------------------------
# jets of one function of one variable
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PsiJet:
    """Raw derivatives (value, first, second, ...) of the defining function at base."""

    base: object
    derivs: Tuple[object, ...]

    def __post_init__(self):
        if len(self.derivs) < 2:
            raise ValueError("need at least a 1-jet")
        if not self.derivs[1] > 0:
            raise NotIncreasingError(
                f"the defining function must have positive derivative (got {self.derivs[1]} at t = {self.base})"
            )

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    def require(self, order: int) -> None:
        if self.order < order:
            raise ValueError(f"need a jet of order >= {order}, got {self.order}")


def psi_jet_from_expr(psi: Union[str, exprlang.Expr], t, order: int = 6) -> PsiJet:
    jet = exprlang.eval_jet(psi, coordinate_jets(("t",), (t,), order))
    return PsiJet(base=t, derivs=tuple(derivatives_from_jet(jet)))


class PsiInvariants(NamedTuple):
    I: object
    J: object
    sign_disc: int


def _discriminant(p: Sequence):
    return 2 * p[1] * p[3] - 3 * _sq(p[2])


_PSI_FORMULA = _Formula("a power of the discriminant rounds to 0 (homogeneous stratum)")


def _psi_pair(p: Sequence):
    """The two generating rational invariants, evaluated on anything with
    field arithmetic (numbers or jets)."""
    disc = _discriminant(p)
    with _PSI_FORMULA:
        num_first = p[1] * p[1] * p[4] - 4 * p[1] * p[2] * p[3] + 3 * p[2] ** 3
        first = _sq(num_first) / disc**3
        second = p[1] * (p[1] * p[1] * p[5] - 5 * p[1] * p[2] * p[4] + 5 * _sq(p[2]) * p[3]) / _sq(disc)
    return first, second, disc


def _off_stratum(jet: PsiJet, order: int) -> tuple:
    """The derivatives of a jet of order >= ``order``, ints made Fractions
    (``_exactify``); raises SingularStratumError on the D = 0 stratum."""
    jet.require(order)
    p = _exactify(jet.derivs)
    if _vanishes(_discriminant(p), p[1] * p[3], _sq(p[2])):
        raise SingularStratumError("discriminant 2 psi1 psi3 - 3 psi2^2 vanishes (homogeneous stratum)")
    return p


def psi_invariants(jet: PsiJet) -> PsiInvariants:
    """Generating invariant pair (I, J) plus the sign of the discriminant
    2 psi1 psi3 - 3 psi2^2; raises SingularStratumError on the D = 0 stratum."""
    first, second, disc = _psi_pair(_off_stratum(jet, 5))
    return PsiInvariants(first, second, 1 if disc > 0 else -1)


# ----------------------------------------------------------------------
# pairs of one-variable jets (3D, holonomy 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairJet:
    """Jets of the pair (a(u), c(u)) at a common base point."""

    base: object
    a: Tuple[object, ...]
    c: Tuple[object, ...]

    def __post_init__(self):
        if len(self.a) < 3 or len(self.c) < 3:
            raise ValueError("need at least 2-jets of both functions")

    @property
    def order(self) -> int:
        return min(len(self.a), len(self.c)) - 1


def pair_jet_from_exprs(a, c, u, order: int = 2) -> PairJet:
    env = coordinate_jets(("u",), (u,), order)
    aj = exprlang.eval_jet(a, env)
    cj = exprlang.eval_jet(c, env)
    return PairJet(base=u, a=tuple(derivatives_from_jet(aj)), c=tuple(derivatives_from_jet(cj)))


class PairInvariants(NamedTuple):
    I: object
    J: object
    K: object


_PAIR_FORMULA = _Formula("a power of a'(u) rounds to 0 (extra-symmetry stratum)")


def pair_invariants(jet: PairJet) -> PairInvariants:
    """Generating invariants of the pair action; the bare factors are read at
    order zero (a0^4, a0^5), which the scaling-invariance test pins down."""
    a, c = _exactify(jet.a), _exactify(jet.c)
    if _vanishes(a[1], a[0], a[1]):
        raise SingularStratumError("a'(u) vanishes (extra-symmetry stratum)")
    return _pair_formula(a, c)


def _pair_formula(a: Sequence, c: Sequence) -> PairInvariants:
    with _PAIR_FORMULA:
        first = (a[0] * c[1] - c[0] * a[1]) * a[0] ** 4 / a[1] ** 4
        second = a[0] * a[2] / _sq(a[1])
        third = (a[0] * c[2] - c[0] * a[2]) * a[0] ** 5 / a[1] ** 5
    return PairInvariants(first, second, third)


# ----------------------------------------------------------------------
# jets of one function of two variables (3D, holonomy 1)
# ----------------------------------------------------------------------
# variable order inside the 2-variable jets: (x, u)


def f_jet_from_expr(F, x, u, order: int = 4) -> JetPoly:
    return exprlang.eval_jet(F, coordinate_jets(("x", "u"), (x, u), order))


class SurfaceInvariants(NamedTuple):
    I: object
    J: object


# the raw partials d_x^i d_u^j F the surface invariants read: F_u, F_x, F_ux, F_uux, F_uxx, F_uuxx
_SURFACE_PARTIALS = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2))
_SURFACE_FORMULA = _Formula("a power of the mixed derivative F_ux rounds to 0")
_SURFACE_SHIFTS = ((0, 1), (1, 0))  # the directions of the derived invariants: D_u, then D_x


def _surface_partials(jet: JetPoly) -> List:
    """The raw partials of ``_SURFACE_PARTIALS`` from an order >= 4 jet in
    (x, u); raises SingularStratumError where F_ux vanishes."""
    if jet.nvars != 2 or jet.order < 4:
        raise ValueError("need an order >= 4 jet in (x, u)")
    f = [jet.partial(alpha) for alpha in _SURFACE_PARTIALS]
    fu, fx, fux = f[:3]
    if _vanishes(fux, fu, fx, fux):
        raise SingularStratumError("mixed derivative F_ux vanishes")
    return f


def _surface_first(fu, fx, fux, fuux, fuxx):
    """The first generating invariant I from the partials, evaluated on
    anything with field arithmetic (numbers or jets)."""
    return (-2 * fu * fux + fuux) * (fx * fux + fuxx) / fux**3


def surface_invariants(jet: JetPoly) -> SurfaceInvariants:
    """Generating invariants of the two-variable family (order >= 4 jet)."""
    return _surface_pair(*_surface_partials(jet))


def _surface_pair(fu, fx, fux, fuux, fuxx, fuuxx) -> SurfaceInvariants:
    with _SURFACE_FORMULA:
        second = (-2 * fu * fx * fux - 2 * fu * fuxx + fx * fuux + fuuxx) / _sq(fux)
        return SurfaceInvariants(_surface_first(fu, fx, fux, fuux, fuxx), second)


def surface_derived_pair(jet: JetPoly) -> Tuple[object, object]:
    """The derived invariants (nabla_1 I, nabla_2 I) from an order >= 4 jet.

    nabla_1 = ((F_uxx + F_x F_ux)/F_ux^2) D_u,  nabla_2 = ((F_uux - 2 F_u F_ux)/F_ux^2) D_x.
    """
    return _surface_derived(jet.partial, *_surface_partials(jet)[:5])


def _surface_derived(partial, fu, fx, fux, fuux, fuxx) -> Tuple[object, object]:
    """``surface_derived_pair`` from the raw partials: ``partial(alpha)``, and
    the first five of ``_SURFACE_PARTIALS``."""
    dI = []
    with _SURFACE_FORMULA:
        for shift in _SURFACE_SHIFTS:  # D_u, then D_x: lift the partials I reads to 1-jets along the direction
            lifted = [
                JetPoly(1, 1, (0.0,), {(0,): partial((i, j)), (1,): partial((i + shift[0], j + shift[1]))})
                for i, j in _SURFACE_PARTIALS[:5]
            ]
            dI.append(_surface_first(*lifted).coefficient((1,)))
        dI_du, dI_dx = dI
        nabla1 = (fuxx + fx * fux) / _sq(fux) * dI_du
        nabla2 = (fuux - 2 * fu * fux) / _sq(fux) * dI_dx
    return nabla1, nabla2


# ----------------------------------------------------------------------
# signature curves and the equivalence decider
# ----------------------------------------------------------------------

PSI_CURVE = "psi"
PAIR_CURVE = "pair"
SURFACE_CURVE = "surface"


@dataclass(frozen=True)
class SignatureCurve:
    kind: str
    params: Tuple  # parameter samples (numbers, or (x, u) pairs)
    tuples: Tuple[Tuple[float, ...], ...]
    signs: Tuple[int, ...]  # discriminant signs (psi kind only)
    n_singular: int  # samples dropped, on a singular stratum or not evaluated
    n_failed: int  # of those, the ones not evaluated: an overflow, a domain error or a non-finite tuple

    @property
    def has_evidence(self) -> bool:
        """Some sample was read: a tuple, or a drop on a singular stratum."""
        return bool(self.tuples) or self.n_singular > self.n_failed

    @property
    def diameter(self) -> float:
        if len(self.tuples) < 2:
            return 0.0
        out = 0.0
        dims = len(self.tuples[0])
        for k in range(dims):
            vals = [t[k] for t in self.tuples]
            out = max(out, max(vals) - min(vals))
        return out

    @property
    def scale(self) -> float:
        if not self.tuples:
            return 1.0
        return max(1.0, max(abs(v) for t in self.tuples for v in t))

    @property
    def degenerate(self) -> bool:
        """Point curve: all sampled tuples coincide up to tolerance (or all
        samples were singular)."""
        if not self.tuples:
            return True
        return self.diameter <= thresholds.DEGENERACY_TOL * self.scale


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _grid(lo: float, hi: float, count: int) -> List[float]:
    return [lo + (hi - lo) * k / max(count - 1, 1) for k in range(count)]


def _lane_curve(kind: str, points: Sequence, sample) -> SignatureCurve:
    """The curve of ``points`` from ``sample(at)``, which gives one reading per
    lane of ``at`` (a point is one lane): the invariant tuple and the
    discriminant sign or None, or None on a singular stratum.  ``sample``
    runs once on all the points in lanes (``jets.on_lanes``); where that
    gives None, it runs on each point in turn, whose drops, counts and errors
    the curve then has.  A point on a singular stratum is dropped and
    counted, and so is a point not evaluated (an overflow, a domain error or
    a non-finite tuple), which is counted apart as well."""
    readings = on_lanes(sample, points)
    params, tuples, signs, singular, failed = [], [], [], 0, 0
    for k, point in enumerate(points):
        try:
            reading = sample(point)[0] if readings is None else readings[k]
        except (OverflowSampleError, exprlang.ExprDomainError):
            failed += 1
            continue
        except SingularStratumError:
            reading = None
        if reading is None:
            singular += 1
            continue
        tup, sign = reading
        if not _finite(*tup):
            failed += 1
            continue
        params.append(point)
        tuples.append(tup)
        if sign is not None:
            signs.append(sign)
    return SignatureCurve(kind, tuple(params), tuple(tuples), tuple(signs), singular + failed, failed)


def _width(at) -> int:
    """The number of lanes of a coordinate ``at``: its Lanes', or 1 for a number."""
    return len(at.array) if type(at) is Lanes else 1


def _live_lanes(width: int, x, *sizes) -> List[int]:
    """The lanes where ``_vanishes(x, *sizes)`` is false, read lane by lane."""
    return [i for i, row in enumerate(zip(*(lane_values(v, width) for v in (x, *sizes)))) if not _vanishes(*row)]


def _read_lanes(width: int, live: List[int], values: Sequence, sign=None) -> List[Optional[tuple]]:
    """Per lane, the floats of ``values`` (on the ``live`` lanes) and the sign
    of ``sign`` if given, the reading of a sample; None off ``live``."""
    out: List[Optional[tuple]] = [None] * width
    columns = [lane_values(v, len(live)) for v in values]
    signs = lane_values(sign, len(live)) if sign is not None else [None] * len(live)
    for k, i in enumerate(live):
        out[i] = tuple(float(column[k]) for column in columns), None if sign is None else (1 if signs[k] > 0 else -1)
    return out


def psi_signature_curve(psi, lo: float, hi: float, samples: int = 64) -> SignatureCurve:
    psi = exprlang.as_expr(psi)  # parsed once, not at every sample

    def sample(t):
        p, width = _exactify(psi_jet_from_expr(psi, t, order=5).derivs), _width(t)
        live = _live_lanes(width, _discriminant(p), p[1] * p[3], _sq(p[2]))
        if not live:
            return [None] * width
        first, second, disc = _psi_pair([lanes_at(x, live) for x in p])
        return _read_lanes(width, live, (first, second), disc)

    return _lane_curve(PSI_CURVE, _grid(lo, hi, samples), sample)


def pair_signature_curve(a, c, lo: float, hi: float, samples: int = 64) -> SignatureCurve:
    a, c = exprlang.as_expr(a), exprlang.as_expr(c)

    def sample(u):
        jet = pair_jet_from_exprs(a, c, u, order=2)
        aj, cj, width = _exactify(jet.a), _exactify(jet.c), _width(u)
        live = _live_lanes(width, aj[1], aj[0], aj[1])
        if not live:
            return [None] * width
        inv = _pair_formula([lanes_at(x, live) for x in aj], [lanes_at(x, live) for x in cj])
        return _read_lanes(width, live, inv)

    return _lane_curve(PAIR_CURVE, _grid(lo, hi, samples), sample)


def surface_signature_curve(
    F, x_range: Tuple[float, float], u_range: Tuple[float, float], nx: int = 8, nu: int = 8
) -> SignatureCurve:
    F = exprlang.as_expr(F)

    def sample(point):
        jet = f_jet_from_expr(F, *point, order=4)
        read = {(i + di, j + dj) for i, j in _SURFACE_PARTIALS for di, dj in ((0, 0), *_SURFACE_SHIFTS)}
        partials = {alpha: jet.partial(alpha) for alpha in read}
        fu, fx, fux = (partials[alpha] for alpha in _SURFACE_PARTIALS[:3])
        width = _width(point[0])
        live = _live_lanes(width, fux, fu, fx, fux)
        if not live:
            return [None] * width
        partials = {alpha: lanes_at(v, live) for alpha, v in partials.items()}
        f = [partials[alpha] for alpha in _SURFACE_PARTIALS]
        return _read_lanes(width, live, (*_surface_pair(*f), *_surface_derived(partials.__getitem__, *f[:5])))

    points = [(x, u) for x in _grid(*x_range, nx) for u in _grid(*u_range, nu)]
    return _lane_curve(SURFACE_CURVE, points, sample)


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str  # "Equivalent" | "Distinct" | "Degenerate" | "Unsampled"
    hausdorff: Optional[float]
    signs: Tuple[Tuple[int, ...], Tuple[int, ...]]
    reason: str


def _hausdorff(A: Sequence[Tuple[float, ...]], B: Sequence[Tuple[float, ...]]) -> float:
    """The Hausdorff distance of two non-empty point sets, by the early break
    of Taha and Hanbury (IEEE TPAMI 2015): the scan of Q for a point p of P
    stops at the first q no farther than the largest distance found so far,
    since p cannot raise it, and starts at the q nearest the previous p, so
    that along a curve it stops at once.  The distance is the float of the
    scan of every pair."""

    def one_sided(P, Q):
        worst, start, n = 0.0, 0, len(Q)
        for p in P:
            best, nearest = math.inf, start
            for k in range(start, start + n):
                d = math.dist(p, Q[k % n])
                if d < best:
                    best, nearest = d, k % n
                if d <= worst:
                    break
            else:  # every q is farther than worst, so the nearest one raises it
                worst = best
            start = nearest
        return worst

    return max(one_sided(A, B), one_sided(B, A))


def equivalence_test(
    c1: SignatureCurve, c2: SignatureCurve, tol: float = thresholds.EQUIVALENCE_TOL
) -> EquivalenceVerdict:
    """Compare two signature curves as unparametrized subsets of invariant space.

    A curve with no evidence (``has_evidence``: every sample failed to
    evaluate) is Unsampled, and the reason names it, input 1 or 2.
    Degenerate (point) curves are never declared Equivalent here; they carry
    their discriminant signs so the caller can route them to the symmetry
    classifier.
    """
    if c1.kind != c2.kind:
        raise ValueError(f"cannot compare curves of kinds {c1.kind!r} and {c2.kind!r}")
    signs = (tuple(sorted(set(c1.signs))), tuple(sorted(set(c2.signs))))
    unsampled = " and ".join(f"input {k}" for k, curve in ((1, c1), (2, c2)) if not curve.has_evidence)
    if unsampled:
        reason = f"{unsampled}: every sample overflowed or failed to evaluate, so there is no evidence"
        return EquivalenceVerdict("Unsampled", None, signs, reason)
    if c1.degenerate or c2.degenerate:
        return EquivalenceVerdict(
            "Degenerate", None, signs, "at least one curve is a point curve; classify via symmetry kernels"
        )
    if c1.kind == PSI_CURVE and set(c1.signs).isdisjoint(set(c2.signs)):
        return EquivalenceVerdict("Distinct", None, signs, "discriminant signs differ")
    h = _hausdorff(c1.tuples, c2.tuples)
    diam = max(c1.diameter, c2.diameter)
    rel = h / diam if diam > 0 else h
    if rel <= tol:
        return EquivalenceVerdict("Equivalent", rel, signs, "signature curves coincide")
    return EquivalenceVerdict("Distinct", rel, signs, f"normalized Hausdorff distance {rel:.3e} exceeds {tol:.1e}")
