"""The point-by-point signature curves that ``invariants`` drew before each
curve had one sampler for a grid in lanes and for a single point, kept as
the oracle of that sampler.

Each ``sample_at`` is that curve's per-point sampler, unchanged: it builds
the point's jet and its invariants through the library's scalar entry
points (``psi_invariants``, ``pair_invariants``, ``surface_invariants`` and
``surface_derived_pair``), which raise on a singular stratum.  Each curve
runs it through ``_sampled_curve``, the curve loop the library ran them
through, on the grid the library curve draws, so the library curve, on
lanes or point by point, must give its params, tuples, signs, counts and
errors, to the bit.
"""

from typing import Sequence, Tuple

from weylrec import exprlang
from weylrec.invariants import (
    PAIR_CURVE,
    PSI_CURVE,
    SURFACE_CURVE,
    OverflowSampleError,
    SignatureCurve,
    SingularStratumError,
    _finite,
    _grid,
    f_jet_from_expr,
    pair_invariants,
    pair_jet_from_exprs,
    psi_invariants,
    psi_jet_from_expr,
    surface_derived_pair,
    surface_invariants,
)


def _sampled_curve(kind: str, points: Sequence, sample_at) -> SignatureCurve:
    """``sample_at(point)`` gives (invariant tuple, discriminant sign or None);
    a point on a singular stratum is dropped and counted, and so is a point
    not evaluated (an overflow, a domain error or a non-finite tuple), which
    is counted apart as well."""
    params, tuples, signs, singular, failed = [], [], [], 0, 0
    for point in points:
        try:
            tup, sign = sample_at(point)
        except (OverflowSampleError, exprlang.ExprDomainError):
            failed += 1
            continue
        except SingularStratumError:
            singular += 1
            continue
        if not _finite(*tup):
            failed += 1
            continue
        params.append(point)
        tuples.append(tup)
        if sign is not None:
            signs.append(sign)
    return SignatureCurve(kind, tuple(params), tuple(tuples), tuple(signs), singular + failed, failed)


def psi_curve(psi, lo: float, hi: float, samples: int = 64) -> SignatureCurve:
    psi = exprlang.as_expr(psi)

    def sample_at(t):
        inv = psi_invariants(psi_jet_from_expr(psi, t, order=5))
        return (float(inv.I), float(inv.J)), inv.sign_disc

    return _sampled_curve(PSI_CURVE, _grid(lo, hi, samples), sample_at)


def pair_curve(a, c, lo: float, hi: float, samples: int = 64) -> SignatureCurve:
    a, c = exprlang.as_expr(a), exprlang.as_expr(c)

    def sample_at(u):
        inv = pair_invariants(pair_jet_from_exprs(a, c, u, order=2))
        return (float(inv.I), float(inv.J), float(inv.K)), None

    return _sampled_curve(PAIR_CURVE, _grid(lo, hi, samples), sample_at)


def surface_curve(
    F, x_range: Tuple[float, float], u_range: Tuple[float, float], nx: int = 8, nu: int = 8
) -> SignatureCurve:
    F = exprlang.as_expr(F)

    def sample_at(point):
        jet = f_jet_from_expr(F, *point, order=4)
        inv = surface_invariants(jet)
        d1, d2 = surface_derived_pair(jet)
        return (float(inv.I), float(inv.J), float(d1), float(d2)), None

    points = [(x, u) for x in _grid(*x_range, nx) for u in _grid(*u_range, nu)]
    return _sampled_curve(SURFACE_CURVE, points, sample_at)
