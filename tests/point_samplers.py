"""The point-by-point signature curves that ``invariants`` drew before each
curve had one sampler for a grid in lanes and for a single point, kept as
the oracle of that sampler.

Each ``sample_at`` is that curve's per-point sampler, unchanged: it builds
the point's jet and its invariants through the library's scalar entry
points (``psi_invariants``, ``pair_invariants``, ``surface_invariants`` and
``surface_derived_pair``), which raise on a singular stratum.  Each curve
runs it through ``invariants._sampled_curve`` on the grid the library curve
draws, so the library curve, on lanes or point by point, must give its
params, tuples, signs, counts and errors, to the bit.
"""

from typing import Tuple

from weylrec import exprlang
from weylrec.invariants import (
    PAIR_CURVE,
    PSI_CURVE,
    SURFACE_CURVE,
    SignatureCurve,
    _grid,
    _sampled_curve,
    f_jet_from_expr,
    pair_invariants,
    pair_jet_from_exprs,
    psi_invariants,
    psi_jet_from_expr,
    surface_derived_pair,
    surface_invariants,
)


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
