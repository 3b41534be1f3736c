"""Symmetrized Ricci curvature of the Weyl connection and the Einstein-Weyl
residuals, including the independent second-order check on the metric
potential for the 3D holonomy-2 family (a dispersionless-PDE residual that
bypasses the tensor pipeline entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import exprlang
from .catalog import THREED_CASE2
from .jets import coordinate_jets
from .tensor import Connection, PointTensor, WeylStructure, weyl_connection
from .tensor import _curvature_jets  # noqa: F401  (a name benchmarks/test_tracer.py reads here)


def ricci_sym(structure: WeylStructure, point: Sequence) -> PointTensor:
    """Symmetrized Ricci tensor Ric_(ab) of the Weyl connection.

    Ric_{cb} = R^a_{cab}; the Weyl connection's Ricci tensor is not symmetric
    in general, so the symmetric part is taken explicitly.
    """
    return PointTensor(_ricci_sym(weyl_connection(structure, point, 1).curvature))


def _ricci_sym(R: np.ndarray) -> np.ndarray:
    ric = np.einsum("abad->bd", R)
    return 0.5 * (ric + ric.T)


@dataclass(frozen=True)
class EWReport:
    lam: float  # best-fit proportionality factor against the metric
    residual: float  # Frobenius norm of Ric_sym - lam * g
    dkp_residual: Optional[float]  # second-order potential residual (3D holonomy-2 inputs)


def dkp_residual(H, point_vxu: Sequence) -> float:
    """2 H_vu + H_xx - (H H_v)_v from an order-2 jet of the potential H(v, x, u).

    This is the integrability form of the Einstein-Weyl condition for metrics
    2dvdu + (dx)^2 + H (du)^2 with 1-form H_v du; it is evaluated directly
    from H and so cross-checks the curvature pipeline.
    """
    Hj = exprlang.eval_jet(H, coordinate_jets(("v", "x", "u"), point_vxu, 2))
    H0 = float(Hj.value)
    Hv = float(Hj.partial((1, 0, 0)))
    Hvv = float(Hj.partial((2, 0, 0)))
    Hvu = float(Hj.partial((1, 0, 1)))
    Hxx = float(Hj.partial((0, 2, 0)))
    return 2.0 * Hvu + Hxx - (Hv * Hv + H0 * Hvv)


def ew_residual(structure: WeylStructure, point: Sequence) -> EWReport:
    """Einstein-Weyl deviation at a point.

    lam is the orthogonal projection <Ric_sym, g> / <g, g> (robust to
    coordinate scaling); the residual is |Ric_sym - lam g|.  For the 3D
    holonomy-2 family the potential residual is evaluated independently.
    """
    return ew_report(structure, weyl_connection(structure, point, 1))


def ew_report(structure: WeylStructure, conn: Connection) -> Union[EWReport, List[EWReport]]:
    """:func:`ew_residual` read from the Weyl connection of ``structure`` at a
    point, of depth >= 1; at a point in lanes, one report per lane, as the
    connection's own readers give (``Connection._read_curvature``)."""

    def report(point, R, g):
        ric = _ricci_sym(R)
        denom = float(np.sum(g * g))
        lam = float(np.sum(ric * g)) / denom
        residual = float(np.sqrt(np.sum((ric - lam * g) ** 2)))
        dkp = None
        if structure.family == THREED_CASE2:
            i_u = structure.chart.index("u")
            H_expr = structure.metric[i_u][i_u]
            if H_expr is not None:
                dkp = dkp_residual(H_expr, point)
            else:
                dkp = 0.0
        return EWReport(lam=lam, residual=residual, dkp_residual=dkp)

    return conn._read_curvature(report, conn.metric)
