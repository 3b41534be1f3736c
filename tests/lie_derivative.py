"""The Lie-derivative symmetry check of a vector field, a reference check
for the tests.

A field Y is a conformal symmetry of a Weyl structure when L_Y g = 2 lam g and
L_Y omega = -d lam.  The check reads the metric and 1-form jets through the
library's one-order-down set-up (``tensor._read_down``) and builds no
connection.  ``test_tensor.test_lie_derivative_reports_are_unchanged`` pins
the bits of its reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from weylrec import exprlang
from weylrec.exprlang import Expr, eval_jet
from weylrec.jets import coordinate_jets
from weylrec.tensor import (
    WeylStructure,
    _gradients,
    _read_down,
    _values,
    check_domain,
    check_signature,
    metric_jets,
    one_form_jets,
)


def first_partials(jets) -> np.ndarray:
    """array[e][...] = d_e of each jet of a nested list at the point."""
    return np.moveaxis(_values(_gradients(jets)), -1, 0)


@dataclass(frozen=True)
class LieDerivativeReport:
    lam: float
    metric_residual: float
    one_form_residual: float


def lie_derivative_check(
    structure: WeylStructure, field_components: Sequence[Union[str, Expr]], point: Sequence
) -> LieDerivativeReport:
    """Residuals of L_Y g = 2 lam g and L_Y omega = -d lam for a vector field Y.

    lam is recovered pointwise by the Frobenius fit of L_Y g against 2 g and
    its differential comes from carrying the fit through order-1 jets.  The
    metric and 1-form are read as the Weyl connection at the point reads
    them, and no connection is built: the point must satisfy the chart's
    constraints and the metric must be Lorentzian there.
    """
    chart = structure.chart
    d = chart.dim
    if len(field_components) != d:
        raise ValueError(f"field needs {d} components, got {len(field_components)}")
    check_domain(structure, point)
    metric = metric_jets(structure, point, 2)
    check_signature(_values(metric))
    one_form = one_form_jets(structure, point, 1)
    env2 = coordinate_jets(chart.names, point, 2)
    Y2 = [eval_jet(exprlang.as_expr(c), env2) for c in field_components]

    _, zero, low, partials = _read_down(metric, 1, (0, 1))
    g1 = [[low.get((a, b), zero) for b in range(d)] for a in range(d)]
    dg = [[partials.get((a, b), [zero] * d) for b in range(d)] for a in range(d)]  # dg[a][b][c] = d_c g_ab
    Y1 = [y.truncated(1) for y in Y2]
    dY = [[Y2[c].derivative(a) for a in range(d)] for c in range(d)]  # dY[c][a] = d_a Y^c

    # a product with an empty factor is empty, and adding an empty jet returns the sum as it is
    lie_g = [[zero] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            acc = zero
            for c in range(d):
                acc = acc + Y1[c] * dg[a][b][c] + g1[c][b] * dY[c][a] + g1[a][c] * dY[c][b]
            lie_g[a][b] = lie_g[b][a] = acc

    num = zero
    den = zero
    for a in range(d):
        for b in range(d):
            num = num + lie_g[a][b] * g1[a][b]
            den = den + g1[a][b] * g1[a][b]
    lam_jet = num / (2 * den)
    lam0 = float(lam_jet.value)
    dlam = np.array([float(x) for x in lam_jet.gradient()])
    res_g = float(np.linalg.norm(_values(lie_g) - 2.0 * lam0 * _values(g1)))

    # (L_Y w)_a = Y^c d_c w_a + w_c d_a Y^c
    lie_w = first_partials(one_form).T @ _values(Y1) + first_partials(Y1) @ _values(one_form)
    res_w = float(np.linalg.norm(lie_w + dlam))
    return LieDerivativeReport(lam=lam0, metric_residual=res_g, one_form_residual=res_w)
