"""The summation order of ``tensor._nabla_R_from``, pinned.

nabla_e R^d_cab = d_e R + G^d_ef R^f_cab - G^f_ec R^d_fab - G^f_ea R^d_cfb
- G^f_eb R^d_caf.  Each of the four contractions over f is an ``np.einsum``;
here each one must equal the explicit sum of its products over f in
increasing order, and the whole of nabla R the same four sums added in the
function's order, bit for bit once -0.0 is made 0.0 (``+ 0.0``).  The
checks run at catalog points and at d = 10 and 14, where R is sparse and few
sums have more than one term, and on dense random data, where any other
order changes last bits.  A rewrite that contracts over fewer f keeps every
bit only if it keeps this order, so this is the reference it must meet.
"""

import numpy as np
import pytest

from weylrec import tensor
from weylrec.catalog import make_dim_ge4, standard_catalog

SPECS = ("def,fcab->edcab", "fec,dfab->edcab", "fea,dcfb->edcab", "feb,dcaf->edcab")


def ordered_sum(spec, G, R):
    """The contraction ``spec`` of G and R as p_0 + p_1 + ... + p_{d-1}, f
    increasing, where p_f is the product with f fixed (an outer product, no sum)."""
    (left, right), out = spec.split("->")[0].split(","), spec.split("->")[1]
    acc = np.zeros((G.shape[0],) * len(out))
    for f in range(G.shape[0]):
        g, r = G.take(f, axis=left.index("f")), R.take(f, axis=right.index("f"))
        acc = acc + np.einsum(f"{left.replace('f', '')},{right.replace('f', '')}->{out}", g, r)
    return acc


def bits(array):
    return (array + 0.0).tobytes()


def connections():
    cases = []
    for key, entry in standard_catalog().items():
        for i, point in enumerate(entry.sample_points(2, 0)):
            cases.append(pytest.param(entry.structure, point, id=f"{key}-{i}"))
    for n in (8, 12):  # d = 10 and 14
        entry = make_dim_ge4("exp(t)", n, key=f"exp-d{n + 2}")
        cases.append(pytest.param(entry.structure, entry.sample_points(1, 0)[0], id=f"exp-d{n + 2}"))
    return cases


@pytest.mark.parametrize("structure,point", connections())
def test_nabla_R_sums_over_f_in_increasing_order(structure, point):
    conn = tensor.weyl_connection(structure, point, 2)
    G, R = conn.values(), conn.curvature
    terms = [ordered_sum(spec, G, R) for spec in SPECS]
    for spec, term in zip(SPECS, terms):
        assert bits(np.einsum(spec, G, R)) == bits(term), spec
    d = conn.dim
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    a, b = np.array(pairs).T
    expected = np.zeros((d,) * 5)
    rjets = conn.curvature_jets
    expected[..., a, b] = tensor._first_partials([[[rjets[i][c][p][q] for p, q in pairs] for c in range(d)] for i in range(d)])
    expected[..., b, a] = -expected[..., a, b]
    expected += terms[0]
    expected -= terms[1]
    expected -= terms[2]
    expected -= terms[3]
    assert bits(conn.nabla_R) == bits(expected)


@pytest.mark.parametrize("d", [4, 10, 14])
def test_each_contraction_sums_over_f_in_increasing_order_on_dense_data(d):
    """Dense random G and R, where any other order of the sum changes last bits."""
    rng = np.random.default_rng(d)
    G, R = rng.standard_normal((d,) * 3), rng.standard_normal((d,) * 4)
    for spec in SPECS:
        assert bits(np.einsum(spec, G, R)) == bits(ordered_sum(spec, G, R)), spec
