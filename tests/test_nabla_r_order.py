"""The summation order of ``tensor._nabla_R_from``, pinned.

nabla_e R^d_cab = d_e R + G^d_ef R^f_cab - G^f_ec R^d_fab - G^f_ea R^d_cfb
- G^f_eb R^d_caf.  ``tensor._contractions`` computes each of the four
contractions over f only where a nonzero G entry meets a nonzero R entry;
here each one must equal, bit for bit, the explicit sum of its products over
f in increasing order, and the whole of nabla R the same four sums added in
the function's order to d_e R.  The checks run at catalog points, at d = 10
and 14, where R is sparse and few sums have more than one term, and on random
G and R with random zero patterns, where any other order changes last bits.

The dense ``np.einsum`` contractions that nabla R was computed with before
sum in the same order on dense data (the last test), so the sparse sums keep
the bits of the dense ones.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weylrec import tensor
from weylrec.catalog import make_dim_ge4, standard_catalog

from dense_curvature import dense_curvature_jets
from lie_derivative import first_partials

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


def contraction_arrays(G, R):
    """The four sums of ``tensor._contractions`` as dense (e, d, c, a, b) arrays, 0.0 off their entries."""
    arrays = []
    for sums in tensor._contractions(G, R):
        array = np.zeros((len(G),) * 5)
        array.flat[list(sums)] = list(sums.values())
        arrays.append(array)
    return arrays


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
    for spec, term, array in zip(SPECS, terms, contraction_arrays(G, R)):
        assert array.tobytes() == term.tobytes(), spec
    d = conn.dim
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    a, b = np.array(pairs).T
    expected = np.zeros((d,) * 5)
    rjets = dense_curvature_jets(conn)
    expected[..., a, b] = first_partials([[[rjets[i][c][p][q] for p, q in pairs] for c in range(d)] for i in range(d)])
    expected[..., b, a] = -expected[..., a, b]
    expected += terms[0]
    expected -= terms[1]
    expected -= terms[2]
    expected -= terms[3]
    assert conn.nabla_R.tobytes() == expected.tobytes()


@st.composite
def sparse_operands(draw):
    """G (d, d, d) and R (d, d, d, d) at d = 3-10: random values, some of them
    from a few small numbers so that sums cancel exactly, a random share of
    entries zero, some of them -0.0, and whole slices along each axis zero."""
    d = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = (0.02, 0.1, 0.4, 1.0)
    g_density = draw(st.sampled_from(densities))
    # keep the expected products (4 d^6 of them when both are dense) to a test's budget
    r_density = draw(st.sampled_from([p for p in densities if 4 * d**6 * g_density * p <= 2e5]))
    small = draw(st.sampled_from([0.0, 0.3, 1.0]))  # the share of values from the few small numbers
    operands = []
    for shape, density in (((d,) * 3, g_density), ((d,) * 4, r_density)):
        values = rng.standard_normal(shape)
        values = np.where(rng.random(shape) < small, rng.choice([-1.0, -0.5, 0.5, 1.0], shape), values)
        values[rng.random(shape) >= density] = 0.0
        values[rng.random(shape) < 0.05] = -0.0
        for axis in range(len(shape)):
            for f in draw(st.sets(st.integers(0, d - 1), max_size=2)):
                np.moveaxis(values, axis, 0)[f] = 0.0
        operands.append(values)
    return tuple(operands)


@given(sparse_operands())
def test_each_sparse_contraction_sums_over_f_in_increasing_order(operands):
    G, R = operands
    for spec, array in zip(SPECS, contraction_arrays(G, R)):
        assert array.tobytes() == ordered_sum(spec, G, R).tobytes(), spec


@pytest.mark.parametrize("d", [4, 10, 14])
def test_each_contraction_sums_over_f_in_increasing_order_on_dense_data(d):
    """Dense random G and R, where any other order of the sum changes last bits."""
    rng = np.random.default_rng(d)
    G, R = rng.standard_normal((d,) * 3), rng.standard_normal((d,) * 4)
    for spec in SPECS:
        assert bits(np.einsum(spec, G, R)) == bits(ordered_sum(spec, G, R)), spec
