"""The depth-0 Weyl connection is built on plain numbers, and gives what the
same connection built on order-0 jets gives.

The reference below is the depth-0 pass on jets: metric jets of order 1,
their constant terms and first derivatives as order-0 jets, the 1-form as
order-0 jets, the Gauss-Jordan inverse and the Christoffel sums on jets, and
``acc * Fraction(1, 2)`` for the halving.  At every point, ``gamma``,
``levi_civita_gamma`` and ``one_form`` of ``weyl_connection(s, p, 0)`` must
be the values of the reference's jets: the same type, float bits and signed
zero (``repr`` tells them apart).  ``compatibility_residual()`` must have the
same float bits, and an error the same class and text.  A guard fails if the
compatibility check builds an order-0 jet again.
"""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylrec import jets, tensor, thresholds
from weylrec.catalog import make_dim_ge4, standard_catalog
from weylrec.exprlang import eval_jet
from weylrec.jets import JetPoly, coordinate_jets
from weylrec.tensor import Chart, Connection, SingularMetricError, make_structure

RATIONAL_ENTRIES = ("dim4-psi-linear", "dim4-psi-power2", "dim4-psi-cubic", "3d2-ew-model", "3d2-inv-u")


def reference_inverse(g):
    """Gauss-Jordan on jets with constant-term pivoting."""
    d = len(g)
    zero, one = g[0][0].like_constant(0), g[0][0].like_constant(1)
    cut = thresholds.PIVOT_SINGULAR * max(abs(float(jet.value)) for row in g for jet in row)
    aug = [list(row) + [one if i == j else zero for j in range(d)] for i, row in enumerate(g)]
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(float(aug[r][col].value)))
        if abs(float(aug[pivot_row][col].value)) <= cut:
            raise SingularMetricError("metric is singular (no usable pivot)")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = 1 / aug[col][col]
        aug[col] = [entry * inv_pivot for entry in aug[col]]
        for r in range(d):
            if r != col and aug[r][col].coeffs:
                aug[r] = [er - aug[r][col] * ec for er, ec in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def reference_connection(structure, point):
    """The depth-0 Weyl connection on order-0 jets."""
    d = structure.dim
    tensor.check_domain(structure, point)
    g = tensor.metric_jets(structure, point, 1)
    tensor.check_signature(tensor._values(g))
    env = coordinate_jets(structure.chart.names, point, 0)
    zero = JetPoly(d, 0, point)
    omega = [zero if e is None else eval_jet(e, env) for e in structure.one_form]
    g_low = [[jet.truncated(0) for jet in row] for row in g]
    ginv = reference_inverse(g_low)
    dg = [[[jet.derivative(e) if jet.coeffs else zero for e in range(d)] for jet in row] for row in g]

    gamma = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for b in range(d):
        for c in range(b, d):
            brackets = [(e, dg[e][c][b] + dg[b][e][c] - dg[b][c][e]) for e in range(d)]
            for a in range(d):
                acc = zero
                for e, bracket in brackets:
                    if bracket.coeffs and ginv[a][e].coeffs:
                        acc = acc + ginv[a][e] * bracket
                if acc.coeffs:
                    gamma[a][b][c] = gamma[a][c][b] = acc * Fraction(1, 2)
    levi_civita_gamma = [[row[:] for row in plane] for plane in gamma]
    omega_up = [zero] * d
    for a in range(d):
        for e in range(d):
            if ginv[a][e].coeffs and omega[e].coeffs:
                omega_up[a] = omega_up[a] + ginv[a][e] * omega[e]
    for a in range(d):
        for b in range(d):
            for c in range(b, d):
                k = zero
                if a == b and omega[c].coeffs:
                    k = k + omega[c]
                if a == c and omega[b].coeffs:
                    k = k + omega[b]
                if g_low[b][c].coeffs and omega_up[a].coeffs:
                    k = k - g_low[b][c] * omega_up[a]
                if k.coeffs:
                    gamma[a][b][c] = gamma[a][c][b] = gamma[a][b][c] + k
    return Connection(structure.chart, tuple(point), 0, gamma, g, omega, levi_civita_gamma)


def slots(values):
    """(type, repr) of each leaf; a jet must be of order 0 and reads as its value."""
    out = []
    for leaf in tensor._flatten(values)[1]:
        if isinstance(leaf, JetPoly):
            assert leaf.order == 0
            leaf = leaf.value
        out.append((type(leaf), repr(leaf)))
    return out


def outcome(build, structure, point):
    try:
        conn = build(structure, point)
        residual = conn.compatibility_residual()
    except Exception as exc:
        return type(exc), str(exc)
    return slots(conn.gamma), slots(conn.levi_civita_gamma), slots(conn.one_form), residual.hex()


def assert_same(structure, point):
    number = outcome(lambda s, p: tensor.weyl_connection(s, p, 0), structure, point)
    assert number == outcome(reference_connection, structure, point)
    return number


def catalog_cases():
    entries = standard_catalog()
    cases = [pytest.param(key, entry.sample_points(20, 0), id=key) for key, entry in entries.items()]
    rng = random.Random(0)
    for key in RATIONAL_ENTRIES:
        entry = entries[key]
        points = []
        for _ in range(8):  # rational points of the box, a coordinate sometimes 0
            points.append(
                tuple(
                    Fraction(rng.randint(int(16 * entry.box[n][0]), int(16 * entry.box[n][1])), 16)
                    for n in entry.structure.chart.names
                )
            )
        cases.append(pytest.param(key, points, id=f"{key}-exact"))
    return cases


@pytest.mark.parametrize("key,points", catalog_cases())
def test_catalog_points(key, points):
    structure = standard_catalog()[key].structure
    built = [assert_same(structure, p) for p in points]
    assert any(len(b) == 4 for b in built), "no point built a connection"


# small expressions in x0, x1, x2: exact and float-making ones, ones that
# cancel to an exact zero or to a float 0.0, and domain errors
_TERMS = ("0", "1/3", "2", "x0", "x1*x2", "x0-x0", "x1^2-1/4", "exp(x0)", "sin(x2)", "ln(x1)", "1/x0", "x0*x1/3")
_POINT_COORDS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, Fraction(1, 2), Fraction(-1, 3), 0.25, -0.75]),
    st.fractions(-1, 1, max_denominator=8),
    st.floats(-1, 1, allow_nan=False),
)


@st.composite
def small_structures(draw):
    """A metric near diag(-1, 1, ..., 1) in 3-9 dimensions and a sparse 1-form,
    with a point.  The terms' x0, x1, x2 name three drawn coordinates, so the
    metric's partials in the others are zero; only the rows of a drawn set
    may be nonzero off the diagonal; and the 1-form may be zero throughout."""
    d = draw(st.integers(3, 9))
    names = tuple(f"x{i}" for i in range(d))
    used = draw(st.permutations(names))
    term = st.sampled_from(_TERMS).map(lambda t: re.sub(r"x(\d)", lambda m: used[int(m.group(1))], t))
    rows = draw(st.sets(st.integers(0, d - 1)))
    entries = {}
    for i in range(d):
        entries[(names[i], names[i])] = f"{'-' if i == 0 else ''}(1+({draw(term)})/8)"
        for j in range(i + 1, d):
            if i in rows and j in rows and draw(st.booleans()):
                entries[(names[i], names[j])] = f"({draw(term)})/8"
    one_form = {n: draw(term) for n in names if draw(st.booleans())} if draw(st.booleans()) else {}
    structure = make_structure(Chart(names), entries, one_form)
    return structure, tuple(draw(_POINT_COORDS) for _ in range(d))


@settings(max_examples=300)
@given(small_structures())
def test_small_metrics(case):
    assert_same(*case)


def test_compatibility_builds_no_order0_jet(monkeypatch):
    """No JetPoly of order 0 is made under ``weyl_compatibility_residual``;
    the reference, run under the same counter, makes some.  A jet is made
    by its constructor or, from a jet operation, by ``jets._jet``."""
    entries = list(standard_catalog().values())
    made = []
    init, make = JetPoly.__init__, jets._jet

    def counting_init(self, nvars, order, base, coeffs=None):
        if order == 0:
            made.append(nvars)
        init(self, nvars, order, base, coeffs)

    def counting_make(nvars, order, base, terms):
        if order == 0:
            made.append(nvars)
        return make(nvars, order, base, terms)

    monkeypatch.setattr(JetPoly, "__init__", counting_init)
    monkeypatch.setattr(jets, "_jet", counting_make)
    for entry in entries:
        for point in entry.sample_points(3, 0):
            tensor.weyl_compatibility_residual(entry.structure, point)
    assert made == []
    reference_connection(entries[0].structure, entries[0].sample_points(1, 0)[0])
    assert made


def test_depth0_pass_follows_the_nonzero_entries():
    """The depth-0 passes enumerate nonzero entries, so their emptiness tests
    do not grow with the d^3 index space: one connection at d = 24 calls
    ``jets.exact_zero`` (the number kind's emptiness test, also called by
    the order-0 arithmetic) at most 5,000 times, against 42,492 when the
    Christoffel routine and the inverse tested every index."""
    entry = make_dim_ge4("exp(t)", 22)
    point = entry.sample_points(1)[0]
    code = jets.exact_zero.__code__
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        tensor.weyl_connection(entry.structure, point, 0)
    finally:
        sys.setprofile(previous)
    assert 0 < len(calls) <= 5000
