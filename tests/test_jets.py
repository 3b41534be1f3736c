"""Jet-arithmetic tests: truncated ring operations, composition, inversion."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from group_actions import compose_univariate, inverse_univariate, jet_from_derivatives
from tuple_jets import TupleJet, _compose as tuple_compose, _divide as tuple_divide
from weylrec import jets
from weylrec.jets import (
    JetDomainError,
    JetPoly,
    JetShapeError,
    derivatives_from_jet,
    jet_abs,
    jet_cos,
    jet_exp,
    jet_ln,
    jet_pow,
    jet_sign,
    jet_sin,
    jet_sqrt,
    jet_tan,
    taylor_indices,
)


def var(base=0, order=3, exact=False):
    b = Fraction(base) if exact else base
    return JetPoly.variable(0, 1, order, (b,))


def coeffs(j, n=None):
    n = j.order if n is None else n
    return [j.coefficient((k,)) for k in range(n + 1)]


class TestBinaryOps:
    def test_product_truncates(self):
        t = var(order=2, exact=True)
        p = (1 + t) * (1 - t)
        assert coeffs(p) == [1, 0, -1]

    def test_self_division_is_one(self):
        t = var(order=5, exact=True)
        q = (1 + t) / (1 + t)
        assert coeffs(q) == [1, 0, 0, 0, 0, 0]

    def test_geometric_series(self):
        t = var(order=3, exact=True)
        g = 1 / (1 - t)
        assert coeffs(g) == [1, 1, 1, 1]

    def test_division_by_zero_constant_term(self):
        t = var(order=2)
        with pytest.raises(JetDomainError):
            (1 + t) / t

    def test_shape_mismatch_rejected(self):
        a = JetPoly.variable(0, 1, 2, (0.0,))
        b = JetPoly.variable(0, 1, 3, (0.0,))
        with pytest.raises(JetShapeError):
            a + b
        c = JetPoly.variable(0, 1, 2, (1.0,))
        with pytest.raises(JetShapeError):
            a * c

    def test_integer_powers(self):
        t = var(base=2, order=3, exact=True)
        assert coeffs(t**3) == [8, 12, 6, 1]
        assert coeffs(t**-1) == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)]


class TestComposition:
    def test_exp_series(self):
        j = jet_exp(var(order=3))
        assert coeffs(j) == pytest.approx([1, 1, 1 / 2, 1 / 6])

    def test_tan_series_order5(self):
        # tan x = x + x^3/3 + 2 x^5/15: cross-checked by differentiating tan
        # five times by hand (1 + t^2 chain)
        j = jet_tan(var(order=5))
        assert coeffs(j) == pytest.approx([0, 1, 0, 1 / 3, 0, 2 / 15])

    def test_ln_series(self):
        j = jet_ln(1 + var(order=2, exact=True))
        assert coeffs(j)[1:] == [Fraction(1), Fraction(-1, 2)]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_ln_series_beyond_the_float_range_overflows(self, order):
        # at a subnormal c0 the first coefficient 1 / c0 is inf; at 1e-200 it is
        # finite, but the divisor c0^2 of the second rounds to 0
        with pytest.raises(OverflowError):
            jets.ln_series(1e-311, order)
        assert jets.ln_series(1e-311, 0) == [math.log(1e-311)]
        if order >= 2:
            with pytest.raises(OverflowError):
                jets.ln_series(1e-200, order)
        else:
            assert jets.ln_series(1e-200, order) == [math.log(1e-200), 1e200]

    def test_ln_of_nonpositive(self):
        with pytest.raises(JetDomainError):
            jet_ln(var(base=0, order=1))
        with pytest.raises(JetDomainError):
            jet_sqrt(var(base=-1.0, order=1))

    def test_exp_ln_roundtrip(self):
        j = JetPoly(1, 4, (0.0,), {(0,): 2.0, (1,): 0.5, (2,): -0.25, (3,): 0.125, (4,): 1.0})
        r = jet_exp(jet_ln(j))
        for k in range(5):
            assert float(r.coefficient((k,))) == pytest.approx(float(j.coefficient((k,))), abs=1e-13)

    def test_sign_and_abs_need_nonzero_value(self):
        with pytest.raises(JetDomainError):
            jet_sign(var(base=0, order=1))
        assert jet_abs(var(base=-3.0, order=1)).value == 3.0

    def test_fractional_power(self):
        j = jet_pow(var(base=4.0, order=2), 0.5)
        assert coeffs(j) == pytest.approx([2.0, 0.25, -1 / 64])

    @pytest.mark.parametrize(
        "fn,dfn",
        [
            (jet_exp, lambda j: jet_exp(j)),
            (jet_ln, lambda j: 1 / j),
            (jet_sin, lambda j: jet_cos(j)),
            (jet_cos, lambda j: -jet_sin(j)),
            (jet_tan, lambda j: 1 + jet_tan(j) * jet_tan(j)),
            (jet_sqrt, lambda j: 1 / (2 * jet_sqrt(j))),
        ],
    )
    def test_chain_rule(self, fn, dfn):
        """d/dt fn(j) = fn'(j) * j' coefficientwise."""
        j = JetPoly(1, 5, (0.0,), {(0,): 0.8, (1,): 1.3, (2,): -0.4, (3,): 0.21, (4,): 0.05, (5,): -0.3})
        left = fn(j).derivative(0)
        right = dfn(j).truncated(4) * j.derivative(0)
        for k in range(5):
            l, r = float(left.coefficient((k,))), float(right.coefficient((k,)))
            assert l == pytest.approx(r, rel=1e-12, abs=1e-12)


class TestPartials:
    def test_alpha_factorial_scaling(self):
        j = JetPoly(1, 2, (0.0,), {(0,): 1, (1,): 2, (2,): 3})
        assert j.partials() == {(0,): 1, (1,): 2, (2,): 6}

    def test_bilinear_partials(self):
        x = JetPoly.variable(0, 2, 2, (1, 1))
        u = JetPoly.variable(1, 2, 2, (1, 1))
        p = (x * u).partials()
        assert p[(1, 0)] == 1 and p[(0, 1)] == 1 and p[(1, 1)] == 1
        assert p[(2, 0)] == 0 and p[(0, 2)] == 0

    def test_third_derivative_of_exp(self):
        j = jet_exp(var(order=3))
        assert float(j.partial((3,))) == pytest.approx(1.0)


jet_coeff = st.integers(-3, 3)


@given(
    a=st.lists(jet_coeff, min_size=4, max_size=4),
    b=st.lists(jet_coeff, min_size=4, max_size=4),
    c=st.lists(jet_coeff, min_size=4, max_size=4),
)
def test_ring_axioms_exact(a, b, c):
    """Associativity and distributivity hold exactly on integer jets."""

    def mk(vals):
        return JetPoly(1, 3, (Fraction(0),), {(k,): v for k, v in enumerate(vals) if v})

    A, B, C = mk(a), mk(b), mk(c)
    idx = [(k,) for k in range(4)]
    assert all(((A * B) * C).coefficient(i) == (A * (B * C)).coefficient(i) for i in idx)
    assert all((A * (B + C)).coefficient(i) == (A * B + A * C).coefficient(i) for i in idx)
    assert all((A + (B + C)).coefficient(i) == ((A + B) + C).coefficient(i) for i in idx)


def dense_divide(num, den):
    """Graded long division over every multi-index of the jet space: the
    reference that the support-restricted division must reproduce exactly."""
    b0 = den.value
    coeffs = {}
    den_rest = [(a, c) for a, c in den.coeffs.items() if sum(a) > 0]
    for alpha in taylor_indices(num.nvars, num.order):
        acc = num.coefficient(alpha)
        for beta, cb in den_rest:
            gamma = tuple(x - y for x, y in zip(alpha, beta))
            if min(gamma) < 0:
                continue
            cg = coeffs.get(gamma)
            if cg is not None:
                acc = acc - cb * cg
        if acc == 0 and not isinstance(acc, float):
            continue
        if isinstance(acc, (int, Fraction)) and isinstance(b0, (int, Fraction)):
            coeffs[alpha] = Fraction(acc) / b0 if not isinstance(acc, Fraction) else acc / b0
        else:
            coeffs[alpha] = acc / b0
    return coeffs


@st.composite
def sparse_jet_pairs(draw):
    """Two jets in 3-5 variables, with 1 or 2 variables absent from both."""
    nvars = draw(st.integers(3, 5))
    order = draw(st.integers(0, 4))
    absent = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=2))
    present = [i for i in range(nvars) if i not in absent]
    if draw(st.booleans()):
        values = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    else:
        values = st.fractions(-4, 4, max_denominator=12)

    def jet():
        # each jet uses its own subset of the present variables
        used = draw(st.sets(st.sampled_from(present)))
        indices = [a for a in taylor_indices(nvars, order) if all(a[i] == 0 or i in used for i in range(nvars))]
        keys = draw(st.lists(st.sampled_from(indices), unique=True, max_size=len(indices)))
        return JetPoly(nvars, order, (0.5,) * nvars, {a: draw(values) for a in keys})

    return jet(), jet()


def items(jet):
    return [(a, repr(c)) for a, c in jet.coeffs.items()]


@given(sparse_jet_pairs(), st.floats(0.5, 4), st.booleans())
def test_division_matches_dense_reference(pair, b0, negative):
    num, den = pair
    coeffs = dict(den.coeffs)
    coeffs[(0,) * den.nvars] = -b0 if negative else b0
    den = JetPoly(den.nvars, den.order, den.base, coeffs)
    assert items(num / den) == [(a, repr(c)) for a, c in dense_divide(num, den).items()]


@given(sparse_jet_pairs())
def test_subtraction_matches_adding_negation(pair):
    a, b = pair
    assert items(a - b) == items(a + (-b))
    assert items(b - a) == items(b + (-a))


class TestUnivariateHelpers:
    def test_raw_derivative_roundtrip(self):
        derivs = (2.0, -1.0, 0.5, 4.0)
        assert tuple(derivatives_from_jet(jet_from_derivatives(derivs, 0.3))) == derivs

    def test_inverse_of_exp_is_log(self):
        f = jet_exp(JetPoly.variable(0, 1, 5, (0.3,)))
        inv = inverse_univariate(f)
        ref = jet_ln(JetPoly.variable(0, 1, 5, (math.exp(0.3),)))
        for k in range(6):
            assert float(inv.coefficient((k,))) == pytest.approx(float(ref.coefficient((k,))), abs=1e-12)

    def test_inverse_needs_nonzero_slope(self):
        flat = JetPoly(1, 3, (0.0,), {(0,): 1.0})
        with pytest.raises(JetDomainError):
            inverse_univariate(flat)

    def test_compose_univariate_matches_direct(self):
        inner = jet_exp(JetPoly.variable(0, 1, 5, (0.3,)))
        outer = jet_sin(JetPoly.variable(0, 1, 5, (inner.value,)))
        comp = compose_univariate(outer, inner)
        direct = jet_sin(inner)
        for k in range(6):
            assert float(comp.coefficient((k,))) == pytest.approx(float(direct.coefficient((k,))), abs=1e-12)


# ----------------------------------------------------------------------
# the product and derivative kernels against their plain loops
# ----------------------------------------------------------------------


def reference_mul(self, other):
    """The jet-by-jet product loop of ``JetPoly.__mul__`` before the
    index-sum memo, verbatim: the memoised kernel must reproduce it bit for bit."""
    order = self.order
    coeffs = {}
    for a1, c1 in self.coeffs.items():
        d1 = sum(a1)
        for a2, c2 in other.coeffs.items():
            if d1 + sum(a2) > order:
                continue
            key = tuple(x + y for x, y in zip(a1, a2))
            coeffs[key] = coeffs.get(key, 0) + c1 * c2
    for a in [a for a, c in coeffs.items() if c == 0 and not isinstance(c, float)]:
        del coeffs[a]
    return coeffs


def reference_derivative(self, index):
    """``JetPoly.derivative`` before its keys were built by slicing, verbatim."""
    coeffs = {}
    for alpha, c in self.coeffs.items():
        if alpha[index] >= 1:
            beta = list(alpha)
            beta[index] -= 1
            if sum(beta) <= self.order - 1:
                coeffs[tuple(beta)] = c * alpha[index]
    return coeffs


def exact_items(coeffs):
    """Keys in order with each coefficient's type and exact value (float bits via hex, so -0.0 != 0.0)."""
    return [(a, type(c), c.hex() if isinstance(c, float) else c) for a, c in coeffs.items()]


# small integers cancel exactly; the floats include both zeros
kernel_coeff = st.one_of(
    st.integers(-2, 2),
    st.fractions(-2, 2, max_denominator=4),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def kernel_jet_pairs(draw, min_order=0):
    """Two sparse jets of one shape: 1-5 variables, orders ``min_order``-5."""
    nvars = draw(st.integers(1, 5))
    order = draw(st.integers(min_order, 5))
    indices = taylor_indices(nvars, order)

    def jet():
        keys = draw(st.lists(st.sampled_from(indices), unique=True, max_size=min(12, len(indices))))
        return JetPoly(nvars, order, (0.5,) * nvars, {a: draw(kernel_coeff) for a in keys})

    return jet(), jet()


@given(kernel_jet_pairs())
def test_product_matches_reference_loop(pair):
    a, b = pair
    for left, right in ((a, b), (b, a), (a, a), (a, b)):  # the repeat reads the memo it filled
        assert exact_items((left * right).coeffs) == exact_items(reference_mul(left, right))


@given(kernel_jet_pairs(min_order=1), st.data())
def test_derivative_matches_reference_loop(pair, data):
    jet, _ = pair
    index = data.draw(st.integers(0, jet.nvars - 1))
    assert exact_items(jet.derivative(index).coeffs) == exact_items(reference_derivative(jet, index))


def test_product_keeps_signed_zeros_and_drops_exact_cancellations():
    x = JetPoly(2, 2, (0, 0), {(0, 0): 1, (1, 0): 1})
    y = JetPoly(2, 2, (0, 0), {(0, 0): 1, (1, 0): -1})
    assert (x * y).coeffs == {(0, 0): 1, (2, 0): -1}  # (1 + s)(1 - s): the s term cancels to int 0
    # each sum starts from int 0, so a lone -0.0 product is stored as +0.0 (and kept: it is a float)
    z = JetPoly(2, 2, (0, 0), {(0, 1): -0.0})
    assert exact_items((x * z).coeffs) == exact_items(reference_mul(x, z)) == [((0, 1), float, "0x0.0p+0"), ((1, 1), float, "0x0.0p+0")]


# ----------------------------------------------------------------------
# the position engine against the tuple-keyed engine it replaced
# ----------------------------------------------------------------------


def test_positions_are_the_graded_lex_order():
    for nvars in range(1, 7):
        table = jets._TABLES[nvars]
        for order in range(6):
            indices = taylor_indices(nvars, order)
            assert [table.intern(a) for a in indices] == list(range(len(indices)))
            assert table.below[order] == len(indices)
        assert [table.multi_index[nvars - j] for j in range(nvars)] == [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]


def test_a_key_that_is_not_a_multi_index_is_refused():
    with pytest.raises(JetShapeError):
        JetPoly(2, 3, (0, 0), {(1, 0, 0): 1.0})
    with pytest.raises(JetShapeError):
        JetPoly(2, 3, (0, 0), {(2, -1): 1.0})


def test_the_view_is_read_only_and_kept():
    jet = JetPoly(2, 2, (0, 0), {(1, 0): 2, (0, 0): 1})
    assert list(jet.coeffs.items()) == [((1, 0), 2), ((0, 0), 1)]
    assert jet.coeffs is jet.coeffs
    with pytest.raises(TypeError):
        jet.coeffs[(0, 1)] = 3


@st.composite
def multi_indices(draw, nvars, degree):
    """A multi-index in ``nvars`` variables of total degree at most ``degree``."""
    alpha = [0] * nvars
    for i in draw(st.lists(st.integers(0, nvars - 1), max_size=degree)):
        alpha[i] += 1
    return tuple(alpha)


@st.composite
def both_engines(draw):
    """(JetPoly, TupleJet) pairs of two sparse jets of one shape, 1-10
    variables and order 0-6, each pair built from one multi-index dict.  The
    keys come from a small pool, so that sums and products meet and small
    exact coefficients cancel; a key may lie one degree above the order."""
    nvars, order = draw(st.integers(1, 10)), draw(st.integers(0, 6))
    pool = draw(st.lists(multi_indices(nvars, order + 1), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        pool.append((0,) * nvars)
    base = (0.5,) * nvars

    def pair(coeffs):
        return JetPoly(nvars, order, base, coeffs), TupleJet(nvars, order, base, dict(coeffs))

    def jet():
        keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        return pair({a: draw(kernel_coeff) for a in keys})

    return jet(), jet(), pair


@given(both_engines(), st.data())
def test_position_engine_matches_the_tuple_engine(case, data):
    (a, ta), (b, tb), pair = case
    for x, tx, y, ty in ((a, ta, b, tb), (b, tb, a, ta), (a, ta, a, ta)):
        assert items(x * y) == items(tx * ty)
        assert items(x + y) == items(tx + ty)
        assert items(x - y) == items(tx - ty)
    for order in range(a.order + 1):
        assert items(a.truncated(order)) == items(ta.truncated(order))
    if a.order:
        for index in range(a.nvars):
            assert items(a.derivative(index)) == items(ta.derivative(index))
    den, tden = pair({**b.coeffs, (0,) * b.nvars: data.draw(kernel_coeff.filter(lambda c: c != 0))})
    assert items(a / den) == items(tuple_divide(ta, tden))
    series = data.draw(st.lists(kernel_coeff, min_size=a.order + 1, max_size=a.order + 1))
    assert items(jets._compose(a, series)) == items(tuple_compose(ta, series))


def test_a_product_in_24_variables_makes_only_the_positions_it_meets():
    """Order 6 in 24 variables has comb(30, 6) = 593775 multi-indices; a
    product and a quotient of sparse jets make positions for a few hundred."""
    table = jets._TABLES[24]
    before = len(table.multi_index)
    x = [JetPoly.variable(i, 24, 6, (0.5,) * 24) for i in (0, 7, 23)]
    a = x[0] * x[1] + x[2] * x[2] * x[2] + 3
    b = x[0] - x[1] * x[2] + 2
    product = a * b
    quotient = product / b
    assert len(table.multi_index) - before < 1000
    assert product.terms and quotient.terms


def test_threads_filling_one_table_get_the_tuple_engine_results(monkeypatch):
    """Six threads (more than cores) make the first positions of a fresh
    table at once, switching every microsecond; a fill that one of them lost
    would show in their products, quotients and derivatives."""
    nvars, order, base = 7, 4, (0.5,) * 7
    monkeypatch.delitem(jets._TABLES, nvars, raising=False)
    rng = random.Random(5)
    indices = taylor_indices(nvars, order)

    def coeffs(constant):
        out = {a: rng.choice([1, -1, Fraction(1, 3), 0.25, -1.5]) for a in rng.sample(indices[1:], 6)}
        return {(0,) * nvars: constant, **out}

    cases = [(coeffs(rng.choice([0, 2])), coeffs(3)) for _ in range(8)]

    def results(make, index):
        out = []
        for ca, cb in cases:
            a, b = make(nvars, order, base, ca), make(nvars, order, base, cb)
            out.append((items(a * b), items(tuple_divide(a, b) if make is TupleJet else a / b), items(a.derivative(index))))
        return out

    threads = 6
    expected = [results(TupleJet, k % nvars) for k in range(threads)]
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda k=k: got.update({k: results(JetPoly, k % nvars)})) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert [got.get(k) for k in range(threads)] == expected
