"""Lane-batched signature curves and symmetry systems.

A curve evaluates all of its sample points in one pass on ``jets.LANES``,
one float64 lane per point, and falls back to sampling point by point where
that pass raises.  Either way its samples, drops and counts are to the bit
those of the point-by-point path, ``_sampled_curve`` with ``sample_at``:
these tests run both on drawn expressions and grids, and on the grids that
force the fallback, through the library and through the CLI.
"""

import dataclasses
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylrec import exprlang, invariants, symmetry
from weylrec.catalog import standard_catalog
from weylrec.cli import main
from weylrec.exprlang import BinOp, Const, Var, parse
from weylrec.invariants import _hausdorff, pair_signature_curve, psi_signature_curve, surface_signature_curve
from weylrec.jets import LANES, JetPoly, LaneSplit, Lanes, coordinate_jets, lane_values

from hausdorff_scan import hausdorff_scan
from test_exprlang import _REPEATING_TREES, _children


def point_by_point(kind, points, sample_lanes, sample_at):
    """``invariants._lane_curve`` without its lanes: every point through ``sample_at``."""
    return invariants._sampled_curve(kind, points, sample_at)


def outcome(curve, *args):
    """The curve's params, tuples (as float.hex), signs and counts, or its error's class and text."""
    try:
        c = curve(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return c.kind, c.params, [tuple(map(float.hex, t)) for t in c.tuples], c.signs, c.n_singular, c.n_failed


def lanes_and_points(curve, *args):
    """``outcome`` on lanes, and point by point."""
    batched = outcome(curve, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_lane_curve", point_by_point)
        return batched, outcome(curve, *args)


def renamed(expr, names):
    """``expr`` with each variable ``v`` renamed ``names[v]``, a shared object kept shared."""
    done = {}

    def walk(node):
        if id(node) not in done:
            if isinstance(node, Var):
                done[id(node)] = dataclasses.replace(node, name=names[node.name])
            else:
                done[id(node)] = dataclasses.replace(node, **{f: walk(c) for f, c in _children(node).items()})
        return done[id(node)]

    return walk(expr)


# grid ends at 0.0, at the float nearest a tan pole, at the ln domain edge and
# at the tan(ln t) pole, and widths that put 0.0 on the grid (-1:2, 4 samples)
EDGES = (0.0, -1.0, 1.0, math.pi / 2, -math.pi / 2, math.exp(math.pi / 2), 1e-300, 0.6)
LO = st.one_of(st.sampled_from(EDGES), st.floats(-4, 4))
WIDTH = st.one_of(st.sampled_from((3.0, 1.0, 2.0, math.pi, 1.2)), st.floats(0.01, 5))


def trees(names, generic):
    """The grammar's trees in the variables ``names`` maps to, drawn bare or
    as ``generic + tree / 8``, which most grids sample off the singular strata."""
    bare = _REPEATING_TREES.map(lambda e: renamed(e, names))
    return st.one_of(bare, bare.map(lambda e: BinOp("+", parse(generic), BinOp("/", e, Const(8)))))


PSI_TREES = trees({"t": "t", "u": "t", "w": "t"}, "t^3+4*t")
U_TREES = trees({"t": "u", "u": "u", "w": "u"}, "u^3+2*u")
XU_TREES = trees({"t": "x", "u": "u", "w": "x"}, "x*u+x^2*u^3")


class TestCurvesMatchThePointByPointPath:
    @settings(max_examples=300)
    @given(psi=PSI_TREES, lo=LO, width=WIDTH, samples=st.integers(1, 9))
    @example(psi=parse("exp(t)"), lo=-1.0, width=3.0, samples=4)  # t = 0.0 on the grid
    @example(psi=parse("t^3+t"), lo=-1.0, width=3.0, samples=4)
    @example(psi=parse("t*t+t"), lo=-1.0, width=3.0, samples=4)  # psi' < 0 at t = -1
    @example(psi=parse("tan(t)"), lo=math.pi / 2, width=1.0, samples=5)  # a pole on the grid
    @example(psi=parse("tan(t)"), lo=1.0, width=1.0, samples=6)  # a pole between samples
    @example(psi=parse("3*ln(t)"), lo=-1.0, width=3.0, samples=4)  # ln undefined, ln(1) = 0
    @example(psi=parse("exp(400*t)"), lo=0.1, width=0.4, samples=8)  # an overflow at some samples
    @example(psi=parse("t+1e-110*t^3"), lo=0.5, width=1.0, samples=4)  # every sample singular
    @example(psi=parse("(t-1)^3+t"), lo=0.0, width=2.0, samples=3)  # a constant term 0.0 on one lane
    def test_psi(self, psi, lo, width, samples):
        batched, pointwise = lanes_and_points(psi_signature_curve, psi, lo, lo + width, samples)
        assert batched == pointwise

    @settings(max_examples=300)
    @given(a=U_TREES, c=U_TREES, lo=LO, width=WIDTH, samples=st.integers(1, 9))
    @example(a=parse("1/u"), c=parse("2/u^2"), lo=-1.0, width=2.0, samples=3)  # a pole at u = 0.0
    @example(a=parse("exp(460*u)"), c=parse("u"), lo=1.2, width=0.3, samples=11)  # an overflow at some samples
    @example(a=parse("u^2"), c=parse("u"), lo=-1.0, width=2.0, samples=5)  # a' = 0 at u = 0.0 only
    def test_pair(self, a, c, lo, width, samples):
        batched, pointwise = lanes_and_points(pair_signature_curve, a, c, lo, lo + width, samples)
        assert batched == pointwise

    @settings(max_examples=300)
    @given(F=XU_TREES, x=LO, u=LO, width=WIDTH, nx=st.integers(1, 4), nu=st.integers(1, 4))
    @example(F=parse("x*u*u"), x=0.2, u=-1.0, width=2.0, nx=3, nu=3)  # F_ux = 2 u vanishes at u = 0.0 only
    @example(F=parse("x*(u-1)^2"), x=0.2, u=0.5, width=1.5, nx=4, nu=4)  # and at u = 1.0, on lanes
    @example(F=parse("(1/2)*ln(u-x)"), x=0.2, u=0.0, width=1.0, nx=3, nu=3)  # ln undefined where u <= x
    def test_surface(self, F, x, u, width, nx, nu):
        batched, pointwise = lanes_and_points(surface_signature_curve, F, (x, x + width), (u, u + width), nx, nu)
        assert batched == pointwise


class TestTheCatalogRunsOnLanes:
    """The curves the CLI draws for the catalog entries take the lanes, not the fallback."""

    @staticmethod
    def sampled_by(monkeypatch):
        used = []
        sampled = invariants._sampled_curve

        def spy(kind, points, sample_at):
            used.append(sample_at.__name__)
            return sampled(kind, points, sample_at)

        monkeypatch.setattr(invariants, "_sampled_curve", spy)
        return used

    @pytest.mark.parametrize("key", [k for k, e in standard_catalog().items() if {"psi"} <= set(e.params)])
    def test_psi_entries(self, monkeypatch, key):
        used = self.sampled_by(monkeypatch)
        psi_signature_curve(standard_catalog()[key].params["psi"], *standard_catalog()[key].box["t"], 64)
        assert used == ["read"]

    @pytest.mark.parametrize("key", ["3d2-ew-model", "3d2-inv-u", "3d2-generic"])
    def test_pair_entries(self, monkeypatch, key):
        entry = standard_catalog()[key]
        used = self.sampled_by(monkeypatch)
        pair_signature_curve(entry.params["a"], entry.params["c"], *entry.box["u"], 64)
        assert used == ["read"]

    @pytest.mark.parametrize("key", ["3d1-homog", "3d1-xu"])
    def test_surface_entries(self, monkeypatch, key):
        entry = standard_catalog()[key]
        used = self.sampled_by(monkeypatch)
        surface_signature_curve(entry.params["F"], entry.box["x"], entry.box["u"], 8, 8)
        assert used == ["read"]

    def test_a_singular_point_is_dropped_on_lanes(self, monkeypatch):
        used = self.sampled_by(monkeypatch)
        curve = surface_signature_curve("x*(u-1)^2", (0.2, 1.0), (0.5, 2.0), 4, 4)  # F_ux = 0 at u = 1.0
        assert (used, curve.n_singular, curve.n_failed, len(curve.tuples)) == (["read"], 4, 0, 12)

    def test_a_zero_on_the_grid_falls_back(self, monkeypatch):
        """t = 0.0 on the grid: the variable's constant term is dropped at that
        point only, which one pass on lanes cannot follow."""
        used = self.sampled_by(monkeypatch)
        psi_signature_curve("t^3+t", -1.0, 2.0, 4)
        assert used == ["sample_at"]


# ----------------------------------------------------------------------
# the hard grids, through the CLI: stdout, stderr and exit code as point by point
# ----------------------------------------------------------------------

PSI_BOX = {"t": [0.6, 1.8], "u": [0.1, 1.2]}
HARD_GRIDS = [
    pytest.param("dim_ge4", {"psi": "exp(t)"}, ["--range", "-1:2", "--samples", "4"], id="zero-on-grid-exp"),
    pytest.param("dim_ge4", {"psi": "t^3+t"}, ["--range", "-1:2", "--samples", "4"], id="zero-on-grid-cubic"),
    pytest.param("dim_ge4", {"psi": "t*t+t"}, ["--range", "-1:2", "--samples", "4"], id="zero-on-grid-quadratic"),
    pytest.param(
        "dim_ge4",
        {"psi": "tan(t)", "box": {"t": [0.5, 1.2], "u": [0.2, 1.2]}},
        ["--range", f"{math.pi / 2!r}:2.5", "--samples", "5"],
        id="tan-pole-on-grid",
    ),
    pytest.param(
        "dim_ge4", {"psi": "tan(t)", "box": {"t": [0.5, 1.2], "u": [0.2, 1.2]}}, ["--range", "1:2", "--samples", "6"],
        id="tan-pole-in-range",
    ),
    pytest.param(
        "dim_ge4", {"psi": "3*ln(t)", "box": {"t": [0.8, 1.9], "u": [1.0, 2.0]}}, ["--range", "-1:2", "--samples", "4"],
        id="ln-domain-edge",
    ),
    pytest.param(
        "dim_ge4", {"psi": "3*ln(t)", "box": {"t": [0.8, 1.9], "u": [1.0, 2.0]}}, ["--range", "0:1.5", "--samples", "7"],
        id="ln-domain-edge-at-the-start",
    ),
    pytest.param("dim_ge4", {"psi": "exp(400*t)"}, ["--range", "0.1:0.5", "--samples", "8"], id="overflow-at-some-samples"),
    pytest.param("dim_ge4", {"psi": "t*t+t"}, ["--range", "-2:1", "--samples", "9"], id="psi-prime-not-positive"),
    pytest.param(
        "threed_case1", {"F": "x*u*u", "box": {"x": [0.2, 1.0], "u": [-1.0, 2.0]}}, ["--samples", "16"],
        id="surface-singular-at-some-points",  # F_ux = 2 u vanishes on the grid line u = 0.0
    ),
    pytest.param(
        "threed_case1", {"F": "x*(u-1)^2", "box": {"x": [0.2, 1.0], "u": [0.5, 2.0]}}, ["--samples", "16"],
        id="surface-singular-on-lanes",  # F_ux vanishes on the grid line u = 1.0, no coordinate is 0.0
    ),
    pytest.param(
        "threed_case1", {"F": "x*u*u", "box": {"x": [0.2, 1.0], "u": [-1.0, 2.0]}}, ["--samples", "9"],
        id="surface-regular-grid",
    ),
]


def structure_file(tmp_path, family, fields):
    payload = {"format": 1, "family": family, **({"n": 2, "box": PSI_BOX} if family == "dim_ge4" else {}), **fields}
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def cli_run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("family,fields,flags", HARD_GRIDS)
@pytest.mark.parametrize("verb", ["signature", "equiv"])
def test_a_hard_grid_reads_as_point_by_point(tmp_path, capsys, monkeypatch, family, fields, flags, verb):
    path = structure_file(tmp_path, family, fields)
    argv = [verb, path, *([path] if verb == "equiv" else []), *flags]
    batched = cli_run(capsys, argv)
    monkeypatch.setattr(invariants, "_lane_curve", point_by_point)
    assert batched == cli_run(capsys, argv)


# ----------------------------------------------------------------------
# lanes arithmetic: each lane is the float Python computes
# ----------------------------------------------------------------------


class TestLanes:
    VALUES = [1.5, -0.0, 3.0e-310, 1e308, -2.25, math.pi]

    @pytest.mark.parametrize(
        "other", [Fraction(1, 3), 3, -7, 0.1, Fraction(-5, 2), 2**60 + 1], ids=lambda v: f"{type(v).__name__}-{v}"
    )
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_an_exact_operand_meets_the_lanes_as_python_floats(self, op, other):
        for left, right in ((Lanes(self.VALUES), other), (other, Lanes(self.VALUES))):
            if op is operator.truediv and right is not other:
                continue  # the lanes hold a zero divisor
            with np.errstate(all="ignore"):  # 1e308 * 3 is inf, as in Python, where numpy also warns
                out = op(left, right)
            assert out.array.dtype == np.float64
            expected = [op(x, other) if left is not other else op(other, x) for x in self.VALUES]
            assert list(map(float.hex, out.array.tolist())) == list(map(float.hex, expected))

    def test_an_exact_operand_beyond_the_float_range_raises_as_for_a_float(self):
        with pytest.raises(OverflowError):
            Lanes([1.0]) * 10**400
        with pytest.raises(OverflowError):
            Fraction(10**400) + Lanes([1.0])

    def test_a_zero_divisor_on_any_lane_raises(self):
        with pytest.raises(ZeroDivisionError):
            Lanes([1.0, 2.0]) / Lanes([1.0, 0.0])
        with pytest.raises(ZeroDivisionError):
            1 / Lanes([-0.0, 2.0])
        with pytest.raises(ZeroDivisionError):
            Lanes([1.0]) / Fraction(0)

    def test_integer_powers_run_per_lane_in_python(self):
        xs = [1.0 + k / 997 for k in range(2000)]
        assert (Lanes(xs) ** 3).array.tolist() == [x**3 for x in xs]
        with pytest.raises(OverflowError):
            Lanes([2.0, 1e200]) ** 2

    def test_a_test_answers_only_when_every_lane_agrees(self):
        assert (Lanes([1.0, 2.0]) > 0) is True
        assert bool(Lanes([-1.0, 2.0])) is True
        assert bool(Lanes([0.0, -0.0])) is False
        with pytest.raises(LaneSplit):
            Lanes([1.0, -1.0]) > 0
        with pytest.raises(LaneSplit):
            bool(Lanes([1.0, 0.0]))  # the order-0 rules ask "if not b": a zero on some lanes

    def test_equality_asks_whether_every_lane_is_equal(self):
        assert (Lanes([0.0, -0.0]) == 0) is True
        assert (Lanes([1.0, 0.0]) == 0) is False
        assert (Lanes([1.0, 0.0]) != 0) is True
        assert Lanes([1.0, 2.0]) == Lanes([1.0, 2.0])
        with pytest.raises(TypeError):
            Lanes([1.0]) == Fraction(1, 3)  # a float is never compared with a rounded Fraction

    def test_a_zero_on_some_lanes_takes_no_branch(self):
        """Where the scalar jets drop a zero (a product by 0.0, a constant 0.0,
        a base point 0.0) at some points only, the lanes raise."""
        t = JetPoly.variable(0, 1, 2, (Lanes([1.0, 2.0]),))
        with pytest.raises(LaneSplit):
            t * Lanes([0.0, 1.0])
        with pytest.raises(LaneSplit):
            t.like_constant(Lanes([0.0, 1.0]))
        with pytest.raises(LaneSplit):
            JetPoly.variable(0, 1, 2, (Lanes([0.0, 1.0]),))
        with pytest.raises(LaneSplit):
            1 / (t - 1)  # a zero divisor at t = 1 only
        assert (t * Lanes([0.0, -0.0])).terms == {}

    def test_no_lanes_value_is_a_float(self):
        with pytest.raises(TypeError):
            float(Lanes([1.0]))

    def test_numpy_defers_to_the_lanes(self):
        out = np.float64(2.0) * Lanes([1.5])
        assert isinstance(out, Lanes) and out.array.tolist() == [3.0]

    @pytest.mark.parametrize(
        "source", ["t^3+t", "tan(ln(t))", "exp(t)/(1+t^(1/2))", "abs(sin(t))-sign(t)*t^t", "-(t-t)*t+exp(t-t)"]
    )
    def test_jet_coefficients_are_the_scalar_ones(self, source):
        """Each coefficient of a LANES jet, lane by lane, has the value and the
        type of the scalar jet's coefficient at that point."""
        e, ts = parse(source), [0.55 + 0.07 * k for k in range(16)]  # not 1.0, where ln(t) = 0.0
        with np.errstate(all="raise"):
            jet = exprlang.eval_jet(e, coordinate_jets(("t",), (Lanes(ts),), 4), LANES)
        for i, t in enumerate(ts):
            scalar = exprlang.eval_jet(e, coordinate_jets(("t",), (t,), 4))
            assert list(scalar.terms) == list(jet.terms)
            for p, c in scalar.terms.items():
                lane = lane_values(jet.terms[p], len(ts))[i]
                assert (type(lane), repr(lane)) == (type(c), repr(c))


# ----------------------------------------------------------------------
# symmetry systems: one evaluation on lanes, the rows of the point-by-point system
# ----------------------------------------------------------------------


def system_point_by_point(rows_at, exprs, points):
    exprs = [exprlang.as_expr(e) for e in exprs]
    return np.array([row for p in points for row in rows_at(p, *exprs)])


@pytest.mark.parametrize("key", [k for k, e in standard_catalog().items() if "psi" in e.params or "c" in e.params])
def test_the_symmetry_rows_are_the_point_by_point_rows(key):
    entry = standard_catalog()[key]
    if "psi" in entry.params:
        rows_at, exprs, box = symmetry._psi_rows, [entry.params["psi"]], entry.box["t"]
    else:
        rows_at, exprs, box = symmetry._pair_rows, [entry.params["a"], entry.params["c"]], entry.box["u"]
    points = symmetry._default_samples(*box, 16, entry.seed)
    batched, pointwise = symmetry._system(rows_at, exprs, points), system_point_by_point(rows_at, exprs, points)
    assert (batched.shape, batched.tobytes()) == (pointwise.shape, pointwise.tobytes())


def test_a_row_beyond_the_float_range_names_its_point():
    """The batch raises, and the point-by-point rows report the first point."""
    with pytest.raises(exprlang.ExprDomainError, match=r"psi\(t\) at t = 1\.0: overflow"):
        symmetry._system(symmetry._psi_rows, ["exp(400*t)"], [0.5, 1.0, 2.0])  # psi^2 = exp(800) at t = 1


# ----------------------------------------------------------------------
# the early-break Hausdorff distance: the float of the full scan
# ----------------------------------------------------------------------

# ties, and near ties that an early break taken too soon would get wrong
COORDINATE = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.integers(-20, 20).map(lambda k: k * 1.001),
    st.floats(-1e3, 1e3),
)


@st.composite
def point_sets(draw):
    """Two sets of points of one dimension: ties and duplicates are likely, and their lengths differ."""
    dim = draw(st.integers(1, 4))
    points = st.lists(st.tuples(*[COORDINATE] * dim), min_size=1, max_size=12)
    A = draw(points)
    B = draw(st.one_of(points, st.permutations(A), st.just(A + A[:1])))
    return A, B


@settings(max_examples=300)
@given(sets=point_sets())
@example(sets=([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)]))
@example(sets=([(0.0,), (2.0,)], [(1.0,)]))  # every distance ties
@example(sets=([(0.0,), (100.0,)], [(1.0,), (101.005,)]))  # the second point raises the worst by 0.5%
def test_the_early_break_is_the_full_scan(sets):
    A, B = sets
    assert _hausdorff(A, B).hex() == hausdorff_scan(A, B).hex()


def test_the_equivalence_curves_give_the_full_scan():
    c1 = psi_signature_curve("t^3+t", 0.5, 2.0, 64)
    c2 = psi_signature_curve("(2*((0.5*t)^3+0.5*t)+1)/(((0.5*t)^3+0.5*t)+1)", 1.0, 4.0, 64)
    c3 = psi_signature_curve("t^5+t", 0.5, 2.0, 64)
    for first, second in ((c1, c2), (c1, c3), (c3, c2)):
        assert _hausdorff(first.tuples, second.tuples).hex() == hausdorff_scan(first.tuples, second.tuples).hex()
