"""Lane-batched signature curves, symmetry systems and verify's geometry passes.

A curve evaluates all of its sample points in one pass, on jets whose
coefficients are ``jets.Lanes``, one float64 lane per point, and runs the
same sampler at each point in turn where that pass gives None (one batch
rule, ``jets.on_lanes``).  Either way its samples, drops and counts are to
the bit those of the point-by-point oracle (``point_samplers``,
``_sampled_curve`` with the old per-point samplers): these tests run both on
drawn expressions and grids, and on the grids that force the fallback,
through the library and through the CLI.  The same holds for verify's
compatibility-only points: one depth-0 ``weyl_connection`` at a point in
lanes gives each point's ``weyl_compatibility_residual``, or the batch rule
gives None, or a residual that is not finite, and ``verify`` then takes
the points one by one; and for its five curvature points: each lane of one
depth-2 connection reads as its point's own connection, and ``verify``
prints the same bytes on lanes as one by one.
"""

import dataclasses
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylrec import cli, exprlang, invariants, symmetry, tensor
from weylrec.catalog import standard_catalog
from weylrec.cli import main
from weylrec.einsteinweyl import ew_report
from weylrec.exprlang import BinOp, Const, ExprDomainError, Var, parse
from weylrec.invariants import _hausdorff, pair_signature_curve, psi_signature_curve, surface_signature_curve
from weylrec.jets import NUMBERS, JetPoly, LaneSplit, Lanes, coordinate_jets, exact_zero, lane_max, lane_values, on_lanes
from weylrec.tensor import (
    Chart,
    DomainViolation,
    SignatureError,
    SingularMetricError,
    make_structure,
    weyl_connection,
)

import point_samplers
from hausdorff_scan import hausdorff_scan
from test_depth0_path import small_structures
from test_exprlang import _REPEATING_TREES, _children


LANE_CURVE = invariants._lane_curve


def in_lanes(at) -> bool:
    """``at``, a point or its coordinates, holds Lanes: a pass on lanes."""
    return type(at[0] if isinstance(at, tuple) else at) is Lanes


def point_by_point(kind, points, sample):
    """``invariants._lane_curve`` with a pass on lanes that raises, so that
    the batch rule takes every point through ``sample``."""

    def no_lanes(at):
        if in_lanes(at):
            raise LaneSplit("forced point by point")
        return sample(at)

    return LANE_CURVE(kind, points, no_lanes)


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
        assert batched == pointwise == outcome(point_samplers.psi_curve, psi, lo, lo + width, samples)

    @settings(max_examples=300)
    @given(a=U_TREES, c=U_TREES, lo=LO, width=WIDTH, samples=st.integers(1, 9))
    @example(a=parse("1/u"), c=parse("2/u^2"), lo=-1.0, width=2.0, samples=3)  # a pole at u = 0.0
    @example(a=parse("exp(460*u)"), c=parse("u"), lo=1.2, width=0.3, samples=11)  # an overflow at some samples
    @example(a=parse("u^2"), c=parse("u"), lo=-1.0, width=2.0, samples=5)  # a' = 0 at u = 0.0 only
    def test_pair(self, a, c, lo, width, samples):
        batched, pointwise = lanes_and_points(pair_signature_curve, a, c, lo, lo + width, samples)
        assert batched == pointwise == outcome(point_samplers.pair_curve, a, c, lo, lo + width, samples)

    @settings(max_examples=300)
    @given(F=XU_TREES, x=LO, u=LO, width=WIDTH, nx=st.integers(1, 4), nu=st.integers(1, 4))
    @example(F=parse("x*u*u"), x=0.2, u=-1.0, width=2.0, nx=3, nu=3)  # F_ux = 2 u vanishes at u = 0.0 only
    @example(F=parse("x*(u-1)^2"), x=0.2, u=0.5, width=1.5, nx=4, nu=4)  # and at u = 1.0, on lanes
    @example(F=parse("(1/2)*ln(u-x)"), x=0.2, u=0.0, width=1.0, nx=3, nu=3)  # ln undefined where u <= x
    def test_surface(self, F, x, u, width, nx, nu):
        args = F, (x, x + width), (u, u + width), nx, nu
        batched, pointwise = lanes_and_points(surface_signature_curve, *args)
        assert batched == pointwise == outcome(point_samplers.surface_curve, *args)


class TestTheCatalogRunsOnLanes:
    """The curves the CLI draws for the catalog entries take the lanes, not the fallback."""

    @staticmethod
    def sampled_by(monkeypatch):
        """What each call of a curve's sampler is given: "lanes", a grid in
        lanes, or "point", one point of the fallback."""
        used = []

        def spy(kind, points, sample):
            def watched(at):
                used.append("lanes" if in_lanes(at) else "point")
                return sample(at)

            return LANE_CURVE(kind, points, watched)

        monkeypatch.setattr(invariants, "_lane_curve", spy)
        return used

    @pytest.mark.parametrize("key", [k for k, e in standard_catalog().items() if {"psi"} <= set(e.params)])
    def test_psi_entries(self, monkeypatch, key):
        used = self.sampled_by(monkeypatch)
        psi_signature_curve(standard_catalog()[key].params["psi"], *standard_catalog()[key].box["t"], 64)
        assert used == ["lanes"]

    @pytest.mark.parametrize("key", ["3d2-ew-model", "3d2-inv-u", "3d2-generic"])
    def test_pair_entries(self, monkeypatch, key):
        entry = standard_catalog()[key]
        used = self.sampled_by(monkeypatch)
        pair_signature_curve(entry.params["a"], entry.params["c"], *entry.box["u"], 64)
        assert used == ["lanes"]

    @pytest.mark.parametrize("key", ["3d1-homog", "3d1-xu"])
    def test_surface_entries(self, monkeypatch, key):
        entry = standard_catalog()[key]
        used = self.sampled_by(monkeypatch)
        surface_signature_curve(entry.params["F"], entry.box["x"], entry.box["u"], 8, 8)
        assert used == ["lanes"]

    def test_a_singular_point_is_dropped_on_lanes(self, monkeypatch):
        used = self.sampled_by(monkeypatch)
        curve = surface_signature_curve("x*(u-1)^2", (0.2, 1.0), (0.5, 2.0), 4, 4)  # F_ux = 0 at u = 1.0
        assert (used, curve.n_singular, curve.n_failed, len(curve.tuples)) == (["lanes"], 4, 0, 12)

    def test_a_zero_on_the_grid_falls_back(self, monkeypatch):
        """t = 0.0 on the grid: the variable's constant term is dropped at that
        point only, which one pass on lanes cannot follow."""
        used = self.sampled_by(monkeypatch)
        psi_signature_curve("t^3+t", -1.0, 2.0, 4)
        assert used == ["lanes", "point", "point", "point", "point"]


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
# the batch rule: float points once on lanes, or None
# ----------------------------------------------------------------------


def test_the_batch_rule_runs_float_points_once_on_lanes():
    """A point has one Lanes per coordinate; a pass that raises, points that
    are not all floats and no points give None; numpy warns of nothing."""
    assert on_lanes(lambda t: t.array.tolist(), [1.0, 2.0]) == [1.0, 2.0]
    assert on_lanes(lambda at: [x.array.tolist() for x in at], [(1.0, 3.0), (2.0, 4.0)]) == [[1.0, 2.0], [3.0, 4.0]]
    with np.errstate(all="raise"):
        assert on_lanes(lambda t: (t * 1e308).array.tolist(), [10.0, 0.5]) == [math.inf, 5e307]
    assert on_lanes(lambda t: 1 / (t - 1.0), [1.0, 2.0]) is None  # a zero divisor on one lane
    for points in ([1.0, 2], [(1.0, Fraction(1, 2))], []):
        assert on_lanes(lambda at: pytest.fail("no pass runs"), points) is None


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

    def test_an_exact_number_compares_only_where_a_float_holds_it(self):
        with pytest.raises(TypeError, match="lanes compare with floats only"):
            Lanes([1.0, 2.0]) < Fraction(1, 3)
        assert (Lanes([1.0, 2.0]) < Fraction(1, 2)) is False

    def test_an_exact_number_beyond_the_float_range_raises_in_a_test_too(self):
        with pytest.raises(OverflowError):
            Lanes([1.0, 2.0]) < 10**400
        with pytest.raises(OverflowError):
            Lanes([1.0, 2.0]) + 10**400

    def test_an_exponent_in_lanes_and_an_operand_that_is_no_number_raise_type_error(self):
        with pytest.raises(TypeError):
            Lanes([1.0, 2.0]) ** Lanes([2.0, 3.0])
        with pytest.raises(TypeError):
            Lanes([1.0, 2.0]) + "a"
        with pytest.raises(TypeError):
            Lanes([1.0, 2.0]) / "a"

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

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    @pytest.mark.parametrize("other", [0.5, 3, 1.5, 2.0, Lanes([0.0, -1.0]), Lanes([1.0, 3.0])], ids=repr)
    def test_each_order_answers_only_when_every_lane_agrees(self, op, other):
        """Against a float, an int or Lanes; a number on the left meets the reflected order."""
        x, xs, others = Lanes([1.0, 2.0]), [1.0, 2.0], lane_values(other, 2)
        cases = [(x, other, [op(a, b) for a, b in zip(xs, others)])]
        if not isinstance(other, Lanes):
            cases.append((other, x, [op(b, a) for a, b in zip(xs, others)]))
        for left, right, answers in cases:
            if len(set(answers)) == 1:
                assert op(left, right) is answers[0]
            else:
                with pytest.raises(LaneSplit):
                    op(left, right)

    def test_abs_is_the_modulus_of_each_lane(self):
        out = abs(Lanes([-1.5, -0.0, 2.0, -math.inf]))
        assert list(map(float.hex, out.array.tolist())) == list(map(float.hex, [1.5, 0.0, 2.0, math.inf]))
        assert (abs(Lanes([-1.0, -2.0])) > 0) is True
        with pytest.raises(LaneSplit):
            abs(Lanes([-1.0, 0.0])) > 0

    def test_the_largest_value_is_taken_on_each_lane(self):
        assert lane_max([1.0, 3.0, 2.0]) == 3.0 and type(lane_max([1.0, 3.0])) is float
        top = lane_max([Lanes([1.0, 5.0]), 2.0, Lanes([3.0, -1.0])])
        assert top.array.tolist() == [3.0, 5.0]
        assert math.isnan(lane_max([1.0, math.nan])) and np.isnan(lane_max([Lanes([math.nan, 1.0]), 0.5]).array[0])

    def test_no_lanes_value_is_an_exact_zero_and_none_is_compared(self):
        """A jet asks == 0 of a coefficient only to find an exact zero, which a
        Lanes value never is: identity answers, with no array comparison."""

        class Uncompared:
            def __eq__(self, other):
                raise AssertionError("an array comparison")

            __hash__ = None

        zeros = Lanes([0.0, -0.0])
        assert exact_zero(zeros) is False
        zeros.array = Uncompared()
        assert exact_zero(zeros) is False and (zeros == 0) is False

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
        "source", ["t^3+t", "tan(ln(t))", "exp(t)/(1+t^(1/2))", "abs(sin(t))-sign(t)*t^-3", "-(t-t)*t+exp(t-t)"]
    )
    def test_numbers_are_the_scalar_ones(self, source):
        """NUMBERS on Lanes gives, lane by lane, the value and type of NUMBERS at that point."""
        e, ts = parse(source), [0.55 + 0.07 * k for k in range(16)]
        with np.errstate(all="raise"):
            lanes = exprlang.eval_number(e, {"t": Lanes(ts)})
        for t, lane in zip(ts, lane_values(lanes, len(ts))):
            scalar = exprlang.eval_number(e, {"t": t})
            assert (type(lane), repr(lane)) == (type(scalar), repr(scalar))

    def test_a_number_value_is_a_float_or_lanes(self):
        assert NUMBERS.value(Lanes([0.5, 2.0])).array.tolist() == [0.5, 2.0]
        assert NUMBERS.value(Fraction(1, 3)) == 1 / 3

    def test_a_zero_on_some_lanes_splits_the_numbers(self):
        """A zero variable, or a zero value of a function such as ln(1),
        reads as int 0, which lanes cannot hold at some points only."""
        assert exprlang.eval_number("x", {"x": Lanes([0.0, -0.0])}) == 0
        assert exprlang.eval_number("ln(x)", {"x": Lanes([1.0, 1.0])}) == 0
        with pytest.raises(LaneSplit):
            exprlang.eval_number("x", {"x": Lanes([0.0, 1.0])})
        with pytest.raises(LaneSplit):
            exprlang.eval_number("sin(x)+1", {"x": Lanes([0.5, 1.0]), "y": Lanes([1.0, 0.0])})
        with pytest.raises(LaneSplit):
            exprlang.eval_number("ln(x)", {"x": Lanes([1.0, 2.0])})

    def test_a_tan_pole_on_any_lane_raises(self):
        """The pole test runs on every lane, as the scalar evaluation runs it at each point."""
        jet = lambda t: exprlang.eval_jet("tan(t)", coordinate_jets(("t",), (t,), 2))  # noqa: E731
        number = lambda t: exprlang.eval_number("tan(t)", {"t": t})  # noqa: E731
        for evaluate in (jet, number):
            for t in (math.pi / 2, Lanes([1.0, math.pi / 2]), Lanes([math.pi / 2, 1.0])):
                with pytest.raises(ExprDomainError, match="tan: tan at a pole"):
                    evaluate(t)

    def test_a_power_with_an_exponent_in_lanes_raises(self):
        """The scalar rule takes an integral exponent as an int power and any
        other one through the binomial series, which lanes cannot share."""
        with pytest.raises(TypeError):
            exprlang.eval_number("t^t", {"t": Lanes([0.5, 2.0])})

    @pytest.mark.parametrize(
        "source", ["t^3+t", "tan(ln(t))", "exp(t)/(1+t^(1/2))", "abs(sin(t))-sign(t)*t^t", "-(t-t)*t+exp(t-t)"]
    )
    def test_jet_coefficients_are_the_scalar_ones(self, source):
        """Each coefficient of a jet on Lanes, lane by lane, has the value and the
        type of the scalar jet's coefficient at that point."""
        e, ts = parse(source), [0.55 + 0.07 * k for k in range(16)]  # not 1.0, where ln(t) = 0.0
        with np.errstate(all="raise"):
            jet = exprlang.eval_jet(e, coordinate_jets(("t",), (Lanes(ts),), 4))
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
# verify's compatibility-only points: one depth-0 pass on lanes, the residuals of the point-by-point path
# ----------------------------------------------------------------------


def residuals_point_by_point(structure, points):
    """``weyl_compatibility_residual`` at each point (as float.hex), or the class and text of the first error."""
    try:
        return [weyl_connection(structure, p, 0).compatibility_residual().hex() for p in points]
    except Exception as exc:
        return type(exc), str(exc)


def compatibility_on_lanes(structure, points):
    """verify's pass over its compatibility-only points: the residuals of
    one depth-0 connection on lanes, or None from the batch rule."""
    return on_lanes(lambda at: weyl_connection(structure, at, 0).compatibility_residual(), points)


def residuals_on_lanes(structure, points):
    """``compatibility_on_lanes``, or, where it gives None, the point-by-point path, as verify takes it."""
    lanes = compatibility_on_lanes(structure, points)
    return residuals_point_by_point(structure, points) if lanes is None else [r.hex() for r in lanes]


NONZERO = st.one_of(st.floats(1 / 16, 1), st.floats(-1, 1).filter(bool))  # mostly where ln and 1/x are defined


@st.composite
def structures_at_points(draw):
    """A structure of ``small_structures`` at 1 to 6 float points.  Each
    coordinate is one value at every point (0.0 among them), or is drawn at
    each point apart, off 0.0, where a point-dependent test can split."""
    structure, _ = draw(small_structures())
    n = draw(st.integers(1, 6))
    shared = st.sampled_from([0.0, -0.0, 0.5, -0.75]).map(lambda x: [x] * n)
    columns = [draw(st.one_of(shared, st.lists(NONZERO, min_size=n, max_size=n))) for _ in range(structure.dim)]
    return structure, list(zip(*columns))


def _structure(metric, one_form, constraints=()):
    return make_structure(Chart(("x0", "x1", "x2"), tuple(map(parse, constraints))), metric, one_form)


_PLAIN_METRIC = {("x0", "x0"): "-(1+x1*x2/8)", ("x1", "x1"): "1+exp(x0)/8", ("x2", "x2"): "1"}
_PLAIN = _structure(_PLAIN_METRIC, {"x0": "x1*x2"})
_DIAGONAL = _structure({("x0", "x0"): "-1", ("x1", "x1"): "x1-1/2", ("x2", "x2"): "1"}, {"x2": "x0"})
# one pair of sample points per way the lane pass falls back: the point-by-point path gives the second point's error
FALLBACKS = [
    pytest.param(_PLAIN, [(0.5, 0.25, -0.75), (0.0, 0.25, -0.75)], LaneSplit, id="zero-coordinate-on-one-lane"),
    pytest.param(  # column 0 of [[x1, 1, 0], [1, 0, 0], [0, 0, 1]] pivots on row 0 at x1 = 2 and row 1 at x1 = 0.5
        _structure({("x0", "x0"): "x1", ("x0", "x1"): "1", ("x2", "x2"): "1"}, {"x2": "x0"}),
        [(0.3, 2.0, 0.7), (0.3, 0.5, 0.7)],
        LaneSplit,
        id="pivot-rows-differ",
    ),
    pytest.param(_DIAGONAL, [(0.3, 1.0, 0.7), (0.3, 0.5, 0.7)], SingularMetricError, id="singular-on-one-lane"),
    pytest.param(_DIAGONAL, [(0.3, 1.0, 0.7), (0.3, 0.25, 0.7)], SignatureError, id="signature-flip-on-one-lane"),
    pytest.param(
        _structure({("x0", "x0"): "-1", ("x1", "x1"): "1", ("x2", "x2"): "1"}, {"x0": "exp(800*x1)"}),
        [(0.3, 0.5, 0.7), (0.3, 1.0, 0.7)],
        ExprDomainError,
        id="one-form-overflow-on-one-lane",
    ),
    pytest.param(
        _structure(_PLAIN_METRIC, {"x0": "x1"}, ["x1"]),
        [(0.3, 0.5, 0.7), (0.3, -0.5, 0.7)],
        DomainViolation,
        id="domain-violated-on-one-lane",
    ),
]


@settings(max_examples=300)
@given(case=structures_at_points())
@example(case=FALLBACKS[0].values[:2])
@example(case=FALLBACKS[1].values[:2])
@example(case=FALLBACKS[2].values[:2])
@example(case=FALLBACKS[3].values[:2])
@example(case=FALLBACKS[4].values[:2])
@example(case=FALLBACKS[5].values[:2])
def test_the_lane_residuals_are_the_point_by_point_residuals(case):
    assert residuals_on_lanes(*case) == residuals_point_by_point(*case)


@pytest.mark.parametrize("structure,points,error", FALLBACKS)
def test_each_hard_point_set_falls_back(structure, points, error):
    """The first point alone runs on lanes, the pair gives None, and where
    ``error`` is not a split the second point fails on its own with it."""
    assert compatibility_on_lanes(structure, points[:1])
    assert compatibility_on_lanes(structure, points) is None
    if error is not LaneSplit:
        assert residuals_point_by_point(structure, points)[0] is error


def test_the_catalog_runs_on_lanes():
    """verify's 15 compatibility-only points of every catalog entry take the lanes, not the fallback."""
    for entry in standard_catalog().values():
        points = entry.sample_points(20, entry.seed)[5:]
        assert residuals_on_lanes(entry.structure, points) == [r.hex() for r in compatibility_on_lanes(entry.structure, points)]


def compatibility_point_by_point(monkeypatch):
    """Make the depth-0 pass on lanes raise, so that the batch rule gives
    None and verify builds each point's depth-0 connection in turn."""
    metric_jets = tensor.metric_jets

    def no_lanes(structure, point, order):
        if in_lanes(tuple(point)):
            raise LaneSplit("forced point by point")
        return metric_jets(structure, point, order)

    monkeypatch.setattr(tensor, "metric_jets", no_lanes)


CURVATURE_POINT = (0.5, 0.25, -0.75)


def verify_compatibility(monkeypatch, structure, points):
    """The worst residual (as float.hex) of verify's compatibility check on
    ``structure`` with ``points`` as its compatibility-only points, or its
    error's class and text.  Its five curvature points, each
    ``CURVATURE_POINT``, read the connection of ``_PLAIN`` there (in 5 lanes
    on the lane pass), so that only the compatibility-only points are under
    test."""

    def curvature_elsewhere(s, point, depth=1):
        return weyl_connection(s if depth == 0 else _PLAIN, point, depth)

    monkeypatch.setattr(cli, "weyl_connection", curvature_elsewhere)
    entry = dataclasses.replace(standard_catalog()["dim4-psi-exp"], structure=structure, preferred=None)
    entry.sample_points = lambda count, seed: [CURVATURE_POINT] * 5 + list(points)
    try:
        checks, _ = cli._verify_checks(entry, 1e-6, 5 + len(points), 0, 3, "structure.json")
    except Exception as exc:
        return type(exc), str(exc)
    return checks[0]["max_residual"].hex()


@pytest.mark.parametrize("structure,points,error", FALLBACKS)
def test_verify_takes_a_raising_pass_point_by_point(monkeypatch, structure, points, error):
    """Where the lanes raise, verify's compatibility points give what each
    point's depth-0 connection gives: its residual, or its error naming the file."""
    try:
        connections = [cli._at_point("structure.json", p, weyl_connection, structure, p, 0) for p in points]
        curvature = weyl_connection(_PLAIN, CURVATURE_POINT, 2).compatibility_residual()
        expected = max(curvature, *(conn.compatibility_residual() for conn in connections)).hex()
    except Exception as exc:
        expected = type(exc), str(exc)
    assert verify_compatibility(monkeypatch, structure, points) == expected


def test_a_raising_lane_pass_leaves_the_report_unchanged(tmp_path, capsys, monkeypatch):
    path = structure_file(tmp_path, "dim_ge4", {"psi": "exp(t)"})
    code, out, _ = cli_run(capsys, ["verify", path])
    compatibility_point_by_point(monkeypatch)
    assert cli_run(capsys, ["verify", path])[:2] == (code, out) and code == 0


@pytest.mark.parametrize(
    "hi,k",
    [(0.34, 5), (0.33, 13)],
    ids=["first", "middle"],
)
def test_a_failing_compatibility_point_reads_as_point_by_point(tmp_path, capsys, monkeypatch, hi, k):
    """psi = exp(100 t) makes the metric singular past t of about 0.32: at
    sample k of 20 first, a compatibility-only point.  stdout, stderr and the
    exit code are those of the point-by-point path."""
    path = structure_file(tmp_path, "dim_ge4", {"psi": "exp(100*t)", "box": {"t": [0.2, hi], "u": [0.1, 1.2]}})
    entry = cli.load_structure_file(path)
    points = entry.sample_points(20, entry.seed)
    first = next(i for i, p in enumerate(points) if residuals_point_by_point(entry.structure, [p])[0] is SingularMetricError)
    assert first == k
    batched = cli_run(capsys, ["verify", path])
    compatibility_point_by_point(monkeypatch)
    assert batched == cli_run(capsys, ["verify", path])
    assert batched[0] == 2 and batched[1] == "" and "singular" in batched[2]


def test_a_residual_that_is_not_finite_on_lanes_reads_as_point_by_point(tmp_path, capsys, monkeypatch):
    """A compatibility residual that is nan only on the lanes (inside the
    batch rule's ``np.errstate``) is not kept, where ``max`` would skip it:
    both passes take their points one by one, each building its own
    connection, and stdout and the exit code are those of the
    point-by-point run."""
    path = structure_file(tmp_path, "dim_ge4", {"psi": "exp(t)"})
    compatibility, build, builds = tensor._compatibility, cli.weyl_connection, []

    def nan_on_lanes(*arrays):
        return math.nan if np.geterr()["invalid"] == "ignore" else compatibility(*arrays)

    def counting_build(structure, point, depth=1):
        builds.append((depth, point[0].array.size if in_lanes(point) else 1))
        return build(structure, point, depth)

    monkeypatch.setattr(tensor, "_compatibility", nan_on_lanes)
    monkeypatch.setattr(cli, "weyl_connection", counting_build)
    batched = cli_run(capsys, ["verify", path])[:2]
    assert builds == [(2, 5), *[(2, 1)] * 5, (0, 15), *[(0, 1)] * 15]
    monkeypatch.setattr(cli, "on_lanes", lambda run, points: None)
    assert batched == cli_run(capsys, ["verify", path])[:2] and batched[0] == 0


# ----------------------------------------------------------------------
# verify's curvature points: one depth order - 1 pass on lanes, the readings of the point-by-point path
# ----------------------------------------------------------------------


def hexes(x):
    """A float, an array or None as float.hex strings."""
    return None if x is None else [v.hex() for v in np.ravel(x).tolist()]


def curvature_readings(structure, conn):
    """The recurrence fields, holonomy singular values, conformal Weyl norm
    and Einstein-Weyl report (lam, residual, dkp) of ``conn`` as float.hex:
    one tuple, or at a point in lanes one per lane."""

    def read(rec, hol, weyl, ew):
        fit = (rec.status, rec.recurrent, hexes(rec.theta), hexes(rec.max_residual), hexes(rec.weight), hexes(rec.weight_residual))
        return (*fit, rec.closed_at_point, hexes(hol.singular_values), hexes(weyl.norm()), hexes([ew.lam, ew.residual]), hexes(ew.dkp_residual))

    readers = (conn.recurrence(), conn.holonomy(), conn.conformal_weyl(), ew_report(structure, conn))
    return [read(*lane) for lane in zip(*readers)] if in_lanes(conn.point) else read(*readers)


def readings_point_by_point(structure, points):
    """``curvature_readings`` of each point's own depth-2 connection, or the
    class and text of the first error; numpy's warnings are not errors here,
    as on the lanes."""
    try:
        with np.errstate(all="ignore"):
            return [curvature_readings(structure, weyl_connection(structure, p, 2)) for p in points]
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(case=structures_at_points())
@example(case=FALLBACKS[0].values[:2])  # a 0.0 coordinate on one lane: LaneSplit
@example(case=(_PLAIN, [(0.5, 0.25, -0.75), (0.3, 0.5, 0.7), (-0.5, 0.125, 0.25)]))
def test_the_lane_readings_are_the_point_by_point_readings(case):
    """At depth 2, each lane's readings are its point's own, to the bit, or the pass gives None."""
    structure, points = case
    lanes = on_lanes(lambda at: curvature_readings(structure, weyl_connection(structure, at, 2)), points)
    if case[0] is _PLAIN:
        assert (lanes is None) == (case == FALLBACKS[0].values[:2])
    if lanes is not None:
        assert lanes == readings_point_by_point(structure, points)


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("catalog")
    files = {}
    for key, entry in standard_catalog().items():
        files[key] = folder / f"{key}.json"
        files[key].write_text(json.dumps(cli.structure_file_payload(entry)), encoding="utf-8")
    return {key: str(path) for key, path in files.items()}


@pytest.mark.parametrize("order", ["3", "5"])
@pytest.mark.parametrize("samples", ["1", "3", "5", "20"])
@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_verify_reads_as_point_by_point(catalog_files, capsys, monkeypatch, key, samples, order):
    """verify's stdout and exit code on lanes are those of the one-by-one
    path (``on_lanes`` gives None), and the curvature points of every
    catalog entry take the lanes.  At 5 samples or fewer there are no
    compatibility-only points, and a curvature pass of 1 to 5 lanes."""
    argv = ["verify", catalog_files[key], "--samples", samples, "--order", order]
    lanes = []  # the lane count of each pass that gave readings, None for one that gave None

    def spy(run, points):
        readings = on_lanes(run, points)
        lanes.append(None if readings is None else len(points))
        return readings

    monkeypatch.setattr(cli, "on_lanes", spy)
    batched = cli_run(capsys, argv)[:2]
    assert lanes[0] == min(5, int(samples))
    monkeypatch.setattr(cli, "on_lanes", lambda run, points: None)
    assert batched == cli_run(capsys, argv)[:2]


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
