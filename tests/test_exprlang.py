"""Parser, jet- and scalar-evaluation tests for the expression language."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weylrec import cli, exprlang, thresholds
from weylrec.catalog import make_dim_ge4
from weylrec.exprlang import (
    FUNCTION_NAMES,
    BinOp,
    Call,
    Const,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    SourceSpan,
    UnknownVariableError,
    Var,
    derivative,
    eval_jet,
    eval_number,
    parse,
    to_source,
    variables_of,
)
from weylrec.jets import JETS, JetPoly

from tree_walk import walk_jet, walk_number


def jet_t(base, order):
    return {"t": JetPoly.variable(0, 1, order, (base,))}


class TestParsing:
    def test_call_node(self):
        e = parse("exp(t)")
        assert isinstance(e, Call) and e.fn == "exp" and isinstance(e.arg, Var)

    def test_precedence_pow_over_add(self):
        e = parse("t^3+t")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.left, BinOp) and e.left.op == "^"

    def test_pow_right_associative(self):
        assert eval_number("2^3^2", {}) == 512

    def test_pow_binds_tighter_than_unary_minus(self):
        assert eval_number("-2^2", {}) == -4

    def test_unary_minus_in_exponent(self):
        assert eval_number("2^-2", {}) == Fraction(1, 4)

    def test_juxtaposition_is_an_error(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2dv du")
        assert err.value.span.start == 1

    def test_unknown_function_lists_known_ones(self):
        with pytest.raises(ExprSyntaxError, match="known functions.*sqrt"):
            parse("foo(t)")

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError, match=r"expected '\)'"):
            parse("(t+1")

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError, match="empty"):
            parse("   ")

    def test_whitespace_insensitive(self):
        assert eval_number(" t ^ 2+ 1 ", {"t": 3}) == eval_number("t^2+1", {"t": 3})

    def test_decimal_literals_are_exact_rationals(self):
        e = parse("0.125")
        assert isinstance(e, Const) and e.value == Fraction(1, 8)

    def test_span_covers_whole_binop(self):
        e = parse("t + u")
        assert (e.span.start, e.span.end) == (0, 5)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse("t + $")

    def test_equality_is_structural(self):
        # the same tree written two ways: equal and of equal hash, with different spans
        plain, rendered = parse("t^3+t"), parse("((t^3)+t)")
        assert plain == rendered and hash(plain) == hash(rendered)
        assert plain.span != rendered.span and plain.left.span != rendered.left.span
        assert parse("t^3+t") != parse("t^3-t") and parse("(t)") == Var("t")


def nested(shape, depth):
    """Source of the given shape that nests ``depth`` levels deep: a tree that
    deep, or parentheses around ``t`` that the parser counts as that deep."""
    return {
        "parentheses": "(" * (depth - 1) + "t" + ")" * (depth - 1),
        "sum": "+".join(["t"] * depth),
        "unary minus": "-" * (depth - 1) + "t",
        "exponent tower": "^".join(["t"] * depth),
    }[shape]


class TestDepthLimit:
    """A tree deeper than EXPRESSION_DEPTH_LIMIT is refused by the parser, so
    no walk of a parsed tree (evaluation, derivative, rendering) recurses
    deeper than that."""

    SHAPES = ["parentheses", "sum", "unary minus", "exponent tower"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_the_limit_parses(self, shape):
        parse(nested(shape, thresholds.EXPRESSION_DEPTH_LIMIT))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_more_is_a_syntax_error(self, shape):
        source = nested(shape, thresholds.EXPRESSION_DEPTH_LIMIT + 1)
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert str(err.value) == f"expression nested more than {thresholds.EXPRESSION_DEPTH_LIMIT} levels deep"
        assert 0 <= err.value.span.start < err.value.span.end <= len(source)

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_the_payload_of_a_60_term_psi_loads_back(self, tmp_path, op):
        # to_source wraps each of the 59 operators in parentheses; they add no tree level
        entry = make_dim_ge4(op.join(["t"] * 60), 2)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(cli.structure_file_payload(entry)))
        assert cli.load_structure_file(str(path)).params["psi"] == entry.params["psi"]

    # each sign written as (-(...)) made 60 parentheses and 60 signs open at once; the sum's
    # product twin, t^60, has a singular metric on the box and stays out
    @pytest.mark.parametrize("psi", ["-" * 60 + "t", "+".join(["t"] * 60)], ids=["60 unary minus signs", "60-term sum"])
    def test_the_payload_of_a_deep_psi_verifies(self, tmp_path, capsys, psi):
        entry = make_dim_ge4(psi, 2)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(cli.structure_file_payload(entry)))
        assert cli.load_structure_file(str(path)).params["psi"] == entry.params["psi"]
        assert cli.main(["verify", str(path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_a_chain_of_signs_is_written_as_one_run(self):
        assert to_source(parse("-t")) == "(-t)"
        assert to_source(parse("t*---(t+1)")) == "(t*(---(t+1)))"
        assert parse(to_source(parse("--t^2"))) == parse("--t^2")
        assert parse(to_source(parse("(--t)^2"))) == parse("(--t)^2")

    def test_far_beyond_the_limit_is_still_a_syntax_error(self):
        # deeper than the interpreter's stack would allow a recursive parse to go
        with pytest.raises(ExprSyntaxError, match="nested more than"):
            parse("(" * 5000 + "t" + ")" * 5000)
        with pytest.raises(ExprSyntaxError, match="nested more than"):
            parse("+".join(["t"] * 5000))


class TestEvalJet:
    def test_exp_taylor_coefficients(self):
        j = eval_jet("exp(t)", jet_t(0, 2))
        assert [j.coefficient((k,)) for k in range(3)] == [1.0, 1.0, 0.5]

    def test_cubic_at_one(self):
        # t^3 + t at t = 1: value 2, f' = 4, f'' = 6, f''' = 6
        # stored Taylor coefficients 2, 4, 3, 1
        j = eval_jet("t^3+t", jet_t(Fraction(1), 3))
        assert [j.coefficient((k,)) for k in range(4)] == [2, 4, 3, 1]
        assert j.partial((2,)) == 6 and j.partial((3,)) == 6

    def test_ln_at_zero_is_domain_error(self):
        with pytest.raises(ExprDomainError) as err:
            eval_jet("ln(t)", jet_t(0, 1))
        assert err.value.span == parse("ln(t)").span

    def test_unknown_variable_names_bound_ones(self):
        with pytest.raises(UnknownVariableError, match="bound variables: t"):
            eval_jet("q+t", jet_t(0, 1))

    def test_division_by_zero_value(self):
        with pytest.raises(ExprDomainError, match="division"):
            eval_jet("1/t", jet_t(0, 2))

    def test_abs_sign_on_fixed_branch(self):
        j = eval_jet("abs(t)", jet_t(-2.0, 2))
        assert j.value == 2.0 and j.coefficient((1,)) == -1.0
        assert eval_jet("sign(t)", jet_t(-2.0, 1)).value == -1

    def test_abs_at_zero_rejected(self):
        with pytest.raises(ExprDomainError):
            eval_jet("abs(t)", jet_t(0, 1))

    def test_variable_exponent_uses_exp_ln(self):
        j = eval_jet("t^t", jet_t(2.0, 1))
        import math

        assert j.value == pytest.approx(4.0)
        assert float(j.coefficient((1,))) == pytest.approx(4.0 * (math.log(2.0) + 1.0))


@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    x0=st.integers(-3, 3),
    u0=st.integers(-3, 3),
)
def test_polynomial_partials_match_symbolic_expansion(coeffs, x0, u0):
    """Partials from eval_jet agree exactly with the expanded polynomial."""
    a, b, c, d, e, f = coeffs
    source = f"({a})*x^2*u^2 + ({b})*x^3 + ({c})*x*u + ({d})*u^2 + ({e})*x + ({f})"
    env = {
        "x": JetPoly.variable(0, 2, 4, (Fraction(x0), Fraction(u0))),
        "u": JetPoly.variable(1, 2, 4, (Fraction(x0), Fraction(u0))),
    }
    jet = eval_jet(source, env)
    # independent oracle: differentiate the closed form by hand
    x, u = Fraction(x0), Fraction(u0)
    assert jet.partial((0, 0)) == a * x**2 * u**2 + b * x**3 + c * x * u + d * u**2 + e * x + f
    assert jet.partial((1, 0)) == 2 * a * x * u**2 + 3 * b * x**2 + c * u + e
    assert jet.partial((0, 1)) == 2 * a * x**2 * u + c * x + 2 * d * u
    assert jet.partial((1, 1)) == 4 * a * x * u + c
    assert jet.partial((2, 0)) == 2 * a * u**2 + 6 * b * x
    assert jet.partial((2, 2)) == 4 * a


@given(order=st.integers(1, 5))
def test_truncation_consistency(order):
    """The order (k-1) truncation of an order-k evaluation equals the direct
    order (k-1) evaluation."""
    src = "exp(t)*tan(t)+1/(2+t)"
    hi = eval_jet(src, jet_t(0.4, order))
    lo = eval_jet(src, jet_t(0.4, order - 1))
    for k in range(order):
        assert float(hi.coefficient((k,))) == pytest.approx(float(lo.coefficient((k,))), abs=1e-14)


def test_finite_difference_convergence_is_second_order():
    """Central differences of order-0 values converge to the jet's first
    coefficient at rate O(h^2)."""
    src = "exp(t)*sin(t) + t^3/(1+t^2)"
    t0 = 0.7
    exact = float(eval_jet(src, jet_t(t0, 1)).coefficient((1,)))
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (eval_number(src, {"t": t0 + h}) - eval_number(src, {"t": t0 - h})) / (2 * h)
        errors.append(abs(fd - exact))
    # halving h divides the error by about 4
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


def _order0_jets(expr, env):
    """The reference for eval_number: eval_jet on order-0 jets of the same values."""
    jet_env = {k: JetPoly.constant(v, 1, 0, (0,)) for k, v in env.items()} or {"_": JetPoly.constant(0, 1, 0, (0,))}
    return eval_jet(expr, jet_env).value


def _bits(value):
    """A number as (type, repr), which tells apart 0, 0.0 and -0.0; a jet as
    its shape and each coefficient's position, type and repr, in key order."""
    if isinstance(value, JetPoly):
        return value.nvars, value.order, value.base, [(p, type(c), repr(c)) for p, c in value.terms.items()]
    return type(value), repr(value)


def _outcome(evaluate, expr, env):
    """The bits of the value, or (class, text, span) of the error."""
    try:
        value = evaluate(expr, env)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "span", None)
    return _bits(value)


def _children(node):
    """The child fields of ``node``, with their nodes."""
    return {f: getattr(node, f) for f in ("operand", "left", "right", "arg") if hasattr(node, f)}


def _numbered(expr):
    """``expr`` with a span of its own on every node object, so a span names
    one node: a shared object stays one object, read in more than one place,
    and an equal copy gets spans of its own."""
    counter = itertools.count()
    done = {}

    def walk(node):
        if id(node) not in done:
            k = next(counter)
            children = {f: walk(child) for f, child in _children(node).items()}
            done[id(node)] = dataclasses.replace(node, span=SourceSpan(k, k + 1), **children)
        return done[id(node)]

    return walk(expr)


_NUMBERS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -1, Fraction(1, 3), math.pi / 2, 1e-200, 1e200]),
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=7),
    st.floats(-4, 4),
)
# integer, negative integer and non-integer exponents; a drawn exponent could
# be a huge integer, and an integer power is that many products
_EXPONENTS = st.one_of(
    st.integers(-3, 3).map(Const),
    st.integers(1, 3).map(lambda k: Neg(Const(k))),
    st.sampled_from([0.5, 2.0, Fraction(1, 3)]).map(Const),
)
_TREES = st.recursive(
    st.one_of(st.builds(Const, _NUMBERS), st.builds(Var, st.sampled_from(["u", "t", "w"]))),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(FUNCTION_NAMES), children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(BinOp, st.just("^"), children, _EXPONENTS),
    ),
    max_leaves=12,
).map(_numbered)


@settings(max_examples=1000)
@given(expr=_TREES, env=st.dictionaries(st.sampled_from(["u", "t"]), _NUMBERS))
@example(expr=parse("tan(0.0)"), env={})
@example(expr=parse("sin(u)"), env={"u": 0.0})
@example(expr=parse("ln(1)"), env={})
@example(expr=parse("ln(u^0)"), env={"u": 2.5})
@example(expr=parse("-(ln(exp(0.0))*u)"), env={"u": -0.0})
@example(expr=parse("(tan(0.0)*u)^(1.5)"), env={"u": 2.0})
@example(expr=parse("-(u-u)+0"), env={"u": 1.5})  # a jet sum returns -0.0 + (exact 0) unchanged
@example(expr=parse("u^100000"), env={"u": 1.5})  # beyond the integer-power limit
@example(expr=parse("t+10^400"), env={"t": 1.5})  # an exact value that float() refuses
@example(expr=parse("t+exp(10^400)"), env={"t": 1.5})
def test_eval_number_matches_order0_jets(expr, env):
    """The scalar walk gives what eval_jet gives on order-0 jets: the same
    value, type and signed zero, or the same error, message and span."""
    assert _outcome(eval_number, expr, env) == _outcome(_order0_jets, expr, env)


def _objects(expr):
    """The distinct node objects of ``expr``, each once, in pre-order."""
    found = {}

    def walk(node):
        if id(node) not in found:
            found[id(node)] = node
            for child in _children(node).values():
                walk(child)

    walk(expr)
    return list(found.values())


def _size(expr):
    """The node count of ``expr`` with each shared object counted once per place it is read."""
    sizes = {}
    for node in reversed(_objects(expr)):
        sizes[id(node)] = 1 + sum(sizes[id(child)] for child in _children(node).values())
    return sizes[id(expr)]


def _copy(node):
    """An equal tree of new objects."""
    return dataclasses.replace(node, **{f: _copy(child) for f, child in _children(node).items()})


def _reused(op, tree, pick, copied):
    """``tree op sub``, where ``sub`` is one of the subtrees of ``tree``: the same object, or an equal copy."""
    subs = _objects(tree)
    sub = subs[pick % len(subs)]
    return BinOp(op, tree, _copy(sub) if copied else sub)


# trees whose subtrees repeat, as shared objects and as equal copies
_REPEATING_TREES = (
    st.recursive(
        st.one_of(st.builds(Const, _NUMBERS), st.builds(Var, st.sampled_from(["u", "t", "w"]))),
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(FUNCTION_NAMES), children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(BinOp, st.just("^"), children, _EXPONENTS),
            st.builds(_reused, st.sampled_from("+-*/"), children, st.integers(0, 20), st.booleans()),
        ),
        max_leaves=10,
    )
    .filter(lambda e: _size(e) <= 200)
    .map(_numbered)
)
_INT_AND_FRACTION_TWO = BinOp("+", parse("2*t"), BinOp("*", Const(Fraction(2)), Var("t")))  # equal values, not one node
_CUBIC_G1_PSI = "(1*(((1/2)*t+(3/10))^3+((1/2)*t+(3/10)))+(2))/(1*(((1/2)*t+(3/10))^3+((1/2)*t+(3/10)))+(4))"


@settings(max_examples=500)
@given(expr=_REPEATING_TREES, point=st.dictionaries(st.sampled_from(["u", "t"]), _NUMBERS, min_size=1))
@example(expr=parse(_CUBIC_G1_PSI), point={"t": Fraction(6, 5)})  # the benchmark's equiv pair dim4-psi-cubic / cubic-g1
@example(expr=parse(_CUBIC_G1_PSI), point={"t": 0.7})
@example(expr=parse("exp(t)+exp(t)"), point={"t": 0.5})
@example(expr=parse("ln(t-1)*ln(t-1)"), point={"t": 1})
@example(expr=_INT_AND_FRACTION_TWO, point={"t": 1.5})
def test_the_compiled_form_matches_the_tree_walk(expr, point):
    """On float jets, on Fraction jets and on numbers, evaluating each
    distinct subexpression once gives what the tree walk gives: the same
    coefficients, types and signed zeros, in the same key order, or the same
    error class, message and span."""
    names = sorted(point)
    for base in ([float(point[n]) for n in names], [Fraction(point[n]) for n in names]):
        env = {n: JetPoly.variable(i, len(names), 2, base) for i, n in enumerate(names)}
        assert _outcome(eval_jet, expr, env) == _outcome(walk_jet, expr, env)
    assert _outcome(eval_number, expr, point) == _outcome(walk_number, expr, point)


class TestEachSubexpressionOnce:
    @staticmethod
    def counting(monkeypatch, *operations):
        """Count the jet operations named (Kind fields, or function names) from
        now on; the 1001st call of one fails the test."""
        counts = dict.fromkeys(operations, 0)

        def counted(name, rule):
            def count(*args):
                counts[name] += 1
                assert counts[name] <= 1000, f"more than 1000 calls of {name}"
                return rule(*args)

            return count

        fields = {f: counted(f, getattr(JETS, f)) for f in operations if f in JETS._fields}
        functions = {**JETS.functions, **{f: counted(f, JETS.functions[f]) for f in operations if f in JETS.functions}}
        monkeypatch.setattr(exprlang, "JETS", JETS._replace(functions=functions, **fields))
        return counts

    def test_a_repeated_call_is_made_once(self, monkeypatch):
        counts = self.counting(monkeypatch, "exp", "add")
        eval_jet("exp(t)+exp(t)", jet_t(0.5, 3))
        assert counts == {"exp": 1, "add": 1}

    def test_a_shared_operand_is_computed_once(self, monkeypatch):
        counts = self.counting(monkeypatch, "mul", "add", "power")
        eval_jet("((1/2)*t+(3/10))^3+((1/2)*t+(3/10))", jet_t(Fraction(1), 3))
        assert counts == {"mul": 1, "add": 2, "power": 1}  # the tree walk: 2, 3 and 1

    def test_equal_copies_are_one_subexpression_but_int_and_fraction_constants_are_two(self, monkeypatch):
        counts = self.counting(monkeypatch, "mul")
        eval_jet("(2*t)+(2*t)", jet_t(1.5, 1))
        assert counts == {"mul": 1}
        eval_jet(_INT_AND_FRACTION_TWO, jet_t(1.5, 1))
        assert counts == {"mul": 3}

    def test_the_error_of_a_repeated_node_names_its_first_occurrence(self):
        for evaluate, env in ((eval_jet, jet_t(1, 2)), (eval_number, {"t": 1})):
            with pytest.raises(ExprDomainError) as info:
                evaluate("ln(t-1)*ln(t-1)", env)
            assert str(info.value) == "ln: ln of non-positive value 0"
            assert (info.value.span.start, info.value.span.end) == (0, 7)

    def test_a_failing_step_keeps_nothing(self):
        expr = parse("ln(t-1)*ln(t-1)")
        with pytest.raises(ExprDomainError):
            eval_number(expr, {"t": 1})
        assert eval_number(expr, {"t": 2.5}) == math.log(1.5) ** 2

    def test_a_tree_of_2_to_the_99_leaves_is_99_sums(self, monkeypatch):
        """Each level reads the one below twice, as one shared object: the
        tree walk would make 2^99 - 1 sums, the compiled form makes 99, each
        one step deeper than the last, under the default recursion limit."""
        expr = Var("t")
        for _ in range(thresholds.EXPRESSION_DEPTH_LIMIT - 1):
            expr = BinOp("+", expr, expr)
        counts = self.counting(monkeypatch, "add")
        assert eval_jet(expr, jet_t(1, 1)).coefficient((1,)) == 2**99
        assert counts == {"add": 99}

    def test_the_compiled_form_is_kept_with_the_root(self):
        expr = parse("exp(t)+exp(t)")
        eval_number(expr, {"t": 0.5})
        compiled = vars(expr)["_compiled"]
        eval_jet(expr, jet_t(0.5, 2))
        assert vars(expr)["_compiled"] is compiled
        assert expr == parse("exp(t)+exp(t)") and hash(expr) == hash(parse("exp(t)+exp(t)"))


@pytest.mark.parametrize(
    "source,env,expected",
    [
        ("tan(0.0)", {}, "0"),
        ("sin(u)", {"u": 0.0}, "0"),
        ("u", {"u": -0.0}, "0"),
        ("-(u-u)", {"u": 1.5}, "-0.0"),
        ("(u-u)*2", {"u": 1.5}, "0.0"),
        ("4/2", {}, "Fraction(2, 1)"),
        ("u^3", {"u": 1.5}, "3.375"),
    ],
)
def test_eval_number_value_types(source, env, expected):
    """An exact zero, and a zero literal, variable or function value, reads as
    int 0; a float zero that arithmetic makes stays a float; two exact
    operands divide to a Fraction."""
    assert repr(eval_number(source, env)) == expected


@pytest.mark.parametrize(
    "source,at,node,message",
    [
        ("2*ln(t-2)", 1, "ln(t-2)", "ln: ln of non-positive value -1"),
        ("1+sqrt(-t)", 1, "sqrt(-t)", "sqrt: sqrt of non-positive value -1"),
        ("2*t^0.5", -1, "t^0.5", "'^': non-integer power of non-positive value -1"),
        ("(t-1)^0.5", 0.5, "(t-1)^0.5", "'^': non-integer power of non-positive value -0.5"),
        ("3*tan(t)", math.pi / 2, "tan(t)", "tan: tan at a pole"),
        ("1+tan(t)", -3 * math.pi / 2, "tan(t)", "tan: tan at a pole"),
        ("abs(t-1)+1", 1, "abs(t-1)", "abs: abs of a jet with zero constant term"),
        ("sign(1-t)", 1, "sign(1-t)", "sign: sign of a jet with zero constant term"),
        ("1+t^-2", 0, "t^-2", "'^': negative power of a jet with zero constant term"),
        ("t+1/t", 0, "1/t", "division: division by a jet with zero constant term"),
        ("t^1001", 2, "t^1001", "'^': integer power 1001 exceeds the limit of 1000 in modulus"),
        ("1-t^-1001.0", 2, "t^-1001.0", "'^': integer power -1001 exceeds the limit of 1000 in modulus"),
        ("1+exp(800*t)", 1, "exp(800*t)", "exp: overflow"),
        ("2*t^1.5", 1e250, "t^1.5", "'^': overflow"),
    ],
)
def test_domain_error_text(source, at, node, message):
    """Each domain error names its node by span and says what went wrong, in
    the same words from both evaluators.  A parenthesized operand's span
    takes in its parentheses, the double nearest a pole of tan is one, and
    a value beyond the float range is an overflow."""
    for evaluate, env in ((eval_jet, jet_t(at, 2)), (eval_number, {"t": at})):
        with pytest.raises(ExprDomainError) as info:
            evaluate(source, env)
        assert str(info.value) == message
        assert source[info.value.span.start : info.value.span.end] == node


def test_integer_power_limit_is_inclusive():
    assert eval_number("t^1000", {"t": 1}) == 1 and eval_number("t^-1000", {"t": 1}) == 1
    assert eval_jet("t^1000", jet_t(1, 2)).coefficient((1,)) == 1000


class TestDerivative:
    def test_polynomial_rule(self):
        d = derivative("t^3+t", "t")
        assert eval_number(d, {"t": 2}) == 13

    def test_chain_rule_matches_jets(self):
        src = "tan(2*ln(t)) + sqrt(t)/(1+t)"
        d = derivative(src, "t")
        for t0 in (0.7, 1.3, 2.1):
            via_jet = float(eval_jet(src, jet_t(t0, 1)).coefficient((1,)))
            assert eval_number(d, {"t": t0}) == pytest.approx(via_jet, rel=1e-12)

    @pytest.mark.parametrize("src", ["sin(t^2)", "cos(2*t)", "abs(t^2-3)", "sign(t-3)*t^2", "-(-(t^3))"])
    def test_each_rule_matches_jets(self, src):
        """abs(t^2 - 3) and sign(t - 3) change sign between the points."""
        d = derivative(src, "t")
        for t0 in (0.7, 1.3, 2.1, 3.4):
            via_jet = float(eval_jet(src, jet_t(t0, 1)).coefficient((1,)))
            assert eval_number(d, {"t": t0}) == pytest.approx(via_jet, rel=1e-12)

    def test_a_double_negation_folds(self):
        assert to_source(derivative("-(-(t^3))", "t")) == "(3*(t^2))"

    def test_partial_ignores_other_variables(self):
        d = derivative("x*u^2", "u")
        assert eval_number(d, {"x": 3.0, "u": 2.0}) == 12.0

    def test_roundtrip_through_source(self):
        d = derivative("exp(t)/(u+t)", "u")
        env = {"t": 0.5, "u": 1.0}
        assert eval_number(parse(to_source(d)), env) == pytest.approx(eval_number(d, env))


def test_variables_of_order():
    assert variables_of("exp(t)/(u+t)") == ("t", "u")
