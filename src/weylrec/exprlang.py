"""Scalar expression language: parser, jet and scalar evaluation, symbolic derivative.

Grammar (documented in docs/exprlang.md):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

Precedence: ^  >  unary -  >  * /  >  + -.  There is no implicit
multiplication ("2dv" is a syntax error) and whitespace is insignificant.
Numeric literals are parsed as exact rationals.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple, Union

from . import thresholds
from .jets import JETS, NUMBERS, UNARY_FUNCTIONS, JetDomainError, JetPoly, Kind, order0_constant

FUNCTION_NAMES = tuple(sorted(UNARY_FUNCTIONS))


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the source text."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")


_SYNTHETIC = SourceSpan(0, 0)


class ExprError(Exception):
    """Base class for expression-language errors."""

    def __init__(self, message: str, span: SourceSpan = _SYNTHETIC):
        super().__init__(message)
        self.span = span


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    pass


class ExprDomainError(ExprError):
    """Evaluation hit a singularity; names the offending subexpression."""


# ----------------------------------------------------------------------
# AST.  Equality and hashing are structural: a node's span says where it was
# written, not what it is, so "t^3+t" and "((t^3)+t)" give equal trees.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Union[int, Fraction]
    span: SourceSpan = field(default=_SYNTHETIC, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: SourceSpan = field(default=_SYNTHETIC, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    span: SourceSpan = field(default=_SYNTHETIC, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    span: SourceSpan = field(default=_SYNTHETIC, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    span: SourceSpan = field(default=_SYNTHETIC, compare=False)


Expr = Union[Const, Var, Neg, BinOp, Call]


# ----------------------------------------------------------------------
# tokenizer / parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    span: SourceSpan


def _tokenize(source: str) -> List[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", SourceSpan(at, at + 1))
        span = SourceSpan(m.start(m.lastgroup), m.end(m.lastgroup))
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), span))
        pos = m.end()
    tokens.append(_Token("end", "", SourceSpan(n, n)))
    return tokens


def _literal(text: str) -> Union[int, Fraction]:
    if re.fullmatch(r"\d+", text):
        return int(text)
    f = Fraction(Decimal(text))
    return int(f) if f.denominator == 1 else f


_Parsed = Tuple[Expr, int]  # a node and its depth


class _Parser:
    """Recursive descent that also measures the depth of what it builds: the
    longest chain of nested nodes.  A depth above
    ``thresholds.EXPRESSION_DEPTH_LIMIT`` is a syntax error, so no walk of a
    parsed tree recurses deeper than that.  The same limit bounds the
    constructs open at once (parentheses, calls, unary minuses, exponents),
    so the parser's own recursion stays as shallow."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # enclosing parentheses, calls, unary minuses and exponents

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, expected: str):
        tok = self.current
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"expected {expected}, got {got}", tok.span)

    def _close(self) -> _Token:
        if not (self.current.kind == "op" and self.current.text == ")"):
            self._fail("')'")
        return self._advance()

    def _bounded(self, depth: int, span: SourceSpan) -> int:
        limit = thresholds.EXPRESSION_DEPTH_LIMIT
        if depth > limit:
            raise ExprSyntaxError(f"expression nested more than {limit} levels deep", span)
        return depth

    def _node(self, node: Expr, *below: int) -> _Parsed:
        """``node``, one level above its deepest part."""
        return node, self._bounded(max(below) + 1, node.span)

    @contextlib.contextmanager
    def _inside(self, tok: _Token) -> Iterator[None]:
        """The construct opened at ``tok``, counted as a level on the way down,
        so the limit holds before the recursion runs deep.  A call, a unary
        minus or an exponent is also a node; a parenthesis pair is not."""
        self.open += 1
        self._bounded(self.open + 1, tok.span)
        yield
        self.open -= 1

    def _chain(self, ops: str, operand: Callable[[], _Parsed]) -> _Parsed:
        """A left-associative chain of ``operand``s joined by the operators in ``ops``."""
        node, depth = operand()
        while self.current.kind == "op" and self.current.text in ops:
            op = self._advance()
            rhs, rdepth = operand()
            node, depth = self._node(BinOp(op.text, node, rhs, SourceSpan(node.span.start, rhs.span.end)), depth, rdepth)
        return node, depth

    def parse_expr(self) -> _Parsed:
        return self._chain("+-", self.parse_term)

    def parse_term(self) -> _Parsed:
        return self._chain("*/", self.parse_unary)

    def parse_unary(self) -> _Parsed:
        if self.current.kind == "op" and self.current.text == "-":
            tok = self._advance()
            with self._inside(tok):
                operand, depth = self.parse_unary()
            return self._node(Neg(operand, SourceSpan(tok.span.start, operand.span.end)), depth)
        return self.parse_power()

    def parse_power(self) -> _Parsed:
        base, depth = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            caret = self._advance()
            with self._inside(caret):
                exponent, edepth = self.parse_unary()  # right-associative, binds unary minus in the exponent
            return self._node(BinOp("^", base, exponent, SourceSpan(base.span.start, exponent.span.end)), depth, edepth)
        return base, depth

    def parse_atom(self) -> _Parsed:
        tok = self.current
        if tok.kind == "num":
            self._advance()
            return Const(_literal(tok.text), tok.span), 1
        if tok.kind == "name":
            self._advance()
            if self.current.kind == "op" and self.current.text == "(":
                if tok.text not in UNARY_FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}; known functions: {', '.join(FUNCTION_NAMES)}",
                        tok.span,
                    )
                self._advance()
                with self._inside(tok):
                    arg, depth = self.parse_expr()
                close = self._close()
                return self._node(Call(tok.text, arg, SourceSpan(tok.span.start, close.span.end)), depth)
            return Var(tok.text, tok.span), 1
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            with self._inside(tok):
                node, depth = self.parse_expr()
            close = self._close()
            # the parentheses belong to the operand, so a node built on it spans them; they add no node
            return replace(node, span=SourceSpan(tok.span.start, close.span.end)), depth
        self._fail("a number, a name or '('")


def parse(source: str) -> Expr:
    """Parse ``source`` into an Expr tree; raises ExprSyntaxError with a span,
    also for a tree nested deeper than ``thresholds.EXPRESSION_DEPTH_LIMIT``."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", SourceSpan(0, len(source or "")))
    parser = _Parser(_tokenize(source))
    node, _ = parser.parse_expr()
    if parser.current.kind != "end":
        parser._fail("an operator or end of input")
    return node


def as_expr(value: Union[str, Expr, int, Fraction]) -> Expr:
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, Fraction)):
        return Const(value)
    return value


# ----------------------------------------------------------------------
# evaluation: each root is compiled once into one closure per distinct
# subexpression, and run through a jets.Kind: JETS, or NUMBERS, the order-0
# terms of the jets with the jets' zero rules.  The run owns the error rule:
# a JetDomainError, or an OverflowError from a value beyond the float range,
# becomes an ExprDomainError naming the node.
# ----------------------------------------------------------------------

# operator -> the position of its rule in a Kind
_OPERATIONS = {op: Kind._fields.index(name) for op, name in zip("+-*/^", ("add", "sub", "mul", "div", "power"))}

_Step = Callable[[Dict[str, object], Kind, object, list], object]  # (env, kind, like, slots) -> value


def _domain_error(what: str, exc: Exception, span: SourceSpan) -> ExprDomainError:
    return ExprDomainError(f"{what}: {'overflow' if isinstance(exc, OverflowError) else exc}", span)


def _step(node: Expr, below: List[_Step]) -> _Step:
    """The closure that computes ``node`` from the closures of its children;
    ``like`` is a value of the kind, which the constants take their shape from."""
    span = node.span
    if isinstance(node, Const):
        value = node.value
        return lambda env, kind, like, slots: kind.constant(like, value)
    if isinstance(node, Var):
        name = node.name

        def read(env, kind, like, slots):
            try:
                return env[name]
            except KeyError:
                known = ", ".join(sorted(env)) or "_"
                raise UnknownVariableError(f"unknown variable {name!r}; bound variables: {known}", span) from None

        return read
    if isinstance(node, Neg):
        (operand,) = below
        return lambda env, kind, like, slots: -operand(env, kind, like, slots)
    if isinstance(node, Call):
        (arg,) = below
        fn = node.fn

        def call(env, kind, like, slots):
            x = arg(env, kind, like, slots)
            try:
                return kind.functions[fn](x)
            except (JetDomainError, OverflowError) as exc:
                raise _domain_error(fn, exc, span) from exc

        return call
    left, right = below
    rule = _OPERATIONS[node.op]
    what = "division" if node.op == "/" else repr(node.op)

    def binary(env, kind, like, slots):
        x = left(env, kind, like, slots)
        y = right(env, kind, like, slots)
        try:
            return kind[rule](x, y)
        except (JetDomainError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error(what, exc, span) from exc

    return binary


def _kept(step: _Step, slot: int) -> _Step:
    """``step``, computed once per run: its value is kept in ``slots[slot]``."""

    def kept(env, kind, like, slots):
        value = slots[slot]
        if value is None:
            value = slots[slot] = step(env, kind, like, slots)
        return value

    return kept


def _compile(root: Expr) -> Tuple[_Step, int]:
    """``root`` as a run of one step per distinct subexpression.

    Two nodes are one subexpression when their operator, function, variable
    or constant (its value and type) and their children are.  Each distinct
    node keeps its first occurrence in the left-to-right post-order, the
    order in which a run computes the steps, so an error names that
    occurrence's span.  A node that more than one step reads keeps its value
    in a per-run slot; a variable needs none."""
    index: Dict[tuple, int] = {}  # structural key -> distinct node
    seen: Dict[int, int] = {}  # id(node) -> distinct node, so a shared object is walked once
    nodes: List[Tuple[Expr, Tuple[int, ...]]] = []  # (first occurrence, its children), in post-order
    reads: List[int] = []  # how many steps read each distinct node

    def walk(node) -> int:
        if id(node) in seen:
            return seen[id(node)]
        if isinstance(node, Const):
            below, key = (), (Const, type(node.value), node.value)
        elif isinstance(node, Var):
            below, key = (), (Var, node.name)
        elif isinstance(node, Neg):
            below = (walk(node.operand),)
            key = (Neg, *below)
        elif isinstance(node, Call):
            below = (walk(node.arg),)
            key = (Call, node.fn, *below)
        elif isinstance(node, BinOp):
            below = (walk(node.left), walk(node.right))
            key = (BinOp, node.op, *below)
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        k = index.get(key)
        if k is None:
            k = index[key] = len(nodes)
            nodes.append((node, below))
            reads.append(0)
            for child in below:
                reads[child] += 1
        seen[id(node)] = k
        return k

    walk(root)
    steps: List[_Step] = []
    slots = 0
    for (node, below), n in zip(nodes, reads):
        step = _step(node, [steps[child] for child in below])
        if n > 1 and not isinstance(node, Var):
            step, slots = _kept(step, slots), slots + 1
        steps.append(step)
    compiled = root.__dict__["_compiled"] = steps[-1], slots
    return compiled


def eval_jet(expr: Union[str, Expr], env: Dict[str, JetPoly]) -> JetPoly:
    """Evaluate ``expr`` on a jet environment, whose jets must all share
    (nvars, order, base point), by its compiled form."""
    expr = as_expr(expr)
    if not env:
        raise ValueError("eval_jet requires a non-empty environment")
    jets = list(env.values())
    first = jets[0]
    for j in jets[1:]:
        if (j.nvars, j.order, j.base) != (first.nvars, first.order, first.base):
            raise JetDomainError("environment jets disagree in shape (truncation-order mismatch)")
    run, slots = expr.__dict__.get("_compiled") or _compile(expr)
    return run(env, JETS, first, slots and [None] * slots)


def eval_number(expr: Union[str, Expr], env: Dict[str, object]):
    """Evaluate at order 0 on plain values (exact when the inputs are exact).

    The compiled form that ``eval_jet`` runs, on numbers, with no jets.  Its
    value and its errors (class, message and span) are those of
    ``eval_jet(expr, env).value`` with each value of ``env`` as an order-0
    jet, to the bit and the signed zero.  An exact zero reads as int 0, and so does any zero
    literal, variable, or value of ``exp``, ``ln``, ``sin``, ``cos`` or a
    non-integer power; a float zero that arithmetic makes stays a float."""
    if not all(env.values()):  # a zero variable reads as int 0, as its order-0 jet drops it
        env = {name: order0_constant(value) for name, value in env.items()}
    expr = as_expr(expr)
    run, slots = expr.__dict__.get("_compiled") or _compile(expr)
    return run(env, NUMBERS, None, slots and [None] * slots)


def variables_of(expr: Union[str, Expr]) -> Tuple[str, ...]:
    expr = as_expr(expr)
    names: List[str] = []

    def walk(node: Expr) -> None:
        if isinstance(node, Var):
            if node.name not in names:
                names.append(node.name)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(expr)
    return tuple(names)


# ----------------------------------------------------------------------
# node builders with light constant folding (used to assemble catalog
# expressions and by the symbolic derivative)
# ----------------------------------------------------------------------


def const(value) -> Const:
    if isinstance(value, Fraction) and value.denominator == 1:
        value = int(value)
    return Const(value)


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    return BinOp("+", a, b, a.span)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(a, 0):
        return neg(b)
    return BinOp("-", a, b, a.span)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b):
        return const(Fraction(a.value) * Fraction(b.value))
    return BinOp("*", a, b, a.span)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1):
        return a
    if _is_const(a, 0):
        return const(0)
    if _is_const(a) and _is_const(b) and b.value != 0:
        return const(Fraction(a.value) / Fraction(b.value))
    return BinOp("/", a, b, a.span)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a, a.span)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1):
        return a
    if _is_const(b, 0):
        return const(1)
    return BinOp("^", a, b, a.span)


def call(fn: str, arg: Expr) -> Call:
    if fn not in UNARY_FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, arg, arg.span)


# ----------------------------------------------------------------------
# symbolic derivative (chain rule on the AST; no simplification beyond the
# folding in the builders above)
# ----------------------------------------------------------------------


def derivative(expr: Union[str, Expr], name: str) -> Expr:
    expr = as_expr(expr)
    if isinstance(expr, Const):
        return const(0)
    if isinstance(expr, Var):
        return const(1 if expr.name == name else 0)
    if isinstance(expr, Neg):
        return neg(derivative(expr.operand, name))
    if isinstance(expr, BinOp):
        a, b = expr.left, expr.right
        da, db = derivative(a, name), derivative(b, name)
        if expr.op == "+":
            return add(da, db)
        if expr.op == "-":
            return sub(da, db)
        if expr.op == "*":
            return add(mul(da, b), mul(a, db))
        if expr.op == "/":
            return div(sub(mul(da, b), mul(a, db)), pow_(b, const(2)))
        if expr.op == "^":
            if _is_const(b):
                return mul(mul(b, pow_(a, const(b.value - 1))), da)
            # a^b = exp(b ln a)
            return mul(pow_(a, b), add(mul(db, call("ln", a)), mul(b, div(da, a))))
    if isinstance(expr, Call):
        u = expr.arg
        du = derivative(u, name)
        if _is_const(du, 0):
            return const(0)
        fn = expr.fn
        if fn == "exp":
            outer = call("exp", u)
        elif fn == "ln":
            return div(du, u)
        elif fn == "sin":
            outer = call("cos", u)
        elif fn == "cos":
            outer = neg(call("sin", u))
        elif fn == "tan":
            outer = add(const(1), pow_(call("tan", u), const(2)))
        elif fn == "sqrt":
            return div(du, mul(const(2), call("sqrt", u)))
        elif fn == "abs":
            outer = call("sign", u)
        elif fn == "sign":
            return const(0)
        else:  # pragma: no cover
            raise ValueError(f"no derivative rule for {fn!r}")
        return mul(outer, du)
    raise TypeError(f"not an Expr node: {expr!r}")


def to_source(expr: Union[str, Expr]) -> str:
    """Render an Expr back to parsable source text (fully parenthesized)."""
    expr = as_expr(expr)
    if isinstance(expr, Const):
        v = expr.value
        if isinstance(v, Fraction):
            return f"({v.numerator}/{v.denominator})" if v >= 0 else f"(0-{-v.numerator}/{v.denominator})"
        return str(v) if v >= 0 else f"(0-{-v})"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        # a chain of unary minuses is one run of signs in one pair of
        # parentheses, which the parser counts once, not once a sign
        signs = 0
        while isinstance(expr, Neg):
            signs, expr = signs + 1, expr.operand
        return f"({'-' * signs}{to_source(expr)})"
    if isinstance(expr, BinOp):
        return f"({to_source(expr.left)}{expr.op}{to_source(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({to_source(expr.arg)})"
    raise TypeError(f"not an Expr node: {expr!r}")
