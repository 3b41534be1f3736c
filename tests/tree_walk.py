"""The recursive tree walk that evaluated an ``Expr`` before ``exprlang``
compiled each expression, kept as the oracle of the compiled form.

``_eval`` is that walk's body, unchanged: it visits every node of the tree,
a repeated subexpression once per copy.  ``walk_jet`` and ``walk_number``
prepare the environment as ``exprlang.eval_jet`` and
``exprlang.eval_number`` do, so their values and errors (class, message
and span) are what the compiled form must give, to the bit.
"""

from typing import Dict, Union

from weylrec.exprlang import (
    BinOp,
    Call,
    Const,
    Expr,
    Neg,
    UnknownVariableError,
    Var,
    _domain_error,
    as_expr,
)
from weylrec.jets import JETS, NUMBERS, JetDomainError, JetPoly, Kind, order0_constant

_OPERATIONS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "power"}  # operator -> its Kind field


def _eval(expr: Expr, env: Dict[str, object], kind: Kind, like):
    """``expr`` on the values of ``env``, computed through ``kind``; ``like``
    is a value of that kind, which the constants take their shape from."""
    if isinstance(expr, Const):
        return kind.constant(like, expr.value)
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            known = ", ".join(sorted(env)) or "_"
            raise UnknownVariableError(f"unknown variable {expr.name!r}; bound variables: {known}", expr.span) from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env, kind, like)
    if isinstance(expr, Call):
        arg = _eval(expr.arg, env, kind, like)
        try:
            return kind.functions[expr.fn](arg)
        except (JetDomainError, OverflowError) as exc:
            raise _domain_error(expr.fn, exc, expr.span) from exc
    if isinstance(expr, BinOp):
        left = _eval(expr.left, env, kind, like)
        right = _eval(expr.right, env, kind, like)
        try:
            return getattr(kind, _OPERATIONS[expr.op])(left, right)
        except (JetDomainError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error("division" if expr.op == "/" else repr(expr.op), exc, expr.span) from exc
    raise TypeError(f"not an Expr node: {expr!r}")


def walk_jet(expr: Union[str, Expr], env: Dict[str, JetPoly]) -> JetPoly:
    """``exprlang.eval_jet`` by the tree walk (its environment's jets share one shape)."""
    return _eval(as_expr(expr), env, JETS, next(iter(env.values())))


def walk_number(expr: Union[str, Expr], env: Dict[str, object]):
    """``exprlang.eval_number`` by the tree walk."""
    env = {name: order0_constant(value) for name, value in env.items()}
    return _eval(as_expr(expr), env, NUMBERS, None)
