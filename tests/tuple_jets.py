"""The tuple-keyed jet engine that positions replaced, verbatim: ``JetPoly``'s
``__mul__`` (with its index-sum memo), ``_combine``, ``derivative`` and
``truncated``, and ``_divide`` and ``_compose``, with only the class renamed
``TupleJet``.  ``test_jets.py`` checks the position engine against it,
coefficient by coefficient, in the same key order.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from weylrec.jets import JetShapeError, divisor, exact_zero, quotient, taylor_indices

MultiIndex = Tuple[int, ...]


class _IndexSums(dict):
    """``a2 -> a1 + a2`` for one multi-index ``a1``, or None where the sum's
    degree exceeds the order; each entry is made on first lookup."""

    __slots__ = ("a1", "budget")

    def __init__(self, a1: MultiIndex, order: int):
        super().__init__()
        self.a1 = a1
        self.budget = order - sum(a1)

    def __missing__(self, a2: MultiIndex) -> Optional[MultiIndex]:
        key = None if sum(a2) > self.budget else tuple(x + y for x, y in zip(self.a1, a2))
        self[a2] = key
        return key


# order -> a1 -> its _IndexSums; entries are pure functions of their keys, so
# a lookup racing a fill in another thread stores the same value
_INDEX_SUMS: Dict[int, Dict[MultiIndex, _IndexSums]] = defaultdict(dict)


class TupleJet:
    """Taylor polynomial of total degree <= ``order`` around ``base``.

    ``coeffs`` maps multi-indices to Taylor coefficients; absent entries are
    zero, and the constructor drops an exact-zero coefficient, as
    ``JetPoly``'s does.  The logical coefficient table always covers the full
    dense index set of degree <= order (see :meth:`partials`).
    """

    __slots__ = ("nvars", "order", "base", "coeffs")

    def __init__(self, nvars: int, order: int, base: Sequence, coeffs: Dict[MultiIndex, object] | None = None):
        self.nvars = nvars
        self.order = order
        self.base = tuple(base)
        self.coeffs = {a: c for a, c in coeffs.items() if not exact_zero(c)} if coeffs else {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int, order: int, base: Sequence) -> "TupleJet":
        coeffs = {} if value == 0 else {(0,) * nvars: value}
        return cls(nvars, order, base, coeffs)

    def like_constant(self, value) -> "TupleJet":
        return TupleJet.constant(value, self.nvars, self.order, self.base)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def value(self):
        """Order-0 coefficient (the function value at the base point)."""
        return self.coeffs.get((0,) * self.nvars, 0)

    def coefficient(self, alpha: MultiIndex):
        return self.coeffs.get(tuple(alpha), 0)

    # ------------------------------------------------------------------
    # shape plumbing
    # ------------------------------------------------------------------

    def _check_shape(self, other: "TupleJet") -> None:
        if self.nvars != other.nvars or self.order != other.order or self.base != other.base:
            raise JetShapeError(
                f"jet shape mismatch: ({self.nvars},{self.order},{self.base}) vs "
                f"({other.nvars},{other.order},{other.base})"
            )

    def truncated(self, order: int) -> "TupleJet":
        if order > self.order:
            raise JetShapeError(f"cannot extend a jet of order {self.order} to order {order}")
        if order == self.order:
            return self
        coeffs = {a: c for a, c in self.coeffs.items() if sum(a) <= order}
        return TupleJet(self.nvars, order, self.base, coeffs)

    def derivative(self, index: int) -> "TupleJet":
        """Partial derivative jet; drops the truncation order by one."""
        if self.order < 1:
            raise JetShapeError("cannot differentiate an order-0 jet")
        coeffs: Dict[MultiIndex, object] = {}
        for alpha, c in self.coeffs.items():
            k = alpha[index]
            if k >= 1 and sum(alpha) <= self.order:
                coeffs[alpha[:index] + (k - 1,) + alpha[index + 1 :]] = c * k
        return TupleJet(self.nvars, self.order - 1, self.base, coeffs)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _combine(self, other: "TupleJet", sign: int) -> "TupleJet":
        """self + other (sign 1) or self - other (sign -1), coefficient-wise."""
        self._check_shape(other)
        if not other.coeffs:
            return self
        coeffs = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = coeffs.get(a, 0) + c if sign == 1 else coeffs.get(a, 0) - c
            if s == 0 and not isinstance(s, float):
                coeffs.pop(a, None)
            else:
                coeffs[a] = s
        return TupleJet(self.nvars, self.order, self.base, coeffs)

    def __add__(self, other):
        if isinstance(other, TupleJet):
            return self._combine(other, 1)
        return self + self.like_constant(other)

    __radd__ = __add__

    def __neg__(self):
        return TupleJet(self.nvars, self.order, self.base, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, TupleJet):
            return self._combine(other, -1)
        return self + self.like_constant(-other)

    def __mul__(self, other):
        if isinstance(other, TupleJet):
            self._check_shape(other)
            order = self.order
            coeffs: Dict[MultiIndex, object] = {}
            memo = _INDEX_SUMS[order]
            for a1, c1 in self.coeffs.items():
                sums = memo.get(a1)
                if sums is None:
                    sums = memo[a1] = _IndexSums(a1, order)
                for a2, c2 in other.coeffs.items():
                    key = sums[a2]
                    if key is not None:
                        coeffs[key] = coeffs.get(key, 0) + c1 * c2
            for a in [a for a, c in coeffs.items() if c == 0 and not isinstance(c, float)]:
                del coeffs[a]
            return TupleJet(self.nvars, order, self.base, coeffs)
        if other == 0:
            return self.like_constant(0)
        return TupleJet(self.nvars, self.order, self.base, {a: c * other for a, c in self.coeffs.items()})

    __rmul__ = __mul__

@lru_cache(maxsize=None)
def _indices_on(nvars: int, order: int, active: Tuple[int, ...]) -> Tuple[MultiIndex, ...]:
    """``taylor_indices(nvars, order)`` restricted to exponents supported on ``active``, same order."""
    inactive = [i for i in range(nvars) if i not in active]
    return tuple(a for a in taylor_indices(nvars, order) if not any(a[i] for i in inactive))


def _divide(num: TupleJet, den: TupleJet) -> TupleJet:
    """Graded long division; requires a nonzero constant term in ``den``.

    Only multi-indices over the variables that ``num`` or ``den`` use can get a
    nonzero coefficient, so the division runs over those alone.
    """
    b0 = divisor(den.value)
    coeffs: Dict[MultiIndex, object] = {}
    den_rest = [(a, c) for a, c in den.coeffs.items() if sum(a) > 0]
    exponents_by_variable = zip(*num.coeffs, *(a for a, _ in den_rest))
    active = tuple(i for i, exponents in enumerate(exponents_by_variable) if any(exponents))
    for alpha in _indices_on(num.nvars, num.order, active):
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
        coeffs[alpha] = quotient(acc, b0)
    return TupleJet(num.nvars, num.order, num.base, coeffs)


def substitute_series(series: Sequence, delta: TupleJet) -> TupleJet:
    """Evaluate sum_i series[i] * delta**i by Horner; delta has zero constant term."""
    result = delta.like_constant(series[-1])
    for s in reversed(series[:-1]):
        result = result * delta + s
    return result


def _delta(jet: TupleJet) -> TupleJet:
    coeffs = {a: c for a, c in jet.coeffs.items() if sum(a) > 0}
    return TupleJet(jet.nvars, jet.order, jet.base, coeffs)


def _compose(jet: TupleJet, series: Sequence) -> TupleJet:
    return substitute_series(series, _delta(jet))


