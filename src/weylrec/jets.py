"""Truncated multivariate Taylor-polynomial ("jet") arithmetic.

This is the numeric engine behind every derivative in the package: metric
partials, Christoffel jets, curvature, total derivatives of invariants.
A jet holds the Taylor coefficients (derivative / alpha!) of a function at a
base point, up to a fixed total degree.  Coefficients may be ints, Fractions,
floats or ``Lanes`` (below); exact inputs stay exact through +, -, *, / and
integer powers, which is what makes the exact-rational evaluation mode
possible.

A jet stores its coefficients by *position*: the index of the multi-index
in the graded-lex list of all multi-indices in its variables
(``taylor_indices``).  Position 0 is the constant term, the positions of
degree <= k are the first comb(nvars + k, k), whatever the jet's order, so
a truncation keeps a prefix, and the first-degree multi-index of variable
j is at position nvars - j.  ``JetPoly.terms`` is that storage;
``JetPoly.coeffs`` is a read-only view of it keyed by multi-index, in the
same order, made on first read.  A multi-index gets its position the first
time a jet meets it, and the position arithmetic that products (sums),
divisions (differences) and derivatives use is kept in per-variable-count
tables, each entry made on its first lookup, so only the positions and
pairs that jets meet are ever made.  Division costs grow with the variables
its operands use, not with the dimension of the jet space.

Jets are immutable after construction and every operation returns a fresh
value.  Table fills are idempotent: every entry is a pure function of its
key, and of two fills that race in different threads the first to store
wins for both, so all of this is safe to call from concurrent contexts.

``Kind`` is the one table of how a computation acts on a kind of value:
``JETS``, or ``NUMBERS``, plain numbers computed with the order-0 rules.
A coefficient of a jet, or a number, may also be ``Lanes``: one float per
sample point, so that one evaluation serves a whole grid.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .thresholds import INTEGER_POWER_LIMIT, TAN_POLE

MultiIndex = Tuple[int, ...]


class JetShapeError(ValueError):
    """Arithmetic between jets with different variable count, order or base."""


class JetDomainError(ValueError):
    """Function applied outside its domain (ln/sqrt of non-positive values,
    division by a jet with zero constant term, sign/abs at zero, an integer
    power beyond INTEGER_POWER_LIMIT)."""


@lru_cache(maxsize=None)
def taylor_indices(nvars: int, order: int) -> Tuple[MultiIndex, ...]:
    """All exponent multi-indices of total degree <= order, graded lex order."""
    if nvars == 0:
        return ((),)
    out: List[MultiIndex] = []

    def rec(prefix: MultiIndex, remaining: int, budget: int) -> None:
        if remaining == 1:
            for k in range(budget + 1):
                out.append(prefix + (k,))
            return
        for k in range(budget + 1):
            rec(prefix + (k,), remaining - 1, budget - k)

    rec((), nvars, order)
    out.sort(key=lambda a: (sum(a), a))
    return tuple(out)


def _multi_factorial(alpha: MultiIndex) -> int:
    f = 1
    for a in alpha:
        f *= math.factorial(a)
    return f


class _Lazy(dict):
    """A dict whose entry for a missing key is ``make(key)``, made and kept on
    first lookup; of two lookups that race, the first to store wins for both."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        return self.setdefault(key, self.make(key))


class _Positions:
    """The positions of the multi-indices in ``nvars`` variables met so far,
    and the arithmetic on them, each entry made on first lookup:

    * ``sums[p][q]``: the position of the sum of the multi-indices at p and q;
    * ``differences[p][q]``: that of their difference, None where an exponent
      would be negative;
    * ``steps[i][p]``: (the position of the multi-index at p less one in
      variable i, its exponent there), None where that exponent is 0;
    * ``below[k]``: the number of multi-indices of degree <= k;
    * ``supported[k, mask]``: the positions of degree <= k whose exponents
      are nonzero only on the variables of the bit ``mask``, in order.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.multi_index: Dict[int, MultiIndex] = {}
        self.position: Dict[MultiIndex, int] = {}
        self.degree: Dict[int, int] = {}
        self.mask: Dict[int, int] = {}  # bit i set where the exponent of variable i is nonzero
        multi_index, intern = self.multi_index, self.intern
        self.below = _Lazy(lambda k: math.comb(nvars + k, k))

        def sums(p: int) -> _Lazy:
            alpha = multi_index[p]
            return _Lazy(lambda q: intern(tuple(map(operator.add, alpha, multi_index[q]))))

        def differences(p: int) -> _Lazy:
            alpha = multi_index[p]

            def difference(q: int) -> Optional[int]:
                gamma = tuple(map(operator.sub, alpha, multi_index[q]))
                return None if min(gamma) < 0 else intern(gamma)

            return _Lazy(difference)

        def steps(i: int) -> _Lazy:
            def step(p: int) -> Optional[Tuple[int, int]]:
                alpha = multi_index[p]
                k = alpha[i]
                return None if k == 0 else (intern(alpha[:i] + (k - 1,) + alpha[i + 1 :]), k)

            return _Lazy(step)

        def supported(key: Tuple[int, int]) -> Tuple[int, ...]:
            order, mask = key
            active = [i for i in range(nvars) if mask >> i & 1]
            out = []
            for exponents in taylor_indices(len(active), order):
                alpha = [0] * nvars
                for i, e in zip(active, exponents):
                    alpha[i] = e
                out.append(intern(tuple(alpha)))
            return tuple(out)

        self.sums = _Lazy(sums)
        self.differences = _Lazy(differences)
        self.steps = _Lazy(steps)
        self.supported = _Lazy(supported)
        for alpha in ((0,) * nvars, *(tuple(int(i == j) for i in range(nvars)) for j in range(nvars))):
            intern(alpha)  # the constant term and the first-degree terms, read by position

    def intern(self, alpha: MultiIndex) -> int:
        """The position of ``alpha``, recorded on first use."""
        p = self.position.get(alpha)
        if p is None:
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.nvars or min(alpha, default=0) < 0:
                raise JetShapeError(f"{alpha} is not a multi-index in {self.nvars} variables")
            p = _rank(alpha)
            self.multi_index[p] = alpha
            self.degree[p] = sum(alpha)
            self.mask[p] = sum(1 << i for i, e in enumerate(alpha) if e)
            self.position[alpha] = p  # last, so that a reader who finds p finds the rest
        return p


def _rank(alpha: MultiIndex) -> int:
    """The position of ``alpha`` in the graded-lex order of ``taylor_indices``:
    the multi-indices of lower degree, then those of its degree that agree
    with it before some variable i and are smaller at i."""
    n, rest = len(alpha), sum(alpha)
    p = math.comb(n + rest - 1, n) if rest else 0
    for i, a in enumerate(alpha[:-1]):
        tail = n - 1 - i
        p += math.comb(rest + tail, tail) - math.comb(rest - a + tail, tail)
        rest -= a
    return p


_TABLES: Dict[int, _Positions] = _Lazy(_Positions)  # nvars -> its one position table


def _jet(nvars: int, order: int, base: tuple, terms: Dict[int, object]) -> "JetPoly":
    """The jet of coefficients ``terms``, keyed by position, owned by the jet from now on."""
    jet = JetPoly.__new__(JetPoly)
    jet.nvars = nvars
    jet.order = order
    jet.base = base
    jet.terms = terms
    return jet


class JetPoly:
    """Taylor polynomial of total degree <= ``order`` around ``base``.

    ``terms`` maps positions (see the module docstring) to Taylor
    coefficients, and ``coeffs`` is the same map keyed by multi-index;
    absent entries are zero, and the constructor drops an exact-zero (int or
    Fraction) coefficient, as every jet operation does.  The logical
    coefficient table always covers the full dense index set of degree <=
    order (see :meth:`partials`).
    """

    __slots__ = ("nvars", "order", "base", "terms", "_coeffs")

    def __init__(self, nvars: int, order: int, base: Sequence, coeffs: Optional[Mapping[MultiIndex, object]] = None):
        self.nvars = nvars
        self.order = order
        self.base = tuple(base)
        intern = _TABLES[nvars].intern
        self.terms = {intern(alpha): c for alpha, c in coeffs.items() if not exact_zero(c)} if coeffs else {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int, order: int, base: Sequence) -> "JetPoly":
        return _jet(nvars, order, tuple(base), {0: value} if value else {})

    @classmethod
    def variable(cls, index: int, nvars: int, order: int, base: Sequence) -> "JetPoly":
        base = tuple(base)
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        terms: Dict[int, object] = {}
        if base[index]:
            terms[0] = base[index]
        if order >= 1:
            terms[nvars - index] = 1
        return _jet(nvars, order, base, terms)

    def like_constant(self, value) -> "JetPoly":
        return _jet(self.nvars, self.order, self.base, {0: value} if value else {})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[MultiIndex, object]:
        """The coefficients keyed by multi-index, in the order of ``terms``:
        a read-only view, made on first read and kept."""
        try:
            return self._coeffs
        except AttributeError:
            multi_index = _TABLES[self.nvars].multi_index
            self._coeffs = MappingProxyType({multi_index[p]: c for p, c in self.terms.items()})
            return self._coeffs

    @property
    def value(self):
        """Order-0 coefficient (the function value at the base point)."""
        return self.terms.get(0, 0)

    def coefficient(self, alpha: MultiIndex):
        p = _TABLES[self.nvars].position.get(tuple(alpha))
        return 0 if p is None else self.terms.get(p, 0)

    def partial(self, alpha: MultiIndex):
        """Raw partial derivative d^alpha f = Taylor coefficient * alpha!."""
        return self.coefficient(alpha) * _multi_factorial(tuple(alpha))

    def partials(self) -> Dict[MultiIndex, object]:
        """Full table of raw partial derivatives, dense over |alpha| <= order."""
        return {a: self.coefficient(a) * _multi_factorial(a) for a in taylor_indices(self.nvars, self.order)}

    def gradient(self) -> list:
        """The first-degree coefficients, in variable order (variable j at position nvars - j)."""
        terms, n = self.terms, self.nvars
        return [terms.get(n - j, 0) for j in range(n)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        multi_index = _TABLES[self.nvars].multi_index
        items = ", ".join(f"{multi_index[p]}: {c}" for p, c in sorted(self.terms.items()))
        return f"JetPoly(m={self.nvars}, k={self.order}, base={self.base}, {{{items}}})"

    # ------------------------------------------------------------------
    # shape plumbing
    # ------------------------------------------------------------------

    def _check_shape(self, other: "JetPoly") -> None:
        if self.nvars != other.nvars or self.order != other.order or self.base != other.base:
            raise JetShapeError(
                f"jet shape mismatch: ({self.nvars},{self.order},{self.base}) vs "
                f"({other.nvars},{other.order},{other.base})"
            )

    def truncated(self, order: int) -> "JetPoly":
        if order > self.order:
            raise JetShapeError(f"cannot extend a jet of order {self.order} to order {order}")
        if order == self.order:
            return self
        cut = _TABLES[self.nvars].below[order]
        return _jet(self.nvars, order, self.base, {p: c for p, c in self.terms.items() if p < cut})

    def derivative(self, index: int) -> "JetPoly":
        """Partial derivative jet; drops the truncation order by one."""
        if self.order < 1:
            raise JetShapeError("cannot differentiate an order-0 jet")
        table = _TABLES[self.nvars]
        cut = table.below[self.order]
        steps = table.steps[index]
        terms: Dict[int, object] = {}
        for p, c in self.terms.items():
            if p < cut:
                step = steps[p]
                if step is not None:
                    terms[step[0]] = c * step[1]
        return _jet(self.nvars, self.order - 1, self.base, terms)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _combine(self, other: "JetPoly", sign: int) -> "JetPoly":
        """self + other (sign 1) or self - other (sign -1), coefficient-wise."""
        self._check_shape(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for p, c in other.terms.items():
            s = terms.get(p, 0) + c if sign == 1 else terms.get(p, 0) - c
            if s == 0 and not isinstance(s, _INEXACT):
                terms.pop(p, None)
            else:
                terms[p] = s
        return _jet(self.nvars, self.order, self.base, terms)

    def __add__(self, other):
        if isinstance(other, JetPoly):
            return self._combine(other, 1)
        return self + self.like_constant(other)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.nvars, self.order, self.base, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, JetPoly):
            return self._combine(other, -1)
        return self + self.like_constant(-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, JetPoly):
            self._check_shape(other)
            order = self.order
            table = _TABLES[self.nvars]
            below, degree, sums = table.below, table.degree, table.sums
            terms: Dict[int, object] = {}
            get = terms.get
            for p1, c1 in self.terms.items():
                budget = order - degree[p1]
                if budget < 0:
                    continue
                cut = below[budget]  # the positions of degree <= budget
                row = sums[p1]
                for p2, c2 in other.terms.items():
                    if p2 < cut:
                        q = row[p2]
                        terms[q] = get(q, 0) + c1 * c2
            for p in [p for p, c in terms.items() if c == 0 and not isinstance(c, _INEXACT)]:
                del terms[p]
            return _jet(self.nvars, order, self.base, terms)
        if not other:
            return self.like_constant(0)
        return _jet(self.nvars, self.order, self.base, {p: c * other for p, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetPoly):
            self._check_shape(other)
            return _divide(self, other)
        if isinstance(other, int) and other == 2:
            return _jet(self.nvars, self.order, self.base, {p: half(c) for p, c in self.terms.items()})
        return self * quotient(1, divisor(other))

    def __rtruediv__(self, other):
        return _divide(self.like_constant(other), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet ** exponent must be an int; use jet_pow for general exponents")
        if n == 0:
            return self.like_constant(1)
        if n < 0:
            return 1 / (self ** (-n))
        result = self
        for _ in range(n - 1):
            result = result * self
        return result


def coordinate_jets(names: Sequence[str], point: Sequence, order: int) -> Dict[str, JetPoly]:
    """``{name: x^i}``: the coordinate jets of ``order`` at ``point``, the i-th
    coordinate named ``names[i]``; the environment an Expr is evaluated in."""
    return {name: JetPoly.variable(i, len(names), order, point) for i, name in enumerate(names)}


def derivatives_from_jet(jet: JetPoly) -> list:
    """Raw derivative list f(c), f'(c), ... of a univariate jet."""
    if jet.nvars != 1:
        raise JetShapeError("derivatives_from_jet expects a univariate jet")
    out = []
    fact = 1
    for k in range(jet.order + 1):
        if k > 0:
            fact *= k
        out.append(jet.terms.get(k, 0) * fact)  # (k,) is at position k
    return out


def divisor(b):
    """``b``, checked as a divisor: every jet quotient needs a nonzero constant term."""
    if not b:
        raise JetDomainError("division by a jet with zero constant term")
    return b


def quotient(a, b):
    """a / b for a checked divisor ``b``: a Fraction when both are exact (int or Fraction)."""
    if isinstance(a, float) or isinstance(b, float):  # the common case, without the slower Fraction test
        return a / b
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / b
    return a / b


_HALF = Fraction(1, 2)


def half(c):
    """c / 2 as a jet divides a coefficient by an exact 2: c * Fraction(1, 2).
    CPython computes a float times a Fraction as float(c) * float(1/2), so a
    float c takes c * 0.5, the same bits without the Fraction's slow path."""
    return c * 0.5 if isinstance(c, float) else c * _HALF


# ----------------------------------------------------------------------
# the order-0 rules.  A plain number stands for the order-0 jet whose value
# it is: a jet drops an exact-zero (int or Fraction) coefficient, so an
# exact zero is the empty jet and reads as int 0, while a float zero is kept
# as a jet keeps it.  These are the rules the jet operations above apply to
# each coefficient; NUMBERS (below) computes with them.
# ----------------------------------------------------------------------


def exact_zero(x) -> bool:
    """A number that stands for the empty jet."""
    return x == 0 and not isinstance(x, _INEXACT)


def order0_constant(value):
    """``JetPoly.constant(value).value``: a float zero is dropped too."""
    return value if value else 0


def order0_coefficient(x):
    """``x`` as an order-0 jet holds it: an exact zero becomes int 0."""
    return 0 if exact_zero(x) else x


def order0_add(x, y):
    """A jet sum returns its left operand unchanged when the right one is empty."""
    return x if exact_zero(y) else order0_coefficient(x + y)


def order0_sub(x, y):
    return x if exact_zero(y) else order0_coefficient(x - y)


def order0_mul(x, y):
    """A jet product: empty if a factor is, else 0 + x * y (so -0.0 becomes 0.0)."""
    return 0 if exact_zero(x) or exact_zero(y) else order0_coefficient(0 + x * y)


def order0_div(x, y):
    """``_divide`` at order 0."""
    divisor(y)
    return 0 if exact_zero(x) else quotient(x, y)


def _divide(num: JetPoly, den: JetPoly) -> JetPoly:
    """Graded long division; requires a nonzero constant term in ``den``.

    Only multi-indices over the variables that ``num`` or ``den`` use can get a
    nonzero coefficient, so the division runs over those alone.
    """
    b0 = divisor(den.value)
    table = _TABLES[num.nvars]
    terms: Dict[int, object] = {}
    den_rest = [(p, c) for p, c in den.terms.items() if p]
    masks = table.mask
    used = 0
    for p in num.terms:
        used |= masks[p]
    for p, _ in den_rest:
        used |= masks[p]
    num_terms, differences = num.terms, table.differences
    for pa in table.supported[num.order, used]:
        acc = num_terms.get(pa, 0)
        row = differences[pa]
        for pb, cb in den_rest:
            pg = row[pb]
            if pg is not None:
                cg = terms.get(pg)
                if cg is not None:
                    acc = acc - cb * cg
        if acc == 0 and not isinstance(acc, _INEXACT):
            continue
        terms[pa] = quotient(acc, b0)
    return _jet(num.nvars, num.order, num.base, terms)


# ----------------------------------------------------------------------
# elementary functions.  Each ``*_series(c0, order)`` checks the function's
# domain at the value c0 and returns its Taylor coefficients at c0 through
# ``order``; a jet composes them with its own non-constant part, and a plain
# number (order 0) reads the first one.  A value beyond the float range
# raises OverflowError, which the expression evaluator reports as an
# overflow.
# ----------------------------------------------------------------------


def substitute_series(series: Sequence, delta: JetPoly) -> JetPoly:
    """Evaluate sum_i series[i] * delta**i by Horner; delta has zero constant term."""
    result = delta.like_constant(series[-1])
    for s in reversed(series[:-1]):
        result = result * delta + s
    return result


def _delta(jet: JetPoly) -> JetPoly:
    return _jet(jet.nvars, jet.order, jet.base, {p: c for p, c in jet.terms.items() if p})


def _compose(jet: JetPoly, series: Sequence) -> JetPoly:
    return substitute_series(series, _delta(jet))


def exp_series(c0, order: int) -> list:
    series = [math.exp(float(c0))]
    for i in range(1, order + 1):
        series.append(series[-1] / i)
    return series


def ln_series(c0, order: int) -> list:
    if c0 <= 0:
        raise JetDomainError(f"ln of non-positive value {c0}")
    series = [math.log(float(c0))]
    if order:
        # higher coefficients are rational in c0; keeping them exact lets the
        # exact-rational mode survive a single log (only the value goes float)
        exact = isinstance(c0, (int, Fraction))
        p = Fraction(c0) if exact else float(c0)
        for i in range(1, order + 1):
            if exact:
                term = Fraction((-1) ** (i + 1), i) / p**i
            else:
                # near 0 (a subnormal c0, say) p**i rounds to 0 or 1 / (i p**i) is inf
                power = p**i
                term = (-1) ** (i + 1) / (i * power) if power else math.inf
                if math.isinf(term):
                    raise OverflowError(f"a Taylor coefficient of ln at {c0} is beyond the float range")
            series.append(term)
    return series


def sin_series(c0, order: int, shift: int = 0) -> list:
    """``shift`` advances the derivative cycle (shift 1 gives cos)."""
    sin, cos = math.sin(float(c0)), math.cos(float(c0))
    cycle = [sin, cos, -sin, -cos]
    series = [cycle[shift]]
    fact = 1.0
    for i in range(1, order + 1):
        fact *= i
        series.append(cycle[(i + shift) % 4] / fact)
    return series


def cos_series(c0, order: int) -> list:
    return sin_series(c0, order, 1)


def binomial_series(c0, exponent, order: int) -> list:
    """x^r expanded at x = c0 > 0, for a non-integer exponent r."""
    if c0 <= 0:
        raise JetDomainError(f"non-integer power of non-positive value {c0}")
    r = float(exponent)
    c0f = float(c0)
    series = [c0f**r]
    binom = 1.0
    for i in range(1, order + 1):
        binom *= (r - (i - 1)) / i
        series.append(binom * c0f ** (r - i))
    return series


def sqrt_series(c0, order: int) -> list:
    if c0 <= 0:
        raise JetDomainError(f"sqrt of non-positive value {c0}")
    return binomial_series(c0, Fraction(1, 2), order)


SERIES = {"exp": exp_series, "ln": ln_series, "sin": sin_series, "cos": cos_series, "sqrt": sqrt_series}


def check_tan(c0) -> None:
    """tan = sin / cos is defined where cos(c0) is not 0.  The cosine of a
    double is never exactly 0.0; at the double nearest a pole it is about one
    float spacing of c0, so a pole is |cos c0| <= TAN_POLE max(1, |c0|).
    A Lanes c0 is tested at each lane."""
    for x in c0.array.tolist() if type(c0) is Lanes else (float(c0),):
        if abs(math.cos(x)) <= TAN_POLE * max(1.0, abs(x)):
            raise JetDomainError("tan at a pole")


def branch_sign(fn: str, c0) -> int:
    """The sign of c0, which picks the branch of ``fn`` (abs or sign); 0 has none."""
    if not c0:
        raise JetDomainError(f"{fn} of a jet with zero constant term")
    return 1 if c0 > 0 else -1


def power_exponent(c0, exponent):
    """The exponent of ``x ** exponent`` at x = c0, as both evaluators apply it.

    An integral exponent becomes an int, of modulus at most
    ``thresholds.INTEGER_POWER_LIMIT`` (an integer power costs that many
    products) and negative only for a nonzero c0; any other exponent is
    returned as it is, for the binomial series.
    """
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        exponent = int(exponent)
    if isinstance(exponent, float) and exponent.is_integer():
        exponent = int(exponent)
    if isinstance(exponent, int):
        if exponent < 0 and not c0:
            raise JetDomainError("negative power of a jet with zero constant term")
        if abs(exponent) > INTEGER_POWER_LIMIT:
            raise JetDomainError(f"integer power {exponent} exceeds the limit of {INTEGER_POWER_LIMIT} in modulus")
    return exponent


def _jet_series(series: Callable) -> Callable:
    """The function whose Taylor ``series`` is given, on a jet: the series composed with it."""

    def function(jet: JetPoly) -> JetPoly:
        c0 = jet.value
        return _compose(jet, _per_lane(series, c0, jet.order) if type(c0) is Lanes else series(c0, jet.order))

    return function


jet_exp, jet_ln, jet_sin, jet_cos, jet_sqrt = map(_jet_series, SERIES.values())  # in SERIES' order


def jet_tan(jet: JetPoly) -> JetPoly:
    check_tan(jet.value)
    return jet_sin(jet) / jet_cos(jet)


def jet_sign(jet: JetPoly) -> JetPoly:
    return jet.like_constant(branch_sign("sign", jet.value))


def jet_abs(jet: JetPoly) -> JetPoly:
    return jet if branch_sign("abs", jet.value) > 0 else -jet


def jet_pow(jet: JetPoly, exponent) -> JetPoly:
    """jet ** exponent for integer or real exponents.

    Integer exponents are exact (repeated multiplication / reciprocal);
    general exponents use the binomial series and require a positive base.
    """
    c0 = jet.value
    exponent = power_exponent(c0, exponent)
    if isinstance(exponent, int):
        return jet**exponent
    if type(c0) is Lanes:
        return _compose(jet, _per_lane(binomial_series, c0, exponent, jet.order))
    return _compose(jet, binomial_series(c0, exponent, jet.order))


UNARY_FUNCTIONS = {
    "exp": jet_exp,
    "ln": jet_ln,
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "abs": jet_abs,
    "sign": jet_sign,
    "sqrt": jet_sqrt,
}


def _jet_power(base: JetPoly, exponent: JetPoly) -> JetPoly:
    """base ^ exponent for two jets; a non-constant exponent is exp(exponent ln base)."""
    if any(p and c for p, c in exponent.terms.items()):
        return jet_exp(exponent * jet_ln(base))
    return jet_pow(base, exponent.value)


def _order0_pow(x, exponent):
    """``jet_pow`` at order 0: integer powers are repeated products."""
    exponent = power_exponent(x, exponent)
    if not isinstance(exponent, int):
        if type(x) is Lanes:
            return order0_constant(_per_lane(binomial_series, x, exponent, 0)[0])
        return order0_constant(binomial_series(x, exponent, 0)[0])
    if exponent == 0:
        return 1
    if exponent < 0:
        return order0_div(1, _order0_pow(x, -exponent))
    result = x
    for _ in range(exponent - 1):
        result = order0_mul(result, x)
    return result


def _order0_series(series: Callable) -> Callable:
    """The function whose Taylor ``series`` is given, on a number: its order-0 term."""
    return lambda x: order0_constant((_per_lane(series, x, 0) if type(x) is Lanes else series(x, 0))[0])


_order0_sin, _order0_cos = _order0_series(sin_series), _order0_series(cos_series)


def _order0_tan(x):
    """sin / cos through ``order0_div``, as ``jet_tan`` divides the two jets."""
    check_tan(x)
    return order0_div(_order0_sin(x), _order0_cos(x))


# ----------------------------------------------------------------------
# lanes.  A Lanes value holds one float per sample point (a "lane") in a
# float64 array.  Jets whose coefficients are Lanes where they depend on the
# point, and plain numbers where they do not, run a whole grid of points
# through one pass of the jet loops above, and so do the numbers of the
# order-0 rules; each lane holds the float that the scalar jets or numbers
# give at its point, to the bit:
#   * numpy does only +, -, * and / and abs, which it rounds as Python rounds
#     floats; an exact operand (int or Fraction) meets the lanes as float() of
#     it, as CPython converts it before it meets a float, and a zero divisor
#     on any lane raises ZeroDivisionError, as a float division by zero does;
#   * a power, a Taylor series and a tan pole test run per lane in Python (the
#     series and the tan test see a Lanes value and take it lane by lane,
#     ``_per_lane``); a power whose exponent is Lanes raises TypeError;
#   * a test of lanes (a truth value, <, <=, > or >=) answers when every lane
#     gives the same answer, and raises LaneSplit when they do not: the
#     scalar jets would take different branches at different points, such as
#     another sign, or another pivot row in the inverse of a metric.  The
#     order-0 rules test a value's truth (``if not b``), so that a zero on
#     some lanes raises; == asks whether every lane is equal, one answer for
#     all, which a jet asks of a coefficient only to find an exact zero, and
#     a Lanes value is never one;
#   * a largest value that each lane takes apart, such as the cut below
#     which a pivot is singular, is ``lane_max``.
# So a batched computation gives every lane's scalar value or raises, and its
# caller re-runs a raising batch point by point.  Overflow to inf or nan is
# silent, as in float arithmetic; numpy warns of it unless the lanes run
# under np.errstate.
# ----------------------------------------------------------------------


class LaneSplit(ArithmeticError):
    """A test whose lanes answer differently, so that no one branch serves them all."""


def _operand(x):
    """``x`` as the lanes meet it: a Lanes value's array, a float as it is, an
    exact number as float(x) (which refuses one beyond the float range); None
    for anything else."""
    if type(x) is Lanes:
        return x.array
    if isinstance(x, float):
        return x
    if isinstance(x, (int, Fraction)):
        return float(x)
    return None


def _divisor(y):
    if (not y.all()) if type(y) is np.ndarray else y == 0:
        raise ZeroDivisionError("float division by zero")
    return y


def _agreed(answers: np.ndarray) -> bool:
    """The answer of every lane, when they agree."""
    n = np.count_nonzero(answers)
    if n and n != answers.size:
        raise LaneSplit("the lanes of a test answer differently")
    return bool(n)


def _arithmetic(op: Callable, reflected: bool = False) -> Callable:
    def method(self, other):
        y = _operand(other)
        if y is None:
            return NotImplemented
        return _lanes(op(y, self.array) if reflected else op(self.array, y))

    return method


def _compared(x):
    """``x`` as the lanes compare with it: as ``_operand``, where a float holds it exactly."""
    y = _operand(x)
    if isinstance(x, (int, Fraction)) and y != x:
        raise TypeError(f"{x!r} is not a float: lanes compare with floats only")
    return y


def _test(op: Callable) -> Callable:
    """The order test ``op`` of a Lanes value, answered when every lane agrees."""

    def method(self, other):
        y = _compared(other)
        return NotImplemented if y is None else _agreed(op(self.array, y))

    return method


class Lanes:
    """One float per lane, in the float64 array ``array``."""

    __slots__ = ("array",)
    __array_ufunc__ = None  # numpy operands defer to these methods, never making an object array
    __hash__ = None

    def __init__(self, values: Sequence[float]):
        self.array = np.array(values, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lanes({self.array.tolist()})"

    __add__ = _arithmetic(operator.add)
    __radd__ = _arithmetic(operator.add, reflected=True)
    __sub__ = _arithmetic(operator.sub)
    __rsub__ = _arithmetic(operator.sub, reflected=True)
    __mul__ = _arithmetic(operator.mul)
    __rmul__ = _arithmetic(operator.mul, reflected=True)

    def __eq__(self, other):
        y = _compared(other)
        return NotImplemented if y is None else bool((self.array == y).all())

    __lt__, __le__, __gt__, __ge__ = map(_test, (operator.lt, operator.le, operator.gt, operator.ge))

    def __truediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _lanes(self.array / _divisor(y))

    def __rtruediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else _lanes(y / _divisor(self.array))

    def __neg__(self):
        return _lanes(-self.array)

    def __abs__(self):
        return _lanes(np.abs(self.array))

    def __pow__(self, exponent):
        if type(exponent) is Lanes:
            return NotImplemented
        return _lanes(np.array([x**exponent for x in self.array.tolist()], dtype=np.float64))

    def __bool__(self):
        return _agreed(self.array != 0)


def _lanes(array: np.ndarray) -> Lanes:
    """The Lanes value of ``array``, which it owns from now on."""
    x = object.__new__(Lanes)
    x.array = array
    return x


_INEXACT = (float, Lanes)  # the values a jet keeps when they are zero


def lane_values(x, width: int) -> list:
    """``x`` on each of ``width`` lanes: a Lanes value's floats, a plain number repeated."""
    return x.array.tolist() if type(x) is Lanes else [x] * width


def lane_max(values: Sequence):
    """The largest of ``values``, floats or Lanes, on each lane, as np.max
    takes it (a nan is the largest): Lanes where some value is, else a float."""
    if not any(type(x) is Lanes for x in values):
        return float(np.max(values))
    return _lanes(np.max(np.broadcast_arrays(*(x.array if type(x) is Lanes else x for x in values)), axis=0))


def lanes_at(x, keep: List[int]):
    """``x`` on the lanes ``keep`` alone; a plain number as it is."""
    return _lanes(x.array[keep]) if type(x) is Lanes else x


def _per_lane(series: Callable, c0: Lanes, *args) -> list:
    """``series(x, *args)`` run on each lane's value x of ``c0``, its coefficients stacked into Lanes."""
    rows = [series(x, *args) for x in c0.array.tolist()]
    return [_lanes(np.array(column, dtype=np.float64)) for column in zip(*rows)]


# ----------------------------------------------------------------------
# the two kinds of value.  The expression evaluator (exprlang) and the
# geometry pass (tensor) compute through a Kind, so one routine serves jets
# and the plain numbers that stand for order-0 jets, and gives the numbers the
# values of the jets it would build, to the bit.  A coefficient of a jet, or
# a number, may be Lanes.
# ----------------------------------------------------------------------


class Kind(NamedTuple):
    """How a computation acts on one kind of value."""

    empty: Callable  # x is a structural zero: an empty jet, an exact-zero number
    constant: Callable  # (a value, c) -> the constant c in that value's kind
    add: Callable
    sub: Callable
    mul: Callable
    div: Callable  # a zero divisor is a JetDomainError
    power: Callable  # (base, exponent), both of the kind
    half: Callable  # x / 2
    value: Callable  # x at the point, as a float; a Lanes number as it is
    functions: Dict[str, Callable]  # name -> unary function


JETS = Kind(
    lambda jet: not jet.terms,
    JetPoly.like_constant,
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    _jet_power,
    lambda jet: jet / 2,
    lambda jet: float(jet.value),
    UNARY_FUNCTIONS,
)
NUMBERS = Kind(
    exact_zero,
    lambda x, c: order0_constant(c),
    order0_add,
    order0_sub,
    order0_mul,
    order0_div,
    _order0_pow,
    half,
    lambda x: x if type(x) is Lanes else float(x),
    {
        **{name: _order0_series(series) for name, series in SERIES.items()},
        "tan": _order0_tan,
        "abs": lambda x: x if branch_sign("abs", x) > 0 else -x,
        "sign": lambda x: branch_sign("sign", x),
    },
)
