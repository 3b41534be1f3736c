"""The three equivalence groups of the paper, acting on jets: the oracle the
tests hold the invariants to.

* ``act_d4``: SAff1 x PSL2 x Z2 on the jet of psi (dimension >= 4);
* ``act_3d2``: the 4-parameter affine group on the jets of the pair (a, c)
  (3D, holonomy 2);
* ``act_3d1``: the pseudogroup of reparametrizations on the jet of F(x, u)
  (3D, holonomy 1).

Exact (Fraction) parameters acting on an exact jet give an exact image, so
an invariant can be checked to be unchanged as a Fraction.  The univariate
helpers below (a jet from raw derivatives, composition, inversion) serve
these actions.
"""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from weylrec import jets
from weylrec.invariants import PairJet, PsiJet
from weylrec.jets import (
    JetDomainError,
    JetPoly,
    JetShapeError,
    MultiIndex,
    derivatives_from_jet,
    jet_ln,
    quotient,
    substitute_series,
)

MOBIUS_POLE = 1e-12  # relative to max(|c psi|, |d|) at the jet value: |c psi + d| at or below it is a pole


class MobiusPoleError(ValueError):
    pass


# ----------------------------------------------------------------------
# univariate helpers
# ----------------------------------------------------------------------


def jet_from_derivatives(derivs: Sequence, base) -> JetPoly:
    """Univariate jet from raw derivative values f(c), f'(c), ..."""
    coeffs: Dict[MultiIndex, object] = {}
    fact = 1
    for k, d in enumerate(derivs):
        if k > 0:
            fact *= k
        coeffs[(k,)] = quotient(d, fact)
    return JetPoly(1, len(derivs) - 1, (base,), coeffs)


def compose_univariate(outer: JetPoly, inner: JetPoly) -> JetPoly:
    """Jet of ``outer o inner`` where inner's value equals outer's base point.

    ``outer`` is univariate; ``inner`` may live in any jet space.
    """
    if outer.nvars != 1:
        raise JetShapeError("outer jet must be univariate")
    if inner.value != outer.base[0]:
        raise JetShapeError("inner jet value must equal the outer jet's base point")
    series = [outer.coefficient((k,)) for k in range(outer.order + 1)]
    return jets._compose(inner, series)


def inverse_univariate(jet: JetPoly) -> JetPoly:
    """Jet of the inverse function at the transformed base point.

    For y = f(x) with f'(x0) != 0, returns the jet of f^{-1} at y0 = f(x0)
    (so its value is x0).  Computed by fixed-point iteration on the truncated
    composition identity f(f^{-1}(y)) = y.
    """
    if jet.nvars != 1:
        raise JetShapeError("inverse_univariate expects a univariate jet")
    s1 = jet.coefficient((1,))
    if s1 == 0:
        raise JetDomainError("cannot invert a jet with vanishing first derivative")
    k = jet.order
    y0 = jet.value
    x0 = jet.base[0]
    tail = [0, 0, *(jet.coefficient((i,)) for i in range(2, k + 1))]  # f's terms s_i of degree >= 2 around x0
    dy = JetPoly.variable(0, 1, k, (y0,)) - y0  # y - y0 as a jet in y
    # p = (f^{-1}(y) - x0); iterate p <- (dy - sum_{i>=2} s_i p^i) / s1
    p = dy / s1
    for _ in range(k):
        p = (dy - substitute_series(tail, p)) / s1
    return p + x0


# ----------------------------------------------------------------------
# the 6-parameter action on one-variable jets (dimension >= 4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElemD4:
    """Affine source t -> t / lam + s1 (lam > 0), fractional-linear target
    (a, b, c, d) with a d - b c > 0, and flip epsilon in {+1, -1}.  Applied
    as: source map, then target map, then flip.  Any multiple of (a, b, c, d)
    by a positive number is the same element, and exact parameters acting on
    an exact jet give an exact image."""

    s1: float = 0
    lam: float = 1
    a: float = 1
    b: float = 0
    c: float = 0
    d: float = 1
    eps: int = 1

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("source scaling lam must be positive")
        if not self.a * self.d - self.b * self.c > 0:
            raise ValueError("fractional-linear part needs positive determinant")
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def act_d4(elem: GroupElemD4, jet: PsiJet) -> PsiJet:
    """Transformed jet at the transformed base point."""
    base = jet.base
    derivs = list(jet.derivs)
    # source map: t -> t / lam + s1, new function psi(lam (t - s1))
    if elem.s1 != 0 or elem.lam != 1:
        base = quotient(base, elem.lam) + elem.s1
        derivs = [d * elem.lam**k for k, d in enumerate(derivs)]
    # target map: psi -> (a psi + b) / (c psi + d)
    if (elem.a, elem.b, elem.c, elem.d) != (1, 0, 0, 1):
        c_psi = elem.c * derivs[0]
        if abs(c_psi + elem.d) <= MOBIUS_POLE * max(abs(c_psi), abs(elem.d)):
            raise MobiusPoleError(f"target map has a pole at the jet value {derivs[0]}")
        j = jet_from_derivatives(derivs, 0)
        out = (elem.a * j + elem.b) / (elem.c * j + elem.d)
        derivs = derivatives_from_jet(out)
    # flip: (t, psi) -> (-t, -psi(-t))
    if elem.eps == -1:
        base = -base
        derivs = [d if k % 2 == 1 else -d for k, d in enumerate(derivs)]
    return PsiJet(base=base, derivs=tuple(derivs))


# ----------------------------------------------------------------------
# the affine action on pairs of one-variable jets (3D, holonomy 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElem3D2:
    """(A1, A2) translations and (A3, A4) scalings acting on the pair."""

    A1: float = 0.0
    A2: float = 0.0
    A3: float = 1.0
    A4: float = 1.0

    def __post_init__(self):
        if self.A3 == 0 or self.A4 == 0:
            raise ValueError("A3 and A4 must be nonzero")


def act_3d2(elem: GroupElem3D2, jet: PairJet) -> PairJet:
    """Pushforward of the pair jet; the base moves to A3 A4 u + A1."""
    s = elem.A3 * elem.A4
    mu_a = 1 / (elem.A3 * (elem.A4 * elem.A4))
    mu_c = 1 / ((elem.A3 * elem.A3) * elem.A4)
    base = s * jet.base + elem.A1
    a = tuple(ak * mu_a / s**k for k, ak in enumerate(jet.a))
    c = tuple(
        (ck * mu_c - elem.A2 * ak * mu_a) / s**k for k, (ak, ck) in enumerate(zip(jet.a, jet.c))
    )
    return PairJet(base=base, a=a, c=c)


# ----------------------------------------------------------------------
# the pseudogroup on jets of one function of two variables (3D, holonomy 1)
# ----------------------------------------------------------------------
# variable order inside the 2-variable jets: (x, u)


@dataclass(frozen=True)
class PseudoElem3D1:
    """A pseudogroup element: jets of the two reparametrizations plus the
    fiber scaling constant.  alpha, beta are raw derivative tuples at the
    source base point; alpha'(x) != 0, beta'(u) != 0 and c1 beta'(u) > 0."""

    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]
    c1: float = 1.0

    def __post_init__(self):
        if len(self.alpha) < 2 or len(self.beta) < 2:
            raise ValueError("need at least 1-jets of the reparametrizations")
        if self.alpha[1] == 0 or self.beta[1] == 0:
            raise ValueError("reparametrizations must have nonzero derivative")
        if not self.c1 * self.beta[1] > 0:
            raise ValueError("need c1 * beta'(u) > 0")


def act_3d1(elem: PseudoElem3D1, jet: JetPoly) -> JetPoly:
    """Pushforward of the two-variable jet under
    (x, u, F) -> (alpha(x), beta(u), F o (alpha^-1, beta^-1) - ln(c1 beta' / alpha'^2) / 2)."""
    if jet.nvars != 2:
        raise ValueError("expected a jet in (x, u)")
    order = jet.order
    if len(elem.alpha) < order + 1 or len(elem.beta) < order + 1:
        raise ValueError(f"reparametrization jets must have order >= {order}")
    x0, u0 = jet.base
    alpha = jet_from_derivatives(elem.alpha[: order + 1], x0)
    beta = jet_from_derivatives(elem.beta[: order + 1], u0)
    new_base = (alpha.value, beta.value)
    # the inverse reparametrizations as jets in the 2-variable target space, values x0 and u0
    A = compose_univariate(inverse_univariate(alpha), JetPoly.variable(0, 2, order, new_base))
    B = compose_univariate(inverse_univariate(beta), JetPoly.variable(1, 2, order, new_base))

    # F's Taylor polynomial evaluated at (A, B)
    dA = A - x0
    dB = B - u0
    powA = [dA.like_constant(1)]
    powB = [dB.like_constant(1)]
    for _ in range(order):
        powA.append(powA[-1] * dA)
        powB.append(powB[-1] * dB)
    acc = dA.like_constant(0)
    for (i, j), cval in jet.coeffs.items():
        acc = acc + cval * (powA[i] * powB[j])

    # correction: -(1/2) ln(c1 beta'(beta^-1)) + (1/2) ln(alpha'(alpha^-1)^2)
    beta_prime = compose_univariate(_derivative_jet(elem.beta, u0, order), B)
    alpha_prime = compose_univariate(_derivative_jet(elem.alpha, x0, order), A)
    acc = acc - jet_ln(elem.c1 * beta_prime) / 2 + jet_ln(alpha_prime * alpha_prime) / 2
    return acc


def _derivative_jet(derivs: Sequence[float], base, order: int) -> JetPoly:
    """Order-``order`` jet of the derivative of a reparametrization.

    When the reparametrization jet stops at order + 1, its top derivative is
    completed by zero: the action computed is then exactly that of the
    polynomial representative with the given derivatives.
    """
    vals = list(derivs[1 : order + 2])
    while len(vals) < order + 1:
        vals.append(0)
    return jet_from_derivatives(vals, base)
