"""Seeded random elements of the three equivalence groups, for the tests.

Each sampler draws from an ``rng`` with the ``random.Random`` interface
(``uniform``, ``randint`` and ``choice``), so a seeded generator gives the
same elements on every run.  The ``random_exact_*`` samplers draw Fraction
parameters, whose action on an exact jet is exact.
"""

import math
from fractions import Fraction

from group_actions import GroupElem3D2, GroupElemD4, PseudoElem3D1


def random_d4_element(rng, jet_value: float) -> GroupElemD4:
    """Seeded random element whose target map avoids the pole at jet_value."""
    for _ in range(100):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(-2, 2)
        d = rng.uniform(-2, 2)
        if a * d - b * c < 0.1:
            continue
        det = math.sqrt(a * d - b * c)
        if abs((c * jet_value + d) / det) < 0.2:
            continue
        return GroupElemD4(
            s1=rng.uniform(-1, 1),
            lam=math.exp(-2 * rng.uniform(-0.5, 0.5)),
            a=a,
            b=b,
            c=c,
            d=d,
            eps=rng.choice([1, -1]),
        )
    raise RuntimeError("could not draw a pole-free group element")


def random_3d2_element(rng) -> GroupElem3D2:
    sign3 = rng.choice([1, -1])
    sign4 = rng.choice([1, -1])
    return GroupElem3D2(
        A1=rng.uniform(-1, 1),
        A2=rng.uniform(-1, 1),
        A3=sign3 * rng.uniform(0.5, 2.0),
        A4=sign4 * rng.uniform(0.5, 2.0),
    )


def random_3d1_element(rng, order: int = 5) -> PseudoElem3D1:
    a1 = rng.choice([1, -1]) * rng.uniform(0.6, 1.8)
    b1 = rng.choice([1, -1]) * rng.uniform(0.6, 1.8)
    alpha = (rng.uniform(-1, 1), a1) + tuple(rng.uniform(-0.3, 0.3) for _ in range(order - 1))
    beta = (rng.uniform(-1, 1), b1) + tuple(rng.uniform(-0.3, 0.3) for _ in range(order - 1))
    c1 = math.copysign(rng.uniform(0.5, 2.0), b1)
    return PseudoElem3D1(alpha=alpha, beta=beta, c1=c1)


# ----------------------------------------------------------------------
# exact (Fraction) draws, for the exact certificate of invariance
# ----------------------------------------------------------------------


def random_rational(rng, lo: int = -2, hi: int = 2, den: int = 6) -> Fraction:
    """A rational in [lo, hi] with denominator at most ``den``."""
    q = rng.randint(1, den)
    return Fraction(rng.randint(lo * q, hi * q), q)


def random_positive_rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_exact_d4_element(rng, jet_value) -> GroupElemD4:
    """An exact element whose target map has no pole at jet_value; its
    (a, b, c, d) is not normalized, as any representative acts the same."""
    while True:
        a, b, c, d = (random_rational(rng) for _ in range(4))
        if a * d - b * c > 0 and c * jet_value + d != 0:
            return GroupElemD4(
                s1=random_rational(rng), lam=random_positive_rational(rng), a=a, b=b, c=c, d=d, eps=rng.choice([1, -1])
            )


def random_exact_3d2_element(rng) -> GroupElem3D2:
    return GroupElem3D2(
        A1=random_rational(rng),
        A2=random_rational(rng),
        A3=rng.choice([1, -1]) * random_positive_rational(rng),
        A4=rng.choice([1, -1]) * random_positive_rational(rng),
    )


def random_exact_3d1_element(rng, order: int) -> PseudoElem3D1:
    a1, b1 = (rng.choice([1, -1]) * random_positive_rational(rng) for _ in range(2))
    alpha = (random_rational(rng), a1) + tuple(random_rational(rng) for _ in range(order - 1))
    beta = (random_rational(rng), b1) + tuple(random_rational(rng) for _ in range(order - 1))
    return PseudoElem3D1(alpha=alpha, beta=beta, c1=random_positive_rational(rng) * (1 if b1 > 0 else -1))
