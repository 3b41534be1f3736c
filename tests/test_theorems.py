"""Exact certificates of the paper's theorems.

Each identity checked here is rational in the jets of the defining
functions, so it holds exactly, as Fractions, at seeded random rational
draws.  A false identity of degree deg would survive k independent draws
from a set S with chance at most (deg / |S|)^k (Schwartz-Zippel), so a
handful of draws certifies it; a draw on a singular stratum is drawn again.
"""

import random
from fractions import Fraction

from weylrec.invariants import (
    PairJet,
    PsiJet,
    SingularStratumError,
    pair_invariants,
    psi_invariants,
    surface_derived_pair,
    surface_invariants,
)
from weylrec.jets import JetPoly, taylor_indices

from derived_invariant import derived_invariant
from group_actions import act_3d1, act_3d2, act_d4
from group_samples import (
    random_exact_3d1_element,
    random_exact_3d2_element,
    random_exact_d4_element,
    random_positive_rational,
    random_rational,
)


class TestInvariants:
    """The generating invariants of each family are unchanged, as Fractions,
    by random rational elements of its group: SAff1 x PSL2 x Z2 on psi
    (dim >= 4), the 4-parameter affine group on the pair (a, c) (3D,
    holonomy 2), and the pseudogroup on F(x, u) (3D, holonomy 1)."""

    def test_d4(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            derivs = [random_rational(rng) for _ in range(7)]
            derivs[1] = random_positive_rational(rng)
            jet = PsiJet(random_rational(rng), tuple(derivs))
            try:
                before = (*psi_invariants(jet), derived_invariant(jet))
            except SingularStratumError:
                continue
            out = act_d4(random_exact_d4_element(rng, jet.derivs[0]), jet)
            assert (*psi_invariants(out), derived_invariant(out)) == before
            assert all(isinstance(x, Fraction) for x in before[:2] + before[3:])
            checked += 1

    def test_3d2(self):
        rng = random.Random(2025)
        checked = 0
        while checked < 200:
            jet = PairJet(random_rational(rng), *(tuple(random_rational(rng) for _ in range(3)) for _ in "ac"))
            try:
                before = pair_invariants(jet)
            except SingularStratumError:
                continue
            assert pair_invariants(act_3d2(random_exact_3d2_element(rng), jet)) == before
            assert all(isinstance(x, Fraction) for x in before)
            checked += 1

    def test_3d1(self):
        rng = random.Random(2026)
        checked = 0
        while checked < 50:
            coeffs = {alpha: random_rational(rng) for alpha in taylor_indices(2, 4)}
            jet = JetPoly(2, 4, (random_rational(rng), random_rational(rng)), coeffs)
            try:
                before = (*surface_invariants(jet), *surface_derived_pair(jet))
            except SingularStratumError:
                continue
            out = act_3d1(random_exact_3d1_element(rng, order=4), jet)
            assert (*surface_invariants(out), *surface_derived_pair(out)) == before
            assert all(isinstance(x, Fraction) for x in before)
            checked += 1

