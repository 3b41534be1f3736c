"""Differential invariants, group actions, signature curves, equivalence.

Expected invariant values are frozen from independent derivations:

* jets entered as hand-computed derivative tuples (not through the
  expression evaluator), with the closed-form general-parameter values
  (power laws, logarithmic families) as cross-checks;
* the derived invariant checked against the finite-difference slope of the
  sampled signature curve.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylrec.invariants import (
    OverflowSampleError,
    PairJet,
    PsiJet,
    SignatureCurve,
    SingularStratumError,
    equivalence_test,
    f_jet_from_expr,
    pair_invariants,
    pair_jet_from_exprs,
    pair_signature_curve,
    psi_invariants,
    psi_jet_from_expr,
    psi_signature_curve,
    surface_derived_pair,
    surface_invariants,
    surface_signature_curve,
)
from weylrec.jets import JetPoly, taylor_indices

from derived_invariant import derived_invariant
from group_actions import GroupElem3D2, GroupElemD4, MobiusPoleError, PseudoElem3D1, act_3d1, act_3d2, act_d4
from group_samples import random_3d1_element, random_3d2_element, random_d4_element


class TestPsiInvariants:
    def test_exponential_jet(self):
        # e^t at t = 0: all derivatives 1; numerators give (1-4+3)^2 = 0 and
        # 1-5+5 = 1, discriminant 2-3 = -1
        inv = psi_invariants(PsiJet(0, (1, 1, 1, 1, 1, 1)))
        assert (inv.I, inv.J, inv.sign_disc) == (0, 1, -1)

    def test_square_jet(self):
        # t^2 at t = 1: derivatives (1, 2, 2, 0, 0, 0); D = -12,
        # numerator 3*8 = 24 squared = 576, I = 576 / (-1728) = -1/3
        inv = psi_invariants(PsiJet(Fraction(1), (1, 2, 2, 0, 0, 0)))
        assert inv.I == Fraction(-1, 3) and inv.J == 0 and inv.sign_disc == -1

    def test_cubic_jet(self):
        # t^3 + t at t = 1: derivatives (2, 4, 6, 6, 0, 0); D = -60,
        # I = 72^2 / (-60)^3 = -3/125, J = 4 * (5*16*6... ) / 3600 = 6/5
        inv = psi_invariants(PsiJet(Fraction(1), (2, 4, 6, 6, 0, 0)))
        assert inv.I == Fraction(-3, 125) and inv.J == Fraction(6, 5)

    def test_power_law_closed_form(self):
        """Cross-oracle: psi = t^A gives I = 1/(1 - A^2), J = (A^2-4)/(A^2-1)."""
        for A in (2, 3, Fraction(5, 2)):
            jet = psi_jet_from_expr(f"t^{A.numerator if isinstance(A, Fraction) else A}"
                                    if not isinstance(A, Fraction) else f"t^(5/2)", Fraction(2), order=5)
            inv = psi_invariants(jet)
            assert float(inv.I) == pytest.approx(1.0 / (1.0 - float(A) ** 2), rel=1e-12)
            assert float(inv.J) == pytest.approx((float(A) ** 2 - 4) / (float(A) ** 2 - 1), rel=1e-12)

    def test_log_family_constant_point(self):
        """A ln t sits at (1, 4) for every A and every t > 0."""
        for A in (1.0, 3.0):
            for t in (0.7, 1.5):
                inv = psi_invariants(psi_jet_from_expr(f"{A}*ln(t)", t, order=5))
                assert float(inv.I) == pytest.approx(1.0, rel=1e-10)
                assert float(inv.J) == pytest.approx(4.0, rel=1e-10)

    def test_linear_jet_is_singular(self):
        with pytest.raises(SingularStratumError):
            psi_invariants(PsiJet(0.0, (0.5, 1.0, 0.0, 0.0, 0.0, 0.0)))

    def test_discriminant_power_that_rounds_to_zero_is_singular(self):
        """psi = t + 1e-110 t^3: the discriminant passes the stratum test, but
        its cube rounds to 0.0 in the first invariant's denominator."""
        jet = psi_jet_from_expr("t+1e-110*t^3", 1.0, order=6)
        for invariant in (psi_invariants, derived_invariant):
            with pytest.raises(SingularStratumError, match="rounds to 0"):
                invariant(jet)
        assert psi_signature_curve("t+1e-110*t^3", 0.5, 1.5, 4).n_singular == 4

    @pytest.mark.parametrize("p2", [1e110, 1e55], ids=["cube-of-psi2", "cube-of-discriminant"])
    def test_float_power_that_overflows_is_singular(self, p2):
        """psi'' = 1e110 cubed, or the discriminant -3e110 that psi'' = 1e55
        makes, cubed: the float power overflows, and the jet is singular."""
        with pytest.raises(SingularStratumError, match="overflows the float range"):
            psi_invariants(PsiJet(0.0, (0.0, 1.0, p2, 1.0, 1.0, 1.0)))

    def test_exact_rational_mode(self):
        jet = psi_jet_from_expr("t^3+t", Fraction(1), order=6)
        inv = psi_invariants(jet)
        assert inv.I == Fraction(-3, 125) and inv.J == Fraction(6, 5)

    def test_order_requirement(self):
        with pytest.raises(ValueError, match="order"):
            psi_invariants(PsiJet(0.0, (0.0, 1.0, 1.0)))

    def test_positive_slope_required(self):
        with pytest.raises(ValueError, match="positive"):
            PsiJet(0.0, (0.0, -1.0, 0.0, 0.0, 0.0, 0.0))


class TestDerivedInvariant:
    def test_matches_signature_slope(self):
        """dJ/dI equals the finite-difference slope of the sampled curve."""
        slope = derived_invariant(psi_jet_from_expr("t^3+t", 1.0, order=6))
        h = 1e-4
        hi = psi_invariants(psi_jet_from_expr("t^3+t", 1.0 + h, order=5))
        lo = psi_invariants(psi_jet_from_expr("t^3+t", 1.0 - h, order=5))
        fd = (float(hi.J) - float(lo.J)) / (float(hi.I) - float(lo.I))
        assert slope == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("psi", ["exp(t)", "t^2"])
    def test_constant_invariant_strata_are_singular(self, psi):
        with pytest.raises(SingularStratumError):
            derived_invariant(psi_jet_from_expr(psi, 1.0, order=6))


# an exact 5-jet for the exact actions: psi'(1/2) = 1
EXACT_JET = PsiJet(Fraction(1, 2), (2, 1, Fraction(3, 10), Fraction(1, 10), Fraction(-1, 5), Fraction(7, 10)))


class TestActD4:
    def test_identity(self):
        jet = PsiJet(0.5, (2.0, 1.0, 0.3, 0.1, -0.2, 0.7))
        out = act_d4(GroupElemD4(), jet)
        assert out.base == jet.base and out.derivs == jet.derivs

    def test_pure_translation_shifts_value_only(self):
        jet = PsiJet(0.5, (2.0, 1.0, 0.3, 0.1, -0.2, 0.7))
        out = act_d4(GroupElemD4(b=1.0), jet)
        assert out.derivs[0] == pytest.approx(3.0)
        assert out.derivs[1:] == pytest.approx(jet.derivs[1:])

    def test_pure_source_scaling(self):
        """t -> t / lam: the base divides by lam, the k-th derivative multiplies by lam^k."""
        lam = Fraction(2, 3)
        out = act_d4(GroupElemD4(lam=lam), EXACT_JET)
        assert out.base == Fraction(3, 4)
        assert out.derivs == tuple(d * lam**k for k, d in enumerate(EXACT_JET.derivs))
        assert act_d4(GroupElemD4(lam=2), EXACT_JET).base == Fraction(1, 4)  # an int scaling keeps the base exact

    def test_nonpositive_source_scaling_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            GroupElemD4(lam=0)

    def test_flip(self):
        jet = PsiJet(0.5, (2.0, 1.0, 0.3, 0.1, -0.2, 0.7))
        out = act_d4(GroupElemD4(eps=-1), jet)
        assert out.base == -0.5
        assert out.derivs == pytest.approx((-2.0, 1.0, -0.3, 0.1, 0.2, 0.7))

    def test_a_positive_multiple_of_the_target_map_acts_the_same(self):
        """(a, b, c, d) is any representative: (2, 0, 0, 2) is the identity,
        and three times a representative gives the same image."""
        assert act_d4(GroupElemD4(a=2, b=0, c=0, d=2), EXACT_JET) == EXACT_JET
        once = act_d4(GroupElemD4(a=1, b=2, c=Fraction(1, 3), d=1), EXACT_JET)
        assert act_d4(GroupElemD4(a=3, b=6, c=1, d=3), EXACT_JET) == once
        jet = PsiJet(0.5, (2.0, 1.0, 0.3))
        assert act_d4(GroupElemD4(a=2.0, b=0.0, c=0.0, d=2.0), jet) == jet

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            GroupElemD4(a=1.0, b=0.0, c=0.0, d=-1.0)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_pole_detected(self, scale):
        """The pole test is relative to the representative: c psi + d = 0 at
        psi = 2 is a pole at every scale, and c psi + d = 3 c is none."""
        jet = PsiJet(0.0, (2.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(MobiusPoleError):
            act_d4(GroupElemD4(a=-scale, b=0.0, c=scale, d=-2 * scale), jet)
        assert act_d4(GroupElemD4(a=scale, b=0.0, c=scale, d=scale), jet).derivs[0] == pytest.approx(2 / 3)

    def test_invariance_hundred_elements(self):
        """I, J and sign(D) are unchanged under 100 seeded elements."""
        rng = random.Random(20240811)
        checked = 0
        while checked < 100:
            derivs = [rng.uniform(-2, 2) for _ in range(7)]
            derivs[1] = rng.uniform(0.5, 2.0)
            jet = PsiJet(rng.uniform(-1, 1), tuple(derivs))
            try:
                before = psi_invariants(jet)
            except SingularStratumError:
                continue
            elem = random_d4_element(rng, float(jet.derivs[0]))
            after = psi_invariants(act_d4(elem, jet))
            assert abs(after.I - before.I) <= 1e-8 * max(1.0, abs(before.I))
            assert abs(after.J - before.J) <= 1e-8 * max(1.0, abs(before.J))
            assert after.sign_disc == before.sign_disc
            checked += 1

    def test_mobius_images_of_linear_stay_singular(self):
        """The orbit of the linear germ fills the discriminant-zero stratum."""
        rng = random.Random(7)
        jet = PsiJet(0.4, (0.4, 1.0, 0.0, 0.0, 0.0, 0.0))  # psi = t
        for _ in range(20):
            elem = random_d4_element(rng, float(jet.derivs[0]))
            out = act_d4(elem, jet)
            p = out.derivs
            disc = 2 * p[1] * p[3] - 3 * p[2] ** 2
            assert abs(disc) <= 1e-10 * max(abs(p[1] * p[3]), p[2] ** 2, 1.0)


class TestPairInvariants:
    def test_inverse_u_pair(self):
        # a = 1/u, c = 2/u^2 at u = 1: jets (1, -1, 2) and (2, -4, 12)
        inv = pair_invariants(PairJet(Fraction(1), (1, -1, 2), (2, -4, 12)))
        assert (inv.I, inv.J, inv.K) == (Fraction(-2), Fraction(2), Fraction(-8))

    def test_inverse_u_general_multiple(self):
        """Cross-oracle: c = C/u^2 gives (-C, 2, -4C), constant in u."""
        for C in (1.0, 3.5):
            for u in (0.8, 1.6):
                inv = pair_invariants(pair_jet_from_exprs("1/u", f"{C}/u^2", u, order=2))
                assert float(inv.I) == pytest.approx(-C, rel=1e-10)
                assert float(inv.J) == pytest.approx(2.0, rel=1e-10)
                assert float(inv.K) == pytest.approx(-4 * C, rel=1e-10)

    def test_exp_linear_pair(self):
        inv = pair_invariants(pair_jet_from_exprs("exp(u)", "u", 0.0, order=2))
        assert float(inv.I) == pytest.approx(1.0)
        assert float(inv.J) == pytest.approx(1.0)
        assert float(inv.K) == pytest.approx(0.0, abs=1e-14)

    def test_constant_a_is_singular(self):
        with pytest.raises(SingularStratumError):
            pair_invariants(pair_jet_from_exprs("1", "0", 1.0))

    def test_float_power_that_overflows_is_singular(self):
        """a = a' = 1e80: the fourth power of a overflows the float range."""
        with pytest.raises(SingularStratumError, match="overflows the float range"):
            pair_invariants(PairJet(1.0, (1e80, 1e80, 1.0), (1.0, 1.0, 1.0)))

    def test_exact_rational_mode(self):
        inv = pair_invariants(pair_jet_from_exprs("1/u", "2/u^2", Fraction(1), order=2))
        assert (inv.I, inv.J, inv.K) == (Fraction(-2), Fraction(2), Fraction(-8))


class TestAct3D2:
    def test_identity(self):
        jet = PairJet(0.5, (1.0, 0.5, 0.2), (0.3, 0.1, 0.7))
        out = act_3d2(GroupElem3D2(), jet)
        assert out.base == jet.base and out.a == jet.a and out.c == jet.c

    def test_pure_second_translation(self):
        """A2 only: the first function is fixed, the second shifts by -A2 a."""
        jet = PairJet(0.5, (1.0, 0.5, 0.2), (0.3, 0.1, 0.7))
        out = act_3d2(GroupElem3D2(A2=2.0), jet)
        assert out.a == jet.a
        assert out.c == pytest.approx(tuple(c - 2.0 * a for a, c in zip(jet.a, jet.c)))

    def test_zero_scaling_rejected(self):
        with pytest.raises(ValueError):
            GroupElem3D2(A3=0.0)

    def test_invariance_hundred_elements(self):
        rng = random.Random(77)
        checked = 0
        while checked < 100:
            a = tuple(rng.uniform(-2, 2) for _ in range(3))
            c = tuple(rng.uniform(-2, 2) for _ in range(3))
            if abs(a[1]) < 0.3:
                continue
            jet = PairJet(rng.uniform(-1, 1), a, c)
            try:
                before = pair_invariants(jet)
            except SingularStratumError:
                continue
            after = pair_invariants(act_3d2(random_3d2_element(rng), jet))
            for x, y in zip(before, after):
                assert abs(x - y) <= 1e-8 * max(1.0, abs(x))
            checked += 1


class TestSurfaceInvariants:
    def test_log_profile(self):
        """(1/2) ln(u - x): closed form with k = 1/2 gives exactly (-9, -13)."""
        inv = surface_invariants(f_jet_from_expr("(1/2)*ln(u-x)", Fraction(1), Fraction(3), order=4))
        assert inv.I == Fraction(-9) and inv.J == Fraction(-13)

    def test_log_profile_general_exponent(self):
        """Cross-oracle: k ln(u-x) gives I = -2(k+1)(2-k)/k, J = 2(k^2-k-3)/k."""
        for k in (0.5, 1.25, -0.75):
            inv = surface_invariants(f_jet_from_expr(f"{k}*ln(u-x)", 0.4, 1.9, order=4))
            assert float(inv.I) == pytest.approx(-2 * (k + 1) * (2 - k) / k, rel=1e-9)
            assert float(inv.J) == pytest.approx(2 * (k * k - k - 3) / k, rel=1e-9)

    def test_bilinear_profile(self):
        # F = x u at (1, 1): F_u = F_x = F_ux = 1, higher mixed terms 0
        inv = surface_invariants(f_jet_from_expr("x*u", 1.0, 1.0, order=4))
        assert float(inv.I) == pytest.approx(-2.0) and float(inv.J) == pytest.approx(-2.0)

    def test_separable_profile_singular(self):
        with pytest.raises(SingularStratumError):
            surface_invariants(f_jet_from_expr("x^2", 1.0, 1.0, order=4))

    def test_derived_pair_matches_finite_differences(self):
        """nabla_i(I) agrees with the displayed coefficient times the
        finite-difference total derivative of the invariant."""
        F = "x*u + 0.3*u^2*x^2 + 0.1*x^3"
        x0, u0 = 0.7, 0.5
        jet = f_jet_from_expr(F, x0, u0, order=4)
        n1, n2 = surface_derived_pair(jet)
        h = 1e-5

        def inv_at(x, u):
            return float(surface_invariants(f_jet_from_expr(F, x, u, order=4)).I)

        dI_du = (inv_at(x0, u0 + h) - inv_at(x0, u0 - h)) / (2 * h)
        dI_dx = (inv_at(x0 + h, u0) - inv_at(x0 - h, u0)) / (2 * h)
        fu = float(jet.partial((0, 1)))
        fx = float(jet.partial((1, 0)))
        fux = float(jet.partial((1, 1)))
        fuux = float(jet.partial((1, 2)))
        fuxx = float(jet.partial((2, 1)))
        assert float(n1) == pytest.approx((fuxx + fx * fux) / fux**2 * dI_du, rel=1e-5)
        assert float(n2) == pytest.approx((fuux - 2 * fu * fux) / fux**2 * dI_dx, rel=1e-5)

    def test_invariance_hundred_elements(self):
        rng = random.Random(314)
        checked = 0
        while checked < 100:
            coeffs = {a: rng.uniform(-1.5, 1.5) for a in taylor_indices(2, 4)}
            coeffs[(1, 1)] = rng.choice([1, -1]) * rng.uniform(0.5, 1.5)
            jet = JetPoly(2, 4, (rng.uniform(-1, 1), rng.uniform(-1, 1)), coeffs)
            try:
                before = surface_invariants(jet)
                d_before = surface_derived_pair(jet)
            except SingularStratumError:
                continue
            out = act_3d1(random_3d1_element(rng, order=4), jet)
            after = surface_invariants(out)
            d_after = surface_derived_pair(out)
            for x, y in zip(tuple(before) + tuple(d_before), tuple(after) + tuple(d_after)):
                assert abs(float(x) - float(y)) <= 1e-8 * max(1.0, abs(float(x)))
            checked += 1

    def test_identity_element(self):
        jet = f_jet_from_expr("x*u+u^2", 0.7, 0.4, order=4)
        out = act_3d1(PseudoElem3D1(alpha=(0.7, 1, 0, 0, 0), beta=(0.4, 1, 0, 0, 0)), jet)
        for alpha in taylor_indices(2, 4):
            assert float(out.coefficient(alpha)) == pytest.approx(float(jet.coefficient(alpha)), abs=1e-12)

    def test_shift_rebases(self):
        jet = f_jet_from_expr("x*u+u^2", 0.7, 0.4, order=4)
        out = act_3d1(PseudoElem3D1(alpha=(1.7, 1, 0, 0, 0), beta=(0.4, 1, 0, 0, 0)), jet)
        assert out.base == (1.7, 0.4)
        assert float(out.value) == pytest.approx(float(jet.value))

    def test_orientation_constraint(self):
        with pytest.raises(ValueError, match="c1"):
            PseudoElem3D1(alpha=(0.0, 1.0), beta=(0.0, 1.0), c1=-1.0)


class TestSignatureCurves:
    def test_cubic_curve_varies(self):
        curve = psi_signature_curve("t^3+t", 0.5, 2.0, 64)
        assert len(curve.tuples) == 64 and not curve.degenerate

    def test_exponential_point_curve(self):
        curve = psi_signature_curve("exp(t)", 0.5, 2.0, 64)
        assert curve.degenerate
        assert curve.tuples[0] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert set(curve.signs) == {-1}

    def test_linear_curve_all_singular(self):
        curve = psi_signature_curve("t", 0.5, 2.0, 16)
        assert curve.n_singular == 16 and curve.degenerate
        assert curve.n_failed == 0 and curve.has_evidence  # each drop is on the homogeneous stratum

    def test_overflowed_samples_are_no_evidence(self):
        """a = exp(460 u): the powers of a that the pair invariants take
        overflow at every sample, which says nothing about a stratum."""
        with pytest.raises(OverflowSampleError):
            pair_invariants(pair_jet_from_exprs("exp(460*u)", "u", 1.3, order=2))
        curve = pair_signature_curve("exp(460*u)", "u", 1.2, 1.5, 11)
        assert not curve.tuples and curve.n_singular == curve.n_failed == 11
        assert curve.degenerate and not curve.has_evidence

    def test_samples_outside_the_domain_are_counted_apart(self):
        curve = psi_signature_curve("ln(t)", -1.0, 1.0, 4)  # ln is undefined at t = -1 and -1/3
        assert len(curve.tuples) == 2 and curve.n_singular == curve.n_failed == 2

    def test_pair_point_curve(self):
        curve = pair_signature_curve("1/u", "2/u^2", 0.5, 1.5, 32)
        assert curve.degenerate
        assert curve.tuples[0] == pytest.approx((-2.0, 2.0, -8.0), abs=1e-9)

    def test_surface_grid(self):
        curve = surface_signature_curve("x*u", (0.4, 1.2), (0.5, 1.5), 5, 5)
        assert len(curve.tuples) == 25


class TestEquivalence:
    def test_pushforward_pair_equivalent(self):
        """psi and its image under an affine source + unimodular target map
        trace the same curve."""
        c1 = psi_signature_curve("t^3+t", 0.5, 2.0, 64)
        pushed = "(2*((0.5*t)^3+0.5*t)+1)/(((0.5*t)^3+0.5*t)+1)"  # a d - b c = 1
        c2 = psi_signature_curve(pushed, 1.0, 4.0, 64)
        verdict = equivalence_test(c1, c2)
        assert verdict.verdict == "Equivalent"
        assert verdict.hausdorff <= 1e-6

    def test_distinct_polynomials(self):
        c1 = psi_signature_curve("t^3+t", 0.5, 2.0, 64)
        c2 = psi_signature_curve("t^5+t", 0.5, 2.0, 64)
        verdict = equivalence_test(c1, c2)
        assert verdict.verdict == "Distinct"
        assert verdict.hausdorff > 0.1

    def test_degenerate_with_opposite_signs(self):
        c1 = psi_signature_curve("exp(t)", 0.5, 1.2, 32)
        c2 = psi_signature_curve("tan(t)", 0.5, 1.2, 32)
        verdict = equivalence_test(c1, c2)
        assert verdict.verdict == "Degenerate"
        assert verdict.signs == ((-1,), (1,))

    def test_discriminant_signs_differ(self):
        """psi = t^3 + t has D < 0 and psi = t + t^(1/2) has D > 0 on the
        whole range: no Hausdorff distance is taken."""
        c1 = psi_signature_curve("t^3+t", 0.6, 1.8)
        c2 = psi_signature_curve("t+t^(1/2)", 0.6, 1.8)
        assert not (c1.degenerate or c2.degenerate)
        for first, second, signs in ((c1, c2, ((-1,), (1,))), (c2, c1, ((1,), (-1,)))):
            verdict = equivalence_test(first, second)
            assert (verdict.verdict, verdict.hausdorff, verdict.signs) == ("Distinct", None, signs)
            assert verdict.reason == "discriminant signs differ"

    # every sample failed to evaluate: no evidence; one stratum drop is evidence
    UNSAMPLED = SignatureCurve("psi", (), (), (), 11, 11)
    ONE_STRATUM_DROP = SignatureCurve("psi", (), (), (), 11, 10)

    @pytest.mark.parametrize(
        "unsampled,named", [((True, False), "input 1"), ((False, True), "input 2"), ((True, True), "input 1 and input 2")]
    )
    def test_a_curve_with_no_evidence_is_unsampled(self, unsampled, named):
        sampled = psi_signature_curve("t^3+t", 0.5, 2.0, 8)
        verdict = equivalence_test(*(self.UNSAMPLED if u else sampled for u in unsampled))
        assert (verdict.verdict, verdict.hausdorff) == ("Unsampled", None)
        assert verdict.reason.startswith(f"{named}: ")

    def test_a_stratum_drop_is_evidence(self):
        """A curve whose one read sample lay on a singular stratum is a point
        curve, as before: Degenerate."""
        assert equivalence_test(self.ONE_STRATUM_DROP, self.ONE_STRATUM_DROP).verdict == "Degenerate"

    def test_kind_mismatch_rejected(self):
        c1 = psi_signature_curve("t^3+t", 0.5, 2.0, 8)
        c2 = pair_signature_curve("1/u", "2/u^2", 0.5, 1.5, 8)
        with pytest.raises(ValueError, match="kinds"):
            equivalence_test(c1, c2)

    def test_pushforward_pair_3d2(self):
        c1 = pair_signature_curve("exp(u)", "u", 0.5, 1.5, 48)
        # image under (A1, A2, A3, A4) = (1, 2, 1, 1): u -> u + 1, c -> c - 2 a
        c2 = pair_signature_curve("exp(u-1)", "(u-1) - 2*exp(u-1)", 1.5, 2.5, 48)
        verdict = equivalence_test(c1, c2)
        assert verdict.verdict == "Equivalent"


# finite floats, subnormals included: every jet entry the formulas may meet
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True)


def returns_or_is_singular(formula, jet):
    """``formula(jet)`` returns, or raises SingularStratumError; any other
    exception fails the test."""
    try:
        formula(jet)
    except SingularStratumError:
        pass


class TestOneFailureRule:
    """On any finite float jet, every invariant formula returns or names a
    singular stratum (an overflowed sample is one): no arithmetic error
    escapes."""

    @settings(max_examples=400)
    @given(st.tuples(FINITE, POSITIVE, *[FINITE] * 5))
    def test_psi_family(self, derivs):
        jet = PsiJet(0.0, derivs)
        returns_or_is_singular(psi_invariants, jet)
        returns_or_is_singular(derived_invariant, jet)

    @settings(max_examples=400)
    @given(st.lists(FINITE, min_size=6, max_size=6))
    def test_pair_family(self, entries):
        returns_or_is_singular(pair_invariants, PairJet(0.0, tuple(entries[:3]), tuple(entries[3:])))

    @settings(max_examples=400)
    @given(st.lists(FINITE, min_size=15, max_size=15))
    def test_surface_family(self, entries):
        jet = JetPoly(2, 4, (0.0, 0.0), dict(zip(taylor_indices(2, 4), entries)))
        returns_or_is_singular(surface_invariants, jet)
        returns_or_is_singular(surface_derived_pair, jet)
