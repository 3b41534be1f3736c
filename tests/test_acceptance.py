"""Acceptance suite: the eleven end-to-end criteria at their stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion.  Expected values marked as derived were confirmed by the
independent oracles in the per-module test files (hand-differentiated jets,
closed-form parameter families, finite differences) before being frozen here.
"""

import random
from fractions import Fraction

import numpy as np

from weylrec.catalog import (
    make_dim_ge4,
    make_homogeneous_model,
    make_mainth_form,
    standard_catalog,
)
from weylrec.einsteinweyl import ew_residual
from weylrec.exprlang import derivative, eval_number
from weylrec.invariants import (
    PairJet,
    PsiJet,
    SingularStratumError,
    equivalence_test,
    f_jet_from_expr,
    pair_invariants,
    pair_jet_from_exprs,
    psi_invariants,
    psi_jet_from_expr,
    psi_signature_curve,
    surface_derived_pair,
    surface_invariants,
)
from weylrec.jets import JetPoly, taylor_indices
from weylrec.symmetry import psi_symmetry_kernel
from weylrec.tensor import (
    conformal_weyl_tensor,
    holonomy_span_dim,
    make_structure,
    one_form_jets,
    recurrence_theta,
    weyl_compatibility_residual,
)
from weylrec.tensor import Chart

from group_actions import act_3d1, act_3d2, act_d4
from group_samples import random_3d1_element, random_3d2_element, random_d4_element
from lie_derivative import lie_derivative_check


CATALOG = standard_catalog()


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_construction_identity():
    """nabla g + 2 omega x g = 0 (<= 1e-10 relative) on 20 seeded points of
    every catalog entry."""
    ok = True
    for entry in CATALOG.values():
        for p in entry.sample_points(20):
            if weyl_compatibility_residual(entry.structure, p) > 1e-10:
                ok = False
    report(1, "construction-identity", ok)


def test_02_recurrence_and_weight():
    """Every entry recurrent (residual <= 1e-8); preferred dim >= 4
    representatives have theta = -3 omega componentwise <= 1e-8; the 3D
    holonomy-2 preferred representative fits weight 5/2 within 1e-6."""
    ok = True
    for entry in CATALOG.values():
        for p in entry.sample_points(5):
            rep = recurrence_theta(entry.structure, p, tol=1e-8)
            if rep.status != "ok" or not rep.recurrent:
                ok = False
                continue
            if entry.expected.get("is_preferred_rep"):
                w = np.array([float(x.value) for x in one_form_jets(entry.structure, p, 0)])
                if np.max(np.abs(rep.theta + 3.0 * w)) > 1e-8:
                    ok = False
            if entry.preferred is not None:
                pref = recurrence_theta(entry.preferred, p, tol=1e-8)
                if pref.weight is None or abs(pref.weight - 2.5) > 1e-6:
                    ok = False
    report(2, "recurrence-and-weight", ok)


def test_03_holonomy_span_dims():
    """Span dimension n for the dim n+2 families (n = 2, 3, 4), 1 and 2 for
    the two 3D families, at all sample points."""
    ok = True
    seen_n = set()
    for entry in CATALOG.values():
        expected = entry.expected.get("holonomy_dim")
        if expected is None:
            continue
        for p in entry.sample_points():
            if holonomy_span_dim(entry.structure, p).span_dim != expected:
                ok = False
        if entry.family in ("dim_ge4", "mainth", "homogeneous"):
            seen_n.add(expected)
        elif entry.family == "threed_case1":
            ok = ok and expected == 1
        elif entry.family == "threed_case2":
            ok = ok and expected == 2
    ok = ok and {2, 3, 4} <= seen_n
    report(3, "holonomy-span-dims", ok)


def test_04_conformal_flatness():
    """Weyl tensor <= 1e-9 for every entry of dimension >= 4; the
    Schwarzschild control metric exceeds 1e-3."""
    ok = True
    for entry in CATALOG.values():
        if entry.dim < 4:
            continue
        for p in entry.sample_points(5):
            if conformal_weyl_tensor(entry.structure, p).norm() > 1e-9:
                ok = False
    control = make_structure(
        Chart(("t", "r", "th", "ph")),
        {
            ("t", "t"): "0-(1-2/r)",
            ("r", "r"): "1/(1-2/r)",
            ("th", "th"): "r^2",
            ("ph", "ph"): "r^2*sin(th)^2",
        },
        {},
    )
    ok = ok and conformal_weyl_tensor(control, (0.0, 3.0, 1.0, 0.5)).norm() > 1e-3
    report(4, "conformal-flatness", ok)


def test_05_riccati_gate():
    """The a = 0 logarithmic profile passes recurrence; perturbing it by
    0.1 u fails the compatibility ODE and recurrence with residual > 1e-2."""
    good = CATALOG["mainth-a0"]
    ok = all(
        recurrence_theta(good.structure, p, tol=1e-8).recurrent for p in good.sample_points(5)
    )
    broken = make_mainth_form("0-ln(u+x2)+0.1*u", "0", 2, key="broken", constraints=("u+x2",))
    Fu = derivative(broken.params["F"], "u")
    for p in broken.sample_points(5):
        env = dict(zip(broken.structure.chart.names, p))
        if abs(eval_number(derivative(Fu, "u"), env) - eval_number(Fu, env) ** 2) <= 1e-2:  # F_uu + a - F_u^2, a = 0
            ok = False
        rep = recurrence_theta(broken.structure, p, tol=1e-8)
        if rep.recurrent or rep.max_residual <= 1e-2:
            ok = False
    report(5, "riccati-gate", ok)


def test_06_invariance_of_generators():
    """100 seeded random elements of each of the three actions change every
    generator invariant by <= 1e-8 relative."""
    ok = True
    rel = lambda a, b: abs(float(a) - float(b)) / max(1.0, abs(float(a)))

    rng = random.Random(101)
    done = 0
    while done < 100:
        derivs = [rng.uniform(-2, 2) for _ in range(7)]
        derivs[1] = rng.uniform(0.5, 2.0)
        jet = PsiJet(rng.uniform(-1, 1), tuple(derivs))
        try:
            before = psi_invariants(jet)
        except SingularStratumError:
            continue
        after = psi_invariants(act_d4(random_d4_element(rng, float(jet.derivs[0])), jet))
        if rel(before.I, after.I) > 1e-8 or rel(before.J, after.J) > 1e-8:
            ok = False
        if before.sign_disc != after.sign_disc:
            ok = False
        done += 1

    rng = random.Random(202)
    done = 0
    while done < 100:
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
        if any(rel(x, y) > 1e-8 for x, y in zip(before, after)):
            ok = False
        done += 1

    rng = random.Random(303)
    done = 0
    while done < 100:
        coeffs = {alpha: rng.uniform(-1.5, 1.5) for alpha in taylor_indices(2, 4)}
        coeffs[(1, 1)] = rng.choice([1, -1]) * rng.uniform(0.5, 1.5)
        jet = JetPoly(2, 4, (rng.uniform(-1, 1), rng.uniform(-1, 1)), coeffs)
        try:
            before = surface_invariants(jet)
            d_before = surface_derived_pair(jet)
        except SingularStratumError:
            continue
        moved = act_3d1(random_3d1_element(rng, order=4), jet)
        try:
            after = surface_invariants(moved)
            d_after = surface_derived_pair(moved)
        except SingularStratumError:
            ok = False
            done += 1
            continue
        pairs = list(zip(tuple(before) + tuple(d_before), tuple(after) + tuple(d_after)))
        if any(rel(x, y) > 1e-8 for x, y in pairs):
            ok = False
        done += 1

    report(6, "group-invariance", ok)


def test_07_frozen_signature_values():
    """The derived invariant values, exactly in rational mode and to 1e-12
    in floating mode."""
    ok = True

    # exact-rational mode
    exp_jet = PsiJet(0, (1, 1, 1, 1, 1, 1))  # e^t at 0: all derivatives are exactly 1
    inv = psi_invariants(exp_jet)
    ok &= (inv.I, inv.J) == (0, 1)
    inv = psi_invariants(psi_jet_from_expr("t^2", Fraction(1), order=5))
    ok &= (inv.I, inv.J) == (Fraction(-1, 3), 0)
    inv = psi_invariants(psi_jet_from_expr("t^3+t", Fraction(1), order=5))
    ok &= (inv.I, inv.J) == (Fraction(-3, 125), Fraction(6, 5))
    pinv = pair_invariants(pair_jet_from_exprs("1/u", "2/u^2", Fraction(1), order=2))
    ok &= (pinv.I, pinv.J, pinv.K) == (-2, 2, -8)
    sinv = surface_invariants(f_jet_from_expr("(1/2)*ln(u-x)", Fraction(1), Fraction(3), order=4))
    ok &= (sinv.I, sinv.J) == (-9, -13)

    # floating mode
    close = lambda x, y: abs(float(x) - y) <= 1e-12 * max(1.0, abs(y))
    inv = psi_invariants(psi_jet_from_expr("exp(t)", 0.0, order=5))
    ok &= close(inv.I, 0.0) and close(inv.J, 1.0)
    inv = psi_invariants(psi_jet_from_expr("t^2", 1.0, order=5))
    ok &= close(inv.I, -1 / 3) and close(inv.J, 0.0)
    inv = psi_invariants(psi_jet_from_expr("t^3+t", 1.0, order=5))
    ok &= close(inv.I, -3 / 125) and close(inv.J, 6 / 5)
    pinv = pair_invariants(pair_jet_from_exprs("1/u", "2/u^2", 1.0, order=2))
    ok &= close(pinv.I, -2.0) and close(pinv.J, 2.0) and close(pinv.K, -8.0)
    sinv = surface_invariants(f_jet_from_expr("(1/2)*ln(u-x)", 1.0, 3.0, order=4))
    ok &= close(sinv.I, -9.0) and close(sinv.J, -13.0)

    report(7, "frozen-signature-values", bool(ok))


def test_08_symmetry_kernels():
    """Kernel dimensions and normal-form patterns, with parameter recovery
    within 1e-6 for the logarithmic and power families."""
    ok = True

    def aligned(vec, pattern):
        v = np.asarray(vec, float)
        t = np.asarray(pattern, float)
        return abs(abs(v @ t) / (np.linalg.norm(v) * np.linalg.norm(t)) - 1.0) < 1e-7

    k = psi_symmetry_kernel("t")
    ok &= k.dim == 2
    cases = [
        ("exp(t)", (0.6, 1.8), (2, 0, 0, 1, 0)),
        ("tan(t)", (0.1, 1.2), (1, 0, -1, 0, -1)),
        ("t^2", (0.6, 1.8), (0, 1, 0, 2, 0)),
        ("3*ln(t)", (0.8, 1.9), (0, 1, -6, 0, 0)),
        ("tan(ln(t))", (0.8, 1.9), (0, 1, -2, 0, -2)),
    ]
    for psi, interval, pattern in cases:
        k = psi_symmetry_kernel(psi, interval=interval)
        ok &= k.dim == 1 and aligned(k.basis[0], pattern)
    ok &= psi_symmetry_kernel("t^3+t").dim == 0

    from weylrec.symmetry import classify_psi

    r = classify_psi("3*ln(t)", interval=(0.8, 1.9))
    ok &= r.kind == "Log" and abs(r.parameter - 3.0) <= 1e-6
    r = classify_psi("t^2")
    ok &= r.kind == "Power" and abs(r.parameter - 2.0) <= 1e-6

    report(8, "symmetry-kernels", bool(ok))


def test_09_killing_suite():
    """The universal fields annihilate five seeded structures (residuals
    <= 1e-9, lambda = 0), and the homogeneous model's full listed algebra
    annihilates its invariant pair."""
    ok = True
    rng = random.Random(404)
    for _ in range(5):
        c2 = rng.uniform(-0.05, 0.05)
        c3 = rng.uniform(-0.03, 0.03)
        entry = make_dim_ge4(f"t+{c2}*t^2+{c3}*t^3", 3, key="probe")
        p = entry.sample_points(1)[0]
        for label, comps in entry.symmetry_fields:
            rep = lie_derivative_check(entry.structure, comps, p)
            if max(rep.metric_residual, rep.one_form_residual, abs(rep.lam)) > 1e-9:
                ok = False
    homog = make_homogeneous_model(3, key="probe-homog")
    for p in homog.sample_points(3):
        for label, comps in homog.symmetry_fields:
            rep = lie_derivative_check(homog.structure, comps, p)
            if max(rep.metric_residual, rep.one_form_residual, abs(rep.lam)) > 1e-9:
                ok = False
    report(9, "killing-suite", ok)


def test_10_equivalence_decider():
    """Pushforward pairs are Equivalent, distinct polynomials Distinct, the
    two point-curve families Degenerate with opposite discriminant signs."""
    ok = True
    c1 = psi_signature_curve("t^3+t", 0.5, 2.0, 64)
    pushed = psi_signature_curve("(2*((0.5*t)^3+0.5*t)+1)/(((0.5*t)^3+0.5*t)+1)", 1.0, 4.0, 64)
    v = equivalence_test(c1, pushed)
    ok &= v.verdict == "Equivalent"
    v = equivalence_test(c1, psi_signature_curve("t^5+t", 0.5, 2.0, 64))
    ok &= v.verdict == "Distinct"
    v = equivalence_test(
        psi_signature_curve("exp(t)", 0.5, 1.2, 32), psi_signature_curve("tan(t)", 0.5, 1.2, 32)
    )
    ok &= v.verdict == "Degenerate" and v.signs == ((-1,), (1,))
    report(10, "equivalence-decider", bool(ok))


def test_11_einstein_weyl():
    """Potential residual <= 1e-10 and Einstein-Weyl residual <= 1e-9 for the
    3D holonomy-2 entries; residual > 1e-3 for every other family."""
    ok = True
    for entry in CATALOG.values():
        for p in entry.sample_points(5):
            rep = ew_residual(entry.structure, p)
            if entry.expected.get("einstein_weyl"):
                if rep.residual > 1e-9 or abs(rep.dkp_residual) > 1e-10:
                    ok = False
            else:
                if rep.residual <= 1e-3:
                    ok = False
    report(11, "einstein-weyl", ok)
