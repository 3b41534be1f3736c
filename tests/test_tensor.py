"""Tensor-calculus tests: connections, curvature, recurrence, holonomy,
conformal Weyl tensor and Lie-derivative symmetry checks.

Oracle values come from hand computation on standard metrics (polar
coordinates, Schwarzschild) and from the displayed component formulas of the
3D normal forms.
"""

import dataclasses
import gc
import hashlib
import operator
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylrec import exprlang, jets, tensor
from weylrec.catalog import extra_fields, make_3d_case1, make_dim_ge4, standard_catalog
from weylrec.einsteinweyl import ew_report, ew_residual
from weylrec.exprlang import eval_jet, parse
from weylrec.jets import JETS, JetPoly, taylor_indices
from weylrec.tensor import (
    Chart,
    DomainViolation,
    SignatureError,
    SingularMetricError,
    conformal_weyl_tensor,
    holonomy_span_dim,
    make_structure,
    metric_jets,
    numerical_rank,
    one_form_jets,
    recurrence_theta,
    weyl_compatibility_residual,
    weyl_connection,
)

from dense_curvature import dense_curvature_jets
from lie_derivative import lie_derivative_check


def levi_civita(structure, point, depth=1):
    """The Levi-Civita connection: the Weyl connection of the same metric with a zero 1-form."""
    return weyl_connection(dataclasses.replace(structure, one_form=(None,) * structure.dim), point, depth)


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


@pytest.fixture
def flat3():
    """Closed flat structure: 2 dv du + (dx)^2, omega = 0."""
    return make_structure(Chart(("v", "x", "u")), {("v", "u"): "1", ("x", "x"): "1"}, {})


@pytest.fixture
def case1_xu():
    return make_3d_case1("x*u", key="t").structure


def schwarzschild():
    """Mass-1 Schwarzschild in (t, r, th, ph); the standard non-conformally-flat control."""
    chart = Chart(("t", "r", "th", "ph"), constraints=(parse("r-2"),))
    return make_structure(
        chart,
        {
            ("t", "t"): "0-(1-2/r)",
            ("r", "r"): "1/(1-2/r)",
            ("th", "th"): "r^2",
            ("ph", "ph"): "r^2*sin(th)^2",
        },
        {},
    )


class TestChart:
    def test_dim_floor(self):
        with pytest.raises(ValueError, match="dimension"):
            Chart(("a", "b"))

    def test_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            Chart(("a", "a", "b"))

    def test_constraint_variables_checked(self):
        with pytest.raises(ValueError, match="unknown coordinates"):
            Chart(("a", "b", "c"), constraints=(parse("q"),))


class TestLeviCivita:
    def test_flat_symbols_vanish(self, flat3):
        conn = levi_civita(flat3, (0.1, 0.2, 0.3), depth=1)
        assert np.max(np.abs(conn.values())) == 0.0

    def test_polar_oracle(self):
        # diag(-1, 1, r^2): Gamma^r_{phph} = -r, Gamma^ph_{r ph} = 1/r
        # (hand computation of polar-coordinate symbols, padded by a flat
        # time direction to satisfy the Lorentzian chart contract)
        s = make_structure(
            Chart(("t", "r", "ph")), {("t", "t"): "0-1", ("r", "r"): "1", ("ph", "ph"): "r^2"}, {}
        )
        G = levi_civita(s, (0.0, 2.0, 0.7), depth=1).values()
        assert G[1, 2, 2] == pytest.approx(-2.0)
        assert G[2, 1, 2] == pytest.approx(0.5)
        assert G[2, 2, 1] == pytest.approx(0.5)

    def test_singular_metric_raises(self):
        s = make_structure(Chart(("a", "b", "c")), {("a", "a"): "1", ("b", "b"): "0-1"}, {})
        with pytest.raises(SingularMetricError):
            levi_civita(s, (0.0, 0.0, 0.0))

    def test_signature_enforced(self):
        riem = make_structure(
            Chart(("a", "b", "c")), {("a", "a"): "1", ("b", "b"): "1", ("c", "c"): "1"}, {}
        )
        with pytest.raises(SignatureError):
            levi_civita(riem, (0.0, 0.0, 0.0))

    def test_domain_constraints_enforced(self):
        s = make_structure(
            Chart(("v", "x", "u"), constraints=(parse("u-x"),)),
            {("v", "u"): "1", ("x", "x"): "1"},
            {},
        )
        with pytest.raises(DomainViolation):
            levi_civita(s, (0.0, 2.0, 1.0))

    def test_case1_total_symbols(self, case1_xu):
        # only nonzero Weyl symbols: Gamma^x_xx = -F_x = -u, Gamma^u_uu = 2 Fdot = 2x
        p = (0.1, 0.4, 0.8)
        G = weyl_connection(case1_xu, p, depth=1).values()
        expect = np.zeros((3, 3, 3))
        expect[1, 1, 1] = -0.8
        expect[2, 2, 2] = 0.8
        assert np.allclose(G, expect, atol=1e-14)
        # Levi-Civita part plus the 1-form correction reproduces the total
        lc = levi_civita(case1_xu, p, depth=1).values()
        assert lc[1, 1, 1] == pytest.approx(-0.8)  # the pure-metric term
        assert lc[2, 2, 2] == pytest.approx(0.0)  # 2 Fdot comes from the correction K


class TestMetricJets:
    def test_shared_entries_evaluated_once(self, monkeypatch):
        entry = make_dim_ge4("exp(t)", 8)
        calls = []

        def counting_eval_jet(expr, env):
            calls.append(expr)
            return eval_jet(expr, env)

        monkeypatch.setattr(tensor, "eval_jet", counting_eval_jet)
        p = entry.sample_points(1)[0]
        g = metric_jets(entry.structure, p, 2)
        assert len(calls) == 2  # dt^2 and the shared factor E, not one call per entry
        assert g[1][9] is g[2][2] and g[9][1] is g[1][9]
        assert g[0][0].value == 1


class TestWeylConnection:
    def test_one_metric_evaluation_per_connection(self, catalog, monkeypatch):
        """The signature check reads the metric jets the connection is built
        from; it does not evaluate the metric a second time."""
        entry = catalog["dim4-psi-exp"]
        calls = []

        def counting_metric_jets(*args):
            calls.append(args)
            return metric_jets(*args)

        monkeypatch.setattr(tensor, "metric_jets", counting_metric_jets)
        p = entry.sample_points(1)[0]
        for depth in range(3):
            calls.clear()
            weyl_connection(entry.structure, p, depth=depth)
            assert len(calls) == 1 and calls[0][2] == depth + 1

    def test_freed_by_reference_counting(self, catalog):
        """No reference cycle holds a connection once its readers have run, so
        it and its cached jets go with the last reference, not at the next
        cyclic garbage collection."""
        entry = catalog["dim4-psi-exp"]
        gc.collect()
        gc.disable()
        try:
            conn = weyl_connection(entry.structure, entry.sample_points(1)[0], depth=2)
            conn.compatibility_residual()
            conn.recurrence()
            conn.holonomy()
            conn.conformal_weyl()
            ref = weakref.ref(conn)
            del conn
            assert ref() is None
        finally:
            gc.enable()

    def test_levi_civita_ignores_an_undefined_one_form(self, flat3):
        """The Levi-Civita connection reads the metric alone, so a 1-form that
        is undefined at the point (ln of a negative number) does not matter."""
        s = dataclasses.replace(flat3, one_form=(parse("ln(x)"), None, None))
        p = (0.1, -0.5, 0.3)
        with pytest.raises(exprlang.ExprDomainError):
            weyl_connection(s, p, depth=1)
        conn = levi_civita(s, p, depth=1)
        assert np.max(np.abs(conn.values())) == 0.0
        assert np.array_equal(conn.values(), levi_civita(flat3, p, depth=1).values())

    def test_zero_one_form_reduces_to_levi_civita(self, catalog):
        s = schwarzschild()
        p = (0.0, 3.0, 1.0, 0.5)
        assert np.allclose(
            weyl_connection(s, p, depth=1).values(), levi_civita(s, p, depth=1).values(), atol=1e-14
        )

    def test_case2_displayed_matrices(self, catalog):
        """The three Christoffel matrices of the 3D holonomy-2 family."""
        s = catalog["3d2-inv-u"].structure
        v, x, u = p = (0.4, 0.7, 1.1)
        a, adot, c = 1 / u, -1 / u**2, 2 / u**2
        f = a * x
        H = a * v * x + a**2 * x**4 / 12 - adot * x**3 / 3 + c * x
        dxH = a * v + a**2 * x**3 / 3 - adot * x**2 + c
        Hdot = adot * v * x + a * adot * x**4 / 6 - (2 / u**3) * x**3 / 3 - (4 / u**3) * x
        G = weyl_connection(s, p, depth=1).values()
        gamma_v = np.zeros((3, 3))
        gamma_v[0, 2] = f / 2
        gamma_x = np.zeros((3, 3))
        gamma_x[0, 1], gamma_x[0, 2], gamma_x[1, 2] = -f, dxH / 2, f
        gamma_u = np.zeros((3, 3))
        gamma_u[0, 0], gamma_u[0, 1], gamma_u[0, 2] = f / 2, dxH / 2, -f * H / 2 + Hdot / 2
        gamma_u[1, 1], gamma_u[1, 2], gamma_u[2, 2] = f, -dxH / 2, 1.5 * f
        assert np.allclose(G[:, 0, :], gamma_v, atol=1e-13)
        assert np.allclose(G[:, 1, :], gamma_x, atol=1e-13)
        assert np.allclose(G[:, 2, :], gamma_u, atol=1e-13)

    def test_torsion_free(self, catalog):
        s = catalog["dim4-psi-exp"].structure
        G = weyl_connection(s, catalog["dim4-psi-exp"].sample_points(1)[0], depth=1).values()
        assert np.allclose(G, np.transpose(G, (0, 2, 1)), atol=1e-15)

    @pytest.mark.parametrize("key", ["dim4-psi-exp", "mainth-a0", "3d1-xu", "3d2-inv-u", "homog-n2"])
    def test_compatibility_identity(self, catalog, key):
        """nabla g + 2 omega x g = 0 at seeded sample points."""
        entry = catalog[key]
        for p in entry.sample_points(6):
            assert weyl_compatibility_residual(entry.structure, p) <= 1e-10

    def test_derivative_jets_match_finite_differences(self, catalog):
        """d_a Gamma_b from jets matches central differences at O(h^2)."""
        s = catalog["3d2-inv-u"].structure
        p = (0.3, 0.6, 1.2)
        h = 1e-4
        dG = tensor._first_partials(weyl_connection(s, p, depth=1).gamma)
        for e in range(3):
            pp, pm = list(p), list(p)
            pp[e] += h
            pm[e] -= h
            fd = (weyl_connection(s, pp, depth=0).values() - weyl_connection(s, pm, depth=0).values()) / (2 * h)
            assert np.max(np.abs(dG[e] - fd)) < 5e-7


class TestCurvature:
    @staticmethod
    def count_derivatives(monkeypatch):
        """Record the jet of every ``JetPoly.derivative`` call from now on."""
        calls = []
        derivative = JetPoly.derivative

        def counting_derivative(jet, index):
            calls.append(jet)
            return derivative(jet, index)

        monkeypatch.setattr(JetPoly, "derivative", counting_derivative)
        return calls

    @staticmethod
    def distinct_nonempty(gamma):
        """ids of the distinct non-empty jets of gamma, and whether gamma has an empty one."""
        leaves = [jet for plane in gamma for row in plane for jet in row]
        return {id(jet) for jet in leaves if jet.coeffs}, any(not jet.coeffs for jet in leaves)

    @pytest.mark.parametrize("key", ["dim4-psi-exp", "3d2-inv-u"])
    def test_one_derivative_per_distinct_christoffel_jet(self, catalog, monkeypatch, key):
        """gamma[a][b][c] is gamma[a][c][b], so the curvature differentiates each
        distinct non-empty Christoffel jet once in each of the d directions, and
        no empty one at all."""
        entry = catalog[key]
        conn = weyl_connection(entry.structure, entry.sample_points(1)[0], depth=2)
        distinct, has_empty = self.distinct_nonempty(conn.gamma)
        assert has_empty
        calls = self.count_derivatives(monkeypatch)
        tensor._curvature_jets(conn)
        assert len(calls) == conn.dim * len(distinct) < conn.dim**4
        assert {id(jet) for jet in calls} == distinct

    def test_conformal_weyl_reads_each_distinct_levi_civita_jet_once(self, catalog, monkeypatch):
        """The depth-1 curvature of the Levi-Civita part reads the gradient of
        each distinct non-empty jet once, so gamma[a][c][b], which is
        gamma[a][b][c], is not read again, and differentiates no jet."""
        entry = catalog["dim4-psi-exp"]
        conn = weyl_connection(entry.structure, entry.sample_points(1)[0], 2)
        distinct, has_empty = self.distinct_nonempty(conn.levi_civita_gamma)
        assert has_empty
        derivatives = self.count_derivatives(monkeypatch)
        gradients = []
        gradient = JetPoly.gradient
        monkeypatch.setattr(JetPoly, "gradient", lambda jet: gradients.append(jet) or gradient(jet))
        conn.conformal_weyl()
        assert {id(jet) for jet in gradients} == distinct and len(gradients) == len(distinct)
        assert derivatives == []

    def test_flat_curvature_vanishes(self, flat3):
        assert np.sqrt(np.sum(weyl_connection(flat3, (0.0, 0.1, 0.2), 1).curvature ** 2)) == 0.0
        assert np.sqrt(np.sum(weyl_connection(flat3, (0.0, 0.1, 0.2), 2).nabla_R ** 2)) == 0.0

    def test_case1_components(self, case1_xu):
        """R(d_x, d_u) = (d_x Fdot) diag(0, 1, 2) in the frame (v, x, u); R(d_v, .) = 0."""
        p = (0.1, 0.4, 0.8)
        R = weyl_connection(case1_xu, p, 1).curvature
        assert np.allclose(R[:, :, 1, 2], np.diag([0.0, 1.0, 2.0]), atol=1e-13)
        assert np.max(np.abs(R[:, :, 0, :])) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry_and_first_bianchi(self, catalog):
        s = catalog["dim4-psi-cubic"].structure
        R = weyl_connection(s, catalog["dim4-psi-cubic"].sample_points(1)[0], 1).curvature
        assert np.allclose(R, -np.transpose(R, (0, 1, 3, 2)), atol=1e-15)
        bianchi = R + np.transpose(R, (0, 3, 1, 2)) + np.transpose(R, (0, 2, 3, 1))
        assert np.max(np.abs(bianchi)) < 1e-10

    def test_mainth_mixed_slots_vanish_with_riccati(self, catalog):
        """R(d_i, d_u) = 0 once the compatibility ODE holds (a = 0 entry)."""
        entry = catalog["mainth-a0"]
        idx = entry.structure.chart.index
        R = weyl_connection(entry.structure, entry.sample_points(1)[0], 1).curvature
        assert np.max(np.abs(R[:, :, idx("x1"), idx("u")])) < 1e-13

    def test_mainth_broken_riccati_gains_curvature(self):
        from weylrec.catalog import make_mainth_form

        entry = make_mainth_form("0-ln(u+x2)+0.1*u", "0", 2, key="broken", constraints=("u+x2",))
        idx = entry.structure.chart.index
        R = weyl_connection(entry.structure, entry.sample_points(1)[0], 1).curvature
        assert np.max(np.abs(R[:, :, idx("x1"), idx("u")])) > 1e-2

    def test_case1_nabla_R_factors(self, case1_xu):
        """The only covariant-derivative slots are along R(d_x, d_u), with the
        displayed logarithmic-derivative factors."""
        p = (0.1, 0.4, 0.8)
        v, x, u = p
        nr = weyl_connection(case1_xu, p, 2).nabla_R
        R = weyl_connection(case1_xu, p, 1).curvature
        # factors for F = x u: d_x(F + ln|d_x Fdot|) = u, d_u(-2F + ln|d_x Fdot|) = -2x
        assert np.allclose(nr[1], u * R, atol=1e-13)
        assert np.allclose(nr[2], -2 * x * R, atol=1e-13)
        assert np.max(np.abs(nr[0])) < 1e-14


class TestRecurrence:
    @pytest.mark.parametrize(
        "key", ["dim4-psi-linear", "dim4-psi-exp", "dim4-psi-cubic", "mainth-a0", "3d1-xu", "3d2-generic"]
    )
    def test_catalog_structures_recurrent(self, catalog, key):
        entry = catalog[key]
        for p in entry.sample_points(3):
            rep = recurrence_theta(entry.structure, p)
            assert rep.status == "ok" and rep.recurrent, (key, rep.max_residual)

    def test_dim4_theta_is_minus_three_omega(self, catalog):
        entry = catalog["dim4-psi-exp"]
        for p in entry.sample_points(4):
            rep = recurrence_theta(entry.structure, p)
            w = np.array([float(x.value) for x in one_form_jets(entry.structure, p, 0)])
            assert np.max(np.abs(rep.theta + 3.0 * w)) <= 1e-8
            assert rep.weight == pytest.approx(3.0, abs=1e-9)

    def test_case2_theta_and_preferred_weight(self, catalog):
        entry = catalog["3d2-inv-u"]
        p = entry.sample_points(1)[0]
        v, x, u = p
        rep = recurrence_theta(entry.structure, p)
        # theta_u = d_u ln|a| - (5/2) a x with a = 1/u
        assert rep.theta[2] == pytest.approx(-1 / u - 2.5 * x / u, rel=1e-10)
        assert abs(rep.theta[0]) < 1e-12 and abs(rep.theta[1]) < 1e-12
        pref = recurrence_theta(entry.preferred, p)
        assert pref.weight == pytest.approx(2.5, abs=1e-6)
        assert pref.weight_residual < 1e-9

    def test_broken_riccati_not_recurrent(self):
        from weylrec.catalog import make_mainth_form

        entry = make_mainth_form("0-ln(u+x2)+0.1*u", "0", 2, key="broken", constraints=("u+x2",))
        p = entry.sample_points(1)[0]
        env = dict(zip(entry.structure.chart.names, p))
        Fu = exprlang.derivative(entry.params["F"], "u")
        # the Riccati gate F_uu + a - F_u^2, with a = 0
        assert abs(exprlang.eval_number(exprlang.derivative(Fu, "u"), env) - exprlang.eval_number(Fu, env) ** 2) > 1e-2
        rep = recurrence_theta(entry.structure, p)
        assert not rep.recurrent
        assert rep.max_residual > 1e-2

    def test_flat_reports_no_curvature(self, flat3):
        rep = recurrence_theta(flat3, (0.0, 0.0, 0.0))
        assert rep.status == "no_curvature" and not rep.recurrent

    def test_closed_structure_flagged(self):
        s = schwarzschild()
        rep = recurrence_theta(s, (0.0, 3.0, 1.0, 0.5))
        assert rep.closed_at_point and rep.weight is None


class TestConstantRescaling:
    """c g with the same 1-form has the same Weyl connection, so verdicts and
    theta must not depend on the unit of the metric."""

    @staticmethod
    def scaled(structure, factor):
        def scale(e):
            return None if e is None else exprlang.mul(exprlang.const(factor), e)

        return dataclasses.replace(structure, metric=tuple(tuple(scale(e) for e in row) for row in structure.metric))

    @pytest.mark.parametrize("key", ["dim4-psi-exp", "dim6-psi-exp"])
    @pytest.mark.parametrize("factor", [Fraction(1, 10**6), Fraction(1, 1000), 10**6], ids=["1e-6", "1e-3", "1e6"])
    def test_recurrence_and_holonomy_are_unit_free(self, catalog, key, factor):
        entry = catalog[key]
        s, p = entry.structure, entry.sample_points(1)[0]
        s_scaled = self.scaled(s, factor)
        rep, rep_scaled = recurrence_theta(s, p), recurrence_theta(s_scaled, p)
        assert rep_scaled.recurrent == rep.recurrent
        assert np.max(np.abs(rep_scaled.theta - rep.theta)) <= 1e-9 * np.max(np.abs(rep.theta))
        assert holonomy_span_dim(s_scaled, p).span_dim == holonomy_span_dim(s, p).span_dim

    def test_jet_inverse_pivot_cut_is_relative(self):
        def jets(rows):
            return [[JetPoly.constant(v, 3, 1, (0, 0, 0)) for v in row] for row in rows]

        tiny = 1e-15
        inv = tensor._invert_jet_matrix(jets([[-tiny, 0, 0], [0, tiny, 0], [0, 0, 2 * tiny]]), JETS)
        assert [inv[i, i].value for i in range(3)] == [-1 / tiny, 1 / tiny, 0.5 / tiny]
        assert sorted(inv) == [(0, 0), (1, 1), (2, 2)]  # only the nonzero entries
        with pytest.raises(SingularMetricError):
            tensor._invert_jet_matrix(jets([[tiny, tiny, 0], [tiny, tiny, 0], [0, 0, tiny]]), JETS)


class TestHolonomy:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("dim4-psi-exp", 2),
            ("dim5-psi-exp", 3),
            ("dim6-psi-exp", 4),
            ("mainth-a0", 2),
            ("3d1-xu", 1),
            ("3d2-inv-u", 2),
            ("homog-n2", 2),
        ],
    )
    def test_span_dims(self, catalog, key, expected):
        entry = catalog[key]
        dims = {holonomy_span_dim(entry.structure, p).span_dim for p in entry.sample_points(4)}
        assert dims == {expected}

    def test_flat_span_zero(self, flat3):
        assert holonomy_span_dim(flat3, (0.0, 0.0, 0.0)).span_dim == 0

    def test_stable_across_ten_points(self, catalog):
        entry = catalog["dim4-psi-tan"]
        dims = {holonomy_span_dim(entry.structure, p).span_dim for p in entry.sample_points(10)}
        assert len(dims) == 1

    @pytest.mark.parametrize(
        "sv,cut,rank",
        [
            ([], 1e-7, 0),
            ([0.0, 0.0], 1e-7, 0),
            ([2.0, 1e-6, 1e-7, 0.0], 1e-7, 2),  # strictly above 2e-7
            ([2.0, 2e-7], 1e-7, 1),
            ([1.0, 1.0, 1.0], 1e-9, 3),
        ],
    )
    def test_numerical_rank(self, sv, cut, rank):
        assert numerical_rank(np.array(sv), cut) == rank


class TestConformalWeyl:
    @pytest.mark.parametrize("key", ["dim4-psi-exp", "dim4-psi-cubic", "dim5-psi-exp"])
    def test_family_is_conformally_flat(self, catalog, key):
        entry = catalog[key]
        for p in entry.sample_points(3):
            assert conformal_weyl_tensor(entry.structure, p).norm() <= 1e-9

    def test_flat_metric(self, flat3):
        assert conformal_weyl_tensor(flat3, (0.0, 0.0, 0.0)).norm() == pytest.approx(0.0, abs=1e-15)

    def test_schwarzschild_control(self):
        assert conformal_weyl_tensor(schwarzschild(), (0.0, 3.0, 1.0, 0.5)).norm() > 1e-3


class TestLieDerivative:
    def test_d_v_is_a_symmetry_of_case1(self, catalog):
        entry = catalog["3d1-xu"]
        rep = lie_derivative_check(entry.structure, ("1", "0", "0"), entry.sample_points(1)[0])
        assert rep.metric_residual <= 1e-12 and rep.one_form_residual <= 1e-12
        assert rep.lam == pytest.approx(0.0, abs=1e-12)

    def test_killing_fields_on_random_psi(self):
        entry = make_dim_ge4("t+0.04*t^2+0.01*t^3", 3, key="t")
        p = entry.sample_points(1)[0]
        for label, comps in entry.symmetry_fields:
            rep = lie_derivative_check(entry.structure, comps, p)
            assert rep.metric_residual <= 1e-9, label
            assert rep.one_form_residual <= 1e-9, label
            assert abs(rep.lam) <= 1e-9, label

    def test_scaling_field_fails_on_linear_psi(self, catalog):
        """2t d_t + 3 sum x d_x + 6v d_v alone is not a symmetry of the
        psi(t) = t structure (the symmetry ODE forces pairing with the
        u-scaling field)."""
        entry = catalog["dim4-psi-linear"]
        z2 = dict(extra_fields(2))["Z2"]
        rep = lie_derivative_check(entry.structure, z2, entry.sample_points(1)[0])
        assert rep.metric_residual > 1e-3

    def test_paired_scaling_is_a_symmetry_of_linear_psi(self, catalog):
        entry = catalog["dim4-psi-linear"]
        fields = dict(extra_fields(2))
        combo = tuple(f"({a})+({b})" for a, b in zip(fields["Z2"], fields["Z4"]))
        rep = lie_derivative_check(entry.structure, combo, entry.sample_points(1)[0])
        assert rep.metric_residual <= 1e-9 and rep.one_form_residual <= 1e-9

    def test_one_form_derivative_of_a_boost(self):
        """On Minkowski space with w = x dt, the boost Y = x d_t + t d_x is
        Killing (lam = 0) and (L_Y w)_a = Y^c d_c w_a + w_c d_a Y^c = (t, x, 0)."""
        s = make_structure(Chart(("t", "x", "y")), {("t", "t"): "0-1", ("x", "x"): "1", ("y", "y"): "1"}, {"t": "x"})
        rep = lie_derivative_check(s, ("x", "t", "0"), (0.3, 0.5, 0.2))
        assert rep.lam == 0.0 and rep.metric_residual == 0.0
        assert rep.one_form_residual == pytest.approx(np.hypot(0.3, 0.5), rel=1e-15)

    def test_no_connection_is_built(self, catalog, monkeypatch):
        """The check reads the metric and 1-form jets alone."""
        entry = catalog["3d1-xu"]
        point = entry.sample_points(1)[0]
        want = lie_derivative_check(entry.structure, ("1", "0", "0"), point)
        monkeypatch.setattr(tensor, "weyl_connection", None)
        monkeypatch.setattr(tensor, "_christoffel_from", None)
        assert lie_derivative_check(entry.structure, ("1", "0", "0"), point) == want

    def test_domain_and_signature_are_checked(self):
        s = make_structure(Chart(("t", "x", "y"), (parse("x"),)), {("t", "t"): "0-1", ("x", "x"): "1", ("y", "y"): "1"})
        with pytest.raises(DomainViolation):
            lie_derivative_check(s, ("1", "0", "0"), (0.0, -1.0, 0.0))
        riemannian = make_structure(Chart(("t", "x", "y")), {("t", "t"): "1", ("x", "x"): "1", ("y", "y"): "1"})
        with pytest.raises(SignatureError):
            lie_derivative_check(riemannian, ("1", "0", "0"), (0.0, 0.0, 0.0))

    def test_homogeneous_model_annihilated(self, catalog):
        entry = catalog["homog-n2"]
        p = entry.sample_points(2)[1]
        for label, comps in entry.symmetry_fields:
            rep = lie_derivative_check(entry.structure, comps, p)
            assert max(rep.metric_residual, rep.one_form_residual, abs(rep.lam)) <= 1e-9, label


# ----------------------------------------------------------------------
# each jet operation of a call once
# ----------------------------------------------------------------------

# SHA-256 of curvature.tobytes(), nabla_R.tobytes() and the recurrence
# report's floats (theta, max_residual, weight, weight_residual) of the depth-2
# connection of make_dim_ge4("exp(t)", n) at its first sample point, as the
# pass computed them when each x^i direction repeated its jet work
DIM_GE4_DIGESTS = {
    2: (
        "53a7cd2a8272ac187d7ad5e0d9ff68cd36a2542b9a5c198d7a3a5e9fbddbed9f",
        "dee82642d7bf5171725703ff4b27d440d153565c98eb0ed1826b5950d610ee24",
        "e204979d767b4025cf9954eea41131b4c9b23eb8a595230f3aa1a29b9dce1a64",
    ),
    8: (
        "97183b3269c874ed7e5f3be44b05c2a406cbafd990f62c4c99c7125ff650601b",
        "66cf72fc2bb15bc7af2f0b2096387bf96e24ea5ed6946bc42a82ced4fb6d2f91",
        "5ad91f3646694029b70d234d8191875f858dc0f7f41a1b94b25555b4a2b1f551",
    ),
    12: (
        "033ae5880f29e956a8f5b03b3f5b25c94e8935ae4915386cc47c6e4f2a248b99",
        "628e527bcaac9e28956dddaf1b5f6c3659ca8d29452d83f514e49f63c5ab7011",
        "a4d26029f1676168fce2f4c7fd777d6b92145ea6317ee003c29f6d04653c4d1e",
    ),
    22: (
        "40529b786639108e7dabd139a3922118fd4d5d025ea8518f1b2a4113571818cd",
        "00b554afc2adcf1fe55be7e19f9be93861c05bff8f54ac6b7aa159ed2a7db0af",
        "cf18b628f022abbae66106c617756fa280150861757f43953724f12589b284f2",
    ),
}


# SHA-256 of the readers of R at the same depth-2 connections as
# DIM_GE4_DIGESTS: the holonomy singular values, the conformal Weyl array and
# the Einstein-Weyl floats (lam, residual, and dkp_residual where there is
# one), as the pass computed them when R was a dense d^4 list of jets
READER_DIGESTS = {
    2: (
        "7bdcfe3a2cd115225931f272286d29c76d71ee1a27f857520c8334b89d89eb72",
        "0e6364388051fb33d5fae5cf24c0830b474759d4e9982f9c971f8470184d2586",
        "a3bbbd8d56c8ee837db9f6519c677a4a13d5e28fa883de835d6939eee44f48ba",
    ),
    8: (
        "94b0d943261dccb1d7125bf95f06e3a96fb20ef7ecb3c3d6690840af531e2d98",
        "2b94dd3753213fa984ab3e416ffb5ee238c57262c769fad04ae6ae95dcc6ab3b",
        "69d96ca1ebb99cc737c53accd0b20364649d617ae136467d5a21dea17e475c22",
    ),
    12: (
        "cfa8f60868500233ff401c2757cc29a055d151f669733bc1455215662c913a50",
        "37b801ffad59a23548b6d219e7b9d20a35b8153868e1f814d267fbc25a1ae848",
        "416556177101dea4b3c3af36c6ee9ec1c50cb85b9ed9b3185217b849ed290069",
    ),
    22: (
        "0e38a73d46c1800109e083a0fff727d8d26277bda70cfc3bcae8ff7f2596b17b",
        "f36a53c153a3e3a8d47d741b5ccd1a9d47c7cee26d906ef925e6d4b71972b329",
        "980f2be879f6a105963ab265917ef24b483db1a1d5524e5c1f6d757b420eb4ac",
    ),
}

# the same three, then nabla R, at the first sample point of catalog entries
# whose R is less sparse than the dim >= 4 family's
CATALOG_READER_DIGESTS = {
    "mainth-a0": (
        "e0e32d10eecce004b32031398ffe836658ec5d4cdf8fc529e781e82e110124ef",
        "bcf573c29ceb52f177aacb83864b4356b33bf6bf45c7f6df9e24f6cf2bac971e",
        "d90b08abd556dbd2d684cfb07451f036f332cd685bec59de100664944be8b518",
        "b54da126c6d96e0cf8f75a8638f7920ccf23a8e86b5ef54dc8a8e381ea738714",
    ),
    "3d2-generic": (
        "3609345132e24c797187c451a61e1ee6dde90ec2cb28aa20e8f41c25f779cf25",
        "6b0b7aeb2cb4ae72e57449bea8d5bf0ad69b1e4aa28c5c8921f25906dad90679",
        "f75a6158dd1e0cc58f03449ecdaa95d5ba58e2dc821e888782a1301fbe6f5b65",
        "a6399fd08a5906f74150e87e467569dac4dba4301ec1254c8f1ab360adb31785",
    ),
    "homog-n2": (
        "b1ff45cec05688c412747ee9da455908aafa5f0440ce22932cf4109ac42db6a0",
        "d998cd6a21d4f8280f9826a9fca1e51dd15fb772db6fff851714e4656f13106b",
        "6dca1d244059aee93174c97992788d6af3e258d98e8c127e23641bc190a87b00",
        "f409ed9c626741a6f20c5574d6c73af87833107476c476fdf2e55234982a6172",
    ),
}


def sha256(array):
    return hashlib.sha256(np.asarray(array, dtype=float).tobytes()).hexdigest()


# SHA-256 of the depth-1 readers of R at 4 sample points (seed 0) of each
# catalog entry and of the dim >= 4 exp(t) form at d = 10, each over the 4
# points in turn: the holonomy singular values, the conformal Weyl arrays,
# the Einstein-Weyl floats (lam, residual, and dkp_residual where there is
# one) and the curvature arrays, as the pass computed them when R was made of
# order-0 jets at depth 1
DEPTH1_READER_DIGESTS = {
    'dim4-psi-linear': (
        "ad54480181a7758907616ec4c56395010b9177bce2469dc4c9e5e3bcdae297af",
        "30e20252bbdd7ca52250775f746b6076f47dfe69cbc3eb3f3bc514bf77e71ac3",
        "d535c9a8488166ed6676e8a2ca5ab270fc007adbd6669353a491218e78b0c41c",
        "2b06e12af9cd92c1adfc7d1c906cdc75842ea02d2cad301a522d2f0fa1fb4cda",
    ),
    'dim4-psi-exp': (
        "b069f7f9f46b069764f7e8906c428417c22e3c4a8ed3e2845d2b448bdf38628e",
        "b848e6cf2556ba651e849387845255ff5ed333d298b620596b161b8dc2fd42a3",
        "aeb2353b70943b6003de84f257d2fa83fa4d85ec9db3a302a7e04bfa8e9431dc",
        "0827589023f9b380c8c7c95a7e2cbdd0b3f0d16eda89a9cf61d30bc1e21be953",
    ),
    'dim4-psi-tan': (
        "3d260e5ca336311fe981ebcf261cbb1baeb5276590e7e39c3ce8a169a8224293",
        "f08d7637b715812e1369966468b14758be7d0793d1ea76631eaceed6c667274d",
        "93271aabd9dda3f5f86c426a7b8c38a80eadeea89232f2e26709a7e1b3bc3b5e",
        "1b440b315b4507227cf170def86037bec8870629c30f72190e3b6107a30fa4f2",
    ),
    'dim4-psi-log3': (
        "c815b46704021e83214084413bd259155e9d7805e20f63e51580e1d2b8800273",
        "2cfe7302279f1265d182a8ea6170e66c001f60f1da100ca1dc4452d10c85c2d5",
        "283666c0f64da686d96333b2c6dcf52cd3875b87db84b83a6a939210d419ec0b",
        "fa1669c8be34d376828ad7426d83112c9f129f9b8ffae67012a36d8ba29430f8",
    ),
    'dim4-psi-tanlog1': (
        "44f58d04372a9093fb9858d221a40af3e6ffc21e927bfd7c0a327720eb8167f6",
        "3d3946a846513d4678d70d4ec0e754c285f4a250b535938743dd65a286cded93",
        "213a902cdb69f31967ce06ece491e61d5b01d08b31e17422098c8568f60f29b1",
        "4c2cdbccb700962aee7db9fa01b597970e3c866c3562d562b126dc687cdb8bc4",
    ),
    'dim4-psi-power2': (
        "11710a795318d2b4061bf78f51b40bc74a88e1d15909a79f5d3a695c2d322e4d",
        "a6010e0f4db6540e036f2f9685d0d8ed9b5667c375370ed2698d4018ce99bd07",
        "fe39ca3c98bcbfd7667033d90e4c2d4b360a351ea462f1b5a38a427eea6ac62a",
        "a0247257df5225ab87db48a47805946cba67e3faa113288cef028418c8fdb427",
    ),
    'dim4-psi-cubic': (
        "202eba93d7a64082b03438dda53fc23b3aa61b5c67bc0f23f02c599a2a748a59",
        "cf1c936c7d32a9bf53cf2545be75c6801d378ccc7d06bf72d1536072fe05c194",
        "909b273b082009642c390151961a63ea68902c4bf0fa54d22dc12b0de56aa394",
        "76401779327c35a44ac2b0bfe33483aeba495ef7d32324f0ce0c04baa3e4a3b2",
    ),
    'dim5-psi-exp': (
        "6c08b179f402571db838cee2edf8deb2d4d37fe94b3805c48bc85aba8e28cb47",
        "e63059623b6547f0f778058b9f7eb3ceb2d57a655030dd8fa62d985868f580e0",
        "fcf731e4f4751fc65954f5a1dd35cc1dbc5f964060e8ba420a17471fd18d2e7b",
        "8bbbaada0e8a0eda9a36f9f32e1ad933d97620ec610a62d3230a4cd879e7cdb4",
    ),
    'dim6-psi-exp': (
        "749f560df44ea1bb037216c6ec672c29206429c9bef0863a1df6d5c05d3cbef0",
        "0705104c3992009132db3a00fdbc03d67d768285ae76970b26d37d935cc33d1c",
        "92ce0d4f0b91d33d6392cb862787638a4c078bbfcf4ba4234d5e28b5eda20488",
        "88a85720dfb480c63e3b52addb0430dd2658dc441e8357fd7b92dfffd1629206",
    ),
    'mainth-a0': (
        "ca0a080f96638b14cd05dc2e1954ff2b69ec8cdc8721ca20dba38b156db65c5c",
        "048a58979f1f34f6a60767346f3bdf0783137f85777f89a382a203ca818027ea",
        "6c579351ce18c3e0855c22d92793140b336b8a85b6b54d740bb533599fad15dc",
        "d8e0b24d6e1d454770e2c557c80c4af0ab8c81c56e8c4857ae5c9afaffd2ade0",
    ),
    '3d1-homog': (
        "d083e709abc7713edec112da6b3e1b13706842c8dd1dae55b55f74d80318a12a",
        "c786e2ec03bb93913fa15df1e32184c0407666e4b1abe4080b221abfc3a0f5a0",
        "2b81c54b579dc4a4a993ebf48d55a6ad773e64fa89beb75ee7b7fd36380c9000",
        "78cc8e4be1a305f241eebf4c8aaf678ad057643cc379b78ae265fcf483be7314",
    ),
    '3d1-xu': (
        "b5472376065979351139c523b56a6d4575e4fc203ce396e3ff9ef4b00eaca1b9",
        "871b3cfcb533d4b729df5576a8ab4bd6c3cb748f1846da3bfc75866b5b3630b2",
        "288059d1650fc4fb315bd08423f1ee8740c4169af9c90182ff9df863aeb90a54",
        "40a1aa2a4eb3e4fe6ef23406a3c239fc6a5210a7acb7676b6e1837d3c487d0e9",
    ),
    '3d2-ew-model': (
        "f12d2d7d959d963473b47c0704ed9300d019a983773ca10d1f4a74c66cae413e",
        "0baf6b87842eb3041a9512db7307c9d86f7675cb1e03933eafce4c8868a6b4b2",
        "4a7768fe3a0991723dc41311f2d87a1cbe7b6feeb051d64c6aa4f483b5a97711",
        "384a30b0824cbdee970d0a1428de2c7225c0a502add24727c3a62cf066c6a76f",
    ),
    '3d2-inv-u': (
        "d3bae413ca31787861d389064335e9c5dfa361f9652af319474788879edabb31",
        "e0e26da4790c54eda40b7d21ac00fdabbad6fe889b4bde5e00357d9ad9c76380",
        "52dbb061b09583d7525163c93aa7678b71e241fc4b349dd3f98e7bb4ce335cfd",
        "13e0196798a9d2edcff8671fc6aa3f5451ff9ac344bf80d54ed65676ee588638",
    ),
    '3d2-generic': (
        "e5a9312054b0284181df13e92b6da54e7b8eedfb7e571145723400d615a0132b",
        "84478825350ccf3d479576cc4cf82ea54c57e86ae401b90bbd057c1c8bcd2a68",
        "b5415e06b92c22746651955d31ba03805811547c5425672967b06869267622fa",
        "1d039e87e64da963f4e8fd81b25062f6f82e5863a325e97b33018bcf07f6c7b0",
    ),
    'homog-n2': (
        "2080e973a14f65a3771d6fef4fc5d097a7cfdc2ce2d07b089752b2683e826bd8",
        "3f9a78eb00b7f3dbd4b15fca442b4a833a628e715701109e4082a7114855b7a4",
        "0fb5fcad30f4a188c7241573fd1b11c3c93d35221383987f71f44699cdbf41e4",
        "77b035a83dabc7c39567aca08f869439d72658ab66a671a0ec374b9414c307fa",
    ),
    'dim10-psi-exp': (
        "b83ed1eeedd1d1b17bce8b5d911869cf73a05cccb71ca05dfc9e099e853381f5",
        "70046c79dda81659962494ef257c25880a4022e36b2de3eb71aa2d087b90fe23",
        "3149ae3aa4f4295c4b8cfe65815993bd3761823952b6046ddc245cac4eb475c4",
        "1b3098619c20a25edd756d6ec61041c916a20c51461b7e2e92ff72d2ff927d22",
    ),
}


def depth1_reader_digests(entry):
    structure = entry.structure
    readers = [[], [], [], []]
    for p in entry.sample_points(4, 0):
        ew = ew_residual(structure, p)
        readers[0].append(holonomy_span_dim(structure, p).singular_values)
        readers[1].append(conformal_weyl_tensor(structure, p).array)
        readers[2].append([ew.lam, ew.residual] + ([] if ew.dkp_residual is None else [ew.dkp_residual]))
        readers[3].append(weyl_connection(structure, p, 1).curvature)
    return tuple(sha256(np.concatenate([np.ravel(x) for x in reader])) for reader in readers)


@pytest.mark.parametrize("key", sorted(DEPTH1_READER_DIGESTS))
def test_depth1_readers_of_R_are_unchanged(catalog, key):
    entry = make_dim_ge4("exp(t)", 8) if key == "dim10-psi-exp" else catalog[key]
    assert depth1_reader_digests(entry) == DEPTH1_READER_DIGESTS[key]


# SHA-256 of (lam, metric_residual, one_form_residual) of the Lie-derivative
# check at 3 sample points (seed 0) of each catalog entry, point by point, of
# each of its symmetry fields in turn and then of the field that is none
# (``skew_field``), as the check computed them with its own truncations,
# derivatives and guards on empty jets
LIE_DERIVATIVE_DIGESTS = {
    "3d1-homog": "2e340252f730940ed5aa28538f5dc18d03beb77c77d7d13a4b4145e3599ace69",
    "3d1-xu": "2f461e5677d94ab7f0f80d1df858ee1a87dbc679bbde060b86fb41c41c8e37bf",
    "3d2-ew-model": "30df73c12896ef312f97c52e7c559a16b0185155d3665b6033eb70104bf72d9e",
    "3d2-generic": "dc940d688dc63ac3bdafbf857ecdddb9b06dcdf8c6e9ccb9e7e80481b873ca93",
    "3d2-inv-u": "5fbfdcc31a3f5066d4b4cb481450890694faea2d9f1d578e55da7b77519903a9",
    "dim4-psi-cubic": "ae23fb79ba27585ff6a3ac19ebf678f5dd51fa2d474b87023e0b6237075fb904",
    "dim4-psi-exp": "c4617cbeddfed60101f5f9e62ade09aeb85ca0f0011d6c44c08bb8d200700160",
    "dim4-psi-linear": "b4aaf190a0ef988d400bebe492a14ebaa6c5e4f91d15f407389cd4d1fbeb1748",
    "dim4-psi-log3": "49955f86ddfbfdb7bc406023d238ea97bfb6eaf3ec9e3b333f53abeffa4ecba5",
    "dim4-psi-power2": "30dc4e7f8ad90efaab968a3bd48e12854e26d429d687b36c576ef811be21521c",
    "dim4-psi-tan": "52355cd77d99eb89f3eb5566acfe06b3b932649a3037707dd8834ced22d9d38c",
    "dim4-psi-tanlog1": "806011a12775c259c9e0dfbd1446c5f7f6972dbd2a893d7d745b3ab2e014875b",
    "dim5-psi-exp": "bd5774b12362ee87ae1056aabbac504a8bcec802eabdc9054679cf772375c454",
    "dim6-psi-exp": "4c826dc2b5d15d0d25e92a6b7275693e11fef92f65b8e41fc950c28c3816f97a",
    "homog-n2": "a7e7b6d2952f845d4d9dfebd0683082e9bbe1ef8885a6073f874c7951af9e247",
    "mainth-a0": "fdf06c4759d11ca8e500ce65dc51c21cdc7779fffc30b128f160b262556d369b",
}


def skew_field(chart):
    """Y^i = x^(i+1) (x^i)^2, indices mod d: a field no catalog entry has as a symmetry."""
    names = chart.names
    return tuple(f"{names[(i + 1) % len(names)]}*{x}^2" for i, x in enumerate(names))


@pytest.mark.parametrize("key", sorted(LIE_DERIVATIVE_DIGESTS))
def test_lie_derivative_reports_are_unchanged(catalog, key):
    entry = catalog[key]
    fields = [comps for _, comps in entry.symmetry_fields] + [skew_field(entry.structure.chart)]
    floats = []
    for p in entry.sample_points(3):
        for comps in fields:
            rep = lie_derivative_check(entry.structure, comps, p)
            floats += [rep.lam, rep.metric_residual, rep.one_form_residual]
    assert sha256(floats) == LIE_DERIVATIVE_DIGESTS[key]


# JetPoly.__mul__ and jets._divide calls of the depth-2 connection of each
# catalog entry at its first sample point and of its curvature, the metric
# and 1-form jets included, where each distinct subexpression of a metric or
# 1-form entry is evaluated once
CATALOG_JET_WORK = {
    "3d1-homog": {"mul": 29, "divide": 6},
    "3d1-xu": {"mul": 25, "divide": 3},
    "3d2-ew-model": {"mul": 34, "divide": 4},
    "3d2-generic": {"mul": 46, "divide": 5},
    "3d2-inv-u": {"mul": 42, "divide": 9},
    "dim4-psi-cubic": {"mul": 48, "divide": 5},
    "dim4-psi-exp": {"mul": 43, "divide": 5},
    "dim4-psi-linear": {"mul": 37, "divide": 4},
    "dim4-psi-log3": {"mul": 49, "divide": 8},
    "dim4-psi-power2": {"mul": 42, "divide": 5},
    "dim4-psi-tan": {"mul": 52, "divide": 7},
    "dim4-psi-tanlog1": {"mul": 62, "divide": 10},
    "dim5-psi-exp": {"mul": 43, "divide": 5},
    "dim6-psi-exp": {"mul": 43, "divide": 5},
    "homog-n2": {"mul": 50, "divide": 5},
    "mainth-a0": {"mul": 34, "divide": 5},
}


class TestEachOperationOnce:
    @staticmethod
    def count_jet_work(monkeypatch):
        """Count ``JetPoly.__mul__`` and ``jets._divide`` calls from now on."""
        counts = {"mul": 0, "divide": 0}
        mul, divide = JetPoly.__mul__, jets._divide

        def counting_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counting_divide(num, den):
            counts["divide"] += 1
            return divide(num, den)

        monkeypatch.setattr(JetPoly, "__mul__", counting_mul)
        monkeypatch.setattr(JetPoly, "__rmul__", counting_mul)
        monkeypatch.setattr(jets, "_divide", counting_divide)
        return counts

    def test_dim_ge4_jet_work_does_not_grow_with_n(self, monkeypatch):
        """The n - 1 flat directions of the dim >= 4 normal form share one
        conformal factor, so a depth-2 pass and its curvature make the same
        products and quotients at n = 2 and n = 8 (107 and 479 products
        when each direction repeated them)."""
        work = []
        for n in (2, 8):
            entry = make_dim_ge4("exp(t)", n)
            p = entry.sample_points(1)[0]
            counts = self.count_jet_work(monkeypatch)
            weyl_connection(entry.structure, p, 2).curvature
            work.append(counts)
            monkeypatch.undo()
        assert work[0] == work[1]
        assert work[0]["mul"] < 107

    @pytest.mark.parametrize("key", sorted(CATALOG_JET_WORK))
    def test_catalog_jet_work_is_unchanged(self, monkeypatch, catalog, key):
        entry = catalog[key]
        p = entry.sample_points(1)[0]
        counts = self.count_jet_work(monkeypatch)
        weyl_connection(entry.structure, p, 2).curvature
        assert counts == CATALOG_JET_WORK[key]

    @pytest.mark.parametrize("n", sorted(DIM_GE4_DIGESTS))
    def test_dim_ge4_bits_are_unchanged(self, n):
        entry = make_dim_ge4("exp(t)", n)
        conn = weyl_connection(entry.structure, entry.sample_points(1)[0], 2)
        rep = conn.recurrence()
        floats = [*rep.theta, rep.max_residual, rep.weight, rep.weight_residual]
        assert (sha256(conn.curvature), sha256(conn.nabla_R), sha256(floats)) == DIM_GE4_DIGESTS[n]

    @staticmethod
    def reader_digests(structure, point):
        conn = weyl_connection(structure, point, 2)
        ew = ew_report(structure, conn)
        floats = [ew.lam, ew.residual] + ([] if ew.dkp_residual is None else [ew.dkp_residual])
        return conn, (sha256(conn.holonomy().singular_values), sha256(conn.conformal_weyl().array), sha256(floats))

    @pytest.mark.parametrize("n", sorted(READER_DIGESTS))
    def test_dim_ge4_readers_of_R_are_unchanged(self, n):
        entry = make_dim_ge4("exp(t)", n)
        _, digests = self.reader_digests(entry.structure, entry.sample_points(1)[0])
        assert digests == READER_DIGESTS[n]

    @pytest.mark.parametrize("key", sorted(CATALOG_READER_DIGESTS))
    def test_catalog_readers_of_R_are_unchanged(self, catalog, key):
        entry = catalog[key]
        conn, digests = self.reader_digests(entry.structure, entry.sample_points(1)[0])
        assert (*digests, sha256(conn.nabla_R)) == CATALOG_READER_DIGESTS[key]

    def test_only_operations_on_shared_jets_are_kept(self):
        calls = []

        def op(x, y):
            calls.append((x, y))
            return JetPoly.constant(float(len(calls)), 1, 1, (0.0,))

        a, b, c = (JetPoly.constant(v, 1, 1, (0.0,)) for v in (1.0, 2.0, 3.0))
        once = tensor._once_per_operands(op, {id(a)})
        first = once(a, b)
        assert once(a, b) is first and len(calls) == 1  # a is shared
        once(b, c)
        once(b, c)
        assert len(calls) == 3  # neither is: computed each time, nothing kept
        second = once(first, c)
        assert once(first, c) is second and len(calls) == 4  # the result of a kept operation is shared
        assert tensor._once_per_operands(op, set()) is op  # nothing can become shared

    def test_a_slot_and_its_mirror_count_once(self):
        x, y, z = (JetPoly.constant(v, 1, 1, (0.0,)) for v in (1.0, 2.0, 3.0))
        empty = JetPoly(1, 1, (0.0,))
        g = [[x, y, empty], [y, z, empty], [empty, empty, z]]
        assert tensor._repeated(tensor._live(g), (0, 1)) == {id(z)}  # y fills only a slot and its mirror
        assert tensor._repeated(tensor._live(g)) == {id(y), id(z)}

    def test_a_metric_with_no_repeated_entry_shares_nothing(self):
        """Nothing is kept for a metric whose entries are all distinct, so a
        generic pass holds no more jets than before."""
        names = ("x0", "x1", "x2", "x3")
        entries = {("x0", "x0"): "-(2+x1^2/3)", ("x0", "x1"): "x0*x1/50"}
        entries.update({(x, x): f"{k}+2+x{(k + 1) % 4}^2/{k + 3}" for k, x in enumerate(names) if k})
        s = make_structure(Chart(names), entries, {"x0": "x1/7", "x1": "x0^2/5"})
        conn = weyl_connection(s, (0.1, 0.15, 0.2, 0.25), 2)
        assert not tensor._repeated(tensor._live(conn.metric), (0, 1))
        assert not tensor._repeated(tensor._live(conn.gamma), (1, 2))
        for kind in (tensor._read_down(conn.metric, 2, (0, 1))[0], tensor._read_down(conn.gamma, 1, (1, 2))[0]):
            assert kind == JETS and kind.mul is operator.mul


# ----------------------------------------------------------------------
# the structural-zero kernels against their dense loops
# ----------------------------------------------------------------------


def per_jet(jets, fn):
    """``fn`` of each jet of a nested list, in the list's shape: the dense read-down of the reference loops."""
    return [per_jet(x, fn) for x in jets] if isinstance(jets, list) else fn(jets)


def reference_invert_jet_matrix(g):
    """``tensor._invert_jet_matrix`` on jets before it skipped empty entries
    and repeated operations, verbatim."""
    d = len(g)
    zero, one = g[0][0].like_constant(0), g[0][0].like_constant(1)
    aug = [[g[i][j] for j in range(d)] + [one if i == j else zero for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(float(aug[r][col].value)))
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = one / aug[col][col]
        aug[col] = [entry * inv_pivot for entry in aug[col]]
        for r in range(d):
            factor = aug[r][col]
            if r != col and factor.coeffs:
                aug[r] = [er - factor * ec for er, ec in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def reference_christoffel_from(structure, point, depth, g, omega):
    """``tensor._christoffel_from`` before it skipped empty brackets and
    empty sums or repeated operations, verbatim: the sparse loop must
    reproduce it bit for bit."""
    d = structure.dim
    dg = per_jet(g, lambda jet: [jet.derivative(e) for e in range(d)])
    g_low = per_jet(g, lambda jet: jet.truncated(depth))
    ginv = reference_invert_jet_matrix(g_low)
    zero = g_low[0][0].like_constant(0)

    gamma = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for b in range(d):
        for c in range(b, d):
            brackets = [dg[e][c][b] + dg[b][e][c] - dg[b][c][e] for e in range(d)]
            for a in range(d):
                acc = zero
                for e, bracket in enumerate(brackets):
                    if bracket.coeffs and ginv[a][e].coeffs:
                        acc = acc + ginv[a][e] * bracket
                entry = acc / 2
                gamma[a][b][c] = entry
                gamma[a][c][b] = entry

    levi_civita_gamma = [[row[:] for row in plane] for plane in gamma]
    omega_up = [zero] * d  # g^{ad} w_d
    for a in range(d):
        acc = zero
        for e in range(d):
            if ginv[a][e].coeffs and omega[e].coeffs:
                acc = acc + ginv[a][e] * omega[e]
        omega_up[a] = acc
    for a in range(d):
        for b in range(d):
            for c in range(b, d):
                k = zero
                if a == b and omega[c].coeffs:
                    k = k + omega[c]
                if a == c and omega[b].coeffs:
                    k = k + omega[b]
                if g_low[b][c].coeffs and omega_up[a].coeffs:
                    k = k - g_low[b][c] * omega_up[a]
                if k.coeffs:
                    entry = gamma[a][b][c] + k
                    gamma[a][b][c] = entry
                    gamma[a][c][b] = entry

    return tensor.Connection(structure.chart, tuple(point), depth, gamma, g, omega, levi_civita_gamma)


def reference_curvature_jets(conn):
    """``tensor._curvature_jets`` before it skipped structural zeros, verbatim."""
    d = conn.dim
    dgamma = per_jet(conn.gamma, lambda jet: [jet.derivative(e) for e in range(d)])
    zero = dgamma[0][0][0][0].like_constant(0)
    gl = per_jet(conn.gamma, lambda jet: jet.truncated(conn.depth - 1))
    # nonzero[x][y]: the f with gl[x][y][f] nonzero, outside which no product term survives
    nonzero = [[{f for f, jet in enumerate(row) if jet.coeffs} for row in plane] for plane in gl]
    R = [[[[zero] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            for dd in range(d):
                fs = sorted(nonzero[dd][a] | nonzero[dd][b])
                for c in range(d):
                    acc = dgamma[dd][b][c][a] - dgamma[dd][a][c][b]
                    for f in fs:
                        t1 = gl[dd][a][f]
                        t2 = gl[f][b][c]
                        if t1.coeffs and t2.coeffs:
                            acc = acc + t1 * t2
                        t3 = gl[dd][b][f]
                        t4 = gl[f][a][c]
                        if t3.coeffs and t4.coeffs:
                            acc = acc - t3 * t4
                    R[dd][c][a][b] = acc
                    R[dd][c][b][a] = -acc
    return R


def slot_items(jets):
    """Every slot's order and its (multi-index, coefficient repr) pairs in key
    order; the repr tells an int from a float and -0.0 from 0.0."""
    return [(jet.order, [(a, repr(c)) for a, c in jet.coeffs.items()]) for jet in tensor._flatten(jets)[1]]


# float jets also hold ints (a coordinate jet's linear term is int 1), and int 0s and both float zeros
EXACT_COEFFS = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4))
FLOAT_COEFFS = st.one_of(
    st.integers(-2, 2), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-4, 4, allow_nan=False, allow_infinity=False)
)


@st.composite
def sparse_jets(draw, d, order, exact, constants=True):
    """A draw -> jet maker: mostly empty jets (one shared zero or a fresh one),
    the rest with a few random terms, some of them above every truncation.
    ``jet(constant)`` is a non-empty jet with that constant term; without
    ``constants`` no other jet has one.  A draw may repeat a jet made
    before with the same constant, as entries of the dim >= 4 family repeat
    one jet.  The terms are in a drawn set of the variables, so the
    derivatives in the others are empty for every jet, as the metric of the
    conformally flat families depends on t and u alone."""
    coeff = EXACT_COEFFS if exact else FLOAT_COEFFS
    base = (Fraction(1, 2) if exact else 0.5,) * d
    zero = JetPoly(d, order, base)
    variables = draw(st.sets(st.integers(0, d - 1), min_size=1))
    indices = [alpha for alpha in taylor_indices(d, order) if all(alpha[k] == 0 for k in range(d) if k not in variables)]
    made = {}  # constant -> the non-empty jets made with it

    def jet(constant=None):
        if made.get(constant) and draw(st.booleans()):
            return draw(st.sampled_from(made[constant]))
        if constant is None and not draw(st.booleans()):
            return zero if draw(st.booleans()) else JetPoly(d, order, base)
        pool = indices if constants and constant is None else indices[1:]
        keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
        coeffs = {} if constant is None else {(0,) * d: constant}
        coeffs.update((a, draw(coeff)) for a in keys)
        new = JetPoly(d, order, base, coeffs)
        if new.coeffs:
            made.setdefault(constant, []).append(new)
        return new

    jet.zero = zero
    return jet


@st.composite
def sparse_connections(draw):
    """A connection in 3-9 dimensions of depth 1-3 whose Christoffel jets are
    mostly empty, with gamma[a][b][c] is gamma[a][c][b] as built.  Only the
    planes a of a drawn set may be nonzero, and in each of them only the
    (b, c) in a drawn set, so whole planes gamma[a] and rows gamma[a][b] are
    empty, as in the conformally flat families."""
    d, depth, exact = draw(st.integers(3, 9)), draw(st.integers(1, 3)), draw(st.booleans())
    jet = draw(sparse_jets(d, depth, exact))
    planes = draw(st.sets(st.integers(0, d - 1)))
    gamma = [[[None] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        live = draw(st.sets(st.integers(0, d - 1))) if a in planes else set()
        for b in range(d):
            for c in range(b, d):
                gamma[a][b][c] = gamma[a][c][b] = jet() if b in live and c in live else jet.zero
    chart = Chart(tuple(f"x{i}" for i in range(d)))
    return tensor.Connection(chart, jet.zero.base, depth, gamma)


@st.composite
def sparse_metrics(draw):
    """(structure, depth, g, omega): a sparse symmetric metric of jets of order
    depth + 1 in 3-9 dimensions, diagonal at the point so that it inverts, and
    a sparse 1-form of jets of order depth.  Only the rows of a drawn set
    may be nonzero off the diagonal, so whole rows of g and of its inverse
    are empty there, and the 1-form may be zero throughout (Levi-Civita)."""
    d, depth, exact = draw(st.integers(3, 9)), draw(st.integers(1, 3)), draw(st.booleans())
    metric_jet = draw(sparse_jets(d, depth + 1, exact, constants=False))
    rows = draw(st.sets(st.integers(0, d - 1)))
    g = [[None] * d for _ in range(d)]
    for i in range(d):
        g[i][i] = metric_jet(constant=draw(st.sampled_from([1, -1, 2, Fraction(1, 3)] if exact else [1.0, -1.0, 2.5])))
        for j in range(i + 1, d):
            g[i][j] = g[j][i] = metric_jet() if i in rows and j in rows else metric_jet.zero
    omega_jet = draw(sparse_jets(d, depth, exact))
    structure = make_structure(Chart(tuple(f"x{i}" for i in range(d))), {})
    omega = [omega_jet() for _ in range(d)] if draw(st.booleans()) else [omega_jet.zero] * d
    return structure, depth, g, omega


def slot_numbers(slots):
    """Each slot with the type and repr of its number (so -0.0 != 0.0 and 1 != 1.0)."""
    return {slot: (type(x), repr(x)) for slot, x in slots.items()}


@settings(max_examples=45)  # each draw of d up to 9 runs a dense d^4 or d^3 x d reference loop
@given(sparse_connections())
def test_curvature_jets_match_the_dense_loop(conn):
    reference = reference_curvature_jets(conn)
    if conn.depth == 1:
        d = conn.dim
        values = {
            (i, c, a, b): reference[i][c][a][b].value
            for i in range(d)
            for c in range(d)
            for a in range(d)
            for b in range(a + 1, d)
        }
        assert slot_numbers(conn.curvature_jets) == slot_numbers({k: x for k, x in values.items() if not jets.exact_zero(x)})
    else:
        assert slot_items(dense_curvature_jets(conn)) == slot_items(reference)
    # the values read from the live slots are those of the dense list: 0.0, not -0.0, at
    # the mirror of a slot whose jet has no constant term
    assert conn.curvature.tobytes() == tensor._values(reference).tobytes()


@settings(max_examples=45)  # each draw of d up to 9 runs a dense d^4 or d^3 x d reference loop
@given(sparse_metrics())
def test_christoffel_jets_match_the_dense_loop(case):
    structure, depth, g, omega = case
    point = g[0][0].base
    conn = tensor._christoffel_from(structure, point, depth, g, omega)
    ref = reference_christoffel_from(structure, point, depth, g, omega)
    assert slot_items(conn.gamma) == slot_items(ref.gamma)
    assert slot_items(conn.levi_civita_gamma) == slot_items(ref.levi_civita_gamma)
