"""Symmetrized Ricci tensor and Einstein-Weyl / potential residuals."""

import numpy as np
import pytest

from weylrec.catalog import make_3d_case1, standard_catalog
from weylrec.einsteinweyl import dkp_residual, ew_residual, ricci_sym
from weylrec.exprlang import mul, const
from weylrec.tensor import Chart, make_structure, weyl_connection


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


class TestRicciSym:
    def test_case1_components(self):
        """For 2dvdu + e^{-2F}(dx)^2 the symmetrized Ricci tensor is the pure
        cross term -(d_x dF/du) du dx, i.e. components -(1/2) d_x Fdot."""
        entry = make_3d_case1("x*u", key="t")
        r = ricci_sym(entry.structure, (0.0, 0.0, 1.0)).array
        expect = np.zeros((3, 3))
        expect[1, 2] = expect[2, 1] = -0.5  # d_x Fdot = 1 at every point
        assert np.allclose(r, expect, atol=1e-13)

    def test_case2_ricci_is_skew(self, catalog):
        """The potential form of the holonomy-2 family has skew Ricci tensor:
        the symmetrized part vanishes."""
        for key in ["3d2-ew-model", "3d2-inv-u", "3d2-generic"]:
            entry = catalog[key]
            for p in entry.sample_points(3):
                assert np.max(np.abs(ricci_sym(entry.structure, p).array)) < 1e-12

    def test_contraction_matches_the_loop(self, catalog):
        """Ric_cb = sum_a R^a_cab, summed in the order a = 0, 1, ... as a Python
        loop sums it: the same float bits at every sample point."""
        for entry in catalog.values():
            for p in entry.sample_points(5):
                R = weyl_connection(entry.structure, p, 1).curvature
                d = R.shape[0]
                ric = np.array([[sum(R[a, c, a, b] for a in range(d)) for b in range(d)] for c in range(d)])
                assert np.array_equal(ricci_sym(entry.structure, p).array, 0.5 * (ric + ric.T)), entry.key

    def test_flat_structure(self):
        flat = make_structure(Chart(("v", "x", "u")), {("v", "u"): "1", ("x", "x"): "1"}, {})
        assert np.max(np.abs(ricci_sym(flat, (0.1, 0.2, 0.3)).array)) == 0.0


class TestPotentialResidual:
    def test_family_potential_solves_the_equation(self, catalog):
        """2 H_vu + H_xx - (H H_v)_v = 0 identically for the displayed H
        (symbolic expansion: 2 a' x + a^2 x^2 - 2 a' x - a^2 x^2)."""
        for key in ["3d2-ew-model", "3d2-inv-u", "3d2-generic"]:
            entry = catalog[key]
            i_u = entry.structure.chart.index("u")
            H = entry.structure.metric[i_u][i_u]
            for p in entry.sample_points(5):
                assert abs(dkp_residual(H, p)) <= 1e-10

    def test_quadratic_counterexample(self):
        # H = v^2: 2 H_vu = 0, H_xx = 0, (H H_v)_v = 6 v^2
        assert dkp_residual("v^2", (1.0, 0.3, 0.2)) == pytest.approx(-6.0)
        assert dkp_residual("v^2", (2.0, 0.0, 0.0)) == pytest.approx(-24.0)


class TestEWResidual:
    def test_case2_entries_are_einstein_weyl(self, catalog):
        for key in ["3d2-ew-model", "3d2-inv-u", "3d2-generic"]:
            entry = catalog[key]
            for p in entry.sample_points(4):
                rep = ew_residual(entry.structure, p)
                assert rep.residual <= 1e-9
                assert abs(rep.dkp_residual) <= 1e-10
                assert rep.lam == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("key", ["dim4-psi-exp", "dim4-psi-cubic", "dim5-psi-exp"])
    def test_higher_dimensional_entries_are_not(self, catalog, key):
        entry = catalog[key]
        for p in entry.sample_points(4):
            assert ew_residual(entry.structure, p).residual > 1e-3

    def test_case1_entries_are_not(self, catalog):
        """The du dx slot of the symmetrized Ricci tensor cannot be matched
        by any multiple of a metric without that slot."""
        for key in ["3d1-xu", "3d1-homog"]:
            entry = catalog[key]
            for p in entry.sample_points(4):
                assert ew_residual(entry.structure, p).residual > 1e-3

    def test_case1_residual_lower_bound(self):
        """Residual at least |d_x Fdot| / 2 for the holonomy-1 family."""
        entry = make_3d_case1("x*u", key="t")
        for p in entry.sample_points(4):
            rep = ew_residual(entry.structure, p)
            assert rep.residual >= 0.5  # |d_x Fdot| = 1 for F = x u

    def test_verdict_stable_under_constant_rescaling(self, catalog):
        """Scaling the representative by constants in [0.1, 10] leaves the
        residual (hence the verdict) unchanged: the connection is shared."""
        entry = catalog["dim4-psi-exp"]
        s = entry.structure
        p = entry.sample_points(1)[0]
        base = ew_residual(s, p).residual
        for factor in (0.1, 10.0):
            scaled_entries = {}
            for i in range(s.dim):
                for j in range(i, s.dim):
                    if s.metric[i][j] is not None:
                        scaled_entries[(s.chart.names[i], s.chart.names[j])] = mul(
                            const(factor), s.metric[i][j]
                        )
            omega = {
                s.chart.names[k]: s.one_form[k] for k in range(s.dim) if s.one_form[k] is not None
            }
            scaled = make_structure(s.chart, scaled_entries, omega)
            assert ew_residual(scaled, p).residual == pytest.approx(base, rel=1e-9)
