"""Catalog constructors: preconditions, field lists, sampling, metadata."""

import math

import numpy as np
import pytest

from weylrec.catalog import (
    CatalogError,
    extra_fields,
    killing_fields,
    make_3d_case1,
    make_3d_case2,
    make_dim_ge4,
    make_homogeneous_model,
    make_mainth_form,
    sample_box,
    standard_catalog,
)
from weylrec.exprlang import derivative, eval_number


def riccati(F: str, a: str, env) -> float:
    """The Riccati gate of the normal form, F_uu + a - F_u^2, at a named point."""
    Fu = derivative(F, "u")
    return eval_number(derivative(Fu, "u"), env) + eval_number(a, env) - eval_number(Fu, env) ** 2


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


class TestDimGe4:
    def test_linear_psi_builds_inverse_square_factor(self):
        entry = make_dim_ge4("t", 2)
        s = entry.structure
        i_v, i_u = s.chart.index("v"), s.chart.index("u")
        env = {"t": 0.8, "v": 0.0, "x1": 0.0, "u": 0.5}
        # conformal factor psi'/(u+psi)^2 = 1/(u+t)^2
        assert eval_number(s.metric[i_v][i_u], env) == pytest.approx(1 / (0.5 + 0.8) ** 2)
        # omega_t = 1/(u+t)
        assert eval_number(s.one_form[0], env) == pytest.approx(1 / 1.3)

    def test_exp_psi_one_form(self):
        entry = make_dim_ge4("exp(t)", 2)
        env = {"t": 0.9, "v": 0.0, "x1": 0.0, "u": 0.4}
        et = math.exp(0.9)
        # omega_t = psi'/(u+psi) - psi''/(2 psi') = e^t/(u+e^t) - 1/2
        assert eval_number(entry.structure.one_form[0], env) == pytest.approx(et / (0.4 + et) - 0.5)

    def test_decreasing_psi_rejected(self):
        with pytest.raises(CatalogError, match="positive"):
            make_dim_ge4("0-t", 2)

    def test_dimension_floor(self):
        with pytest.raises(CatalogError, match="n >= 2"):
            make_dim_ge4("t", 1)

    def test_negative_branch(self):
        entry = make_dim_ge4("t", 2, branch=-1)
        for p in entry.sample_points(5):
            env = dict(zip(entry.structure.chart.names, p))
            assert env["u"] + env["t"] < 0

    def test_expected_metadata(self):
        entry = make_dim_ge4("exp(t)", 3)
        assert entry.expected["holonomy_dim"] == 3
        assert entry.expected["is_preferred_rep"] is True
        assert entry.dim == 5


class TestMainThForm:
    def test_riccati_zero_for_log_profile(self):
        # dF/du of -ln(u + psi(x2)) satisfies the compatibility ODE with a = 0
        for u, x2 in [(0.5, 0.8), (1.0, 0.6), (0.3, 1.2)]:
            assert riccati("0-ln(u+x2)", "0", {"u": u, "x2": x2}) == pytest.approx(0.0, abs=1e-12)

    def test_riccati_nonzero_for_perturbed_profile(self):
        assert abs(riccati("0-ln(u+x2)+0.1*u", "0", {"u": 0.5, "x2": 0.8})) > 1e-2

    def test_pure_xn_profile_rejected(self):
        # d_n dF/du = 0 when F does not mix u and x^n
        with pytest.raises(CatalogError, match="non-vanishing"):
            make_mainth_form("x2^2", "0", 2)

    def test_foreign_variables_rejected(self):
        with pytest.raises(CatalogError, match="depend only"):
            make_mainth_form("v*u", "0", 2)
        with pytest.raises(CatalogError, match="depend only"):
            make_mainth_form("0-ln(u+x2)", "x2", 2)

    def test_quadratic_potential_slot(self):
        entry = make_mainth_form("0-ln(u+x2)", "1", 2, constraints=("u+x2",))
        s = entry.structure
        i_u = s.chart.index("u")
        env = {"v": 0.0, "x1": 0.7, "x2": 0.9, "u": 0.4}
        assert eval_number(s.metric[i_u][i_u], env) == pytest.approx(0.49)


class TestThreeDCaseOne:
    def test_quadratic_in_x_rejected(self):
        with pytest.raises(CatalogError, match="non-vanishing"):
            make_3d_case1("x^2")

    def test_homogeneous_profile_accepted(self):
        entry = make_3d_case1("(1/2)*ln(u-x)", constraints=("u-x",))
        for p in entry.sample_points(5):
            env = dict(zip(entry.structure.chart.names, p))
            assert env["u"] - env["x"] > 0

    def test_metric_exponent(self):
        entry = make_3d_case1("x*u")
        env = {"v": 0.0, "x": 0.5, "u": 0.7}
        i_x = entry.structure.chart.index("x")
        assert eval_number(entry.structure.metric[i_x][i_x], env) == pytest.approx(math.exp(-0.7))


class TestThreeDCaseTwo:
    def test_vanishing_a_rejected(self):
        with pytest.raises(CatalogError, match="non-vanishing"):
            make_3d_case2("0", "1")

    def test_ew_model_potential(self):
        # a = 1, c = 0: H = x (v + x^3 / 12)
        entry = make_3d_case2("1", "0")
        i_u = entry.structure.chart.index("u")
        env = {"v": 0.4, "x": 0.9, "u": 0.6}
        expect = 0.9 * (0.4 + 0.9**3 / 12)
        assert eval_number(entry.structure.metric[i_u][i_u], env) == pytest.approx(expect)

    def test_adot_enters_potential(self):
        entry = make_3d_case2("1/u", "2/u^2", constraints=("u",))
        i_u = entry.structure.chart.index("u")
        v, x, u = 0.3, 0.8, 1.1
        a, adot, c = 1 / u, -1 / u**2, 2 / u**2
        expect = a * v * x + a**2 * x**4 / 12 - adot * x**3 / 3 + c * x
        assert eval_number(entry.structure.metric[i_u][i_u], {"v": v, "x": x, "u": u}) == pytest.approx(expect)

    def test_preferred_representative_scaling(self):
        entry = make_3d_case2("1/u", "2/u^2", constraints=("u",))
        h = entry.preferred
        env = {"v": 0.0, "x": 0.0, "u": 2.0}
        i_v, i_u = h.chart.index("v"), h.chart.index("u")
        assert eval_number(h.metric[i_v][i_u], env) == pytest.approx(0.5**0.8)
        # omega_h,u = a x - (2/5) a'/a = 0 - (2/5)(-1/2) = 1/5 at x = 0, u = 2
        assert eval_number(h.one_form[i_u], env) == pytest.approx(0.2)


class TestHomogeneousModel:
    def test_field_count(self):
        entry = make_homogeneous_model(3)
        # d_v, 2 translations, 2 mixed, 1 rotation, X, Y
        assert len(entry.symmetry_fields) == 2 * 3 - 1 + 1 + 2
        assert entry.expected["holonomy_dim"] == 3

    def test_domain_constraint(self):
        entry = make_homogeneous_model(2)
        for p in entry.sample_points(8):
            env = dict(zip(entry.structure.chart.names, p))
            assert 2 * env["t"] + env["u"] ** 2 > 0


class TestFieldLists:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 6), (4, 10)])
    def test_killing_count(self, n, count):
        killing, extra = killing_fields(n), extra_fields(n)
        # (2n - 1) + C(n-1, 2)
        assert len(killing) == (2 * n - 1) + math.comb(n - 1, 2) == count
        assert len(extra) == 5

    def test_component_lengths(self):
        killing, extra = killing_fields(3), extra_fields(3)
        for label, comps in killing + extra:
            assert len(comps) == 5


class TestSampling:
    def test_deterministic_for_fixed_seed(self, catalog):
        entry = catalog["dim4-psi-exp"]
        assert entry.sample_points(5, seed=3) == entry.sample_points(5, seed=3)
        assert entry.sample_points(5, seed=3) != entry.sample_points(5, seed=4)

    def test_constraints_respected(self, catalog):
        entry = catalog["3d1-homog"]
        for p in entry.sample_points(20):
            env = dict(zip(entry.structure.chart.names, p))
            assert env["u"] - env["x"] > 0

    def test_impossible_box_rejected(self, catalog):
        entry = catalog["3d1-homog"]
        bad_box = dict(entry.box)
        bad_box["u"] = (-5.0, -4.0)  # u - x > 0 unreachable
        with pytest.raises(CatalogError, match="incompatible"):
            sample_box(entry.structure.chart, bad_box, 5)

    def test_twelve_dimensional_points_inside_box(self):
        entry = make_dim_ge4("exp(t)", 10)
        names = entry.structure.chart.names
        assert len(names) == 12
        points = sample_box(entry.structure.chart, entry.box, 6, seed=2)
        assert len(points) == 6 and len(set(points)) == 6
        for p in points:
            for name, x in zip(names, p):
                lo, hi = entry.box[name]
                assert lo <= x <= hi

    def test_catalog_covers_required_dimensions(self, catalog):
        dims = {e.dim for e in catalog.values()}
        assert {3, 4, 5, 6} <= dims


def test_no_entry_is_locally_symmetric(catalog):
    """nabla R never vanishes on the catalog: a locally symmetric connection
    would force the structure to be closed."""
    from weylrec.tensor import weyl_connection

    for entry in catalog.values():
        p = entry.sample_points(1)[0]
        assert np.sqrt(np.sum(weyl_connection(entry.structure, p, 2).nabla_R ** 2)) > 1e-6, entry.key
