"""Symmetry kernels and classification, with two reference checks of the
symmetry fields: the Lie-derivative check (``lie_derivative.py``) on the
kernel vectors, and exact Lie-bracket closure (``brackets.py``) of the
catalog's polynomial fields.  The symmetry equation of the 3D holonomy-1
family is stated here through ``exprlang.derivative``."""

import numpy as np
import pytest

from weylrec.catalog import killing_fields, sample_box
from weylrec.exprlang import ExprDomainError, derivative, eval_number
from weylrec.invariants import SignatureCurve, pair_jet_from_exprs
from weylrec import symmetry
from weylrec.symmetry import (
    SymmetryKernel,
    _kernel_from_rows,
    _pair_rows,
    _psi_rows,
    _system,
    classify_3d2,
    classify_psi,
    kernel_3d2,
    psi_symmetry_kernel,
)
from weylrec.tensor import Chart

from brackets import bracket_closure, expr_to_poly
from extra_fields import extra_fields
from lie_derivative import lie_derivative_check


def fresh_residual(rows_at, exprs, coeffs, points) -> float:
    """max over the sampled system's rows of |row . coeffs| / (|row| |coeffs|)."""
    rows, v = _system(rows_at, exprs, points), np.asarray(coeffs)
    return float(np.max(np.abs(rows @ v) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(v))))


def span_residual(basis: np.ndarray, target) -> float:
    t = np.asarray(target, dtype=float)
    t = t / np.linalg.norm(t)
    coef, *_ = np.linalg.lstsq(np.asarray(basis).T, t, rcond=None)
    return float(np.linalg.norm(np.asarray(basis).T @ coef - t))


def alignment(vec, target) -> float:
    v = np.asarray(vec, dtype=float)
    t = np.asarray(target, dtype=float)
    return abs(abs(float(v @ t)) / (np.linalg.norm(v) * np.linalg.norm(t)) - 1.0)


class TestPsiKernel:
    def test_linear_has_two_dimensional_kernel(self):
        """psi = t: the kernel spans (1,0,-1,0,0) and (0,1,0,1,0) — the two
        combinations of coordinate fields that survive the symmetry ODE."""
        k = psi_symmetry_kernel("t")
        assert k.dim == 2
        assert span_residual(k.basis, (1, 0, -1, 0, 0)) < 1e-9
        assert span_residual(k.basis, (0, 1, 0, 1, 0)) < 1e-9

    @pytest.mark.parametrize(
        "psi,interval,pattern",
        [
            ("exp(t)", (0.6, 1.8), (2, 0, 0, 1, 0)),
            ("tan(t)", (0.1, 1.2), (1, 0, -1, 0, -1)),
            ("3*ln(t)", (0.8, 1.9), (0, 1, -6, 0, 0)),
            ("t^2", (0.6, 1.8), (0, 1, 0, 2, 0)),
            ("tan(ln(t))", (0.8, 1.9), (0, 1, -2, 0, -2)),
        ],
    )
    def test_one_dimensional_kernels_match_patterns(self, psi, interval, pattern):
        k = psi_symmetry_kernel(psi, interval=interval)
        assert k.dim == 1
        assert alignment(k.basis[0], pattern) < 1e-7

    def test_generic_kernel_trivial(self):
        assert psi_symmetry_kernel("t^3+t").dim == 0

    def test_kernel_vectors_hold_at_fresh_points(self):
        """Kernel vectors are genuine symmetries, not sampling artifacts."""
        for psi, interval in [("exp(t)", (0.6, 1.8)), ("t^2", (0.6, 1.8)), ("3*ln(t)", (0.8, 1.9))]:
            k = psi_symmetry_kernel(psi, interval=interval, seed=0)
            fresh = [interval[0] + (interval[1] - interval[0]) * j / 49 for j in range(50)]
            for vec in k.basis:
                assert fresh_residual(_psi_rows, [psi], vec, fresh) <= 1e-7

    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: sample_box(Chart(("v", "x", "u")), dict.fromkeys("vxu", (0.6, 1.8)), 4, seed=seed),
            lambda seed: psi_symmetry_kernel("exp(t)", seed=seed),
            lambda seed: kernel_3d2("1/u", "2/u^2", seed=seed),
        ],
        ids=["sample_box", "psi_symmetry_kernel", "kernel_3d2"],
    )
    def test_negative_seed_raises(self, build):
        """Below -1 the Halton start index is non-positive and every sample
        would land on the box's low corner."""
        build(0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            build(-2)


class TestClassifyPsi:
    @pytest.mark.parametrize(
        "psi,interval,cohom,kind,A",
        [
            ("t", (0.6, 1.8), 0, "Homogeneous", None),
            ("exp(t)", (0.6, 1.8), 1, "Exp", None),
            ("tan(t)", (0.1, 1.2), 1, "Tan", None),
            ("3*ln(t)", (0.8, 1.9), 1, "Log", 3.0),
            ("tan(ln(t))", (0.8, 1.9), 1, "TanLog", 1.0),
            ("t^2", (0.6, 1.8), 1, "Power", 2.0),
            ("t^3+t", (0.6, 1.8), 2, "Generic", None),
        ],
    )
    def test_family_table(self, psi, interval, cohom, kind, A):
        result = classify_psi(psi, interval=interval)
        assert result.consistent
        assert result.cohomogeneity == cohom and result.kind == kind
        if A is None:
            assert result.parameter is None
        else:
            assert result.parameter == pytest.approx(A, abs=1e-6)

    def test_a_parabolic_vector_without_scaling_is_inconsistent(self):
        """a2 = 0 and a4^2 - a3 a5 = 0 would be the homogeneous case, which a
        one-dimensional kernel cannot be."""
        assert symmetry._psi_kind_from_vector(np.array([0.0, 0.0, 1.0, 1.0, 1.0])) == ("Inconsistent", None)

    def test_power_parameter_closer(self):
        result = classify_psi("t^3", interval=(0.6, 1.8))
        assert result.kind == "Power" and result.parameter == pytest.approx(3.0, abs=1e-6)

    def test_stability_under_source_affine_map(self):
        """Transforming psi by the affine source factor preserves kind and
        parameter (power family)."""
        # t -> image of t^2 under t -> (t - 0.4) / 1.3 composed inside
        result = classify_psi("((t-0.4)/1.3)^2", interval=(1.0, 2.5))
        assert result.kind == "Power" and result.parameter == pytest.approx(2.0, abs=1e-6)

    def test_stability_under_target_map(self):
        """A unimodular target map preserves kind and parameter (the ratio
        invariant of the kernel vector)."""
        # (a, b, c, d) = (1, 0, 1/2, 1): psi -> psi / (psi/2 + 1), det = 1
        result = classify_psi("t^2/(t^2/2+1)", interval=(0.6, 1.8))
        assert result.kind == "Power" and result.parameter == pytest.approx(2.0, abs=1e-6)
        result = classify_psi("tan(ln(t))/(tan(ln(t))/2+1)", interval=(0.8, 1.5))
        assert result.kind == "TanLog" and result.parameter == pytest.approx(1.0, abs=1e-6)

    def test_normal_form_sources_roundtrip(self):
        for kind, A, psi, interval in [
            ("Exp", None, "exp(t)", (0.6, 1.8)),
            ("Power", 2.0, "t^2", (0.6, 1.8)),
            ("Log", 3.0, "3*ln(t)", (0.8, 1.9)),
        ]:
            result = classify_psi(psi, interval=interval)
            assert result.kind == kind
            if A is not None:
                assert result.parameter == pytest.approx(A, abs=1e-6)

    def test_kernel_and_invariant_evidence_agree_on_catalog(self):
        """Kernel dim >= 1 iff the signature curve is a point, kernel dim 2
        iff invariant evaluation is singular everywhere — across the whole
        one-function catalog."""
        from weylrec.catalog import standard_catalog

        for entry in standard_catalog().values():
            if entry.family != "dim_ge4":
                continue
            result = classify_psi(entry.params["psi"], interval=entry.box["t"])
            assert result.consistent, entry.key
            assert result.kind == entry.expected["kind"], entry.key

    def test_kernel_vectors_are_lie_symmetries(self):
        """The kernel coefficients, contracted with the five extra fields,
        give genuine symmetries of the 4-dimensional structures: residuals
        vanish and the scale function is constant (zero for the
        translation-type combinations, a homothety for the scaling ones)."""
        from weylrec.catalog import standard_catalog

        z = dict(extra_fields(2))
        cases = [
            ("dim4-psi-exp", "2*({Z1})+({Z4})", 0.0),
            ("dim4-psi-tan", "({Z1})-({Z3})-({Z5})", 0.0),
            ("dim4-psi-log3", "({Z2})-6*({Z3})", 2.0),
            ("dim4-psi-power2", "({Z2})+2*({Z4})", 2.0),
        ]
        catalog = standard_catalog()
        for key, template, lam in cases:
            entry = catalog[key]
            combo = tuple(
                template.format(Z1=z["Z1"][k], Z2=z["Z2"][k], Z3=z["Z3"][k], Z4=z["Z4"][k], Z5=z["Z5"][k])
                for k in range(len(z["Z1"]))
            )
            rep = lie_derivative_check(entry.structure, combo, entry.sample_points(1)[0])
            assert rep.metric_residual <= 1e-9, key
            assert rep.one_form_residual <= 1e-9, key
            assert rep.lam == pytest.approx(lam, abs=1e-9), key


class TestKernel3D2:
    def test_constant_pair_two_symmetries(self):
        k = kernel_3d2("1", "0")
        assert k.dim == 2
        # basis spans the translation (1,0,0,0) and the scaling combo (0,0,-2,1)
        assert span_residual(k.basis, (1, 0, 0, 0)) < 1e-9
        assert span_residual(k.basis, (0, 0, -2, 1)) < 1e-9

    def test_inverse_u_one_symmetry(self):
        k = kernel_3d2("1/u", "3/u^2")
        assert k.dim == 1
        assert alignment(k.basis[0], (0, 0, 1, 0)) < 1e-7

    def test_generic_pair_trivial(self):
        assert kernel_3d2("exp(u)", "u").dim == 0

    @pytest.mark.parametrize("a,c,name", [("exp(400*u)*exp(400*u)", "u", "a"), ("u", "exp(400*u)*exp(400*u)", "c")])
    def test_row_beyond_the_float_range_is_a_domain_error(self, a, c, name):
        with pytest.raises(ExprDomainError, match=rf"^the symmetry row of {name}\(u\) at u = .*: overflow"):
            kernel_3d2(a, c)

    def test_kernel_residual_at_fresh_points(self):
        k = kernel_3d2("1/u", "3/u^2")
        fresh = [0.5 + 1.0 * j / 49 for j in range(50)]
        assert fresh_residual(_pair_rows, ["1/u", "3/u^2"], k.basis[0], fresh) <= 1e-7


class TestClassify3D2:
    @pytest.mark.parametrize(
        "a,c,cohom,kind",
        [
            ("1", "0", 1, "TwoSymmetry3D2"),
            ("1/u", "2/u^2", 2, "OneSymmetry3D2"),
            ("exp(u)", "u", 3, "Generic3D2"),
        ],
    )
    def test_family_table(self, a, c, cohom, kind):
        result = classify_3d2(a, c)
        assert result.consistent and result.cohomogeneity == cohom and result.kind == kind

    def test_stability_under_group(self):
        """The pushforward pair classifies identically."""
        jet = pair_jet_from_exprs("1/u", "2/u^2", 1.0)
        # image of (1/u, 2/u^2) under u -> 2u: a -> 1/(2 a(u/2)) ... realized directly
        result = classify_3d2("2/u", "8/u^2", interval=(1.0, 3.0))
        assert result.kind == "OneSymmetry3D2" and result.consistent


class TestKernelFromRows:
    def test_an_all_zero_system_has_the_whole_space_as_kernel(self):
        """A zero spectrum has rank 0: the kernel is every unknown, with the identity basis."""
        kern = _kernel_from_rows(np.zeros((7, 5)))
        assert kern.dim == 5
        assert np.array_equal(kern.basis, np.eye(5)) and not kern.singular_values.any()


class TestKernelWithNoKind:
    """A kernel larger than any kind's, 3 or more, gets kind "Inconsistent"
    and no cohomogeneity in both families (before: 2 - dim and 3 - dim, so
    -1 for a psi kernel of dimension 3)."""

    @staticmethod
    def kernel(dim, unknowns):
        return SymmetryKernel(dim, np.eye(unknowns)[:dim], np.zeros(unknowns))

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_psi(self, monkeypatch, dim):
        monkeypatch.setattr(symmetry, "psi_symmetry_kernel", lambda *args, **kwargs: self.kernel(dim, 5))
        result = classify_psi("exp(t)")
        assert (result.cohomogeneity, result.kind, result.consistent) == (None, "Inconsistent", False)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_pair(self, monkeypatch, dim):
        monkeypatch.setattr(symmetry, "kernel_3d2", lambda *args, **kwargs: self.kernel(dim, 4))
        result = classify_3d2("exp(u)", "u")
        assert (result.cohomogeneity, result.kind, result.consistent) == (None, "Inconsistent", False)


class TestCurveWithNoEvidence:
    """A curve whose samples all dropped unevaluated (an overflow, a domain
    error, a non-finite tuple) is no evidence: the kind is "Inconsistent"
    whatever the kernel (before: a kernel of dimension >= 1 read the empty
    curve as a point curve and was taken as consistent)."""

    def test_pair_whose_invariants_all_overflow(self):
        """a = exp(460 u): every evidence sample overflows, while the kernel
        has dimension 1."""
        result = classify_3d2("exp(460*u)", "u", interval=(1.2, 1.5))
        assert result.kernel.dim == 1
        assert (result.kind, result.consistent) == ("Inconsistent", False)

    @pytest.mark.parametrize("failed,kind", [(11, "Inconsistent"), (10, "Homogeneous")], ids=["none", "one-stratum-drop"])
    def test_psi_with_a_homogeneous_kernel(self, monkeypatch, failed, kind):
        curve = SignatureCurve("psi", (), (), (), 11, failed)
        monkeypatch.setattr(symmetry, "psi_signature_curve", lambda *args: curve)
        result = classify_psi("t")
        assert result.kernel.dim == 2
        assert (result.kind, result.consistent) == (kind, kind != "Inconsistent")


def symmetry_equation_3d1(F: str, A: str, B: str, C1: float, points) -> float:
    """max |A F_x + B F_u + (C1 + B')/2 - A'| over the (x, u) points: zero where
    A(x) d_x + B(u) d_u + (C0 + C1 v) d_v is a symmetry of the two-variable family."""
    terms = (A, derivative(F, "x"), B, derivative(F, "u"), derivative(B, "u"), derivative(A, "x"))
    worst = 0.0
    for x, u in points:
        a, fx, b, fu, db, da = (eval_number(e, {"x": x, "u": u}) for e in terms)
        worst = max(worst, abs(a * fx + b * fu + (C1 + db) / 2 - da))
    return worst


class TestResidual3D1:
    def test_translation_symmetry_of_shift_invariant_profile(self):
        """F(x, u) = (x - u)^2 admits d_x + d_u (A = B = 1, C0 = C1 = 0)."""
        pts = [(0.4, 0.9), (1.1, 0.2), (0.7, 0.7)]
        assert symmetry_equation_3d1("(x-u)^2", "1", "1", 0.0, pts) <= 1e-12

    def test_scaled_profile_needs_vertical_part(self):
        """F = x + G(x-u) admits d_x + d_u - 2v d_v (C1 = -2), and only with
        that vertical coefficient."""
        pts = [(0.4, 0.9), (1.1, 0.2)]
        F = "x + (x-u)^2"
        assert symmetry_equation_3d1(F, "1", "1", -2.0, pts) <= 1e-12
        assert symmetry_equation_3d1(F, "1", "1", 0.0, pts) > 1e-3

    def test_generic_profile_rejects_candidates(self):
        pts = [(0.4, 0.9), (1.1, 0.2), (0.7, 0.7)]
        assert symmetry_equation_3d1("x*u", "1", "1", 0.0, pts) > 1e-3


class TestBracketClosure:
    def test_killing_algebra_closes(self):
        names = ("t", "v", "x1", "x2", "u")
        fields = [f[1] for f in killing_fields(3)]
        result = bracket_closure(fields, names)
        assert result.closed
        # [d_x1, x1 d_v - u d_x1] = d_v: fields ordered d_v, d_x1, d_x2, mixed1, mixed2, rotation
        c = result.structure_constants[(1, 3)]
        assert c[0] == 1 and all(x == 0 for i, x in enumerate(c) if i != 0)

    def test_homogeneous_model_brackets(self):
        """The solvable algebra of the group presentation: [Y, d_v] = -3 d_v,
        [Y, d_x] = -2 d_x, [Y, X] = -X."""
        names = ("t", "v", "x1", "u")
        fields = [
            ("0", "1", "0", "0"),  # d_v
            ("0", "0", "1", "0"),  # d_x1
            ("0-u", "t", "0", "1"),  # X
            ("2*t", "3*v", "2*x1", "u"),  # Y
        ]
        result = bracket_closure(fields, names)
        assert result.closed
        assert result.structure_constants[(0, 3)] == (3, 0, 0, 0)  # [d_v, Y] = 3 d_v
        assert result.structure_constants[(1, 3)] == (0, 2, 0, 0)  # [d_x, Y] = 2 d_x
        assert result.structure_constants[(2, 3)] == (0, 0, 1, 0)  # [X, Y] = X

    def test_polynomial_flows_do_not_close(self):
        names = ("t", "v", "u")
        fields = [("1", "0", "0"), ("t", "0", "0"), ("t^2", "0", "0"), ("t^3", "0", "0")]
        result = bracket_closure(fields, names)
        assert not result.closed
        assert (2, 3) in result.failures  # [t^2 d_t, t^3 d_t] = t^4 d_t leaves the span

    def test_bracket_of_top_degree_fields_is_kept_whole(self):
        """[t^3 d_t, t^3 d_u] = 3 t^5 d_u has degree 2*3 - 1: a jet order too
        low to hold it would drop it and report a closed algebra."""
        result = bracket_closure([("t^3", "0", "0"), ("0", "0", "t^3")], ("t", "v", "u"))
        assert not result.closed and result.failures == ((0, 1),)

    @pytest.mark.parametrize("expr", ["exp(t)", "1/t", "t^(1/2)", "t^(0-1)", "t^u", "sqrt(t)", "t/0"])
    def test_non_polynomial_rejected(self, expr):
        with pytest.raises(ValueError, match="polynomial"):
            expr_to_poly(expr, ("t", "v", "u"))
