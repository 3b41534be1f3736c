"""Constructors for the explicit local models of recurrent Lorentzian Weyl
structures, with their symmetry vector fields and expected verification data.

Every entry carries explicit sign constraints (branches) and a sampling box
that respects them; quasi-random sampling is seeded and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import exprlang
from .exprlang import Expr, add, call, const, derivative, div, mul, neg, parse, pow_, sub, var
from .jets import coordinate_jets
from .tensor import Chart, WeylStructure, make_structure


class CatalogError(ValueError):
    pass


# family tags
DIM_GE4 = "dim_ge4"
MAINTH_FORM = "mainth"
THREED_CASE1 = "threed_case1"
THREED_CASE2 = "threed_case2"
HOMOGENEOUS_MODEL = "homogeneous"

FieldSpec = Tuple[str, Tuple[str, ...]]  # (label, component sources in chart order)


@dataclass(eq=False)
class CatalogEntry:
    key: str
    family: str
    structure: WeylStructure
    box: Dict[str, Tuple[float, float]]
    expected: Dict[str, object]
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    n_points: int = 20
    preferred: Optional[WeylStructure] = None  # representative with nabla R = -3 omega x R, when it differs
    symmetry_fields: List[FieldSpec] = field(default_factory=list)
    description: str = ""

    @property
    def dim(self) -> int:
        return self.structure.dim

    def sample_points(self, count: Optional[int] = None, seed: Optional[int] = None) -> List[Tuple[float, ...]]:
        return sample_box(
            self.structure.chart,
            self.box,
            count if count is not None else self.n_points,
            seed if seed is not None else self.seed,
        )


# ----------------------------------------------------------------------
# seeded quasi-random sampling (Halton with a seed-dependent offset)
# ----------------------------------------------------------------------

def _first_primes(count: int) -> List[int]:
    """The first ``count`` primes, one Halton base per coordinate."""
    primes: List[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(index: int, prime: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= prime
        out += f * (index % prime)
        index //= prime
    return out


def sample_box(
    chart: Chart,
    box: Dict[str, Tuple[float, float]],
    count: int,
    seed: int = 0,
) -> List[Tuple[float, ...]]:
    """Deterministic low-discrepancy points in the box, filtered by the chart constraints."""
    missing = [n for n in chart.names if n not in box]
    if missing:
        raise CatalogError(f"sampling box missing coordinates {missing}")
    primes = _first_primes(len(chart.names))
    points: List[Tuple[float, ...]] = []
    index = 1 + 1009 * (seed + 1)
    attempts = 0
    while len(points) < count:
        pt = []
        for k, name in enumerate(chart.names):
            lo, hi = box[name]
            pt.append(lo + (hi - lo) * _halton(index, primes[k]))
        index += 1
        attempts += 1
        if attempts > 100 * count + 1000:
            raise CatalogError("sampling box is incompatible with the chart constraints")
        env = dict(zip(chart.names, pt))
        if all(exprlang.eval_number(c, env) > 0 for c in chart.constraints):
            points.append(tuple(pt))
    return points


def _check_on_domain(expr: Expr, points: Sequence[dict], what: str, nonvanishing: bool = False) -> None:
    """``expr`` is positive at every point or, with ``nonvanishing``, of modulus above 1e-9."""
    for env in points:
        v = exprlang.eval_number(expr, env)
        if abs(v) <= 1e-9 if nonvanishing else not v > 0:
            must = "non-vanishing" if nonvanishing else "positive"
            raise CatalogError(f"{what} must be {must} on the domain; value {v} at {env}")


def _kind(expected_kind: Optional[str]) -> Dict[str, str]:
    """The ``expected`` item that records a classification kind, if one is given."""
    return {"kind": expected_kind} if expected_kind else {}


def _axis_probe(box: Dict[str, Tuple[float, float]], names: Sequence[str], count: int = 9) -> List[dict]:
    grids = []
    for name in names:
        lo, hi = box[name]
        grids.append([lo + (hi - lo) * (k + 0.5) / count for k in range(count)])
    return [dict(zip(names, values)) for values in itertools.product(*grids)]


# ----------------------------------------------------------------------
# family constructors
# ----------------------------------------------------------------------


def _xnames(n: int) -> List[str]:
    return [f"x{i}" for i in range(1, n)]


def make_dim_ge4(
    psi: Union[str, Expr],
    n: int,
    branch: int = 1,
    box: Optional[Dict[str, Tuple[float, float]]] = None,
    key: str = "dim_ge4",
    seed: int = 0,
    n_points: int = 20,
    expected_kind: Optional[str] = None,
) -> CatalogEntry:
    """Preferred representative of the dimension n+2 >= 4 family.

    Metric (dt)^2 + E (2 dv du + sum (dx^i)^2) with E = psi'(t)/(u+psi(t))^2,
    1-form (psi'/(u+psi) - psi''/(2 psi')) dt; requires psi' > 0 and a fixed
    sign of u + psi(t) (``branch``).
    """
    if n < 2:
        raise CatalogError("dim_ge4 family needs n >= 2 (dimension >= 4)")
    if branch not in (1, -1):
        raise CatalogError("branch must be +1 or -1")
    psi_e = exprlang.as_expr(psi)
    dpsi = derivative(psi_e, "t")
    ddpsi = derivative(dpsi, "t")
    u_plus = add(var("u"), psi_e)
    if branch == -1:
        u_plus_pos = neg(u_plus)
    else:
        u_plus_pos = u_plus
    E = div(dpsi, pow_(u_plus, const(2)))
    omega_t = sub(div(dpsi, u_plus), div(ddpsi, mul(const(2), dpsi)))

    names = ("t", "v", *_xnames(n), "u")
    chart = Chart(names, constraints=(dpsi, u_plus_pos))
    entries: Dict[Tuple[str, str], Expr] = {("t", "t"): const(1), ("v", "u"): E}
    for x in _xnames(n):
        entries[(x, x)] = E
    structure = make_structure(chart, entries, {"t": omega_t}, family=DIM_GE4, params={"psi": exprlang.to_source(psi_e), "n": n, "branch": branch})

    box = dict(box or {})
    box.setdefault("t", (0.6, 1.8))
    box.setdefault("v", (-1.0, 1.0))
    box.setdefault("u", (0.1, 1.2) if branch == 1 else (-3.0, -2.5))
    for x in _xnames(n):
        box.setdefault(x, (-1.0, 1.0))

    probes = _axis_probe(box, ("t",))
    _check_on_domain(dpsi, probes, "psi'(t)")
    probes_tu = _axis_probe(box, ("t", "u"))
    _check_on_domain(u_plus_pos, probes_tu, "the branch sign of u + psi(t)")

    return CatalogEntry(
        key=key,
        family=DIM_GE4,
        structure=structure,
        box=box,
        params=dict(structure.params),
        seed=seed,
        n_points=n_points,
        expected={
            "recurrent": True,
            "holonomy_dim": n,
            "is_preferred_rep": True,
            "weight": 3.0,
            "conformally_flat": True,
            "einstein_weyl": False,
            **_kind(expected_kind),
        },
        symmetry_fields=killing_fields(n),
        description=f"dim {n + 2} family, psi = {exprlang.to_source(psi_e)}",
    )


def make_mainth_form(
    F: Union[str, Expr],
    a: Union[str, Expr],
    n: int,
    box: Optional[Dict[str, Tuple[float, float]]] = None,
    key: str = "mainth",
    seed: int = 0,
    n_points: int = 20,
    constraints: Sequence[Union[str, Expr]] = (),
    expect_recurrent: bool = True,
) -> CatalogEntry:
    """Metric 2dvdu + sum_{i<n}(dx^i)^2 + e^{-2F}(dx^n)^2 + a(u) sum (x^i)^2 (du)^2
    with 1-form (dF/du) du; F = F(x^n, u), d_n(dF/du) non-vanishing.

    The structure is recurrent exactly when d2F/du2 - (dF/du)^2 + a(u) = 0.
    """
    if n < 2:
        raise CatalogError("the normal form needs n >= 2 (dimension >= 4)")
    F_e = exprlang.as_expr(F)
    a_e = exprlang.as_expr(a)
    xn = f"x{n}"
    allowed = {xn, "u"}
    if set(exprlang.variables_of(F_e)) - allowed:
        raise CatalogError(f"F must depend only on ({xn}, u)")
    if set(exprlang.variables_of(a_e)) - {"u"}:
        raise CatalogError("a must depend only on u")
    Fdot = derivative(F_e, "u")
    dn_Fdot = derivative(Fdot, xn)

    names = ("v", *[f"x{i}" for i in range(1, n + 1)], "u")
    chart = Chart(names, constraints=tuple(exprlang.as_expr(c) for c in constraints))
    entries: Dict[Tuple[str, str], Expr] = {("v", "u"): const(1)}
    for i in range(1, n):
        entries[(f"x{i}", f"x{i}")] = const(1)
    entries[(xn, xn)] = call("exp", mul(const(-2), F_e))
    square_sum: Expr = const(0)
    for i in range(1, n):
        square_sum = add(square_sum, pow_(var(f"x{i}"), const(2)))
    g_uu = mul(a_e, square_sum)
    if not (isinstance(g_uu, exprlang.Const) and g_uu.value == 0):
        entries[("u", "u")] = g_uu
    structure = make_structure(
        chart,
        entries,
        {"u": Fdot},
        family=MAINTH_FORM,
        params={"F": exprlang.to_source(F_e), "a": exprlang.to_source(a_e), "n": n},
    )

    box = dict(box or {})
    box.setdefault("v", (-1.0, 1.0))
    box.setdefault("u", (0.2, 1.2))
    for i in range(1, n + 1):
        box.setdefault(f"x{i}", (0.4, 1.4) if i == n else (-1.0, 1.0))

    probes = _axis_probe(box, (xn, "u"))
    _check_on_domain(dn_Fdot, probes, f"d_{xn} dF/du", nonvanishing=True)

    return CatalogEntry(
        key=key,
        family=MAINTH_FORM,
        structure=structure,
        box=box,
        params=dict(structure.params),
        seed=seed,
        n_points=n_points,
        expected={
            "recurrent": expect_recurrent,
            "holonomy_dim": n if expect_recurrent else None,
            "is_preferred_rep": False,
            "conformally_flat": expect_recurrent,
            "einstein_weyl": False,
        },
        description=f"dim {n + 2} normal form, F = {exprlang.to_source(F_e)}, a = {exprlang.to_source(a_e)}",
    )


def riccati_residual(F: Union[str, Expr], a: Union[str, Expr], point: Dict[str, float]) -> float:
    """d2F/du2 - (dF/du)^2 + a(u), evaluated through jets at a named point."""
    F_e = exprlang.as_expr(F)
    a_e = exprlang.as_expr(a)
    names = sorted(set(exprlang.variables_of(F_e)) | set(exprlang.variables_of(a_e)) | {"u"})
    base = tuple(point[n] for n in names)
    env = coordinate_jets(names, base, 2)
    Fj = exprlang.eval_jet(F_e, env)
    aj = exprlang.eval_jet(a_e, env)
    iu = names.index("u")
    Fdot = Fj.derivative(iu)
    Fddot = Fdot.derivative(iu)
    return float(Fddot.value) - float(Fdot.value) ** 2 + float(aj.value)


def make_3d_case1(
    F: Union[str, Expr],
    box: Optional[Dict[str, Tuple[float, float]]] = None,
    key: str = "threed_case1",
    seed: int = 0,
    n_points: int = 20,
    constraints: Sequence[Union[str, Expr]] = (),
    expected_kind: Optional[str] = None,
) -> CatalogEntry:
    """3D family with 1-dimensional holonomy: 2dvdu + e^{-2F}(dx)^2, omega = (dF/du) du."""
    F_e = exprlang.as_expr(F)
    if set(exprlang.variables_of(F_e)) - {"x", "u"}:
        raise CatalogError("F must depend only on (x, u)")
    Fdot = derivative(F_e, "u")
    dx_Fdot = derivative(Fdot, "x")
    chart = Chart(("v", "x", "u"), constraints=tuple(exprlang.as_expr(c) for c in constraints))
    structure = make_structure(
        chart,
        {("v", "u"): const(1), ("x", "x"): call("exp", mul(const(-2), F_e))},
        {"u": Fdot},
        family=THREED_CASE1,
        params={"F": exprlang.to_source(F_e)},
    )
    box = dict(box or {})
    box.setdefault("v", (-1.0, 1.0))
    box.setdefault("x", (0.2, 1.0))
    box.setdefault("u", (1.4, 2.4))
    probes = _axis_probe(box, ("x", "u"))
    env_ok = []
    for env in probes:
        if all(exprlang.eval_number(c, {**env, "v": 0.0}) > 0 for c in chart.constraints):
            env_ok.append(env)
    if not env_ok:
        raise CatalogError("no probe point satisfies the constraints")
    _check_on_domain(dx_Fdot, env_ok, "d_x dF/du", nonvanishing=True)
    return CatalogEntry(
        key=key,
        family=THREED_CASE1,
        structure=structure,
        box=box,
        params=dict(structure.params),
        seed=seed,
        n_points=n_points,
        expected={
            "recurrent": True,
            "holonomy_dim": 1,
            "is_preferred_rep": False,
            "weight": 3.0,
            "einstein_weyl": False,
            **_kind(expected_kind),
        },
        symmetry_fields=[("d_v", ("1", "0", "0"))],
        description=f"3D holonomy-1 family, F = {exprlang.to_source(F_e)}",
    )


def make_3d_case2(
    a: Union[str, Expr],
    c: Union[str, Expr],
    box: Optional[Dict[str, Tuple[float, float]]] = None,
    key: str = "threed_case2",
    seed: int = 0,
    n_points: int = 20,
    constraints: Sequence[Union[str, Expr]] = (),
    expected_kind: Optional[str] = None,
) -> CatalogEntry:
    """3D family with 2-dimensional holonomy:

        g = 2dvdu + (dx)^2 + H (du)^2,   omega = a(u) x du,
        H = a v x + (1/12) a^2 x^4 - (1/3) a' x^3 + c x,

    a(u) non-vanishing.  The preferred representative (weight 5/2) is stored
    alongside: h = |a|^{4/5} g with its shifted 1-form.
    """
    a_e = exprlang.as_expr(a)
    c_e = exprlang.as_expr(c)
    for e, nm in ((a_e, "a"), (c_e, "c")):
        if set(exprlang.variables_of(e)) - {"u"}:
            raise CatalogError(f"{nm} must depend only on u")
    adot = derivative(a_e, "u")
    x = var("x")
    H = add(
        add(
            mul(mul(a_e, var("v")), x),
            mul(div(pow_(a_e, const(2)), const(12)), pow_(x, const(4))),
        ),
        add(
            neg(mul(div(adot, const(3)), pow_(x, const(3)))),
            mul(c_e, x),
        ),
    )
    chart = Chart(("v", "x", "u"), constraints=tuple(exprlang.as_expr(cc) for cc in constraints))
    omega_u = mul(a_e, x)
    structure = make_structure(
        chart,
        {("v", "u"): const(1), ("x", "x"): const(1), ("u", "u"): H},
        {"u": omega_u},
        family=THREED_CASE2,
        params={"a": exprlang.to_source(a_e), "c": exprlang.to_source(c_e)},
    )

    box = dict(box or {})
    box.setdefault("v", (-1.0, 1.0))
    box.setdefault("x", (0.3, 1.3))
    box.setdefault("u", (0.5, 1.5))
    probes = _axis_probe(box, ("u",))
    _check_on_domain(a_e, probes, "a(u)", nonvanishing=True)

    # preferred representative h = e^{(4/5) ln|a|} g, omega_h = a x du - (2/5)(a'/a) du
    scale = call("exp", mul(div(const(4), const(5)), call("ln", call("abs", a_e))))
    h_entries = {
        ("v", "u"): scale,
        ("x", "x"): scale,
        ("u", "u"): mul(scale, H),
    }
    omega_h = sub(omega_u, mul(div(const(2), const(5)), div(adot, a_e)))
    preferred = make_structure(chart, h_entries, {"u": omega_h}, family=THREED_CASE2, params={"representative": "weight-5/2"})

    return CatalogEntry(
        key=key,
        family=THREED_CASE2,
        structure=structure,
        box=box,
        params=dict(structure.params),
        seed=seed,
        n_points=n_points,
        preferred=preferred,
        expected={
            "recurrent": True,
            "holonomy_dim": 2,
            "is_preferred_rep": False,
            "weight": 2.5,
            "einstein_weyl": True,
            **_kind(expected_kind),
        },
        description=f"3D holonomy-2 family, a = {exprlang.to_source(a_e)}, c = {exprlang.to_source(c_e)}",
    )


def make_homogeneous_model(
    n: int,
    box: Optional[Dict[str, Tuple[float, float]]] = None,
    key: str = "homogeneous",
    seed: int = 0,
    n_points: int = 20,
) -> CatalogEntry:
    """The group-invariant presentation of the homogeneous space (dim n+2):

        b = 4 (2t+u^2)^{-2} ((dt)^2 + 2dvdu + sum (dx^i)^2),
        omega_b = (2u/(2t+u^2) - (2t+u^2)^{-1/2}) du + 2/(2t+u^2) dt,

    on 2t + u^2 > 0.  Its full listed symmetry algebra annihilates both b and
    omega_b.
    """
    if n < 2:
        raise CatalogError("homogeneous model needs n >= 2")
    q = parse("2*t+u^2")
    scale = div(const(4), pow_(q, const(2)))
    names = ("t", "v", *_xnames(n), "u")
    chart = Chart(names, constraints=(q,))
    entries: Dict[Tuple[str, str], Expr] = {("t", "t"): scale, ("v", "u"): scale}
    for xnm in _xnames(n):
        entries[(xnm, xnm)] = scale
    omega = {
        "u": parse("2*u/(2*t+u^2) - 1/sqrt(2*t+u^2)"),
        "t": parse("2/(2*t+u^2)"),
    }
    structure = make_structure(chart, entries, omega, family=HOMOGENEOUS_MODEL, params={"n": n})

    box = dict(box or {})
    box.setdefault("t", (0.5, 1.5))
    box.setdefault("v", (-1.0, 1.0))
    box.setdefault("u", (-0.8, 0.8))
    for xnm in _xnames(n):
        box.setdefault(xnm, (-1.0, 1.0))

    fields = killing_fields(n) + [
        ("translation-boost X", _comps(n, u="1", v="t", t="0-u")),
        ("scaling Y", _comps(n, t="2*t", u="u", v="3*v", **{xi: f"2*{xi}" for xi in _xnames(n)})),
    ]

    return CatalogEntry(
        key=key,
        family=HOMOGENEOUS_MODEL,
        structure=structure,
        box=box,
        params={"n": n},
        seed=seed,
        n_points=n_points,
        expected={
            "recurrent": True,
            "holonomy_dim": n,
            "is_preferred_rep": False,
            "einstein_weyl": False,
            "kind": "Homogeneous",
        },
        symmetry_fields=fields,
        description=f"dim {n + 2} homogeneous model (group presentation)",
    )


# ----------------------------------------------------------------------
# symmetry vector fields of the dim >= 4 coordinate form
# ----------------------------------------------------------------------


def _comps(n: int, **by_name: str) -> Tuple[str, ...]:
    """Components of a field in the chart order (t, v, x1, ..., u) of the dim
    n+2 forms; a coordinate not named is "0"."""
    return tuple(by_name.get(nm, "0") for nm in ("t", "v", *_xnames(n), "u"))


def killing_fields(n: int) -> List[FieldSpec]:
    """The (2n-1) + C(n-1,2) fields preserving every dim n+2 structure:
    d_v, d_{x^i}, x^i d_v - u d_{x^i}, and the spatial rotations."""
    xs = _xnames(n)
    out: List[FieldSpec] = [("d_v", _comps(n, v="1"))]
    for xi in xs:
        out.append((f"d_{xi}", _comps(n, **{xi: "1"})))
    for xi in xs:
        out.append((f"{xi} d_v - u d_{xi}", _comps(n, v=xi, **{xi: "0-u"})))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out.append(
                (
                    f"{xs[i]} d_{xs[j]} - {xs[j]} d_{xs[i]}",
                    _comps(n, **{xs[j]: xs[i], xs[i]: f"0-{xs[j]}"}),
                )
            )
    return out


def extra_fields(n: int) -> List[FieldSpec]:
    """The five additional coordinate-form-preserving fields of the dim n+2 family."""
    xs = _xnames(n)
    z1 = ("Z1", _comps(n, t="1"))
    z2 = ("Z2", _comps(n, t="2*t", v="6*v", **{xi: f"3*{xi}" for xi in xs}))
    z3 = ("Z3", _comps(n, u="1"))
    z4 = ("Z4", _comps(n, u="2*u", **{xi: xi for xi in xs}))
    half_sq = "+".join(f"{xi}^2" for xi in xs)
    z5 = ("Z5", _comps(n, u="u^2", v=f"0-({half_sq})/2", **{xi: f"u*{xi}" for xi in xs}))
    return [z1, z2, z3, z4, z5]


# ----------------------------------------------------------------------
# the one-function normal forms of the cohomogeneity <= 1 classification
# ----------------------------------------------------------------------

PSI_KINDS = ("Homogeneous", "Exp", "Tan", "Log", "TanLog", "Power")


def symmetric_psi_family(kind: str, A: Optional[float] = None) -> str:
    """psi source text for the extra-symmetry families; A is the family parameter."""
    if kind == "Homogeneous":
        return "t"
    if kind == "Exp":
        return "exp(t)"
    if kind == "Tan":
        return "tan(t)"
    if kind == "Log":
        if A is None or not A > 0:
            raise CatalogError("Log family needs A > 0")
        return f"{_num(A)}*ln(t)"
    if kind == "TanLog":
        if A is None or not A > 0:
            raise CatalogError("TanLog family needs A > 0")
        return f"tan({_num(A)}*ln(t))"
    if kind == "Power":
        if A is None or A == 1 or A <= 0:
            raise CatalogError("Power family needs A > 0, A != 1 (A = 1 is the homogeneous case)")
        return f"t^{_num(A)}"
    raise CatalogError(f"unknown family kind {kind!r}; known: {', '.join(PSI_KINDS)}")


def _num(A) -> str:
    f = Fraction(A).limit_denominator(10**9)
    if f.denominator == 1:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})"


# ----------------------------------------------------------------------
# standard catalog
# ----------------------------------------------------------------------


def standard_catalog() -> Dict[str, CatalogEntry]:
    entries: List[CatalogEntry] = [
        make_dim_ge4("t", 2, key="dim4-psi-linear", expected_kind="Homogeneous"),
        make_dim_ge4("exp(t)", 2, key="dim4-psi-exp", expected_kind="Exp"),
        make_dim_ge4("tan(t)", 2, key="dim4-psi-tan", box={"t": (0.5, 1.2), "u": (0.2, 1.2)}, expected_kind="Tan"),
        make_dim_ge4("3*ln(t)", 2, key="dim4-psi-log3", box={"t": (0.8, 1.9), "u": (1.0, 2.0)}, expected_kind="Log"),
        make_dim_ge4("tan(ln(t))", 2, key="dim4-psi-tanlog1", box={"t": (0.8, 1.9), "u": (0.2, 1.2)}, expected_kind="TanLog"),
        make_dim_ge4("t^2", 2, key="dim4-psi-power2", expected_kind="Power"),
        make_dim_ge4("t^3+t", 2, key="dim4-psi-cubic", expected_kind="Generic"),
        make_dim_ge4("exp(t)", 3, key="dim5-psi-exp", n_points=10, expected_kind="Exp"),
        make_dim_ge4("exp(t)", 4, key="dim6-psi-exp", n_points=6, expected_kind="Exp"),
        make_mainth_form("0-ln(u+x2)", "0", 2, key="mainth-a0", constraints=("u+x2",)),
        make_3d_case1("(1/2)*ln(u-x)", key="3d1-homog", constraints=("u-x",), expected_kind="Homogeneous3D1"),
        make_3d_case1("x*u", key="3d1-xu", expected_kind="Generic3D1"),
        make_3d_case2("1", "0", key="3d2-ew-model", expected_kind="TwoSymmetry3D2"),
        make_3d_case2("1/u", "2/u^2", key="3d2-inv-u", constraints=("u",), expected_kind="OneSymmetry3D2"),
        make_3d_case2("exp(u)", "u", key="3d2-generic", expected_kind="Generic3D2"),
        make_homogeneous_model(2, key="homog-n2", n_points=12),
    ]
    return {e.key: e for e in entries}
