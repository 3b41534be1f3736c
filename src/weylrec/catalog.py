"""Constructors for the explicit local models of recurrent Lorentzian Weyl
structures, with their symmetry vector fields and expected verification data.

Every entry carries explicit sign constraints (branches) and a sampling box
that respects them; quasi-random sampling is seeded and deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import exprlang, thresholds
from .exprlang import Expr, add, call, const, derivative, div, mul, neg, parse, pow_, sub, var
from .jets import lane_values, on_lanes
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
Box = Dict[str, Tuple[float, float]]  # coordinate -> (lo, hi)
# (expression, what it is, probed coordinates, a key of _MUST)
Probe = Tuple[Expr, str, Tuple[str, ...], str]


@dataclass(eq=False)
class CatalogEntry:
    key: str
    family: str
    structure: WeylStructure
    box: Box
    expected: Dict[str, object]
    params: Dict[str, object] = field(default_factory=dict)  # defining functions as parsed Exprs; n, branch ints
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


def _halton_start(seed: int, stride: int) -> int:
    """Index of the first point of a seeded sequence.  A seed is >= 0: below
    -1 the index would be non-positive, where ``_halton`` is 0.0 throughout."""
    if seed < 0:
        raise CatalogError(f"seed must be >= 0, got {seed}")
    return 1 + stride * (seed + 1)


def sample_box(chart: Chart, box: Box, count: int, seed: int = 0) -> List[Tuple[float, ...]]:
    """Deterministic low-discrepancy points in the box, filtered by the chart constraints."""
    missing = [n for n in chart.names if n not in box]
    if missing:
        raise CatalogError(f"sampling box missing coordinates {missing}")
    primes = _first_primes(len(chart.names))
    points: List[Tuple[float, ...]] = []
    index = start = _halton_start(seed, 1009)
    while len(points) < count:
        if index - start >= 100 * count + 1000:
            raise CatalogError("sampling box is incompatible with the chart constraints")
        pt = []
        for k, name in enumerate(chart.names):
            lo, hi = box[name]
            pt.append(lo + (hi - lo) * _halton(index, primes[k]))
        index += 1
        if chart.violated(dict(zip(chart.names, pt))) is None:
            points.append(tuple(pt))
    return points


# ----------------------------------------------------------------------
# entry assembly: one box rule, one probe rule, one dependency rule
# ----------------------------------------------------------------------

# what a probe asks of each value; a "defined" expression only has to evaluate
_MUST = {
    "positive": lambda v: v > 0,
    "non-vanishing": lambda v: not abs(v) <= thresholds.PROBE_NON_VANISHING,
    "defined": lambda v: True,
}


def _probe(expr: Expr, what: str, axes: Sequence[str], must: str, box: Box, chart: Optional[Chart] = None) -> None:
    """``expr`` evaluates and is as ``must`` says (``_MUST``) at the 9
    mid-points per axis of ``box`` over ``axes``.  With a ``chart``, only at
    the points it allows, each coordinate not probed at 0.0.  The grid is one
    pass on lanes (``on_lanes``); where the pass gives None, the points are
    evaluated one by one, and one that cannot be (``ExprDomainError``) is an
    error that names ``what`` and the point, as a failed ``must`` is.  Either
    way the first point in grid order that fails is the one the error names."""
    grids = [[lo + (hi - lo) * (k + 0.5) / 9 for k in range(9)] for lo, hi in (box[a] for a in axes)]
    grid = list(itertools.product(*grids))
    if chart is not None:
        zeros = dict.fromkeys(chart.names, 0.0)
        grid = [at for at in grid if chart.violated({**zeros, **dict(zip(axes, at))}) is None]
        if not grid:
            raise CatalogError("no probe point satisfies the constraints")

    def value(at):
        return exprlang.eval_number(expr, dict(zip(axes, at)))

    def named(at):
        try:
            return value(at)
        except exprlang.ExprDomainError as exc:
            raise CatalogError(f"{what} must be defined on the domain; {exc} at {dict(zip(axes, at))}") from exc

    lanes = on_lanes(value, grid)
    for at, v in zip(grid, map(named, grid) if lanes is None else lane_values(lanes, len(grid))):
        if not _MUST[must](v):
            raise CatalogError(f"{what} must be {must} on the domain; value {v} at {dict(zip(axes, at))}")


def _depends_only(expr: Expr, what: str, *allowed: str) -> None:
    if set(exprlang.variables_of(expr)) - set(allowed):
        listed = allowed[0] if len(allowed) == 1 else f"({', '.join(allowed)})"
        raise CatalogError(f"{what} must depend only on {listed}")


def _entry(
    structure: WeylStructure,
    box: Optional[Box],
    default_box: Box,
    expected: Dict[str, object],
    kind: Optional[str] = None,
    probes: Sequence[Probe] = (),
    probe_allowed_only: bool = False,
    **fields,
) -> CatalogEntry:
    """The entry of ``structure``: the caller's ``box`` overrides the family's
    default, which is (-1, 1) for a coordinate ``default_box`` does not name;
    every probe must hold on it (with ``probe_allowed_only``, where the chart
    allows), and ``expected`` gains ``kind`` when one is given.  A ``box``
    that names a coordinate the chart does not have is an error."""
    unknown = sorted(set(box or ()) - set(structure.chart.names))
    if unknown:
        raise CatalogError(f"box names {', '.join(map(repr, unknown))}, not a coordinate of the chart {structure.chart.names}")
    box = {**dict.fromkeys(structure.chart.names, (-1.0, 1.0)), **default_box, **(box or {})}
    for probe in probes:
        _probe(*probe, box, structure.chart if probe_allowed_only else None)
    if kind:
        expected = {**expected, "kind": kind}
    return CatalogEntry(family=structure.family, structure=structure, box=box, expected=expected, **fields)


# ----------------------------------------------------------------------
# family constructors
# ----------------------------------------------------------------------


def _xnames(n: int) -> List[str]:
    return [f"x{i}" for i in range(1, n)]


def make_dim_ge4(
    psi: Union[str, Expr],
    n: int,
    branch: int = 1,
    box: Optional[Box] = None,
    key: str = "dim_ge4",
    seed: int = 0,
    n_points: int = 20,
    expected_kind: Optional[str] = None,
) -> CatalogEntry:
    """Preferred representative of the dimension n+2 >= 4 family.

    Metric (dt)^2 + E (2 dv du + sum (dx^i)^2) with E = psi'(t)/(u+psi(t))^2,
    1-form (psi'/(u+psi) - psi''/(2 psi')) dt; requires psi' > 0 and a fixed
    sign of u + psi(t) (``branch``).  These two are both the chart
    constraints and the probes, so the box itself must satisfy them.  psi
    itself is probed first, so that a domain error names what was written.
    """
    if n < 2:
        raise CatalogError("dim_ge4 family needs n >= 2 (dimension >= 4)")
    if branch not in (1, -1):
        raise CatalogError("branch must be +1 or -1")
    psi_e = exprlang.as_expr(psi)
    _depends_only(psi_e, "psi", "t")
    dpsi = derivative(psi_e, "t")
    ddpsi = derivative(dpsi, "t")
    u_plus = add(var("u"), psi_e)
    u_plus_pos = neg(u_plus) if branch == -1 else u_plus
    E = div(dpsi, pow_(u_plus, const(2)))
    omega_t = sub(div(dpsi, u_plus), div(ddpsi, mul(const(2), dpsi)))

    chart = Chart(("t", "v", *_xnames(n), "u"), constraints=(dpsi, u_plus_pos))
    entries = {("t", "t"): const(1), ("v", "u"): E, **{(x, x): E for x in _xnames(n)}}
    return _entry(
        make_structure(chart, entries, {"t": omega_t}, family=DIM_GE4),
        box,
        {"t": (0.6, 1.8), "u": (0.1, 1.2) if branch == 1 else (-3.0, -2.5)},
        {
            "recurrent": True,
            "holonomy_dim": n,
            "is_preferred_rep": True,
            "weight": 3.0,
            "conformally_flat": True,
            "einstein_weyl": False,
        },
        expected_kind,
        probes=[
            (psi_e, "psi(t)", ("t",), "defined"),
            (dpsi, "psi'(t)", ("t",), "positive"),
            (u_plus_pos, "the branch sign of u + psi(t)", ("t", "u"), "positive"),
        ],
        key=key, seed=seed, n_points=n_points,
        params={"psi": psi_e, "n": n, "branch": branch},
        symmetry_fields=killing_fields(n),
        description=f"dim {n + 2} family, psi = {exprlang.to_source(psi_e)}",
    )


def make_mainth_form(
    F: Union[str, Expr],
    a: Union[str, Expr],
    n: int,
    box: Optional[Box] = None,
    key: str = "mainth",
    seed: int = 0,
    n_points: int = 20,
    constraints: Sequence[Union[str, Expr]] = (),
) -> CatalogEntry:
    """Metric 2dvdu + sum_{i<n}(dx^i)^2 + e^{-2F}(dx^n)^2 + a(u) sum (x^i)^2 (du)^2
    with 1-form (dF/du) du; F = F(x^n, u), d_n(dF/du) non-vanishing.

    The structure is recurrent exactly when d2F/du2 - (dF/du)^2 + a(u) = 0,
    and the entry expects it to be: recurrent, holonomy span n, conformally
    flat.
    """
    if n < 2:
        raise CatalogError("the normal form needs n >= 2 (dimension >= 4)")
    F_e = exprlang.as_expr(F)
    a_e = exprlang.as_expr(a)
    xn = f"x{n}"
    _depends_only(F_e, "F", xn, "u")
    _depends_only(a_e, "a", "u")
    Fdot = derivative(F_e, "u")

    chart = Chart(("v", *_xnames(n + 1), "u"), constraints=tuple(map(exprlang.as_expr, constraints)))
    entries = {("v", "u"): const(1), **{(x, x): const(1) for x in _xnames(n)}, (xn, xn): call("exp", mul(const(-2), F_e))}
    g_uu = mul(a_e, functools.reduce(add, (pow_(var(x), const(2)) for x in _xnames(n)), const(0)))
    if not (isinstance(g_uu, exprlang.Const) and g_uu.value == 0):
        entries[("u", "u")] = g_uu
    return _entry(
        make_structure(chart, entries, {"u": Fdot}, family=MAINTH_FORM),
        box,
        {"u": (0.2, 1.2), xn: (0.4, 1.4)},
        {
            "recurrent": True,
            "holonomy_dim": n,
            "is_preferred_rep": False,
            "conformally_flat": True,
            "einstein_weyl": False,
        },
        probes=[(derivative(Fdot, xn), f"d_{xn} dF/du", (xn, "u"), "non-vanishing")],
        key=key, seed=seed, n_points=n_points,
        params={"F": F_e, "a": a_e, "n": n},
        description=f"dim {n + 2} normal form, F = {exprlang.to_source(F_e)}, a = {exprlang.to_source(a_e)}",
    )


def make_3d_case1(
    F: Union[str, Expr],
    box: Optional[Box] = None,
    key: str = "threed_case1",
    seed: int = 0,
    n_points: int = 20,
    constraints: Sequence[Union[str, Expr]] = (),
    expected_kind: Optional[str] = None,
) -> CatalogEntry:
    """3D family with 1-dimensional holonomy: 2dvdu + e^{-2F}(dx)^2, omega = (dF/du) du;
    d_x(dF/du) is probed only where the chart constraints allow."""
    F_e = exprlang.as_expr(F)
    _depends_only(F_e, "F", "x", "u")
    Fdot = derivative(F_e, "u")
    chart = Chart(("v", "x", "u"), constraints=tuple(map(exprlang.as_expr, constraints)))
    structure = make_structure(
        chart, {("v", "u"): const(1), ("x", "x"): call("exp", mul(const(-2), F_e))}, {"u": Fdot}, family=THREED_CASE1
    )
    return _entry(
        structure,
        box,
        {"x": (0.2, 1.0), "u": (1.4, 2.4)},
        {"recurrent": True, "holonomy_dim": 1, "is_preferred_rep": False, "weight": 3.0, "einstein_weyl": False},
        expected_kind,
        probes=[(derivative(Fdot, "x"), "d_x dF/du", ("x", "u"), "non-vanishing")],
        probe_allowed_only=True,
        key=key, seed=seed, n_points=n_points,
        params={"F": F_e},
        symmetry_fields=[("d_v", ("1", "0", "0"))],
        description=f"3D holonomy-1 family, F = {exprlang.to_source(F_e)}",
    )


def make_3d_case2(
    a: Union[str, Expr],
    c: Union[str, Expr],
    box: Optional[Box] = None,
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
    _depends_only(a_e, "a", "u")
    _depends_only(c_e, "c", "u")
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
    chart = Chart(("v", "x", "u"), constraints=tuple(map(exprlang.as_expr, constraints)))
    omega_u = mul(a_e, x)
    structure = make_structure(
        chart, {("v", "u"): const(1), ("x", "x"): const(1), ("u", "u"): H}, {"u": omega_u}, family=THREED_CASE2
    )

    # preferred representative h = e^{(4/5) ln|a|} g, omega_h = a x du - (2/5)(a'/a) du
    scale = call("exp", mul(div(const(4), const(5)), call("ln", call("abs", a_e))))
    h_entries = {
        ("v", "u"): scale,
        ("x", "x"): scale,
        ("u", "u"): mul(scale, H),
    }
    omega_h = sub(omega_u, mul(div(const(2), const(5)), div(adot, a_e)))
    preferred = make_structure(chart, h_entries, {"u": omega_h}, family=THREED_CASE2)

    return _entry(
        structure,
        box,
        {"x": (0.3, 1.3), "u": (0.5, 1.5)},
        {"recurrent": True, "holonomy_dim": 2, "is_preferred_rep": False, "weight": 2.5, "einstein_weyl": True},
        expected_kind,
        probes=[(a_e, "a(u)", ("u",), "non-vanishing")],
        key=key, seed=seed, n_points=n_points,
        params={"a": a_e, "c": c_e},
        preferred=preferred,
        description=f"3D holonomy-2 family, a = {exprlang.to_source(a_e)}, c = {exprlang.to_source(c_e)}",
    )


def make_homogeneous_model(
    n: int,
    box: Optional[Box] = None,
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
    chart = Chart(("t", "v", *_xnames(n), "u"), constraints=(q,))
    entries = {("t", "t"): scale, ("v", "u"): scale, **{(x, x): scale for x in _xnames(n)}}
    omega = {"u": parse("2*u/(2*t+u^2) - 1/sqrt(2*t+u^2)"), "t": parse("2/(2*t+u^2)")}
    return _entry(
        make_structure(chart, entries, omega, family=HOMOGENEOUS_MODEL),
        box,
        {"t": (0.5, 1.5), "u": (-0.8, 0.8)},
        {"recurrent": True, "holonomy_dim": n, "is_preferred_rep": False, "einstein_weyl": False},
        "Homogeneous",
        key=key, seed=seed, n_points=n_points,
        params={"n": n},
        symmetry_fields=killing_fields(n) + [
            ("translation-boost X", _comps(n, u="1", v="t", t="0-u")),
            ("scaling Y", _comps(n, t="2*t", u="u", v="3*v", **{x: f"2*{x}" for x in _xnames(n)})),
        ],
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
    for xi, xj in itertools.combinations(xs, 2):
        out.append((f"{xi} d_{xj} - {xj} d_{xi}", _comps(n, **{xj: xi, xi: f"0-{xj}"})))
    return out


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
