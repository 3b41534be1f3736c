"""Coordinate tensor calculus at a point for Weyl structures.

Everything here evaluates expressions through jets, so all partial
derivatives are exact to floating precision (no finite differencing on the
main path).  Index conventions, used consistently throughout:

* Christoffel symbols: gamma[a][b][c] = Gamma^a_{bc}, symmetric in (b, c).
* Curvature as endomorphism-valued 2-form: R(e_a, e_b) e_c = R^d_{cab} e_d,
  stored as array[d][c][a][b]; equivalently R(e_a,e_b) is the matrix
  dGamma_b/dx^a - dGamma_a/dx^b + [Gamma_a, Gamma_b].
* nabla R stored as array[e][d][c][a][b] = (nabla_e R)^d_{cab}.

An empty jet (no coefficients) is a structural zero, which the geometry pass
skips: it differentiates no empty jet (the derivatives are one shared row of
zero jets), forms no product with an empty factor and no bracket,
difference, quotient or negation whose operands are all empty (the slot
keeps an empty jet), and its value readers write 0.0 for an empty jet
without reading it.  Every other jet goes through the same operations, in
the same order, as in a dense pass, so no bit changes.

The passes enumerate the nonzero ("live") entries and never scan an index
space: their cost follows the number of nonzero entries, not d^3 (d^4 for
the curvature).  The Christoffel routine and the curvature each read a list
of jets one order down, and one helper sets that up (``_read_down``): the
kind of value, its zero, and for each non-empty jet, keyed by its index,
its truncation and first partials, each computed once per distinct jet.
The Christoffel routine forms each bracket from a nonzero first partial of
the metric and sums it only against the nonzero entries of the inverse's
column; the inverse eliminates only at the pivot row's nonzero columns and
returns its nonzero entries; the curvature builds each slot and its terms
from the nonzero Christoffel jets.  Each output entry gets the operations
of the dense loop that are not on empty values, in its order, so every
value and every memo hit (below) is the dense loop's.  On jets, within one call of the Christoffel
routine (the metric inverse included, which computes in the same kind and
so shares its memo) or of the curvature, a pass computes each distinct jet
operation once: an operation on the same operand objects as an earlier one
returns the earlier result, where an operand is shared
(``_once_per_operands``).  A shared jet fills more than one slot of the
call's inputs, a slot and its mirror counted as one (``_repeated``), or is
made from shared jets.  The n - 1 flat directions of the dim >= 4 family
share one conformal factor, so the family's jet work does not grow with n:
a depth-2 pass and its curvature make the same jet products at every
dimension.  A pass whose inputs repeat no jet keeps nothing.

R is kept as its live slots, ``{(d, c, a, b): jet}`` with a < b where
R^d_{cab} can be nonzero (``_curvature_jets``); the mirror slot (d, c, b, a)
holds the negated jet and every other slot is zero.  No jet is formed for a
mirror or a zero slot.  The readers get dense float arrays: ``curvature`` is
R at the point and ``nabla_R`` is nabla R, computed on each read and not
kept (d^5 floats, 64 MB at d = 24), d_e R^d_cab plus the four
contractions G^d_ef R^f_cab - G^f_ec R^d_fab - G^f_ea R^d_cfb - G^f_eb R^d_caf.
Term k pairs G's f with R's axis k and writes G's other index there: term 0
pairs G's lower index and writes its upper one, terms 1-3 the reverse.  Each
runs only over pairs of nonzero entries, summed over f increasing
(``_contractions``), so every float has the bits of the dense sums.

Read down to order 0, the same helper picks plain numbers: the values and
gradients of the jets, computed with the jets' zero rules
(``jets.order0_*``), where an exact zero stands for the empty jet.  So a
connection of depth 0, which only the compatibility check reads, is built
on numbers, and so is the curvature of a depth-1 connection, which
holonomy, the conformal Weyl tensor and Einstein-Weyl read.  The
Christoffel routine, the inverse and the curvature are the same code for
both kinds of value (``jets.Kind``), so the numbers are the values of the
order-0 jets that the same routine would build, bit for bit, and the live
slots of R hold the values of the order-0 jets they stand for.  A number
cannot tell a jet holding an exact-zero coefficient from an empty one; no
jet operation leaves such a coefficient, so the jets of a pass never hold
one.

The depth-0 pass also runs on many float points at once, one float64 lane
per point (``compatibility_residuals``): the same jets and numbers, with
``jets.Lanes`` values where they depend on the point.  Each lane holds the
value its point's own pass gives, or the pass raises (``jets.LaneSplit``
where the points would take different branches) and its caller takes the
points one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import exprlang, thresholds
from .exprlang import Expr, eval_jet, eval_number
from .jets import JETS, NUMBERS, JetPoly, JetShapeError, Kind, Lanes, coordinate_jets, exact_zero, lane_max


class DomainViolation(ValueError):
    """The evaluation point violates a chart constraint."""


class SingularMetricError(ValueError):
    pass


class SignatureError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Coordinate names plus strict positivity constraints on the domain."""

    names: Tuple[str, ...]
    constraints: Tuple[Expr, ...] = ()

    def __post_init__(self):
        if len(self.names) < 3:
            raise ValueError("charts must have dimension >= 3")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be unique")
        for c in self.constraints:
            bad = set(exprlang.variables_of(c)) - set(self.names)
            if bad:
                raise ValueError(f"constraint references unknown coordinates {sorted(bad)}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def violated(self, env: Dict[str, object]) -> Optional[Tuple[Expr, object]]:
        """The first constraint, in order, that is not > 0 at ``env``, with its value; None if all hold."""
        for c in self.constraints:
            value = eval_number(c, env)
            if not value > 0:
                return c, value
        return None


@dataclass(frozen=True, eq=False)
class WeylStructure:
    """A chart, symmetric metric components and 1-form components, all Exprs.

    ``metric[i][j]`` may be None for an identically zero component.  The
    metric must be Lorentzian, signature (1, d-1), at every evaluated point.
    """

    chart: Chart
    metric: Tuple[Tuple[Optional[Expr], ...], ...]
    one_form: Tuple[Optional[Expr], ...]
    family: str = "custom"

    @property
    def dim(self) -> int:
        return self.chart.dim


def make_structure(
    chart: Chart,
    metric_entries: Dict[Tuple[str, str], Union[str, Expr]],
    one_form: Optional[Dict[str, Union[str, Expr]]] = None,
    family: str = "custom",
) -> WeylStructure:
    """Build a WeylStructure from sparse named components (mirrored symmetrically)."""
    d = chart.dim
    grid: List[List[Optional[Expr]]] = [[None] * d for _ in range(d)]
    for (a, b), e in metric_entries.items():
        i, j = chart.index(a), chart.index(b)
        node = exprlang.as_expr(e)
        grid[i][j] = node
        grid[j][i] = node
    omega: List[Optional[Expr]] = [None] * d
    for a, e in (one_form or {}).items():
        omega[chart.index(a)] = exprlang.as_expr(e)
    return WeylStructure(
        chart=chart,
        metric=tuple(tuple(row) for row in grid),
        one_form=tuple(omega),
        family=family,
    )


# ----------------------------------------------------------------------
# evaluation plumbing
# ----------------------------------------------------------------------


def check_domain(structure: WeylStructure, point: Sequence) -> None:
    bad = structure.chart.violated(dict(zip(structure.chart.names, point)))
    if bad is not None:
        constraint, value = bad
        raise DomainViolation(f"constraint {exprlang.to_source(constraint)} > 0 violated at {tuple(point)} (value {value})")


def metric_jets(structure: WeylStructure, point: Sequence, order: int) -> List[List[JetPoly]]:
    """The metric's jets of ``order`` at ``point``, whose coordinates may be Lanes."""
    env = coordinate_jets(structure.chart.names, point, order)
    template = env[structure.chart.names[0]]
    zero = template.like_constant(0)
    d = structure.dim
    out: List[List[JetPoly]] = [[zero] * d for _ in range(d)]
    evaluated: Dict[int, JetPoly] = {}  # entries sharing one Expr object share one jet
    for i in range(d):
        for j in range(i, d):
            e = structure.metric[i][j]
            if e is not None:
                if id(e) not in evaluated:
                    evaluated[id(e)] = eval_jet(e, env)
                out[i][j] = out[j][i] = evaluated[id(e)]
    return out


def one_form_jets(structure: WeylStructure, point: Sequence, order: int) -> List[JetPoly]:
    env = coordinate_jets(structure.chart.names, point, order)
    zero = env[structure.chart.names[0]].like_constant(0)
    return [zero if e is None else eval_jet(e, env) for e in structure.one_form]


def _flatten(jets) -> Tuple[Tuple[int, ...], list]:
    """Shape of a nested list of jets (or numbers) and its leaves in row-major order."""
    shape: List[int] = []
    leaves = [jets]
    while isinstance(leaves[0], list):
        shape.append(len(leaves[0]))
        leaves = [jet for sub in leaves for jet in sub]
    return tuple(shape), leaves


def _values(jets) -> np.ndarray:
    """Float values at the point of a nested list of jets, in an array of its
    shape; an empty jet reads 0.0 unopened.  A list of numbers (a depth-0
    connection's) reads float of each, which is 0.0 for an exact zero."""
    shape, leaves = _flatten(jets)
    if isinstance(leaves[0], JetPoly):
        floats = (float(jet.value) if jet.terms else 0.0 for jet in leaves)
    else:
        floats = map(float, leaves)
    return np.fromiter(floats, float, len(leaves)).reshape(shape)


def _first_partials(jets) -> np.ndarray:
    """array[e][...] = d_e of each jet of a nested list at the point (jets of
    order >= 1); only the non-empty jets are read, the rest are rows of 0.0."""
    shape, leaves = _flatten(jets)
    zeros = [0] * leaves[0].nvars
    grads = np.array([jet.gradient() if jet.terms else zeros for jet in leaves], float)
    return np.moveaxis(grads.reshape(shape + (len(zeros),)), -1, 0)


def check_signature(gv: np.ndarray, point: Sequence) -> np.ndarray:
    """Check that metric values ``gv`` at ``point`` are Lorentzian (one negative
    eigenvalue); returns gv.  Singular means min |eigenvalue| <= METRIC_SINGULAR
    max |eigenvalue|: a unit-free test."""
    eig = np.linalg.eigvalsh(gv)
    if np.min(np.abs(eig)) <= thresholds.METRIC_SINGULAR * np.max(np.abs(eig)):
        raise SingularMetricError(f"metric is singular at {tuple(point)}")
    negatives = int(np.sum(eig < 0))
    if negatives != 1:
        raise SignatureError(f"metric has signature with {negatives} negative directions at {tuple(point)}")
    return gv


Index = Tuple[int, ...]


def _live(jets) -> Dict[Index, JetPoly]:
    """The non-empty jets of a nested list, keyed by their index, in row-major order."""
    shape, leaves = _flatten(jets)
    return {index: jet for index, jet in zip(itertools.product(*map(range, shape)), leaves) if jet.terms}


def _repeated(live: Dict[Index, JetPoly], mirror: Optional[Tuple[int, int]] = None) -> Set[int]:
    """ids of the jets of ``live``, a list's non-empty jets by index
    (``_live``), that fill more than one slot, where a slot and its mirror
    (the slot with its indices at the two axes ``mirror`` swapped) count as
    one."""
    seen: Set[int] = set()
    repeated: Set[int] = set()
    for index, jet in live.items():
        if mirror is None or index[mirror[0]] <= index[mirror[1]]:
            (repeated if id(jet) in seen else seen).add(id(jet))
    return repeated


def _once_per_operands(op: Callable, shared: Set[int]) -> Callable:
    """``op``, computed once per distinct operand objects where an operand is
    shared: a jet whose id is in ``shared``, or the result of such an
    operation, whose id joins it.  ``_once_per_jet`` does the same for a unary
    map.  Jets are immutable and an operation is a pure function of its
    operands, so a repeat returns the first result, the same to the bit.  An
    operation on unshared operands is not kept: where no input jet repeats,
    only the mirror slots of a symmetric list repeat an operation, and keeping
    every operation would hold one more jet per term of the sums.  The memo
    holds the operands it is keyed on, so their ids stay theirs.  With no
    shared jet to start from, no operand is ever shared, and ``op`` is
    returned as it is."""
    if not shared:
        return op
    done: Dict[Tuple[int, ...], tuple] = {}

    def once(*operands):
        key = tuple(map(id, operands))
        if shared.isdisjoint(key):
            return op(*operands)
        if key not in done:
            done[key] = (op(*operands), operands)
            shared.add(id(done[key][0]))
        return done[key][0]

    return once


def _invert_jet_matrix(g: list, kind: Kind) -> Dict[Tuple[int, int], object]:
    """Invert a matrix of jets, or of numbers, in ``kind`` by Gauss-Jordan
    with constant-term pivoting; a pivot at most PIVOT_SINGULAR of the
    largest entry's value means it is singular.  Returns the nonzero entries
    of the inverse, ``{(a, e): g^{ae}}`` in row-major order.  On numbers
    that are ``jets.Lanes`` the cut is each lane's own, and a pivot row or a
    singular pivot that not every lane agrees on raises ``jets.LaneSplit``.

    Each row keeps the set of its columns that hold a nonzero entry, so the
    pivot row is scaled, and each row with a nonzero entry in the pivot
    column is reduced, only at the pivot row's nonzero columns, in column
    order: the operations of the dense elimination that are not on empty
    entries."""
    d = len(g)
    empty, sub, mul = kind.empty, kind.sub, kind.mul
    zero = kind.constant(g[0][0], 0)
    one = kind.constant(g[0][0], 1)
    # the largest modulus of an entry, on each lane; an empty entry's is 0.0
    cut = thresholds.PIVOT_SINGULAR * lane_max([0.0] + [abs(kind.value(x)) for row in g for x in row if not empty(x)])
    aug = [[g[i][j] for j in range(d)] + [one if i == j else zero for j in range(d)] for i in range(d)]
    live = [{j for j in range(d) if not empty(g[i][j])} | {d + i} for i in range(d)]
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(kind.value(aug[r][col])))
        if abs(kind.value(aug[pivot_row][col])) <= cut:
            raise SingularMetricError("metric is singular (no usable pivot)")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        live[col], live[pivot_row] = live[pivot_row], live[col]
        inv_pivot = kind.div(one, aug[col][col])
        pivot, columns = aug[col], sorted(live[col])
        for j in columns:
            pivot[j] = mul(pivot[j], inv_pivot)
        columns = [j for j in columns if not empty(pivot[j])]
        live[col] = set(columns)
        for r in range(d):
            if r != col and col in live[r]:
                row, row_live, factor = aug[r], live[r], aug[r][col]
                for j in columns:
                    row[j] = entry = sub(row[j], mul(factor, pivot[j]))
                    if empty(entry):
                        row_live.discard(j)
                    else:
                        row_live.add(j)
    return {(a, j - d): aug[a][j] for a in range(d) for j in sorted(live[a]) if j >= d}


# ----------------------------------------------------------------------
# connections
# ----------------------------------------------------------------------

Slot = Tuple[int, int, int, int]  # (d, c, a, b) of R^d_{cab}


@dataclass(eq=False)
class Connection:
    """The Weyl connection at a point: Christoffel symbols with their
    partial-derivative jets to ``depth``, the jets they were built from, and
    every quantity the checks read, each derived from them on first use.

    Constant terms of a jet do not depend on its truncation order, so each
    value read here equals the one a connection of lower depth gives.  Depth 0
    is enough for the compatibility residual, depth 1 for curvature,
    holonomy, the conformal Weyl tensor and Einstein-Weyl, depth 2 for
    nabla R and the recurrence fit.  At depth 0, ``gamma``,
    ``levi_civita_gamma`` and ``one_form`` hold plain numbers (ints,
    Fractions or floats, an exact zero as int 0), the values of the order-0
    jets they stand for; ``metric`` holds jets of order depth + 1.  A depth-0
    connection whose point is in lanes, one float64 lane per point, holds
    ``jets.Lanes`` among those numbers and among the coefficients of its
    metric jets, computed by the same rules: ``compatibility_residuals`` builds
    one to read its Christoffel values lane by lane, and no reader here
    takes it.  ``curvature_jets`` holds R as its live slots with a < b (see the module
    docstring): jets of order depth - 1, and at depth 1 numbers, the values
    of the order-0 jets.  ``curvature`` and ``nabla_R`` (depth >= 2) are the
    dense float arrays the checks read; ``curvature`` is kept after its first
    read, and ``nabla_R``, d^5 floats, is computed on each read.  Every pass
    behind them enumerates nonzero entries (see the module docstring).
    """

    chart: Chart
    point: Tuple
    depth: int
    gamma: list  # gamma[a][b][c] = Gamma^a_{bc}, jets of order depth (numbers at depth 0)
    metric: Optional[List[List[JetPoly]]] = None  # g_ab, jets of order depth + 1
    one_form: Optional[list] = None  # w_a, jets of order depth, numbers at depth 0 (zero for Levi-Civita)
    levi_civita_gamma: Optional[list] = None  # metric part of a Weyl connection, in gamma's kind

    @property
    def dim(self) -> int:
        return self.chart.dim

    def values(self) -> np.ndarray:
        return _values(self.gamma)

    @cached_property
    def metric_values(self) -> np.ndarray:
        return _values(self.metric)

    @cached_property
    def one_form_values(self) -> np.ndarray:
        return _values(self.one_form)

    @cached_property
    def curvature_jets(self) -> Dict[Slot, object]:
        return _curvature_jets(self)

    @cached_property
    def curvature(self) -> np.ndarray:
        """R^d_{cab} of the connection, dense: the value of each live slot,
        at its mirror slot the value of the negated one, 0.0 elsewhere."""
        slots = self.curvature_jets
        live, mirror = _slot_indices(slots, self.dim)
        values = list(slots.values()) if self.depth == 1 else [jet.value for jet in slots.values()]
        R = np.zeros(self.dim**4)
        R[live] = [float(x) for x in values]
        R[mirror] = [float(-x) for x in values]
        return R.reshape((self.dim,) * 4)

    @property
    def nabla_R(self) -> np.ndarray:
        """nabla R, dense (depth >= 2): computed on each read and not kept,
        since it is d^5 floats."""
        if self.depth < 2:
            raise JetShapeError("nabla R needs a connection of depth >= 2")
        return _nabla_R_from(self, self.curvature_jets, self.curvature)

    def compatibility_residual(self) -> float:
        """See :func:`weyl_compatibility_residual`."""
        return _compatibility(self.values(), self.metric_values, self.one_form_values, _first_partials(self.metric))

    def recurrence(self, tol: float = thresholds.RECURRENCE_TOL) -> RecurrenceReport:
        """See :func:`recurrence_theta` (needs depth >= 2)."""
        d = self.dim
        conn_R = self.curvature
        r = conn_R.ravel()
        rnorm = float(np.sqrt(r @ r))
        if rnorm < thresholds.NO_CURVATURE:
            return RecurrenceReport("no_curvature", False, None, 0.0, None, None, False)
        nr = self.nabla_R
        theta = np.array([float(nr[e].ravel() @ r) / (rnorm**2) for e in range(d)])
        max_resid = 0.0
        for e in range(d):
            diff = nr[e] - theta[e] * conn_R
            dn = float(np.sqrt(np.sum(nr[e] ** 2)))
            resid = float(np.sqrt(np.sum(diff**2)))
            if dn > thresholds.RELATIVE_RESIDUAL_SWITCH:
                resid /= dn
            max_resid = max(max_resid, resid)
        w = self.one_form_values
        wnorm = float(np.sqrt(w @ w))
        if wnorm > thresholds.ONE_FORM_VANISHES:
            weight = -float(theta @ w) / (wnorm**2)
            weight_residual = float(np.sqrt(np.sum((theta + weight * w) ** 2)))
            closed = False
        else:
            weight, weight_residual, closed = None, None, True
        return RecurrenceReport("ok", bool(max_resid <= tol), theta, max_resid, weight, weight_residual, closed)

    def holonomy(self) -> HolonomyReport:
        """See :func:`holonomy_span_dim`."""
        R = self.curvature
        d = self.dim
        rows = [R[:, :, a, b].ravel() for a in range(d) for b in range(a + 1, d)]
        sv = np.linalg.svd(np.stack(rows), compute_uv=False)
        return HolonomyReport(numerical_rank(sv, thresholds.HOLONOMY_RANK_TOL), sv)

    def conformal_weyl(self) -> PointTensor:
        """See :func:`conformal_weyl_tensor`."""
        # the curvature of the Levi-Civita part at depth 1, which reads only the
        # values and gradients of its jets, the same at every order (the copy
        # keeps this connection's other fields, and only its curvature is read)
        d = self.dim
        Rup = replace(self, depth=1, gamma=self.levi_civita_gamma).curvature  # R^a_{bcd}
        gv = self.metric_values
        ginv = np.linalg.inv(gv)
        Rlow = np.einsum("ae,ebcd->abcd", gv, Rup)
        ric = np.einsum("abad->bd", Rup)
        scal = float(np.einsum("bd,bd->", ginv, ric))
        C = Rlow.copy()
        C -= (
            np.einsum("ac,bd->abcd", gv, ric)
            - np.einsum("ad,bc->abcd", gv, ric)
            + np.einsum("bd,ac->abcd", gv, ric)
            - np.einsum("bc,ad->abcd", gv, ric)
        ) / (d - 2)
        C += scal * (np.einsum("ac,bd->abcd", gv, gv) - np.einsum("ad,bc->abcd", gv, gv)) / ((d - 1) * (d - 2))
        return PointTensor(C)


def _compatibility(G: np.ndarray, gv: np.ndarray, w: np.ndarray, dg: np.ndarray) -> float:
    """max |(nabla g + 2 w x g)_{e,ab}| / max(1, |g|) from the values of the
    Christoffel symbols, the metric and the 1-form, and dg[e] = d_e g."""
    nabla_g = dg - np.einsum("fea,fb->eab", G, gv) - np.einsum("feb,af->eab", G, gv)
    resid = nabla_g + 2.0 * np.einsum("e,ab->eab", w, gv)
    return float(np.max(np.abs(resid)) / max(1.0, np.max(np.abs(gv))))


def weyl_connection(structure: WeylStructure, point: Sequence, depth: int = 1) -> Connection:
    """Weyl connection: Levi-Civita plus K^a_bc = delta^a_b w_c + delta^a_c w_b - g_bc g^{ad} w_d.
    At depth 0 the 1-form is evaluated on plain numbers (``eval_number``);
    ``compatibility_residuals`` runs the same depth-0 pass on many float
    points at once, on lanes; where that raises, its caller builds each
    point's connection here."""
    check_domain(structure, point)
    g = metric_jets(structure, point, depth + 1)
    check_signature(_values(g), point)
    if depth == 0:
        env = dict(zip(structure.chart.names, point))
        omega = [0 if e is None else eval_number(e, env) for e in structure.one_form]
    else:
        omega = one_form_jets(structure, point, depth)
    return _christoffel_from(structure, point, depth, g, omega)


def compatibility_residuals(structure: WeylStructure, points: Sequence[Sequence[float]]) -> List[float]:
    """The compatibility residual at each of ``points`` (float points), in
    order, from one depth-0 pass on lanes, one float64 lane per point: the
    order-1 metric jets, then the 1-form and the inverse and Christoffel pass
    of ``_christoffel_from`` on numbers, all with ``jets.Lanes`` values.  Each
    lane holds the values of its point's own depth-0 connection, to the bit;
    the domain and signature checks and the residual formula run point by
    point, so each residual is ``weyl_compatibility_residual`` at its point.

    It raises where any point would, and where the lanes would branch apart
    (``jets.LaneSplit``: a coordinate 0.0 at some points only, pivot rows or
    singular pivots that differ from lane to lane), and TypeError for a point
    that is not all floats; a caller then takes those points one by one.  A
    warning numpy would give on lane arithmetic, where the scalar path
    computes in Python floats, is not given."""
    if not points:
        return []
    if any(type(x) is not float for p in points for x in p):
        raise TypeError("the lanes hold float points only")
    for p in points:
        check_domain(structure, p)
    n, base = len(points), tuple(map(Lanes, zip(*points)))
    with np.errstate(all="ignore"):
        g = metric_jets(structure, base, 1)
    gv = list(_lane_values([[jet.value for jet in row] for row in g], n))
    for values, p in zip(gv, points):
        check_signature(values, p)
    env = dict(zip(structure.chart.names, base))
    with np.errstate(all="ignore"):
        omega = [0 if e is None else eval_number(e, env) for e in structure.one_form]
        gamma = _christoffel_from(structure, base, 0, g, omega).gamma
    dg = _lane_values([[jet.gradient() for jet in row] for row in g], n)  # dg[a][b][e] = d_e g_ab
    lanes = zip(_lane_values(gamma, n), gv, _lane_values(omega, n), (np.moveaxis(x, -1, 0) for x in dg))
    return [_compatibility(*lane) for lane in lanes]


def _lane_values(values, width: int) -> Iterator[np.ndarray]:
    """``_values`` of a nested list of numbers, some of them Lanes of
    ``width`` lanes, at each lane in turn.  Only the entries that are not an
    exact zero are held for every lane."""
    shape, leaves = _flatten(values)
    live = np.array([k for k, x in enumerate(leaves) if type(x) is Lanes or not exact_zero(x)], np.intp)
    rows = np.empty((len(live), width))
    for row, k in zip(rows, live.tolist()):
        row[:] = leaves[k].array if type(leaves[k]) is Lanes else float(leaves[k])
    for column in rows.T:
        out = np.zeros(len(leaves))
        out[live] = column
        yield out.reshape(shape)


def _once_per_jet(live: Dict[Index, JetPoly], fn, shared: Optional[Set[int]] = None) -> Dict[Index, object]:
    """``fn`` of each jet of ``live``, keyed as it is, computed once per
    distinct jet object, so that entries sharing a jet share the result.
    The jets of a result of a jet in ``shared`` (ids) are added to it."""
    done: Dict[int, object] = {}
    for jet in live.values():
        if id(jet) not in done:
            done[id(jet)] = fn(jet)
    if shared is not None:
        shared.update(id(x) for key, result in done.items() if key in shared for x in _flatten(result)[1])
    return {index: done[id(jet)] for index, jet in live.items()}


def _read_down(jets, order: int, mirror: Tuple[int, int]) -> Tuple[Kind, object, dict, dict]:
    """The set-up of a pass on a nested list of jets read one order down:
    ``(kind, zero, low, partials)``, the kind of value it computes in, that
    kind's zero, and for each non-empty jet of the list, keyed by its index
    (``_live``), its truncation to ``order`` and its row of first partials
    ``[d_0 jet, ..., d_{n-1} jet]``, each computed once per distinct jet
    object.  An empty jet is not read: it stands for the zero, and its
    partials for a row of it.

    At ``order`` 0 the pass runs on numbers (``NUMBERS``, zero 0; Lanes
    where the jets' coefficients are): each jet's value and gradient, which
    are the values of the order-0 jets they stand for.  Otherwise it runs on ``JETS`` with each operation computed
    once per shared operands (``_once_per_operands``), where the shared jets
    are those that fill more than one slot of the list, a slot and its
    mirror at the axes ``mirror`` counted as one (``_repeated``), and every
    jet made from them.  The zero is an empty jet of ``order``."""
    template = jets
    while isinstance(template, list):
        template = template[0]
    live = _live(jets)
    if order == 0:
        return NUMBERS, 0, _once_per_jet(live, lambda jet: jet.value), _once_per_jet(live, JetPoly.gradient)
    n = template.nvars
    shared = _repeated(live, mirror)
    ops = ("add", "sub", "mul", "div", "half")
    kind = JETS._replace(**{name: _once_per_operands(getattr(JETS, name), shared) for name in ops})
    low = _once_per_jet(live, lambda jet: jet.truncated(order), shared)
    partials = _once_per_jet(live, lambda jet: [jet.derivative(e) for e in range(n)], shared)
    return kind, JetPoly(n, order, template.base), low, partials


def _christoffel_from(
    structure: WeylStructure,
    point: Sequence,
    depth: int,
    g: List[List[JetPoly]],
    omega: list,
) -> Connection:
    """The Weyl connection from metric jets ``g`` of order depth + 1 and the
    1-form ``omega``, jets of order ``depth``.  At depth 0 it runs on numbers:
    the 1-form's values, and the constant terms of ``g`` and the gradients of
    its order-1 jets, which are the values of the order-0 jets they replace.

    Every term comes from a nonzero entry: a bracket d_b g_ec + d_c g_be -
    d_e g_bc from a nonzero first partial of the metric, a term g^{ae}
    bracket from a nonzero entry of the inverse's column e, and K^a_bc from
    a nonzero w_c, w_b or g_bc (g^-1 w)^a.  Each entry gets the operations
    of the dense loop that are not on empty values, in its order: the
    brackets of each (b, c), b <= c, over e increasing, then the sums over
    a increasing, each over e increasing; then K over (a, b, c)."""
    d = structure.dim
    kind, zero, low, dg = _read_down(g, depth, (0, 1))  # low[i, j] = g_ij, dg[i, j][e] = d_e g_ij
    empty, add, sub, mul = kind.empty, kind.add, kind.sub, kind.mul
    ginv = _invert_jet_matrix([[low.get((i, j), zero) for j in range(d)] for i in range(d)], kind)
    columns: List[list] = [[] for _ in range(d)]  # columns[e]: (a, g^{ae}), a increasing
    rows: List[list] = [[] for _ in range(d)]  # rows[a]: (e, g^{ae}), e increasing
    for (a, e), entry in ginv.items():
        columns[e].append((a, entry))
        rows[a].append((e, entry))

    def partial(i: int, j: int, e: int):
        return dg[i, j][e] if (i, j) in dg else zero

    # a nonzero d_w g_ij is d_e g_bc of the bracket (i, j, w), d_b g_ec of (w, j, i) and d_c g_be of (i, w, j)
    nonzero = [(i, j, w) for (i, j), row in dg.items() for w, x in enumerate(row) if not empty(x)]
    triples = sorted({t for i, j, w in nonzero for t in ((i, j, w), (w, j, i), (i, w, j)) if t[0] <= t[1]})
    gamma = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for (b, c), group in itertools.groupby(triples, key=lambda t: t[:2]):
        terms: Dict[int, list] = {}  # a -> (g^{ae}, bracket) where both are nonzero, e increasing
        for _, _, e in group:
            bracket = sub(add(partial(e, c, b), partial(b, e, c)), partial(b, c, e))
            if not empty(bracket):
                for a, entry in columns[e]:
                    terms.setdefault(a, []).append((entry, bracket))
        for a in sorted(terms):
            acc = zero
            for entry, bracket in terms[a]:
                acc = add(acc, mul(entry, bracket))
            if not empty(acc):
                gamma[a][b][c] = gamma[a][c][b] = kind.half(acc)

    levi_civita_gamma = [[row[:] for row in plane] for plane in gamma]
    live_w = [c for c, w in enumerate(omega) if not empty(w)]
    omega_up = {}  # (g^-1 w)^a = g^{ae} w_e where it is nonzero
    for a in range(d):
        acc = zero
        for e, entry in rows[a]:
            if e in live_w:
                acc = add(acc, mul(entry, omega[e]))
        if not empty(acc):
            omega_up[a] = acc
    # zero + w_c, computed once: K^a_bc starts from it for every a = b or a = c
    lifted = {c: add(zero, omega[c]) for c in live_w}
    live_g = {(b, c): x for (b, c), x in low.items() if b <= c and not empty(x)}
    slots = {(b, b, c) for c in live_w for b in range(c + 1)}
    slots.update((c, b, c) for b in live_w for c in range(b, d))
    slots.update((a, b, c) for a in omega_up for b, c in live_g)
    for a, b, c in sorted(slots):
        k = zero
        if a == b and c in lifted:
            k = lifted[c]
        if a == c and b in lifted:
            k = add(k, omega[b]) if a == b else lifted[b]
        if a in omega_up and (b, c) in live_g:
            k = sub(k, mul(live_g[b, c], omega_up[a]))
        if not empty(k):
            gamma[a][b][c] = gamma[a][c][b] = add(gamma[a][b][c], k)

    return Connection(structure.chart, tuple(point), depth, gamma, g, omega, levi_civita_gamma)


# ----------------------------------------------------------------------
# curvature and its covariant derivative
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointTensor:
    """Dense tensor components at a point, indices placed as the function
    that returns it documents."""

    array: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.array**2)))


def _curvature_jets(conn: Connection) -> Dict[Slot, object]:
    """The nonzero slots of R: {(d, c, a, b): R^d_{cab}} with a < b, jets of
    order depth - 1, or numbers at depth 1.  R is antisymmetric in (a, b), so
    the mirror slot (d, c, b, a) holds the negated value, and every slot not
    listed is zero.

    The slots and their terms come from the nonzero Christoffel jets: a
    derivative d_a Gamma^d_{bc} or d_b Gamma^d_{ac} of a nonzero jet, and a
    product Gamma^d_{af} Gamma^f_{bc} (the + term of f) or Gamma^d_{bf}
    Gamma^f_{ac} (its - term) of two nonzero jets.  A slot makes the
    operations of the dense sum that are not on empty jets, in its order:
    the first derivative less the second, then over f increasing the + term
    before the - term.  At depth 1 those operations are on numbers
    (``_read_down`` to order 0): the gradients and values of the Christoffel
    jets, which are the values of their order-0 derivatives and
    truncations, so each slot is the value of the order-0 jet it stands
    for."""
    if conn.depth < 1:
        raise JetShapeError("cannot differentiate an order-0 jet")
    kind, zero, gl, dgamma = _read_down(conn.gamma, conn.depth - 1, (1, 2))
    empty, add, sub, mul = kind.empty, kind.add, kind.sub, kind.mul
    # a nonzero derivative d_w Gamma^x_{yz} enters the slot (x, z, y, w) or (x, z, w, y)
    slots = {
        (x, z, min(y, w), max(y, w))
        for (x, y, z), row in dgamma.items()
        for w, partial in enumerate(row)
        if w != y and not empty(partial)
    }
    live = [(x, y, f, jet) for (x, y, f), jet in gl.items() if not empty(jet)]
    by_upper: Dict[int, list] = {}  # f -> (z, c, Gamma^f_zc) where it is nonzero
    for x, y, f, jet in live:
        by_upper.setdefault(x, []).append((y, f, jet))
    # a product Gamma^x_{yf} Gamma^f_{zc}, y != z, is the + term of f in the slot (x, c, y, z)
    # if y < z, and the - term of f in (x, c, z, y) otherwise
    terms: Dict[Slot, list] = {}
    for x, y, f, left in live:
        for z, c, right in by_upper.get(f, ()):
            if z != y:
                slot = (x, c, y, z) if y < z else (x, c, z, y)
                terms.setdefault(slot, []).append((f, y > z, left, right))
    R: Dict[Slot, object] = {}
    for slot in sorted(slots.union(terms)):
        dd, c, a, b = slot
        acc = dgamma[dd, b, c][a] if (dd, b, c) in dgamma else zero
        if (dd, a, c) in dgamma and not empty(dgamma[dd, a, c][b]):
            acc = sub(acc, dgamma[dd, a, c][b])
        for _, minus, left, right in sorted(terms.get(slot, ()), key=lambda term: term[:2]):
            acc = sub(acc, mul(left, right)) if minus else add(acc, mul(left, right))
        if not empty(acc):
            R[slot] = acc
    return R


def _slot_indices(slots: Dict[Slot, object], d: int) -> Tuple[List[int], List[int]]:
    """Flat indices into a (d,)*4 array of each live slot (d, c, a, b) and of its mirror (d, c, b, a)."""
    live = [((i * d + c) * d + a) * d + b for i, c, a, b in slots]
    mirror = [((i * d + c) * d + b) * d + a for i, c, a, b in slots]
    return live, mirror


def _nabla_R_from(conn: Connection, slots: Dict[Slot, JetPoly], R: np.ndarray) -> np.ndarray:
    """nabla_e R^d_cab = d_e R + G^d_ef R^f_cab - G^f_ec R^d_fab - G^f_ea R^d_cfb
    - G^f_eb R^d_caf, from the live slots of R and its values, each entry
    added in this order.  A contraction on no nonzero pair is 0.0 in the dense
    sum, and adding it to d_e R only turns a -0.0 into 0.0: ``+ 0.0`` here."""
    d = conn.dim
    out = np.zeros((d,) * 5)
    if slots:
        live, mirror = _slot_indices(slots, d)
        partials = _first_partials(list(slots.values()))  # partials[e][i] = d_e of the i-th slot's jet
        planes = out.reshape(d, -1)  # planes[e] = (nabla_e R) flattened
        planes[:, live] = partials + 0.0
        planes[:, mirror] = -partials + 0.0
    flat = out.reshape(-1)
    for sign, sums in zip((1, -1, -1, -1), _contractions(conn.values(), R)):
        index = np.fromiter(sums, np.intp, len(sums))
        flat[index] += sign * np.fromiter(sums.values(), float, len(sums))
    return out


def _contractions(G: np.ndarray, R: np.ndarray) -> List[Dict[int, float]]:
    """The four contractions of nabla R, G^d_ef R^f_cab, G^f_ec R^d_fab,
    G^f_ea R^d_cfb and G^f_eb R^d_caf, each as {flat index into an
    (e, d, c, a, b) array: sum} at the entries with a product of a nonzero
    G and a nonzero R entry.  Each sum is 0.0 plus those products over f
    increasing.  The dense sum adds the other products too, but with finite
    entries each of them is a zero, which leaves a sum that starts from 0.0
    unchanged, so the bits are the same.

    Term k pairs G's f with R's axis k (see the module docstring).  G's
    entries are read in row-major order, which is f increasing within each
    output entry."""
    d = len(G)
    ri = np.flatnonzero(R)
    entries = list(zip(ri.tolist(), R.flat[ri].tolist()))
    sums: List[Dict[int, float]] = [{}, {}, {}, {}]
    # per term: its sums and their getter, the stride of R's axis k, whether G's f is its upper
    # index, and by_f[f]: (flat index less its axis-k part, value) of the nonzero R entries with axis k = f
    terms = []
    for k, stride in enumerate((d**3, d**2, d, 1)):
        by_f: List[List[Tuple[int, float]]] = [[] for _ in range(d)]
        for index, value in entries:
            f = index // stride % d
            by_f[f].append((index - f * stride, value))
        terms.append((sums[k], sums[k].get, stride, k > 0, by_f))
    gi = np.flatnonzero(G)
    for index, value in zip(gi.tolist(), G.flat[gi].tolist()):
        x, y, z = index // d**2, index // d % d, index % d  # value = Gamma^x_yz, and e = y
        e = y * d**4
        for acc, get, stride, upper, by_f in terms:
            f, other = (x, z) if upper else (z, x)
            part = e + other * stride
            for rest, r in by_f[f]:
                key = part + rest
                acc[key] = get(key, 0.0) + value * r
    return sums


def weyl_compatibility_residual(structure: WeylStructure, point: Sequence) -> float:
    """max |(nabla g + 2 w x g)_{e,ab}| / max(1, |g|): the construction identity."""
    return weyl_connection(structure, point, 0).compatibility_residual()


# ----------------------------------------------------------------------
# recurrence and holonomy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    status: str  # "ok" | "no_curvature"
    recurrent: bool
    theta: Optional[np.ndarray]  # recurrence 1-form components, theta_e
    max_residual: float
    weight: Optional[float]  # least-squares w in theta = -w * omega
    weight_residual: Optional[float]
    closed_at_point: bool


def recurrence_theta(
    structure: WeylStructure, point: Sequence, tol: float = thresholds.RECURRENCE_TOL, jet_order: int = 3
) -> RecurrenceReport:
    """Fit theta with nabla_e R = theta_e R and test the recurrence identity.

    theta_e is the Frobenius projection <nabla_e R, R> / <R, R>; the residual
    for each e is relative when |nabla_e R| > RELATIVE_RESIDUAL_SWITCH, absolute otherwise.  The
    weight w is the least-squares solution of theta = -w * omega, reported
    only when the 1-form does not vanish at the point.  ``jet_order`` is the
    metric truncation order (>= 3); results are truncation-independent, so
    raising it only cross-checks the jet plumbing.
    """
    if jet_order < 3:
        raise ValueError("the recurrence identity needs metric jets of order >= 3")
    return weyl_connection(structure, point, jet_order - 1).recurrence(tol)


def numerical_rank(sv: np.ndarray, cut: float) -> int:
    """The number of singular values ``sv`` above ``cut`` times the top one,
    ``sv[0]``; 0 for an empty or all-zero spectrum."""
    top = sv[0] if sv.size else 0.0
    return int(np.sum(sv > cut * top)) if top > 0 else 0


@dataclass(frozen=True)
class HolonomyReport:
    """The numerical rank of the stacked R(e_a, e_b), a < b, and the
    singular values it was cut from (rank: those above HOLONOMY_RANK_TOL
    times the top one; 0 when the top one is 0)."""

    span_dim: int
    singular_values: np.ndarray  # descending


def holonomy_span_dim(structure: WeylStructure, point: Sequence) -> HolonomyReport:
    """Numerical rank of span{R(e_a, e_b)} inside End(T_pM) (Ambrose-Singer span)."""
    return weyl_connection(structure, point, 1).holonomy()


# ----------------------------------------------------------------------
# conformal Weyl tensor (of the metric alone, Levi-Civita based)
# ----------------------------------------------------------------------


def conformal_weyl_tensor(structure: WeylStructure, point: Sequence) -> PointTensor:
    """Conformal Weyl curvature C_{abcd} of the metric part (d >= 4 for the
    vanishing test to imply conformal flatness)."""
    return weyl_connection(structure, point, 1).conformal_weyl()
