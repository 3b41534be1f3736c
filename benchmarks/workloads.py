"""The four benchmark workloads: their inputs, operations and known answers.

Every expected answer here comes from outside the timed code: the catalog's
``expected`` data, the README's documented formats, or mathematics stated
next to the check (group actions preserve invariants, recurrent structures of
the dim >= 4 family have holonomy span n = d - 2, and so on).

Inputs are made from the benchmark seed.  The CLI workloads draw every
variable choice (``verify --seed``, ``invariants --at``) from small fixed
pools, so that every CLI operation the benchmark can issue has a recorded
stdout digest in ``goldens.json``.  The library workloads draw fresh points
for every pass, so a cache keyed on the point never sees a repeat.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# Library calls go through the module attributes (tensor.recurrence_theta, not
# a name imported here), so that the tracer's wrappers see them.
from weylrec import cli, einsteinweyl, tensor
from weylrec.catalog import DIM_GE4, THREED_CASE1, THREED_CASE2, make_dim_ge4, standard_catalog

WORKLOADS = ("verify_catalog", "curvature_sweep", "invariants_equiv", "exact_oracle")

VERIFY_SEED_POOL = (0, 1, 2, 3)
AT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
SIGNATURE_SAMPLES = 64  # the CLI default; the two-variable grid is 8 x 8
SWEEP_DIMS = (4, 6, 8, 10)
ORDERS = (3, 5)
# float64 round-off bound for weyl_compatibility_residual at exact points:
# observed residues are 1e-17 to 1e-15; the repo's tests accept 1e-10
COMPAT_ROUNDOFF = 1e-12

# Entries whose invariants vanish identically by mathematics, so the CLI must
# report them as singular: psi = t has psi'' = psi''' = 0, so the discriminant
# 2 psi' psi''' - 3 psi''^2 is zero; a(u) = 1 has a' = 0.
SINGULAR_STRATUM = {"dim4-psi-linear", "3d2-ew-model"}

SIGNATURE_HEADERS = {  # as documented in the README
    DIM_GE4: "param,I,J,sign_D,singular_flag",
    THREED_CASE2: "param,I,J,K,singular_flag",
}

# Equivalent pairs: psi2(t) = M(psi(lam t + s)) for psi = t^3 + t (the generic
# dim4-psi-cubic entry), with M(y) = (a y + b)/(c y + d), a d - b c > 0 and
# lam > 0.  This is an element of the source-affine / target-fractional-linear
# group, so the signature curves coincide.  The t box is the preimage of the
# cubic's box [0.6, 1.8], so the CLI's default ranges correspond sample by
# sample.  Each row: (lam, s, (a, b, c, d)).
GROUP_ELEMENTS = (
    (Fraction(2), Fraction(-3, 5), (2, 1, 1, 3)),
    (Fraction(1, 2), Fraction(3, 10), (1, 2, 1, 4)),
    (Fraction(1), Fraction(1, 5), (3, -1, 1, 1)),
    (Fraction(3, 2), Fraction(0), (1, 0, 1, 1)),
)
CUBIC_KEY = "dim4-psi-cubic"
CUBIC_T_BOX = (Fraction(3, 5), Fraction(9, 5))
# Generic functions unrelated to t^3 + t by any group element: Distinct pairs.
UNRELATED_PSI = ("exp(t)+t", "t^4+t", "sqrt(t)+t^3", "ln(t)+t^2")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop request.  ``call`` is timed; ``judge`` is not."""

    kind: str  # the verb or library call, e.g. "verify", "recurrence"
    label: str  # stable identity: the golden key for CLI operations
    call: Callable[[], object]
    judge: Callable[[object], Tuple[bool, bool]]  # raw result -> (verdict_ok, failed)
    tags: Dict[str, object] = field(default_factory=dict)


@dataclass
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str


def run_cli(argv: List[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_judge(allowed_codes: Tuple[int, ...], verdict: Callable[[CliResult], bool]):
    def judge(res: CliResult) -> Tuple[bool, bool]:
        failed = res.code not in allowed_codes or "Traceback" in res.stderr
        if failed:
            return False, True
        try:
            return bool(verdict(res)), False
        except (ValueError, KeyError, IndexError, TypeError):
            return False, False

    return judge


def _cli_op(kind: str, label: str, argv: List[str], allowed, verdict, **tags) -> Op:
    return Op(kind, label, lambda: run_cli(argv), _cli_judge(allowed, verdict), dict(tags))


# A workload's set-up returns its pass maker: pass index -> that pass's operations.
PassMaker = Callable[[int], List[Op]]


# ----------------------------------------------------------------------
# structure files
# ----------------------------------------------------------------------


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"({x.numerator}/{x.denominator})"


def _group_psi(lam: Fraction, s: Fraction, mobius) -> str:
    w = f"({_frac(lam)}*t+{_frac(s)})"
    y = f"({w}^3+{w})"
    a, b, c, d = mobius
    return f"({a}*{y}+({b}))/({c}*{y}+({d}))"


def write_structure_files(workdir: str, entries) -> Dict[str, str]:
    """Catalog entries plus the equivalence-pair files; returns label -> path."""
    paths = {}
    for key, entry in entries.items():
        paths[key] = os.path.join(workdir, f"{key}.json")
        _write_json(paths[key], cli.structure_file_payload(entry))
    for i, (lam, s, mobius) in enumerate(GROUP_ELEMENTS):
        lo, hi = ((edge - s) / lam for edge in CUBIC_T_BOX)
        label = f"cubic-g{i}"
        paths[label] = os.path.join(workdir, f"{label}.json")
        _write_json(
            paths[label],
            {"format": 1, "family": DIM_GE4, "psi": _group_psi(lam, s, mobius), "n": 2, "key": label,
             "box": {"t": [float(lo), float(hi)]}},
        )
    for i, psi in enumerate(UNRELATED_PSI):
        label = f"unrelated-{i}"
        paths[label] = os.path.join(workdir, f"{label}.json")
        _write_json(paths[label], {"format": 1, "family": DIM_GE4, "psi": psi, "n": 2, "key": label})
    return paths


# ----------------------------------------------------------------------
# verify_catalog
# ----------------------------------------------------------------------


def verify_ops(entries, paths, vseeds: Dict[str, int]) -> List[Op]:
    """One verify per entry, with ``--seed vseeds[key]``."""
    ops = []
    for key in entries:
        vseed = vseeds[key]
        # every catalog entry is built to pass all of its checks
        ops.append(
            _cli_op(
                "verify",
                f"verify {key} --seed {vseed}",
                ["verify", paths[key], "--seed", str(vseed)],
                (0, 1),
                lambda r: r.code == 0 and json.loads(r.stdout)["pass"] is True,
                key=key,
            )
        )
    return ops


def _setup_verify_catalog(seed: int, workdir: str) -> PassMaker:
    entries = standard_catalog()
    paths = write_structure_files(workdir, entries)
    rng = random.Random(seed)
    ops = verify_ops(entries, paths, {key: rng.choice(VERIFY_SEED_POOL) for key in entries})
    rng.shuffle(ops)
    return lambda index: ops


# ----------------------------------------------------------------------
# invariants_equiv
# ----------------------------------------------------------------------


def _at_value(entry, frac: float) -> str:
    if entry.family == THREED_CASE1:
        (xlo, xhi), (ulo, uhi) = entry.box["x"], entry.box["u"]
        return f"{round(xlo + (xhi - xlo) * frac, 6)!r},{round(ulo + (uhi - ulo) * (1 - frac), 6)!r}"
    lo, hi = entry.box["t" if entry.family == DIM_GE4 else "u"]
    return repr(round(lo + (hi - lo) * frac, 6))


def _invariants_ok(key: str, family: str):
    def verdict(r: CliResult) -> bool:
        rec = json.loads(r.stdout)
        if key in SINGULAR_STRATUM:
            return "singular" in rec
        names = ("I", "J", "K") if family == THREED_CASE2 else ("I", "J")
        return all(isinstance(rec[n], float) and math.isfinite(rec[n]) for n in names)

    return verdict


def _signature_ok(key: str, family: str):
    def verdict(r: CliResult) -> bool:
        lines = r.stdout.splitlines()
        tail = lines[-1].split(",")
        dropped = int(tail[1])
        rows = len(lines) - 2
        header_ok = family not in SIGNATURE_HEADERS or lines[0] == SIGNATURE_HEADERS[family]
        return (
            header_ok
            and tail[0] == "# singular_samples_dropped"
            and rows + dropped == SIGNATURE_SAMPLES
            and (rows == 0) == (key in SINGULAR_STRATUM)
        )

    return verdict


def _equiv_is(expected: str):
    return lambda r: json.loads(r.stdout)["verdict"] == expected


def invariants_equiv_ops(entries, paths, at_fractions: Dict[str, float]) -> List[Op]:
    """invariants (at the box fraction ``at_fractions[key]``), signature,
    self-equiv and classify on every entry that defines them, plus the
    Equivalent and Distinct pairs."""
    ops = []
    for key, entry in entries.items():
        fam = entry.family
        if fam in (DIM_GE4, THREED_CASE1, THREED_CASE2):
            at = _at_value(entry, at_fractions[key])
            ops.append(
                _cli_op("invariants", f"invariants {key} --at {at}", ["invariants", paths[key], "--at", at], (0,),
                        _invariants_ok(key, fam))
            )
            ops.append(
                _cli_op("signature", f"signature {key}", ["signature", paths[key]], (0,), _signature_ok(key, fam))
            )
            # a curve compared with itself: a point curve when the entry has
            # extra symmetry (constant invariants), otherwise Equivalent
            generic = str(entry.expected.get("kind", "")).startswith("Generic")
            ops.append(
                _cli_op("equiv", f"equiv {key} {key}", ["equiv", paths[key], paths[key]], (0,),
                        _equiv_is("Equivalent" if generic else "Degenerate"))
            )
        if fam in (DIM_GE4, THREED_CASE2):
            ops.append(
                _cli_op("classify", f"classify {key}", ["classify", paths[key]], (0, 1),
                        lambda r, kind=entry.expected["kind"]: json.loads(r.stdout)["kind"] == kind)
            )
    for i in range(len(GROUP_ELEMENTS)):
        label = f"cubic-g{i}"
        ops.append(
            _cli_op("equiv", f"equiv {CUBIC_KEY} {label}", ["equiv", paths[CUBIC_KEY], paths[label]], (0,),
                    _equiv_is("Equivalent"))
        )
    for i in range(len(UNRELATED_PSI)):
        label = f"unrelated-{i}"
        ops.append(
            _cli_op("equiv", f"equiv {CUBIC_KEY} {label}", ["equiv", paths[CUBIC_KEY], paths[label]], (0,),
                    _equiv_is("Distinct"))
        )
    return ops


def _setup_invariants_equiv(seed: int, workdir: str) -> PassMaker:
    entries = standard_catalog()
    paths = write_structure_files(workdir, entries)
    rng = random.Random(seed)
    ops = invariants_equiv_ops(entries, paths, {key: rng.choice(AT_FRACTIONS) for key in entries})
    rng.shuffle(ops)
    return lambda index: ops


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


def _lib_op(kind: str, label: str, fn: Callable[[], object], verdict: Callable[[object], bool], **tags) -> Op:
    return Op(kind, label, fn, lambda res: (bool(verdict(res)), False), dict(tags))


def _float_point(entry, rng: random.Random) -> Tuple[float, ...]:
    while True:
        point = tuple(rng.uniform(*entry.box[name]) for name in entry.structure.chart.names)
        try:
            tensor.check_domain(entry.structure, point)
            return point
        except ValueError:
            continue


def _rational_point(entry, rng: random.Random, denominator: int = 16) -> Tuple[Fraction, ...]:
    """A point on the 1/16 grid strictly inside the box that meets the constraints."""
    while True:
        point = []
        for name in entry.structure.chart.names:
            lo, hi = entry.box[name]
            point.append(Fraction(rng.randint(math.floor(lo * denominator) + 1, math.ceil(hi * denominator) - 1), denominator))
        try:
            tensor.check_domain(entry.structure, point)
            return tuple(point)
        except ValueError:
            continue


def _recurrent(rep) -> bool:
    return rep.status == "ok" and rep.recurrent


def _setup_curvature_sweep(seed: int, workdir: str) -> PassMaker:
    # make_dim_ge4 takes n = d - 2; the CLI cannot sample d >= 10 (sample_box
    # has 8 primes), so the benchmark draws its own points
    sweep = [(d, make_dim_ge4("exp(t)", d - 2, key=f"sweep-d{d}")) for d in SWEEP_DIMS]

    def make_pass(index: int) -> List[Op]:
        rng = random.Random(seed * 1_000_003 + index)
        ops = []
        for d, entry in sweep:
            s = entry.structure
            p = _float_point(entry, rng)
            for order in ORDERS:
                ops.append(_lib_op("recurrence", f"d{d}.o{order}", lambda s=s, p=p, o=order: tensor.recurrence_theta(s, p, jet_order=o),
                                   _recurrent, dim=d, order=order))
            # recurrent structures of this family have holonomy span n = d - 2,
            # are conformally flat, and are not Einstein-Weyl
            ops.append(_lib_op("holonomy", f"d{d}", lambda s=s, p=p: tensor.holonomy_span_dim(s, p),
                               lambda r, d=d: r.span_dim == d - 2, dim=d))
            ops.append(_lib_op("conformal_weyl", f"d{d}", lambda s=s, p=p: tensor.conformal_weyl_tensor(s, p),
                               lambda r: r.norm() <= 1e-9, dim=d))
            ops.append(_lib_op("ew", f"d{d}", lambda s=s, p=p: einsteinweyl.ew_residual(s, p),
                               lambda r: r.residual > 1e-3, dim=d))
        return ops

    return make_pass


def _exact_christoffel(conn) -> bool:
    return all(
        isinstance(c, (int, Fraction)) for plane in conn.gamma for row in plane for jet in row for c in jet.coeffs.values()
    )


def _exact_compat(structure, point):
    """The Weyl connection with the metric and 1-form jets it was built from."""
    return (
        tensor.weyl_connection(structure, point, depth=1),
        tensor.metric_jets(structure, point, 1),
        tensor.one_form_jets(structure, point, 0),
    )


def _exact_compat_holds(result) -> bool:
    """Exact Christoffel jets, and nabla_e g_ab + 2 w_e g_ab == 0 in rationals.

    The same contraction as ``weyl_compatibility_residual``, kept in the exact
    coefficients that function rounds to float before contracting.
    """
    conn, g, omega = result
    if not _exact_christoffel(conn):
        return False
    d = conn.dim
    G = [[[conn.gamma[f][e][a].value for a in range(d)] for e in range(d)] for f in range(d)]
    gv = [[g[a][b].value for b in range(d)] for a in range(d)]
    unit = [tuple(int(i == e) for i in range(d)) for e in range(d)]
    for e in range(d):
        w = omega[e].value
        for a in range(d):
            for b in range(d):
                resid = g[a][b].coefficient(unit[e]) + 2 * w * gv[a][b]
                resid -= sum(G[f][e][a] * gv[f][b] + G[f][e][b] * gv[a][f] for f in range(d))
                if resid != 0:
                    return False
    return True


def _setup_exact_oracle(seed: int, workdir: str) -> PassMaker:
    # polynomial (or rational) data only, so Fraction points keep every jet exact
    structures = [
        (f"psi={psi}.d{n + 2}", make_dim_ge4(psi, n, key=f"exact-{psi}-d{n + 2}")) for psi in ("t", "t^3+t") for n in (2, 4, 6)
    ]
    catalog = standard_catalog()
    structures += [(key, catalog[key]) for key in ("3d2-ew-model", "3d2-inv-u")]

    def make_pass(index: int) -> List[Op]:
        rng = random.Random(seed * 1_000_003 + index)
        ops = []
        for name, entry in structures:
            s = entry.structure
            p = _rational_point(entry, rng)
            for order in ORDERS:
                ops.append(_lib_op("recurrence", f"{name}.o{order}", lambda s=s, p=p, o=order: tensor.recurrence_theta(s, p, jet_order=o),
                                   _recurrent, order=order))
            # the float residual (documented as a float, tested <= 1e-10 in
            # tests/) is within float64 round-off of the exact zero
            ops.append(_lib_op("compat", name, lambda s=s, p=p: tensor.weyl_compatibility_residual(s, p),
                               lambda r: r <= COMPAT_ROUNDOFF))
            # polynomial (or rational) data at a rational point: the Christoffel
            # jets stay exact and the construction identity holds with no rounding
            ops.append(_lib_op("exact_compat", name, lambda s=s, p=p: _exact_compat(s, p), _exact_compat_holds))
        return ops

    return make_pass


SETUP = {
    "verify_catalog": _setup_verify_catalog,
    "curvature_sweep": _setup_curvature_sweep,
    "invariants_equiv": _setup_invariants_equiv,
    "exact_oracle": _setup_exact_oracle,
}
