"""Command-line interface: structure-file I/O, verification reports, invariant
evaluation, signature-curve export, equivalence and classification.

Structure files are JSON with a versioned schema ("format": 1); unknown
fields are rejected so that archived inputs stay reproducible.  All reports
are emitted as deterministic JSON on stdout (sorted keys, no timestamps);
wall time goes to stderr.  Exit codes: 0 all checks met, 1 checks failed,
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__, exprlang, thresholds
from .catalog import (
    DIM_GE4,
    HOMOGENEOUS_MODEL,
    MAINTH_FORM,
    THREED_CASE1,
    THREED_CASE2,
    CatalogEntry,
    CatalogError,
    make_3d_case1,
    make_3d_case2,
    make_dim_ge4,
    make_homogeneous_model,
    make_mainth_form,
    standard_catalog,
)
from .einsteinweyl import ew_report
from .invariants import (
    NotIncreasingError,
    SingularStratumError,
    equivalence_test,
    pair_invariants,
    pair_jet_from_exprs,
    pair_signature_curve,
    psi_invariants,
    psi_jet_from_expr,
    psi_signature_curve,
    surface_invariants,
    f_jet_from_expr,
    surface_signature_curve,
)
from .jets import on_lanes
from .symmetry import classify_3d2, classify_psi
from .tensor import SignatureError, SingularMetricError, recurrence_theta, weyl_connection

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INPUT_ERROR = 2

_REPORT_HEAD = {"format": FORMAT_VERSION, "tool": f"weylrec {__version__}"}


class InputError(Exception):
    pass


# ----------------------------------------------------------------------
# structure files
# ----------------------------------------------------------------------

_COMMON_FIELDS = {"format", "family", "box", "seed", "constraints", "key"}
_OPTIONAL_FIELDS = {"branch"}
# largest dimension n + 2 a structure file may ask for: nabla R, made for the
# recurrence fit at each curvature point and freed after it, is a dense d^5
# float64 array, 64 MB at d = 24 (268 MB at d = 32)
MAX_DIMENSION = 24


def _psi_record(p: Dict, at: float) -> Dict:
    inv = psi_invariants(psi_jet_from_expr(p["psi"], at, order=5))
    return {"at": at, "I": float(inv.I), "J": float(inv.J), "sign_D": inv.sign_disc}


def _surface_record(p: Dict, x: float, u: float) -> Dict:
    inv = surface_invariants(f_jet_from_expr(p["F"], x, u, order=4))
    return {"at": [x, u], "I": float(inv.I), "J": float(inv.J)}


def _pair_record(p: Dict, at: float) -> Dict:
    inv = pair_invariants(pair_jet_from_exprs(p["a"], p["c"], at, order=2))
    return {"at": at, "I": float(inv.I), "J": float(inv.J), "K": float(inv.K)}


def _normalised(source: str) -> str:
    return exprlang.to_source(exprlang.parse(source))


def _derived_constraints(entry: CatalogEntry, data: Dict) -> CatalogEntry:
    """``entry``, whose family derives its chart constraints, once a
    ``constraints`` list in the file is checked to name the same ones."""
    if "constraints" in data:
        derived = sorted(exprlang.to_source(c) for c in entry.structure.chart.constraints)
        given = sorted(data["constraints"])
        # emitted files hold the derived sources verbatim; others are compared once parsed
        if given != derived and sorted(map(_normalised, given)) != sorted(map(_normalised, derived)):
            raise ValueError(f"family {entry.family!r} derives its constraints {derived}; the file lists {given}")
    return entry


def _surface_curve(e: CatalogEntry, rng: None, samples: int):
    side = max(2, int(round(samples**0.5)))  # a side x side grid over the whole (x, u) box
    return surface_signature_curve(e.params["F"], e.box["x"], e.box["u"], side, side)


class _Family(NamedTuple):
    """What the CLI knows about one family.  The callables name the library
    functions inside their bodies, so a function is looked up when it is called
    (a wrapper installed on this module's name is honoured); ``None`` marks a
    verb the family does not support."""

    fields: FrozenSet[str]  # parameter fields of a structure file: the keys of entry.params, whose functions are Exprs
    build: Callable[..., CatalogEntry]  # (data, box=, key=, seed=, constraints=) -> entry
    # coordinate whose box range is the default curve / classification interval;
    # None: the curve samples the whole box, and a --range is an input error
    range_coord: Optional[str] = "u"
    invariants: Optional[Callable[..., Dict]] = None  # (params, *values of --at)
    at_values: int = 1  # how many numbers --at takes
    curve: Optional[Callable[[CatalogEntry, Optional[Tuple[float, float]], int], object]] = None  # (entry, range, samples)
    csv_header: str = ""  # columns of the signature CSV
    classify: Optional[Callable[[CatalogEntry, Tuple[float, float]], object]] = None  # (entry, interval)


_FAMILIES: Dict[str, _Family] = {
    DIM_GE4: _Family(
        frozenset({"psi", "n", "branch"}),
        lambda d, constraints, **kw: _derived_constraints(
            make_dim_ge4(d["psi"], d["n"], branch=d.get("branch", 1), **kw), d
        ),
        range_coord="t",
        invariants=_psi_record,
        curve=lambda e, rng, samples: psi_signature_curve(e.params["psi"], rng[0], rng[1], samples),
        csv_header="param,I,J,sign_D,singular_flag",
        classify=lambda e, interval: classify_psi(e.params["psi"], interval=interval, seed=e.seed),
    ),
    MAINTH_FORM: _Family(
        frozenset({"F", "a", "n"}),
        lambda d, **kw: make_mainth_form(d["F"], d["a"], d["n"], **kw),
    ),
    THREED_CASE1: _Family(
        frozenset({"F"}),
        lambda d, **kw: make_3d_case1(d["F"], **kw),
        range_coord=None,
        invariants=_surface_record,
        at_values=2,
        curve=_surface_curve,
        csv_header="param_x,param_u,I,J,dI_1,dI_2,singular_flag",
    ),
    THREED_CASE2: _Family(
        frozenset({"a", "c"}),
        lambda d, **kw: make_3d_case2(d["a"], d["c"], **kw),
        invariants=_pair_record,
        curve=lambda e, rng, samples: pair_signature_curve(e.params["a"], e.params["c"], rng[0], rng[1], samples),
        csv_header="param,I,J,K,singular_flag",
        classify=lambda e, interval: classify_3d2(e.params["a"], e.params["c"], interval=interval, seed=e.seed),
    ),
    HOMOGENEOUS_MODEL: _Family(
        frozenset({"n"}),
        lambda d, constraints, **kw: _derived_constraints(make_homogeneous_model(d["n"], **kw), d),
    ),
}


def structure_file_payload(entry: CatalogEntry) -> Dict:
    payload: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "family": entry.family,
        "key": entry.key,
        "box": {k: list(v) for k, v in entry.box.items()},
        "seed": entry.seed,
    }
    for name in _FAMILIES[entry.family].fields:  # the one place a defining function becomes text
        value = entry.params[name]
        payload[name] = value if isinstance(value, int) else exprlang.to_source(value)
    constraints = [exprlang.to_source(c) for c in entry.structure.chart.constraints]
    if constraints:
        payload["constraints"] = constraints
    return payload


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _check_field_types(data: Dict, path: str) -> None:
    """Integer fields hold JSON integers, with seed >= 0 and n + 2 <=
    MAX_DIMENSION (checked before any construction), constraints a list of
    expression strings; each box range is [lo, hi] with finite lo < hi."""
    for name in ("seed", "n", "branch"):
        value = data.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{path}: field {name!r} must be an integer, got {value!r}")
    if data.get("seed", 0) < 0:
        raise InputError(f"{path}: field 'seed' must be >= 0, got {data['seed']}")
    if data.get("n", 0) + 2 > MAX_DIMENSION:
        raise InputError(f"{path}: field 'n' = {data['n']} asks for dimension n + 2 above the supported {MAX_DIMENSION}")
    constraints = data.get("constraints", [])
    if not (isinstance(constraints, list) and all(isinstance(c, str) for c in constraints)):
        raise InputError(f"{path}: field 'constraints' must be a list of expressions, got {constraints!r}")
    box = data.get("box", {})
    if not isinstance(box, dict):
        raise InputError(f"{path}: field 'box' must be an object of coordinate ranges")
    for name, bounds in box.items():
        pair = isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_finite_number, bounds))
        if not (pair and bounds[0] < bounds[1]):
            raise InputError(f"{path}: box range for {name!r} must be [lo, hi] with finite lo < hi, got {bounds!r}")


def load_structure_file(path: str) -> CatalogEntry:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported format {data.get('format')!r} (expected {FORMAT_VERSION})")
    family = data.get("family")
    if family not in _FAMILIES:
        raise InputError(f"{path}: unknown family {family!r}; known: {sorted(_FAMILIES)}")
    row = _FAMILIES[family]
    unknown = set(data) - _COMMON_FIELDS - row.fields
    if unknown:
        raise InputError(f"{path}: unknown fields {sorted(unknown)} (schema is closed)")
    missing = row.fields - set(data)
    if missing - _OPTIONAL_FIELDS:
        raise InputError(f"{path}: missing fields {sorted(missing)} for family {family!r}")
    _check_field_types(data, path)
    box = None
    if "box" in data:
        box = {k: (float(v[0]), float(v[1])) for k, v in data["box"].items()}
    constraints = tuple(data.get("constraints", ()))
    try:
        return row.build(data, box=box, key=data.get("key", family), seed=data.get("seed", 0), constraints=constraints)
    except (CatalogError, exprlang.ExprError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit_json(payload: Dict, out: Optional[str] = None) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _emit_text(text: str, out: Optional[str] = None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = standard_catalog()
    if args.action == "list":
        header = f"{'key':18s} {'family':14s} {'dim':>3s} {'holonomy':>8s}  description"
        print(header)
        print("-" * len(header))
        for e in entries.values():
            hol = e.expected.get("holonomy_dim")
            print(f"{e.key:18s} {e.family:14s} {e.dim:3d} {str(hol):>8s}  {e.description}")
        return EXIT_OK
    # emit
    if args.key not in entries:
        raise InputError(f"unknown catalog entry {args.key!r}; run 'catalog list'")
    _emit_json(structure_file_payload(entries[args.key]), args.path)
    return EXIT_OK


def _at_point(path: str, point: Sequence, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, which evaluates a structure at ``point``: an
    expression error there, such as a value beyond the float range, and a
    singular or non-Lorentzian metric name the file and the point, as a
    load error names the file."""
    try:
        return build(*args, **kwargs)
    except (exprlang.ExprError, SingularMetricError, SignatureError) as exc:
        raise InputError(f"{path}: the structure at ({', '.join(map(repr, point))}): {exc}") from exc


def _in_domain(path: str, build: Callable, *args):
    """``build(*args)``, which samples the defining function of the file
    ``path``: a sample off the family's domain (psi' <= 0), and an
    expression error at a sample, which names its point, are input errors
    naming the file."""
    try:
        return build(*args)
    except (NotIncreasingError, exprlang.ExprError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _check(name: str, ok: bool, **fields) -> Dict:
    return {"name": name, "status": "pass" if ok else "fail", **fields}


def _finite(reading) -> bool:
    """Every float and array in ``reading``, in the lists and tuples it holds
    and in the fields of its reports, is finite."""
    if isinstance(reading, (float, np.ndarray)):
        return bool(np.isfinite(reading).all())
    parts = reading if isinstance(reading, (list, tuple)) else getattr(reading, "__dict__", {}).values()
    return all(map(_finite, parts))


def _each_point(path: str, run: Callable, points: Sequence) -> Sequence[list]:
    """The readings of ``run(at)``, a tuple of them, at each of ``points``
    (at least one), as one list per reading, in point order.  They are one
    pass on lanes (``on_lanes``) where that pass gives readings whose every
    float and array is finite; otherwise ``run`` takes the points one by one,
    in point order, so that the first point that fails gives its own error,
    naming the file (``_at_point``), and a numpy warning of the one-by-one
    path is not hidden."""
    lanes = on_lanes(run, points)
    if lanes is not None and _finite(lanes):
        return lanes
    return [list(reading) for reading in zip(*(_at_point(path, p, run, p) for p in points))]


def _verify_checks(
    entry: CatalogEntry, tol: float, samples: int, seed: int, order: int, path: str
) -> Tuple[List[Dict], bool]:
    expected = entry.expected
    points = entry.sample_points(samples, seed)
    conformal = "conformally_flat" in expected
    # the curvature checks run at the first five points, from one Weyl
    # connection (depth order - 1) on lanes, one lane per point, which every
    # check reads lane by lane.  The other points check compatibility alone,
    # which reads only Christoffel values and dg: one depth-0 connection on
    # lanes serves them all.  Both passes go through one point rule
    # (_each_point), which takes the points one by one where a pass fails or
    # reads a value that is not finite.  The Weyl norms are taken after the
    # passes, outside the lanes' numpy error state, so that a numpy warning
    # there shows the same way on either path

    def curvature(at):
        conn = weyl_connection(entry.structure, at, order - 1)
        return (
            conn.compatibility_residual(),
            conn.recurrence(tol),
            conn.one_form_values,
            conn.holonomy(),
            conn.conformal_weyl() if conformal else None,
            ew_report(entry.structure, conn),
        )

    compat, reports, omegas, holonomies, weyls, ews = _each_point(path, curvature, points[:5])
    if points[5:]:
        residual = lambda at: (weyl_connection(entry.structure, at, 0).compatibility_residual(),)
        compat += _each_point(path, residual, points[5:])[0]

    worst, cut = max(compat), thresholds.COMPATIBILITY_TOL
    checks = [_check("metric_compatibility", worst <= cut, max_residual=worst, tolerance=cut)]

    recurrent = all(r.status == "ok" and r.recurrent for r in reports)
    ok = recurrent == expected["recurrent"]
    rec = {"recurrent": recurrent, "expected": expected["recurrent"], "max_residual": max(r.max_residual for r in reports)}
    if expected["is_preferred_rep"] and reports[0].theta is not None:
        rec["theta_plus_3omega"] = max(0.0, *(float(np.max(np.abs(r.theta + 3.0 * w))) for r, w in zip(reports, omegas)))
        ok = ok and not (rec["theta_plus_3omega"] > thresholds.PREFERRED_THETA_TOL and expected["recurrent"])
    if entry.preferred is not None:
        weight = _at_point(path, points[0], recurrence_theta, entry.preferred, points[0], tol=tol, jet_order=order).weight
        rec["weight_fit"] = weight
        ok = ok and weight is not None and not abs(weight - float(expected["weight"])) > thresholds.WEIGHT_TOL
    checks.append(_check("recurrence", ok, tolerance=tol, **rec))

    observed, span = sorted({h.span_dim for h in holonomies}), expected["holonomy_dim"]
    checks.append(_check("holonomy_span_dim", observed == [span], observed=observed, expected=span))

    if conformal:
        flat, worst = bool(expected["conformally_flat"]), max(c.norm() for c in weyls)
        ok = (worst <= thresholds.CONFORMALLY_FLAT) == flat
        checks.append(_check("conformal_flatness", ok, max_weyl_norm=worst, expected_flat=flat))

    worst = max(r.residual for r in ews)
    if expected["einstein_weyl"]:
        dkps = [abs(r.dkp_residual) for r in ews if r.dkp_residual is not None]
        dkp = {"max_dkp_residual": max(dkps)} if dkps else {}
        ok = worst <= thresholds.EINSTEIN_WEYL_TOL and not (dkps and max(dkps) > thresholds.DKP_TOL)
        checks.append(_check("einstein_weyl", ok, max_residual=worst, **dkp))
    else:
        checks.append(_check("not_einstein_weyl", worst > thresholds.NOT_EINSTEIN_WEYL, min_residual=worst))

    return checks, all(c["status"] == "pass" for c in checks)


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    if args.order < 3:
        raise InputError("--order must be >= 3 (curvature checks need third metric derivatives)")
    entry = load_structure_file(args.file)
    seed = entry.seed if args.seed is None else args.seed
    checks, ok = _verify_checks(entry, args.tol, args.samples, seed, args.order, args.file)
    report = {
        **_REPORT_HEAD,
        "input": os.path.basename(args.file),
        "input_digest": _digest(args.file),
        "family": entry.family,
        "key": entry.key,
        "seed": seed,
        "samples": args.samples,
        "tolerance": args.tol,
        "checks": checks,
        "pass": ok,
    }
    if args.timing:
        report["wall_time_ms"] = round(1000 * (time.monotonic() - t0), 3)
    _emit_json(report, args.json)
    print(f"wall time: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def cmd_invariants(args) -> int:
    entry = load_structure_file(args.file)
    try:
        vals = [float(v) for v in args.at.split(",")]
    except ValueError as exc:
        raise InputError(f"--at must be a number or X,U (two numbers), got {args.at!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise InputError(f"--at values must be finite, got {args.at!r}")
    row = _FAMILIES[entry.family]
    if row.invariants is None:
        raise InputError(f"invariants are not defined for family {entry.family!r}")
    if len(vals) != row.at_values:
        raise InputError(f"--at for family {entry.family!r} takes {row.at_values} value(s), got {len(vals)}: {args.at!r}")
    try:
        record = _in_domain(args.file, _at_point, args.file, vals, row.invariants, entry.params, *vals)
    except SingularStratumError as exc:
        record = {"at": vals if len(vals) > 1 else vals[0], "singular": str(exc)}
    _emit_json({"family": entry.family, **record}, args.json)
    return EXIT_OK


def _parse_range(text: str, flag: str = "--range") -> Tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise InputError(f"bad range {text!r} for {flag}; expected LO:HI") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError(f"{flag} must be LO:HI with finite LO < HI, got {text!r}")
    return lo, hi


def _check_numeric_flags(args) -> None:
    """The numeric-flag contract, checked before any file is read: --samples
    >= 1, --seed >= 0, a finite --tol > 0, and finite LO < HI in --range and
    --range2."""
    if getattr(args, "samples", 1) < 1:
        raise InputError("--samples must be >= 1")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be a finite number > 0, got {tol!r}")
    for flag in ("range", "range2"):
        if getattr(args, flag, None):
            _parse_range(getattr(args, flag), f"--{flag}")


def _range_for(entry: CatalogEntry, text: Optional[str], flag: str = "--range") -> Optional[Tuple[float, float]]:
    """The range LO:HI given on the command line as ``flag``, else the box
    range of the family's range coordinate; None for a family without one."""
    coord = _FAMILIES[entry.family].range_coord
    if coord is None:
        if text:
            raise InputError(f"{flag} does not apply to family {entry.family!r}: its curve samples the whole box")
        return None
    return _parse_range(text, flag) if text else entry.box[coord]


def _curve_for(entry: CatalogEntry, rng: Tuple[float, float], samples: int, path: str):
    """The family's signature curve of ``entry``, read from the file ``path``."""
    curve = _FAMILIES[entry.family].curve
    if curve is None:
        raise InputError(f"signature curves are not defined for family {entry.family!r}")
    return _in_domain(path, curve, entry, rng, samples)


def cmd_signature(args) -> int:
    entry = load_structure_file(args.file)
    rng = _range_for(entry, args.range)
    curve = _curve_for(entry, rng, args.samples, args.file)
    lines = [_FAMILIES[entry.family].csv_header]
    for i, (p, tup) in enumerate(zip(curve.params, curve.tuples)):
        # a sample is its parameter (a number or an (x, u) pair), its invariants and, on psi curves, its sign
        cells = (*(p if isinstance(p, tuple) else (p,)), *tup, *curve.signs[i : i + 1], 0)
        lines.append(",".join(map(repr, cells)))
    lines.append(f"# singular_samples_dropped,{curve.n_singular}")
    _emit_text("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def cmd_equiv(args) -> int:
    e1 = load_structure_file(args.file1)
    e2 = load_structure_file(args.file2)
    if e1.family != e2.family:
        raise InputError(f"cannot compare families {e1.family!r} and {e2.family!r}")
    r1 = _range_for(e1, args.range)
    r2 = _range_for(e2, args.range2 or args.range, "--range2" if args.range2 else "--range")
    c1 = _curve_for(e1, r1, args.samples, args.file1)
    c2 = _curve_for(e2, r2, args.samples, args.file2)
    verdict = equivalence_test(c1, c2, tol=args.tol)
    payload = {
        **_REPORT_HEAD,
        "verdict": verdict.verdict,
        "hausdorff": verdict.hausdorff,
        "discriminant_signs": [list(s) for s in verdict.signs],
        "reason": verdict.reason,
        "inputs": [os.path.basename(args.file1), os.path.basename(args.file2)],
        "input_digests": [_digest(args.file1), _digest(args.file2)],
    }
    _emit_json(payload, args.json)
    return EXIT_CHECKS_FAILED if verdict.verdict == "Unsampled" else EXIT_OK


def cmd_classify(args) -> int:
    entry = load_structure_file(args.file)
    classify = _FAMILIES[entry.family].classify
    if classify is None:
        raise InputError(f"classification needs a one-function or pair family input, got {entry.family!r}")
    result = _in_domain(args.file, classify, entry, _range_for(entry, None))
    payload = {
        **_REPORT_HEAD,
        "family": entry.family,
        "cohomogeneity": result.cohomogeneity,
        "kind": result.kind,
        "consistent": result.consistent,
        "kernel_dim": result.kernel.dim,
        "kernel_basis": [[float(x) for x in row] for row in result.kernel.basis],
        "kernel_singular_values": [float(v) for v in result.kernel.singular_values],
        "invariant_spread": result.invariant_spread,
        "input_digest": _digest(args.file),
    }
    if result.parameter is not None:
        payload["A"] = result.parameter
    _emit_json(payload, args.json)
    return EXIT_OK if result.consistent else EXIT_CHECKS_FAILED


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weylrec", description=__doc__)
    p.add_argument("--version", action="version", version=f"weylrec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="list the built-in models or emit one as a structure file")
    pcsub = pc.add_subparsers(dest="action", required=True)
    pcsub.add_parser("list", help="table of catalog entries")
    pe = pcsub.add_parser("emit", help="write a structure file for an entry")
    pe.add_argument("key")
    pe.add_argument("path", nargs="?", default=None)

    pv = sub.add_parser("verify", help="run the geometric checks on a structure file")
    pv.add_argument("file")
    pv.add_argument("--tol", type=float, default=thresholds.RECURRENCE_TOL, help="recurrence tolerance")
    pv.add_argument("--samples", type=int, default=20, help="sample-point count")
    pv.add_argument("--seed", type=int, default=None, help="sampling seed (default: the file's seed)")
    pv.add_argument("--order", type=int, default=3, help="metric jet order for the curvature checks (>= 3)")
    pv.add_argument("--json", default=None, help="write the report here instead of stdout")
    pv.add_argument("--timing", action="store_true", help="include wall time in the JSON report")

    pi = sub.add_parser("invariants", help="evaluate the generating invariants at a parameter value")
    pi.add_argument("file")
    pi.add_argument("--at", required=True, help="parameter value (or X,U for the two-variable family)")
    pi.add_argument("--json", default=None)

    ps = sub.add_parser("signature", help="sample a signature curve as CSV")
    ps.add_argument("file")
    ps.add_argument("--range", default=None, help="parameter range LO:HI")
    ps.add_argument("--samples", type=int, default=64)
    ps.add_argument("--csv", default=None, help="write CSV here instead of stdout")

    pq = sub.add_parser("equiv", help="decide local equivalence of two structure files")
    pq.add_argument("file1")
    pq.add_argument("file2")
    pq.add_argument("--range", default=None, help="parameter range for the first input")
    pq.add_argument("--range2", default=None, help="parameter range for the second input")
    pq.add_argument("--samples", type=int, default=64)
    pq.add_argument("--tol", type=float, default=thresholds.EQUIVALENCE_TOL)
    pq.add_argument("--json", default=None)

    pk = sub.add_parser("classify", help="cohomogeneity / normal-form classification")
    pk.add_argument("file")
    pk.add_argument("--json", default=None)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; ``parse_args``
    makes a fresh namespace on every call, so no state carries over."""
    return build_parser()


_DISPATCH = {
    "catalog": cmd_catalog,
    "verify": cmd_verify,
    "invariants": cmd_invariants,
    "signature": cmd_signature,
    "equiv": cmd_equiv,
    "classify": cmd_classify,
}


def _attach_range_values(argv: Sequence[str]) -> List[str]:
    """``--range LO:HI`` and ``--range2 LO:HI`` as ``--range=LO:HI``, so that
    argparse reads a negative LO as the flag's value, not as an option."""
    out: List[str] = []
    for token in argv:
        if out and out[-1] in ("--range", "--range2") and token.startswith("-") and ":" in token:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(_attach_range_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_numeric_flags(args)
        return _DISPATCH[args.command](args)
    except (InputError, exprlang.ExprError, CatalogError, NotIncreasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
