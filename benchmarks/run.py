"""weylrec benchmark: time to a verdict on four closed-loop workloads.

Usage, from the repository root:

    python3 benchmarks/run.py --workload verify_catalog --seed 0 --seconds 25 --trace 0

One process, one client, no threads: each operation is issued after the
previous one finished.  A run sets up the workload, makes one untimed warm-up
pass, then repeats whole passes until ``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs and prints the per-layer
metrics; the traced passes wrap weylrec's functions from ``tracer.py``.
Operation times are scaled to a reference machine speed (``SpeedProbe``).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
sample counts, wrong verdicts and the environment.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Reported times are scaled to a reference machine speed: measured time x
# CALIBRATION_REFERENCE_MS / the calibration kernel's time around it.
CALIBRATION_REFERENCE_MS = 0.3

E2E_METRICS = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verdict_ok": "ratio",
    "completed_ops": "ratio",
    "peak_rss_mb": "MB",
}

CATALOG_KEYS = (
    "dim4-psi-linear", "dim4-psi-exp", "dim4-psi-tan", "dim4-psi-log3", "dim4-psi-tanlog1", "dim4-psi-power2",
    "dim4-psi-cubic", "dim5-psi-exp", "dim6-psi-exp", "mainth-a0", "3d1-homog", "3d1-xu", "3d2-ew-model",
    "3d2-inv-u", "3d2-generic", "homog-n2",
)
CLI_VERBS = ("verify", "classify", "signature", "invariants", "equiv")
SELF_TIME_LAYERS = (  # tracer layers reported as "<layer>_ms"
    "cli.io", "catalog.build", "catalog.sample", "exprlang.eval_jet", "jets.mul", "jets.divide", "jets.compose",
    "tensor.metric_jets", "tensor.invert", "tensor.christoffel", "tensor.curvature", "tensor.nabla_R",
    "tensor.recurrence_fit", "tensor.holonomy", "tensor.conformal_weyl", "tensor.compat", "einsteinweyl.ew",
    "invariants.jet_from_expr", "invariants.invariants", "invariants.equivalence", "symmetry.kernel",
    "symmetry.classify",
)
CALL_COUNTS = {  # reported name -> tracer layer
    "exprlang.eval_jet_calls": "exprlang.eval_jet",
    "jets.mul_calls": "jets.mul",
    "jets.divide_calls": "jets.divide",
    "jets.compose_calls": "jets.compose",
    "tensor.connection_builds": "tensor.connection_build",
    "tensor.metric_jets_calls": "tensor.metric_jets",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"cli.{verb}_ms": "ms" for verb in CLI_VERBS}
    units.update({f"cli.verify.{key}_ms": "ms" for key in CATALOG_KEYS})
    units["cli.stdout_changed"] = "count"
    units.update({f"{layer}_ms": "ms" for layer in SELF_TIME_LAYERS})
    units.update({name: "count" for name in CALL_COUNTS})
    units["jets.mul_pairs"] = "count"
    units["jets.mul_useful_ratio"] = "ratio"
    units.update({f"sweep.d{d}.o{o}.recurrence_ms": "ms" for d in (4, 6, 8, 10) for o in (3, 5)})
    units["trace.overhead_ratio"] = "ratio"
    return units


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------


def calibration_kernel() -> dict:
    """Fixed pure-Python work shaped like a sparse jet product: dicts keyed by
    exponent tuples, degree-truncated pair loop, float multiply-add."""
    terms = {(i, j, k): 1.0 + 0.5 * i for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4}
    out: dict = {}
    for a1, c1 in terms.items():
        d1 = sum(a1)
        for a2, c2 in terms.items():
            if d1 + sum(a2) > 4:
                continue
            key = tuple(x + y for x, y in zip(a1, a2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


class SpeedProbe:
    """Tracks the host's current speed with the calibration kernel.

    On a shared host the speed of the same code drifts by up to about 2x within
    minutes, on a time scale longer than a run, so run-to-run spreads of raw
    times stay far above any useful bound.  Bracketing each measured interval
    by kernel runs and scaling it to the kernel's reference time removes that
    drift; the code under test never runs inside the kernel, so a change to
    weylrec moves the scaled times as much as the raw ones.
    """

    def __init__(self) -> None:
        self.last_ms = self.measure()

    @staticmethod
    def measure() -> float:
        clock = time.perf_counter
        best = math.inf
        for _ in range(2):
            start = clock()
            calibration_kernel()
            best = min(best, clock() - start)
        return 1000.0 * best

    def to_reference(self, elapsed: float) -> float:
        """Scale an interval that ended just now; measures the speed again."""
        before, self.last_ms = self.last_ms, self.measure()
        return elapsed * CALIBRATION_REFERENCE_MS / (0.5 * (before + self.last_ms))


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def hygiene() -> None:
    """Must run before numpy is imported (numpy links a threaded OpenBLAS)."""
    os.environ.pop("WEYL_SEED", None)  # it would silently override verify --seed
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def make_workdir() -> str:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def setup_only(workload: str, seed: int) -> int:
    """Child process of a set-up probe: build the inputs, say so, clean up."""
    workdir = make_workdir()
    try:
        from workloads import SETUP

        SETUP[workload](seed, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from starting a fresh interpreter to having the inputs ready.

    Not scaled to reference speed: right after a child process exits, the
    kernel runs slower than during the child, so scaling adds noise here."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed), "--seconds", "0"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
        times.append(elapsed)
    return times


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


class Record:
    """Outcomes of the timed operations of one run."""

    def __init__(self, goldens: Dict[str, str]):
        self.goldens = goldens
        self.latencies_ms: List[float] = []  # at reference speed when a SpeedProbe is given
        self.by_tag: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.verdict_ok = 0
        self.wrong: Dict[str, int] = defaultdict(int)
        self.pass_seconds: List[float] = []  # sum of raw operation times
        self.ref_pass_seconds: List[float] = []  # the same at reference speed
        self.pass_p90_ms: List[float] = []
        self.stdout_changed: List[int] = []


def run_pass(ops, record: Record, speed: Optional[SpeedProbe] = None) -> None:
    """Run one pass; with ``speed``, operation times are recorded at reference speed."""
    clock = time.perf_counter
    changed = 0
    total_ms = ref_total_ms = 0.0
    pass_ms = []
    for op in ops:
        start = clock()
        try:
            raw, error = op.call(), None
        except Exception:  # an operation that raises is counted, not fatal
            raw, error = None, traceback.format_exc()
        ms = 1000.0 * (clock() - start)
        total_ms += ms
        if speed is not None:
            ms = speed.to_reference(ms)
            ref_total_ms += ms
        record.attempted += 1
        record.latencies_ms.append(ms)
        pass_ms.append(ms)
        record.by_tag[op.kind].append(ms)
        if "key" in op.tags:
            record.by_tag[f"verify.{op.tags['key']}"].append(ms)
        if "dim" in op.tags and "order" in op.tags:
            record.by_tag[f"sweep.d{op.tags['dim']}.o{op.tags['order']}"].append(ms)
        if error is not None:
            ok, failed = False, True
            sys.stderr.write(f"operation {op.kind} {op.label} raised:\n{error}")
        else:
            ok, failed = op.judge(raw)
            stdout = getattr(raw, "stdout", None)
            if stdout is not None:
                digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
                changed += record.goldens.get(op.label) != digest
        record.failed += failed
        record.verdict_ok += ok
        if not ok:
            record.wrong[f"{op.kind} {op.label}"] += 1
    record.pass_seconds.append(total_ms / 1000.0)
    record.ref_pass_seconds.append(ref_total_ms / 1000.0)
    record.pass_p90_ms.append(p90(pass_ms))
    record.stdout_changed.append(changed)


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(record: Record, ops_per_pass: float, setup_s: List[float]) -> Dict[str, float]:
    """End-to-end metrics; operation times at reference speed."""
    lat = record.latencies_ms
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops_per_pass / statistics.median(record.ref_pass_seconds),
        "op_p50_ms": statistics.median(lat),
        # a pass has few slow operations, so the pooled p90 would sit on the
        # boundary between two of them; the median pass's p90 does not
        "op_p90_ms": statistics.median(record.pass_p90_ms),
        "verdict_ok": record.verdict_ok / record.attempted,
        "completed_ops": 1.0 - record.failed / record.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: Record, traced: Record, tracer_passes: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics; times at reference speed (a traced pass is scaled as a whole)."""

    def med(values):
        return statistics.median(values) if values else 0.0

    out: Dict[str, float] = {}
    for verb in CLI_VERBS:
        out[f"cli.{verb}_ms"] = med(untraced.by_tag.get(verb, []))
    for key in CATALOG_KEYS:
        out[f"cli.verify.{key}_ms"] = med(untraced.by_tag.get(f"verify.{key}", []))
    out["cli.stdout_changed"] = traced.stdout_changed[0]
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}_ms"] = med([1000.0 * p["self_s"].get(layer, 0.0) for p in tracer_passes])
    first = tracer_passes[0]  # counts are exact; the first traced pass has fixed inputs
    for name, layer in CALL_COUNTS.items():
        out[name] = first["calls"].get(layer, 0)
    out["jets.mul_pairs"] = first["mul_pairs"]
    out["jets.mul_useful_ratio"] = first["mul_useful_pairs"] / first["mul_pairs"] if first["mul_pairs"] else 0.0
    for d in (4, 6, 8, 10):
        for o in (3, 5):
            out[f"sweep.d{d}.o{o}.recurrence_ms"] = med(untraced.by_tag.get(f"sweep.d{d}.o{o}", []))
    traced_s = statistics.median(p["seconds"] for p in tracer_passes)
    out["trace.overhead_ratio"] = traced_s / statistics.median(untraced.ref_pass_seconds)
    return out


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weylrec" / "__init__.py").is_file():
        print(f"error: weylrec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hygiene()
    from workloads import SETUP, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    speed = SpeedProbe()
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    workdir = make_workdir()
    try:
        make_pass = SETUP[args.workload](args.seed, workdir)
        run_pass(make_pass(-1), Record(goldens))  # warm-up: fills lru caches
        untraced, traced = Record(goldens), Record(goldens)
        tracer_passes: List[Dict] = []
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            ops = make_pass(index)
            run_pass(ops, untraced, speed)
            if args.trace:
                from tracer import Tracer

                with Tracer() as tr:
                    run_pass(ops, traced)
                scale = speed.to_reference(1.0)  # bracketed by the untraced pass's last kernel run
                tracer_passes.append(
                    {"calls": dict(tr.calls), "self_s": {k: v * scale for k, v in tr.self_s.items()},
                     "seconds": traced.pass_seconds[-1] * scale,
                     "mul_pairs": tr.mul_pairs, "mul_useful_pairs": tr.mul_useful_pairs}
                )
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [untraced, traced] if args.trace else [untraced]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    wrong: Dict[str, int] = defaultdict(int)
    for r in records:
        for label, n in r.wrong.items():
            wrong[label] += n
    ops_per_pass = untraced.attempted / len(untraced.pass_seconds)
    if args.trace:
        values = per_layer(untraced, traced, tracer_passes)
        units = per_layer_units()
    else:
        values = end_to_end(untraced, ops_per_pass, setup_times)
        units = E2E_METRICS
    lat = untraced.latencies_ms
    cut = statistics.median(untraced.pass_p90_ms)
    above_p90 = sum(1 for v in lat if v > cut)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced.pass_seconds),
        "ops_per_pass": ops_per_pass,
        "latency_samples": len(lat),
        "samples_above_p90": above_p90,
        "p90_valid": above_p90 >= 10,
        "setup_samples": len(setup_times),
        "failed_ops": failed / attempted,
        "stdout_changed_per_pass": untraced.stdout_changed[0],
        "wrong_verdicts": dict(sorted(wrong.items())),
        "raw_ops_per_s": ops_per_pass / statistics.median(untraced.pass_seconds),
        "calibration_kernel_ms": speed.last_ms,
        "environment": environment(),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
