"""Record the SHA-256 of stdout for every CLI operation the benchmark can issue.

    python3 benchmarks/record_goldens.py

Writes ``benchmarks/goldens.json``.  The benchmark reports a later drift from
these digests as the count ``cli.stdout_changed``, not as a failure.  Run it
only to re-baseline after an intended change of CLI output.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import run

run.hygiene()

from weylrec import standard_catalog  # noqa: E402
from workloads import AT_FRACTIONS, VERIFY_SEED_POOL, invariants_equiv_ops, verify_ops, write_structure_files  # noqa: E402


def main() -> int:
    entries = standard_catalog()
    workdir = run.make_workdir()
    try:
        paths = write_structure_files(workdir, entries)
        ops = {}
        for vseed in VERIFY_SEED_POOL:
            ops.update((op.label, op) for op in verify_ops(entries, paths, {key: vseed for key in entries}))
        for frac in AT_FRACTIONS:
            ops.update((op.label, op) for op in invariants_equiv_ops(entries, paths, {key: frac for key in entries}))
        digests = {}
        for label in sorted(ops):
            res = ops[label].call()
            ok, failed = ops[label].judge(res)
            if failed or not ok:
                print(f"warning: {label}: verdict_ok={ok} failed={failed}")
            digests[label] = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "goldens.json"
    path.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
