"""Golden contract for the CLI verbs other than ``verify``: ``catalog emit``,
``invariants``, ``signature``, ``equiv`` and ``classify``, each with its exit
code, stdout and ``error:`` line, including the verbs a family does not
support.

The goldens in ``goldens/cli_stdout.json`` were recorded from the source
that defined the contract; a refactor of the CLI must reproduce them exactly.
To record them again (only when an output is meant to change), run from the
repository root::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from weylrec.catalog import DIM_GE4, THREED_CASE1, THREED_CASE2, standard_catalog
from weylrec.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "cli_stdout.json"

# a fixed evaluation point per family, inside every entry's sampling box
AT = {DIM_GE4: "1.1", THREED_CASE1: "0.6,1.9", THREED_CASE2: "1.1"}
UNSUPPORTED = ("mainth-a0", "homog-n2")


def _cases():
    """Each case is an argv in which ``@key`` stands for the emitted file of ``key``."""
    catalog = standard_catalog()
    cases = [["catalog", "emit", key] for key in catalog]
    with_curves = [key for key, e in catalog.items() if e.family in AT]
    for key in with_curves:
        cases.append(["invariants", f"@{key}", "--at", AT[catalog[key].family]])
        cases.append(["signature", f"@{key}"])
        cases.append(["equiv", f"@{key}", f"@{key}"])
    # two stretches of the generic curve: a Distinct verdict
    cases.append(["equiv", "@dim4-psi-cubic", "@dim4-psi-cubic", "--range", "0.6:1.0", "--range2", "1.2:1.8"])
    cases += [["classify", f"@{key}"] for key, e in catalog.items() if e.family in (DIM_GE4, THREED_CASE2)]
    for key in UNSUPPORTED:
        cases += [["invariants", f"@{key}", "--at", "1.0"], ["signature", f"@{key}"], ["classify", f"@{key}"]]
    cases.append(["equiv", "@dim4-psi-exp", "@3d2-generic"])
    return cases


def golden_label(argv) -> str:
    return " ".join(f"{a[1:]}.json" if a.startswith("@") else a for a in argv)


def run_case(argv, workdir: str) -> dict:
    """Run one case in ``workdir``; return its exit code, stdout and ``error:`` lines."""
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            arg = str(Path(workdir) / f"{arg[1:]}.json")
            if not Path(arg).exists():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["catalog", "emit", Path(arg).stem, arg]) == 0
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return {"exit": code, "stdout": out.getvalue(), "errors": errors}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(golden_label(case) for case in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=golden_label)
def test_cli_output_matches_golden(goldens, tmp_path, argv):
    assert run_case(argv, str(tmp_path)) == goldens[golden_label(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        recorded = {golden_label(case): run_case(case, workdir) for case in _cases()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
