"""Golden contract for ``weylrec verify``: the stdout of every catalog entry,
byte for byte, at seeds 0 to 3 with the default jet order and at seed 0 with
``--order 5``.

The goldens in ``goldens/verify_stdout.json`` were recorded from the source
that defined the contract; a refactor of the geometry code must reproduce
them exactly.  To record them again (only when the report itself is meant to
change), run from the repository root::

    PYTHONPATH=src python tests/test_verify_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from weylrec.catalog import standard_catalog
from weylrec.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "verify_stdout.json"
RUNS = [(seed, 3) for seed in range(4)] + [(0, 5)]


def golden_label(key: str, seed: int, order: int) -> str:
    return f"{key} --seed {seed} --order {order}"


def verify_stdout(key: str, seed: int, order: int, workdir: str) -> str:
    """Emit ``key`` as ``<workdir>/<key>.json`` and return the stdout of verify on it."""
    path = str(Path(workdir) / f"{key}.json")
    assert main(["catalog", "emit", key, path]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", path, "--seed", str(seed), "--order", str(order)])
    assert code == 0  # every catalog entry is built to pass all of its checks
    return out.getvalue()


def _cases():
    return [(key, seed, order) for key in standard_catalog() for seed, order in RUNS]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_entry_and_run(goldens):
    assert sorted(goldens) == sorted(golden_label(*case) for case in _cases())


@pytest.mark.parametrize("key,seed,order", _cases(), ids=lambda v: str(v))
def test_verify_stdout_matches_golden(goldens, tmp_path, key, seed, order):
    got = verify_stdout(key, seed, order, str(tmp_path))
    assert got.encode("utf-8") == goldens[golden_label(key, seed, order)].encode("utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        recorded = {golden_label(*case): verify_stdout(*case, workdir) for case in _cases()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
