"""Tests of the benchmark's tracer and metric names.

    python3 -m pytest -q benchmarks/test_tracer.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.hygiene()

from tracer import Tracer  # noqa: E402
from workloads import run_cli  # noqa: E402


@pytest.fixture()
def structure_file():
    workdir = run.make_workdir()
    path = str(Path(workdir) / "dim4-psi-exp.json")
    assert run_cli(["catalog", "emit", "dim4-psi-exp", path]).code == 0
    yield path
    shutil.rmtree(workdir, ignore_errors=True)


def _traced_verify(path):
    with Tracer() as tr:
        res = run_cli(["verify", path])
    return res, dict(tr.calls), tr.mul_pairs


def test_verify_counts_repeat_and_stdout_is_unchanged(structure_file):
    plain = run_cli(["verify", structure_file])
    first, calls1, pairs1 = _traced_verify(structure_file)
    second, calls2, pairs2 = _traced_verify(structure_file)
    # 20 compatibility points plus 5 points each for recurrence, holonomy and
    # Einstein-Weyl; 2 metric_jets per connection (Weyl or Levi-Civita), one
    # more per compatibility point and one per metric_values of the checks
    assert calls1["tensor.connection_build"] == 35
    assert calls1["tensor.metric_jets"] == 115
    assert calls1 == calls2 and pairs1 == pairs2 > 0
    assert plain.code == first.code == 0
    assert plain.stdout.encode() == first.stdout.encode() == second.stdout.encode()


def test_wrappers_cover_names_imported_by_other_modules():
    from weylrec import cli, einsteinweyl, exprlang, jets, tensor

    originals = (tensor.recurrence_theta, einsteinweyl.weyl_connection, tensor.eval_jet, jets.JetPoly.__rmul__)
    with Tracer():
        assert cli.recurrence_theta is not originals[0]
        assert cli.recurrence_theta is tensor.recurrence_theta
        assert einsteinweyl.weyl_connection is tensor.weyl_connection
        assert einsteinweyl._curvature_jets is tensor._curvature_jets
        assert tensor.eval_jet is exprlang.eval_jet is not originals[2]
        assert jets.JetPoly.__rmul__ is jets.JetPoly.__mul__ is not originals[3]
    assert (tensor.recurrence_theta, einsteinweyl.weyl_connection, tensor.eval_jet, jets.JetPoly.__rmul__) == originals


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
