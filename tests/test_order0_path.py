"""Domain probes and chart constraints are evaluated on plain numbers: no
``exprlang.eval_jet`` call happens under ``catalog._probe`` or
``Chart.violated``, whether a catalog is built, a structure file is loaded
or a box is sampled.  Each probe is one pass on lanes: one
``exprlang.eval_number`` call for its whole grid, not one per grid point, for
every standard-catalog entry and for a structure file whose psi is a Möbius
image of a cubic.  A probe that fell back to its points one by one would
give the same answers, slower, so only a count sees it.
"""

import contextlib
import io
import json
import sys

import pytest

from weylrec import catalog, cli, exprlang
from weylrec.tensor import Chart

ORDER0_CALLERS = {catalog._probe.__code__, Chart.violated.__code__}


@pytest.fixture
def calls(monkeypatch):
    """Counts the guarded callers' calls, and the ``exprlang.eval_jet`` calls made under one of them."""
    counts = {"_probe": 0, "violated": 0, "eval_jet": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def eval_jet(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in ORDER0_CALLERS:
                counts["eval_jet"] += 1
                break
            frame = frame.f_back
        return original_eval_jet(*args, **kwargs)

    original_eval_jet = exprlang.eval_jet
    monkeypatch.setattr(exprlang, "eval_jet", eval_jet)
    monkeypatch.setattr(catalog, "_probe", counted("_probe", catalog._probe))
    monkeypatch.setattr(Chart, "violated", counted("violated", Chart.violated))
    return counts


def test_standard_catalog(calls):
    assert len(catalog.standard_catalog()) == 16
    assert calls["_probe"] > 0 and calls["violated"] > 0
    assert calls["eval_jet"] == 0


def test_load_structure_file(calls, tmp_path):
    path = tmp_path / "dim4-psi-exp.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "emit", "dim4-psi-exp", str(path)]) == 0
    calls.update(dict.fromkeys(calls, 0))
    assert cli.load_structure_file(str(path)).key == "dim4-psi-exp"
    assert calls["_probe"] > 0
    assert calls["eval_jet"] == 0


def test_sample_box(calls):
    entry = catalog.standard_catalog()["dim4-psi-exp"]
    calls.update(dict.fromkeys(calls, 0))
    assert len(catalog.sample_box(entry.structure.chart, entry.box, 20)) == 20
    assert calls["violated"] >= 20
    assert calls["eval_jet"] == 0


@pytest.fixture
def probe_passes(monkeypatch):
    """The ``exprlang.eval_number`` calls of each ``catalog._probe`` call, in
    call order; a call under ``Chart.violated`` (the chart filter) is not the probe's."""
    passes = []

    def probe(*args, **kwargs):
        passes.append(0)
        return original_probe(*args, **kwargs)

    def eval_number(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in ORDER0_CALLERS:
            frame = frame.f_back
        if frame is not None and frame.f_code is original_probe.__code__:
            passes[-1] += 1
        return original_eval_number(*args, **kwargs)

    original_probe, original_eval_number = catalog._probe, exprlang.eval_number
    monkeypatch.setattr(catalog, "_probe", probe)
    monkeypatch.setattr(exprlang, "eval_number", eval_number)
    return passes


def test_each_catalog_probe_is_one_pass(probe_passes):
    catalog.standard_catalog()
    # three probes for each of the nine dim_ge4 entries, one for each of the six 3D and normal-form entries
    assert probe_passes == [1] * 33


def test_each_probe_of_a_mobius_image_file_is_one_pass(probe_passes, tmp_path):
    """psi = (2y + 1) / (y + 3), y = w^3 + w, w = 2t - 3/5, on the preimage of the cubic's t box."""
    w = "(2*t+(-3/5))"
    y = f"({w}^3+{w})"
    path = tmp_path / "cubic-g0.json"
    payload = {"format": 1, "family": "dim_ge4", "psi": f"(2*{y}+(1))/(1*{y}+(3))", "n": 2, "key": "cubic-g0",
               "box": {"t": [0.6, 1.2]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.load_structure_file(str(path)).key == "cubic-g0"
    assert probe_passes == [1, 1, 1]
