"""Domain probes and chart constraints are evaluated on plain numbers: no
``exprlang.eval_jet`` call happens under ``catalog._probe`` or
``Chart.violated``, whether a catalog is built, a structure file is loaded
or a box is sampled.
"""

import contextlib
import io
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
