"""Each input is parsed once: one argparse parser per process, and one
``exprlang.parse`` per expression of a structure file per verb, however many
points a verb samples: the file's trees are the ones the verb computes with.
The parsed tree is the one a source string would give, so the results, float
bits included, do not depend on whether a caller passes the string or the
parsed ``Expr``.
"""

import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from weylrec import cli, exprlang
from weylrec.catalog import standard_catalog
from weylrec.invariants import pair_signature_curve, psi_signature_curve, surface_signature_curve
from weylrec.symmetry import classify_3d2, classify_psi

CLI_GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli_stdout.json"
# the cubic under a group element (t -> 2t, then a fractional-linear map): a
# longer source on the box t in [1.2, 3.6], the preimage of the cubic's box
CUBIC_GK_PSI = "(2*((0.5*t)^3+0.5*t)+1)/(((0.5*t)^3+0.5*t)+1)"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts ``exprlang.parse`` calls made through the module attribute."""
    calls = []
    original = exprlang.parse
    monkeypatch.setattr(exprlang, "parse", lambda source: calls.append(source) or original(source))
    return calls


@pytest.fixture
def files(tmp_path):
    cubic = tmp_path / "dim4-psi-cubic.json"
    assert run("catalog", "emit", "dim4-psi-cubic", str(cubic))[0] == 0
    gk = tmp_path / "cubic-gK.json"
    gk.write_text(
        json.dumps(
            {"format": 1, "family": "dim_ge4", "psi": CUBIC_GK_PSI, "n": 2, "key": "cubic-gK", "box": {"t": [1.2, 3.6]}}
        ),
        encoding="utf-8",
    )
    pair = tmp_path / "3d2-generic.json"
    assert run("catalog", "emit", "3d2-generic", str(pair))[0] == 0
    return {"cubic": str(cubic), "gk": str(gk), "pair": str(pair)}


# the expressions each file holds: psi, or the pair a and c
EXPRESSIONS = {"cubic": 1, "gk": 1, "pair": 2}


class TestOneParsePerExpression:
    @pytest.mark.parametrize(
        "argv",
        [["signature"], ["classify"], ["verify", "--samples", "6"], ["invariants", "--at", "1.05"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_one_input_verbs(self, files, parse_calls, argv, name):
        code, out, _ = run(argv[0], files[name], *argv[1:])
        assert code == 0 and out
        # each expression is parsed when the file is loaded, and the verb's
        # points (64, 16 + 11, or 6 geometry passes) evaluate that tree
        assert len(parse_calls) == EXPRESSIONS[name], parse_calls

    def test_equiv(self, files, parse_calls):
        code, out, _ = run("equiv", files["cubic"], files["gk"])
        assert code == 0 and json.loads(out)["verdict"] == "Equivalent"
        assert len(parse_calls) == 2 and CUBIC_GK_PSI in parse_calls, parse_calls


class TestOneParserPerProcess:
    def test_two_calls_build_one_parser(self, files, monkeypatch):
        builds = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
        cli._parser.cache_clear()
        try:
            assert run("invariants", files["cubic"], "--at", "1.1")[0] == 0
            assert run("signature", files["cubic"], "--samples", "4")[0] == 0
        finally:
            cli._parser.cache_clear()  # the next caller builds from the unpatched name
        assert len(builds) == 1

    def test_a_flag_does_not_carry_over_to_the_next_call(self, files):
        cli._parser.cache_clear()
        code, out, _ = run("verify", files["cubic"], "--samples", "2", "--timing")
        assert code == 0 and "wall_time_ms" in json.loads(out)
        code, out, _ = run("verify", files["cubic"], "--samples", "2")
        assert code == 0 and "wall_time_ms" not in json.loads(out)
        assert cli._parser.cache_info().hits >= 1  # the second call reused the parser

    def test_a_range_does_not_carry_over_to_the_next_call(self, files):
        golden = json.loads(CLI_GOLDENS.read_text(encoding="utf-8"))
        narrow = golden["equiv dim4-psi-cubic.json dim4-psi-cubic.json --range 0.6:1.0 --range2 1.2:1.8"]
        plain = golden["equiv dim4-psi-cubic.json dim4-psi-cubic.json"]
        cubic = files["cubic"]
        cli._parser.cache_clear()
        assert run("equiv", cubic, cubic, "--range", "0.6:1.0", "--range2", "1.2:1.8")[:2] == (
            narrow["exit"],
            narrow["stdout"],
        )
        assert run("equiv", cubic, cubic)[:2] == (plain["exit"], plain["stdout"])
        assert cli._parser.cache_info().hits >= 1


def _bits(value):
    """A comparable form of ``value`` that tells apart floats differing in any bit."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, np.ndarray):
        return ("a", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _bits(v)) for k, v in value.items()))
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__, tuple((k, _bits(getattr(value, k))) for k in value.__dataclass_fields__))
    return value


ENTRIES = standard_catalog()
PSI_KEYS = [key for key, e in ENTRIES.items() if "psi" in e.params]


def _sources(key, *names):
    """The source text of an entry's functions, as a structure file writes them."""
    return tuple(exprlang.to_source(ENTRIES[key].params[name]) for name in names)


CASES = [
    *[
        pytest.param(psi_signature_curve, _sources(k, "psi"), ENTRIES[k].box["t"], {}, id=f"psi-curve-{k}")
        for k in PSI_KEYS
    ],
    *[
        pytest.param(
            classify_psi, _sources(k, "psi"), (), {"interval": ENTRIES[k].box["t"]}, id=f"classify-psi-{k}"
        )
        for k in PSI_KEYS
    ],
    *[
        pytest.param(fn, _sources(k, "a", "c"), rest, kw, id=f"{fn.__name__}-{k}")
        for k in ("3d2-generic", "3d2-inv-u", "3d2-ew-model")
        for fn, rest, kw in (
            (pair_signature_curve, ENTRIES[k].box["u"], {}),
            (classify_3d2, (), {"interval": ENTRIES[k].box["u"]}),
        )
    ],
    *[
        pytest.param(
            surface_signature_curve, _sources(k, "F"), (ENTRIES[k].box["x"], ENTRIES[k].box["u"]), {},
            id=f"surface-curve-{k}",
        )
        for k in ("3d1-xu", "3d1-homog")
    ],
]


@pytest.mark.parametrize("fn,sources,rest,kwargs", CASES)
def test_source_and_parsed_expr_give_the_same_bits(parse_calls, fn, sources, rest, kwargs):
    parsed = [exprlang.parse(s) for s in sources]
    del parse_calls[:]
    from_expr = fn(*parsed, *rest, **kwargs)
    assert parse_calls == []
    from_source = fn(*sources, *rest, **kwargs)
    assert sorted(parse_calls) == sorted(sources)  # each source parsed once, not once per point
    assert _bits(from_source) == _bits(from_expr)
