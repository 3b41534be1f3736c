"""End-to-end CLI tests: file formats, exit codes, determinism."""

import gc
import json
import time
import weakref
from pathlib import Path

import pytest

from weylrec import catalog, cli, thresholds
from weylrec.catalog import standard_catalog
from weylrec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def exp_file(tmp_path, capsys):
    path = tmp_path / "exp.json"
    code, _, _ = run(capsys, "catalog", "emit", "dim4-psi-exp", str(path))
    assert code == 0
    return str(path)


class TestCatalogCommand:
    def test_list_table(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "dim4-psi-exp" in out and "threed_case2" in out

    def test_emit_roundtrip(self, exp_file):
        data = json.loads(Path(exp_file).read_text(encoding="utf-8"))
        assert data["format"] == 1 and data["psi"] == "exp(t)" and data["n"] == 2

    def test_unknown_entry_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "emit", "nonexistent")
        assert code == 2 and "unknown catalog entry" in err


class TestVerifyCommand:
    def test_good_structure_passes(self, exp_file, capsys):
        code, out, _ = run(capsys, "verify", exp_file, "--samples", "6")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names["metric_compatibility"] == "pass"
        assert names["recurrence"] == "pass"
        assert names["holonomy_span_dim"] == "pass"
        assert names["conformal_flatness"] == "pass"

    def test_broken_compatibility_ode_fails(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "broken.json",
            {
                "format": 1,
                "family": "mainth",
                "F": "0-ln(u+x2)+0.1*u",
                "a": "0",
                "n": 2,
                "constraints": ["u+x2"],
            },
        )
        code, out, _ = run(capsys, "verify", path, "--samples", "6")
        assert code == 1
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["recurrence"] == "fail"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "malformed JSON" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "extra.json",
            {"format": 1, "family": "threed_case1", "F": "x*u", "surprise": True},
        )
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "unknown fields" in err

    def test_wrong_format_version(self, tmp_path, capsys):
        path = write_json(tmp_path / "v9.json", {"format": 9, "family": "threed_case1", "F": "x*u"})
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "unsupported format" in err

    def test_dimension_ten_passes(self, tmp_path, capsys):
        path = write_json(tmp_path / "d10.json", {"format": 1, "family": "dim_ge4", "psi": "exp(t)", "n": 8})
        code, out, _ = run(capsys, "verify", path, "--samples", "2")
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": "x"},
            {"seed": 1.5},
            {"n": "2"},
            {"branch": True},
            {"box": {"t": [1]}},
            {"box": {"t": [2, 1]}},
            {"box": {"t": [1, "2"]}},
            {"box": {"t": [1, float("inf")]}},
            {"box": {"t": [1, 10**400]}},
            {"box": [[1, 2]]},
            {"constraints": 5},
            {"constraints": "u"},
            {"constraints": [["u"]]},
            {"constraints": [5]},
        ],
    )
    def test_malformed_structure_field_exits_2(self, tmp_path, capsys, fields):
        payload = {"format": 1, "family": "dim_ge4", "psi": "exp(t)", "n": 2, **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "verify", str(path), "--samples", "2")
        assert code == 2 and "Traceback" not in err and "error:" in err

    def test_deterministic_output(self, exp_file, capsys):
        code1, out1, _ = run(capsys, "verify", exp_file, "--samples", "4")
        code2, out2, _ = run(capsys, "verify", exp_file, "--samples", "4")
        assert (code1, out1) == (code2, out2)

    # at 60 samples, 55 points check compatibility alone, on the depth-0 connection of plain numbers
    @pytest.mark.parametrize("samples", ["5", "60"])
    def test_einstein_weyl_entry_report(self, tmp_path, capsys, samples):
        code, _, _ = run(capsys, "catalog", "emit", "3d2-inv-u", str(tmp_path / "ew.json"))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(tmp_path / "ew.json"), "--samples", samples)
        assert code == 0
        report = json.loads(out)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["einstein_weyl"]["status"] == "pass"
        assert checks["einstein_weyl"]["max_dkp_residual"] <= 1e-10
        assert checks["recurrence"]["weight_fit"] == pytest.approx(2.5, abs=1e-6)
        assert checks["holonomy_span_dim"]["observed"] == [2]

    def test_one_connection_per_sample_point(self, exp_file, capsys, monkeypatch):
        """Every check at a curvature point reads one Weyl connection built at
        --order; the other 15 points check compatibility in one pass on
        lanes, which builds no connection point by point."""
        from weylrec import tensor

        depths, passes = [], []
        build, lanes = tensor.weyl_connection, cli.compatibility_residuals

        def counting_build(structure, point, depth=1):
            depths.append(depth)
            return build(structure, point, depth)

        def counting_lanes(structure, points):
            passes.append(len(points))
            return lanes(structure, points)

        monkeypatch.setattr(cli, "weyl_connection", counting_build)
        monkeypatch.setattr(tensor, "weyl_connection", counting_build)
        monkeypatch.setattr(cli, "compatibility_residuals", counting_lanes)
        code, _, _ = run(capsys, "verify", exp_file)
        assert code == 0
        assert (depths, passes) == ([2] * 5, [15])

    def test_each_connection_is_dropped_before_the_next_is_built(self, exp_file, capsys, monkeypatch):
        """verify keeps no connection past its point: when a curvature
        point's connection is built, and when the lane pass over the other
        points runs, none built at an earlier point is still alive."""
        build, lanes = cli.weyl_connection, cli.compatibility_residuals
        refs, alive = [], []

        def count_alive():
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))

        def tracking_build(structure, point, depth=1):
            count_alive()
            conn = build(structure, point, depth)
            refs.append(weakref.ref(conn))
            return conn

        def tracking_lanes(structure, points):
            count_alive()
            return lanes(structure, points)

        monkeypatch.setattr(cli, "weyl_connection", tracking_build)
        monkeypatch.setattr(cli, "compatibility_residuals", tracking_lanes)
        code, _, _ = run(capsys, "verify", exp_file)
        assert code == 0
        assert (len(refs), alive) == (5, [0] * 6)

    def test_order_floor_enforced(self, exp_file, capsys):
        code, _, err = run(capsys, "verify", exp_file, "--order", "2")
        assert code == 2 and "--order" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_floor_enforced(self, exp_file, capsys, samples):
        code, out, err = run(capsys, "verify", exp_file, "--samples", samples)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--samples" in err


class TestVerifyGates:
    """The verify gates that no catalog entry comes near: with the tolerance
    below every residual, the check they guard fails and so does the run."""

    @pytest.mark.parametrize(
        "key,tolerance,check,field",
        [
            ("dim4-psi-exp", "PREFERRED_THETA_TOL", "recurrence", "theta_plus_3omega"),
            ("3d2-inv-u", "WEIGHT_TOL", "recurrence", "weight_fit"),
            ("3d2-inv-u", "DKP_TOL", "einstein_weyl", "max_dkp_residual"),
        ],
    )
    def test_a_gate_below_every_residual_fails_its_check(self, tmp_path, capsys, monkeypatch, key, tolerance, check, field):
        path = str(tmp_path / f"{key}.json")
        assert run(capsys, "catalog", "emit", key, path)[0] == 0
        monkeypatch.setattr(thresholds, tolerance, -1.0)
        code, out, _ = run(capsys, "verify", path, "--samples", "4")
        report = json.loads(out)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert code == 1 and report["pass"] is False
        assert [c["name"] for c in failed] == [check] and field in failed[0]


class TestInvariantsCommand:
    def test_power_values(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"format": 1, "family": "dim_ge4", "psi": "t^2", "n": 2})
        code, out, _ = run(capsys, "invariants", path, "--at", "1.0")
        assert code == 0
        rec = json.loads(out)
        assert rec["I"] == pytest.approx(-1 / 3) and rec["J"] == 0.0 and rec["sign_D"] == -1

    def test_singular_stratum_reported(self, tmp_path, capsys):
        path = write_json(tmp_path / "lin.json", {"format": 1, "family": "dim_ge4", "psi": "t", "n": 2})
        code, out, _ = run(capsys, "invariants", path, "--at", "1.0")
        assert code == 0 and "singular" in json.loads(out)

    def test_pair_values(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "pair.json",
            {"format": 1, "family": "threed_case2", "a": "1/u", "c": "2/u^2", "constraints": ["u"]},
        )
        code, out, _ = run(capsys, "invariants", path, "--at", "1.0")
        rec = json.loads(out)
        assert (rec["I"], rec["J"], rec["K"]) == (-2.0, 2.0, -8.0)

    def test_surface_needs_two_values(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"format": 1, "family": "threed_case1", "F": "x*u"})
        code, _, err = run(capsys, "invariants", path, "--at", "1.0")
        assert code == 2
        code, out, _ = run(capsys, "invariants", path, "--at", "1.0,1.0")
        rec = json.loads(out)
        assert rec["I"] == pytest.approx(-2.0) and rec["J"] == pytest.approx(-2.0)


class TestSignatureCommand:
    def test_csv_format(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"format": 1, "family": "dim_ge4", "psi": "t^2", "n": 2})
        out_csv = tmp_path / "sig.csv"
        code, _, _ = run(capsys, "signature", path, "--range", "0.5:2", "--samples", "64", "--csv", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "param,I,J,sign_D,singular_flag"
        assert len(lines) == 66  # header + 64 samples + dropped-count comment
        first = lines[1].split(",")
        assert float(first[0]) == 0.5 and float(first[1]) == pytest.approx(-1 / 3)

    def test_pair_csv_header(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "pair.json",
            {"format": 1, "family": "threed_case2", "a": "exp(u)", "c": "u"},
        )
        code, out, _ = run(capsys, "signature", path, "--range", "0.5:1.5", "--samples", "8")
        assert code == 0 and out.splitlines()[0] == "param,I,J,K,singular_flag"


class TestEquivCommand:
    def test_pushforward_equivalent(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2})
        b = write_json(
            tmp_path / "b.json",
            {
                "format": 1,
                "family": "dim_ge4",
                "psi": "(2*((0.5*t)^3+0.5*t)+1)/(((0.5*t)^3+0.5*t)+1)",
                "n": 2,
                "box": {"t": [1.0, 4.0], "v": [-1, 1], "x1": [-1, 1], "u": [0.1, 1.2]},
            },
        )
        code, out, _ = run(capsys, "equiv", a, b, "--range", "0.5:2", "--range2", "1:4")
        assert code == 0 and json.loads(out)["verdict"] == "Equivalent"

    def test_distinct(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2})
        b = write_json(tmp_path / "b.json", {"format": 1, "family": "dim_ge4", "psi": "t^5+t", "n": 2})
        code, out, _ = run(capsys, "equiv", a, b, "--range", "0.5:2")
        assert json.loads(out)["verdict"] == "Distinct"

    def test_discriminant_signs_differ(self, tmp_path, capsys):
        """D < 0 along psi = t^3 + t and D > 0 along psi = t + t^(1/2): Distinct,
        with no Hausdorff distance."""
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2})
        b = write_json(tmp_path / "b.json", {"format": 1, "family": "dim_ge4", "psi": "t+t^(1/2)", "n": 2})
        code, out, err = run(capsys, "equiv", a, b, "--range", "0.6:1.8")
        rec = json.loads(out)
        assert (code, err) == (0, "")
        assert (rec["verdict"], rec["hausdorff"], rec["reason"]) == ("Distinct", None, "discriminant signs differ")
        assert rec["discriminant_signs"] == [[-1], [1]]

    def test_degenerate_reports_signs(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "exp(t)", "n": 2})
        b = write_json(
            tmp_path / "b.json",
            {
                "format": 1,
                "family": "dim_ge4",
                "psi": "tan(t)",
                "n": 2,
                "box": {"t": [0.5, 1.2], "v": [-1, 1], "x1": [-1, 1], "u": [0.2, 1.2]},
            },
        )
        code, out, _ = run(capsys, "equiv", a, b, "--range", "0.5:1.2")
        rec = json.loads(out)
        assert rec["verdict"] == "Degenerate"
        assert rec["discriminant_signs"] == [[-1], [1]]

    def test_family_mismatch(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2})
        b = write_json(tmp_path / "b.json", {"format": 1, "family": "threed_case1", "F": "x*u"})
        code, _, err = run(capsys, "equiv", a, b)
        assert code == 2 and "families" in err


class TestClassifyCommand:
    def test_power_family(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"format": 1, "family": "dim_ge4", "psi": "t^2", "n": 2})
        code, out, _ = run(capsys, "classify", path)
        rec = json.loads(out)
        assert code == 0
        assert rec["cohomogeneity"] == 1 and rec["kind"] == "Power"
        assert rec["A"] == pytest.approx(2.0, abs=1e-6)

    def test_pair_family(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "pair.json",
            {"format": 1, "family": "threed_case2", "a": "1/u", "c": "2/u^2", "constraints": ["u"]},
        )
        code, out, _ = run(capsys, "classify", path)
        rec = json.loads(out)
        assert rec["kind"] == "OneSymmetry3D2" and rec["cohomogeneity"] == 2

    @pytest.mark.parametrize("psi", ["exp(12*t)", "exp(15*t)"])
    def test_cohomogeneity_is_never_negative(self, tmp_path, capsys, psi):
        """The sampled symmetry system of exp(k t) is so badly scaled at k = 12
        and 15 that its numerical kernel had dimension 3 and 4, and classify
        printed a cohomogeneity of -1 and -2; a kernel that no kind has gets none."""
        path = write_json(tmp_path / "e.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, _ = run(capsys, "classify", path)
        rec = json.loads(out)
        if rec["kernel_dim"] > 2:
            assert (code, rec["cohomogeneity"], rec["kind"]) == (1, None, "Inconsistent")
        else:
            assert rec["cohomogeneity"] == 2 - rec["kernel_dim"]

    def test_unsupported_family_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "h.json", {"format": 1, "family": "homogeneous", "n": 2})
        code, _, err = run(capsys, "classify", path)
        assert code == 2 and "classification" in err


class TestConstructorErrorsSurface:
    @pytest.mark.parametrize("psi", ["0-t", "-t"])
    def test_decreasing_psi_reported(self, tmp_path, capsys, psi):
        path = write_json(tmp_path / "bad.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, err = run(capsys, "verify", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: psi'(t) must be positive on the domain; ") and err.count("\n") == 1

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"format": 1, "family": "dim_ge4", "psi": "2t", "n": 2})
        code, _, err = run(capsys, "verify", path)
        assert code == 2


class TestInputContract:
    """Bad values in a structure file or on the command line end in an
    ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize("at", ["abc", "", "1,,2", "1.0,x"])
    def test_bad_at_exits_2(self, exp_file, capsys, at):
        code, out, err = run(capsys, "invariants", exp_file, "--at", at)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--at" in err

    @pytest.mark.parametrize(
        "key,at",
        [("dim4-psi-exp", "1.1,7"), ("dim4-psi-exp", "1.1,7,9"), ("3d2-generic", "1.1,2"), ("3d1-xu", "0.6,1.9,3")],
    )
    def test_more_at_values_than_the_family_reads_exit_2(self, tmp_path, capsys, key, at):
        path = str(tmp_path / f"{key}.json")
        assert run(capsys, "catalog", "emit", key, path)[0] == 0
        code, out, err = run(capsys, "invariants", path, "--at", at)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--at" in err and "value(s)" in err

    @pytest.mark.parametrize("key", ["mainth-a0", "homog-n2"])
    def test_unsupported_family_is_reported_before_the_value_count(self, tmp_path, capsys, key):
        path = str(tmp_path / f"{key}.json")
        assert run(capsys, "catalog", "emit", key, path)[0] == 0
        code, out, err = run(capsys, "invariants", path, "--at", "1,2,3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not defined for family" in err

    @pytest.mark.parametrize(
        "key,constraints",
        [("dim4-psi-exp", ["0-1"]), ("dim4-psi-exp", []), ("dim4-psi-exp", ["exp(t)"]), ("homog-n2", []), ("homog-n2", ["u"])],
    )
    def test_constraints_that_differ_from_the_derived_ones_exit_2(self, tmp_path, capsys, key, constraints):
        """dim_ge4 and homogeneous build their own constraints; a file that
        lists others is an input error, not silently dropped."""
        path = tmp_path / f"{key}.json"
        assert run(capsys, "catalog", "emit", key, str(path))[0] == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        data["constraints"] = constraints
        code, out, err = run(capsys, "verify", write_json(path, data), "--samples", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "derives its constraints" in err

    def test_derived_constraints_in_another_order_and_spelling_pass(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "exp.json",
            {"format": 1, "family": "dim_ge4", "psi": "exp(t)", "n": 2, "constraints": ["u + exp(t)", "exp(t)"]},
        )
        code, out, _ = run(capsys, "verify", path, "--samples", "2")
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "constructor,payload",
        [
            ("make_dim_ge4", {"family": "dim_ge4", "psi": "exp(t)"}),
            ("make_mainth_form", {"family": "mainth", "F": "0-ln(u+x2)", "a": "0", "constraints": ["u+x2"]}),
            ("make_homogeneous_model", {"family": "homogeneous"}),
        ],
    )
    @pytest.mark.parametrize("n", [23, 10**9])
    def test_dimension_above_the_ceiling_is_refused_before_construction(
        self, tmp_path, capsys, monkeypatch, constructor, payload, n
    ):
        """A structure file whose dimension n + 2 exceeds 24 never reaches the
        family constructor, which would allocate d^2 entries before failing."""
        monkeypatch.setattr(cli, constructor, lambda *a, **k: pytest.fail(f"{constructor} called with n = {n}"))
        path = write_json(tmp_path / "big.json", {"format": 1, "n": n, **payload})
        code, out, err = run(capsys, "verify", path, "--samples", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'n'" in err and "24" in err

    @pytest.mark.parametrize(
        "payload,message",
        [
            (None, "cannot read "),
            ([1, 2], "top level must be a JSON object"),
            ({"format": 1, "family": "dim_ge9", "psi": "t"}, "unknown family 'dim_ge9'"),
            ({"format": 1, "family": "threed_case2", "a": "u"}, "missing fields ['c'] for family 'threed_case2'"),
        ],
        ids=["unreadable", "json-array", "unknown-family", "missing-field"],
    )
    def test_a_file_that_is_not_a_structure_exits_2(self, tmp_path, capsys, payload, message):
        path = str(tmp_path / "no-such-file.json") if payload is None else write_json(tmp_path / "s.json", payload)
        code, out, err = run(capsys, "verify", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    def test_dimension_at_the_ceiling_is_built(self, tmp_path):
        path = write_json(tmp_path / "d24.json", {"format": 1, "family": "homogeneous", "n": 22})
        assert cli.load_structure_file(path).dim == cli.MAX_DIMENSION == 24

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "emit", "dim4-psi-exp", "{missing}/x.json"],
            ["verify", "@", "--samples", "2", "--json", "{missing}/r.json"],
            ["signature", "@", "--samples", "4", "--csv", "{missing}/c.csv"],
        ],
        ids=["catalog-emit", "verify-json", "signature-csv"],
    )
    def test_output_path_in_a_missing_directory_exits_2(self, exp_file, tmp_path, capsys, argv):
        missing = tmp_path / "no" / "such" / "dir"
        argv = [exp_file if a == "@" else a.format(missing=missing) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cannot write" in err and str(missing) in err


class TestNumericFlagContract:
    """Finite --at and --range / --range2 with LO < HI, --samples >= 1 and a
    finite --tol > 0; anything else is an ``error:`` line naming the flag and
    exit 2, never a traceback, a silent accept or a failed check."""

    @pytest.mark.parametrize("at", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_at_exits_2(self, exp_file, capsys, at):
        code, out, err = run(capsys, "invariants", exp_file, f"--at={at}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--at" in err

    def test_non_finite_second_at_value_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "xu.json")
        assert run(capsys, "catalog", "emit", "3d1-xu", path)[0] == 0
        code, out, err = run(capsys, "invariants", path, "--at", "0.6,nan")
        assert code == 2 and out == "" and err.startswith("error:") and "--at" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["signature", "@", "--range", "0:1e400"], "--range"),
            (["signature", "@", "--range", "2:1"], "--range"),
            (["signature", "@", "--range", "1:1"], "--range"),
            (["equiv", "@", "@", "--range", "nan:1"], "--range"),
            (["equiv", "@", "@", "--range2", "1:-inf"], "--range2"),
            (["equiv", "@", "@", "--range2", "1:x"], "--range2"),
            (["signature", "@", "--samples", "0"], "--samples"),
            (["signature", "@", "--samples", "-3"], "--samples"),
            (["equiv", "@", "@", "--samples", "0"], "--samples"),
            (["equiv", "@", "@", "--tol", "nan"], "--tol"),
            (["equiv", "@", "@", "--tol", "-1"], "--tol"),
            (["equiv", "@", "@", "--tol", "0"], "--tol"),
            (["equiv", "@", "@", "--tol", "inf"], "--tol"),
            (["verify", "@", "--tol", "nan"], "--tol"),
            (["verify", "@", "--tol", "-1"], "--tol"),
        ],
    )
    def test_bad_numeric_flag_exits_2(self, exp_file, capsys, argv, flag):
        code, out, err = run(capsys, *[exp_file if a == "@" else a for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize(
        "argv", [["invariants", "@", "--at", "0.1"], ["signature", "@", "--range", "0.1:2", "--samples", "3"]]
    )
    def test_non_increasing_psi_at_a_requested_parameter_exits_2(self, tmp_path, capsys, argv):
        """psi = t^3 - t is increasing on its box t in [1, 2], not at t = 0.1."""
        path = write_json(
            tmp_path / "cubic.json",
            {"format": 1, "family": "dim_ge4", "psi": "t^3-t", "n": 2, "box": {"t": [1, 2]}},
        )
        code, out, err = run(capsys, *[path if a == "@" else a for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "positive derivative" in err and "t = 0.1" in err


class TestSeedRule:
    """The sampling seed is the structure file's ``seed``, which ``verify
    --seed`` overrides; both must be >= 0."""

    @staticmethod
    def emit_with_seed(tmp_path, capsys, seed):
        path = tmp_path / f"seed{seed}.json"
        assert run(capsys, "catalog", "emit", "dim4-psi-exp", str(path))[0] == 0
        return write_json(path, {**json.loads(path.read_text(encoding="utf-8")), "seed": seed})

    @pytest.mark.parametrize("verb", ["verify", "classify"])
    def test_negative_file_seed_exits_2(self, tmp_path, capsys, verb):
        code, out, err = run(capsys, verb, self.emit_with_seed(tmp_path, capsys, -5))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and "'seed'" in err

    def test_negative_seed_flag_exits_2_before_the_file_is_read(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"), "--seed", "-2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--seed" in err

    def test_file_seed_is_the_default_and_the_flag_overrides_it(self, tmp_path, capsys):
        path = self.emit_with_seed(tmp_path, capsys, 3)
        _, from_file, _ = run(capsys, "verify", path, "--samples", "4")
        _, from_flag, _ = run(capsys, "verify", path, "--samples", "4", "--seed", "3")
        _, overridden, _ = run(capsys, "verify", path, "--samples", "4", "--seed", "1")
        assert from_file == from_flag and json.loads(from_file)["seed"] == 3
        assert json.loads(overridden)["seed"] == 1


class TestNegativeRangeStart:
    """``--range -1:2`` reads like ``--range=-1:2``: argparse would take a
    value starting with '-' for an option and stop with 'expected one argument'."""

    @pytest.fixture
    def generic_file(self, tmp_path, capsys):
        path = str(tmp_path / "generic.json")
        assert run(capsys, "catalog", "emit", "3d2-generic", path)[0] == 0
        return path

    def test_signature_range(self, generic_file, capsys):
        joined = run(capsys, "signature", generic_file, "--range=-1:2", "--samples", "4")
        spaced = run(capsys, "signature", generic_file, "--range", "-1:2", "--samples", "4")
        assert joined[0] == 0 and joined[1].splitlines()[1].startswith("-1.0,")
        assert spaced == joined

    def test_equiv_range_and_range2(self, generic_file, capsys):
        joined = run(capsys, "equiv", generic_file, generic_file, "--range=-1:2", "--range2=-0.5:1.5", "--samples", "8")
        spaced = run(capsys, "equiv", generic_file, generic_file, "--range", "-1:2", "--range2", "-0.5:1.5", "--samples", "8")
        assert joined[0] == 0 and json.loads(joined[1])["verdict"]
        assert spaced == joined

    def test_an_option_after_range_is_still_an_option(self, generic_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["signature", generic_file, "--range", "--samples", "4"])
        assert info.value.code == 2
        assert "argument --range: expected one argument" in capsys.readouterr().err

    def test_attach_only_range_values(self):
        argv = ["equiv", "a", "b", "--range", "-1:2", "--range2", "-2:-1", "--tol", "-1", "--samples", "-3"]
        assert cli._attach_range_values(argv) == ["equiv", "a", "b", "--range=-1:2", "--range2=-2:-1", "--tol", "-1", "--samples", "-3"]


class TestInputErrorText:
    """Errors a verb finds in its input reach stderr through ``main``'s one
    ``error:`` path, with exit 2."""

    def test_unknown_catalog_entry(self, capsys):
        assert run(capsys, "catalog", "emit", "nonexistent") == (2, "", "error: unknown catalog entry 'nonexistent'; run 'catalog list'\n")

    def test_equiv_family_mismatch(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2})
        b = write_json(tmp_path / "b.json", {"format": 1, "family": "threed_case1", "F": "x*u"})
        assert run(capsys, "equiv", a, b) == (2, "", "error: cannot compare families 'dim_ge4' and 'threed_case1'\n")

    def test_classify_unsupported_family(self, tmp_path, capsys):
        path = write_json(tmp_path / "h.json", {"format": 1, "family": "homogeneous", "n": 2})
        want = "error: classification needs a one-function or pair family input, got 'homogeneous'\n"
        assert run(capsys, "classify", path) == (2, "", want)

    @pytest.mark.parametrize(
        "verb,files,flags",
        [
            ("signature", ["bad"], ["--range", "-1:2", "--samples", "4"]),
            ("equiv", ["bad", "good"], ["--range", "-1:2", "--samples", "4"]),
            ("equiv", ["good", "bad"], ["--range", "-1:2", "--samples", "4"]),
            ("invariants", ["bad"], ["--at=-1"]),
        ],
        ids=["signature", "equiv-first", "equiv-second", "invariants"],
    )
    def test_a_sample_with_psi_prime_not_positive_names_its_file(self, tmp_path, capsys, verb, files, flags):
        """psi = t^2 + t has psi' = -1 at t = -1, the first sample of -1:2
        and the point of --at=-1; the error names the file whose curve has
        that sample, or whose invariants are asked for there."""
        paths = {
            "bad": write_json(tmp_path / "bad.json", {"format": 1, "family": "dim_ge4", "psi": "t*t+t", "n": 2}),
            "good": write_json(tmp_path / "good.json", {"format": 1, "family": "dim_ge4", "psi": "t^3+t", "n": 2}),
        }
        want = f"error: {paths['bad']}: the defining function must have positive derivative (got -1.0 at t = -1.0)\n"
        assert run(capsys, verb, *(paths[f] for f in files), *flags) == (2, "", want)


class TestWholeBoxCurveRange:
    """A threed_case1 signature samples the whole (x, u) box, so a --range or
    --range2 on such a file is an input error, not a flag silently ignored."""

    @pytest.fixture
    def xu_file(self, tmp_path, capsys):
        path = str(tmp_path / "xu.json")
        assert run(capsys, "catalog", "emit", "3d1-xu", path)[0] == 0
        return path

    def test_signature_range(self, xu_file, capsys):
        want = "error: --range does not apply to family 'threed_case1': its curve samples the whole box\n"
        assert run(capsys, "signature", xu_file, "--range", "5:9", "--samples", "4") == (2, "", want)

    def test_equiv_range_and_range2(self, xu_file, capsys):
        for flag in ("--range", "--range2"):
            want = f"error: {flag} does not apply to family 'threed_case1': its curve samples the whole box\n"
            assert run(capsys, "equiv", xu_file, xu_file, flag, "0:1", "--samples", "4") == (2, "", want)


def test_box_coordinate_the_chart_lacks_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "xu.json"
    assert run(capsys, "catalog", "emit", "3d1-xu", str(path))[0] == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data["box"]["zz"] = [0, 1]
    write_json(path, data)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: box names 'zz', not a coordinate of the chart ('v', 'x', 'u')\n"


@pytest.fixture(scope="module")
def entries():
    return standard_catalog()


class TestFamilyTable:
    def test_one_row_per_family_and_a_catalog_entry_per_row(self, entries):
        tags = {
            catalog.DIM_GE4,
            catalog.MAINTH_FORM,
            catalog.THREED_CASE1,
            catalog.THREED_CASE2,
            catalog.HOMOGENEOUS_MODEL,
        }
        assert set(cli._FAMILIES) == tags == {e.family for e in entries.values()}

    def test_row_fields_are_the_entry_params(self, entries):
        for entry in entries.values():
            assert set(entry.params) == cli._FAMILIES[entry.family].fields, entry.key

    @pytest.mark.parametrize("key", list(standard_catalog()))
    def test_structure_file_round_trip(self, entries, tmp_path, key):
        entry = entries[key]
        back = cli.load_structure_file(write_json(tmp_path / f"{key}.json", cli.structure_file_payload(entry)))
        assert (back.family, back.key, back.params, back.box, back.seed) == (
            entry.family,
            entry.key,
            entry.params,
            entry.box,
            entry.seed,
        )

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("make_dim_ge4", ["verify", "@", "--samples", "1"]),
            ("psi_invariants", ["invariants", "@", "--at", "1.1"]),
            ("psi_signature_curve", ["signature", "@", "--samples", "4"]),
            ("classify_psi", ["classify", "@"]),
        ],
    )
    def test_rows_call_the_module_level_function(self, exp_file, capsys, monkeypatch, name, argv):
        # a wrapper installed on the module name (as a profiler does) sees every call
        calls = []
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(name) or original(*a, **k))
        code, _, _ = run(capsys, *[exp_file if a == "@" else a for a in argv])
        assert code in (0, 1) and calls


class TestHardInputEndsCleanly:
    """Structure files that used to hang or end in a traceback."""

    def test_huge_integer_power_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "pow.json", {"format": 1, "family": "dim_ge4", "psi": "t^100000+t", "n": 2})
        start = time.perf_counter()
        code, out, err = run(capsys, "signature", path, "--samples", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        # psi itself is probed before psi', so the error names the power the file wrote
        assert err == f"error: {path}: '^': integer power 100000 exceeds the limit of 1000 in modulus\n"

    # every verb of a dim_ge4 file; verify at 6 points, so that the deep trees stay quick
    VERBS = [["verify", "--samples", "6"], ["signature", "--samples", "8"], ["classify"], ["invariants", "--at", "1.05"]]

    @pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
    def test_an_expression_at_the_depth_limit_runs_every_verb(self, tmp_path, capsys, argv):
        # k pairs of parentheses around a sum of m terms: k + 1 constructs open at once, a tree m levels deep
        parens = thresholds.EXPRESSION_DEPTH_LIMIT // 2
        psi = "(" * parens + "+".join(["t"] * (thresholds.EXPRESSION_DEPTH_LIMIT - parens)) + ")" * parens
        path = write_json(tmp_path / "deep.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 0 and out
        assert err.startswith("wall time") if argv[0] == "verify" else err == ""

    @pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("shape", ["parentheses", "sum"])
    def test_an_expression_beyond_the_depth_limit_is_an_input_error(self, tmp_path, capsys, argv, shape):
        depth = thresholds.EXPRESSION_DEPTH_LIMIT + 1
        psi = "(" * (depth - 1) + "t" + ")" * (depth - 1) if shape == "parentheses" else "+".join(["t"] * depth)
        path = write_json(tmp_path / "deep.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: {path}: expression nested more than {thresholds.EXPRESSION_DEPTH_LIMIT} levels deep\n"

    @pytest.mark.parametrize(
        "argv", [["invariants", "--at", "1.0"], ["signature", "--samples", "4"], ["equiv", "@", "--samples", "4"], ["classify"]]
    )
    def test_discriminant_power_that_rounds_to_zero_is_singular(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "tiny.json", {"format": 1, "family": "dim_ge4", "psi": "t+1e-110*t^3", "n": 2})
        code, out, err = run(capsys, argv[0], path, *[path if a == "@" else a for a in argv[1:]])
        assert code == 0 and err == ""
        if argv[0] == "invariants":
            assert json.loads(out)["singular"] == "a power of the discriminant rounds to 0 (homogeneous stratum)"

    @pytest.mark.parametrize(
        "psi,argv",
        [
            ("exp(800*t)", ["verify"]),
            ("exp(800*t)", ["signature"]),
            ("exp(710*t)", ["invariants", "--at", "1.05"]),
        ],
    )
    def test_exp_overflow_is_an_input_error(self, tmp_path, capsys, psi, argv):
        path = write_json(tmp_path / "big.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: {path}: exp: overflow\n"

    @pytest.mark.parametrize(
        "argv", [["invariants", "--at", "1.85"], ["signature", "--range", "1.6:1.88", "--samples", "8"], ["signature"]]
    )
    def test_float_power_that_overflows_in_the_invariants_is_singular(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "tower.json", {"format": 1, "family": "dim_ge4", "psi": "exp(exp(exp(t)))", "n": 2})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 0 and err == ""
        if argv[0] == "invariants":
            assert json.loads(out)["singular"] == "a power of the jet entries overflows the float range"
        elif "--range" in argv:
            assert out.splitlines()[-1] == "# singular_samples_dropped,8"

    def test_float_power_that_overflows_in_the_symmetry_system_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "tower.json", {"format": 1, "family": "dim_ge4", "psi": "exp(exp(exp(t)))", "n": 2})
        code, out, err = run(capsys, "classify", path)
        assert code == 2 and out == ""
        assert err.startswith("error: the symmetry row of psi(t) at t = ") and err.endswith(": overflow\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize(
        "psi,node",
        [
            ("t+10^400", "'+'"),  # an exact value that float() refuses
            ("t+exp(10^400)", "exp"),
            ("((1e-8/(1e3/t))*(-700^700))+t", "'*'"),
        ],
    )
    def test_a_value_beyond_the_float_range_is_an_input_error_in_every_verb(self, tmp_path, capsys, psi, node, argv):
        path = write_json(tmp_path / "big.json", {"format": 1, "family": "dim_ge4", "psi": psi, "n": 2})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: {path}: {node}: overflow\n"

    @pytest.mark.parametrize(
        "payload,argv,message",
        [
            # psi = (3 + sqrt(0.5))^1000 + t is inf at every sample, and inf is not a finite row
            ({"family": "dim_ge4", "psi": "((3+sqrt(0.5))^1e3)+t", "n": 2}, ["classify"], "the symmetry row of psi(t) at t = "),
            ({"family": "threed_case2", "a": "u", "c": "10^400"}, ["classify"], "the symmetry row of c(u) at u = "),
            # the overflow is met while the metric is evaluated at the first sample point
            ({"family": "threed_case2", "a": "u", "c": "10^400"}, ["verify"], "{path}: the structure at ("),
        ],
        ids=["psi-inf-classify", "c-exact-classify", "c-exact-verify"],
    )
    def test_an_exact_or_infinite_value_beyond_the_float_range_is_an_input_error(
        self, tmp_path, capsys, payload, argv, message
    ):
        path = write_json(tmp_path / "big.json", {"format": 1, **payload})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message.format(path=path)}") and err.endswith("overflow\n") and err.count("\n") == 1

    # a(u) = exp(460 u): a^2 in the metric is beyond the float range, and so are
    # the fourth and fifth powers of a the pair invariants take
    BIG_A = {"format": 1, "family": "threed_case2", "a": "exp(460*u)", "c": "u", "box": {"u": [1.2, 1.5]}}

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify"], 2),
            (["signature"], 0),
            (["invariants", "--at", "1.3"], 0),
            (["classify"], 1),  # every evidence sample overflows: no kind is supported
            (["equiv", "@"], 1),  # the same: no evidence on either side, so Unsampled
        ],
        ids=lambda x: x[0] if isinstance(x, list) else None,
    )
    def test_pair_beyond_the_float_range_ends_cleanly_in_every_verb(self, tmp_path, capsys, argv, code):
        path = write_json(tmp_path / "big.json", self.BIG_A)
        got, out, err = run(capsys, argv[0], path, *[path if a == "@" else a for a in argv[1:]])
        assert got == code
        if argv[0] == "verify":  # the overflowing metric has no negative direction
            assert out == "" and err.startswith("error: metric has signature with 0 negative directions at (")
            assert err.count("\n") == 1
        else:
            assert err == ""
        if argv[0] == "invariants":
            assert json.loads(out)["singular"] == "a power of the jet entries overflows the float range"
        if argv[0] == "signature":
            assert out.splitlines()[-1] == "# singular_samples_dropped,64"
        if argv[0] == "classify":
            report = json.loads(out)
            assert report["kind"] == "Inconsistent" and report["consistent"] is False
        if argv[0] == "equiv":
            report = json.loads(out)
            assert report["verdict"] == "Unsampled" and report["hausdorff"] is None
            assert report["reason"].startswith("input 1 and input 2: ")

    def test_pair_symmetry_row_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "big.json", {**self.BIG_A, "c": "exp(300*u)*exp(300*u)"})
        code, out, err = run(capsys, "classify", path)
        assert code == 2 and out == ""
        assert err.startswith("error: the symmetry row of c(u) at u = ") and err.endswith(": overflow\n")
        assert err.count("\n") == 1

    def test_singular_metric_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "sing.json", {"format": 1, "family": "dim_ge4", "psi": "exp(100*t)", "n": 2})
        code, out, err = run(capsys, "verify", path)
        assert code == 2 and out == ""
        assert err.startswith("error: metric is singular at (") and err.count("\n") == 1

    # F = 1e200 x u: the products the surface invariants take are beyond the float range at every sample
    HUGE_F = {"format": 1, "family": "threed_case1", "F": "1e200*x*u"}

    @pytest.mark.parametrize(
        "argv,code", [(["signature", "--samples", "4"], 0), (["invariants", "--at", "0.5,1.8"], 0), (["equiv", "@"], 1)],
        ids=lambda x: x[0] if isinstance(x, list) else None,
    )
    def test_surface_beyond_the_float_range_ends_cleanly(self, tmp_path, capsys, argv, code):
        path = write_json(tmp_path / "huge.json", self.HUGE_F)
        got, out, err = run(capsys, argv[0], path, *[path if a == "@" else a for a in argv[1:]])
        assert (got, err) == (code, "")
        if argv[0] == "signature":
            assert out.splitlines()[-1] == "# singular_samples_dropped,4"
        if argv[0] == "invariants":
            assert json.loads(out)["singular"] == "a power of the jet entries overflows the float range"
        if argv[0] == "equiv":
            assert json.loads(out)["verdict"] == "Unsampled"

    # F = ln(x) u on a subnormal x range: the Taylor coefficients (-1)^(i+1) / (i x^i) of ln
    # are beyond the float range (1 / x is inf, and x^2 rounds to 0)
    SUBNORMAL_LN = {"format": 1, "family": "threed_case1", "F": "ln(x)*u", "box": {"x": [1e-311, 2e-311]}}

    @pytest.mark.parametrize(
        "argv,code",
        [(["verify"], 2), (["signature"], 0), (["invariants", "--at", "1.5e-311,1.8"], 2), (["equiv", "@"], 1)],
        ids=lambda x: x[0] if isinstance(x, list) else None,
    )
    def test_ln_of_a_subnormal_value_ends_cleanly_in_every_verb(self, tmp_path, capsys, argv, code):
        path = write_json(tmp_path / "subnormal.json", self.SUBNORMAL_LN)
        got, out, err = run(capsys, argv[0], path, *[path if a == "@" else a for a in argv[1:]])
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.endswith(": ln: overflow\n") and err.count("\n") == 1
        else:
            assert err == ""
        if argv[0] == "invariants":
            assert err == f"error: {path}: the structure at (1.5e-311, 1.8): ln: overflow\n"
        if argv[0] == "signature":
            assert out.splitlines()[-1] == "# singular_samples_dropped,64"
        if argv[0] == "equiv":
            assert json.loads(out)["verdict"] == "Unsampled"

    def test_a_one_number_point_is_written_without_a_trailing_comma(self, tmp_path, capsys):
        path = write_json(tmp_path / "big.json", {"format": 1, "family": "dim_ge4", "psi": "exp(t^3)+t", "n": 2})
        assert run(capsys, "invariants", path, "--at", "10") == (2, "", f"error: {path}: the structure at (10.0): exp: overflow\n")

    @pytest.mark.parametrize(
        "payload,at,message",
        [
            # F_ux = (1 - 2u) exp(-2u) at u = 127 is about 1e-108: its cube rounds to 0.0
            ({"family": "threed_case1", "F": "x*u*exp(-2*u)"}, "0.5,127", "a power of the mixed derivative F_ux rounds to 0"),
            # a' = -200 exp(-200 u) at u = 1.5 is about -1e-128: its fourth and fifth powers round to 0.0
            (
                {"family": "threed_case2", "a": "exp(-200*u)", "c": "u", "box": {"u": [0.01, 0.05]}},
                "1.5",
                "a power of a'(u) rounds to 0 (extra-symmetry stratum)",
            ),
        ],
        ids=["surface", "pair"],
    )
    def test_a_power_that_rounds_to_zero_is_singular_in_every_family(self, tmp_path, capsys, payload, at, message):
        path = write_json(tmp_path / "tiny.json", {"format": 1, **payload})
        code, out, err = run(capsys, "invariants", path, "--at", at)
        assert (code, err) == (0, "")
        assert json.loads(out)["singular"] == message
