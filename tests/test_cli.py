"""Command-line interface: exit codes, output formats, config validation."""

import json
import math

import pytest

from lorentzlab.cli import main


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def hardy_config(tmp_path, **overrides):
    body = {
        "schema_version": 1,
        "q": 1.0,
        "u": {"kind": "power", "alpha": 0.0},
        "v": {"kind": "power", "alpha": 0.0},
        "w": {"kind": "power", "alpha": 0.0},
        "nu": {"atoms": [{"t": 1.0, "m": 1.0}], "tail": None},
    }
    body.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(body))
    return path


class TestNormCommand:
    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, ["norm", "--spec", "lpq:2,2", "--f", "indicator:0,1"])
        assert rc == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["command"] == "norm"
        assert data["spec"]["family"] == "lpq"
        assert data["value"] == 1.0

    def test_spec_from_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"schema_version": 1, "family": "lpq_star", "p": 2.0, "q": 1.0})
        )
        rc, out, _ = run(capsys, ["norm", "--spec", f"@{spec}", "--f", "indicator:0,1"])
        assert rc == 0
        assert json.loads(out)["value"] == 4.0

    def test_steps_function_from_file(self, capsys, tmp_path):
        fpath = tmp_path / "f.json"
        fpath.write_text(
            json.dumps(
                {"schema_version": 1, "breakpoints": [1.0, 2.0], "values": [2.0, 1.0]}
            )
        )
        rc, out, _ = run(capsys, ["norm", "--spec", "lpq:1,1", "--f", f"steps:{fpath}"])
        assert rc == 0
        assert json.loads(out)["value"] == 3.0

    def test_sampled_literal_uses_the_grid(self, capsys):
        rc, out, _ = run(
            capsys,
            ["norm", "--spec", "lpq:2,2", "--f", "power:0", "--grid", "0.01,100,8"],
        )
        assert rc == 0
        assert json.loads(out)["value"] > 0.0


class TestFormats:
    def test_csv_long_format(self, capsys):
        rc, out, _ = run(capsys, ["rearrange", "--f", "indicator:0,1", "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "series,t,value"
        assert len(lines) >= 2

    def test_table_format(self, capsys):
        rc, out, _ = run(
            capsys,
            ["norm", "--spec", "lpq:2,2", "--f", "indicator:0,1", "--format", "table"],
        )
        assert rc == 0
        assert "value" in out

    def test_out_file_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-duality", "--p", "2", "--functions", "4", "--seed", "7"]
        assert run(capsys, args + ["--out", str(a)])[0] == 0
        assert run(capsys, args + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["command"] == "verify-duality"


class TestAssocCommand:
    def test_embeds_fit_artifacts(self, capsys):
        rc, out, _ = run(capsys, ["assoc", "--p", "2", "--f", "indicator:0,1"])
        assert rc == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert data["nu_used"]["atoms"][0]["t"] == 0.0
        assert data["boundary_flags"]["origin_atom"] is True
        assert data["fit_report"]["details"]["sup_log_ratio"] <= 1e-9

    def test_math_failure_exits_one(self, capsys):
        rc, out, err = run(
            capsys, ["assoc", "--p", "2", "--phi", "power:1", "--f", "indicator:0,1"]
        )
        assert rc == 1
        assert out == ""
        assert "HypothesisViolated" in err


class TestHardyCommands:
    def test_constants_with_explicit_measure(self, capsys, tmp_path):
        cfg = hardy_config(tmp_path)
        rc, out, _ = run(capsys, ["hardy-constants", "--config", str(cfg)])
        assert rc == 0
        data = json.loads(out)
        assert data["branch"] == 1
        assert data["value"] == 1.0
        assert data["fit_report"] is None

    def test_verify_reports_the_ratio(self, capsys, tmp_path):
        cfg = hardy_config(tmp_path, nu=None)
        del_nu = json.loads(cfg.read_text())
        del del_nu["nu"]
        cfg.write_text(json.dumps(del_nu))
        rc, out, _ = run(
            capsys, ["verify-hardy", "--config", str(cfg), "--trials", "5", "--seed", "1"]
        )
        assert rc == 0
        data = json.loads(out)
        assert data["trials"] == 5
        assert data["report"]["lower"] == pytest.approx(0.998601344958248, rel=1e-9)
        assert "nondegenerate_measure" in data["report"]["details"]

    def test_fit_measure_constant_target(self, capsys):
        rc, out, _ = run(
            capsys, ["fit-measure", "--target", "power:0", "--sigma", "power:1"]
        )
        assert rc == 0
        data = json.loads(out)
        assert data["nu"]["atoms"][0]["t"] == 0.0
        assert data["fit_report"]["details"]["sup_log_ratio"] <= 1e-9

    def test_fit_measure_failure_exits_one(self, capsys):
        rc, _, err = run(
            capsys,
            ["fit-measure", "--target", "powerlog:0,1", "--sigma", "power:0.5"],
        )
        assert rc == 1
        assert "FitFailed" in err


class TestEmbedAndWeights:
    def test_embed_identity(self, capsys):
        rc, out, _ = run(
            capsys,
            ["embed", "--p", "2", "--q", "2", "--w", "power:0", "--trials", "5"],
        )
        assert rc == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["criterion_value"] == pytest.approx(1.0, rel=1e-9)
        assert data["empirical"]["upper"] == pytest.approx(1.0, rel=1e-9)

    def test_check_weight_battery(self, capsys):
        rc, out, _ = run(capsys, ["check-weight", "--w", "power:-0.25", "--p", "2"])
        assert rc == 0
        data = json.loads(out)
        names = [c["condition"] for c in data["checks"]]
        assert names == ["Delta2", "Bp", "QuasinormSufficient"]
        assert all(c["holds"] for c in data["checks"])

    def test_check_weight_b1_branch(self, capsys):
        rc, out, _ = run(capsys, ["check-weight", "--w", "power:-0.5", "--p", "1"])
        assert rc == 0
        names = [c["condition"] for c in json.loads(out)["checks"]]
        assert names == ["Delta2", "B1", "QuasinormSufficient"]


class TestConfigErrors:
    def test_bad_spec_literal(self, capsys):
        rc, out, err = run(capsys, ["norm", "--spec", "lpq:2", "--f", "indicator:0,1"])
        assert rc == 2
        assert out == ""
        assert "config error" in err

    def test_unknown_spec_family(self, capsys):
        rc, _, _ = run(capsys, ["norm", "--spec", "banach:2,2", "--f", "indicator:0,1"])
        assert rc == 2

    def test_bad_function_literal(self, capsys):
        rc, _, _ = run(capsys, ["norm", "--spec", "lpq:2,2", "--f", "indicator:5,1"])
        assert rc == 2

    def test_bad_grid(self, capsys):
        rc, _, _ = run(
            capsys,
            ["norm", "--spec", "lpq:2,2", "--f", "indicator:0,1", "--grid", "1,10,0"],
        )
        assert rc == 2

    def test_wrong_schema_version(self, capsys, tmp_path):
        cfg = hardy_config(tmp_path, schema_version=2)
        rc, _, err = run(capsys, ["hardy-constants", "--config", str(cfg)])
        assert rc == 2
        assert "schema_version" in err

    def test_unknown_config_field(self, capsys, tmp_path):
        cfg = hardy_config(tmp_path, extra=1)
        rc, _, err = run(capsys, ["hardy-constants", "--config", str(cfg)])
        assert rc == 2
        assert "unknown fields" in err

    def test_missing_config_file(self, capsys):
        rc, _, _ = run(capsys, ["hardy-constants", "--config", "/nonexistent.json"])
        assert rc == 2

    def test_no_partial_output_file_on_config_error(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        rc, _, _ = run(
            capsys,
            ["norm", "--spec", "lpq:2", "--f", "indicator:0,1", "--out", str(target)],
        )
        assert rc == 2
        assert not target.exists()
