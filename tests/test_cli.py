import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperscores import cli
from hyperscores.cli import main
from hyperscores.realize import NoValidStepError

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


VALID = {"k": 2, "n": [2, 2], "alpha": [1, 1], "kind": "losing", "lists": [[0, 2], [1, 1]]}
INVALID = {"k": 2, "n": [2, 2], "alpha": [1, 1], "kind": "losing", "lists": [[0, 2], [0, 2]]}


class TestCheck:
    def test_valid_instance(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", write_instance(tmp_path, VALID))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["violation"] is None

    def test_invalid_instance(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", write_instance(tmp_path, INVALID))
        assert code == 1
        doc = json.loads(out)
        assert doc["violation"] == {"prefix": [1, 1], "lhs": 0, "rhs": 1}

    def test_score_kind_dispatch(self, tmp_path, capsys):
        doc = dict(VALID, kind="score")
        code, out, _ = run(capsys, "check", write_instance(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["kind"] == "score"

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"k": 2, "n": [2, 2]')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/instance.json")
        assert code == 2

    def test_schema_violation(self, tmp_path, capsys):
        code, _, _ = run(capsys, "check", write_instance(tmp_path, {"k": 2, "n": [2, 2]}))
        assert code == 2

    def test_unsorted_rejected_without_flag(self, tmp_path, capsys):
        doc = dict(VALID, lists=[[2, 0], [1, 1]])
        code, _, err = run(capsys, "check", write_instance(tmp_path, doc))
        assert code == 2
        assert "--sort" in err

    def test_unsorted_accepted_with_flag(self, tmp_path, capsys):
        doc = dict(VALID, lists=[[2, 0], [1, 1]])
        code, out, _ = run(capsys, "check", write_instance(tmp_path, doc), "--sort")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_text_format_output(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", write_instance(tmp_path, VALID), "--format", "text")
        assert code == 0 and out.strip() == "valid"

    def test_text_input(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "inst_2x2_11.txt"))
        assert code == 0
        assert json.loads(out)["valid"] is True


class TestRealizeVerify:
    @pytest.mark.parametrize("method", ["inductive", "flow"])
    def test_round_trip(self, tmp_path, capsys, method):
        code, out, _ = run(
            capsys, "realize", write_instance(tmp_path, VALID), "--method", method
        )
        assert code == 0
        witness = json.loads(out)
        assert witness["method"] == method
        assert len(witness["arcs"]) == 4

        wit_path = tmp_path / "wit.json"
        wit_path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(wit_path))
        assert code == 0
        report = json.loads(out)
        assert report["structure_valid"] and report["lists_match"]
        assert report["losing_lists"] == VALID["lists"]
        assert report["losing_total"] == 4
        assert report["score_total"] == 4

    def test_emit_losers_verifies(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "realize", write_instance(tmp_path, VALID), "--emit", "losers"
        )
        assert code == 0
        witness = json.loads(out)
        assert "arcs" not in witness and len(witness["losers"]) == 4
        wit_path = tmp_path / "wit.json"
        wit_path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(wit_path))
        assert code == 0
        assert json.loads(out)["lists_match"] is True

    def test_invalid_instance_exits_1(self, tmp_path, capsys):
        code, out, _ = run(capsys, "realize", write_instance(tmp_path, INVALID))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_no_valid_step_is_a_gap(self, tmp_path, capsys, monkeypatch):
        def stuck(shape, lists):
            raise NoValidStepError("no transformation preserves the prefix bounds")

        monkeypatch.setattr(cli, "realize_inductive", stuck)
        code, out, err = run(capsys, "realize", write_instance(tmp_path, VALID))
        assert code == 3
        assert out == ""
        assert "no transformation" in err and "Traceback" not in err

    def test_score_input_converted(self, tmp_path, capsys):
        doc = dict(VALID, kind="score")
        code, out, err = run(capsys, "realize", write_instance(tmp_path, doc))
        assert code == 0
        witness = json.loads(out)
        assert witness["converted_from_score"] is True
        assert witness["kind"] == "losing"
        assert "converted" in err

    def test_verify_flags_edited_loser(self, tmp_path, capsys):
        code, out, _ = run(capsys, "realize", write_instance(tmp_path, VALID))
        witness = json.loads(out)
        # Reverse one arc: structure stays legal but the lists change.
        witness["arcs"][0] = witness["arcs"][0][::-1]
        wit_path = tmp_path / "wit.json"
        wit_path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(wit_path))
        assert code == 1
        report = json.loads(out)
        assert report["structure_valid"] is True
        assert report["lists_match"] is False

    def test_verify_flags_missing_arc(self, tmp_path, capsys):
        code, out, _ = run(capsys, "realize", write_instance(tmp_path, VALID))
        witness = json.loads(out)
        witness["arcs"] = witness["arcs"][:-1]
        wit_path = tmp_path / "wit.json"
        wit_path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(wit_path))
        assert code == 1
        report = json.loads(out)
        assert report["structure_valid"] is False
        assert any(v["kind"] == "missing-arc" for v in report["violations"])

    def test_verify_requires_arcs_or_losers(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", write_instance(tmp_path, VALID))
        assert code == 2
        assert "arcs" in err


class TestConvert:
    def test_convert_example(self, tmp_path, capsys):
        code, out, _ = run(capsys, "convert", write_instance(tmp_path, VALID))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "score"
        assert doc["lists"] == [[0, 2], [1, 1]]

    def test_double_convert_is_identity(self, tmp_path, capsys):
        code, out, _ = run(capsys, "convert", write_instance(tmp_path, VALID))
        mid = tmp_path / "mid.json"
        mid.write_text(out)
        code, out, _ = run(capsys, "convert", str(mid))
        assert json.loads(out) == VALID

    def test_out_of_bound_entry(self, tmp_path, capsys):
        doc = dict(VALID, lists=[[0, 3], [1, 1]])
        code, _, err = run(capsys, "convert", write_instance(tmp_path, doc))
        assert code == 2
        assert "exceeds" in err

    def test_text_output_round_trips_as_input(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "convert", write_instance(tmp_path, VALID), "--format", "text"
        )
        path = tmp_path / "converted.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "convert", str(path))
        assert code == 0
        assert json.loads(out) == VALID


class TestEnumerateRandom:
    def test_enumerate_seven(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2,2", "--alpha", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 7
        assert doc["assignments"] == 16
        assert [[0, 2], [1, 1]] in doc["lists"]

    def test_enumerate_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--n", "2,2", "--alpha", "1,1", "--budget", "10"
        )
        assert code == 4
        assert "budget" in err

    def test_enumerate_score_kind(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2,2", "--alpha", "1,1", "--kind", "score"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 7

    def test_random_deterministic(self, capsys):
        args = ("random", "--n", "3,2", "--alpha", "2,1", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_random_full_permutation(self, capsys):
        code, out, _ = run(
            capsys, "random", "--n", "2,2", "--alpha", "1,1", "--seed", "3",
            "--mode", "full-permutation", "--emit", "arcs",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["arcs"]) == 4

    def test_selection_table_over_the_cap(self, capsys):
        # C(60, 30)^2 selections pass the magnitude guard but not the table cap.
        code, out, err = run(capsys, "random", "--n", "60,60", "--alpha", "30,30")
        assert code == 4
        assert out == ""
        assert "selections exceed" in err and "Traceback" not in err

    def test_bad_shape_flags(self, capsys):
        code, _, _ = run(capsys, "random", "--n", "2,x", "--alpha", "1,1")
        assert code == 2
        code, _, _ = run(capsys, "enumerate", "--n", "2", "--alpha", "3")
        assert code == 2


def test_module_entry_point(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(VALID))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperscores", "check", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_cli_import_leaves_networkx_out():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hyperscores.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
