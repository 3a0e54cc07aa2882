import copy
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperscores import (
    Arc,
    Hypertournament,
    Shape,
    VertexId,
    cli,
    losing_scores,
    random_hypertournament,
    realize,
    scores,
    validate,
)
from hyperscores.cli import InputError, main
from hyperscores.realize import RealizationGapError
from reference import witness_stdout

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
WITNESS = {"k": 2, "n": [2, 2], "alpha": [1, 1], "losers": [[1, 1], [1, 1], [2, 2], [2, 2]]}
# 600 single-vertex arcs: the inductive realizer drops 599 vertices.
DEEP = {"k": 1, "n": [600], "alpha": [1], "kind": "losing", "lists": [[1] * 600]}
# VALID as UTF-16 with a byte-order mark: not UTF-8 from its first byte on.
UTF16 = b"\xff\xfe" + json.dumps(VALID).encode("utf-16-le")

# The JSON Schemas the command line validated documents with before the
# direct check replaced them: the reference the check is compared with.
_INT_LIST = {"type": "array", "items": {"type": "integer"}}
_VERTEX = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": 2,
    "maxItems": 2,
}

INSTANCE_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "alpha", "kind", "lists"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "alpha": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "kind": {"enum": ["losing", "score"]},
        "lists": {"type": "array", "items": _INT_LIST},
    },
}

WITNESS_SCHEMA = {
    "type": "object",
    "required": ["k", "n", "alpha"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "alpha": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "kind": {"enum": ["losing", "score"]},
        "lists": {"type": "array", "items": _INT_LIST},
        "arcs": {"type": "array", "items": {"type": "array", "items": _VERTEX}},
        "losers": {"type": "array", "items": _VERTEX},
    },
}


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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(UTF16)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert "error: cannot read" in err and "Traceback" not in err

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(UTF16), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "check", "-")
        assert code == 2 and out == ""
        assert "error: cannot read" in err and "Traceback" not in err

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

    def test_text_input_inline_comments(self, tmp_path, capsys):
        commented = tmp_path / "inst.txt"
        commented.write_text(
            "# smallest two-part instance\n"
            "2 2 2 1 1 losing # shape\n"
            "0 2  # part one\n"
            "1 1\n"
        )
        expected = run(capsys, "check", str(FIXTURES / "inst_2x2_11.txt"))
        assert expected[0] == 0
        assert run(capsys, "check", str(commented)) == expected


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

    def test_600_levels_deep(self, tmp_path, capsys):
        code, out, _ = run(capsys, "realize", write_instance(tmp_path, DEEP))
        assert code == 0
        assert len(json.loads(out)["arcs"]) == 600

    def test_inductive_route_checks_the_input_lists_once(self, capsys, monkeypatch):
        """cmd_realize checks the input lists once, realize_inductive does not
        check valid lists at all, and no saturated level is checked: the up
        pass's repairs decide them."""
        checked, levels = [], []

        def counting(check):
            def wrapper(shape, lists):
                checked.append((shape.n, [list(lst) for lst in getattr(lists, "lists", lists)]))
                return check(shape, lists)
            return wrapper

        for module in (cli, realize):
            monkeypatch.setattr(module, "check_losing_lists", counting(module.check_losing_lists))
        walk_level = realize._walk_level
        monkeypatch.setattr(
            realize, "_walk_level", lambda *a: levels.append(a[1:]) or walk_level(*a)
        )
        code, _, _ = run(capsys, "realize", str(FIXTURES / "inst_3x2_21.json"))
        assert code == 0
        top = ((3, 2), [[0, 1, 2], [1, 2]])
        assert checked == [top]
        assert levels

    def test_invalid_instance_exits_1(self, tmp_path, capsys):
        code, out, _ = run(capsys, "realize", write_instance(tmp_path, INVALID))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_realization_gap_exits_3(self, tmp_path, capsys, monkeypatch):
        """A gap exits 3 with empty stdout and no traceback, both from a
        replaced realizer and from the construction itself when only its
        walks run short: then stderr names the top level's vertex, 1-based."""
        def gap(shape, lists):
            raise RealizationGapError("constructed witness does not reproduce the input lists")

        with monkeypatch.context() as mp:
            mp.setattr(cli, "realize_inductive", gap)
            code, out, err = run(capsys, "realize", write_instance(tmp_path, VALID))
        assert code == 3
        assert out == ""
        assert "does not reproduce" in err and "Traceback" not in err

        monkeypatch.setattr(realize, "_walk_level", lambda lists, active, bound: None)
        code, out, err = run(capsys, "realize", write_instance(tmp_path, VALID))
        assert code == 3
        assert out == ""
        assert "gap at level [1, 2]: the walk cannot" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "emit, mode",
        [("losers", "loser-only"), ("arcs", "loser-only"), ("arcs", "full-permutation")],
        ids=["losers", "arcs", "arcs-full-permutation"],
    )
    def test_verify_of_a_written_witness_builds_no_arc(self, tmp_path, capsys, emit, mode):
        """Also a full-permutation witness, whose non-canonical arcs are kept as
        vertex orders, not as Arc objects."""
        argv = ["random", "--n", "10,8", "--alpha", "3,2", "--seed", "5", "--emit", emit]
        path = tmp_path / "w.json"
        path.write_text(run(capsys, *argv, "--mode", mode)[1])
        built = AssertionError("an arc was built")
        with mock.patch("hyperscores.model.Arc", side_effect=built), \
                mock.patch("hyperscores.cli.Arc", side_effect=built, create=True):
            code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["arc_count"] == 120 * 28

    @pytest.mark.parametrize("mode", ["loser-only", "full-permutation"])
    def test_an_arcs_document_reads_as_its_arcs(self, capsys, mode):
        """Kept as losers when its arcs are those the losers make, or as the
        given arcs otherwise, the document reads as the hypertournament of its
        arcs, also cut short, extended past the table or reversed."""
        argv = ["random", "--n", "4,3", "--alpha", "2,1", "--seed", "3", "--mode", mode]
        doc = json.loads(run(capsys, *argv, "--emit", "arcs")[1])
        shape = Shape((4, 3), (2, 1))
        arcs = doc["arcs"]
        for edited in (arcs, arcs[:-2], arcs + arcs[:1], [arc[::-1] for arc in arcs]):
            M = cli._hypertournament_from_doc(dict(doc, arcs=edited), shape)
            given = [Arc(tuple(VertexId(p - 1, i - 1) for p, i in arc)) for arc in edited]
            N = Hypertournament(shape, given)
            assert M == N and M.arcs == N.arcs and M.losers == N.losers
            assert validate(M) == validate(N)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: from_losers drops losers entries past the last "
        "selection; fixing it must drop the known_defect verify call in "
        "bench/inputs.py and its expectation in bench/tests in the same change",
    )
    def test_verify_reports_an_extra_loser(self, tmp_path, capsys):
        doc = dict(WITNESS, losers=WITNESS["losers"] + [[9, 9]])
        code, out, _ = run(capsys, "verify", write_instance(tmp_path, doc))
        assert code == 1
        assert [v["kind"] for v in json.loads(out)["violations"]] == ["extra-arc"]


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

    def test_enumerate_budget_exceeded_by_a_long_count(self, capsys):
        # 3**161700 assignments: the count has 77 151 decimal digits.
        code, out, err = run(capsys, "enumerate", "--n", "100", "--alpha", "3")
        assert code == 4 and out == ""
        assert "3**161700 assignments exceed the enumeration budget" in err

    def test_enumerate_refuses_a_negative_budget(self, capsys):
        # An input error, not a resource limit: no shape fits a budget below 0.
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "2,2", "--alpha", "1,1", "--budget", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: argument --budget" in captured.err and "Traceback" not in captured.err

    # sha256 of the stdout, recorded before the achievable lists came from a
    # dynamic program: list order and the "assignments" field are unchanged.
    @pytest.mark.parametrize(
        "kind, n, alpha, digest",
        [
            ("losing", "3,2", "2,1", "78b9f245faa427508392498b333e01f11162f2ab047e4980015c302ae9c1b02e"),
            ("losing", "2,2,2", "1,1,1", "d7965abb9d46bdc9eb2466b2d193cfe153f153487173a192452f710255484e4a"),
            ("losing", "1,6", "1,1", "1ceab43105a82fe83754e814d03e06bd1aba3b9d2dc50025ff7142644fbfa05d"),
            ("losing", "2,3", "2,3", "235a4248855c5f82ad662e624469d067a2da56dc1ee55f2fb6616df4e1828bcb"),
            ("score", "3,2", "2,1", "04ddbc7a6a4be4ee7cf742a84882de8e4ab73c51382b4afe488ed5d02bffa6e8"),
            ("score", "2,2,2", "1,1,1", "dc274c72269206d5ef779a30f2850d273e8bb16f3622c572dba3384d6f175dc8"),
            ("score", "1,6", "1,1", "3e3453a2c81707624d4e222f93d27f960f6979f70718ec59e8b53975444042ce"),
            ("score", "2,3", "2,3", "aa4b3d3a4dd5bc1c1ab4b506768b8ae8a3056fee809842a0f30a3ca52a5ef71d"),
            # 23 320 lists from 4^16 assignments, recorded before --kind score
            # shared cross_validate's per-part reverse complement.
            ("score", "2,2,2,2", "1,1,1,1", "2547253d5c72d5c468a42ab8bf7e1406adc014d514adc2e64145ca7993448f2c"),
        ],
    )
    def test_enumerate_output_bytes(self, capsys, kind, n, alpha, digest):
        # The budget admits the largest row; it leaves every output's bytes alone.
        code, out, _ = run(
            capsys, "enumerate", "--n", n, "--alpha", alpha, "--kind", kind, "--budget", str(4**16)
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerate_score_kind(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2,2", "--alpha", "1,1", "--kind", "score"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 7

    def test_enumerate_as_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2,2", "--alpha", "1,1", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "7 achievable losing list tuples",
            "0 0 | 2 2", "0 1 | 1 2", "0 2 | 1 1", "1 1 | 0 2", "1 1 | 1 1", "1 2 | 0 1", "2 2 | 0 0",
        ]

    def test_a_losers_witness_as_text_and_its_verification(self, tmp_path, capsys):
        args = ("random", "--n", "2,2", "--alpha", "1,1", "--seed", "3", "--emit", "losers")
        code, out, _ = run(capsys, *args, "--format", "text")
        assert code == 0
        assert out.splitlines() == ["2 2 2 1 1 losing", "0 0", "2 2", "2.1 2.1 2.2 2.2"]
        witness = tmp_path / "witness.json"
        witness.write_text(run(capsys, *args)[1])
        code, out, _ = run(capsys, "verify", str(witness), "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "structure ok; losing=[[0, 0], [2, 2]] score=[[2, 2], [0, 0]] totals=4/4 lists match: yes"
        ]

    def test_an_arcs_witness_as_text(self, capsys):
        args = ("random", "--n", "2,2", "--alpha", "1,1", "--seed", "3", "--emit", "arcs")
        code, out, _ = run(capsys, *args, "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "2 2 2 1 1 losing", "0 0", "2 2", "1.1 2.1", "1.2 2.1", "1.1 2.2", "1.2 2.2"
        ]

    def test_random_deterministic(self, capsys):
        args = ("random", "--n", "3,2", "--alpha", "2,1", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_random_refuses_a_seed_outside_64_bits(self, capsys, seed):
        # SplitMix64 keeps 64 bits: either would draw an in-range seed's stream
        # and echo a seed that did not.
        with pytest.raises(SystemExit) as exc:
            main(["random", "--n", "2,2", "--alpha", "1,1", f"--seed={seed}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: argument --seed" in captured.err and "Traceback" not in captured.err

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

    def test_shape_over_the_magnitude_limit(self, capsys):
        # C(300, 150) > 2**127: the shape is refused before any table exists.
        code, out, err = run(capsys, "random", "--n", "300", "--alpha", "150")
        assert code == 4
        assert out == ""
        assert "exceeds the magnitude limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["losers", "arcs"])
    def test_verify_past_sys_maxsize_selections(self, tmp_path, capsys, field):
        # C(40, 20)^2 ~ 1.9e22 selections: past sys.maxsize but under the
        # magnitude guard, so the table cap ends the run, not a ValueError.
        pairs = [[1, 1]] if field == "losers" else [[[1, 1]]]
        doc = {"k": 2, "n": [40, 40], "alpha": [20, 20], field: pairs}
        code, out, err = run(capsys, "verify", write_instance(tmp_path, doc))
        assert code == 4
        assert out == ""
        assert "selections exceed" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["random", "verify"])
    def test_vertex_count_over_the_cap(self, tmp_path, capsys, command):
        # (10^8,)/(10^8,) has one selection but 10^8 vertices: refused before
        # any vertex table is built, where building it would take some 40 GB.
        if command == "random":
            args = ("random", "--n", "100000000", "--alpha", "100000000")
        else:
            doc = {"k": 1, "n": [10**8], "alpha": [10**8], "losers": [[1, 1]]}
            args = ("verify", write_instance(tmp_path, doc))
        code, out, err = run(capsys, *args)
        assert code == 4
        assert out == ""
        assert "100000000 vertices exceed" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [("check",), ("check", "--format", "text"), ("realize",)])
    def test_output_integer_past_the_digit_limit(self, tmp_path, capsys, args):
        # Entries at the interpreter's digit limit read in, but their sum does
        # not print: a resource limit, not an invalid verdict.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no limit on integer string conversion")
        big = int("9" * limit)
        doc = {"k": 1, "n": [2], "alpha": [1], "kind": "losing", "lists": [[big, big]]}
        code, out, err = run(capsys, args[0], write_instance(tmp_path, doc), *args[1:])
        assert code == 4
        assert out == ""
        assert "too long to print" in err and "Traceback" not in err

    def test_bad_shape_flags(self, capsys):
        code, _, _ = run(capsys, "random", "--n", "2,x", "--alpha", "1,1")
        assert code == 2
        code, _, _ = run(capsys, "enumerate", "--n", "2", "--alpha", "3")
        assert code == 2


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _with_defects(doc):
    """An arcs witness of (10,8)/(3,2) with one defect of each kind a document
    can carry: a vertex swapped out of its selection, a repeated vertex, an
    out-of-shape vertex, one vertex too few, one too many and an extra arc."""
    arcs = doc["arcs"]
    arcs[5][0] = next(p for p in ([1, j] for j in range(1, 11)) if p not in arcs[5])
    arcs[17][1] = list(arcs[17][0])
    arcs[40][-1] = [3, 1]
    arcs[60] = arcs[60][:-1]
    arcs[61] = arcs[61] + [[2, 8] if [2, 8] not in arcs[61] else [2, 7]]
    arcs.append(arcs[0])
    return doc


def _short(doc):
    """The same witness without its last three arcs."""
    doc["arcs"] = doc["arcs"][:-3]
    return doc


class TestWitnessBytes:
    """sha256 of `random` and `verify` stdout, recorded before arcs were
    accepted by one sorted comparison and score lists came from loss counts."""

    @pytest.mark.parametrize(
        "n, alpha, emit, random_digest, verify_digest",
        [
            ("10,8", "3,2", "arcs",
             "4c21a9bdfe938ba5008da7d941714f7cef8df1b111bbc532e0bc9364a3d97fb8",
             "8641e6c2096a1db12afde832bb478627222fc6c960cec27eb279da0f7d5f9d75"),
            ("10,8", "3,2", "losers",
             "a9c4ec720b41f8f527f4f1f21d13fe022df4e85445d227d79b5ce5d31c75cbb6",
             "8641e6c2096a1db12afde832bb478627222fc6c960cec27eb279da0f7d5f9d75"),
            ("6,5", "2,2", "arcs",
             "3e83a877d7ae60bcdff880c2b985bd3e5fa4b7a2f2d720d6428d9762fdc07b86",
             "f7365591a20d4c8cd6a6f2a79a2ed4fbf7e459cedf9bf6a515eefecf4d5bd0fb"),
            ("6,5", "2,2", "losers",
             "3035fcd4a484f16230a8dd631ecbeae3dbfa3af8e01a7672da7cde00418caf0c",
             "f7365591a20d4c8cd6a6f2a79a2ed4fbf7e459cedf9bf6a515eefecf4d5bd0fb"),
        ],
    )
    def test_random_and_verify(self, tmp_path, capsys, n, alpha, emit, random_digest, verify_digest):
        code, out, _ = run(capsys, "random", "--n", n, "--alpha", alpha, "--seed", "5", "--emit", emit)
        assert code == 0 and _sha(out) == random_digest
        path = tmp_path / "w.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and _sha(out) == verify_digest

    @pytest.mark.parametrize(
        "corrupt, fmt, digest",
        [
            (_with_defects, "json", "f7f1a6965ec9c26ee5d685ee6422fb4f8ff5916cdd4394f0eb8538de28a56d95"),
            (_with_defects, "text", "42f21b30df0654a19b52b4d6693631ccd6f834129961c0753dee28a43eebf1ee"),
            (_short, "json", "0279637bd4092f3278df545921394a99970788be6dd7c96e9be57a7c6c2d351e"),
        ],
    )
    def test_verify_of_a_corrupted_witness(self, tmp_path, capsys, corrupt, fmt, digest):
        _, out, _ = run(capsys, "random", "--n", "10,8", "--alpha", "3,2", "--seed", "5", "--emit", "arcs")
        path = tmp_path / "w.json"
        path.write_text(json.dumps(corrupt(json.loads(out))))
        code, out, _ = run(capsys, "verify", str(path), "--format", fmt)
        assert code == 1 and _sha(out) == digest

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("loser-only", "6bfa99d19eebc1845390581f7b9de08bb2cd2167fe9fd0b3d6366056e96fab11"),
            ("full-permutation", "7633a313cf43f3ae22d77ae168ed70373f88a4b25a8e8b6d9d206a1430a299a3"),
        ],
    )
    def test_text_arcs_witness(self, capsys, mode, digest):
        argv = ["random", "--n", "10,8", "--alpha", "3,2", "--seed", "5", "--mode", mode]
        code, out, _ = run(capsys, *argv, "--emit", "arcs", "--format", "text")
        assert code == 0 and _sha(out) == digest

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("mode", ["loser-only", "full-permutation"])
    @pytest.mark.parametrize("emit", ["losers", "arcs"])
    @pytest.mark.parametrize(
        "n, alpha",
        [("2,3", "2,3"), *((f"1,{cli._CHUNK + d}", "1,1") for d in (-1, 0, 1))],
        ids=["T=1", "T=chunk-1", "T=chunk", "T=chunk+1"],
    )
    def test_chunks_match_the_whole_document(self, capsys, n, alpha, emit, mode, fmt):
        """The chunked writer prints the bytes of the writer that built the
        whole document first, at T = 1 and around the chunk size."""
        argv = ["random", "--n", n, "--alpha", alpha, "--seed", "7", "--emit", emit,
                "--mode", mode, "--format", fmt]
        code, out, _ = run(capsys, *argv)
        whole = lambda doc, M, args: sys.stdout.write(witness_stdout(doc, M, args.emit, args.format))
        with mock.patch.object(cli, "_emit_witness", whole):
            assert run(capsys, *argv)[:2] == (code, out)
        assert code == 0

    def test_a_canonical_arcs_document_reads_as_its_losers(self, capsys):
        argv = ["random", "--n", "10,8", "--alpha", "3,2", "--seed", "5", "--emit"]
        shape = Shape((10, 8), (3, 2))
        by_arcs, by_losers = (
            cli._hypertournament_from_doc(json.loads(run(capsys, *argv, emit)[1]), shape)
            for emit in ("arcs", "losers")
        )
        assert by_arcs._orders is None
        assert by_arcs == by_losers == random_hypertournament(shape, 5)

    @pytest.mark.parametrize(
        "mode, edit, json_digest, text_digest",
        [
            ("full-permutation", None,
             "aa7d46db4e659b07cfc8d595cbea7f64c9ac2a3ec1aa4998993f9dd6fd61939d",
             "00ee414fce07698734484e11dd033065ccb58795106cc9b63d019808a98fc96a"),
            ("loser-only", lambda arcs: arcs[1].__setitem__(0, [9, 9]),
             "e904042fce4aed1593cac2e74e03639504f3a432eae2dc44e584bb5ce0a9b6cf",
             "6ba54876a0ef0aa80f8459ace6012e68a94aa538db793c335756acb337e47121"),
            ("loser-only", lambda arcs: arcs.__setitem__(2, []),
             "df8551ec244001a70bced499ad10f9752d63d43ac18419a941b7738d709f7526",
             "bf4b9b001871b05f34c09550e2a049366cad1fc563f5a2d3685140e34189a2a3"),
            ("loser-only", lambda arcs: arcs[3].__setitem__(0, arcs[3][1]),
             "962e58023866b9a69876ee5c5ac625adc267daa543039813d3a1d8bb780d1d0e",
             "8a19d26622f56d78b8981d798b6ff9547678020aa490530c1d0f5ca2e809a52f"),
            ("loser-only", lambda arcs: arcs.append(arcs[0]),
             "a8166acca191fa7a1429be82ebb11f26133971eb40c5e3df1acb9d3eb77d33a0",
             "87a878fd8189818bbb20b860c3cfd5ea5d7fe6ab2813c660d945c26f255758b1"),
        ],
        ids=["full-permutation", "out-of-shape", "empty-arc", "duplicate-vertex", "extra-arc"],
    )
    def test_verify_of_an_arcs_document_that_is_not_canonical(
        self, tmp_path, capsys, mode, edit, json_digest, text_digest
    ):
        """Recorded before arcs documents were read as ids: these are kept as
        vertex orders, and report the same violations."""
        argv = ["random", "--n", "4,3", "--alpha", "2,1", "--seed", "3", "--mode", mode]
        doc = json.loads(run(capsys, *argv, "--emit", "arcs")[1])
        if edit:
            edit(doc["arcs"])
        path = write_instance(tmp_path, doc)
        for fmt, digest in (("json", json_digest), ("text", text_digest)):
            code, out, _ = run(capsys, "verify", path, "--format", fmt)
            assert code == (1 if edit else 0) and _sha(out) == digest


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


@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
def test_early_score_violation_on_many_parts_exits_1_in_bounded_memory(tmp_path):
    # All-zero score lists of (3,)^40/(2,)^40 fail at (0, ..., 0, 2). The
    # check's tail envelope stops short of MAX_SELECTIONS lines, so the
    # command answers under a 1 GiB address-space limit; a tail of
    # sqrt(4^40) = 2^40 lines would exhaust it.
    doc = {"k": 40, "n": [3] * 40, "alpha": [2] * 40, "kind": "score", "lists": [[0] * 3] * 40}
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperscores", "check", write_instance(tmp_path, doc)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    violation = json.loads(proc.stdout)["violation"]
    assert violation == {"prefix": [0] * 39 + [2], "lhs": 0, "rhs": 3**39}


def test_closed_stdout_exits_4_without_a_traceback():
    # About 1 MB of output: the write outlasts any pipe buffer, so it meets
    # the closed pipe inside the command.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperscores", "random", "--n", "300,300", "--alpha", "1,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{"k": 2, "'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 4
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_a_pipe_closed_after_the_first_chunk_exits_4(tmp_path, capsys, monkeypatch):
    """The head and the first chunk of losers are written; the second chunk
    meets the closed pipe."""

    class Pipe(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

        def fileno(self):  # main points it at os.devnull
            return sink.fileno()

    argv = ["random", "--n", f"1,{2 * cli._CHUNK}", "--alpha", "1,1", "--emit", "losers"]
    whole = run(capsys, *argv)[1]
    pipe = Pipe()
    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(argv)
        monkeypatch.undo()
    assert code == 4
    assert capsys.readouterr().err == "error: stdout was closed before the output was written\n"
    written = pipe.getvalue()
    assert pipe.writes == 3 and whole.startswith(written)
    assert len(json.loads(written + "]}")["losers"]) == cli._CHUNK


def _imported_by_cli(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"import sys, hyperscores.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_networkx_out():
    assert not _imported_by_cli("networkx")


def test_cli_import_leaves_jsonschema_out():
    assert not _imported_by_cli("jsonschema")


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    unsorted = write_instance(tmp_path, dict(VALID, lists=[[2, 0], [1, 1]]))
    valid = write_instance(tmp_path, VALID, "valid.json")
    assert run(capsys, "check", unsorted, "--sort")[0] == 0
    assert run(capsys, "check", unsorted)[0] == 2
    assert run(capsys, "check", valid, "--format", "text")[1].strip() == "valid"
    assert json.loads(run(capsys, "check", valid)[1])["valid"] is True
    assert json.loads(run(capsys, "realize", valid, "--method", "flow")[1])["method"] == "flow"
    assert json.loads(run(capsys, "realize", valid)[1])["method"] == "inductive"
    assert cli._build_parser() is cli._build_parser()


def test_a_command_runs_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    """The handler, from its document read on, runs with the cyclic
    collector off, and main turns it back on."""
    seen = []
    read = cli._read_document

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return read(*args, **kwargs)

    monkeypatch.setattr(cli, "_read_document", spy)
    assert gc.isenabled()
    codes = [
        run(capsys, "check", write_instance(tmp_path, VALID))[0],
        run(capsys, "verify", write_instance(tmp_path, WITNESS, "w.json"))[0],
    ]
    assert codes == [0, 1] and seen == [False, False] and gc.isenabled()


class _ClosedStdout(io.StringIO):
    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):  # main points it at os.devnull
        return self.sink.fileno()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize(
    "argv, closed, expected",
    [
        (["check", "{valid}"], False, 0),
        (["check", "{invalid}"], False, 1),
        (["check", "{missing}"], False, 2),
        (["random", "--n", "1001,1000", "--alpha", "1,1"], False, 4),  # CapacityError
        (["check", "{valid}"], True, 4),
        (["check", "--no-such-flag"], False, "argparse 2"),  # SystemExit before the pause
    ],
    ids=["exit 0", "exit 1", "exit 2", "capacity exit 4", "closed stdout exit 4", "argparse"],
)
def test_main_leaves_the_collector_as_found(
    tmp_path, capsys, monkeypatch, argv, closed, expected, enabled
):
    paths = {
        "valid": write_instance(tmp_path, VALID),
        "invalid": write_instance(tmp_path, INVALID, "invalid.json"),
        "missing": str(tmp_path / "missing.json"),
    }
    argv = [arg.format(**paths) for arg in argv]
    before = gc.isenabled()
    with open(tmp_path / "sink", "w") as sink:
        if closed:
            monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink))
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"argparse {exc.code}"
            assert code == expected
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
            monkeypatch.undo()
    capsys.readouterr()


# Documents for the comparison with the reference schemas. An edit deletes
# a value, grows or shrinks a list by one entry, or replaces a value: by a
# near miss of the rules, or in the property test by any random JSON value
# (ints, bools, integral and other floats, strings, None, lists and dicts).
_NEAR_MISSES = [0, 1, -1, 1.0, 2.5, True, math.nan, math.inf, "", "losing", None]
_NEAR_MISSES += [[], [1], [1, 1], [1, 1, 1], {}]
_EDITS = [("delete", None), ("grow", None), ("shrink", None)]
_EDITS += [("replace", value) for value in _NEAR_MISSES]
WELL_FORMED = {
    "k": 2,
    "n": [2, 2],
    "alpha": [1, 1],
    "kind": "losing",
    "lists": [[0, 2], [1, 1]],
    "arcs": [[[1, 1], [2, 1]], [[2, 1], [1, 2]]],
    "losers": [[1, 1], [2, 2]],
    "seed": 0,
}


def _slots(container):
    """(container, key) of every value nested in container, in document order."""
    for key in list(container) if isinstance(container, dict) else range(len(container)):
        yield container, key
        if isinstance(container[key], (dict, list)):
            yield from _slots(container[key])


def _apply(container, key, edit, value):
    """Apply one edit to container[key] in place; False if it does not apply."""
    if edit == "delete":
        del container[key]
    elif edit == "replace":
        container[key] = copy.deepcopy(value)
    elif not isinstance(container[key], list) or (edit == "shrink" and not container[key]):
        return False
    elif edit == "grow":
        container[key].append(1)
    else:
        container[key].pop()
    return True


def single_edits(doc):
    """Every copy of doc that one edit of one value makes."""
    for i in range(len(list(_slots(doc)))):
        for edit, value in _EDITS:
            edited = copy.deepcopy(doc)
            if _apply(*list(_slots(edited))[i], edit, value):
                yield edited


_INTEGERS = st.integers(-1, 3) | st.integers(-1, 3).map(float)
_VALUES = st.recursive(
    st.booleans() | st.floats() | st.text(max_size=2) | st.none() | _INTEGERS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)
_POSITIVE = st.integers(1, 3) | st.integers(1, 3).map(float)
_PAIRS = st.lists(_INTEGERS, min_size=2, max_size=2)
_RANDOM_WELL_FORMED = st.fixed_dictionaries(
    {
        "k": _POSITIVE,
        "n": st.lists(_POSITIVE, min_size=1, max_size=3),
        "alpha": st.lists(_POSITIVE, min_size=1, max_size=3),
    },
    optional={
        "kind": st.sampled_from(["losing", "score"]),
        "lists": st.lists(st.lists(_INTEGERS, max_size=3), max_size=3),
        "arcs": st.lists(st.lists(_PAIRS, max_size=3), max_size=3),
        "losers": st.lists(_PAIRS, max_size=3),
        "seed": _VALUES,
    },
)


@st.composite
def documents(draw):
    """Random well-formed documents with up to three edits, or random values."""
    doc = draw(_RANDOM_WELL_FORMED | _VALUES)
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc)) if isinstance(doc, (dict, list)) else []
        if not slots:
            break
        edit, value = draw(st.sampled_from(_EDITS) | st.tuples(st.just("replace"), _VALUES))
        _apply(*draw(st.sampled_from(slots)), edit, value)
    return doc


def _check_document(doc, witness):
    """The whole document check: the fields, then a witness's vertex pairs,
    read against no shape, as verify reads them when the shape is refused."""
    cli._check_fields(doc, witness)
    if witness:
        cli._witness_vertices(doc, None)


def _accepts(doc, witness):
    try:
        _check_document(doc, witness)
    except InputError:
        return False
    return True


@pytest.fixture(scope="module")
def reference_validators():
    jsonschema = pytest.importorskip("jsonschema")
    return [
        (False, jsonschema.Draft202012Validator(INSTANCE_SCHEMA)),
        (True, jsonschema.Draft202012Validator(WITNESS_SCHEMA)),
    ]


class TestDocumentCheck:
    def test_every_single_edit_agrees_with_the_reference_schemas(self, reference_validators):
        docs = [WELL_FORMED, *single_edits(WELL_FORMED)]
        for witness, validator in reference_validators:
            verdicts = [(_accepts(doc, witness), validator.is_valid(doc)) for doc in docs]
            assert [ours for ours, _ in verdicts] == [ref for _, ref in verdicts]
            # Both verdicts occur, so the comparison is not vacuous.
            assert {ours for ours, _ in verdicts} == {True, False}

    @settings(max_examples=1000, deadline=None)
    @given(doc=documents())
    def test_agrees_with_the_reference_schemas(self, reference_validators, doc):
        for witness, validator in reference_validators:
            assert _accepts(doc, witness) == validator.is_valid(doc)

    @pytest.mark.parametrize(
        "cmd, base, field, value, path",
        [
            ("check", VALID, "k", True, "k"),
            ("check", VALID, "n", [0, 2], "n[0]"),
            ("check", VALID, "n", [], "n"),
            ("check", VALID, "kind", "wins", "kind"),
            ("check", VALID, "kind", 1, "kind"),
            ("check", VALID, "lists", [[1.5]], "lists[0][0]"),
            ("verify", WITNESS, "losers", [[1]], "losers[0]"),
            ("verify", WITNESS, "losers", [[1, 2, 3]], "losers[0]"),
            ("verify", WITNESS, "losers", [[1, 1], [1, 1.5]], "losers[1]"),
            ("verify", WITNESS, "arcs", [[1, 2]], "arcs[0][0]"),
            ("verify", WITNESS, "arcs", [[[1, 1], [2, 1, 1]]], "arcs[0][1]"),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, cmd, base, field, value, path):
        doc = dict(base, **{field: value})
        code, out, err = run(capsys, cmd, write_instance(tmp_path, doc))
        assert code == 2 and out == ""
        assert f"document fails the schema: {path} must be" in err
        assert "Traceback" not in err

    def test_missing_key_is_named(self, tmp_path, capsys):
        doc = {key: value for key, value in VALID.items() if key != "kind"}
        code, _, err = run(capsys, "check", write_instance(tmp_path, doc))
        assert code == 2
        assert "document fails the schema: kind must be present" in err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        doc = dict(VALID, n=[2.0, 2], lists=[[0, 2.0], [1.0, 1]])
        code, out, _ = run(capsys, "check", write_instance(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_integral_float_pairs_read_as_their_int_pairs(self, tmp_path, capsys):
        # Inside the shape a float pair finds its vertex; outside it, the
        # violation names the vertex with int fields, as the int pair does.
        # A losers document reads an in-shape pair as its vertex id, and the
        # one loser no id names stays a VertexId for the violation.
        arcs = [[[2, 1], [1, 1]], [[1, 2], [2, 1]], [[1, 1], [2, 2]], [[9, 1], [2, 2]]]
        losers = [[2, 1], [2, 1], [1, 1], [9, 1]]
        shape = {"k": 2, "n": [2, 2], "alpha": [1, 1]}
        float_arcs = [[[float(x) for x in pair] for pair in arc] for arc in arcs]
        float_losers = [[float(x) for x in pair] for pair in losers]
        for doc, floats in [(dict(shape, arcs=arcs), dict(shape, arcs=float_arcs)),
                            (dict(shape, losers=losers), dict(shape, losers=float_losers))]:
            code, out, _ = run(capsys, "verify", write_instance(tmp_path, doc))
            assert code == 1
            assert json.loads(out)["violations"] == [{
                "selection_rank": 3, "kind": "bad-vertex",
                "detail": "vertices outside the shape: [VertexId(part=8, index=0)]",
            }]
            assert run(capsys, "verify", write_instance(tmp_path, floats)) == (code, out, "")

    @pytest.mark.parametrize(
        "fields", [("losers",), ("arcs",), ("arcs", "losers")], ids=["losers", "arcs", "both"]
    )
    def test_verify_refuses_what_the_document_check_refuses(self, tmp_path, capsys, fields):
        """verify looks a witness's vertex pairs up in one pass and checks the
        document only on a miss: every single edit of a witness still exits 2
        with the document check's message exactly when that check refuses it."""
        keys = ("k", "n", "alpha", "kind", "lists", *fields)
        base = {key: WELL_FORMED[key] for key in keys}
        path = tmp_path / "w.json"
        refused = 0
        for doc in [base, *single_edits(base)]:
            try:
                _check_document(doc, witness=True)
                expected = None
            except InputError as exc:
                expected = f"error: {exc}\n"
            path.write_text(json.dumps(doc))
            code, _, err = run(capsys, "verify", str(path))
            if expected is None:
                assert code != 2 or "fails the schema" not in err
            else:
                refused += 1
                assert (code, err) == (2, expected)
        assert refused > 10

    @pytest.mark.parametrize(
        "edit, path",
        [
            ({"losers": [[1, 1], [1, True], [2, 2], [2, 2]]}, "losers[1]"),
            ({"losers": [[1, 1], [1, 1], [2, 2], [2.0, 2.5]]}, "losers[3]"),
            ({"k": 3, "losers": [[1, 1], [1, 1], [2, 2], [2]]}, "losers[3]"),
            ({"alpha": [3, 1], "losers": [[1, 1], [False, 1]]}, "losers[1]"),
            ({"n": [300, 300], "alpha": [150, 1], "losers": [[1, 1], "x"]}, "losers[1]"),
            ({"arcs": [[[1, 1], [2, True]]]}, "arcs[0][1]"),
            ({"arcs": [[[1, 1], [2, 1]], [[1, 2]]], "losers": [[1, 1], [False, 2]]}, "losers[1]"),
            ({"k": 1, "arcs": [[[1, 1], [2, 1.5]]]}, "arcs[0][1]"),
            ({"arcs": [[[9, 9], [1, 1]], [[1, 2], [2, 1]], [[1, 1], [2, 1.5]]]}, "arcs[2][1]"),
            ({"arcs": [[[1.0, 1], [2, 1]], [[1, 2], [2, 1]], [[1, 1], [2]]]}, "arcs[2][1]"),
        ],
        ids=[
            "bool-finds-a-vertex", "non-integral-float", "k-mismatch", "bad-alpha",
            "over-limit", "bool-in-an-arc", "bool-in-unread-losers", "arc-and-k-mismatch",
            "miss-before-a-float", "float-before-a-short-pair",
        ],
    )
    def test_pair_schema_errors_come_first(self, tmp_path, capsys, edit, path):
        code, out, err = run(capsys, "verify", write_instance(tmp_path, dict(WITNESS, **edit)))
        assert code == 2 and out == ""
        assert f"document fails the schema: {path} must be" in err

    @pytest.mark.parametrize("emit", ["losers", "arcs"])
    def test_only_the_missed_pair_is_read_again(self, capsys, emit):
        # One pair outside the shape in a T = 10^4 witness: the lookup pass
        # finds every other pair, and only the missed one is read entry by
        # entry, two calls of _integral, into the VertexId a violation names.
        code, out, _ = run(capsys, "random", "--n", "100,100", "--alpha", "1,1", "--emit", emit)
        assert code == 0
        doc = json.loads(out)
        shape = cli._shape_from_doc(doc)
        clean = cli._witness_vertices(copy.deepcopy(doc), shape)
        if emit == "losers":
            doc["losers"][5000] = [9, 9]
            clean[-1][5000] = VertexId(8, 8)
        else:
            doc["arcs"][5000][0] = [9, 9]
            clean[5000][0] = VertexId(8, 8)
        with mock.patch.object(cli, "_integral", side_effect=cli._integral) as integral:
            assert cli._witness_vertices(doc, shape) == clean
        assert integral.call_count == 2

    def test_witness_check_leaves_extra_losers_to_verify(self):
        # Structure only: a well-formed pair outside the shape passes the
        # document check; what verify makes of it is not decided there.
        doc = dict(WITNESS, losers=WITNESS["losers"] + [[9, 9]])
        _check_document(doc, witness=True)

    @pytest.mark.parametrize(
        "text",
        ['{"k": ' + "1" * 5000 + "}", '{"k": ' + "[" * 100_000],
        ids=["integer-beyond-digit-limit", "deep-nesting"],
    )
    def test_undecodable_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert "Traceback" not in err


# Command-line fuzz: document bytes (small instances, as JSON or text and
# possibly off by one; random or edited JSON values; random text and bytes)
# fed by file or by a strictly decoding stdin, and random shape flags.
@st.composite
def small_shapes(draw):
    """Part sizes and arities of a shape with k <= 3 and n_i <= 4."""
    n = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return n, [draw(st.integers(1, n_i)) for n_i in n]


@st.composite
def instance_documents(draw):
    n, alpha = draw(small_shapes())
    k = len(n)
    M = random_hypertournament(Shape(tuple(n), tuple(alpha)), draw(st.integers(0, 2**64 - 1)))
    kind = draw(st.sampled_from(["losing", "score"]))
    lists = [list(lst) for lst in (losing_scores(M) if kind == "losing" else scores(M)).lists]
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        lists[i][draw(st.integers(0, n[i] - 1))] += draw(st.sampled_from([-1, 1]))
    doc = {"k": k, "n": n, "alpha": alpha, "kind": kind, "lists": lists}
    if draw(st.booleans()):
        return cli._text_instance(doc)
    if draw(st.booleans()):
        doc["losers"] = [[arc.loser.part + 1, arc.loser.index + 1] for arc in M.arcs]
    return json.dumps(doc)


_DOCUMENT_BYTES = (
    instance_documents().map(str.encode)
    | documents().map(lambda doc: json.dumps(doc).encode())
    | st.text(alphabet="0123 -\n#{}[],:losingcre", max_size=40).map(str.encode)
    | st.binary(max_size=40)
)
_DOCUMENT_COMMANDS = st.sampled_from([
    ["check"],
    ["check", "--sort", "--format", "text"],
    ["realize"],
    ["realize", "--method", "flow", "--emit", "losers"],
    ["realize", "--sort", "--format", "text"],
    ["verify"],
    ["verify", "--format", "text"],
    ["convert"],
    ["convert", "--sort", "--format", "text"],
])
_JUNK_FLAG = st.text(alphabet="0123,-x. ", max_size=4)


@st.composite
def shape_flags(draw):
    """--n and --alpha of a small shape, either value possibly random text."""
    n, alpha = (",".join(map(str, xs)) for xs in draw(small_shapes()))
    return ["--n", draw(st.just(n) | _JUNK_FLAG), "--alpha", draw(st.just(alpha) | _JUNK_FLAG)]


_SEED = st.integers(-(2**65), 2**65).map(str) | st.text(alphabet="0123-x", max_size=3)
_FLAG_COMMANDS = st.tuples(
    st.sampled_from([[], ["--mode", "full-permutation", "--emit", "arcs"]]), _SEED
).map(lambda t: ["random", *t[0], "--seed", t[1]]) | st.sampled_from(["losing", "score"]).map(
    lambda kind: ["enumerate", "--budget", "4096", "--kind", kind]
)
_FLAG_CALLS = st.tuples(_FLAG_COMMANDS, shape_flags()).map(lambda t: (t[0] + t[1], None, False))
_CLI_CALLS = _FLAG_CALLS | st.tuples(_DOCUMENT_COMMANDS, _DOCUMENT_BYTES, st.booleans())


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc"


@settings(max_examples=300, deadline=None)
@given(call=_CLI_CALLS)
@example(call=(["realize"], json.dumps(DEEP).encode(), False))
@example(call=(["check"], UTF16, False))
@example(call=(["check"], UTF16, True))
@example(call=(["enumerate", "--n", "100", "--alpha", "3"], None, False))
@example(call=(["verify"], b'{"k":2,"n":[40,40],"alpha":[20,20],"losers":[[1,1]]}', True))
def test_every_call_ends_in_a_documented_exit_code(fuzz_path, call):
    """main returns 0-4 or argparse exits 2; any other exception fails."""
    argv, data, via_stdin = call
    stdin = sys.stdin
    if data is not None and via_stdin:
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
        argv = [argv[0], "-", *argv[1:]]
    elif data is not None:
        fuzz_path.write_bytes(data)
        argv = [argv[0], str(fuzz_path), *argv[1:]]
    err = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stderr(err):
        with redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    assert gc.isenabled()
