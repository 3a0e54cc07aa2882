import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperscores import cli
from hyperscores.cli import InputError, main
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
WITNESS = {"k": 2, "n": [2, 2], "alpha": [1, 1], "losers": [[1, 1], [1, 1], [2, 2], [2, 2]]}

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


def _accepts(doc, witness):
    try:
        cli._check_document(doc, witness)
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

    def test_witness_check_leaves_extra_losers_to_verify(self):
        # Structure only: a well-formed pair outside the shape passes the
        # document check; what verify makes of it is not decided there.
        doc = dict(WITNESS, losers=WITNESS["losers"] + [[9, 9]])
        cli._check_document(doc, witness=True)

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
