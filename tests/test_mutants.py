import os
import re

import pytest

import mutants
from mutants import EQUIVALENT, MUTANTS, ROOT


def name(mutant):
    return f"{mutant['file']}:{mutant['original'][:40]}"

@pytest.mark.parametrize("mutant", MUTANTS + EQUIVALENT, ids=name)
def test_each_original_occurs_exactly_once(mutant):
    # A refactor that moves or rewrites an original text must update the list.
    with open(os.path.join(ROOT, "src", "hyperscores", mutant["file"]), encoding="utf-8") as f:
        source = f.read()
    assert source.count(mutant["original"]) == 1
    assert mutant["replacement"] != mutant["original"]
    assert mutant.get("tests") or mutant.get("reason")


@pytest.mark.parametrize("mutant", MUTANTS, ids=name)
def test_each_node_id_names_a_test(mutant):
    # Each named file exists and defines each class or function the id names.
    assert mutant["tests"]
    for node in mutant["tests"]:
        path, *names = node.split("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            source = f.read()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), node


def test_a_run_past_the_timeout_counts_as_not_killed(monkeypatch, capsys):
    # The run is stopped at the timeout, printed as TIMED OUT and counted
    # against the mutant.
    monkeypatch.setattr(mutants, "TIMEOUT", 0.01)
    monkeypatch.setattr(mutants, "MUTANTS", MUTANTS[:1])
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert out.startswith("TIMED OUT in ") and out.endswith("0 of 1 mutants killed\n")
