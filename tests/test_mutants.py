import os
import re

import pytest

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
