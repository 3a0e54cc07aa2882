"""Committed mutants of the package, each with the tests that must kill it.

Usage, from the repository root with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/hyperscores``, an original
text that occurs there exactly once, its replacement and the pytest node ids
that must fail once the replacement is made. For each mutant the run copies
``src`` and ``tests`` to a temporary directory, makes the one replacement
there and runs its node ids with ``-x`` and a fixed hypothesis seed. A
mutant is killed when pytest reports a failed test (exit status 1); any other
status, a pass included, counts against it and prints pytest's output. A run
has ``TIMEOUT`` seconds (each takes about 2 s); one that outlasts them is
stopped, printed as ``TIMED OUT`` and counted as not killed, since a mutant
that makes the package loop forever would otherwise hold the whole run. The
run prints one line per mutant and exits 1 unless every mutant was killed.
The working tree is never written.

``EQUIVALENT`` lists mutants that change no result, each with its reason; they
are not run. ``tests/test_mutants.py`` checks that every original text of both
lists still occurs exactly once, so a refactor that moves one must update it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

TIMEOUT = 60

CRITERIA = "tests/test_criteria.py"
CLI = "tests/test_cli.py"

MUTANTS = [
    {
        "file": "criteria.py",
        "original": "offset = rhs_full - total",
        "replacement": "offset = rhs_full",
        "tests": [f"{CRITERIA}::TestCheckScores"],
    },
    {
        "file": "criteria.py",
        "original": "total = sum(map(mul, shape.n, shape.through)) - total",
        "replacement": "total = sum(map(mul, shape.n, shape.through))",
        "tests": [f"{CRITERIA}::TestCheckScores"],
    },
    {
        "file": "criteria.py",
        "original": "base = [pref_i[::-1] for pref_i in pref]",
        "replacement": "base = [pref_i for pref_i in pref]",
        "tests": [f"{CRITERIA}::TestCheckScores"],
    },
    {
        "file": "criteria.py",
        "original": "g = [row[::-1] for row in g]",
        "replacement": "g = [row for row in g]",
        "tests": [f"{CRITERIA}::TestCheckScores"],
    },
    {
        "file": "criteria.py",
        "original": "(pref[-1], shape.binomial_rows[-1], R[-1])",
        "replacement": "(pref[-1], shape.binomial_rows[-1], R[-1][::-1])",
        "tests": [f"{CRITERIA}::TestArityOneEnvelope"],
    },
    {
        "file": "criteria.py",
        "original": "for lst, p_i in zip(data, p))",
        "replacement": "for lst, p_i in zip(R, p))",
        "tests": [f"{CRITERIA}::TestArityOneEnvelope::test_score_entries_above_through_equal_naive"],
    },
    {
        "file": "criteria.py",
        "original": "base_drop = max(0, row_b[0] - row_b[1])",
        "replacement": "base_drop = 0",
        "tests": [f"{CRITERIA}::TestEverySplit::test_a_row_skips_the_heads_its_slack_clears"],
    },
    {
        "file": "criteria.py",
        "original": "g_rise = max(0, row_g[1] - row_g[0], row_g[-1] - row_g[-2])",
        "replacement": "g_rise = max(0, row_g[1] - row_g[0])",
        "tests": [f"{CRITERIA}::TestEverySplit::test_a_row_skips_the_heads_its_slack_clears"],
    },
    {
        "file": "criteria.py",
        "original": "drop, q = base_drop + slope * c0 * g_rise, 0",
        "replacement": "drop, q = base_drop + slope * g_rise, 0",
        "tests": [f"{CRITERIA}::TestEverySplit::test_a_row_skips_the_heads_its_slack_clears"],
    },
    {
        "file": "criteria.py",
        "original": "q += 1 + s // drop if drop else n",
        "replacement": "q += 2 + s // drop if drop else n",
        "tests": [f"{CRITERIA}::TestEverySplit::test_a_row_skips_the_heads_its_slack_clears"],
    },
    {
        "file": "criteria.py",
        "original": "steps = [-((b1 - b2) // (m2 - m1))",
        "replacement": "steps = [((b1 - b2) // (m2 - m1))",
        "tests": [f"{CRITERIA}::TestEverySplit::test_whole_result_equals_naive"],
    },
    {
        "file": "criteria.py",
        "original": "floor = [-least[i] for i in last]",
        "replacement": "floor = [1 - least[i] for i in last]",
        "tests": ["tests/test_oracle.py"],
    },
    {
        "file": "criteria.py",
        "original": "[-x for x in xs[0]]",
        "replacement": "[1 - x for x in xs[0]]",
        "tests": ["tests/test_oracle.py::TestAcceptedSearch"],
    },
    {
        "file": "cli.py",
        "original": "if not (_integral(k) and k >= 1):",
        "replacement": "if not _integral(k):",
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": "if type(values) is not list or not values:",
        "replacement": "if type(values) is not list:",
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": "if not ((type(x) is int or _integral(x)) and x >= 1):",
        "replacement": "if not ((type(x) is int or _integral(x)) and x >= 0):",
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": 'if "kind" in doc and doc["kind"] not in ("losing", "score"):',
        "replacement": 'if False:',
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": 'if witness and "arcs" in doc and type(doc["arcs"]) is not list:',
        "replacement": 'if False:',
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": "return type(x) is int or (type(x) is float and x.is_integer())",
        "replacement": "return type(x) is int or type(x) is float",
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "cli.py",
        "original": "if type(pair) is not list or len(pair) != 2 or not all(map(_integral, pair)):",
        "replacement": "if type(pair) is not list or not all(map(_integral, pair)):",
        "tests": [f"{CLI}::TestDocumentCheck"],
    },
    {
        "file": "realize.py",
        "original": "if need[w] > 0:",
        "replacement": "if need[w] >= 0:",
        "tests": ["tests/test_realize.py"],
    },
    {
        "file": "oracle.py",
        "original": "states = {st[:lo] + tuple(sorted(st[lo:e + 1])) + st[e + 1:] for st in states}",
        "replacement": "states = {st[:lo] + tuple(st[lo:e + 1]) + st[e + 1:] for st in states}",
        "tests": ["tests/test_oracle.py"],
    },
    {
        "file": "oracle.py",
        "original": (
            "sorted(_score_tuples(shape, only_achievable))),\n"
            "        score_only_accepted=tuple(sorted(_score_tuples(shape, only_accepted))),"
        ),
        "replacement": (
            "sorted(_score_tuples(shape, only_accepted))),\n"
            "        score_only_accepted=tuple(sorted(_score_tuples(shape, only_achievable))),"
        ),
        "tests": ["tests/test_oracle.py::TestCrossValidate::test_planted_differences_flip_to_the_score_side"],
    },
    {
        "file": "model.py",
        "original": "return {v: through[v.part] - x for v, x in lost.items()}",
        "replacement": "return {v: through[0] - x for v, x in lost.items()}",
        "tests": ["tests/test_model.py::TestScores"],
    },
    {
        "file": "model.py",
        "original": "for x in set().union(*filter(None, M._orders or ())):",
        "replacement": "for x in ():",
        "tests": ["tests/test_model.py::TestScores::test_score_map_names_a_vertex_outside_the_shape"],
    },
]

EQUIVALENT = [
    {
        "file": "criteria.py",
        "original": "if (b - b1) * (m2 - m1) <= (b2 - b1) * (m - m1):",
        "replacement": "if (b - b1) * (m2 - m1) < (b2 - b1) * (m - m1):",
        "reason": (
            "it keeps a middle line collinear with its neighbours; its two "
            "breakpoints then coincide, so bisect_right never returns it"
        ),
    },
]


def run(mutant) -> subprocess.CompletedProcess | None:
    """Apply the mutant to a temporary copy of src and tests and run its node
    ids there; None when the run outlasts ``TIMEOUT``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, name),
                os.path.join(tmp, name),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        path = os.path.join(tmp, "src", "hyperscores", mutant["file"])
        with open(path, encoding="utf-8") as f:
            source = f.read()
        assert source.count(mutant["original"]) == 1, mutant["original"]
        with open(path, "w", encoding="utf-8") as f:
            f.write(source.replace(mutant["original"], mutant["replacement"]))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        try:
            return subprocess.run(command + mutant["tests"], cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        done = run(mutant)
        killed = done is not None and done.returncode == 1
        survivors += not killed
        if done is None:
            status = "TIMED OUT"
        elif killed:
            status = "killed"
        else:
            status = f"SURVIVED (pytest exit {done.returncode})"
        print(f"{status} in {time.perf_counter() - start:.1f} s: {mutant['file']}: {mutant['original']!r}")
        if done is not None and not killed:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
