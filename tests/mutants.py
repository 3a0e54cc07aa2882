"""Committed mutants of the package, each with the tests that must kill it.

Usage, from the repository root with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/hyperscores``, an original
text that occurs there exactly once, its replacement and the pytest node ids
that must fail once the replacement is made. For each mutant the run copies
``src`` and ``tests`` to a temporary directory, makes the one replacement
there and runs its node ids with ``-x`` and a fixed hypothesis seed. A
mutant is killed when pytest reports a failed test (exit status 1); any other
status, a pass included, counts against it and prints pytest's output. The
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

CRITERIA = "tests/test_criteria.py"

MUTANTS = [
    {
        "file": "criteria.py",
        "original": "offset -= total",
        "replacement": "offset -= 0",
        "tests": [f"{CRITERIA}::TestCheckScores"],
    },
    {
        "file": "criteria.py",
        "original": "total = sum(map(mul, shape.n, through)) - total",
        "replacement": "total = sum(map(mul, shape.n, through))",
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
        "original": "floor = [q * step_k - least[i] for q, i in enumerate(last)]",
        "replacement": "floor = [q * step_k - least[i] + 1 for q, i in enumerate(last)]",
        "tests": ["tests/test_oracle.py"],
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


def run(mutant) -> subprocess.CompletedProcess:
    """Apply the mutant to a temporary copy of src and tests and run its node
    ids there."""
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
        return subprocess.run(command + mutant["tests"], cwd=tmp, env=env, capture_output=True, text=True)


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        done = run(mutant)
        killed = done.returncode == 1
        survivors += not killed
        status = "killed" if killed else f"SURVIVED (pytest exit {done.returncode})"
        print(f"{status} in {time.perf_counter() - start:.1f} s: {mutant['file']}: {mutant['original']!r}")
        if not killed:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
