"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
comparison is exact (set equality, integer identities), with no tolerances.
"""

import json
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from hyperscores import (
    Hypertournament,
    ScoreLists,
    Shape,
    SplitMix64,
    achievable_losing_lists,
    check_losing_lists,
    check_score_lists,
    cross_validate,
    losing_score_map,
    losing_scores,
    losing_to_scores,
    random_hypertournament,
    realize_flow,
    realize_inductive,
    score_map,
    scores_to_losing,
)
from hyperscores.cli import main as cli_main
from hyperscores.model import _selection_ids
from hyperscores.realize import _repair
from reference import bounded_candidate_lists

QUARTET = [
    Shape((2, 2), (1, 1)),
    Shape((3, 2), (1, 1)),
    Shape((3, 2), (2, 1)),
    Shape((2, 2, 2), (1, 1, 1)),
]

RANDOM_SHAPES = [
    Shape((2, 2), (1, 1)),
    Shape((3, 2), (2, 1)),
    Shape((3, 3), (2, 2)),
    Shape((3, 2, 2), (1, 1, 1)),
    Shape((4, 3), (2, 1)),
    Shape((4, 4), (2, 2)),
    Shape((5, 4), (2, 2)),
    Shape((4, 4, 3), (2, 2, 1)),
    Shape((6, 5), (3, 2)),
    Shape((7, 6), (3, 3)),
    Shape((8, 7), (3, 3)),
    Shape((9, 9), (3, 3)),
]

FIXTURES = sorted(str(p) for p in (Path(__file__).parent / "fixtures").iterdir())


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def random_corpus():
    """1000 seeded hypertournaments over shapes with at most 10**4 arcs.

    Stores per-instance score maps rather than the structures themselves to
    keep memory flat.
    """
    for shape in RANDOM_SHAPES:
        assert shape.total_arcs() <= 10**4
    corpus = []
    for seed in range(1000):
        shape = RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]
        m = random_hypertournament(shape, seed=seed)
        corpus.append((shape, losing_score_map(m), score_map(m)))
    return corpus


def test_criterion_1_losing_characterization_exact():
    start = time.time()
    sizes = {}
    for shape in QUARTET:
        achievable = achievable_losing_lists(shape).lists
        accepted = cross_validate(shape)
        assert not accepted.losing_only_achievable
        assert not accepted.losing_only_accepted
        sizes[(shape.n, shape.alpha)] = len(achievable)
    assert sizes[((2, 2), (1, 1))] == 7
    report(
        "1",
        True,
        f"losing-side predicate equals enumeration on 4 shapes "
        f"(sizes {sizes}, {time.time() - start:.1f}s)",
    )


def test_criterion_2_score_characterization_exact():
    start = time.time()
    counts = {}
    for shape in QUARTET:
        rep = cross_validate(shape)
        assert not rep.score_only_achievable
        assert not rep.score_only_accepted
        # The report's score side is the losing side flipped; the score
        # predicate itself must accept exactly the flipped achievable lists.
        accepted = {c for c in bounded_candidate_lists(shape, "score") if check_score_lists(shape, c).valid}
        achievable = {losing_to_scores(shape, ScoreLists("losing", t)).lists
                      for t in achievable_losing_lists(shape).lists}
        assert accepted == achievable, shape
        counts[(shape.n, shape.alpha)] = rep.score_accepted_count
    report(
        "2",
        True,
        f"score-side predicate equals enumeration on 4 shapes "
        f"(sizes {counts}, {time.time() - start:.1f}s)",
    )


def test_criterion_3_realizer_round_trip():
    start = time.time()
    realized = 0
    for shape in QUARTET:
        for lists in sorted(achievable_losing_lists(shape).lists):
            for realizer in (realize_inductive, realize_flow):
                m = realizer(shape, lists)
                assert losing_scores(m).lists == lists, (shape, lists, realizer)
                realized += 1
    report(
        "3",
        True,
        f"{realized} witnesses reproduce their lists exactly, no realization "
        f"gap ({time.time() - start:.1f}s)",
    )


def test_criterion_4_total_identities(random_corpus):
    start = time.time()
    for shape, losing_map, score_by_vertex in random_corpus:
        total = shape.total_arcs()
        assert sum(losing_map.values()) == total
        assert sum(score_by_vertex.values()) == (sum(shape.alpha) - 1) * total
    report(
        "4",
        True,
        f"score and losing-score totals exact on {len(random_corpus)} random "
        f"instances ({time.time() - start:.1f}s)",
    )


def test_criterion_5_per_vertex_identity(random_corpus):
    checked = 0
    for shape, losing_map, score_by_vertex in random_corpus:
        through = shape.through
        for v, lose in losing_map.items():
            assert score_by_vertex[v] + lose == through[v.part]
            checked += 1
    report("5", True, f"score + losing score exact at {checked} vertices")


def test_criterion_6_conversion_equivalence():
    rng = SplitMix64(20260811)
    converted = 0
    for shape in QUARTET:
        caps = shape.through
        for _ in range(1000):
            lists = tuple(
                tuple(sorted(rng.below(caps[i] + 1) for _ in range(shape.n[i])))
                for i in range(shape.k)
            )
            score_lists = ScoreLists("score", lists)
            losing = scores_to_losing(shape, score_lists)
            assert (
                check_score_lists(shape, score_lists).valid
                == check_losing_lists(shape, losing).valid
            )
            assert losing_to_scores(shape, losing) == score_lists
            converted += 1
    report("6", True, f"{converted} random score lists agree through conversion")


def test_criterion_7_single_part_reduction():
    checked = accepted = 0
    for arity in (2, 3):
        for n in range(arity, 7):
            shape = Shape((n,), (arity,))
            achievable = achievable_losing_lists(shape, budget=arity ** shape.total_arcs()).lists
            for lst in combinations_with_replacement(range(shape.through[0] + 1), n):
                valid = check_losing_lists(shape, (lst,)).valid
                assert valid == ((lst,) in achievable), (shape, lst)
                checked += 1
                accepted += valid
    report(
        "7",
        True,
        f"single-part check equals enumeration on {checked} exhaustive lists "
        f"({accepted} accepted)",
    )


def swap(m, a, b):
    """``m`` with one loss moved from ``b`` to ``a`` by the realizers' repair:
    with a one unit under its target and b one over, its one-hop sweep gives
    a the arc of least rank that b loses and a lies in."""
    offsets = m.shape.offsets
    a, b = (offsets[v.part] + v.index for v in (a, b))
    losers = [offsets[v.part] + v.index for v in m.losers]
    lost = [[] for _ in range(offsets[-1])]
    for rank, v in enumerate(losers):
        lost[v].append(rank)
    need = [0] * offsets[-1]
    need[a], need[b] = 1, -1
    assert _repair(_selection_ids(m.shape), losers, lost, need, [b]) is None
    return Hypertournament._from_ids(m.shape, losers)


def test_criterion_8_swap_contract():
    shapes = [
        Shape((2, 2), (1, 1)),
        Shape((3, 2), (1, 1)),
        Shape((3, 2), (2, 1)),
        Shape((2, 2, 2), (1, 1, 1)),
        Shape((3, 3), (2, 2)),
        Shape((4, 2), (2, 1)),
    ]
    rng = SplitMix64(8)
    performed = 0
    while performed < 500:
        shape = shapes[performed % len(shapes)]
        m = random_hypertournament(shape, seed=rng.next_u64())
        arc = m.arcs[rng.below(len(m.arcs))]
        b = arc.loser
        a = arc.order[rng.below(len(arc.order) - 1)]
        before = losing_score_map(m)
        swapped = swap(m, a, b)
        changed = [rank for rank in range(len(m.arcs)) if m.losers[rank] != swapped.losers[rank]]
        assert len(changed) == 1
        after = losing_score_map(swapped)
        delta = {v: after[v] - before[v] for v in before if after[v] != before[v]}
        assert delta == {a: 1, b: -1}
        restored = swap(swapped, b, a)
        assert losing_score_map(restored) == before
        performed += 1
    report("8", True, f"{performed} swaps changed one arc and two entries, inverses restored")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    assert FIXTURES, "fixture suite must not be empty"
    pipelines = 0
    for fixture in FIXTURES:
        for method in ("inductive", "flow"):
            outputs = []
            for _ in range(2):  # byte-stability: identical flags, identical bytes
                assert cli_main(["check", fixture]) == 0
                check_out = capsys.readouterr().out
                assert cli_main(["realize", fixture, "--method", method]) == 0
                witness_out = capsys.readouterr().out
                wit_path = tmp_path / "witness.json"
                wit_path.write_text(witness_out)
                assert cli_main(["verify", str(wit_path)]) == 0
                verify_out = capsys.readouterr().out
                assert json.loads(verify_out)["lists_match"] is True
                outputs.append((check_out, witness_out, verify_out))
            assert outputs[0] == outputs[1]
            pipelines += 1
    with capsys.disabled():
        report("9", True, f"{pipelines} check/realize/verify pipelines exit 0, byte-stable")
