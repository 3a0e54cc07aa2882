import math
import random
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import find, given, settings, strategies as st

from hyperscores import (
    CheckResult,
    PrefixViolation,
    ScoreLists,
    Shape,
    SplitMix64,
    achievable_losing_lists,
    check_losing_lists,
    check_score_lists,
    losing_scores,
    losing_to_scores,
    random_hypertournament,
    scores,
    scores_to_losing,
    selection_vertices,
)
from hyperscores import criteria
from hyperscores.model import MAX_SELECTIONS, conform_lists
from reference import enumerate_assignments

SMALL_SHAPES = [
    Shape((2, 2), (1, 1)),
    Shape((3, 2), (1, 1)),
    Shape((3, 2), (2, 1)),
    Shape((2, 2, 2), (1, 1, 1)),
    Shape((4,), (2,)),
]


def random_sorted_lists(shape, rng, kind):
    caps = shape.through
    lists = tuple(
        tuple(sorted(rng.below(caps[i] + 1) for _ in range(shape.n[i])))
        for i in range(shape.k)
    )
    return ScoreLists(kind, lists)


class TestCheckLosing:
    def test_valid_example(self):
        shape = Shape((2, 2), (1, 1))
        result = check_losing_lists(shape, [[0, 2], [1, 1]])
        assert result == CheckResult(True, None, True)
        # Achievability confirmed by brute force over the 16 assignments.
        assert ((0, 2), (1, 1)) in achievable_losing_lists(shape).lists

    def test_invalid_at_small_prefix(self):
        shape = Shape((2, 2), (1, 1))
        result = check_losing_lists(shape, [[0, 2], [0, 2]])
        assert not result.valid
        assert result.witness_violation == PrefixViolation((1, 1), 0, 1)
        assert result.equality_at_full
        assert ((0, 2), (0, 2)) not in achievable_losing_lists(shape).lists

    def test_equality_failure(self):
        result = check_losing_lists(Shape((2, 2), (1, 1)), [[0, 1], [1, 1]])
        assert not result.valid
        assert not result.equality_at_full
        assert result.witness_violation == PrefixViolation((2, 2), 3, 4)

    def test_total_above_reports_full_prefix(self):
        result = check_losing_lists(Shape((2, 2), (1, 1)), [[0, 3], [1, 1]])
        assert not result.valid
        assert not result.equality_at_full
        assert result.witness_violation == PrefixViolation((2, 2), 5, 4)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            check_losing_lists(Shape((2, 2), (1, 1)), ScoreLists("score", ((0, 2), (1, 1))))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_losing_lists(Shape((2, 2), (1, 1)), [[0, 2, 0], [1, 1]])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            check_losing_lists(Shape((2, 2), (1, 1)), [[2, 0], [1, 1]])

    def test_necessity_on_enumerated(self):
        shape = Shape((3, 1), (1, 1))
        for m in enumerate_assignments(shape):
            assert check_losing_lists(shape, losing_scores(m)).valid
            assert check_score_lists(shape, scores(m)).valid

    def test_necessity_on_random(self):
        for seed in range(25):
            shape = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
            m = random_hypertournament(shape, seed, "full-permutation")
            assert check_losing_lists(shape, losing_scores(m)).valid
            assert check_score_lists(shape, scores(m)).valid


class TestCheckScores:
    def test_valid_example_with_tight_prefix(self):
        shape = Shape((2, 2), (1, 1))
        result = check_score_lists(shape, [[0, 2], [1, 1]])
        assert result == CheckResult(True, None, True)
        # The bound is tight at p=(1,1): lhs = 1 = rhs.
        data = ((0, 2), (1, 1))
        lhs = data[0][0] + data[1][0]
        rhs = 1 * 2 + 1 * 2 + 1 * 1 - 4
        assert (lhs, rhs) == (1, 1)

    def test_all_zero_invalid(self):
        result = check_score_lists(Shape((2, 2), (1, 1)), [[0, 0], [0, 0]])
        assert not result.valid
        assert not result.equality_at_full
        assert result.witness_violation == PrefixViolation((1, 1), 0, 1)

    def test_converted_valid_lists_stay_valid(self):
        shape = Shape((3, 2), (2, 1))
        for lists in achievable_losing_lists(shape).lists:
            s = losing_to_scores(shape, ScoreLists("losing", lists))
            assert check_score_lists(shape, s).valid


class TestSinglePart:
    def test_staircase_valid(self):
        # Brute force over the 8 loser assignments of the 3 pair-arcs agrees.
        shape = Shape((3,), (2,))
        assert ((0, 1, 2),) in achievable_losing_lists(shape).lists
        assert check_losing_lists(shape, ([0, 1, 2],)).valid

    def test_cyclic_valid(self):
        shape = Shape((3,), (2,))
        assert ((1, 1, 1),) in achievable_losing_lists(shape).lists
        assert check_losing_lists(shape, ([1, 1, 1],)).valid

    def test_concentrated_invalid(self):
        result = check_losing_lists(Shape((3,), (2,)), ([0, 0, 3],))
        assert not result.valid
        assert result.witness_violation == PrefixViolation((2,), 0, 1)


class TestConversion:
    def test_reverse_complement_example(self):
        shape = Shape((2, 2), (1, 1))
        assert losing_to_scores(shape, [[0, 2], [1, 1]]).lists == ((0, 2), (1, 1))

    def test_forced_totals_example(self):
        shape = Shape((2, 2), (1, 1))
        assert losing_to_scores(shape, [[0, 0], [2, 2]]).lists == ((2, 2), (0, 0))

    def test_entry_above_bound_rejected(self):
        with pytest.raises(ValueError):
            losing_to_scores(Shape((2, 2), (1, 1)), [[0, 3], [1, 1]])
        with pytest.raises(ValueError):
            scores_to_losing(Shape((2, 2), (1, 1)), [[0, 3], [1, 1]])

    def test_involution_on_random_lists(self):
        rng = SplitMix64(2024)
        for shape in SMALL_SHAPES:
            for _ in range(50):
                r = random_sorted_lists(shape, rng, "losing")
                assert scores_to_losing(shape, losing_to_scores(shape, r)) == r

    def test_matches_per_vertex_complement(self):
        shape = Shape((3, 2), (2, 1))
        m = random_hypertournament(shape, seed=77)
        assert losing_to_scores(shape, losing_scores(m)) == scores(m)


class TestEquivalence:
    def test_score_check_equals_converted_losing_check(self):
        rng = SplitMix64(99)
        for shape in SMALL_SHAPES:
            for _ in range(100):
                s = random_sorted_lists(shape, rng, "score")
                converted = scores_to_losing(shape, s)
                assert (
                    check_score_lists(shape, s).valid
                    == check_losing_lists(shape, converted).valid
                )


def naive_check(shape, lists, kind):
    """The tuple-by-tuple scan the envelope replaced: every prefix tuple in
    lexicographic order, each bound evaluated afresh with math.comb."""
    data = conform_lists(shape, lists, kind)
    pref = [tuple(accumulate(lst, initial=0)) for lst in data]
    total = shape.total_arcs()
    through = shape.through
    found = None
    for p in product(*(range(n_i + 1) for n_i in shape.n)):
        lhs = sum(pref_i[p_i] for pref_i, p_i in zip(pref, p))
        if kind == "losing":
            rhs = math.prod(math.comb(p_i, a_i) for p_i, a_i in zip(p, shape.alpha))
        else:
            rhs = -total + sum(p_i * t for p_i, t in zip(p, through))
            rhs += math.prod(
                math.comb(n_i - p_i, a_i) for n_i, p_i, a_i in zip(shape.n, p, shape.alpha)
            )
        if lhs < rhs:
            found = PrefixViolation(p, lhs, rhs)
            break
    lhs_full = sum(pref_i[-1] for pref_i in pref)
    rhs_full = total if kind == "losing" else (sum(shape.alpha) - 1) * total
    equality = lhs_full == rhs_full
    if found is None and not equality:
        found = PrefixViolation(tuple(shape.n), lhs_full, rhs_full)
    return CheckResult(found is None and equality, found, equality)


def near_bound_lists(shape, kind, rng):
    """Lists of a nearly transitive hypertournament, nudged by a few units.

    A transitive hypertournament (each arc loses at its highest-ranked vertex)
    meets the bounds with equality at many prefixes, so unit moves between
    entries make violations land anywhere, late heads included.
    """
    rank = {v: rng.random() for v in shape.vertices()}
    noise = rng.choice([0.0, 0.05, 0.3])
    counts = Counter()
    for sel in selection_vertices(shape):
        counts[rng.choice(sel) if rng.random() < noise else max(sel, key=rank.get)] += 1
    lists = ScoreLists.from_map("losing", shape, counts)
    if kind == "score":
        lists = losing_to_scores(shape, lists)
    work = [list(lst) for lst in lists.lists]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(shape.k), rng.randrange(shape.k)
        src = rng.randrange(shape.n[i])
        if work[i][src] > 0:
            work[i][src] -= 1
            work[j][rng.randrange(shape.n[j])] += 1
    if rng.random() < 0.1:
        work[rng.randrange(shape.k)][-1] += rng.choice([-1, 1])
    return tuple(tuple(sorted(max(x, 0) for x in lst)) for lst in work)


@st.composite
def check_cases(draw, max_tuples=3000, max_arcs=3000):
    """Shape, kind and lists with k <= 5 and n_i <= 9, mostly near the bound."""
    k = draw(st.integers(1, 5))
    n, alpha, tuples, arcs = [], [], 1, 1
    for _ in range(k):
        n_i = draw(st.integers(1, max(1, min(9, max_tuples // tuples - 1))))
        # alpha_i = n_i always fits; it gives the longest run of zero binomials.
        fits = [a for a in range(1, n_i + 1) if arcs * math.comb(n_i, a) <= max_arcs]
        a_i = draw(st.sampled_from(fits))
        n.append(n_i)
        alpha.append(a_i)
        tuples *= n_i + 1
        arcs *= math.comb(n_i, a_i)
    shape = Shape(tuple(n), tuple(alpha))
    kind = draw(st.sampled_from(["losing", "score"]))
    if draw(st.integers(0, 3)) == 0:
        caps = shape.through
        lists = tuple(
            tuple(sorted(draw(st.integers(0, caps[i])) for _ in range(n[i])))
            for i in range(k)
        )
    else:
        lists = near_bound_lists(shape, kind, draw(st.randoms(use_true_random=False)))
    return shape, kind, lists


class TestEnvelopeAgainstNaiveScan:
    @settings(max_examples=400, deadline=None)
    @given(check_cases())
    def test_whole_result_equals_naive(self, case):
        shape, kind, lists = case
        fn = check_losing_lists if kind == "losing" else check_score_lists
        assert fn(shape, lists) == naive_check(shape, lists, kind)


def split_of(shape, cap=MAX_SELECTIONS):
    """The number j of head parts the check should pick: the least j >= 1
    whose tail has at most as many lines as there are heads and at most cap
    lines, else k - 1."""
    sizes = [n_i + 1 for n_i in shape.n]
    return next(
        (
            j
            for j in range(1, shape.k)
            if math.prod(sizes[j:]) <= min(math.prod(sizes[:j]), cap)
        ),
        shape.k - 1,
    )


# (shape, the split the check picks): every j from 1 to k - 1 for k = 2..5.
SPLIT_SHAPES = [
    (Shape((4, 3), (2, 1)), 1),
    (Shape((8, 2, 1), (3, 1, 1)), 1),
    (Shape((3, 3, 2), (2, 1, 1)), 2),
    (Shape((11, 2, 1, 1), (2, 1, 1, 1)), 1),
    (Shape((4, 3, 2, 2), (2, 2, 1, 1)), 2),
    (Shape((2, 2, 4, 4), (1, 1, 2, 2)), 3),
    (Shape((15, 1, 1, 1, 1), (2, 1, 1, 1, 1)), 1),
    (Shape((4, 3, 1, 1, 1), (2, 2, 1, 1, 1)), 2),
    (Shape((2, 2, 2, 2, 2), (1, 2, 1, 1, 1)), 3),
    (Shape((1, 1, 2, 3, 3), (1, 1, 1, 2, 1)), 4),
]


def split_cases(shape, kind):
    """Valid lists, the grand total one over, an early violation (each
    list's first entry moved to its last) and near-bound lists."""
    valid = losing_scores(random_hypertournament(shape, seed=sum(shape.n)))
    if kind == "score":
        valid = losing_to_scores(shape, valid)
    valid = [list(lst) for lst in valid.lists]
    plus = [list(lst) for lst in valid]
    plus[-1][-1] += 1
    early = [[0, *lst[1:-1], lst[-1] + lst[0]] if len(lst) > 1 else lst for lst in valid]
    rng = random.Random(shape.k)
    near = [near_bound_lists(shape, kind, rng) for _ in range(8)]
    return [valid, plus, early, *near]


class TestEverySplit:
    @pytest.mark.parametrize("kind", ["losing", "score"])
    @pytest.mark.parametrize(("shape", "j"), SPLIT_SHAPES, ids=lambda x: str(getattr(x, "n", x)))
    def test_whole_result_equals_naive(self, shape, j, kind, monkeypatch):
        assert split_of(shape) == j
        tails, lower_envelope = [], criteria._lower_envelope

        def envelope(base, g):
            tails.append(len(base))
            return lower_envelope(base, g)

        monkeypatch.setattr(criteria, "_lower_envelope", envelope)
        fn = check_losing_lists if kind == "losing" else check_score_lists
        cases = split_cases(shape, kind)
        for lists in cases:
            assert fn(shape, lists) == naive_check(shape, lists, kind)
        # One envelope per check, over the lines of the tail parts j..k-1.
        assert tails == [math.prod(n_i + 1 for n_i in shape.n[j:])] * len(cases)

    @pytest.mark.parametrize("kind", ["losing", "score"])
    def test_tail_stops_at_the_line_cap(self, kind, monkeypatch):
        # With a cap of 8 lines, tails of 9 or more lines are never built and
        # the heads take the parts they would have held.
        tails, lower_envelope = [], criteria._lower_envelope

        def envelope(base, g):
            tails.append(len(base))
            return lower_envelope(base, g)

        monkeypatch.setattr(criteria, "MAX_SELECTIONS", 8)
        monkeypatch.setattr(criteria, "_lower_envelope", envelope)
        fn = check_losing_lists if kind == "losing" else check_score_lists
        moved = 0
        for shape, j in SPLIT_SHAPES:
            capped = split_of(shape, cap=8)
            moved += capped != j
            tails.clear()
            cases = split_cases(shape, kind)
            for lists in cases:
                assert fn(shape, lists) == naive_check(shape, lists, kind)
            assert tails == [math.prod(n_i + 1 for n_i in shape.n[capped:])] * len(cases)
        assert moved > 0

    def test_shapes_cover_every_split(self):
        assert {(shape.k, j) for shape, j in SPLIT_SHAPES} == {
            (k, j) for k in range(2, 6) for j in range(1, k)
        }

    def test_drawn_shapes_reach_a_tail_of_several_parts(self):
        # find raises when no case check_cases draws has j < k - 1.
        find(check_cases(), lambda case: split_of(case[0]) < case[0].k - 1)
