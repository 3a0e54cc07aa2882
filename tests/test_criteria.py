import math
import random
from collections import Counter
from bisect import bisect_right
from itertools import accumulate, combinations_with_replacement, product

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


def naive_sides(shape, lists, kind):
    """Every prefix tuple in lexicographic order with both sides of its
    bound, each evaluated afresh with math.comb."""
    data = conform_lists(shape, lists, kind)
    pref = [tuple(accumulate(lst, initial=0)) for lst in data]
    total = shape.total_arcs()
    through = shape.through
    for p in product(*(range(n_i + 1) for n_i in shape.n)):
        lhs = sum(pref_i[p_i] for pref_i, p_i in zip(pref, p))
        if kind == "losing":
            rhs = math.prod(math.comb(p_i, a_i) for p_i, a_i in zip(p, shape.alpha))
        else:
            rhs = -total + sum(p_i * t for p_i, t in zip(p, through))
            rhs += math.prod(
                math.comb(n_i - p_i, a_i) for n_i, p_i, a_i in zip(shape.n, p, shape.alpha)
            )
        yield p, lhs, rhs


def naive_check(shape, lists, kind):
    """The tuple-by-tuple scan the envelope replaced: the first prefix tuple
    of :func:`naive_sides` whose bound fails."""
    data = conform_lists(shape, lists, kind)
    found = next(
        (PrefixViolation(p, lhs, rhs) for p, lhs, rhs in naive_sides(shape, data, kind) if lhs < rhs),
        None,
    )
    total = shape.total_arcs()
    lhs_full = sum(map(sum, data))
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


@st.composite
def tight_cases(draw, max_tuples=2000, max_arcs=2000):
    """Shape, kind and the lists of a weighted-transitive hypertournament
    (each arc lost by its vertex of least weight) with one unit moved from a
    non-zero entry onto the greatest entry of a part, k <= 4 and arity up to
    3. Weighted-transitive lists meet the bound with equality along whole
    rows of heads, where the check skips no head; the moved unit makes a
    violation follow heads of positive slack."""
    k = draw(st.integers(1, 4))
    n, alpha, tuples, arcs = [], [], 1, 1
    for _ in range(k):
        n_i = draw(st.integers(1, max(1, min(8, max_tuples // tuples - 1, max_arcs // arcs))))
        fits = [a for a in range(1, min(3, n_i) + 1) if arcs * math.comb(n_i, a) <= max_arcs]
        a_i = draw(st.sampled_from(fits))
        n.append(n_i)
        alpha.append(a_i)
        tuples *= n_i + 1
        arcs *= math.comb(n_i, a_i)
    shape = Shape(tuple(n), tuple(alpha))
    kind = draw(st.sampled_from(["losing", "score"]))
    weight = dict(zip(shape.vertices(), draw(st.permutations(range(sum(n))))))
    lists = ScoreLists.from_map(
        "losing", shape, Counter(min(sel, key=weight.get) for sel in selection_vertices(shape))
    )
    if kind == "score":
        lists = losing_to_scores(shape, lists)
    work = [list(lst) for lst in lists.lists]
    cells = [(i, q) for i in range(k) for q in range(n[i]) if work[i][q] > 0]
    if cells:  # every score is 0 on (n,)/(1,)
        i, q = draw(st.sampled_from(cells))
        work[i][q] -= 1
        work[draw(st.integers(0, k - 1))][-1] += 1
    return shape, kind, tuple(tuple(sorted(lst)) for lst in work)


class TestEnvelopeAgainstNaiveScan:
    @settings(max_examples=400, deadline=None)
    @given(check_cases())
    def test_whole_result_equals_naive(self, case):
        shape, kind, lists = case
        fn = check_losing_lists if kind == "losing" else check_score_lists
        assert fn(shape, lists) == naive_check(shape, lists, kind)

    @settings(max_examples=400, deadline=None)
    @given(tight_cases())
    def test_tight_lists_with_one_unit_moved_equal_naive(self, case):
        shape, kind, lists = case
        fn = check_losing_lists if kind == "losing" else check_score_lists
        assert fn(shape, lists) == naive_check(shape, lists, kind)


def split_of(shape, cap=MAX_SELECTIONS):
    """The number j of head parts the check should pick: the least j >= 1
    whose tail has at most as many lines as there are heads and at most cap
    lines, else k - 1, so 0 for one part (one empty head)."""
    sizes = [n_i + 1 for n_i in shape.n]
    return next(
        (
            j
            for j in range(1, shape.k)
            if math.prod(sizes[j:]) <= min(math.prod(sizes[:j]), cap)
        ),
        shape.k - 1,
    )


# (shape, the split the check picks): j = 0 for k = 1, and every j from 1 to
# k - 1 for k = 2..5. (4,3), (3,3,2), (1,1,2,3,3) and (5,) have a tail of the
# last part alone with arity one, whose envelope is read off its list.
SPLIT_SHAPES = [
    (Shape((6,), (2,)), 0),
    (Shape((5,), (1,)), 0),
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


def envelope_tails(shape, j, checks):
    """The line counts of the ``_lower_envelope`` calls made by ``checks``
    checks at split j: none when the tail is the last part alone with arity
    one, else one per check, over the lines of the tail parts j..k-1."""
    if j == shape.k - 1 and shape.alpha[-1] == 1:
        return []
    return [math.prod(n_i + 1 for n_i in shape.n[j:])] * checks


def skipped_rows(shape, lists, kind, j):
    """The heads (p_1, ..., p_j) the row skip queries, in order, and the x of
    each query, from the naive slacks: within a row (p_1, ..., p_{j-1} fixed)
    the head after q with least slack s over its tails is q + 1 + s // drop,
    the row's end when drop is 0, up to the first head with s < 0. drop is
    the largest one-step fall of part j's base plus the largest tail g
    product times the outer heads' g product times the largest one-step rise
    of part j's g, each taken over the whole row."""
    least = {}
    for p, lhs, rhs in naive_sides(shape, lists, kind):
        least[p[:j]] = min(least.get(p[:j], lhs - rhs), lhs - rhs)
    if j == 0:
        return [()], [1]
    data = conform_lists(shape, lists, kind)
    steps = (0,) * shape.k if kind == "losing" else shape.through

    def g(i, p_i):
        return math.comb(p_i if kind == "losing" else shape.n[i] - p_i, shape.alpha[i])

    slope = math.prod(math.comb(n_i, a_i) for n_i, a_i in zip(shape.n[j:], shape.alpha[j:]))
    row = range(shape.n[j - 1] + 1)
    base_drop = max(0, *(steps[j - 1] - x for x in data[j - 1]))
    g_rise = max(0, *(g(j - 1, q + 1) - g(j - 1, q) for q in row[:-1]))
    heads, xs = [], []
    for outer in product(*(range(n_i + 1) for n_i in shape.n[: j - 1])):
        c0 = math.prod(g(i, p_i) for i, p_i in enumerate(outer))
        drop, q = base_drop + slope * c0 * g_rise, 0
        while q < len(row):
            heads.append((*outer, q))
            xs.append(c0 * g(j - 1, q))
            s = least[heads[-1]]
            if s < 0:
                return heads, xs
            q += 1 + s // drop if drop else len(row)
    return heads, xs


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
        assert tails == envelope_tails(shape, j, len(cases))

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
            assert tails == envelope_tails(shape, capped, len(cases))
        assert moved > 0

    def test_shapes_cover_every_split(self):
        assert {(shape.k, j) for shape, j in SPLIT_SHAPES} == {(1, 0)} | {
            (k, j) for k in range(2, 6) for j in range(1, k)
        }

    @pytest.mark.parametrize("kind", ["losing", "score"])
    def test_a_row_skips_the_heads_its_slack_clears(self, kind, monkeypatch):
        # The envelope queries are exactly those of skipped_rows, in order: no
        # head is queried twice, and no more heads than a scan of one query
        # per head up to the first violating one would query, H = prod_{i<j}
        # (n_i + 1) when there is none. On seeded random valid lists of
        # (100,100)/(1,1) and (40,35,30)/(1,1,1) fewer than a quarter of the
        # heads are queried.
        queries, query = [], criteria.bisect_right

        def counted(steps, x):
            queries.append(x)
            return query(steps, x)

        monkeypatch.setattr(criteria, "bisect_right", counted)
        fn = check_losing_lists if kind == "losing" else check_score_lists
        asked = every = 0
        for shape, j in SPLIT_SHAPES:
            sizes = [n_i + 1 for n_i in shape.n[:j]]
            for lists in split_cases(shape, kind):
                queries.clear()
                v = fn(shape, lists).witness_violation
                heads, xs = skipped_rows(shape, lists, kind, j)
                assert queries == xs
                assert len(set(heads)) == len(heads)
                if v is None or v.lhs >= v.rhs:  # valid, or only the total is off
                    visited = math.prod(sizes)
                else:
                    assert heads[-1] == v.prefix[:j]
                    index = 0
                    for size, p_i in zip(sizes, v.prefix):
                        index = index * size + p_i
                    visited = index + 1
                assert len(queries) <= visited
                asked, every = asked + len(queries), every + visited
        assert asked < every
        for n in [(100, 100), (40, 35, 30)]:
            shape = Shape(n, (1,) * len(n))
            j = split_of(shape)
            lists = losing_scores(random_hypertournament(shape, seed=1))
            if kind == "score":
                lists = losing_to_scores(shape, lists)
            queries.clear()
            assert fn(shape, lists).valid
            assert queries == skipped_rows(shape, lists, kind, j)[1]
            assert len(queries) < math.prod(n_i + 1 for n_i in n[:j]) / 4

    def test_drawn_shapes_reach_a_tail_of_several_parts(self):
        # find raises when no case check_cases draws has j < k - 1.
        find(check_cases(), lambda case: split_of(case[0]) < case[0].k - 1)


class TestArityOneEnvelope:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_reads_equal_the_hull_pass(self, n, through, data):
        # Part 1 of (n, through)/(1, 1) has `through` arcs per vertex, so its
        # lists hold ties, zeros and entries up to that count.
        shape = Shape((n, through), (1, 1))
        entries = st.lists(st.integers(0, through), min_size=n, max_size=n)
        lst = sorted(data.draw(entries))
        pref = list(accumulate(lst, initial=0))
        if data.draw(st.booleans()):
            base, g, losing = pref, list(range(n + 1)), lst
        else:
            base = [s - p * through for p, s in enumerate(pref)]
            g = [n - p for p in range(n + 1)]
            losing = scores_to_losing(shape, (lst, [0] * through)).lists[0]
        bs, ms, steps = criteria._arity_one_envelope(base, g, losing)
        ref_bs, ref_ms, ref_steps = criteria._lower_envelope(base, g)
        assert ms == sorted(ms) and ref_ms == sorted(ref_ms)
        for x in range(max(steps) + 2):
            i, ref_i = bisect_right(steps, x), bisect_right(ref_steps, x)
            least = min(b_p - g_p * x for b_p, g_p in zip(base, g))
            assert bs[i] - ms[i] * x == ref_bs[ref_i] - ref_ms[ref_i] * x == least

    @pytest.mark.parametrize("kind", ["losing", "score"])
    def test_one_part_checks_equal_naive(self, kind):
        # j = 0: one empty head, and the tail is the one part of arity one.
        fn = check_losing_lists if kind == "losing" else check_score_lists
        for n in range(1, 7):
            shape = Shape((n,), (1,))
            for lst in combinations_with_replacement(range(n + 2), n):
                assert fn(shape, (lst,)) == naive_check(shape, (lst,), kind)
