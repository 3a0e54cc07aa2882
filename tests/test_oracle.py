import hashlib
from itertools import accumulate, product

import pytest

from hyperscores import (
    BudgetExceededError,
    Shape,
    SplitMix64,
    VertexId,
    achievable_losing_lists,
    check_losing_lists,
    check_score_lists,
    cross_validate,
    losing_scores,
    losing_to_scores,
    random_hypertournament,
    scores,
    selection_vertices,
    validate,
)
from hyperscores import oracle
from hyperscores.criteria import _accepted_lists
from hyperscores.model import ScoreLists, _selection_ids
from hyperscores.oracle import CrossValidationReport, _score_tuples
from reference import bounded_candidate_lists, enumerate_assignments


def naive_achievable(shape):
    """Reference: the loop the dynamic program replaced, one pass per assignment."""
    sels = selection_vertices(shape)
    offsets = tuple(accumulate(shape.n, initial=0))
    choice_vids = [tuple(offsets[v.part] + v.index for v in sel) for sel in sels]
    zeros = [0] * offsets[-1]
    spans = [(offsets[i], offsets[i + 1]) for i in range(shape.k)]
    found = set()
    for losers in product(*choice_vids):
        counts = zeros[:]
        for vid in losers:
            counts[vid] += 1
        found.add(tuple(tuple(sorted(counts[lo:hi])) for lo, hi in spans))
    return frozenset(found)


def _small_shapes():
    """Every shape with k <= 3, n_i <= 3 and at most 5 000 assignments.

    Each part order is its own shape: the selection rank order decides when a
    vertex finishes, and so when the dynamic program sorts its count.
    """
    parts = [(n, a) for n in range(1, 4) for a in range(1, n + 1)]
    for k in range(1, 4):
        for chosen in product(parts, repeat=k):
            shape = Shape(tuple(n for n, _ in chosen), tuple(a for _, a in chosen))
            if sum(shape.alpha) ** shape.total_arcs() <= 5_000:
                yield shape


SMALL_SHAPES = list(_small_shapes())
DEGENERATE_SHAPES = [Shape((1, 12), (1, 1)), Shape((12, 1), (1, 1)), Shape((2, 2, 2), (2, 1, 2))]
CHECKS = {"losing": check_losing_lists, "score": check_score_lists}


def filtered_candidates(shape, kind):
    """Reference: every bounded candidate that the check of ``kind`` accepts,
    in the order the candidates come."""
    return [c for c in bounded_candidate_lists(shape, kind) if CHECKS[kind](shape, c).valid]


def _shapes(max_k, max_n, max_alpha, keep):
    """Every shape, in every part order, with k <= max_k, n_i <= max_n,
    alpha_i <= max_alpha and keep(shape) true."""
    parts = [(n, a) for n in range(1, max_n + 1) for a in range(1, min(n, max_alpha) + 1)]
    for k in range(1, max_k + 1):
        for chosen in product(parts, repeat=k):
            shape = Shape(tuple(n for n, _ in chosen), tuple(a for _, a in chosen))
            if keep(shape):
                yield shape


def _shape_box(max_k, max_n, max_arcs):
    """Every shape, in every part order, with k <= max_k, n_i <= max_n and
    at most max_arcs arcs."""
    return _shapes(max_k, max_n, max_n, lambda shape: shape.total_arcs() <= max_arcs)


def reference_achievable(shape):
    """Reference: the dynamic program before it merged states up to symmetry.
    It sorts only each part's finished counts, those of vertices whose last
    selection has passed, and holds a part's counts in the order its
    vertices finish."""
    sels = selection_vertices(shape)
    last = {v: rank for rank, sel in enumerate(sels) for v in sel}
    order = sorted(last, key=lambda v: (v.part, last[v]))
    position = {v: p for p, v in enumerate(order)}
    offsets = tuple(accumulate(shape.n, initial=0))
    finished_prefixes = {}  # rank -> {start: end}
    for p, v in enumerate(order):
        finished_prefixes.setdefault(last[v], {})[offsets[v.part]] = p + 1
    states = {(0,) * offsets[-1]}
    for rank, sel in enumerate(sels):
        choices = [position[v] for v in sel]
        states = {st[:p] + (st[p] + 1,) + st[p + 1:] for st in states for p in choices}
        for lo, hi in finished_prefixes.get(rank, {}).items():
            states = {st[:lo] + tuple(sorted(st[lo:hi])) + st[hi:] for st in states}
    spans = [(offsets[i], offsets[i + 1]) for i in range(shape.k)]
    return frozenset(tuple(st[lo:hi] for lo, hi in spans) for st in states)


class TestEnumerate:
    def test_counts_two_by_two(self):
        shape = Shape((2, 2), (1, 1))
        ms = list(enumerate_assignments(shape))
        assert len(ms) == 16
        assert len(set(ms)) == 16
        for m in ms:
            assert validate(m) == []

    def test_single_selection_shape(self):
        shape = Shape((2, 3), (2, 3))
        ms = list(enumerate_assignments(shape))
        assert len(ms) == sum(shape.alpha)

    def test_three_by_one(self):
        assert sum(1 for _ in enumerate_assignments(Shape((3, 1), (1, 1)))) == 8

    def test_budget_exceeded_carries_count(self):
        with pytest.raises(BudgetExceededError) as err:
            list(enumerate_assignments(Shape((2, 2), (1, 1)), budget=15))
        assert err.value.count == 16

    def test_budget_bounds_a_single_assignment(self):
        # m = 1: the one assignment is still compared with the budget.
        with pytest.raises(BudgetExceededError) as err:
            achievable_losing_lists(Shape((5,), (1,)), budget=0)
        assert err.value.count == 1

    def test_deterministic_order(self):
        shape = Shape((3, 1), (1, 1))
        first = [m.arcs for m in enumerate_assignments(shape)]
        second = [m.arcs for m in enumerate_assignments(shape)]
        assert first == second
        # Selection 0 is the fastest digit: consecutive assignments differ
        # in the rank-0 arc first.
        assert first[0][1:] == first[1][1:]
        assert first[0][0] != first[1][0]

    def test_grand_totals_on_all_enumerated(self):
        shape = Shape((2, 2), (1, 1))
        total = shape.total_arcs()
        for m in enumerate_assignments(shape):
            assert losing_scores(m).total() == total
            assert scores(m).total() == (sum(shape.alpha) - 1) * total


class TestAchievable:
    def test_two_by_two_set(self):
        expected = {
            ((0, 0), (2, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 1)),
            ((1, 1), (0, 2)),
            ((1, 1), (1, 1)),
            ((1, 2), (0, 1)),
            ((2, 2), (0, 0)),
        }
        ach = achievable_losing_lists(Shape((2, 2), (1, 1)))
        assert ach.lists == expected
        assert ach.assignment_count == 16

    def test_membership_example(self):
        ach = achievable_losing_lists(Shape((2, 2), (1, 1)))
        assert ((0, 2), (0, 2)) not in ach.lists

    def test_single_selection_one_hots(self):
        shape = Shape((2, 2), (2, 2))
        ach = achievable_losing_lists(shape)
        assert ach.lists == {((0, 0), (0, 1)), ((0, 1), (0, 0))}
        assert ach.assignment_count == 4

    def test_matches_enumeration(self):
        shape = Shape((3, 2), (2, 1))
        from_stream = {losing_scores(m).lists for m in enumerate_assignments(shape)}
        assert achievable_losing_lists(shape).lists == from_stream

    def test_small_shapes_are_all_there(self):
        assert len(SMALL_SHAPES) == 174

    @pytest.mark.parametrize("shape", SMALL_SHAPES + DEGENERATE_SHAPES, ids=str)
    def test_matches_naive_reference(self, shape):
        ach = achievable_losing_lists(shape)
        assert ach.lists == naive_achievable(shape)
        assert ach.assignment_count == sum(shape.alpha) ** shape.total_arcs()

    def test_matches_the_finished_sort_reference(self):
        """Every shape with k <= 4, n_i <= 6, alpha_i <= 3 and at most 2*10^4
        assignments, in every part order: merging states up to symmetry
        changes no list."""
        shapes = list(_shapes(4, 6, 3, lambda s: sum(s.alpha) ** s.total_arcs() <= 20_000))
        assert len(shapes) == 1157
        for shape in shapes:
            ach = achievable_losing_lists(shape)
            assert ach.lists == reference_achievable(shape), shape
            assert ach.assignment_count == sum(shape.alpha) ** shape.total_arcs(), shape

    def test_every_sorted_block_is_closed_under_its_transpositions(self):
        """Every shape with k <= 3, n_i <= 4 and at most 100 arcs, in every
        part order. After a rank whose subset of each part below part i is
        that part's last one, a swap of two adjacent vertices among part i's
        vertices 0..e, e the end of the first run of consecutive part-i
        vertices in the rank's selection, maps the selections still to come
        onto themselves: each block the dynamic program sorts is symmetric."""
        shapes = list(_shape_box(3, 4, 100))
        assert len(shapes) == 1097
        swaps = 0
        for shape in shapes:
            sels, offsets = _selection_ids(shape), shape.offsets
            rank_of = {sel: rank for rank, sel in enumerate(sels)}
            spans = list(zip(offsets, offsets[1:]))
            for rank, sel in enumerate(sels):
                for (lo, hi), a in zip(spans, shape.alpha):
                    lasts = [v for (_, top), a_t in zip(spans, shape.alpha) if top <= lo
                             for v in range(top - a_t, top)]
                    if [v for v in sel if v < lo] != lasts or hi - lo == a:
                        continue
                    mine = [v for v in sel if lo <= v < hi]
                    e = mine[0]
                    while e + 1 in mine:
                        e += 1
                    for v in range(lo, e):
                        swap = {v: v + 1, v + 1: v}
                        for later in sels[rank + 1:]:
                            image = tuple(sorted(swap.get(x, x) for x in later))
                            assert rank_of[image] > rank, (shape, rank, v)
                        swaps += 1
        assert swaps == 25325

    def test_last_rank_does_not_fall_with_the_index(self):
        """Within a part, a vertex's last selection comes no earlier than that
        of a vertex with a smaller index, so the vertices a rank finishes fill
        a prefix of the part's positions. Each last rank is T - 1 - (n_i -
        alpha_i - j) * strides[i], or T - 1 for j >= n_i - alpha_i."""
        shapes = list(_shapes(3, 6, 4, lambda s: s.total_arcs() <= 400))
        assert len(shapes) == 5326
        for shape in shapes:
            last = {v: rank for rank, sel in enumerate(selection_vertices(shape)) for v in sel}
            for i, (n_i, a_i) in enumerate(zip(shape.n, shape.alpha)):
                ranks = [last[VertexId(i, j)] for j in range(n_i)]
                assert ranks == sorted(ranks), shape
                formula = [shape.total_arcs() - 1 - max(n_i - a_i - j, 0) * shape.strides[i]
                           for j in range(n_i)]
                assert ranks == formula, shape


class TestRandom:
    def test_same_seed_same_output(self):
        shape = Shape((3, 2), (2, 1))
        assert random_hypertournament(shape, 42) == random_hypertournament(shape, 42)

    def test_different_seeds_differ(self):
        shape = Shape((3, 3), (2, 2))
        outputs = {random_hypertournament(shape, s) for s in range(20)}
        assert len(outputs) > 1

    def test_modes(self):
        shape = Shape((3, 2), (2, 1))
        loser_only = random_hypertournament(shape, 7, "loser-only")
        full = random_hypertournament(shape, 7, "full-permutation")
        assert validate(loser_only) == []
        assert validate(full) == []
        # Loser-only arcs keep the canonical prefix order.
        for arc in loser_only.arcs:
            assert list(arc.order[:-1]) == sorted(arc.order[:-1])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            random_hypertournament(Shape((2, 2), (1, 1)), 0, "both")

    def test_losing_total_identity(self):
        for seed in range(10):
            shape = Shape((4, 3), (2, 1))
            m = random_hypertournament(shape, seed)
            assert losing_scores(m).total() == shape.total_arcs()

    def test_splitmix_reference_values(self):
        # First outputs for seed 0 of the standard SplitMix64 stream.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_below_is_uniform_support(self):
        rng = SplitMix64(123)
        draws = {rng.below(7) for _ in range(200)}
        assert draws == set(range(7))

    def test_below_rejects_a_draw_past_the_whole_ranges(self):
        # For n = 2**63 + 1 only draws below n lie in a whole range, so seed
        # 0's first draw, 0xE220A8397B1DCDAF, is rejected and its second kept.
        assert SplitMix64(0).below(2**63 + 1) == 0x6E789E6AA1B965F4

    def test_below_refuses_an_empty_range(self):
        with pytest.raises(ValueError, match="need a positive range, got 0"):
            SplitMix64(1).below(0)


class TestCandidates:
    def test_candidates_cover_achievable(self):
        shape = Shape((3, 2), (2, 1))
        cands = set(bounded_candidate_lists(shape, "losing"))
        assert achievable_losing_lists(shape).lists <= cands

    def test_candidates_respect_bounds_and_total(self):
        shape = Shape((2, 2, 2), (1, 1, 1))
        total = shape.total_arcs()
        caps = shape.through
        count = 0
        for cand in bounded_candidate_lists(shape, "losing"):
            count += 1
            assert sum(sum(lst) for lst in cand) == total
            for i, lst in enumerate(cand):
                assert all(0 <= x <= caps[i] for x in lst)
                assert list(lst) == sorted(lst)
        assert count > 0

    def test_score_candidates_total(self):
        shape = Shape((2, 2), (1, 1))
        target = (sum(shape.alpha) - 1) * shape.total_arcs()
        for cand in bounded_candidate_lists(shape, "score"):
            assert sum(sum(lst) for lst in cand) == target

    # sha256 of repr(list(bounded_candidate_lists(shape, kind))), recorded
    # before the shape constants were kept on Shape.
    @pytest.mark.parametrize(
        "n, alpha, kind, count, digest",
        [
            ((3, 2), (2, 1), "losing", 29, "247a8b8aa70ec7d897e5726e60b1c229b90b5f9f6fa1213237151d91a30d0805"),
            ((3, 2), (2, 1), "score", 29, "b78b604676a5b1025b8e6c34057df60e6986310728717e46aba8265938e6d1f3"),
            ((2, 2, 2), (1, 1, 1), "losing", 210, "5b0d1ba494850b75f0a500f0e7aa41046641647581653048f51b295bfff16a64"),
            ((2, 2, 2), (1, 1, 1), "score", 210, "132a6355c8920ef2d9c8a5181334bf7fb9ab5188d94fa404647031050791b7e0"),
            ((6,), (2,), "losing", 32, "2dd6383bde1687f61c1a22ba1b866e3838f56e64665cdbb930710a3a13538b2c"),
            ((6,), (2,), "score", 32, "2dd6383bde1687f61c1a22ba1b866e3838f56e64665cdbb930710a3a13538b2c"),
        ],
    )
    def test_candidate_sequence_is_pinned(self, n, alpha, kind, count, digest):
        cands = list(bounded_candidate_lists(Shape(n, alpha), kind))
        assert len(cands) == count
        assert hashlib.sha256(repr(cands).encode()).hexdigest() == digest


class TestAcceptedSearch:
    """The pruned search against the filter it replaced in ``cross_validate``."""

    # Boxes small enough for the filter to finish in seconds, plus k = 4 desk
    # shapes with parts of every size.
    SHAPES = sorted(
        {
            *_shape_box(2, 4, 12),
            *_shape_box(3, 3, 12),
            *_shape_box(4, 3, 4),
            Shape((5, 2, 2, 2), (1, 2, 2, 2)),
            Shape((3, 4, 2, 3), (3, 3, 2, 3)),
            Shape((2, 3, 2, 2), (1, 2, 1, 2)),
            # Four-part desk shapes from the costly end of the benchmark's
            # ground-truth workload, 14 641 to 16 807 assignments each.
            Shape((2, 6, 1, 1), (2, 1, 1, 1)),
            Shape((4, 1, 1, 1), (2, 1, 1, 1)),
            Shape((2, 2, 5, 2), (2, 2, 1, 2)),
            Shape((2, 3, 4, 3), (2, 3, 3, 3)),
        },
        key=lambda s: (s.k, s.n, s.alpha),
    )

    @pytest.mark.parametrize("kind", ["losing", "score"])
    def test_search_yields_the_filtered_candidates_once_in_order(self, kind):
        for shape in self.SHAPES:
            found = list(_accepted_lists(shape))
            if kind == "losing":
                assert len(found) == len(set(found)), shape
                assert found == filtered_candidates(shape, kind), shape
            else:  # cross_validate's accepted score lists
                assert set(_score_tuples(shape, found)) == set(filtered_candidates(shape, kind)), shape

    def test_boxes_reach_four_parts(self):
        assert len(self.SHAPES) == 759
        assert max(s.k for s in self.SHAPES) == 4

    # sha256 of repr(list(_accepted_lists(shape))), recorded while each
    # level of the search still kept the lower envelope of its heads' lines;
    # the last four, the shapes whose search states repeat most, while each
    # level still kept its least slacks but expanded every repeated state anew.
    @pytest.mark.parametrize(
        "n, alpha, count, digest",
        [
            ((2, 2, 2, 2), (1, 1, 1, 1), 23320, "028fc39e6a9c5544906ac753e5c8a084a08aea6a9218d130fda7d37c0cd846ed"),
            ((3, 3, 2), (1, 1, 1), 8081, "a92f2733d8edbf984aff90ef84c41d1dc99b9ebd03ab0d93f04bb71fca69ade9"),
            ((3, 2, 2), (2, 1, 2), 121, "8879f4d196b1daa1d6adb9b0ce599152a07e3ab90d5e10814a335432ef001e5c"),
            ((4, 4), (2, 2), 121636, "d54f6b9fc36912e6ab0eabd627abfe62cec53b8bc382f6885186e2e0f4dffecb"),
            ((3, 3, 3), (1, 1, 1), 130968, "23fc20b0d905e2a3ec8d1cd36d2c4578f57e3bbee2f09ae45f8ef0df1dd0bb66"),
        ],
    )
    def test_search_sequence_is_pinned(self, n, alpha, count, digest):
        found = list(_accepted_lists(Shape(n, alpha)))
        assert len(found) == count
        assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


# OEIS A000571: score sequences of n-vertex tournaments, n = 2..14. A shape
# (n,)/(2,) is a tournament, and its sorted losing list is its sorted score
# sequence reversed and complemented against n - 1, so both count the same.
A000571 = {
    2: 1, 3: 2, 4: 4, 5: 9, 6: 22, 7: 59, 8: 167, 9: 490, 10: 1486, 11: 4639,
    12: 14805, 13: 48107, 14: 158808,
}


class TestTournamentScoreSequences:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_achievable_lists_count_a000571(self, n):
        ach = achievable_losing_lists(Shape((n,), (2,)), budget=2 ** (n * (n - 1) // 2))
        assert len(ach.lists) == A000571[n]

    @pytest.mark.parametrize("kind", ["losing", "score"])
    @pytest.mark.parametrize("n", range(2, 12))
    def test_accepted_candidates_count_a000571(self, n, kind):
        shape = Shape((n,), (2,))
        accepted = [cand for cand in bounded_candidate_lists(shape, kind) if CHECKS[kind](shape, cand).valid]
        assert len(accepted) == A000571[n]

    @pytest.mark.parametrize("n", sorted(A000571))
    def test_searched_lists_count_a000571(self, n):
        assert sum(1 for _ in _accepted_lists(Shape((n,), (2,)))) == A000571[n]


def filtered_report(shape):
    """Reference: the report built by filtering every bounded candidate
    through the checks, with score lists converted by ``losing_to_scores``."""
    ach = achievable_losing_lists(shape)
    ach_scores = {losing_to_scores(shape, ScoreLists("losing", t)).lists for t in ach.lists}
    sides = []
    for achieved, kind in ((ach.lists, "losing"), (ach_scores, "score")):
        accepted = set(filtered_candidates(shape, kind))
        sides += [
            len(achieved),
            len(accepted),
            tuple(sorted(achieved - accepted)),
            tuple(sorted(accepted - achieved)),
        ]
    return CrossValidationReport(shape, ach.assignment_count, *sides)


CROSS_SHAPES = [Shape((2, 2), (1, 1)), Shape((3, 1), (1, 1)), Shape((2, 2, 2), (1, 1, 1))]


class TestCrossValidate:
    @pytest.mark.parametrize("shape", CROSS_SHAPES, ids=str)
    def test_exact_on_small_shapes(self, shape):
        report = cross_validate(shape)
        assert report.ok
        assert report.losing_achievable_count == report.losing_accepted_count
        assert report.score_achievable_count == report.score_accepted_count

    @pytest.mark.parametrize("shape", CROSS_SHAPES, ids=str)
    def test_equals_the_filtered_report(self, shape):
        assert cross_validate(shape) == filtered_report(shape)

    def test_planted_differences_flip_to_the_score_side(self, monkeypatch):
        # The search drops one accepted tuple and gains a bounded candidate
        # that no assignment achieves, so both losing differences are
        # non-empty; the score side must hold their flips, tuple by tuple.
        shape = Shape((2, 2, 2), (1, 1, 1))
        achievable = achievable_losing_lists(shape).lists
        accepted = list(_accepted_lists(shape))
        extra = next(c for c in bounded_candidate_lists(shape, "losing") if c not in achievable)
        monkeypatch.setattr(oracle, "_accepted_lists", lambda shape: iter(accepted[1:] + [extra]))
        report = cross_validate(shape)
        assert not report.ok
        assert report.losing_only_achievable == (accepted[0],)
        assert report.losing_only_accepted == (extra,)
        assert report.score_achievable_count == report.losing_achievable_count
        assert report.score_accepted_count == report.losing_accepted_count
        for losing, score in (
            (report.losing_only_achievable, report.score_only_achievable),
            (report.losing_only_accepted, report.score_only_accepted),
        ):
            assert score == tuple(sorted(losing_to_scores(shape, ScoreLists("losing", t)).lists for t in losing))

    @pytest.mark.parametrize("shape", CROSS_SHAPES, ids=str)
    def test_exact_shape_flips_no_tuple(self, shape, monkeypatch):
        # Only the losing differences are flipped, and they are empty here.
        flipped = []

        def spy(shape, tuples):
            tuples = list(tuples)
            flipped.extend(tuples)
            return _score_tuples(shape, tuples)

        monkeypatch.setattr(oracle, "_score_tuples", spy)
        assert cross_validate(shape).ok
        assert flipped == []

    def test_seven_lists_both_sides(self):
        report = cross_validate(Shape((2, 2), (1, 1)))
        assert report.losing_achievable_count == 7
        assert report.losing_accepted_count == 7

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            cross_validate(Shape((2, 2, 2), (1, 1, 1)), budget=100)
