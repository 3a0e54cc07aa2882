import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations_with_replacement, count, product
from math import comb, prod
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperscores import (
    BudgetExceededError,
    CapacityError,
    CheckResult,
    Hypertournament,
    RealizationGapError,
    InfeasibleError,
    InvalidListsError,
    ScoreLists,
    Shape,
    VertexId,
    achievable_losing_lists,
    check_losing_lists,
    losing_score_map,
    losing_scores,
    random_hypertournament,
    realize_flow,
    realize_inductive,
    selection_vertices,
    validate,
)
from hyperscores import realize
from hyperscores.model import _selection_ids
from hyperscores.realize import (
    _level_ranks,
    _inductive_losers,
    _walk_level,
)
from reference import bounded_candidate_lists

V = VertexId

ROUND_TRIP_SHAPES = [
    Shape((2, 2), (1, 1)),
    Shape((3, 2), (1, 1)),
    Shape((3, 1), (1, 1)),
    Shape((2, 2, 2), (1, 1, 1)),
    Shape((4, 2), (2, 1)),
    Shape((3, 3), (2, 2)),
    Shape((4,), (2,)),
    Shape((5,), (3,)),
    Shape((6,), (2,)),
    Shape((2, 3), (2, 1)),
    Shape((3, 3), (1, 2)),
]


class TestRealizeInductive:
    def test_shrink_case_example(self):
        shape = Shape((2, 2), (1, 1))
        m = realize_inductive(shape, [[0, 2], [1, 1]])
        assert losing_scores(m).lists == ((0, 2), (1, 1))
        assert validate(m) == []
        # The grown vertex u12 sits last in both arcs through it.
        assert m.arcs[1].loser == V(0, 1)
        assert m.arcs[3].loser == V(0, 1)

    def test_single_arc_base(self):
        shape = Shape((2, 3), (2, 3))
        lists = ((0, 0), (0, 0, 1))
        m = realize_inductive(shape, lists)
        assert len(m.arcs) == 1
        assert m.arcs[0].loser == V(1, 2)
        assert losing_scores(m).lists == lists

    def test_saturation_case_example(self):
        shape = Shape((2, 2), (1, 1))
        m = realize_inductive(shape, [[1, 1], [1, 1]])
        assert losing_scores(m).lists == ((1, 1), (1, 1))
        assert validate(m) == []

    def test_invalid_input_rejected(self):
        with pytest.raises(InvalidListsError):
            realize_inductive(Shape((2, 2), (1, 1)), [[0, 2], [0, 2]])

    def test_invalid_lists_without_a_violated_prefix(self):
        # A result with no witness prefix fails only the full-prefix equality.
        error = InvalidListsError(CheckResult(False, None, False))
        assert str(error) == "lists are not realizable: equality fails at the full prefix"

    def test_donorless_saturation(self):
        # The non-active lists sit at zero, so saturation must shift units
        # inside the active list itself.
        shape = Shape((4, 2), (2, 1))
        lists = ((3, 3, 3, 3), (0, 0))
        assert check_losing_lists(shape, lists).valid
        m = realize_inductive(shape, lists)
        assert losing_scores(m).lists == lists

    def test_rotation_when_first_part_has_no_slack(self):
        shape = Shape((2, 3), (2, 1))
        for lists in sorted(achievable_losing_lists(shape).lists):
            m = realize_inductive(shape, lists)
            assert losing_scores(m).lists == lists


class TestInductivePasses:
    """The down and up passes run flat: depth is bounded by nothing but the
    vertex count, and one selection table serves every level."""

    def test_single_part_of_600_vertices(self):
        shape = Shape((600,), (1,))
        m = realize_inductive(shape, [[1] * 600])
        assert validate(m) == []
        assert losing_scores(m).lists == ((1,) * 600,)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_lists_with_520_levels(self, seed):
        shape = Shape((2, 520), (1, 1))
        lists = losing_scores(random_hypertournament(shape, seed)).lists
        m = realize_inductive(shape, lists)
        assert validate(m) == []
        assert losing_scores(m).lists == lists

    @pytest.mark.parametrize("n, alpha", [((4, 3), (2, 1)), ((6, 5), (2, 2))])
    def test_one_selection_table_per_realization(self, n, alpha):
        """Both realizers, the arcs of their witness and its validation read
        one table, of vertex ids; none builds the table of VertexIds."""
        shape = Shape(n, alpha)
        lists = losing_scores(random_hypertournament(shape, 1)).lists
        selection_vertices.cache_clear()
        _selection_ids.cache_clear()
        realize_inductive(shape, lists)
        assert _selection_ids.cache_info().misses == 1
        M = realize_flow(shape, lists)
        list(M.orders())
        assert validate(M) == []
        assert _selection_ids.cache_info().misses == 1
        assert selection_vertices.cache_info().misses == 0

    def test_level_ranks_are_the_per_selection_minimum(self):
        """On every shape with k <= 3 and n_i <= 5, the ranks of each dropped
        vertex's level by rank arithmetic are the top ranks whose least level
        over their vertices, in drop order (the single arc left last), is that
        vertex's; the single arc left is rank 0."""
        sizes = [(n_i, a_i) for n_i in range(1, 6) for a_i in range(1, n_i + 1)]
        shapes = 0
        for k in (1, 2, 3):
            for parts in product(sizes, repeat=k):
                shape = Shape(*map(tuple, zip(*parts)))
                dropped = [V(i, m) for i in range(k)
                           for m in range(shape.n[i] - 1, shape.alpha[i] - 1, -1)]
                depth = {v: level for level, v in enumerate(dropped)}
                buckets = [[] for _ in range(len(dropped) + 1)]
                for rank, sel in enumerate(selection_vertices(shape)):
                    buckets[min(depth.get(v, len(dropped)) for v in sel)].append(rank)
                assert [_level_ranks(shape, *v) for v in dropped] == buckets[:-1], shape
                assert buckets[-1] == [0]
                shapes += 1
        assert shapes == 3615


class TestRealizeFlow:
    def test_flow_round_trip_example(self):
        shape = Shape((2, 2), (1, 1))
        m = realize_flow(shape, [[0, 2], [1, 1]])
        assert losing_scores(m).lists == ((0, 2), (1, 1))
        assert validate(m) == []

    def test_forced_assignment(self):
        shape = Shape((2, 2), (1, 1))
        m = realize_flow(shape, [[0, 0], [2, 2]])
        losing = losing_score_map(m)
        assert losing[V(1, 0)] == 2 and losing[V(1, 1)] == 2

    def test_infeasible_matches_checker(self):
        shape = Shape((2, 2), (1, 1))
        assert not check_losing_lists(shape, [[0, 2], [0, 2]]).valid
        with pytest.raises(InfeasibleError):
            realize_flow(shape, [[0, 2], [0, 2]])

    def test_total_mismatch_is_infeasible(self):
        with pytest.raises(InfeasibleError) as info:
            realize_flow(Shape((2, 2), (1, 1)), [[0, 1], [1, 1]])
        assert info.value.reached is None

    def test_infeasible_error_carries_its_certificate(self):
        """Near the boundary, on the lists of weighted-transitive
        hypertournaments (each selection lost by its vertex of least weight)
        with one unit moved and re-sorted: each InfeasibleError's set S has
        more arcs inside it than S's targets sum to, so no hypertournament
        meets them, and the check rejects the same lists. With p the per-part
        sizes of S, the p_i least entries of each part sum below the arcs S
        holds, prod C(p_i, alpha_i), so the check's witness prefix is at most
        p lexicographically."""
        rng, runs, errors = random.Random(11), 0, 0
        while runs < 1000:
            n = [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
            shape = Shape(n, [rng.randint(1, x) for x in n])
            if shape.total_arcs() > 3000:
                continue
            runs += 1
            w = {v: rng.random() for v in shape.vertices()}
            sels = selection_vertices(shape)
            M = Hypertournament.from_losers(shape, [min(s, key=w.__getitem__) for s in sels])
            moved = [list(lst) for lst in losing_scores(M).lists]
            cells = [(i, j) for i, lst in enumerate(moved) for j in range(len(lst))]
            (i, j), (p, q) = rng.choice([(i, j) for i, j in cells if moved[i][j]]), rng.choice(cells)
            moved[i][j] -= 1
            moved[p][q] += 1
            moved = [sorted(lst) for lst in moved]
            try:
                realize_flow(shape, moved)
            except InfeasibleError as exc:
                S = exc.reached
                inside = sum(1 for sel in sels if S.issuperset(sel))
                assert inside > sum(moved[v.part][v.index] for v in S), (shape, moved)
                result = check_losing_lists(shape, moved)
                assert not result.valid, (shape, moved)
                p = [sum(v.part == i for v in S) for i in range(shape.k)]
                least = sum(sum(lst[:size]) for lst, size in zip(moved, p))
                assert least < prod(map(comb, p, shape.alpha)), (shape, moved)
                assert result.witness_violation.prefix <= tuple(p), (shape, moved)
                errors += 1
        assert errors == 148

    def test_deterministic(self):
        shape = Shape((3, 2), (2, 1))
        a = realize_flow(shape, [[0, 1, 2], [1, 2]])
        b = realize_flow(shape, [[0, 1, 2], [1, 2]])
        assert a == b


@pytest.mark.parametrize("shape", ROUND_TRIP_SHAPES, ids=str)
def test_round_trip_and_oracle_agreement(shape):
    """Both realizers reproduce every valid list tuple; flow feasibility and
    predicate validity coincide over all bounded candidates."""
    assert shape.total_arcs() <= 64
    try:
        achievable = achievable_losing_lists(shape).lists
    except BudgetExceededError:
        achievable = None
    for cand in bounded_candidate_lists(shape, "losing"):
        valid = check_losing_lists(shape, cand).valid
        if achievable is not None:
            assert valid == (cand in achievable)
        try:
            m_flow = realize_flow(shape, cand)
            feasible = True
        except InfeasibleError:
            feasible = False
        assert feasible == valid
        if valid:
            assert losing_scores(m_flow).lists == cand
            m_ind = realize_inductive(shape, cand)
            assert losing_scores(m_ind).lists == cand
            assert validate(m_ind) == []
            assert validate(m_flow) == []


def test_full_candidate_space_agreement_including_bad_totals():
    # Wrong totals included: the checker rejects them, the flow realizer
    # reports them infeasible, in both directions, and the inductive one
    # raises InvalidListsError with the check's result.
    from itertools import combinations_with_replacement, product

    shape = Shape((2, 2), (1, 1))
    caps = shape.through
    part_lists = [
        list(combinations_with_replacement(range(cap + 1), shape.n[i]))
        for i, cap in enumerate(caps)
    ]
    achievable = achievable_losing_lists(shape).lists
    for cand in product(*part_lists):
        valid = check_losing_lists(shape, cand).valid
        assert valid == (cand in achievable)
        try:
            realize_flow(shape, cand)
            feasible = True
        except InfeasibleError:
            feasible = False
        assert feasible == valid
        if not valid:
            with pytest.raises(InvalidListsError) as info:
                realize_inductive(shape, cand)
            assert info.value.result == check_losing_lists(shape, cand)


def _error_contract_shapes():
    """Every shape of at most three parts of at most three vertices each and
    at most 10 arcs."""
    for k in (1, 2, 3):
        for n in product(range(1, 4), repeat=k):
            for alpha in product(*(range(1, x + 1) for x in n)):
                if prod(map(comb, n, alpha)) <= 10:
                    yield Shape(n, alpha)


def test_inductive_error_contract_matches_the_check():
    """realize_inductive checks the lists only once its construction fails,
    yet it raises InvalidListsError, carrying the check's own result, on
    exactly the bounded candidates that the check rejects, and otherwise
    returns a witness of them. Past the table cap, lists the check rejects
    still raise InvalidListsError, and lists it accepts CapacityError."""
    rejected = 0
    for shape in _error_contract_shapes():
        for cand in bounded_candidate_lists(shape, "losing"):
            result = check_losing_lists(shape, cand)
            try:
                m = realize_inductive(shape, cand)
            except InvalidListsError as exc:
                assert not result.valid and exc.result == result, (shape, cand)
                rejected += 1
                continue
            assert result.valid, (shape, cand)
            assert losing_scores(m).lists == cand
    assert rejected
    # A single-arc shape has no level, so its bottom names none.
    shape, empty = Shape((2, 3), (2, 3)), ((0, 0), (0, 0, 0))
    with pytest.raises(InvalidListsError) as info:
        realize_inductive(shape, empty)
    assert info.value.result == check_losing_lists(shape, empty)
    shape = Shape((2000, 1000), (1, 1))
    zero = [[0] * 2000, [0] * 1000]
    with pytest.raises(InvalidListsError) as info:
        realize_inductive(shape, zero)
    assert info.value.result == check_losing_lists(shape, zero)
    with pytest.raises(CapacityError):
        realize_inductive(shape, [[500] * 2000, [1000] * 1000])


# -- saturation: the first-choice walk against the full-check route


def reference_candidates(lists, active):
    """Every move the full-check route tries, in its order, as (tier, inc
    position, donor part, donor position): the canonical move from each donor
    (tier 1), shifts inside the active list (tier 2) and the other run starts
    of each donor (tier 3)."""
    inc_h = max(j for j, x in enumerate(lists[active]) if x == lists[active][0])
    inc_last = len(lists[active]) - 1

    def run_starts(lst):
        return [t for t in range(len(lst)) if t == 0 or lst[t - 1] < lst[t]]

    def canonical(lst):
        return min(j for j, x in enumerate(lst) if x == lst[-1])

    donors = [s for s in range(len(lists)) if s != active]
    out = [(1, inc_h, s, canonical(lists[s])) for s in donors]
    out += [(2, inc_last, active, t) for t in reversed(run_starts(lists[active])) if t != inc_last]
    out += [
        (3, inc_h, s, t)
        for s in donors
        for t in reversed(run_starts(lists[s]))
        if t != canonical(lists[s])
    ]
    return out


def full_check_verdict(shape, lists, active, inc, s, t):
    """The full-check route: copy, move, test monotonicity, check everything."""
    trial = [list(lst) for lst in lists]
    trial[active][inc] += 1
    trial[s][t] -= 1
    for lst in (trial[active], trial[s]):
        if any(x > y for x, y in zip(lst, lst[1:])):
            return False
    return check_losing_lists(shape, trial).valid


class Move(NamedTuple):
    """One unit move: +1 at ``incremented``, -1 at ``decremented``."""

    incremented: VertexId
    decremented: VertexId


def reference_saturation(shape, lists, active, tiers):
    """Saturate ``active`` by the full-check route: at each tuple of lists take
    the first candidate that a full check accepts, counting its tier in
    ``tiers``. Returns the saturated lists and the steps, or None when no
    candidate keeps the bounds."""
    work, steps = [list(lst) for lst in lists], []
    while work[active][-1] < shape.through[active]:
        chosen = next(
            ((tier, inc, s, t) for tier, inc, s, t in reference_candidates(work, active)
             if work[s][t] and full_check_verdict(shape, work, active, inc, s, t)),
            None,
        )
        if chosen is None:
            return None
        tier, inc, s, t = chosen
        tiers[tier] += 1
        work[active][inc] += 1
        work[s][t] -= 1
        steps.append(Move(V(active, inc), V(s, t)))
    return tuple(map(tuple, work)), tuple(steps)


def replay(lists, steps):
    """Apply ``steps`` to a copy of ``lists``, yielding the lists after each."""
    work = [list(lst) for lst in lists]
    for step in steps:
        work[step.incremented.part][step.incremented.index] += 1
        work[step.decremented.part][step.decremented.index] -= 1
        yield tuple(map(tuple, work))


def assert_level_matches_stepwise(shape, lists, active, tiers):
    """The one-pass level saturation leaves the lists the full-check route
    leaves, which pass the check, and returns the net change of that route's
    steps, before minus after. ``tiers["levels"]`` counts the levels and
    ``tiers["stuck"]`` the ones the route cannot saturate."""
    expected = reference_saturation(shape, lists, active, tiers)
    if expected is None:
        tiers["stuck"] += 1
        return
    one_pass = [list(lst) for lst in lists]
    change = _walk_level(one_pass, active, shape.through[active])
    assert check_losing_lists(shape, one_pass).valid, (shape, lists, active)
    net = Counter()
    for step in expected[1]:
        net[step.incremented] -= 1
        net[step.decremented] += 1
    assert tuple(map(tuple, one_pass)) == expected[0], (shape, lists, active)
    assert len(dict(change)) == len(change)
    assert dict(change) == {v: x for v, x in net.items() if x}, (shape, lists, active)
    tiers["levels"] += 1


@st.composite
def valid_lists(draw, max_arcs=400):
    """Shape with k <= 4 and n_i <= 6, and valid losing lists near the bounds.

    The lists come from a nearly transitive hypertournament (each arc loses
    at its highest-ranked vertex, a few at random), which meets the bounds
    with equality at many prefixes; up to four unit moves between entries
    follow, each kept only when the lists stay valid.
    """
    k = draw(st.integers(1, 4))
    n, alpha, arcs = [], [], 1
    for _ in range(k):
        n_i = draw(st.integers(1, 6))
        fits = [a for a in range(1, n_i + 1) if arcs * comb(n_i, a) <= max_arcs]
        if not fits:
            break
        a_i = draw(st.sampled_from(fits))
        n.append(n_i)
        alpha.append(a_i)
        arcs *= comb(n_i, a_i)
    shape = Shape(tuple(n), tuple(alpha))
    rng = draw(st.randoms(use_true_random=False))
    rank = {v: rng.random() for v in shape.vertices()}
    noise = rng.choice([0.0, 0.05, 0.3])
    counts = Counter()
    for sel in selection_vertices(shape):
        counts[rng.choice(sel) if rng.random() < noise else max(sel, key=rank.get)] += 1
    lists = ScoreLists.from_map("losing", shape, counts).lists
    for _ in range(rng.randint(0, 4)):
        work = [list(lst) for lst in lists]
        i, j = rng.randrange(shape.k), rng.randrange(shape.k)
        src = rng.randrange(shape.n[i])
        if work[i][src] > 0:
            work[i][src] -= 1
            work[j][rng.randrange(shape.n[j])] += 1
            moved = tuple(tuple(sorted(lst)) for lst in work)
            if check_losing_lists(shape, moved).valid:
                lists = moved
    return shape, lists


TIGHT_RUN_LISTS = [
    ((6,), (2,), ((1, 1, 1, 4, 4, 4),)),
    ((4, 4), (1, 1), ((1, 1, 3, 3), (1, 1, 3, 3))),
]


class TestSaturate:
    """The saturation lemma on the unit walk: at every part, each first-choice
    move is the first candidate the full-check route accepts, so every tuple
    of lists on the way meets the bounds."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_lists())
    @example((Shape((3, 2), (2, 1)), ((1, 1, 1), (1, 2))))
    @example((Shape((6,), (2,)), ((1, 1, 1, 4, 4, 4),)))  # a shift from entry 0 breaks a bound
    def test_every_intermediate_passes_the_check(self, case):
        # The moves are not checked as they are taken.
        shape, lists = case
        for active in range(shape.k):
            seen = []
            assert reference_walk([list(lst) for lst in lists], active, shape.through[active], seen)
            for work in seen:
                assert check_losing_lists(shape, work).valid, (shape, lists, active, work)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_lists())
    def test_valid_lists_saturate_as_the_reference(self, case):
        shape, lists = case
        for active in range(shape.k):
            seen = []
            reference_walk([list(lst) for lst in lists], active, shape.through[active], seen)
            expected = reference_saturation(shape, lists, active, Counter())
            assert expected is not None, (shape, lists, active)
            assert seen == list(replay(lists, expected[1])), (shape, lists, active)

    @pytest.mark.parametrize(
        "n, alpha, lists",
        [
            # Long runs on k = 2: each move splits a run of equal entries.
            ((20, 20), (1, 1), ((10,) * 20, (10,) * 20)),
            ((20, 20), (1, 1), ((5,) * 10 + (15,) * 10, (10,) * 20)),
            ((12, 12), (2, 1), ((33,) * 12, (33,) * 12)),
            # k = 3: the donor changes part mid-saturation.
            ((6, 6, 6), (1, 1, 1), ((12,) * 6, (12,) * 6, (12,) * 6)),
            # A shift that breaks a bound only at a run start inside the
            # prefixes it lowers (TestSaturationBox).
            *TIGHT_RUN_LISTS,
        ],
    )
    def test_long_and_tight_runs_saturate_as_the_reference(self, n, alpha, lists):
        shape = Shape(n, alpha)
        assert check_losing_lists(shape, lists).valid
        tiers = Counter()
        for active in range(shape.k):
            assert_level_matches_stepwise(shape, lists, active, tiers)
        assert tiers["levels"] == shape.k and tiers["stuck"] == 0


class TestSaturationBox:
    """The full-check route that the unit walk and the closed-form walk are
    compared against. A move lowers the slack by 1 exactly on a box of
    prefixes, and the route decides each candidate by a check of the whole
    tuple."""

    @pytest.mark.parametrize("n, alpha, lists", TIGHT_RUN_LISTS)
    def test_a_tight_run_start_inside_a_shift_box_rejects_the_shift(self, n, alpha, lists):
        # The shift from entry 0 to the last entry of part 0 lowers the slack
        # on prefixes 1..n_0 - 1 of part 0. Both ends of that range have slack
        # 1, but the run start between them has slack 0, so the full check
        # rejects the shift; the route and the walk saturate every part.
        shape, last = Shape(n, alpha), n[0] - 1
        assert not full_check_verdict(shape, lists, 0, last, 0, 0)
        tiers = Counter()
        for active in range(shape.k):
            assert_level_matches_stepwise(shape, lists, active, tiers)
        assert tiers["levels"] == shape.k and tiers[3] == 0

    def test_donor_tier_beyond_the_canonical_move_never_fires(self):
        """Every achievable list tuple of 13 part-size tuples, each arity with
        at most 3 * 10^5 assignments, saturated at every part by the
        full-check route: that route never needs a donor position other than
        the canonical one, and the one-pass saturation of each level leaves
        its lists, which pass the check."""
        sizes = [
            (3,), (4,), (5,), (6,), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
            (2, 2, 2), (3, 2, 2), (2, 2, 2, 2),
        ]
        tiers = Counter()
        lists_seen = 0
        for n in sizes:
            for alpha in product(*(range(1, n_i + 1) for n_i in n)):
                shape = Shape(n, alpha)
                if sum(alpha) ** shape.total_arcs() > 3 * 10**5:
                    continue
                for lists in sorted(achievable_losing_lists(shape).lists):
                    for active in range(shape.k):
                        if lists[active][-1] < shape.through[active]:
                            assert_level_matches_stepwise(shape, lists, active, tiers)
                    lists_seen += 1
        assert lists_seen == 2568
        assert tiers[1] > 0 and tiers[2] > 0
        assert tiers[3] == 0
        assert tiers["levels"] == 5821
        assert tiers["stuck"] == 0


GAP_SHAPES = [((4, 3), (2, 1)), ((6, 5), (2, 2)), ((3, 3, 3), (1, 1, 1)), ((7,), (2,))]


def break_a_bound(shape, lists, active):
    """Move units from the first non-zero entry into the last entry of the
    first other list (the active list's second last when there is none) until
    the walked ``lists`` fail the check, and then store them in place; they
    stay sorted and keep their total and the active list's last entry. False,
    with ``lists`` unchanged, when the moves run out first."""
    sub, work = Shape(tuple(map(len, lists)), shape.alpha), [list(lst) for lst in lists]
    last = (active, len(work[active]) - 1)
    into = next(((i, len(lst) - 1) for i, lst in enumerate(work) if i != active),
                (active, last[1] - 1))
    while check_losing_lists(sub, work).valid:
        source = next(((i, j) for i, lst in enumerate(work) for j, x in enumerate(lst)
                       if x and (i, j) not in (into, last)), None)
        if source is None or into[0] == active and work[active][into[1]] == work[active][-1]:
            return False
        work[source[0]][source[1]] -= 1
        work[into[0]][into[1]] += 1
    lists[:] = work
    return True


def shift_sources(lst):
    """Run starts of ``lst`` before its last entry, latest first."""
    t = len(lst) - 1
    while t > 0:
        t = bisect_left(lst, lst[t - 1])
        yield t


def reference_walk(lists, active, bound, seen=None):
    """The unit walk the closed form replaced: apply, unchecked, the
    first-choice moves :func:`_walk_level` defines until the active list's
    last entry reaches ``bound``, appending the tuple of lists after each move
    to ``seen`` when given; False when no candidate is left or the entry is
    past it."""
    lst = lists[active]
    donors = [donor for s, donor in enumerate(lists) if s != active]
    while lst[-1] < bound:
        if (donor := next((d for d in donors if d[-1] > 0), None)) is not None:
            lst[bisect_right(lst, lst[0]) - 1] += 1
            donor[bisect_left(donor, donor[-1])] -= 1
        elif (t := next((t for t in shift_sources(lst) if lst[t] > 0), None)) is not None:
            lst[-1] += 1
            lst[t] -= 1
        else:
            return False
        if seen is not None:
            seen.append(tuple(map(tuple, lists)))
    return lst[-1] == bound


def net_change(before, after):
    """Each changed entry's change, before minus after."""
    return {V(i, j): b - a for i, (old, new) in enumerate(zip(before, after))
            for j, (b, a) in enumerate(zip(old, new)) if b != a}


def assert_walk_matches_reference(lists, active, bound):
    """The closed-form walk fails exactly where the unit walk does, leaves the
    lists it leaves and, when it succeeds, returns each moved entry's net
    change once. Returns whether the walks succeed."""
    expected, work = [list(lst) for lst in lists], [list(lst) for lst in lists]
    walked = reference_walk(expected, active, bound)
    change = _walk_level(work, active, bound)
    case = (lists, active, bound)
    assert (change is not None) == walked, case
    assert work == expected, case
    if walked:
        assert len(dict(change)) == len(change), case
        assert dict(change) == net_change(lists, expected), case
    return walked


class TestClosedFormWalk:
    """A level's walk in closed form: donors drained from the top in part order,
    the active list filled from the bottom, then the shift."""

    def test_every_small_case_walks_as_the_unit_walk(self):
        """Every sorted list tuple with k <= 2, n_i <= 3 and entries <= 4, at
        every active part and every bound <= 6."""
        walks = Counter()
        for k in (1, 2):
            for n in product(range(1, 4), repeat=k):
                for lists in product(*(combinations_with_replacement(range(5), n_i) for n_i in n)):
                    for active, bound in product(range(k), range(7)):
                        walks[assert_walk_matches_reference(lists, active, bound)] += 1
        assert walks == {True: 23717, False: 19018}

    @pytest.mark.parametrize(
        "lists, active, bound, walked",
        [
            # Donors lift the two entries below bound - 1; 301 entries sit at it.
            (((0, 2) + (4,) * 300 + (4,), (3, 5, 5)), 0, 5, True),
            # No donor: the run at bound - 1 gives the last entry its unit.
            (((1,) * 2 + (5,) * 400 + (5,),), 0, 6, True),
            # Every entry at bound - 1 = 0 and no donor: the walk runs short.
            (((0,) * 500,), 0, 1, False),
            # The same run, lifted by one donor unit.
            (((0,) * 500, (0,) * 3 + (1,)), 0, 1, True),
        ],
    )
    def test_long_runs_at_the_bound_walk_as_the_unit_walk(self, lists, active, bound, walked):
        """Tall lists whose entries mostly sit at bound - 1, the entries the
        unit count reads without summing them."""
        assert assert_walk_matches_reference(lists, active, bound) == walked

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_lists())
    def test_valid_lists_walk_as_the_unit_walk(self, case):
        """The first level at every part, and every level of the down pass
        until a walk fails."""
        shape, lists = case
        for active in range(shape.k):
            assert assert_walk_matches_reference(lists, active, shape.through[active])
        work, arcs = [list(lst) for lst in lists], shape.total_arcs()
        for active, (n_a, a) in enumerate(zip(shape.n, shape.alpha)):
            for m in range(n_a - 1, a - 1, -1):
                bound = arcs * a // (m + 1)
                if not assert_walk_matches_reference(work, active, bound):
                    return
                reference_walk(work, active, bound)
                work[active].pop()
                arcs = arcs * (m + 1 - a) // (m + 1)


def down_levels(shape):
    """The vertices the down pass drops, in its order: one per level."""
    return [V(i, m) for i, (n_i, a) in enumerate(zip(shape.n, shape.alpha))
            for m in range(n_i - 1, a - 1, -1)]


def gap_at(vertex):
    """The start of a gap message that names ``vertex``'s level, 1-based."""
    return f"gap at level [{vertex.part + 1}, {vertex.index + 1}]: "


def gap_message(shape, lists, patch):
    """With ``patch`` applied, the message of the :class:`RealizationGapError`
    that ``realize_inductive`` raises, which must not run ``realize_flow``."""
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        mp.setattr(realize, "realize_flow", lambda *a: pytest.fail("the flow route ran"))
        with pytest.raises(RealizationGapError) as info:
            realize_inductive(shape, lists)
    return str(info.value)


class TestOnePassLevel:
    """A level is saturated by the greedy's first-choice moves, unchecked; the
    up pass's repairs decide every walked level, and a level that cannot
    complete raises a gap that names it: no other route stands in."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_lists())
    def test_one_pass_equals_the_stepwise_greedy(self, case):
        shape, lists = case
        tiers = Counter()
        for active in range(shape.k):
            if lists[active][-1] < shape.through[active]:
                assert_level_matches_stepwise(shape, lists, active, tiers)
        assert tiers["stuck"] == 0

    @pytest.mark.parametrize("n, alpha", GAP_SHAPES)
    def test_a_failed_walk_raises_a_gap(self, n, alpha):
        """A walk with no move left is the gap at its level. A walk that breaks
        a bound, at the first level that can be broken, is the gap at the next
        level down, the first to work on the broken lists: its walk runs short
        or its repair finds no chain."""
        shape = Shape(n, alpha)
        lists = losing_scores(random_hypertournament(shape, 1)).lists
        levels = down_levels(shape)
        for fail in ("stuck", "broken"):
            failed = []

            def walk(lists, active, bound):
                level = V(active, len(lists[active]) - 1)
                change = _walk_level(lists, active, bound)
                if failed:
                    return change
                if fail == "stuck":
                    failed.append(level)
                    return None
                walked = [list(lst) for lst in lists]
                if break_a_bound(shape, lists, active):
                    failed.append(level)
                    net = Counter(dict(change))
                    net.update(net_change(walked, lists))
                    change = [(v, x) for v, x in net.items() if x]
                return change

            message = gap_message(shape, lists, lambda mp: mp.setattr(realize, "_walk_level", walk))
            assert len(failed) == 1, fail
            if fail == "stuck":
                assert message.startswith(gap_at(failed[0]) + "the walk cannot"), message
            else:
                assert message.startswith(gap_at(levels[levels.index(failed[0]) + 1])), message

    @pytest.mark.parametrize("n, alpha", GAP_SHAPES)
    def test_a_rejected_check_raises_a_gap(self, n, alpha):
        """The up pass's repairs are the check of the walked levels: a repair
        that finds no chain at the bottom or the top level is the gap there."""
        shape = Shape(n, alpha)
        lists = losing_scores(random_hypertournament(shape, 1)).lists
        repair = realize._repair
        up = down_levels(shape)[::-1]
        for level in (0, len(up) - 1):  # the bottom and the top level's repair
            calls = count()

            def rejecting(*state):
                if next(calls) == level:
                    return frozenset({0})
                return repair(*state)

            message = gap_message(shape, lists, lambda mp: mp.setattr(realize, "_repair", rejecting))
            assert message == gap_at(up[level]) + "the repair finds no chain"
            assert next(calls) == level + 1  # no repair after the failing one

    @pytest.mark.parametrize(
        "n, alpha, lists",
        [
            # The top level is saturated; the walk ends on a wrong total.
            ((2, 2), (1, 1), [[0, 1], [0, 1]]),
            # The top level is saturated already; the level below has no move.
            ((3, 2), (1, 1), [[0, 0, 2], [0, 0]]),
        ],
    )
    def test_invalid_lists_entering_a_level_raise(self, n, alpha, lists):
        shape = Shape(n, alpha)
        second = re.escape(gap_at(down_levels(shape)[1]))
        with pytest.raises(RealizationGapError, match=f"^{second}the walk cannot"):
            _inductive_losers(shape, lists)

    def test_a_lost_level_change_fails_the_final_verification(self, monkeypatch):
        def forgetful(lists, active, bound):
            _walk_level(lists, active, bound)
            return []

        monkeypatch.setattr(realize, "_walk_level", forgetful)
        with pytest.raises(RealizationGapError, match="does not reproduce"):
            realize_inductive(Shape((2, 2), (1, 1)), [[1, 1], [1, 1]])

    @pytest.mark.parametrize("n, alpha", GAP_SHAPES)
    def test_a_swapped_loser_fails_the_final_verification(self, n, alpha):
        """The recount of the loser ids catches a construction that gives one
        rank's loss to another vertex of the same selection."""
        shape = Shape(n, alpha)
        lists = losing_scores(random_hypertournament(shape, 1)).lists
        build = realize._inductive_losers

        def swapping(shape, lists):
            losers = build(shape, lists)
            losers[0] = next(v for v in _selection_ids(shape)[0] if v != losers[0])
            return losers

        message = gap_message(
            shape, lists, lambda mp: mp.setattr(realize, "_inductive_losers", swapping))
        assert message == "constructed witness does not reproduce the input lists"

