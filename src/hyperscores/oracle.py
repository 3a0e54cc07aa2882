"""Desk-scale ground truth.

Exhaustive enumeration of loser assignments, the exact set of achievable
losing-score lists, seeded random hypertournament generation, and a
cross-validation report comparing the decision procedures against that
exact truth. Both range over loser choices only: scores depend only on the
last position of each arc, so nothing is lost while the space shrinks from
orderings to one choice per selection. The achievable lists come from a
dynamic program over distinct loss-count vectors rather than from one pass
per assignment. It merges states up to symmetry by one rule: after a
rank whose digits below part i are all maxed, the selections still to come
are closed under every permutation of part i's vertices from its first one
through the end of the first run of consecutive part-i vertices in that
rank's selection, so it sorts their counts; and it keeps a part in every
selection sorted by branching only on the end of each run of equal counts.
A permutation inside one part that maps the remaining selections onto
themselves maps reachable final states onto reachable final states, and the
result sorts each part anyway, so no list is lost or added. The enumeration
budget bounds the assignment space m**T, m = 1 included, not the work.

The accepted side is a pruned search, not a check per candidate. It fixes
one part's list at a time and keeps, per level, only the fixed heads' least
slack at each product x = prod g_j(p_j) the parts still free can form. That
is exact because the free parts meet a head only at those x, plus their own
bases, and the least slacks of one level follow from the previous level's
in integers. The last list is built entry by entry against the floor those
least slacks put on its prefix sums. Since nothing below a level reads more
than its least slacks and the remaining total, the completions of each
distinct (level, least slacks, remaining total) are found once per call and
shared by every head that reaches it: one expansion per distinct state, plus
one tuple per completion kept. The search and the DP are tested against
naive references kept in ``tests/reference.py``: every candidate list tuple
filtered through the checks, and every assignment enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .criteria import _accepted_lists
from .model import Hypertournament, Shape, _selection_ids

__all__ = [
    "AchievableSet",
    "BudgetExceededError",
    "CrossValidationReport",
    "DEFAULT_ASSIGNMENT_BUDGET",
    "SplitMix64",
    "achievable_losing_lists",
    "cross_validate",
    "random_hypertournament",
]

DEFAULT_ASSIGNMENT_BUDGET = 1_000_000

_MASK64 = (1 << 64) - 1


class BudgetExceededError(Exception):
    """The assignment space is larger than the enumeration budget."""

    def __init__(self, count: int | None, message: str):
        super().__init__(message)
        self.count = count


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    Fixed here (rather than the standard library) so that seeded fixtures are
    reproducible bit-for-bit across platforms and implementations. ``below``
    draws without modulo bias by rejection.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"need a positive range, got {n}")
        zone = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < zone:
                return u % n


@dataclass(frozen=True)
class AchievableSet:
    """Exact set of sorted losing-score list tuples attainable on a shape."""

    shape: Shape
    lists: frozenset[tuple[tuple[int, ...], ...]]
    assignment_count: int


def _assignment_count(shape: Shape, budget: int) -> int:
    """Assignment-space size m**T, raising when it exceeds the budget."""
    m, total = sum(shape.alpha), shape.total_arcs()
    count = m**total if m == 1 or total <= 1_000_000 else None
    if count is None or count > budget:
        # Past 10**100 the count shows as a power: str() limits an int's digits.
        shown = count if count is not None and count < 10**100 else f"{m}**{total}"
        raise BudgetExceededError(
            count, f"{shown} assignments exceed the enumeration budget {budget}"
        )
    return count


def achievable_losing_lists(
    shape: Shape, *, budget: int = DEFAULT_ASSIGNMENT_BUDGET
) -> AchievableSet:
    """Exact set of sorted losing-score list tuples over all assignments.

    A dynamic program over distinct loss-count vectors, indexed by vertex id
    (``shape.offsets[i] + j`` for vertex j of part i), that walks the
    selections in rank order: each state branches on the selection's possible
    losers, and equal states merge. States also merge up to symmetry:

    - after a rank whose digits below part i are all maxed, with S its part-i
      subset and e the last vertex of the first run of consecutive vertices
      in S, the counts of part i's vertices 0..e are sorted. Of those
      vertices S holds just that run, their last subset of its size in colex
      order, so each later subset under the same higher digits differs from
      S above e, and a later higher digit brings every subset: the selections
      still to come are closed under every permutation of vertices 0..e;
    - a part with alpha_i = n_i lies whole in every selection, and its counts
      stay sorted because a state branches only on the last position of each
      run of equal counts.

    Such a permutation maps reachable final states onto reachable final
    states, and the result sorts each part anyway, so no list is lost or
    added. ``budget`` bounds m**T, checked before any work, not the number
    of states.
    """
    count = _assignment_count(shape, budget)
    sels = _selection_ids(shape)
    offsets = shape.offsets
    spans = list(zip(offsets, offsets[1:]))
    # Parts of several vertices in every selection, and their non-last positions.
    inner = [e for (lo, hi), a in zip(spans, shape.alpha) if hi - lo == a > 1
             for e in range(lo, hi - 1)]
    # The other parts: first id, first position in a selection, alpha_i, stride.
    parts = [(lo, at, a, stride) for (lo, hi), a, at, stride
             in zip(spans, shape.alpha, accumulate(shape.alpha, initial=0), shape.strides)
             if hi - lo > a]
    states = {(0,) * offsets[-1]}
    for rank, sel in enumerate(sels):
        moves = [p for p in sel if p not in inner]
        states = {
            st[:p] + (st[p] + 1,) + st[p + 1:]
            for st in states
            for p in moves + [e for e in inner if st[e] != st[e + 1]]
        }
        for lo, at, a, stride in parts:
            if (rank + 1) % stride == 0:  # every digit below part i is maxed
                run = sel[at:at + a]  # part i's vertices; e ends their first run
                e = run[0]
                while e + 1 in run:
                    e += 1
                if e > lo:
                    states = {st[:lo] + tuple(sorted(st[lo:e + 1])) + st[e + 1:] for st in states}
    rows = list(states)  # the last rank maxes every digit, so each part is sorted
    lists = frozenset(zip(*([st[lo:hi] for st in rows] for lo, hi in spans)))
    return AchievableSet(shape, lists, count)


def random_hypertournament(
    shape: Shape, seed: int, mode: str = "loser-only"
) -> Hypertournament:
    """Seeded random hypertournament; identical arguments give identical output.

    ``loser-only`` keeps each selection in canonical order and draws only the
    loser; ``full-permutation`` draws a uniform ordering per selection
    (Fisher-Yates). Selections are visited in rank order.
    """
    if mode not in ("loser-only", "full-permutation"):
        raise ValueError(f"mode must be 'loser-only' or 'full-permutation', got {mode!r}")
    rng = SplitMix64(seed)
    sels = _selection_ids(shape)
    if mode == "loser-only":
        return Hypertournament._from_ids(shape, [sel[rng.below(len(sel))] for sel in sels])
    orders, vertex = [], tuple(shape.vertices()).__getitem__
    for sel in sels:
        order = list(map(vertex, sel))
        for i in range(len(sel) - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        orders.append(tuple(order))
    return Hypertournament(shape, orders)


def _score_tuples(shape: Shape, tuples) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each losing list tuple's score lists, every distinct list of a part
    reversed and complemented against its per-vertex arc count once."""
    columns = list(zip(*tuples))  # per part, its list in every tuple
    flips = [{lst: tuple(a_i - x for x in reversed(lst)) for lst in set(col)}
             for col, a_i in zip(columns, shape.through)]
    return zip(*(map(flip.__getitem__, col) for flip, col in zip(flips, columns)))


@dataclass(frozen=True)
class CrossValidationReport:
    """Predicate acceptance versus enumerated achievability, both kinds.

    Each ``only_*`` tuple lists symmetric-difference members and must be empty
    for the characterizations to be exact on the shape.
    """

    shape: Shape
    assignment_count: int
    losing_achievable_count: int
    losing_accepted_count: int
    losing_only_achievable: tuple
    losing_only_accepted: tuple
    score_achievable_count: int
    score_accepted_count: int
    score_only_achievable: tuple
    score_only_accepted: tuple

    @property
    def ok(self) -> bool:
        return not (
            self.losing_only_achievable
            or self.losing_only_accepted
            or self.score_only_achievable
            or self.score_only_accepted
        )


def cross_validate(shape: Shape, *, budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> CrossValidationReport:
    """Compare both decision procedures against exhaustive enumeration.

    The achievable score lists are :func:`_score_tuples` of the DP's losing
    lists; each accepted side is the pruned search of the module docstring,
    which yields exactly the bounded candidates its check accepts.
    """
    ach = achievable_losing_lists(shape, budget=budget)
    accepted_losing = set(_accepted_lists(shape, "losing"))
    ach_scores = set(_score_tuples(shape, ach.lists))
    accepted_scores = set(_accepted_lists(shape, "score"))
    return CrossValidationReport(
        shape=shape,
        assignment_count=ach.assignment_count,
        losing_achievable_count=len(ach.lists),
        losing_accepted_count=len(accepted_losing),
        losing_only_achievable=tuple(sorted(ach.lists - accepted_losing)),
        losing_only_accepted=tuple(sorted(accepted_losing - ach.lists)),
        score_achievable_count=len(ach_scores),
        score_accepted_count=len(accepted_scores),
        score_only_achievable=tuple(sorted(ach_scores - accepted_scores)),
        score_only_accepted=tuple(sorted(accepted_scores - ach_scores)),
    )
