"""Naive references for ground truth: every assignment of one loser per
selection, and every list tuple a check could accept.

The package decides the same questions faster: ``achievable_losing_lists``
by a dynamic program over loss-count vectors, and the accepted lists by a
pruned search (``criteria._accepted_lists``). These stream the whole space,
so the tests can compare the fast paths against it on small shapes.
"""

from itertools import combinations_with_replacement, product
from typing import Iterator

from hyperscores import DEFAULT_ASSIGNMENT_BUDGET, Hypertournament, Kind, Shape
from hyperscores.model import _selection_ids
from hyperscores.oracle import _assignment_count


def enumerate_assignments(
    shape: Shape, *, budget: int = DEFAULT_ASSIGNMENT_BUDGET
) -> Iterator[Hypertournament]:
    """Yield every hypertournament of ``shape`` up to loser choice.

    Each selection keeps its canonical vertex order with one vertex moved to
    the last position; assignments stream in mixed-radix order over selections
    with selection 0 as the fastest digit.
    """
    _assignment_count(shape, budget)
    for losers in product(*reversed(_selection_ids(shape))):
        yield Hypertournament._from_ids(shape, reversed(losers))


def bounded_candidate_lists(
    shape: Shape, kind: Kind
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every non-decreasing list tuple the predicates could possibly accept.

    Entries range over [0, shape.through[i]] per part i and the grand total is
    pinned to the kind's forced value; partial sums prune the cross-part
    allocation.
    """
    target = shape.total_arcs() if kind == "losing" else shape.score_total
    per_part: list[dict[int, list[tuple[int, ...]]]] = []
    for n_i, a_i in zip(shape.n, shape.through):
        by_sum: dict[int, list[tuple[int, ...]]] = {}
        for lst in combinations_with_replacement(range(a_i + 1), n_i):
            by_sum.setdefault(sum(lst), []).append(lst)
        per_part.append(by_sum)
    max_rest = [0] * (shape.k + 1)
    for i in range(shape.k - 1, -1, -1):
        max_rest[i] = max_rest[i + 1] + shape.n[i] * shape.through[i]

    def rec(i: int, remaining: int, chosen: list) -> Iterator:
        if i == shape.k:
            if remaining == 0:
                yield tuple(chosen)
            return
        for s, lists in per_part[i].items():
            if s > remaining or remaining - s > max_rest[i + 1]:
                continue
            for lst in lists:
                chosen.append(lst)
                yield from rec(i + 1, remaining - s, chosen)
                chosen.pop()

    yield from rec(0, target, [])
