"""Witness construction for valid losing-score lists.

Both routes build one loser per selection rank and each vertex's lost ranks and
meet the loss targets by one repair of both, ``_repair``: phases of shortest
interchange chains from the vertices over their targets to those under.
``realize_inductive`` runs two passes. Down, it shrinks one part at a time: the
other lists drain from the top into the active list, filled from the bottom,
then its own entries into its last, until that entry is the per-vertex arc
count of its part (saturation, unchecked), and that vertex, which loses every
arc through it, is dropped. Up, from the single arc left, each level gives the
arcs through its vertex, ranked by arithmetic on ``Shape.strides``, to that
vertex, sets the targets of the entries it moved back and repairs from those.
The repairs are exact, so they decide every walk; a walk that runs short, a
repair that finds no chain or a bottom with no unique unit loser raises
:class:`RealizationGapError` naming the level. That every tuple of lists a
walk's unit moves pass through meets the bounds is a tested property, not a
runtime check. The input lists are not checked either: the prefix-bound check
runs only when the construction or its recount fails, to tell invalid lists
(:class:`InvalidListsError`) from a gap.
``realize_flow`` starts each selection at its first vertex and repairs once, an
exact b-matching that serves as an oracle for the first route.

Inside, vertex j of part i is the int id ``Shape.offsets[i] + j`` and a
selection is a tuple of ids from the one cached table: the losers are a list
of ids by rank, and the lost ranks and needs are lists indexed by id. The
repair returns the ids a failed layering reached, and the inductive witness is
recounted on its loser ids. The witness keeps the list of ids, so a
:class:`VertexId` is made only where an :class:`InfeasibleError` carries its
``reached`` set, or when a caller reads the witness's vertices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import chain

from .criteria import CheckResult, check_losing_lists
from .model import CapacityError, Hypertournament, Shape, VertexId, _selection_ids, conform_lists

__all__ = [
    "InfeasibleError",
    "InvalidListsError",
    "RealizationGapError",
    "realize_flow",
    "realize_inductive",
]


class InvalidListsError(ValueError):
    """Input lists fail the prefix-bound characterization."""

    def __init__(self, result: CheckResult):
        witness = result.witness_violation
        detail = "equality fails at the full prefix"
        if witness is not None:
            detail = f"violated at prefix {witness.prefix}: {witness.lhs} < {witness.rhs}"
        super().__init__(f"lists are not realizable: {detail}")
        self.result = result


class RealizationGapError(Exception):
    """The inductive construction stopped at a level, or its witness misses the targets."""


class InfeasibleError(Exception):
    """No assignment of one loser per selection meets the target loss counts.

    ``reached`` is the certificate: a frozenset S of vertices with more arcs
    inside S than S's targets sum to, or None when the entries' grand total
    is wrong.
    """

    def __init__(self, message: str, reached: frozenset[VertexId] | None = None):
        super().__init__(message)
        self.reached = reached


def _spread(lst, lo: int, hi: int, total: int, part: int, before: dict) -> None:
    """Spread ``total`` evenly, the higher entries rightmost, over the sorted
    lst[lo:hi], recording each changed entry's first value in ``before``."""
    q, r = divmod(total, hi - lo)
    for a, b, x in ((lo, hi - r, q), (hi - r, hi, q + 1)):
        for i in chain(range(a, bisect_left(lst, x, a, b)), range(bisect_right(lst, x, a, b), b)):
            before.setdefault((part, i), lst[i])
            lst[i] = x


def _drain(lst, stop: int, units: int, part: int, before: dict) -> int:
    """Lower lst[:stop] by ``units``, top run first; return the shortfall."""
    j, held = stop, 0
    while j and (x := lst[j - 1]) and held - (stop - j) * x < units:
        i = bisect_left(lst, x, 0, j)
        j, held = i, held + x * (j - i)
    if j < stop:
        _spread(lst, j, stop, max(held - units, 0), part, before)
    return max(units - held, 0)


def _walk_level(lists, active: int, bound: int) -> list[tuple[tuple[int, int], int]] | None:
    """Apply to ``lists``, in closed form, the first-choice unit moves at part
    ``active`` until its last entry is ``bound``; each moved entry's (part,
    index) and net change, before minus after, or None when the lists run
    short or that entry is past the bound. A first-choice move is +1 at the
    end of the active list's first run and -1 at the start of the last run of
    the first other list, in part order, whose last entry is non-zero; when
    every other list is zero, +1 at the active list's last entry and -1 at its
    latest non-zero run start before that entry."""
    lst, before = lists[active], {}
    if lst[-1] >= bound:
        return [] if lst[-1] == bound else None
    i = bisect_left(lst, bound - 1, 0, len(lst) - 1)  # lst[i:-1] are all bound - 1
    short = units = i * (bound - 1) - sum(lst[:i]) + bound - lst[-1]
    for s, donor in enumerate(lists):
        if s != active and short:
            short = _drain(donor, len(donor), short, s, before)
    j = held = 0
    while j < len(lst) and j * (x := lst[j]) - held < units - short:
        i = bisect_right(lst, x, j)
        j, held = i, held + x * (i - j)
    if j:  # the donors' units lift the bottom block to an even level
        _spread(lst, 0, j, held + units - short, active, before)
    if short:  # the shift: lst[:-1] gives the last entry the rest
        short = _drain(lst, len(lst) - 1, bound - lst[-1], active, before)
        _spread(lst, len(lst) - 1, len(lst), bound - short, active, before)
    return None if short else [(v, x - y) for v, x in before.items()
                               if x != (y := lists[v[0]][v[1]])]


def _repair(sels, losers, lost, need, over: list[int]) -> frozenset[int] | None:
    """Move losses by interchange chains until no ``need`` is negative.

    Vertices are the ids of :func:`_selection_ids`, and every argument is
    indexed by them or by rank: ``losers[r]`` loses the arc at rank r,
    ``sels[r]``; ``lost[v]`` holds v's ranks ascending; ``need[v]`` is how
    many more arcs v should lose. All three are kept current. ``over`` lists
    exactly the v whose need is negative, in the order they are taken as
    sources. A chain u0, ..., um, where u_(i-1) loses an arc holding u_i,
    makes each u_i that arc's loser: only u0 and um change counts. The first
    phase is a one-hop sweep, one ascending pass over each s of ``over`` that
    gives each rank of ``lost[s]`` to the first under-target vertex of its
    selection until s meets its target. A gaining vertex is never a source, so the ranks s
    scanned are replaced once by those it keeps, and each gainer's new ranks
    go into its list once: appended when they all follow its last held rank,
    as they nearly always do, else merged from the first of them on. Each later
    phase layers the vertices from all over-target ones up to the first layer
    that holds an under-target one. Every phase moves a blocking set of
    shortest chains along its layers by a search that resumes each vertex at
    a cursor (Dinic; Hopcroft-Karp), so the shortest chain lengthens every
    phase. Scans go in rank order, then selection order. Returns None, or the
    frozenset of ids its layering reached when that layering reaches no
    under-target vertex.
    """
    gained: dict[int, list[int]] = {}
    for s in over:
        ranks, kept, left = lost[s], [], need[s]
        for rank in ranks:
            for w in sels[rank]:
                if need[w] > 0:
                    break
            else:
                kept.append(rank)
                continue
            losers[rank], need[w], left = w, need[w] - 1, left + 1
            gained.setdefault(w, []).append(rank)
            if not left:
                break
        ranks[:len(kept) + left - need[s]] = kept  # the scanned ranks, less those moved
        need[s] = left
    for w, ranks in gained.items():
        held = lost[w]
        ranks.sort()
        if not held or held[-1] < ranks[0]:
            held += ranks
        else:
            i = bisect_left(held, ranks[0])
            held[i:] = sorted(held[i:] + ranks)
    while over := [v for v in over if need[v] < 0]:
        dist, layer, depth = dict.fromkeys(over, 0), over, 1
        while True:  # layers up to the first that holds an under-target vertex
            layer = {w: depth for u in layer for r in lost[u] for w in sels[r] if w not in dist}
            if not layer:
                return frozenset(dist)
            if any(need[w] > 0 for w in layer):
                break
            dist.update(layer)
            depth += 1
        cursor = {}
        for s in over:  # each s moves losses by a depth-first search up the layers
            path = [(None, s)]
            while path and need[s] < 0:
                u = path[-1][1]
                d, ranks = dist[u] + 1, lost[u]
                rank = w = None
                for i in range(bisect_left(ranks, cursor.get(u, 0)), len(ranks)):
                    for w in sels[ranks[i]]:
                        if need[w] > 0 if d == depth else dist.get(w) == d:
                            rank = ranks[i]
                            break
                    if rank is not None:
                        break
                if rank is None:  # a dead end leaves the layering
                    dist[u] = None
                    path.pop()
                    continue
                cursor[u] = rank
                path.append((rank, w))
                if d == depth:  # w is under its target: interchange along the chain
                    for rank, w in path[1:]:
                        held = lost[losers[rank]]
                        del held[bisect_left(held, rank)]
                        losers[rank] = w
                        insort(lost[w], rank)
                    need[s], need[w] = need[s] + 1, need[w] - 1
                    path = [(None, s)]


def _level_ranks(shape: Shape, part: int, m: int) -> list[int]:
    """The top ranks whose first-dropped vertex is (part, m), ascending: ``part``
    holds the first non-zero digit, and by the digit facts of the selection
    table its digits for m are [C(m, alpha), C(m+1, alpha))."""
    g, stride = shape.binomial_rows[part], shape.strides[part]
    digits = range(g[m] * stride, g[m + 1] * stride, stride)
    return [q + d for q in range(0, shape.total_arcs(), stride * g[-1]) for d in digits]


def _gap(part: int, index: int, what: str) -> RealizationGapError:
    return RealizationGapError(f"gap at level [{part + 1}, {index + 1}]: {what}")


def _inductive_losers(shape: Shape, lists) -> list[int]:
    """One loser id per selection rank by the two passes on ``lists`` (mutated).

    The up pass fills the losers and lost lists from rank 0 on, level by level.
    A level's repair is an exact b-matching for the lists the walk of the level
    above left, so it finds no chain exactly when that walk broke a bound.
    Raises :class:`RealizationGapError` naming the level's vertex when a walk
    runs short, a repair finds no chain or, at the last level, the single arc
    left has no unique unit loser.
    """
    arcs, levels = shape.total_arcs(), []
    for active, (n_a, a) in enumerate(zip(shape.n, shape.alpha)):
        for m in range(n_a - 1, a - 1, -1):  # the sub-shape has m + 1 vertices in part active
            bound = arcs * a // (m + 1)
            change = _walk_level(lists, active, bound)
            if change is None:
                raise _gap(active, m, f"the walk cannot bring its last entry to {bound}")
            levels.append((active, m, change))
            lists[active].pop()
            arcs = arcs * (m + 1 - a) // (m + 1)
    # The single arc left, at rank 0, goes to the vertex of the unit entry.
    offsets = shape.offsets
    bottom = [offsets[i] + j for i, lst in enumerate(lists) for j, x in enumerate(lst) if x == 1]
    if len(bottom) != 1:
        what = f"the single arc left has {len(bottom)} unit entries, not 1"
        raise _gap(*levels[-1][:2], what) if levels else RealizationGapError(what)
    sels, need, ids = _selection_ids(shape), [0] * offsets[-1], list(range(offsets[-1]))
    losers, lost = [None] * len(sels), [[] for _ in need]
    losers[0], lost[bottom[0]] = bottom[0], [0]
    for part, m, change in reversed(levels):
        # The level's vertex has lost nothing yet, so its ranks are its lost list.
        # A fresh int for its id, kept by the witness, would pin freed memory.
        v = ids[offsets[part] + m]
        ranks = lost[v] = _level_ranks(shape, part, m)
        for rank in ranks:
            losers[rank] = v
        change = [(offsets[p] + i, x) for (p, i), x in change]
        for u, x in change:  # the targets go back to the lists before saturation
            need[u] += x
        over = sorted(u for u, x in change if need[u] < 0)
        if _repair(sels, losers, lost, need, over) is not None:
            raise _gap(part, m, "the repair finds no chain")
    return losers


def realize_inductive(shape: Shape, R) -> Hypertournament:
    """Construct a hypertournament whose losing score lists equal R.

    Entry j of list i is realized at vertex (i, j). The down pass shrinks the
    first part that still has more vertices than its arity until a single arc
    is left; the up pass builds the witness back on the top shape's selection
    table. A level that cannot complete raises :class:`RealizationGapError`
    naming its vertex, and its loser ids are recounted against the targets
    before the witness is built on them, so a defect cannot pass as a witness.

    The lists are checked only when the construction or the recount fails, or
    the shape is past the selection table's cap (:class:`CapacityError`):
    lists the prefix-bound check rejects then raise :class:`InvalidListsError`
    with its result, and any other lists the original error.
    """
    data = conform_lists(shape, R, "losing")
    try:
        losers = _inductive_losers(shape, [list(lst) for lst in data])
        targets, counts = list(chain.from_iterable(data)), Counter(losers)
        if [counts[v] for v in range(len(targets))] != targets:
            raise RealizationGapError("constructed witness does not reproduce the input lists")
    except (RealizationGapError, CapacityError):
        result = check_losing_lists(shape, data)
        if not result.valid:
            raise InvalidListsError(result) from None
        raise
    return Hypertournament._from_ids(shape, losers)


def realize_flow(shape: Shape, R) -> Hypertournament:
    """Assign one loser per selection so that vertex (i, j) loses R[i][j] arcs.

    Each selection starts lost by its first vertex, ``sel[0]``, and one repair
    moves losses by interchange chains from the vertices over their targets to
    those under. :class:`InfeasibleError` is raised on a wrong grand total or
    when a layering of the repair ends short, which is exact by max-flow/min-cut
    from any start: let S be the vertices that layering reached from all
    over-target vertices together. Every arc a vertex of S loses lies inside S,
    no vertex of S is under its target and some are over, so more arcs lie
    inside S than its targets sum to, and any hypertournament makes S lose them
    all. Feasibility thus coincides with acceptance by the losing-list check.
    The error carries S as ``reached``.
    """
    data = conform_lists(shape, R, "losing")
    total, grand = shape.total_arcs(), sum(sum(lst) for lst in data)
    if grand != total:
        raise InfeasibleError(f"entries sum to {grand}, but the shape has {total} arcs")

    sels = _selection_ids(shape)
    losers, lost = [sel[0] for sel in sels], [[] for _ in range(shape.offsets[-1])]
    for rank, loser in enumerate(losers):  # ascending ranks keep every lost list sorted
        lost[loser].append(rank)
    need = [x - len(held) for x, held in zip(chain.from_iterable(data), lost)]
    reached = _repair(sels, losers, lost, need, [v for v, x in enumerate(need) if x < 0])
    if reached is not None:
        raise InfeasibleError("lists are not realizable: no interchange chain moves a loss",
                              frozenset(map(tuple(shape.vertices()).__getitem__, reached)))
    return Hypertournament._from_ids(shape, losers)
