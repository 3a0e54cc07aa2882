"""Naive references for ground truth: every assignment of one loser per
selection, and every list tuple a check could accept; the score count that
walked every arc; and the witness writer that built a whole document before
printing it.

The package decides the same questions faster: ``achievable_losing_lists``
by a dynamic program over loss-count vectors, the accepted losing lists by a
pruned search (``criteria._accepted_lists``) and the accepted score lists as
their reverse complements. These stream the whole space, so the tests can
compare the fast paths against it on small shapes. ``score_map`` reads each
vertex's score off its losses; :func:`score_map_by_orders` counts it arc by
arc. The CLI
writes a witness in chunks (``cli._emit_witness``); the tests compare its
bytes with :func:`witness_stdout`. The check builds a tail's lower envelope
in one pass over the line order its shape fixes (``criteria._lower_envelope``);
:func:`sorted_lower_envelope` sorts the lines themselves. The dynamic program
sorts a block of an arity-one part by inserting its last count into the
sorted rest; :func:`sorting_achievable` sorts every block whole.
"""

import json
from itertools import accumulate, combinations_with_replacement, product
from typing import Iterator

from hyperscores import DEFAULT_ASSIGNMENT_BUDGET, Hypertournament, Kind, Shape, StructuralError
from hyperscores.cli import _text_instance
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


def sorting_achievable(shape: Shape, before_sort=None) -> frozenset:
    """The achievable losing list tuples from the dynamic program of
    ``oracle.achievable_losing_lists`` with every block lo..e sorted whole in
    a second pass over the rank's states. ``before_sort(alpha_i, lo, e,
    states)``, when given, sees the states just before each block is sorted."""
    sels = _selection_ids(shape)
    offsets = shape.offsets
    spans = list(zip(offsets, offsets[1:]))
    inner = [e for (lo, hi), a in zip(spans, shape.alpha) if hi - lo == a > 1
             for e in range(lo, hi - 1)]
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
            if (rank + 1) % stride == 0:
                run = sel[at:at + a]
                e = run[0]
                while e + 1 in run:
                    e += 1
                if e > lo:
                    if before_sort:
                        before_sort(a, lo, e, states)
                    states = {st[:lo] + tuple(sorted(st[lo:e + 1])) + st[e + 1:] for st in states}
    return frozenset(tuple(st[lo:hi] for lo, hi in spans) for st in states)


def sorted_lower_envelope(base, g):
    """Lower envelope of the lines y = base[p] - g[p] * x, from the lines
    sorted by slope, then intercept: intercepts and slopes in ascending slope,
    and per adjacent pair of its lines the least integer x at which the later
    line is at least as low."""
    lines = sorted(zip(g, base))
    bs, ms, (m2, b2) = [], [], lines[0]  # the envelope below its top line (b2, m2)
    for m, b in lines:
        if m == m2:
            continue  # equal slope: sorted puts the least intercept first
        while bs:
            b1, m1 = bs[-1], ms[-1]
            # The middle line is never strictly lowest once the new line
            # meets the first one no later than the middle one does.
            if (b - b1) * (m2 - m1) <= (b2 - b1) * (m - m1):
                b2, m2 = bs.pop(), ms.pop()
            else:
                break
        bs.append(b2)
        ms.append(m2)
        b2, m2 = b, m
    bs.append(b2)
    ms.append(m2)
    steps = [-((b1 - b2) // (m2 - m1)) for b1, m1, b2, m2 in zip(bs, ms, bs[1:], ms[1:])]
    return bs, ms, steps


def score_map_by_orders(M: Hypertournament) -> dict:
    """Score per vertex, counted over :meth:`Hypertournament.orders`: one for
    each vertex of each order but its last. A missing arc, or a vertex
    outside the shape before an order's last, raises StructuralError."""
    counts = {v: 0 for v in M.shape.vertices()}
    try:
        for rank, order in enumerate(M.orders()):
            if order is None:
                raise StructuralError(f"no arc stored for selection {rank}")
            for v in order[:-1]:
                counts[v] += 1
    except KeyError as exc:
        raise StructuralError(f"arc contains unknown vertex {exc.args[0]}") from exc
    return counts


def witness_stdout(doc: dict, M: Hypertournament, emit: str, fmt: str) -> str:
    """What ``realize`` or ``random`` prints for doc with M's losers or arcs as
    its last key: one list per arc and per vertex pair, then ``json.dumps`` of
    the whole document, or its text rendering."""
    pair = {v: [v.part + 1, v.index + 1] for v in M.shape.vertices()}
    doc = dict(doc)
    if emit == "losers":
        doc["losers"] = [pair[v] for v in M.losers]
    else:
        doc["arcs"] = [[pair[v] for v in order] for order in M.orders()]
    return (_text_witness(doc) if fmt == "text" else json.dumps(doc)) + "\n"


def _text_witness(doc: dict) -> str:
    lines = [_text_instance(doc)]
    if "arcs" in doc:
        for arc in doc["arcs"]:
            lines.append(" ".join(f"{p}.{i}" for p, i in arc))
    elif "losers" in doc:
        lines.append(" ".join(f"{p}.{i}" for p, i in doc["losers"]))
    return "\n".join(lines)
