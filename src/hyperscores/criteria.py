"""Decision procedures for losing-score and score lists.

A candidate tuple of lists is accepted exactly when every prefix tuple
(p_1, ..., p_k) with 0 <= p_i <= n_i satisfies the corresponding lower bound
and the full prefix meets it with equality. Both sides share one slack,

    slack(p) = offset + sum_i base_i(p_i) - prod_i g_i(p_i),

which is negative exactly where the bound fails: base_i = pref_i, the prefix
sums of R_i, g_i(p) = C(p, alpha_i) and offset = 0 on the losing side, where
R is the input. A score is the arcs through a vertex (through_i in part i,
``Shape.through``) less its losses, so the score side is the losing side of
the reverse complement R_i(q) = through_i - S_i(n_i - 1 - q), read backwards
(an entry above through_i gives a negative one): base_i(p) = pref_i(n_i - p),
g_i(p) = C(n_i - p, alpha_i) and offset = T - sum R, T the number of arcs.

Split the parts into heads (p_1, ..., p_j) and a tail (p_{j+1}, ..., p_k).
For a fixed head the slack is a + b(t) - m(t) * c with a and c fixed, where
b(t) sums the tail bases and m(t) multiplies the tail g's at the tail t, so
the smallest slack over all tails is the lower envelope of the lines
b(t) - m(t) * x at x = c, made once per call over the L tails; a head is
then one binary search. The slack of a head bounds that of the heads after
it in its row (p_j running): it falls per step by at most a ``drop`` read
from part j's first base step, its g row and the envelope's steepest slope,
so a head with slack s clears the next s // drop heads unqueried. Rows where
the bound is nearly tight still query every head. j is the least index with
L <= H, or k - 1 if there is none (a meet in the middle), so a check costs
O((H + L) * log L) at worst, with H * L = prod_i (n_i + 1). When
alpha_k = 1, part k's lines in ascending slope are pref_k(q) - q * x on both
sides, each on the envelope as R_k is non-decreasing, line q + 1 as low as
line q from x = R_k[q] on: the envelope is (pref_k, C(q, 1), R_k) as they
are, not sorted and hull-scanned, for the scan to use when the tail is part
k alone. The scan returns the least violating prefix with its slack. A tail
holds at most MAX_SELECTIONS lines. Arithmetic is exact.

Everything but R and its prefix sums depends only on the shape: the g rows,
the arcs through a vertex of each part and the full-prefix totals are
computed once per :class:`~hyperscores.model.Shape` and read from it, so a
losing call builds only its prefix sums and envelope; a score call also
builds R and reverses its prefix sums and the g rows C(p, alpha_i).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from math import prod
from operator import mul

from .model import MAX_SELECTIONS, ScoreLists, Shape, conform_lists

__all__ = [
    "CheckResult",
    "PrefixViolation",
    "check_losing_lists",
    "check_score_lists",
    "losing_to_scores",
    "scores_to_losing",
]


@dataclass(frozen=True)
class PrefixViolation:
    """A prefix tuple whose bound failed, with both side values."""

    prefix: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a list check.

    ``witness_violation`` is the lexicographically smallest violating prefix
    tuple, or the full prefix when only the equality clause fails; it is absent
    exactly when the input is valid.
    """

    valid: bool
    witness_violation: PrefixViolation | None
    equality_at_full: bool


def _lower_envelope(base, g):
    """Lower envelope of the lines y = base[p] - g[p] * x.

    Returns the envelope's intercepts and slopes, as two lists in ascending
    slope, and for each adjacent pair of its lines the least integer x at
    which the later line is at least as low. The minimum over all lines at an
    integer x is then attained by line ``bisect_right(steps, x)``. Redundant
    lines are found by cross-multiplication; each breakpoint is stored as its
    exact integer ceiling, which decides integer queries exactly.
    """
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


def _extend(heads, base, g):
    """Heads one coordinate longer, in lexicographic order: each (a, c)
    followed by every (base, g) value of the new coordinate."""
    for a, c in heads:
        for b, m in zip(base, g):
            yield a + b, c * m


def _first_violation(offset, base, g, last):
    """Lexicographically least p with a negative slack, and its slack; or None.

    The parts split into heads (p_1, ..., p_j) and a tail (p_{j+1}, ..., p_k).
    The tail starts as the last part and takes in the part before it while it
    then has at most as many lines L as there are heads H, and at most
    MAX_SELECTIONS, so j is the least such index, or k - 1 if there is none.
    The tail's lines (intercept the summed tail bases, slope the product of
    the tail g's) are made in lexicographic order. Their envelope is
    ``last`` when the tail is the last part alone and the caller gives that
    part's envelope (at arity one), else built. One query of it gives a head's
    exact least slack over all tails. The outer heads (p_1, ...,
    p_{j-1}) come from chained :func:`_extend` in lexicographic order, each
    followed by its row of heads, part j's index q running (one empty head
    when j = 0). From one head of a row to the next the slack falls by at
    most ``drop``: the largest one-step fall of part j's base, at its first
    step since a conformed list's increments only grow (0 on the losing
    side), plus the envelope's steepest slope times the outer head's g
    product times the largest one-step rise of part j's g row, at one end of
    that monotone binomial row (0 on the score side, whose row descends), as
    the envelope never rises with x and falls no faster than that slope. So a
    head with slack s >= 0 clears the next s // drop heads unqueried, and the
    rest of its row when drop is 0; a tight row (s < drop) still queries
    every head. The first violating head is scanned along the tail for the
    least violating tail, whose slack it returns; p is decoded by mixed radix.
    """
    tail_base, tail_g = base[-1], g[-1]
    j = len(base) - 1
    # H * L = prod_i (n_i + 1), so L <= H exactly when L * L is at most that.
    while j > 1 and (
        (lines := len(tail_base) * len(base[j - 1])) <= MAX_SELECTIONS
        and lines * lines <= prod(map(len, base))
    ):
        j -= 1
        tail_base = [b + t for b in base[j] for t in tail_base]
        tail_g = [m * t for m in g[j] for t in tail_g]
    if j == len(base) - 1 and last is not None:
        hull_b, hull_m, steps = last
    else:
        hull_b, hull_m, steps = _lower_envelope(tail_base, tail_g)
    heads, row_b, row_g = [(offset, 1)], (0,), (1,)  # with j = 0, the one empty head
    for b_i, g_i in zip(base[:j], g[:j]):
        heads, row_b, row_g = _extend(heads, row_b, row_g), b_i, g_i
    n, base_drop, g_rise, slope = len(row_b), 0, 0, hull_m[-1]
    if n > 1:
        base_drop = max(0, row_b[0] - row_b[1])
        g_rise = max(0, row_g[1] - row_g[0], row_g[-1] - row_g[-2])
    for outer, (a0, c0) in enumerate(heads):
        drop, q = base_drop + slope * c0 * g_rise, 0
        while q < n:
            a, c = a0 + row_b[q], c0 * row_g[q]
            i = bisect_right(steps, c)
            s = a + hull_b[i] - hull_m[i] * c
            if s >= drop:  # the next head cannot violate
                q += 1 + s // drop if drop else n
            elif s >= 0:
                q += 1
            else:
                tail = next(t for t, (bt, gt) in enumerate(zip(tail_base, tail_g)) if a + bt < gt * c)
                index = (outer * n + q) * len(tail_base) + tail
                p = []
                for b_i in reversed(base):
                    index, p_i = divmod(index, len(b_i))
                    p.append(p_i)
                return tuple(reversed(p)), a + tail_base[tail] - tail_g[tail] * c
    return None


def _check(shape: Shape, lists, kind: str) -> CheckResult:
    data = conform_lists(shape, lists, kind)
    R = data if kind == "losing" else [[t - x for x in reversed(lst)] for lst, t in zip(data, shape.through)]
    base = pref = [tuple(accumulate(r, initial=0)) for r in R]
    g, offset, rhs_full = shape.binomial_rows, 0, shape.total_arcs()
    total = sum(pref_i[-1] for pref_i in pref)  # the sum of R
    if kind == "score":  # the losing side of R, read backwards
        offset = rhs_full - total
        total = sum(map(mul, shape.n, shape.through)) - total  # the sum of S
        rhs_full = shape.score_total
        base = [pref_i[::-1] for pref_i in pref]
        g = [row[::-1] for row in g]
    equality = total == rhs_full

    violation = None
    # At arity one the last part's envelope is its own lines, on both kinds.
    last = (pref[-1], shape.binomial_rows[-1], R[-1]) if shape.alpha[-1] == 1 else None
    if found := _first_violation(offset, base, g, last):
        p, slack = found
        lhs = sum(sum(lst[:p_i]) for lst, p_i in zip(data, p))
        violation = PrefixViolation(p, lhs, lhs - slack)  # slack = lhs - rhs
    elif not equality:
        violation = PrefixViolation(tuple(shape.n), total, rhs_full)
    return CheckResult(violation is None and equality, violation, equality)


def _fill(n, cap, total, floor, out):
    """Append (lst,) to out for each non-decreasing list lst of n entries in
    [0, cap] summing to total (at most n * cap) whose prefix sums P(q) are at
    least floor[q] for 0 < q < n. The search calls it once per distinct
    last-level state and shares the result."""
    cur = [0] * n

    def place(q, prev, used):
        left = total - used  # at most (n - q) * cap
        if q == n - 1:  # left >= prev: at q = n - 2 the loop takes e <= left // 2
            cur[q] = left
            out.append((tuple(cur),))
            return
        r = n - q  # entries still to place; each later one is at least this one
        for e in range(max(prev, floor[q + 1] - used, left - (r - 1) * cap), left // r + 1):
            cur[q] = e
            place(q + 1, e, used + e)

    place(0, 0, 0)


def _accepted_lists(shape: Shape):
    """A list of every list tuple :func:`check_losing_lists` accepts, each
    exactly once, in the order that ``bounded_candidate_lists(shape,
    "losing")`` of ``tests/reference.py`` yields the candidates.

    Parts are fixed one list at a time, each part's lists grouped by sum with
    the grand total pinned. With heads p_1, ..., p_j fixed, the free parts
    j+1..k meet them only at x = prod_{i>j} g_i(p_i), one of the finite set
    X_j of products the free parts can form, plus their own prefix sums. So
    level j keeps just V_j, the least slack of its heads at each x in X_j:
    V_0(x) = -x, and fixing part j+1's list with prefix sums pref adds
    V_{j+1}(x) = min_p (pref(p) + V_j(g_{j+1}(p) * x)), exactly in integers.
    The last list is built entry by entry against the floor -V_{k-1}(g_k(q))
    on its prefix sums, 0 < q < n_k, once its fixed prefix sums, 0 at q = 0
    and the remaining total at q = n_k, meet the floor there.

    Nothing below level j reads more than j, V_j and the remaining total: the
    sum filter, the recurrence and the last floor. So the tuples of
    lists that complete a state (j, V_j, rest) are found once, kept for the
    call and shared by every head that reaches it, each head's list put in
    front of them in the search's order. The search costs one expansion per
    distinct state, plus one tuple per completion it keeps.
    """
    g = shape.binomial_rows
    parts = list(zip(shape.n, shape.through))
    tables = []
    for n_i, t_i in parts[:-1]:
        by_sum = {}
        for lst in combinations_with_replacement(range(t_i + 1), n_i):
            by_sum.setdefault(sum(lst), []).append((lst, tuple(accumulate(lst, initial=0))))
        tables.append(by_sum)
    # X_j in ascending order and each x's position in it; per level j < k - 1
    # and p, the position in X_j of g[j][p] * x for each x of X_{j+1}.
    xs = [sorted(set(g[-1]))]
    for g_j in reversed(g[:-1]):
        xs.insert(0, sorted({m * x for m in g_j for x in xs[0]}))
    at = [{x: i for i, x in enumerate(x_j)} for x_j in xs]
    moves = [[[at[j][m * x] for x in xs[j + 1]] for m in g[j]] for j in range(len(tables))]
    # Per level j, the most the free parts j..k-1 can hold.
    caps = [sum(n_i * t_i for n_i, t_i in parts[j:]) for j in range(len(parts))]
    n_k, t_k = parts[-1]
    last = [at[-1][x] for x in g[-1]]
    done = {}

    def search(j, least, rest):
        key = (j, *least, rest)
        if (tails := done.get(key)) is not None:
            return tails
        tails = done[key] = []
        if j == len(tables):
            floor = [-least[i] for i in last]
            if floor[0] <= 0 and floor[-1] <= rest:
                _fill(n_k, t_k, rest, floor, tails)
            return tails
        for s, entries in tables[j].items():
            if s <= rest <= s + caps[j + 1]:
                for lst, pref in entries:
                    sums = ([b + least[i] for i in row] for b, row in zip(pref, moves[j]))
                    tails += [(lst, *t) for t in search(j + 1, list(map(min, *sums)), rest - s)]
        return tails

    return search(0, [-x for x in xs[0]], shape.total_arcs())


def check_losing_lists(shape: Shape, R) -> CheckResult:
    """Decide whether R can be the losing score lists of a hypertournament.

    Valid iff for every prefix tuple p, the summed prefixes of the lists are at
    least prod_i C(p_i, alpha_i), with equality at the full prefix. Costs
    O((H + L) * log L) at worst: one envelope over the L tails, read off the
    last list in O(L) when that part alone is the tail and has arity one, and
    at most one query per head, with H * L = prod_i (n_i + 1); a head whose
    bound holds with slack s clears the next s // drop heads of its row
    unqueried, so only rows near equality query every head (see the module
    docstring).
    """
    return _check(shape, R, "losing")


def check_score_lists(shape: Shape, S) -> CheckResult:
    """Decide whether S can be the score lists of a hypertournament.

    Valid iff for every prefix tuple p, the summed prefixes are at least
    sum_i p_i * C(n_i - 1, alpha_i - 1) * prod_{t != i} C(n_t, alpha_t)
    + prod_i C(n_i - p_i, alpha_i) - prod_i C(n_i, alpha_i),
    with equality at the full prefix: the losing check of S's reverse
    complement, read backwards (see the module docstring), at the same cost;
    a score row's drop is its first base step alone, as its g row descends.
    """
    return _check(shape, S, "score")


def _reverse_complement(shape: Shape, data) -> tuple[tuple[int, ...], ...]:
    """Each conformed (so non-decreasing) list reversed and complemented
    against its part's per-vertex arc count."""
    out = []
    for i, (lst, a_i) in enumerate(zip(data, shape.through)):
        if lst and lst[-1] > a_i:
            x = next(x for x in lst if x > a_i)
            raise ValueError(f"part {i + 1}: entry {x} exceeds the per-vertex arc count {a_i}")
        out.append(tuple(a_i - x for x in reversed(lst)))
    return tuple(out)


def losing_to_scores(shape: Shape, R) -> ScoreLists:
    """Score lists paired with losing lists R: reverse each list and complement
    every entry against the per-vertex arc count of its part."""
    data = conform_lists(shape, R, "losing")
    return ScoreLists("score", _reverse_complement(shape, data))


def scores_to_losing(shape: Shape, S) -> ScoreLists:
    """Inverse of :func:`losing_to_scores` (the map is an involution)."""
    data = conform_lists(shape, S, "score")
    return ScoreLists("losing", _reverse_complement(shape, data))
