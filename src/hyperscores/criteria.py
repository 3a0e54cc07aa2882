"""Decision procedures for losing-score and score lists.

A candidate tuple of lists is accepted exactly when every prefix tuple
(p_1, ..., p_k) with 0 <= p_i <= n_i satisfies the corresponding lower bound
and the full prefix meets it with equality. Both sides share one slack,

    slack(p) = offset + sum_i base_i(p_i) - prod_i g_i(p_i),

which is negative exactly where the bound fails:

- losing side: base_i = pref_i, g_i(p) = C(p, alpha_i), offset = 0;
- score side: base_i(p) = pref_i(p) - p * through_i, with through_i the
  arcs through one vertex of part i (``Shape.through``),
  g_i(p) = C(n_i - p, alpha_i), offset = T, the number of arcs.

Split the parts into heads (p_1, ..., p_j) and a tail (p_{j+1}, ..., p_k).
For a fixed head the slack is a + b(t) - m(t) * c with a and c fixed, where
b(t) sums the tail bases and m(t) multiplies the tail g's at the tail t, so
the smallest slack over all tails is the lower envelope of the lines
b(t) - m(t) * x at x = c. The envelope is built once per call over the L
tails and each of the H heads is decided by one binary search. j is the least
index with L <= H, or k - 1 when there is none (a meet in the middle), so a
check costs O((H + L) * log L) with H * L = prod_i (n_i + 1) instead of one
step per prefix tuple; on parts of similar size H and L are both near
sqrt(prod_i (n_i + 1)). A tail never grows past MAX_SELECTIONS lines, which
bounds its memory. All arithmetic is exact in integers.

Everything but the lists' prefix sums depends only on the shape: the g rows
(the score side reads each row C(p, alpha_i) reversed), the arcs through a
vertex of each part and the full-prefix totals are computed once per
:class:`~hyperscores.model.Shape` and read from it, so a call builds only its
prefix sums, its score bases and its envelope.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from math import prod

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

    Returns the envelope's lines as (intercept, g) pairs in ascending g, and
    for each adjacent pair the least integer x at which the later line is at
    least as low. The minimum over all lines at an integer x is then attained
    by line ``bisect_right(steps, x)``. Redundant lines are found by
    cross-multiplication; each breakpoint is stored as its exact integer
    ceiling, which decides integer queries exactly.
    """
    hull = []
    for m, b in sorted(zip(g, base)):
        if hull and hull[-1][1] == m:
            continue  # equal slope: sorted puts the least intercept first
        while len(hull) >= 2:
            (b1, m1), (b2, m2) = hull[-2], hull[-1]
            # The middle line is never strictly lowest once the new line
            # meets the first one no later than the middle one does.
            if (b - b1) * (m2 - m1) <= (b2 - b1) * (m - m1):
                hull.pop()
            else:
                break
        hull.append((b, m))
    steps = [-((b1 - b2) // (m2 - m1)) for (b1, m1), (b2, m2) in zip(hull, hull[1:])]
    return hull, steps


def _extend(heads, pairs):
    """Heads one coordinate longer, in lexicographic order: each (a, c)
    followed by every (base, g) value of the new coordinate."""
    for a, c in heads:
        for b, m in pairs:
            yield a + b, c * m


def _first_violation(offset, base, g):
    """Lexicographically smallest p with a negative slack, or None.

    The parts split into heads (p_1, ..., p_j) and a tail (p_{j+1}, ..., p_k).
    The tail starts as the last part and takes in the part before it while it
    then has at most as many lines L as there are heads H, and at most
    MAX_SELECTIONS, so j is the least such index, or k - 1 if there is none.
    The tail's lines, intercept the summed tail bases and slope the product
    of the tail g's, are made in lexicographic order and put on one envelope;
    heads are visited in lexicographic order and each is decided by one
    query. Only the first violating head is scanned along the tail, for the
    least violating tail, and p is decoded by mixed radix.
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
    hull, steps = _lower_envelope(tail_base, tail_g)
    heads = [(offset, 1)]
    for b_i, g_i in zip(base[:j], g[:j]):
        heads = _extend(heads, tuple(zip(b_i, g_i)))
    for index, (a, c) in enumerate(heads):
        b, m = hull[bisect_right(steps, c)]
        if a + b < m * c:
            tail = next(t for t, (bt, gt) in enumerate(zip(tail_base, tail_g)) if a + bt < gt * c)
            index = index * len(tail_base) + tail
            p = []
            for b_i in reversed(base):
                index, p_i = divmod(index, len(b_i))
                p.append(p_i)
            return tuple(reversed(p))
    return None


def _kind_terms(shape: Shape, kind: str):
    """The slack's terms that depend only on the shape and kind: the offset,
    the per-part step each base subtracts (base_i(p) = pref_i(p) - p * step_i),
    the g rows and the full-prefix total."""
    if kind == "losing":
        return 0, (0,) * shape.k, shape.binomial_rows, shape.total_arcs()
    rows = [row[::-1] for row in shape.binomial_rows]
    return shape.total_arcs(), shape.through, rows, shape.score_total


def _check(shape: Shape, data, kind: str) -> CheckResult:
    pref = [tuple(accumulate(lst, initial=0)) for lst in data]
    offset, steps, g, rhs_full = _kind_terms(shape, kind)
    if kind == "losing":
        base = pref
    else:
        base = [[s - p * t for p, s in enumerate(pref_i)] for pref_i, t in zip(pref, steps)]
    lhs_full = sum(pref_i[-1] for pref_i in pref)
    equality = lhs_full == rhs_full

    violation = None
    p = _first_violation(offset, base, g)
    if p is not None:
        lhs = sum(pref_i[p_i] for pref_i, p_i in zip(pref, p))
        slack = offset + sum(b[p_i] for b, p_i in zip(base, p)) - prod(
            g_i[p_i] for g_i, p_i in zip(g, p)
        )
        violation = PrefixViolation(p, lhs, lhs - slack)  # slack = lhs - rhs
    elif not equality:
        violation = PrefixViolation(tuple(shape.n), lhs_full, rhs_full)
    return CheckResult(violation is None and equality, violation, equality)


def _fill(n, cap, total, floor, out):
    """Append (lst,) to out for each non-decreasing list lst of n entries in
    [0, cap] summing to total (at most n * cap) whose prefix sums P(q) are at
    least floor[q] for 0 < q < n. The search calls it once per distinct
    last-level state and shares the result."""
    cur = [0] * n

    def place(q, prev, used):
        left = total - used  # at most (n - q) * cap
        if q == n - 1:
            if prev <= left:
                cur[q] = left
                out.append((tuple(cur),))
            return
        r = n - q  # entries still to place; each later one is at least this one
        for e in range(max(prev, floor[q + 1] - used, left - (r - 1) * cap), left // r + 1):
            cur[q] = e
            place(q + 1, e, used + e)

    place(0, 0, 0)


def _accepted_lists(shape: Shape, kind: str):
    """A list of every list tuple the check of ``kind`` accepts, each exactly
    once, in the order that ``bounded_candidate_lists`` of ``tests/reference.py``
    yields the candidates.

    Parts are fixed one list at a time, each part's lists grouped by sum with
    the grand total pinned. With heads p_1, ..., p_j fixed, the free parts
    j+1..k meet them only at x = prod_{i>j} g_i(p_i), one of the finite set
    X_j of products the free parts can form, plus their own bases. So level j
    keeps just V_j, the least slack of its heads at each x in X_j:
    V_0(x) = offset - x, and fixing part j+1's list adds
    V_{j+1}(x) = min_p (base_{j+1}(p) + V_j(g_{j+1}(p) * x)), exactly in
    integers. A branch is cut when the free parts all at p = 0, or all at
    p = n_i, leave a negative slack; their bases there are 0 and the remaining
    total less their steps. The last list is built entry by entry against the
    floor q * step_k - V_{k-1}(g_k(q)) on its prefix sums, 0 < q < n_k; the
    cut one level up decides q = 0 and q = n_k.

    Nothing below level j reads more than j, V_j and the remaining total: the
    cuts, the sum filter, the recurrence and the last floor. So the tuples of
    lists that complete a state (j, V_j, rest) are found once, kept for the
    call and shared by every head that reaches it, each head's list put in
    front of them in the search's order. The search costs one expansion per
    distinct state, plus one tuple per completion it keeps.
    """
    offset, steps, g, total = _kind_terms(shape, kind)
    parts = list(zip(shape.n, shape.through, steps, g))
    tables = []
    for n_i, t_i, step, g_i in parts[:-1]:
        by_sum = {}
        for lst in combinations_with_replacement(range(t_i + 1), n_i):
            base = tuple(s - p * step for p, s in enumerate(accumulate(lst, initial=0)))
            by_sum.setdefault(sum(lst), []).append((lst, base))
        tables.append(by_sum)
    # X_j in ascending order and each x's position in it; per level j < k - 1
    # and p, the position in X_j of g[j][p] * x for each x of X_{j+1}.
    xs = [sorted(set(g[-1]))]
    for g_j in reversed(g[:-1]):
        xs.insert(0, sorted({m * x for m in g_j for x in xs[0]}))
    at = [{x: i for i, x in enumerate(x_j)} for x_j in xs]
    moves = [[[at[j][m * x] for x in xs[j + 1]] for m in g[j]] for j in range(len(tables))]
    # Per level j, over the free parts j..k-1: the positions of x with every
    # p = 0 and with every p = n_i, the summed steps at p = n_i and the most
    # they can hold.
    free = [parts[j:] for j in range(len(parts))]
    zeros = [at[j][prod(g_i[0] for *_, g_i in f)] for j, f in enumerate(free)]
    fulls = [at[j][prod(g_i[-1] for *_, g_i in f)] for j, f in enumerate(free)]
    drops = [sum(n_i * step for n_i, _, step, _ in f) for f in free]
    caps = [sum(n_i * t_i for n_i, t_i, *_ in f) for f in free]
    n_k, t_k, step_k, g_k = parts[-1]
    last = [at[-1][x] for x in g_k]
    done = {}

    def search(j, least, rest):
        key = (j, *least, rest)
        if (tails := done.get(key)) is not None:
            return tails
        tails = done[key] = []
        if least[zeros[j]] < 0 or least[fulls[j]] + rest < drops[j]:
            return tails
        if j == len(tables):
            floor = [q * step_k - least[i] for q, i in enumerate(last)]
            _fill(n_k, t_k, rest, floor, tails)
            return tails
        for s, entries in tables[j].items():
            if s <= rest <= s + caps[j + 1]:
                for lst, base in entries:
                    sums = ([b + least[i] for i in row] for b, row in zip(base, moves[j]))
                    tails += [(lst, *t) for t in search(j + 1, list(map(min, *sums)), rest - s)]
        return tails

    return search(0, [offset - x for x in xs[0]], total)


def check_losing_lists(shape: Shape, R) -> CheckResult:
    """Decide whether R can be the losing score lists of a hypertournament.

    Valid iff for every prefix tuple p, the summed prefixes of the lists are at
    least prod_i C(p_i, alpha_i), with equality at the full prefix. Costs
    O((H + L) * log L): one envelope over the L tails and one query per head,
    with H * L = prod_i (n_i + 1) (see the module docstring).
    """
    data = conform_lists(shape, R, "losing")
    return _check(shape, data, "losing")


def check_score_lists(shape: Shape, S) -> CheckResult:
    """Decide whether S can be the score lists of a hypertournament.

    Valid iff for every prefix tuple p, the summed prefixes are at least
    sum_i p_i * C(n_i - 1, alpha_i - 1) * prod_{t != i} C(n_t, alpha_t)
    + prod_i C(n_i - p_i, alpha_i) - prod_i C(n_i, alpha_i),
    with equality at the full prefix. Same cost as :func:`check_losing_lists`,
    O((H + L) * log L) over H heads and L tails.
    """
    data = conform_lists(shape, S, "score")
    return _check(shape, data, "score")


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
