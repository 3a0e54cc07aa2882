"""Gale-Ryser: a decision of the losing lists of two parts of arity one that
reads no selection table, so it anchors the check at any size.

On (n1, n2)/(1, 1) every selection is a pair (u, v), one vertex of each part,
and a hypertournament is a 0/1 matrix X with X[u][v] = 1 when u loses the
pair. Part 1's losing scores are the row sums of X, and vertex v of part 2
loses the n1 - c_v pairs its column sum c_v leaves. So lists (a, b) are
losing lists exactly when some 0/1 matrix has row sums a and column sums
n1 - b_v. The Gale-Ryser theorem (Gale 1957; Ryser 1957) decides that by
conjugate dominance: all sums are non-negative, the totals agree, and with
the row sums in non-increasing order, the first k of them sum to at most
sum_v min(c_v, k) for every k <= n1. That is a condition unlike the paper's
prefix products, which is what makes it a reference.
"""

from itertools import accumulate
from operator import le


def gale_ryser(n1: int, n2: int, a, b) -> bool:
    """Whether ``a`` (part 1) and ``b`` (part 2), entries in any order, are the
    losing lists of some hypertournament of shape (n1, n2)/(1, 1)."""
    if len(a) != n1 or len(b) != n2 or min(a) < 0 or min(b) < 0 or max(b) > n1:
        return False
    columns = [n1 - x for x in b]
    if sum(a) != sum(columns):
        return False
    counts = [0] * (n1 + 1)
    for c in columns:
        counts[c] += 1
    # conjugate[k - 1] is the number of columns with a sum of at least k.
    conjugate = list(accumulate(reversed(counts[1:])))[::-1]
    return all(map(le, accumulate(sorted(a, reverse=True)), accumulate(conjugate)))
