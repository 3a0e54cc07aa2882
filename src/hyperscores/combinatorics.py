"""Exact integer combinatorics for selection indexing.

Binomial coefficients and selection counts behind a fixed magnitude guard,
and the colexicographic list of fixed-size subsets that
:func:`hyperscores.model.selection_vertices` builds its selection order from.
Everything here is a pure function of immutable inputs and is safe to call
concurrently.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Shape

__all__ = [
    "CapacityError",
    "binom",
    "subsets_colex",
    "total_selections",
]

#: Ceiling for any single computed count. Oversized shapes fail loudly
#: instead of exhausting memory on astronomically large integers.
_MAGNITUDE_LIMIT = 2**127


class CapacityError(Exception):
    """A computed count exceeds the magnitude limit of 2**127."""


def binom(n: int, k: int) -> int:
    """Return C(n, k) exactly; 0 when k < 0 or k > n.

    A result above 2**127 raises :class:`CapacityError` instead of
    materializing an enormous integer.
    """
    if n < 0:
        raise ValueError(f"universe size must be non-negative, got n={n}")
    if k < 0 or k > n:
        return 0
    m = min(k, n - k)
    # C(n, m) >= (n/m)**m, so clearly oversized results are rejected
    # before math.comb computes them.
    if m > 0 and m * (math.log2(n) - math.log2(m)) > _MAGNITUDE_LIMIT.bit_length():
        raise CapacityError(f"C({n}, {k}) exceeds the magnitude limit")
    value = math.comb(n, k)
    if value > _MAGNITUDE_LIMIT:
        raise CapacityError(f"C({n}, {k}) = {value} exceeds the magnitude limit")
    return value


def subsets_colex(universe_size: int, cardinality: int) -> tuple[tuple[int, ...], ...]:
    """All cardinality-subsets of {0..universe_size-1} in colexicographic order."""
    combos = combinations(range(universe_size), cardinality)
    return tuple(sorted(combos, key=lambda s: s[::-1]))


def total_selections(shape: "Shape") -> int:
    """Number of selections of a shape: the product of all C(n_i, alpha_i)."""
    total = 1
    for n_i, a_i in zip(shape.n, shape.alpha):
        total *= binom(n_i, a_i)
        if total > _MAGNITUDE_LIMIT:
            raise CapacityError("selection count exceeds the magnitude limit")
    return total
