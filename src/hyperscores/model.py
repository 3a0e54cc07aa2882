"""Multipartite hypertournament model.

A shape fixes k disjoint parts with n_i vertices each and per-part arities
alpha_i. A hypertournament has exactly one ordered arc per selection (one
alpha_i-subset per part), densely indexed by selection rank; the vertex in the
last position of an arc is that arc's loser, and the losers are what it keeps.
Every count is an exact integer behind a magnitude guard: a binomial or a
selection count above 2**127 raises :class:`CapacityError` instead of
materializing an enormous integer. All values are immutable after construction
and all operations are pure, so concurrent reads are safe.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress, count, islice, product, repeat
from math import comb, log2
from operator import contains, gt, mul, not_
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

__all__ = [
    "Arc",
    "CapacityError",
    "Hypertournament",
    "Kind",
    "MAX_SELECTIONS",
    "ScoreLists",
    "Shape",
    "StructuralError",
    "VertexId",
    "Violation",
    "binom",
    "conform_lists",
    "losing_score_map",
    "losing_scores",
    "score_map",
    "scores",
    "selection_vertices",
    "validate",
]

Kind = Literal["losing", "score"]

# Largest selection table that _selection_ids and selection_vertices build,
# and most vertices that Shape.vertices gives a per-vertex table. A selection
# of m vertices is a tuple of pointers to vertex objects (ids or VertexIds)
# the whole table shares, 48 + 8m bytes with its table slot (64 to 96 bytes
# at m = 2 to 6), so 10^6 selections take about 0.1 GB; (10^6,)/(1,), where
# every selection brings its own vertex, takes about 0.1 GB as ids and
# 0.15 GB as VertexIds.
MAX_SELECTIONS = 10**6

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
    if m > 0 and m * (log2(n) - log2(m)) > _MAGNITUDE_LIMIT.bit_length():
        raise CapacityError(f"C({n}, {k}) exceeds the magnitude limit")
    value = comb(n, k)
    if value > _MAGNITUDE_LIMIT:
        raise CapacityError(f"C({n}, {k}) = {value} exceeds the magnitude limit")
    return value


class VertexId(NamedTuple):
    """Vertex identified by (part, index), both 0-based internally."""

    part: int
    index: int


class StructuralError(Exception):
    """A hypertournament failed a structural requirement."""


def _integers(values, *field) -> tuple[int, ...]:
    """``values`` as ints. An entry that is not an int must equal one (``2.0``
    does), or ValueError names it (``2.5``, ``'3'``, NaN, infinities, and
    bools, although ``True == 1``): for ``field`` ("lists", 1) entry j is
    ``lists[1][j]``."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            break
    else:
        return values
    out = []
    for j, x in enumerate(values):
        if type(x) is not int:
            try:
                if isinstance(x, bool) or int(x) != x:
                    raise ValueError
                x = int(x)
            except (TypeError, ValueError, OverflowError):
                name = field[0] + "".join(f"[{i}]" for i in (*field[1:], j))
                raise ValueError(f"{name} must be an integer, got {x!r}") from None
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Shape:
    """Instance signature: part sizes ``n`` and per-part arities ``alpha``.

    The counts that depend only on the shape (the number of arcs, the arcs
    through one vertex of each part, each part's binomial row, rank stride and
    first vertex id) are computed once per instance, on first use, and kept
    as tuples; equality, hashing and repr still see only ``n`` and ``alpha``.
    """

    n: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integers(self.n, "n"))
        object.__setattr__(self, "alpha", _integers(self.alpha, "alpha"))
        if not self.n:
            raise ValueError("a shape needs at least one part")
        if len(self.n) != len(self.alpha):
            raise ValueError(f"{len(self.n)} part sizes but {len(self.alpha)} arities")
        for i, (n_i, a_i) in enumerate(zip(self.n, self.alpha)):
            if not 1 <= a_i <= n_i:
                raise ValueError(
                    f"part {i + 1}: need 1 <= alpha <= n, got alpha={a_i}, n={n_i}"
                )
        total = 1
        for n_i, a_i in zip(self.n, self.alpha):
            total *= binom(n_i, a_i)
            if total > _MAGNITUDE_LIMIT:
                raise CapacityError("selection count exceeds the magnitude limit")
        object.__setattr__(self, "_total_arcs", total)

    @property
    def k(self) -> int:
        return len(self.n)

    def total_arcs(self) -> int:
        """Number of arcs of any hypertournament of this shape."""
        return self._total_arcs

    @cached_property
    def through(self) -> tuple[int, ...]:
        """Per part, the number of arcs containing any fixed vertex of it:
        C(n_i - 1, alpha_i - 1) times the product of C(n_t, alpha_t) over the
        other parts, i.e. the alpha_i/n_i fraction of all arcs."""
        return tuple(self._total_arcs * a_i // n_i for n_i, a_i in zip(self.n, self.alpha))

    @cached_property
    def binomial_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per part, C(p, alpha_i) for p = 0..n_i; entry n_i - p of the row is
        C(n_i - p, alpha_i)."""
        return tuple(
            tuple(comb(p, a_i) for p in range(n_i + 1)) for n_i, a_i in zip(self.n, self.alpha)
        )

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Per part i, the rank step of its digit: the product of C(n_t, alpha_t), t < i."""
        return tuple(accumulate((row[-1] for row in self.binomial_rows[:-1]), mul, initial=1))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Per part i, the id of its first vertex, then the vertex count:
        vertex j of part i is the int ``offsets[i] + j``."""
        return tuple(accumulate(self.n, initial=0))

    @cached_property
    def score_total(self) -> int:
        """Grand total of any score lists: each arc scores at all but its loser."""
        return (sum(self.alpha) - 1) * self._total_arcs

    def vertices(self) -> Iterator[VertexId]:
        """The vertices, part by part. Every per-vertex table is built from
        them, so more than :data:`MAX_SELECTIONS` raise :class:`CapacityError`
        here, before any is built."""
        count = self.offsets[-1]
        if count > MAX_SELECTIONS:
            raise CapacityError(f"{count} vertices exceed the table limit of {MAX_SELECTIONS}")
        return (VertexId(part, index) for part, n_i in enumerate(self.n) for index in range(n_i))


@dataclass(frozen=True, slots=True)
class Arc:
    """Ordered tuple of distinct vertices; the last position is the loser."""

    order: tuple[VertexId, ...]

    @property
    def loser(self) -> VertexId:
        return self.order[-1]

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self.order


def _order(rank: int, arc) -> tuple | None:
    """The vertices of arc ``rank``, an :class:`Arc` or a vertex sequence, as a
    tuple; None stays None, and an arc that does not iterate raises
    StructuralError naming its rank."""
    if arc is None:
        return None
    try:
        return tuple(getattr(arc, "order", arc))
    except TypeError:
        raise StructuralError(f"arc {rank} is not an Arc, a sequence or None: {arc!r}") from None


def _id(shape: Shape, v):
    """v as the model keeps a vertex. A vertex is None or a pair of integers:
    a tuple or list of two entries (a :class:`VertexId` included), each an int
    or equal to one but no bool, as :func:`_integers` reads them. A pair
    (i, j) of the shape gives its id, a pair outside it stays data (a
    VertexId as itself, any other pair as its tuple) for :func:`validate` to
    report, and None stays None. Any other v raises StructuralError naming it."""
    if v is None:
        return None
    if isinstance(v, (tuple, list)) and len(v) == 2:
        i, j = v
        try:
            if type(i) is not int or type(j) is not int:
                i, j = _integers(v, "vertex")
        except ValueError:
            pass
        else:
            if 0 <= i < shape.k and 0 <= j < shape.n[i]:
                return shape.offsets[i] + j
            return v if isinstance(v, VertexId) else tuple(v)
    raise StructuralError(f"a vertex is None or a pair of integers, got {v!r}")


@dataclass(frozen=True, init=False, eq=False)
class Hypertournament:
    """One loser per rank, and the arcs' vertex orders only where not canonical.

    A vertex is None or a pair of integers, a :class:`VertexId` included: a
    pair of the shape is kept as its id, any other pair as itself, for
    :func:`validate` to report, and any other entry raises
    :class:`StructuralError` (:func:`_id`). A canonical order is the rank's
    selection with its loser moved last. ``Hypertournament(shape, arcs)``
    takes :class:`Arc`s, vertex sequences (loser last) or None (any other arc
    raises :class:`StructuralError`), reads each vertex so, and keeps their
    orders (``_orders``, tuples of those ids) too unless there are at most T
    and each is canonical or None. The comparison
    builds the selection table, so above :data:`MAX_SELECTIONS` it raises
    :class:`CapacityError`. :attr:`losers`, :meth:`orders` and :attr:`arcs`
    make :class:`VertexId`s when read, and only :attr:`arcs` makes :class:`Arc`s.
    """

    shape: Shape

    def __init__(self, shape: Shape, arcs: Iterable[Arc | Sequence[VertexId] | None]) -> None:
        orders = [o if o is None else [_id(shape, v) for v in o]
                  for o in map(_order, count(), arcs)]
        self._keep(shape, orders)

    @classmethod
    def from_losers(cls, shape: Shape, losers: Iterable[VertexId]) -> "Hypertournament":
        """``losers[r]`` loses the arc at rank r, and a None loser is a missing
        arc; entries past the last rank are dropped, and no arc is built."""
        return cls._from_ids(shape, [_id(shape, v) for v in losers])

    @classmethod
    def _from_ids(cls, shape: Shape, ids: Iterable) -> "Hypertournament":
        """:meth:`from_losers` of the losers as the model keeps them."""
        M = cls.__new__(cls)
        M.__dict__.update(shape=shape, _ids=tuple(ids)[: shape.total_arcs()], _orders=None)
        return M

    @classmethod
    def _from_id_orders(cls, shape: Shape, orders: list) -> "Hypertournament":
        """``Hypertournament(shape, arcs)`` of arcs already read as lists of
        ids (a vertex outside the shape as itself); a list that is kept is
        replaced in ``orders`` by its tuple."""
        M = cls.__new__(cls)
        M._keep(shape, orders)
        return M

    def _keep(self, shape: Shape, orders: list) -> None:
        """Keep the losers of ``orders``, lists of ids, and unless there are
        at most T of them and each is canonical or None, their orders too:
        each list replaced in place by its tuple, so one at a time is copied."""
        ids = tuple([o[-1] if o else None for o in orders])
        self.__dict__.update(shape=shape, _ids=ids, _orders=None)
        if len(orders) > shape.total_arcs() or not all(
            o == (i if i is None else [x for x in sel if x != i] + [i])
            for sel, i, o in zip(_selection_ids(shape), ids, orders)
        ):
            for r, o in enumerate(orders):
                orders[r] = o if o is None else tuple(o)
            self.__dict__["_orders"] = tuple(orders)

    @cached_property
    def losers(self) -> tuple[VertexId | None, ...]:
        """Each rank's loser, a :class:`VertexId` per vertex made on first read."""
        offsets = self.shape.offsets
        vertex = {i: VertexId(p := bisect_right(offsets, i) - 1, i - offsets[p])
                  for i in set(self._ids) if type(i) is int}
        return tuple([vertex.get(i, i) for i in self._ids])

    @cached_property
    def arcs(self) -> tuple[Arc | None, ...]:
        """One :class:`Arc` per order of :meth:`orders`, None for a missing arc."""
        return tuple(o if o is None else Arc(o) for o in self.orders())

    def orders(self) -> Iterator[tuple[VertexId, ...] | None]:
        """Each arc's vertices as :class:`VertexId`s, loser last, with no :class:`Arc`
        built: the kept orders, or selection r with its loser moved last (appended
        when outside it, for :func:`validate` to report); None for a missing arc."""
        verts = tuple(self.shape.vertices())
        if self._orders is not None:
            return (o if o is None else tuple([verts[x] if type(x) is int else x for x in o])
                    for o in self._orders)
        return (
            i if i is None else tuple([verts[x] for x in sel if x != i])
            + (verts[i] if type(i) is int else i,)
            for sel, i in zip(_selection_ids(self.shape), self._ids)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypertournament):
            return NotImplemented
        return (self.shape, self._ids, self._orders) == (other.shape, other._ids, other._orders)

    def __hash__(self) -> int:
        return hash((self.shape, self._ids))


def _monotone_lists(lists) -> tuple[tuple[int, ...], ...]:
    """``lists`` as tuples of ints, or ValueError unless each is non-decreasing
    and non-negative."""
    lists = tuple(_integers(lst, "lists", i) for i, lst in enumerate(lists))
    for i, lst in enumerate(lists):
        if any(map(gt, lst, lst[1:])):
            raise ValueError(f"part {i + 1} list is not non-decreasing: {list(lst)}")
        if lst and lst[0] < 0:
            raise ValueError(f"part {i + 1} list has a negative entry: {list(lst)}")
    return lists


@dataclass(frozen=True)
class ScoreLists:
    """Per-part non-decreasing integer lists, tagged ``losing`` or ``score``."""

    kind: Kind
    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("losing", "score"):
            raise ValueError(f"kind must be 'losing' or 'score', got {self.kind!r}")
        object.__setattr__(self, "lists", _monotone_lists(self.lists))

    @classmethod
    def from_map(cls, kind: Kind, shape: Shape, by_vertex: Mapping[VertexId, int]) -> "ScoreLists":
        """Sorted lists from a per-vertex map; keeps the map out of the value."""
        lists = tuple(
            tuple(sorted(by_vertex.get(VertexId(part, j), 0) for j in range(n_i)))
            for part, n_i in enumerate(shape.n)
        )
        return cls(kind, lists)

    def total(self) -> int:
        return sum(sum(lst) for lst in self.lists)


def conform_lists(shape: Shape, lists, kind: Kind) -> tuple[tuple[int, ...], ...]:
    """Validate lists against a shape and return them as plain tuples.

    Accepts a :class:`ScoreLists` (whose kind must match) or raw per-part
    sequences; rejects non-monotone or negative entries and length mismatches.
    """
    if isinstance(lists, ScoreLists):
        if lists.kind != kind:
            raise ValueError(f"expected {kind} lists, got kind={lists.kind!r}")
        data = lists.lists
    else:
        data = _monotone_lists(lists)
    if len(data) != shape.k:
        raise ValueError(f"expected {shape.k} lists, got {len(data)}")
    for i, lst in enumerate(data):
        if len(lst) != shape.n[i]:
            raise ValueError(
                f"part {i + 1}: expected {shape.n[i]} entries, got {len(lst)}"
            )
    return data


@contextmanager
def _collector_paused():
    """Run the block with CPython's cyclic garbage collector off, and turn it
    back on afterwards only if this block turned it off, so pauses nest and a
    caller who disabled it finds it still disabled.

    Each tuple, list or dict allocated counts towards the collector's next
    pass, and a pass traverses every tracked container of its generations:
    ``verify`` of a witness of 10^6 arcs ran 14 full passes over everything
    read so far. The package makes no reference cycle, so reference counting
    alone frees what a paused block drops. The setting is the whole
    process's: another thread may run paused meanwhile, which changes only
    when its cycles are collected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _selection_table(shape: Shape, vertices: Iterator) -> tuple[tuple, ...]:
    """All selections of ``shape`` by rank, each a tuple of the labels that
    ``vertices`` gives, one per vertex in :meth:`Shape.vertices` order.

    Rank order is the product of the parts' alpha_i-subsets, each part's in
    colexicographic order, with part 1 as the fastest digit, and each
    selection holds its vertices in that order. Callers rely on two digit
    facts: part i's digit steps by ``shape.strides[i]``, and the subsets
    whose largest vertex is m take its colex digits [C(m, alpha_i), C(m+1,
    alpha_i)). Every selection holding a vertex holds the one label object
    ``vertices`` gave for it.

    Raises :class:`CapacityError` when the shape has more than
    :data:`MAX_SELECTIONS` selections.
    """
    if shape.total_arcs() > MAX_SELECTIONS:
        raise CapacityError(
            f"{shape.total_arcs()} selections exceed the table limit of {MAX_SELECTIONS}"
        )
    with _collector_paused():
        parts = []
        for n_i, a_i in zip(shape.n, shape.alpha):
            # Colex order is the lex order of the subsets of the vertices taken
            # from the last, reversed, with each subset read backwards.
            part = list(islice(vertices, n_i))[::-1]
            parts.append([subset[::-1] for subset in combinations(part, a_i)][::-1])
        # product varies its last argument fastest, so the parts go in reversed
        # and each selection is joined back in part order: part 1 fastest.
        return tuple(sum(reversed(sel), ()) for sel in product(*parts[::-1]))


@lru_cache(maxsize=256)
def _selection_ids(shape: Shape) -> tuple[tuple[int, ...], ...]:
    """The selection table of :func:`_selection_table` with vertex (i, j) as
    the int ``shape.offsets[i] + j``, its position in :meth:`Shape.vertices`: the
    representation the package computes on. Each id is one int object from a
    single ``range``, shared by every selection holding it (CPython shares
    only the ints up to 256 by itself)."""
    shape.vertices()  # raises CapacityError past the vertex limit
    return _selection_table(shape, iter(range(shape.offsets[-1])))


@lru_cache(maxsize=256)
def selection_vertices(shape: Shape) -> tuple[tuple[VertexId, ...], ...]:
    """All selections of ``shape`` as canonically ordered vertex tuples, by
    rank, in the order and with the digit facts of :func:`_selection_table`.
    Each part makes one :class:`VertexId` per vertex, and every selection
    holding a vertex holds that one object.

    Raises :class:`CapacityError` before allocating anything when the shape
    has more than :data:`MAX_SELECTIONS` selections or vertices.
    """
    return _selection_table(shape, shape.vertices())


def losing_score_map(M: Hypertournament) -> dict[VertexId, int]:
    """Loss count per vertex: arcs in which the vertex sits last."""
    vertices, lost = M.shape.vertices(), Counter(M._ids)
    for i in lost:
        if i is None:
            raise StructuralError(f"no arc stored for selection {M._ids.index(None)}")
        if type(i) is not int:
            raise StructuralError(f"arc loses at unknown vertex {i}")
    return dict(zip(vertices, map(lost.get, range(M.shape.offsets[-1]), repeat(0))))


def score_map(M: Hypertournament) -> dict[VertexId, int]:
    """Score per vertex: arcs containing it in which it is not last."""
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


def losing_scores(M: Hypertournament) -> ScoreLists:
    """Per-part sorted losing score lists of a structurally valid M."""
    return ScoreLists.from_map("losing", M.shape, losing_score_map(M))


def scores(M: Hypertournament) -> ScoreLists:
    """Per-part sorted score lists of a structurally valid M."""
    return ScoreLists.from_map("score", M.shape, score_map(M))


@dataclass(frozen=True)
class Violation:
    """One structural defect, anchored at a selection rank where applicable."""

    selection_rank: int | None
    kind: str
    detail: str


def validate(M: Hypertournament) -> list[Violation]:
    """Structural report for M; empty exactly when M is well formed.

    Checks one arc per selection rank, per-arc distinctness and arity, and
    agreement between each arc's vertex set and its selection. Violations are
    data, not failures. One test on ids accepts a well-formed rank, and only
    a rank that fails it is diagnosed, with the vertex table built then: a
    loser lies in its selection, or a kept order permutes its selection.
    """
    expected, ids, stored = _selection_ids(M.shape), M._ids, len(M._ids)
    if M._orders is None:
        ranks = compress(count(), map(not_, map(contains, expected, ids)))
        bad = [(r, i if (i := ids[r]) is None else (*expected[r], i)) for r in ranks]
    else:
        ranks = enumerate(zip(expected, M._orders))
        bad = [(r, o) for r, (sel, o) in ranks
               if o is None or len(o) != len(sel) or not set(o).issuperset(sel)]
    bad += [(r, None) for r in range(stored, len(expected))]
    verts = tuple(M.shape.vertices()) if bad else ()
    out = [_diagnose(M.shape, verts, r, order) for r, order in bad]
    for r in range(len(expected), stored):
        out.append(Violation(r, "extra-arc", "arc beyond the selection table"))
    return out


def _diagnose(shape: Shape, verts: tuple, rank: int, order: tuple | None) -> Violation:
    """The first defect of an id order that fails validate's test; id x reads as verts[x]."""
    if order is None:
        return Violation(rank, "missing-arc", f"no arc stored for selection {rank}")
    named = tuple([verts[x] if type(x) is int else x for x in order])
    if len(set(order)) != len(order):
        return Violation(rank, "duplicate-vertex", f"arc repeats a vertex: {named}")
    bad = [x for x in order if type(x) is not int]
    if bad:
        return Violation(rank, "bad-vertex", f"vertices outside the shape: {bad}")
    arity = Counter(v[0] for v in named)
    if any(arity.get(p, 0) != shape.alpha[p] for p in range(shape.k)):
        got = [arity.get(p, 0) for p in range(shape.k)]
        return Violation(rank, "arity-mismatch", f"per-part counts {got} != {list(shape.alpha)}")
    return Violation(rank, "selection-mismatch", f"arc vertices do not match selection {rank}")

