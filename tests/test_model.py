import gc
import math
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperscores import (
    Arc,
    CapacityError,
    Hypertournament,
    ScoreLists,
    Shape,
    StructuralError,
    VertexId,
    Violation,
    binom,
    check_losing_lists,
    losing_score_map,
    losing_scores,
    random_hypertournament,
    realize_flow,
    realize_inductive,
    score_map,
    scores,
    selection_vertices,
    validate,
)
from hyperscores.model import MAX_SELECTIONS, _selection_ids, _selection_table

V = VertexId


def two_by_two():
    return Shape((2, 2), (1, 1))


def example_m():
    """(2,2)/(1,1) with losing lists ([0,2],[1,1]).

    Selection ranks: 0 -> {u11,u21}, 1 -> {u12,u21}, 2 -> {u11,u22},
    3 -> {u12,u22}; u12 loses both its arcs, u21 and u22 lose one each.
    """
    shape = two_by_two()
    arcs = (
        Arc((V(0, 0), V(1, 0))),  # loser u21
        Arc((V(1, 0), V(0, 1))),  # loser u12
        Arc((V(0, 0), V(1, 1))),  # loser u22
        Arc((V(1, 1), V(0, 1))),  # loser u12
    )
    return Hypertournament(shape, arcs)


class TestShape:
    def test_basic(self):
        shape = Shape((3, 2), (2, 1))
        assert shape.k == 2
        assert shape.total_arcs() == 6
        assert list(shape.vertices())[:3] == [V(0, 0), V(0, 1), V(0, 2)]

    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            Shape((2, 2), (1, 0))

    def test_rejects_arity_above_size(self):
        with pytest.raises(ValueError):
            Shape((2,), (3,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Shape((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Shape((2, 2), (1,))

    def test_magnitude_guard(self):
        with pytest.raises(CapacityError):
            Shape((300, 300), (150, 150))

    @pytest.mark.parametrize(
        "n, alpha, field",
        [
            ((2.7, 2), (1, 1), "n[0]"),
            ((2, 2), (1.2, 1), "alpha[0]"),
            ((2, "3"), (1, 1), "n[1]"),
            ((2, 2), (1, math.nan), "alpha[1]"),
            ((math.inf, 2), (1, 1), "n[0]"),
            ((2, 2), (-math.inf, 1), "alpha[0]"),
            ((True, 2), (True, 1), "n[0]"),
            ((2, 2), (1, False), "alpha[1]"),
        ],
    )
    def test_rejects_a_non_integral_value(self, n, alpha, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            Shape(n, alpha)

    def test_accepts_integral_floats(self):
        # Any non-bool value equal to an int passes, not only floats.
        shape = Shape((3.0, Fraction(4, 2)), (Decimal("2"), 1.0))
        assert shape.n == (3, 2) and shape.alpha == (2, 1)
        assert all(type(x) is int for x in shape.n + shape.alpha)

    def test_vertex_count_guard(self):
        # One selection but 10^6 + 1 vertices: refused before a vertex is built.
        shape = Shape((10**6, 1), (10**6, 1))
        assert shape.total_arcs() == 1
        with pytest.raises(CapacityError, match="1000001 vertices exceed"):
            shape.vertices()
        with pytest.raises(CapacityError, match="1000001 vertices exceed"):
            selection_vertices(shape)
        with pytest.raises(CapacityError, match="1000001 vertices exceed"):
            _selection_ids(shape)
        assert next(Shape((10**6,), (10**6,)).vertices()) == V(0, 0)


class TestBinom:
    def test_empty_subset(self):
        assert binom(5, 0) == 1

    def test_oversized_cardinality_is_zero(self):
        assert binom(3, 5) == 0

    def test_small_value(self):
        assert binom(4, 2) == 6

    def test_negative_k_is_zero(self):
        assert binom(7, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    def test_pascal_recurrence_exhaustive(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_capacity_guard_exact_path(self):
        # C(200, 100) ~ 2**196 sits above the 2**127 limit but is
        # small enough that the exact comparison branch fires.
        with pytest.raises(CapacityError):
            binom(200, 100)

    def test_capacity_guard_fast_reject(self):
        with pytest.raises(CapacityError):
            binom(10**6, 500)

    def test_capacity_guard_on_the_product(self):
        # C(100, 20) ~ 2**69 passes alone; the selection count ~ 2**138 does not.
        assert binom(100, 20) < 2**127
        with pytest.raises(CapacityError):
            Shape((100, 100), (20, 20))


def test_fractional_factor_identity():
    # alpha/n * C(n, alpha) is the integer C(n-1, alpha-1), exhaustively.
    for n in range(1, 31):
        for a in range(1, n + 1):
            assert a * binom(n, a) % n == 0
            assert a * binom(n, a) // n == binom(n - 1, a - 1)


class TestScoreLists:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ScoreLists("losing", ((2, 1),))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreLists("losing", ((-1, 0),))

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ScoreLists("loss", ((0,),))

    @pytest.mark.parametrize(
        "lists, field",
        [
            (((0.9, 2.5), (1, 1)), "lists[0][0]"),
            (((0, 2), (1, 1.5)), "lists[1][1]"),
            ((("0", "2"), (1, 1)), "lists[0][0]"),
            (((0, math.nan), (1, 1)), "lists[0][1]"),
            (((0, math.inf), (1, 1)), "lists[0][1]"),
            (((-math.inf, 2), (1, 1)), "lists[0][0]"),
            (((False, 2), (True, True)), "lists[0][0]"),
            (((0, 2), (1, True)), "lists[1][1]"),
        ],
    )
    def test_rejects_a_non_integral_entry(self, lists, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            ScoreLists("losing", lists)

    def test_accepts_integral_floats(self):
        sl = ScoreLists("losing", ((0.0, 2.0), (Fraction(2, 2), Decimal("1"))))
        assert sl.lists == ((0, 2), (1, 1))
        assert all(type(x) is int for lst in sl.lists for x in lst)

    def test_non_integral_lists_reach_no_realizer_or_check(self):
        shape = two_by_two()
        for fn in (check_losing_lists, realize_inductive, realize_flow):
            with pytest.raises(ValueError, match=re.escape("lists[0][0]")):
                fn(shape, [[0.9, 2.5], [1, 1]])
        with pytest.raises(ValueError, match=re.escape("lists[0][0]")):
            check_losing_lists(shape, [["0", "2"], ["1", "1"]])

    def test_from_map_sorts(self):
        shape = two_by_two()
        sl = ScoreLists.from_map("losing", shape, {V(0, 0): 2, V(0, 1): 0, V(1, 0): 1, V(1, 1): 1})
        assert sl.lists == ((0, 2), (1, 1))
        assert sl.total() == 4


def _colex_unrank(rank, universe_size, cardinality):
    """Subset of {0..universe_size-1} with the given colexicographic rank."""
    out = [0] * cardinality
    c = universe_size
    for j in range(cardinality, 0, -1):
        # Largest c with C(c, j) <= rank; elements strictly decrease as j does.
        c -= 1
        while math.comb(c, j) > rank:
            c -= 1
        out[j - 1] = c
        rank -= math.comb(c, j)
    return tuple(out)


class TestSelectionTable:
    @pytest.mark.parametrize(
        "shape", [Shape((3, 2), (2, 1)), Shape((2, 2, 2), (1, 1, 1)), Shape((5,), (3,))],
        ids=str,
    )
    def test_matches_arithmetic_unranking(self, shape):
        # The cached product table and a mixed-radix arithmetic unranking
        # (part 1 the fastest digit, colex within a part) are independent
        # paths to the same indexing.
        table = selection_vertices(shape)
        assert len(table) == shape.total_arcs()
        radices = [math.comb(n_i, a_i) for n_i, a_i in zip(shape.n, shape.alpha)]
        for rank, sel in enumerate(table):
            expected = []
            r = rank
            for part, (n_i, a_i) in enumerate(zip(shape.n, shape.alpha)):
                radix = radices[part]
                expected.extend(V(part, e) for e in _colex_unrank(r % radix, n_i, a_i))
                r //= radix
            assert sel == tuple(expected)
        # Part i's digit steps by the product of the radices below it.
        assert shape.strides == tuple(math.prod(radices[:part]) for part in range(shape.k))

    def test_matches_colex_product_reference(self):
        """Every shape with k <= 3, n_i <= 4 and 1 <= alpha_i <= n_i: the
        cached table lists the product of the parts' subsets with part 1 as
        the fastest digit and each part's subsets in colexicographic order."""
        parts = [(n_i, a_i) for n_i in range(1, 5) for a_i in range(1, n_i + 1)]
        for k in range(1, 4):
            for shape_parts in product(parts, repeat=k):
                shape = Shape(*zip(*shape_parts))
                reference = sorted(
                    product(*(combinations(range(n_i), a_i) for n_i, a_i in shape_parts)),
                    key=lambda sel: [subset[::-1] for subset in reversed(sel)],
                )
                expected = tuple(
                    tuple(V(part, e) for part, subset in enumerate(sel) for e in subset)
                    for sel in reference
                )
                assert selection_vertices(shape) == expected

    def test_selections_without_a_last_vertex_are_the_smaller_table(self):
        # The inductive realizer walks the smaller shape's witness in rank
        # order alongside the selections that avoid the removed vertex.
        sizes = [
            (2,), (3,), (5,), (6,), (2, 2), (3, 2), (2, 3), (4, 3),
            (2, 2, 2), (3, 2, 2), (2, 2, 2, 2),
        ]
        for n in sizes:
            for alpha in product(*(range(1, n_i + 1) for n_i in n)):
                shape = Shape(n, alpha)
                for a in range(shape.k):
                    if n[a] == alpha[a]:
                        continue
                    sub_shape = Shape(n[:a] + (n[a] - 1,) + n[a + 1 :], alpha)
                    removed = V(a, n[a] - 1)
                    avoiding = [s for s in selection_vertices(shape) if removed not in s]
                    assert avoiding == list(selection_vertices(sub_shape))

    @pytest.mark.parametrize(
        "shape",
        [
            Shape((7,), (3,)),
            Shape((3, 2), (2, 1)),
            Shape((4, 3, 2), (2, 1, 1)),
            Shape((3, 2, 2, 3), (1, 2, 1, 2)),
            # Ids past 256, which CPython does not share by itself.
            Shape((300, 3), (1, 2)),
        ],
        ids=str,
    )
    def test_one_object_per_vertex(self, shape):
        # Every selection holding a vertex holds the same VertexId object, and
        # the same int in the table of ids, so each table's size is its
        # tuples, not T * m vertex objects.
        for table in (selection_vertices(shape), _selection_ids(shape)):
            assert len({id(v) for sel in table for v in sel}) == sum(shape.n)

    def test_id_table_is_the_vertex_table(self):
        """On every shape with k <= 3 and n_i <= 5, the table of vertex ids,
        each id read as its vertex in Shape.vertices order, is the table of
        VertexIds."""
        sizes = [(n_i, a_i) for n_i in range(1, 6) for a_i in range(1, n_i + 1)]
        shapes = 0
        for k in (1, 2, 3):
            for parts in product(sizes, repeat=k):
                shape = Shape(*map(tuple, zip(*parts)))
                verts = tuple(shape.vertices())
                table = tuple(tuple(verts[x] for x in sel) for sel in _selection_ids(shape))
                assert table == selection_vertices(shape), shape
                shapes += 1
        assert shapes == 3615

    def test_table_cap(self):
        from hyperscores.model import MAX_SELECTIONS

        shape = Shape((MAX_SELECTIONS + 1,), (1,))
        with pytest.raises(CapacityError):
            selection_vertices(shape)
        with pytest.raises(CapacityError):
            _selection_ids(shape)

    def test_table_is_built_with_the_collector_paused(self):
        """The table is built with the cyclic collector off, which is on
        again afterwards, also when the build raises."""
        seen = []

        def vertices(stop):
            for v in range(7):
                seen.append(gc.isenabled())
                if v == stop:
                    raise CapacityError("stopped")
                yield v

        assert gc.isenabled()
        assert len(_selection_table(Shape((4, 3), (2, 1)), vertices(None))) == 18
        with pytest.raises(CapacityError, match="stopped"):
            _selection_table(Shape((4, 3), (2, 1)), vertices(5))
        assert seen == [False] * 13 and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize("table", [_selection_ids, selection_vertices], ids=lambda f: f.__name__)
    def test_table_leaves_the_collector_as_found(self, table, enabled):
        # Built (past the cache) and refused at either cap.
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert len(table.__wrapped__(Shape((4, 3), (2, 1)))) == 18
            assert gc.isenabled() is enabled
            for shape in (Shape((MAX_SELECTIONS + 1,), (1,)), Shape((10**6, 1), (10**6, 1))):
                with pytest.raises(CapacityError):
                    table.__wrapped__(shape)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    def test_constructor_over_the_cap(self):
        # Deciding whether given arcs are canonical reads the table, so the
        # constructor raises where from_losers, which keeps losers only, does not.
        from hyperscores.model import MAX_SELECTIONS

        shape = Shape((MAX_SELECTIONS + 1,), (1,))
        for arcs in ([], [Arc((V(0, 0),))], [[V(0, 0)]]):
            with pytest.raises(CapacityError):
                Hypertournament(shape, arcs)
        assert Hypertournament.from_losers(shape, [V(0, 0)]).losers == (V(0, 0),)


@st.composite
def loser_sequences(draw):
    """A small shape and one loser per selection rank (some past the last),
    each drawn from the whole shape and one outside it, so that losers
    outside their selection occur."""
    k = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    alpha = [draw(st.integers(1, n_i)) for n_i in n]
    shape = Shape(tuple(n), tuple(alpha))
    choices = st.sampled_from([*shape.vertices(), V(k, 0)])
    size = shape.total_arcs()
    return shape, draw(st.lists(choices, min_size=size, max_size=size + 2))


@settings(max_examples=200, deadline=None)
@given(case=loser_sequences())
def test_from_losers_matches_filtering_reference(case):
    """Slicing each selection at its loser builds the arcs that filtering the
    loser out of it did, also for a loser outside the selection."""
    shape, losers = case
    expected = tuple(
        Arc(tuple(v for v in sel if v != loser) + (loser,))
        for sel, loser in zip(selection_vertices(shape), losers)
    )
    assert Hypertournament.from_losers(shape, losers).arcs == expected


_COORDINATES = (
    st.integers(-1, 4) | st.integers(-1, 4).map(float) | st.booleans()
    | st.sampled_from([0.5, float("nan"), float("inf"), "1"])
)
_LOOSE_VERTICES = (
    st.tuples(_COORDINATES, _COORDINATES).flatmap(
        lambda p: st.sampled_from([V(*p), p, list(p)]))
    | st.sampled_from([None, "x", "1", 3, 2.0, float("nan"), True, (1, 2, 3), [0],
                       [[0], [0]], ([0], [0]), {"p": 1}, {"s"}, [{"p": 1}, {"s"}],
                       {0: "a", 1: "b"}, {0, 1}])
)


@st.composite
def loose_vertex_sequences(draw):
    """A small shape and a sequence of anything a caller may pass as a
    vertex: pairs of ints, floats, bools and strings as VertexIds, tuples
    and lists, in the shape or not, None, and entries that are no pair."""
    k = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    shape = Shape(tuple(n), tuple(draw(st.integers(1, n_i)) for n_i in n))
    return shape, draw(st.lists(_LOOSE_VERTICES, max_size=40))


def _kept(shape, v):
    """What a model keeps for v, or StructuralError when v is no vertex: None;
    a tuple or list of two ints or integral floats (no bool, NaN or infinity)
    as its index in Shape.vertices() when the shape has it, else as itself
    when a VertexId and as its tuple when not."""
    if v is None:
        return None
    if isinstance(v, (tuple, list)) and len(v) == 2 and all(
        type(x) is int or type(x) is float and x.is_integer() for x in v
    ):
        vertices = tuple(shape.vertices())
        pair = tuple(map(int, v))
        if pair in vertices:
            return vertices.index(pair)
        return v if isinstance(v, V) else tuple(v)
    return StructuralError


@settings(max_examples=300, deadline=None)
@given(case=loose_vertex_sequences(), as_iterator=st.booleans())
def test_only_none_or_a_pair_of_integers_is_a_vertex(case, as_iterator):
    """Both constructors read each entry, as a loser or as an arc of that one
    vertex, as _kept does: the first entry that is no vertex raises
    StructuralError naming it. Over the entries that are vertices the model
    hashes, and validate reports each pair outside the shape at its rank as
    bad-vertex, and a None loser as missing-arc."""
    shape, entries = case
    T = shape.total_arcs()
    kept = [_kept(shape, v) for v in entries]
    if StructuralError in kept:
        named = re.escape(repr(entries[kept.index(StructuralError)]))
        with pytest.raises(StructuralError, match=named):
            Hypertournament.from_losers(shape, iter(entries) if as_iterator else entries)
        with pytest.raises(StructuralError, match=named):
            Hypertournament(shape, ([v] for v in entries))
    entries = [v for v, i in zip(entries, kept) if i is not StructuralError]
    kept = [i for i in kept if i is not StructuralError]
    by_losers = Hypertournament.from_losers(shape, iter(entries) if as_iterator else entries)
    by_arcs = Hypertournament(shape, ([v] for v in entries))
    assert list(by_losers._ids) == kept[:T] and list(by_arcs._ids) == kept
    for M, none_kind in ((by_losers, "missing-arc"), (by_arcs, "bad-vertex")):
        hash(M)
        kinds = {v.selection_rank: v.kind for v in validate(M)}
        for r, i in enumerate(M._ids[:T]):
            if type(i) is not int:
                assert kinds[r] == (none_kind if i is None else "bad-vertex")


def test_an_arc_that_is_no_sequence_names_its_rank():
    """An arc that is not None, an Arc or a sequence raises StructuralError
    naming its rank, and a string arc raises at its first character, which
    is no pair."""
    shape = two_by_two()
    for arcs, named in (([1], "arc 0 "), ([[(0, 0), (1, 0)], 5], "arc 1 "), (["ab"], "'a'")):
        with pytest.raises(StructuralError, match=named):
            Hypertournament(shape, arcs)


def _arcs_of_losers(shape, losers):
    """The explicit arcs that ``from_losers`` built before it kept only the
    losers: selection r with losers[r] moved last, appended to all of it when
    outside, None for a None loser; entries past the last selection dropped."""
    arcs = []
    for sel, loser in zip(selection_vertices(shape), losers):
        if loser is None:
            arcs.append(None)
            continue
        try:
            i = sel.index(loser)
        except ValueError:
            i = len(sel)
        arcs.append(Arc(sel[:i] + sel[i + 1 :] + (loser,)))
    return tuple(arcs)


@st.composite
def corrupted_loser_arrays(draw):
    """A shape with k <= 4 and two loser arrays on it. The first starts as one
    loser per selection and takes up to three defects: cut short (missing
    arcs), extended past the last selection (entries dropped), a loser
    swapped for another vertex of the shape (often outside its selection), or
    for a vertex outside the shape. The second is the first, or the first
    with one more defect."""
    k = draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    alpha = [draw(st.integers(1, n_i)) for n_i in n]
    shape = Shape(tuple(n), tuple(alpha))
    vertices = list(shape.vertices())
    outside = st.builds(V, st.integers(-1, k), st.integers(-1, 3)).filter(
        lambda v: v not in vertices
    )

    def corrupt(losers, defect):
        if defect == "short":
            del losers[len(losers) - draw(st.integers(1, 3)) :]
        elif defect == "long":
            losers += draw(st.lists(st.sampled_from(vertices) | outside, min_size=1, max_size=3))
        elif losers:
            rank = draw(st.integers(0, len(losers) - 1))
            losers[rank] = draw(st.sampled_from(vertices) if defect == "swap" else outside)

    defects = st.sampled_from(["short", "long", "swap", "outside"])
    first = [draw(st.sampled_from(sel)) for sel in selection_vertices(shape)]
    for defect in draw(st.lists(defects, max_size=3)):
        corrupt(first, defect)
    second = list(first)
    if draw(st.booleans()):
        corrupt(second, draw(defects))
    return shape, first, second


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _reference_losses(shape, arcs):
    """Losses per vertex counted arc by arc, as the outcome of the count."""
    counts = {v: 0 for v in shape.vertices()}
    for arc in arcs:
        if arc.loser not in counts:
            return StructuralError, f"arc loses at unknown vertex {arc.loser}"
        counts[arc.loser] += 1
    return counts


def _reference_eq(M, N):
    """Equality as it was before the constructor chose what to keep: equal
    shape, losers and arcs."""
    return M.shape == N.shape and M.losers == N.losers and M.arcs == N.arcs


_EDITS = st.lists(st.tuples(st.sampled_from(["reverse", "none", "extra"]), st.integers(0, 99)))


@settings(max_examples=300, deadline=None)
@given(case=corrupted_loser_arrays(), edits=_EDITS)
def test_loser_backed_model_agrees_with_explicit_arcs(case, edits):
    """A hypertournament kept as one loser per rank validates, counts its
    losses, has as many arcs and compares equal exactly as the explicit arcs
    of the same losers do. Given arcs, also edited (an arc reversed, missing
    or repeated past the end), are kept as their losers alone exactly when
    there are at most T of them and each is its selection with its loser
    moved last; Arc objects and vertex lists give equal values, and equality
    agrees with comparing shape, losers and arcs."""
    shape, first, second = case
    arrays = (first, second)
    by_losers = [Hypertournament.from_losers(shape, losers) for losers in arrays]
    by_arcs = [Hypertournament(shape, _arcs_of_losers(shape, losers)) for losers in arrays]
    for M, N in zip(by_losers, by_arcs):
        assert validate(M) == validate(N) == reference_validate(N)
        losses = _reference_losses(shape, N.arcs)
        assert _outcome(losing_score_map, M) == _outcome(losing_score_map, N) == losses
        assert len(M.arcs) == len(N.arcs) == len(M.losers) == len(N.losers)
        assert list(M.orders()) == list(N.orders()) == [arc.order for arc in N.arcs]
        assert M == N and N == M and hash(M) == hash(N)
    same = by_arcs[0] == by_arcs[1]
    assert (by_losers[0] == by_losers[1]) == same
    assert (by_losers[0] == by_arcs[1]) == same == (by_arcs[0] == by_losers[1])
    assert by_losers[0].arcs == _arcs_of_losers(shape, first)
    given = []
    for losers in arrays:
        arcs = list(_arcs_of_losers(shape, losers))
        for edit, at in edits:
            if edit == "extra" or not arcs:
                arcs.append(arcs[at % len(arcs)] if arcs else None)
            elif arcs[at % len(arcs)] is not None:
                order = arcs[at % len(arcs)].order
                arcs[at % len(arcs)] = None if edit == "none" else Arc(order[::-1])
        N = Hypertournament(shape, arcs)
        assert N == Hypertournament(shape, [a and list(a.order) for a in arcs])
        assert N.arcs == tuple(arcs)
        canonical = len(arcs) <= shape.total_arcs() and N.arcs == _arcs_of_losers(shape, N.losers)
        assert (N._orders is None) == canonical
        assert (N == Hypertournament.from_losers(shape, N.losers)) == canonical
        given.append(N)
    for M in (*by_losers, *by_arcs, *given):
        for N in (*by_losers, *by_arcs, *given):
            assert (M == N) == _reference_eq(M, N)


class TestArcsThrough:
    def test_counted_against_enumeration(self):
        # Independent count over the 4 selections of (2,2)/(1,1).
        shape = two_by_two()
        fixed = V(0, 0)
        counted = sum(1 for sel in selection_vertices(shape) if fixed in sel)
        assert counted == 2
        assert shape.through[0] == 2

    def test_single_selection_shape(self):
        shape = Shape((3, 2), (3, 2))
        assert shape.through == (1, 1)

    def test_wider_shape_counted(self):
        shape = Shape((3, 2), (2, 1))
        fixed = V(0, 0)
        counted = sum(1 for sel in selection_vertices(shape) if fixed in sel)
        assert counted == 4
        assert shape.through[0] == 4


_DESK_PARTS = [(n_i, a_i) for n_i in range(1, 7) for a_i in range(1, n_i + 1)]


class TestShapeConstants:
    def test_constants_against_direct_products(self):
        """Every shape with k <= 4, n_i <= 6 and 1 <= alpha_i <= n_i."""
        row = {(n, a): tuple(math.comb(p, a) for p in range(n + 1)) for n, a in _DESK_PARTS}
        row_from_top = {(n, a): tuple(math.comb(n - p, a) for p in range(n + 1)) for n, a in _DESK_PARTS}
        selections = {(n, a): binom(n, a) for n, a in _DESK_PARTS}
        through_part = {(n, a): binom(n - 1, a - 1) for n, a in _DESK_PARTS}
        for k in range(1, 5):
            for parts in product(_DESK_PARTS, repeat=k):
                shape = Shape(*zip(*parts))
                through = shape.through
                assert type(through) is tuple and type(shape.binomial_rows) is tuple
                assert shape.total_arcs() == math.prod(math.comb(n_i, a_i) for n_i, a_i in parts)
                offsets = shape.offsets
                assert offsets == (0, *accumulate(shape.n))
                assert [V(i, j - offsets[i]) for i in range(k)
                        for j in range(offsets[i], offsets[i + 1])] == list(shape.vertices())
                for i, (n_i, a_i) in enumerate(parts):
                    direct = through_part[n_i, a_i]
                    for t, part in enumerate(parts):
                        if t != i:
                            direct *= selections[part]
                    assert through[i] == direct
                    cached = shape.binomial_rows[i]
                    assert type(cached) is tuple
                    assert cached == row[n_i, a_i] and cached[::-1] == row_from_top[n_i, a_i]

    def test_constants_leave_equality_and_hash_alone(self):
        fresh, used = Shape((3, 2), (2, 1)), Shape((3, 2), (2, 1))
        assert used.through == (4, 3) and used.score_total == 12
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == "Shape(n=(3, 2), alpha=(2, 1))"


class TestScores:
    def test_scores_of_a_loser_backed_value_build_no_arc(self):
        """score_map reads orders(), so no Arc is built or cached on M."""
        shape = Shape((4, 3), (2, 1))
        M = random_hypertournament(shape, seed=5)
        reference = Counter(v for arc in Hypertournament.from_losers(shape, M.losers).arcs
                            for v in arc.order[:-1])
        with mock.patch("hyperscores.model.Arc", side_effect=AssertionError("an arc was built")):
            by_vertex = score_map(M)
            lists = scores(M)
        assert by_vertex == {v: reference[v] for v in shape.vertices()}
        assert lists == ScoreLists.from_map("score", shape, reference)
        assert "arcs" not in vars(M)

    def test_missing_arc(self):
        m = example_m()
        short = Hypertournament(m.shape, (None, *m.arcs[1:]))
        assert list(short.orders()) == [None, *(arc.order for arc in m.arcs[1:])]
        with pytest.raises(StructuralError, match="no arc stored for selection 0"):
            score_map(short)
        with pytest.raises(StructuralError):
            losing_score_map(short)

    def test_losing_example(self):
        assert losing_scores(example_m()).lists == ((0, 2), (1, 1))

    def test_score_example(self):
        assert scores(example_m()).lists == ((0, 2), (1, 1))

    def test_single_arc_shape(self):
        shape = Shape((2, 2), (2, 2))
        m = Hypertournament.from_losers(shape, [V(1, 1)])
        assert losing_scores(m).lists == ((0, 0), (0, 1))
        assert scores(m).lists == ((1, 1), (0, 1))

    def test_per_vertex_identity(self):
        m = random_hypertournament(Shape((4, 3), (2, 1)), seed=5)
        lm, sm = losing_score_map(m), score_map(m)
        for v in m.shape.vertices():
            assert sm[v] + lm[v] == m.shape.through[v.part]

    def test_totals(self):
        m = random_hypertournament(Shape((3, 3), (2, 2)), seed=9)
        total = m.shape.total_arcs()
        assert losing_scores(m).total() == total
        assert scores(m).total() == (sum(m.shape.alpha) - 1) * total


def reference_validate(M):
    """validate as it was before one sorted comparison accepted an arc: every
    check on every arc."""
    shape = M.shape
    expected = selection_vertices(shape)
    out = []
    for rank, sel in enumerate(expected):
        if rank >= len(M.arcs) or M.arcs[rank] is None:
            out.append(Violation(rank, "missing-arc", f"no arc stored for selection {rank}"))
            continue
        order = M.arcs[rank].order
        if len(set(order)) != len(order):
            out.append(Violation(rank, "duplicate-vertex", f"arc repeats a vertex: {order}"))
            continue
        bad = [
            v
            for v in order
            if not (0 <= v.part < shape.k and 0 <= v.index < shape.n[v.part])
        ]
        if bad:
            out.append(Violation(rank, "bad-vertex", f"vertices outside the shape: {bad}"))
            continue
        arity = Counter(v.part for v in order)
        if any(arity.get(p, 0) != shape.alpha[p] for p in range(shape.k)):
            got = [arity.get(p, 0) for p in range(shape.k)]
            out.append(
                Violation(rank, "arity-mismatch", f"per-part counts {got} != {list(shape.alpha)}")
            )
            continue
        if tuple(sorted(order)) != sel:
            out.append(
                Violation(rank, "selection-mismatch", f"arc vertices do not match selection {rank}")
            )
    for rank in range(len(expected), len(M.arcs)):
        out.append(Violation(rank, "extra-arc", "arc beyond the selection table"))
    return out


DEFECTS = ["swap", "permute", "duplicate", "outside", "extra-vertex", "drop-vertex", "none"]


@st.composite
def defective_witnesses(draw):
    """A random hypertournament of a small shape with a few defects: a vertex
    swapped for any other (in or out of the selection), a reordered arc, a
    repeated vertex, an out-of-shape vertex, one vertex too many or too few,
    an arc that is None, and arcs missing from the end or added past it."""
    k = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    alpha = [draw(st.integers(1, n_i)) for n_i in n]
    shape = Shape(tuple(n), tuple(alpha))
    mode = draw(st.sampled_from(["loser-only", "full-permutation"]))
    M = random_hypertournament(shape, draw(st.integers(0, 2**64 - 1)), mode)
    vertices = list(shape.vertices())
    arcs = list(M.arcs)
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=4)):
        rank = draw(st.integers(0, len(arcs) - 1))
        if arcs[rank] is None:
            continue
        order = list(arcs[rank].order)
        i = draw(st.integers(0, len(order) - 1)) if order else 0
        if defect == "none":
            arcs[rank] = None
            continue
        if defect == "swap" and order:
            order[i] = draw(st.sampled_from(vertices))
        elif defect == "permute":
            order = draw(st.permutations(order))
        elif defect == "duplicate" and order:
            order[i] = order[draw(st.integers(0, len(order) - 1))]
        elif defect == "outside" and order:
            order[i] = V(draw(st.integers(-1, k)), draw(st.integers(-1, 5)))
        elif defect == "extra-vertex":
            order.insert(i, draw(st.sampled_from(vertices)))
        elif defect == "drop-vertex" and order:
            del order[i]
        arcs[rank] = Arc(tuple(order))
    arcs = arcs[: len(arcs) - draw(st.integers(0, 2))]
    arcs += draw(st.lists(st.sampled_from(M.arcs), max_size=2))
    return Hypertournament(shape, tuple(arcs))


class TestValidate:
    def test_well_formed_is_empty(self):
        assert validate(example_m()) == []

    def test_vertex_in_wrong_slot(self):
        m = example_m()
        # Replace u21 with u22 in the rank-0 arc: distinct, right arities,
        # but no longer the rank-0 selection.
        bad = Hypertournament(m.shape, (Arc((V(0, 0), V(1, 1))),) + m.arcs[1:])
        report = validate(bad)
        assert len(report) == 1
        assert report[0].kind == "selection-mismatch"
        assert report[0].selection_rank == 0

    def test_missing_arc(self):
        m = example_m()
        short = Hypertournament(m.shape, m.arcs[:-1])
        report = validate(short)
        assert len(report) == 1
        assert report[0].kind == "missing-arc"
        assert report[0].selection_rank == 3

    def test_duplicate_vertex(self):
        m = example_m()
        bad = Hypertournament(m.shape, (Arc((V(0, 0), V(0, 0))),) + m.arcs[1:])
        assert [v.kind for v in validate(bad)] == ["duplicate-vertex"]

    def test_arity_mismatch(self):
        m = example_m()
        bad = Hypertournament(m.shape, (Arc((V(0, 0), V(0, 1))),) + m.arcs[1:])
        assert [v.kind for v in validate(bad)] == ["arity-mismatch"]

    def test_extra_arc(self):
        m = example_m()
        long = Hypertournament(m.shape, m.arcs + (m.arcs[0],))
        assert [v.kind for v in validate(long)] == ["extra-arc"]

    def test_bad_vertex(self):
        m = example_m()
        bad = Hypertournament(m.shape, (Arc((V(0, 0), V(1, 7))),) + m.arcs[1:])
        assert [v.kind for v in validate(bad)] == ["bad-vertex"]
        # Outside the shape as a plain tuple, a list (kept as its tuple), an
        # integral float or a VertexId, as a loser or as a vertex of an arc's
        # order, the pair is data that validate reports.
        for outside, kept in (((9, 9), (9, 9)), ([9, 9], (9, 9)), ((9.0, 9), (9.0, 9)),
                              (V(9, 9), V(9, 9))):
            for bad in (
                Hypertournament.from_losers(m.shape, [(0, 0), outside, (0, 1), (1, 1)]),
                Hypertournament(m.shape, (m.arcs[0], (outside, (1, 0)), *m.arcs[2:])),
            ):
                hash(bad)
                first = validate(bad)[0]
                assert (first.selection_rank, first.kind) == (1, "bad-vertex")
                assert first.detail == f"vertices outside the shape: {[kept]}"
            with pytest.raises(StructuralError, match=re.escape(f"unknown vertex {kept}")):
                losing_score_map(Hypertournament.from_losers(m.shape, [(0, 0), outside]))
        # Anything else is no vertex, and the model is not built.
        for other in ("x", 1, True, (True, 0), (0.5, 0), [[0], [0]], ([0], [0]), {"p": 1},
                      {"s"}, (0, 0, 0)):
            named = re.escape(repr(other))
            with pytest.raises(StructuralError, match=named):
                Hypertournament.from_losers(m.shape, [(0, 0), other, (0, 1), (1, 1)])
            with pytest.raises(StructuralError, match=named):
                Hypertournament(m.shape, (m.arcs[0], (other, (1, 0)), *m.arcs[2:]))

    def test_only_a_tuple_or_list_is_read_as_a_pair(self):
        """A dict or set whose two entries are ints is no vertex, though it
        unpacks into (0, 1): both constructors raise StructuralError naming
        it. A tuple, list or VertexId of (0, 1) is that vertex."""
        shape = Shape((2, 2), (1, 1))
        proper = Hypertournament.from_losers(shape, [(0, 0), (0, 1), (0, 1), (1, 1)])
        assert proper._ids == (0, 1, 1, 3)
        for pair in ({0: "a", 1: "b"}, {0, 1}):
            with pytest.raises(StructuralError, match=re.escape(repr(pair))):
                Hypertournament.from_losers(shape, [(0, 0), pair, (0, 1), (1, 1)])
            with pytest.raises(StructuralError, match=re.escape(repr(pair))):
                Hypertournament(shape, [[(0, 0), (1, 0)], [(1, 0), pair]])
        for pair in ((0, 1), [0, 1], V(0, 1), (0, 1.0)):
            assert Hypertournament.from_losers(shape, [(0, 0), pair, (0, 1), (1, 1)]) == proper

    def test_a_none_loser_is_a_missing_arc(self):
        """A None loser given to from_losers is the missing arc that a None
        arc is: no order at its rank, a missing-arc report, no scores, and
        an equal hypertournament."""
        m = example_m()
        by_losers = Hypertournament.from_losers(m.shape, (None, *m.losers[1:]))
        by_arcs = Hypertournament(m.shape, (None, *m.arcs[1:]))
        for M in (by_losers, by_arcs):
            assert list(M.orders()) == [None, *(arc.order for arc in m.arcs[1:])]
            assert M.arcs == (None, *m.arcs[1:])
            assert validate(M) == [Violation(0, "missing-arc", "no arc stored for selection 0")]
            for scores_of in (score_map, losing_score_map):
                with pytest.raises(StructuralError, match="no arc stored for selection 0"):
                    scores_of(M)
        assert by_losers == by_arcs and hash(by_losers) == hash(by_arcs)

    def test_a_kept_order_is_validated_on_ids(self):
        """A full-permutation draw keeps its orders as ids, and validate
        accepts them with no VertexId made; read as vertices, its orders and
        arcs equal those of the same arcs given back as Arc objects."""
        shape = Shape((10, 8), (3, 2))
        made = AssertionError("a VertexId was made")
        with mock.patch("hyperscores.model.VertexId", side_effect=made):
            M = random_hypertournament(shape, 5, "full-permutation")
            assert len(M._orders) == shape.total_arcs()
            assert all(type(x) is int for order in M._orders for x in order)
            assert validate(M) == []
        N = Hypertournament(shape, M.arcs)
        assert list(M.orders()) == list(N.orders()) and M.arcs == N.arcs

    @settings(max_examples=400, deadline=None)
    @given(M=defective_witnesses())
    def test_agrees_with_the_reference(self, M):
        assert validate(M) == reference_validate(M)


def test_equality_sees_the_order_of_given_arcs():
    """Equal losers do not make equal hypertournaments when the given arcs
    order their other vertices differently."""
    shape = Shape((2, 1), (2, 1))
    forward = Hypertournament(shape, (Arc((V(0, 0), V(0, 1), V(1, 0))),))
    backward = Hypertournament(shape, (Arc((V(0, 1), V(0, 0), V(1, 0))),))
    by_losers = Hypertournament.from_losers(shape, [V(1, 0)])
    assert forward.losers == backward.losers == by_losers.losers
    assert forward != backward and by_losers == forward and by_losers != backward
    assert hash(by_losers) == hash(forward)

