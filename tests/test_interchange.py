"""The interchange-chain repair against the loss mover it replaced, and the
witness bytes of both realizers."""

import hashlib
import json
from bisect import bisect_left, insort
from collections import Counter, deque
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperscores import (
    Hypertournament,
    InfeasibleError,
    Shape,
    VertexId,
    check_losing_lists,
    losing_scores,
    random_hypertournament,
    realize_flow,
    realize_inductive,
    selection_vertices,
    validate,
)
from hyperscores.cli import _hypertournament_from_doc, main
from hyperscores.realize import _repair
from reference import enumerate_assignments

FIXTURES = Path(__file__).parent / "fixtures"


class NoChainError(Exception):
    """No interchange chain moves a loss from a vertex over its target."""


def reference_move_loss(chains: SimpleNamespace, source: VertexId, is_target) -> VertexId:
    """The loss mover the phased repair replaced: one breadth-first search over
    lost arcs from ``source``, in rank order and each arc's vertices in
    selection order, to the first vertex passing ``is_target``, then one
    interchange per arc along the path it was reached by. Returns that vertex."""
    parent: dict[VertexId, tuple[VertexId, int] | None] = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for rank in chains.lost.get(u, ()):
            for w in chains.sels[rank]:
                if w in parent:  # the arc's loser u among them
                    continue
                parent[w] = (u, rank)
                if is_target(w):
                    v = w
                    while parent[v] is not None:
                        loser, rank = parent[v]
                        chains.losers[rank] = v
                        chains.lost[loser].remove(rank)
                        insort(chains.lost.setdefault(v, []), rank)
                        v = loser
                    return w
                queue.append(w)
    raise NoChainError(f"no chain of interchanges moves a loss away from {source}")


def reference_repair(chains: SimpleNamespace, need: dict) -> None:
    """One reference move per unit over target, vertex by vertex."""
    for v in need:
        while need[v] < 0:
            w = reference_move_loss(chains, v, lambda w: need[w] > 0)
            need[v] += 1
            need[w] -= 1


def reference_unit_repair(sels, losers, lost, need: dict, over: list) -> None:
    """The repair before its one-hop sweep moved units in bulk: the first phase
    runs the layered search at depth 1, so each unit it moves pays its own
    deletion, insertion and search."""
    swept = False
    while over := [v for v in over if need[v] < 0]:
        dist, layer, depth = dict.fromkeys(over, 0), over, 1
        while swept:
            layer = {w: depth for u in layer for r in lost.get(u, ())
                     for w in sels[r] if w not in dist}
            if not layer:
                raise NoChainError(f"no interchange chain moves a loss from {over[0]}")
            if any(need.get(w, 0) > 0 for w in layer):
                break
            dist.update(layer)
            depth += 1
        swept, cursor = True, {}
        for s in over:
            path = [(None, s)]
            while path and need[s] < 0:
                u = path[-1][1]
                d, ranks = dist[u] + 1, lost.get(u, ())
                rank = w = None
                for i in range(bisect_left(ranks, cursor.get(u, 0)), len(ranks)):
                    for w in sels[ranks[i]]:
                        if need.get(w, 0) > 0 if d == depth else dist.get(w) == d:
                            rank = ranks[i]
                            break
                    if rank is not None:
                        break
                if rank is None:
                    dist[u] = None
                    path.pop()
                    continue
                cursor[u] = rank
                path.append((rank, w))
                if d == depth:
                    for rank, w in path[1:]:
                        held = lost[losers[rank]]
                        del held[bisect_left(held, rank)]
                        losers[rank] = w
                        insort(lost.setdefault(w, []), rank)
                    need[s], need[w] = need[s] + 1, need[w] - 1
                    path = [(None, s)]


def over(need: dict) -> list:
    """The vertices over their targets, in ``need``'s order, as repair takes them."""
    return [v for v, x in need.items() if x < 0]


@st.composite
def small_shapes(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    alpha = [draw(st.integers(1, n_i)) for n_i in n]
    return Shape(tuple(n), tuple(alpha))


MODES = st.sampled_from(["loser-only", "full-permutation"])


def _chains(sels, losers) -> SimpleNamespace:
    """The repair's state on ``sels`` whose arc at rank r is lost by losers[r]:
    ``sels``, ``losers`` and ``lost``, each vertex's lost ranks ascending."""
    lost: dict = {}
    for rank, loser in enumerate(losers):
        lost.setdefault(loser, []).append(rank)
    return SimpleNamespace(sels=sels, losers=list(losers), lost=lost)


def repair(chains: SimpleNamespace, need: dict) -> None:
    """:func:`_repair` on ``chains``' state from every vertex over its target.
    The state goes in as the repair keeps it, each vertex as its id (its
    position in the vertex order, which sorting the table's vertices gives),
    ``lost`` and ``need`` as lists by id, and comes back into ``chains`` and
    ``need`` when the repair succeeds. Raises NoChainError when the
    repair returns the ids its failed layering reached."""
    verts = sorted({v for sel in chains.sels for v in sel})
    ids = {v: i for i, v in enumerate(verts)}
    losers = [ids[v] for v in chains.losers]
    lost = [list(chains.lost.get(v, ())) for v in verts]
    need_by_id = [need.get(v, 0) for v in verts]
    sels = [tuple(map(ids.__getitem__, sel)) for sel in chains.sels]
    if _repair(sels, losers, lost, need_by_id, [ids[v] for v in over(need)]) is not None:
        raise NoChainError("no interchange chain moves a loss")
    chains.losers[:] = [verts[i] for i in losers]
    chains.lost.clear()
    chains.lost.update(zip(verts, lost))
    need.update((v, need_by_id[ids[v]]) for v in need)


def _losses(shape, losers) -> dict:
    counts = dict.fromkeys(shape.vertices(), 0)
    counts.update(Counter(losers))
    return counts


def _moved(shape, lists, data, least: int):
    """``lists`` after ``least`` or more units move from the smallest positive
    entry of one part to the largest entry of a part: the total stays, and a
    prefix may break."""
    a = data.draw(st.sampled_from([i for i in range(shape.k) if lists[i][-1] > 0]))
    b = next(j for j, entry in enumerate(lists[a]) if entry > 0)
    c = data.draw(st.integers(0, shape.k - 1))
    units = data.draw(st.integers(least, lists[a][b]))
    work = [list(lst) for lst in lists]
    work[a][b] -= units
    work[c][-1] += units
    return tuple(tuple(sorted(lst)) for lst in work)


def _assert_exact(chains, sels):
    """Every loser lies in its selection, and ``lost`` is the rank-sorted index
    of the losers."""
    assert all(v in sel for v, sel in zip(chains.losers, sels))
    index: dict = {}
    for rank, v in enumerate(chains.losers):
        index.setdefault(v, []).append(rank)
    assert {v: ranks for v, ranks in chains.lost.items() if ranks} == index


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       modes=st.tuples(MODES, MODES))
def test_move_loss_matches_reference(shape, seeds, modes):
    """Started from the losers of one hypertournament, repair reaches the loss
    counts of another of the same shape, as the reference mover does, and
    leaves every need at zero and an exact loser index."""
    start, goal = (random_hypertournament(shape, s, m).losers for s, m in zip(seeds, modes))
    sels = selection_vertices(shape)
    targets, counts = _losses(shape, goal), _losses(shape, start)
    need = {v: targets[v] - counts[v] for v in targets}
    reference = _chains(sels, start)
    reference_repair(reference, dict(need))
    assert _losses(shape, reference.losers) == targets
    chains = _chains(sels, start)
    repair(chains, need)
    assert set(need.values()) <= {0}
    assert _losses(shape, chains.losers) == targets
    _assert_exact(chains, sels)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       mode=MODES, data=st.data())
def test_repair_fails_exactly_on_lists_the_check_rejects(shape, seeds, mode, data):
    """Lists with the right total, some with a broken prefix: from the losers
    of a random hypertournament, repair raises NoChainError exactly when
    the losing-list check rejects the lists, and so does the reference mover."""
    start = random_hypertournament(shape, seeds[0], mode).losers
    lists = losing_scores(random_hypertournament(shape, seeds[1], mode)).lists
    moved = _moved(shape, lists, data, 0)
    valid = check_losing_lists(shape, moved).valid
    sels, counts = selection_vertices(shape), _losses(shape, start)
    need = {v: moved[v.part][v.index] - counts[v] for v in counts}
    reference = _chains(sels, start)
    chains = _chains(sels, start)
    if valid:
        reference_repair(reference, dict(need))
        repair(chains, need)
        assert set(need.values()) <= {0}
        assert losing_scores(Hypertournament.from_losers(shape, chains.losers)).lists == moved
        _assert_exact(chains, sels)
    else:
        with pytest.raises(NoChainError):
            reference_repair(reference, dict(need))
        with pytest.raises(NoChainError):
            repair(chains, need)


def test_named_move_falls_back_to_a_chain():
    # (3,)/(2,): vertex 0 loses only {0, 1}, so no arc it loses holds vertex 2
    # and the loss travels 0 -> 1 -> 2 through {1, 2}, which 1 loses.
    a, b, c = (VertexId(0, j) for j in range(3))
    shape = Shape((3,), (2,))
    losers = [a, c, b]
    chains = _chains(selection_vertices(shape), losers)
    need = {a: -1, c: 1}
    repair(chains, need)
    assert chains.losers == [b, c, c]
    assert need == {a: 0, c: 0}
    reference = _chains(selection_vertices(shape), losers)
    assert reference_move_loss(reference, a, c.__eq__) == c
    assert reference.losers == chains.losers
    _assert_exact(chains, selection_vertices(shape))


def _assert_same_as_unit_repair(sels, losers, need) -> None:
    """:func:`_repair` and :func:`reference_unit_repair`, each from the same
    start, end with the same losers, lost ranks and needs, or both raise
    NoChainError."""
    chains, reference = _chains(sels, losers), _chains(sels, losers)
    reference_need = dict(need)
    try:
        reference_unit_repair(sels, reference.losers, reference.lost, reference_need,
                              over(reference_need))
    except NoChainError:
        with pytest.raises(NoChainError):
            repair(chains, need)
        return
    repair(chains, need)
    assert chains.losers == reference.losers
    assert ({v: r for v, r in chains.lost.items() if r}
            == {v: r for v, r in reference.lost.items() if r})
    assert need == reference_need


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       modes=st.tuples(MODES, MODES), moved=st.booleans(), data=st.data())
def test_bulk_sweep_matches_the_unit_repair(shape, seeds, modes, moved, data):
    """From the losers of one hypertournament towards the loss counts of
    another, or towards those lists after ``_moved`` (some infeasible), the
    repair moves the same units to the same losers as the unit-by-unit repair
    it replaced, and raises exactly when that one does."""
    start, goal = (random_hypertournament(shape, s, m).losers for s, m in zip(seeds, modes))
    sels, counts = selection_vertices(shape), _losses(shape, start)
    targets = _losses(shape, goal)
    if moved:
        lists = _moved(shape, losing_scores(Hypertournament.from_losers(shape, goal)).lists, data, 0)
        targets = {v: lists[v.part][v.index] for v in targets}
    _assert_same_as_unit_repair(sels, start, {v: targets[v] - counts[v] for v in targets})


def test_bulk_sweep_leaves_units_to_a_layered_phase():
    # (4,)/(2,), each arc lost by its lower vertex: 0, 1, 2 and 3 lose 3, 2, 1
    # and 0 arcs; the targets are 1, 1, 1 and 3. The sweep moves {0, 3} and
    # {1, 3} to 3, but no other arc 0 loses holds 3, so 0's last unit takes
    # the depth-2 chain 0 -> 2 -> 3 through {0, 2} and {2, 3}.
    sels, v = selection_vertices(Shape((4,), (2,))), [VertexId(0, j) for j in range(4)]
    losers, need = [v[0], v[0], v[1], v[0], v[1], v[2]], {v[0]: -2, v[1]: -1, v[2]: 0, v[3]: 3}
    _assert_same_as_unit_repair(sels, losers, dict(need))
    chains = _chains(sels, losers)
    repair(chains, need)
    assert chains.losers == [v[0], v[2], v[1], v[3], v[3], v[3]]
    # The named-move case: the sweep moves nothing and one chain of two moves it.
    a, b, c = v[:3]
    _assert_same_as_unit_repair(selection_vertices(Shape((3,), (2,))), [a, c, b], {a: -1, c: 1})


def _family_lists(shape, family, seed, mode):
    """Losing lists of a random or a transitive hypertournament (each selection
    lost by its vertex of least (index, part)), or balanced lists: T // V at
    every vertex and one more at the last T % V, regular where V divides T."""
    if family == "random":
        return losing_scores(random_hypertournament(shape, seed, mode)).lists
    if family == "transitive":
        losers = [min(sel, key=lambda v: (v.index, v.part)) for sel in selection_vertices(shape)]
        return losing_scores(Hypertournament.from_losers(shape, losers)).lists
    q, r = divmod(shape.total_arcs(), sum(shape.n))
    lists = [[q] * n_i for n_i in shape.n]
    for v in list(shape.vertices())[::-1][:r]:
        lists[v.part][v.index] += 1
    return tuple(tuple(lst) for lst in lists)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seed=st.integers(0, 2**32 - 1), mode=MODES, data=st.data(),
       family=st.sampled_from(["random", "transitive", "balanced"]))
def test_flow_agrees_with_check_near_achievable_lists(shape, seed, mode, data, family):
    """Flow realizes achievable lists and, after some units move from the
    smallest positive entry of one part to the largest entry of a part, is
    feasible exactly when the losing-list check accepts."""
    lists = _family_lists(shape, family, seed, mode)
    assert losing_scores(realize_flow(shape, lists)).lists == lists
    moved = _moved(shape, lists, data, 1)
    valid = check_losing_lists(shape, moved).valid
    try:
        M = realize_flow(shape, moved)
    except InfeasibleError:
        assert not valid
    else:
        assert valid
        assert losing_scores(M).lists == moved


# sha256 of `realize FIXTURE --method inductive --emit arcs` stdout, recorded
# before the interchange engine replaced the per-call loss mover. Re-recorded
# for inst_222_111.json when arcs came to be built from their losers: the same
# losers, but two arcs now list their non-losers in selection order.
FIXTURE_DIGESTS = {
    # Re-pinned: the phased repair picks other chains than the per-step undo did.
    "inst_222_111.json": "2f68f615c988f8005a51e51a0396422aa4e8901a91ff389dd78cf569e448cd88",
    "inst_2x2_11.json": "012f62e268123e6493ad2f9c01d808397f4edbee4174773732adbac14917a13f",
    "inst_2x2_11.txt": "012f62e268123e6493ad2f9c01d808397f4edbee4174773732adbac14917a13f",
    "inst_3x2_11.json": "c9b8f68354d8e25f741df6707994d0956907d25630602c37fc67dd3fbcccc0ce",
    # Re-pinned: the phased repair picks other chains than the per-step undo did.
    "inst_3x2_21.json": "5ccd885a3be61d9bf437cdf768fe57c7f137e32a0871e86daee1c79771c17193",
    "inst_k1_42.json": "8fa8a0158a493ae4bad8c507474ea650543e0bc3a4479f6ac4fc74860f639ca0",
    "inst_score_2x2.json": "188805530b14604df5c6223b677c92ea184df97de45a3b4558319efa43559f0e",
}


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_inductive_witness_bytes_of_fixtures(name, capsys):
    code = main(["realize", str(FIXTURES / name), "--method", "inductive", "--emit", "arcs"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_DIGESTS[name]


GOLDEN_SHAPES = [
    ((3, 3), (1, 1)),
    ((4, 3), (2, 1)),
    ((2, 2, 2), (1, 1, 1)),
    ((5,), (2,)),
    ((3, 3, 2), (2, 1, 1)),
    ((4, 4), (2, 2)),
    ((6,), (3,)),
    ((3, 2, 2, 2), (1, 1, 1, 1)),
    ((5, 4), (2, 2)),
    ((4, 3, 3), (2, 1, 1)),
]


def _golden_digest(realizer) -> str:
    digest = hashlib.sha256()
    for n, alpha in GOLDEN_SHAPES:
        shape = Shape(n, alpha)
        for seed in range(10):
            for mode in ("loser-only", "full-permutation"):
                lists = losing_scores(random_hypertournament(shape, seed, mode)).lists
                M = realizer(shape, lists)
                assert not validate(M) and losing_scores(M).lists == lists
                digest.update(repr([[tuple(v) for v in arc.order] for arc in M.arcs]).encode())
    return digest.hexdigest()


def test_inductive_witness_bytes_of_seeded_instances():
    """The lists of 200 seeded random hypertournaments realize to the same arcs
    as before the interchange engine, including non-loser order.

    Re-recorded when the engine came to keep one loser per rank: arcs list
    their non-losers in selection order, and the chain search visits each
    arc's vertices in that order, so on 7 instances it takes another equally
    short chain and ends with other losers. Re-pinned when one phased repair
    per level replaced the per-step undo: it picks other chains."""
    assert _golden_digest(realize_inductive) == (
        "fc865fe60f669884249bddbb717debcdfcb692377c580153837c2fa31b241baa"
    )


def test_flow_witness_bytes_of_seeded_instances():
    """The same 200 instances through the flow realizer, recorded before
    saturation steps were decided on their box instead of a full check.

    Re-recorded when the engine came to keep one loser per rank: the losers
    are those recorded then, with the non-losers sorted into selection order.
    Re-pinned when one phased repair replaced the repair by one chain per
    excess unit: it picks other chains. Re-pinned when every selection came to
    start at its first vertex instead of a greedy choice: the start decides
    which chains the repair takes."""
    assert _golden_digest(realize_flow) == (
        "7e727b0cb7f8b0cbaefc42396b9961d141afc26f2de8e175df35da4daed0a178"
    )


# sha256 of `realize FIXTURE --emit losers` stdout, recorded before the engine
# came to keep one loser per rank; the losers it finds must not change unless
# the repair does.
LOSERS_DIGESTS = {
    # Re-pinned: the phased repair picks other chains than the per-step undo did.
    "inst_222_111.json": "fd2ffccf451f1a5ce2eee359f191d9d6788986f1463aa1cc99672f808bef0abd",
    "inst_2x2_11.json": "07e2c9596fe2199f56a09b0d46ec8f34750b309eb0361582db81fe2698a7f041",
    "inst_2x2_11.txt": "07e2c9596fe2199f56a09b0d46ec8f34750b309eb0361582db81fe2698a7f041",
    "inst_3x2_11.json": "c6b665adc39e5948c69f8d63a30be6d8ca0b23a17d7c810c765474e779d6148f",
    # Re-pinned: the phased repair picks other chains than the per-step undo did.
    "inst_3x2_21.json": "908099f734167a9e0cbd49390007a3cc9fc46d4bdada3bd0a81df13ebc010dcd",
    "inst_k1_42.json": "53af9d923fdb73485fc1afed317a4a4da1f11ccdc97afc1336402081ddc83f28",
    "inst_score_2x2.json": "9c95b6763621ee3213a1f9ddf32bcc13c055ec690d609f3038a61c4233ff852e",
}


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_inductive_loser_bytes_of_fixtures(name, capsys):
    code = main(["realize", str(FIXTURES / name), "--emit", "losers"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOSERS_DIGESTS[name]


@pytest.mark.parametrize("method", ["inductive", "flow"])
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_emitted_arcs_are_the_hypertournament_of_the_emitted_losers(name, method, capsys):
    """`--emit arcs` and `--emit losers` describe one hypertournament: the
    arcs equal those `verify` rebuilds from the losers."""
    docs = {}
    for emit in ("arcs", "losers"):
        assert main(["realize", str(FIXTURES / name), "--method", method, "--emit", emit]) == 0
        docs[emit] = json.loads(capsys.readouterr().out)
    shape = Shape(tuple(docs["losers"]["n"]), tuple(docs["losers"]["alpha"]))
    rebuilt = _hypertournament_from_doc(docs["losers"], shape)
    assert [[[v.part + 1, v.index + 1] for v in arc] for arc in rebuilt.arcs] == docs["arcs"]["arcs"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seed=st.integers(0, 2**32 - 1), mode=MODES)
def test_realized_arcs_are_built_from_their_losers(shape, seed, mode):
    """Every caller that hands loser ids to the model (both realizers,
    loser-only random and the enumeration) returns the hypertournament of its
    losers: each arc is its selection with the loser moved last, the rest in
    selection order, and it equals and hashes as the one from_losers builds
    from those losers, which read as VertexIds."""
    lists = losing_scores(random_hypertournament(shape, seed, mode)).lists
    built = [realizer(shape, lists) for realizer in (realize_inductive, realize_flow)]
    built.append(random_hypertournament(shape, seed))
    budget = sum(shape.alpha) ** shape.total_arcs()
    built += islice(enumerate_assignments(shape, budget=budget), seed % 7, seed % 7 + 40, 3)
    for M in built:
        losers = [a.loser for a in M.arcs]
        assert M.losers == tuple(losers) and all(type(v) is VertexId for v in M.losers)
        N = Hypertournament.from_losers(shape, losers)
        assert M == N and hash(M) == hash(N)
