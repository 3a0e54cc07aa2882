"""The interchange-chain engine against the loss mover it replaced, and the
inductive witness bytes it must keep."""

import hashlib
import json
from collections import deque
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperscores import (
    Arc,
    Hypertournament,
    InfeasibleError,
    NoEligibleArcError,
    Shape,
    VertexId,
    check_losing_lists,
    losing_scores,
    random_hypertournament,
    realize_flow,
    realize_inductive,
    selection_vertices,
)
from hyperscores.cli import _hypertournament_from_doc, main
from hyperscores.realize import _LoserChains

FIXTURES = Path(__file__).parent / "fixtures"


def _reassign_loser(M: Hypertournament, rank: int, new_loser: VertexId) -> Hypertournament:
    order = list(M.arcs[rank].order)
    i = order.index(new_loser)
    order[i], order[-1] = order[-1], order[i]
    return Hypertournament(M.shape, M.arcs[:rank] + (Arc(tuple(order)),) + M.arcs[rank + 1 :])


def reference_move_loss(M: Hypertournament, source: VertexId, target: VertexId) -> Hypertournament:
    """Naive reference: rebuilds the loser index and copies the arcs per call."""
    loser_ranks: dict[VertexId, list[int]] = {}
    for rank, arc in enumerate(M.arcs):
        loser_ranks.setdefault(arc.order[-1], []).append(rank)
    parent: dict[VertexId, tuple[VertexId, int] | None] = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        u = queue.popleft()
        for rank in loser_ranks.get(u, ()):
            for w in M.arcs[rank].order[:-1]:
                if w not in parent:
                    parent[w] = (u, rank)
                    queue.append(w)
            if target in parent:
                break
    if target not in parent:
        raise NoEligibleArcError(
            f"no chain of interchanges moves a loss from {source} to {target}"
        )
    chain = []
    v = target
    while parent[v] is not None:
        u, rank = parent[v]
        chain.append((rank, v))
        v = u
    for rank, new_loser in reversed(chain):
        M = _reassign_loser(M, rank, new_loser)
    return M


@st.composite
def small_shapes(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    alpha = [draw(st.integers(1, n_i)) for n_i in n]
    return Shape(tuple(n), tuple(alpha))


MODES = st.sampled_from(["loser-only", "full-permutation"])


def _state(chains):
    return chains.losers, chains.lost


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seed=st.integers(0, 2**32 - 1), mode=MODES, data=st.data())
def test_move_loss_matches_reference(shape, seed, mode, data):
    """The search with a predicate and the direct move to a named vertex both
    leave the reference's arcs and an exact rank-sorted loser index."""
    losers = [arc.loser for arc in random_hypertournament(shape, seed, mode).arcs]
    M = Hypertournament.from_losers(shape, losers)
    vertices = list(shape.vertices())
    source = data.draw(st.sampled_from(vertices))
    target = data.draw(st.sampled_from(vertices))
    assume(source != target)
    by_predicate = _LoserChains(selection_vertices(shape), losers)
    named = _LoserChains(selection_vertices(shape), losers)
    try:
        expected = reference_move_loss(M, source, target)
    except NoEligibleArcError:
        with pytest.raises(NoEligibleArcError):
            by_predicate.move_loss(source, lambda w: w == target)
        with pytest.raises(NoEligibleArcError):
            named.move_loss_to(source, target)
        return
    assert by_predicate.move_loss(source, lambda w: w == target) == target
    named.move_loss_to(source, target)
    assert _state(named) == _state(by_predicate)
    assert named.losers == [a.loser for a in expected.arcs]
    for v, ranks in named.lost.items():
        assert ranks == [r for r, loser in enumerate(named.losers) if loser == v]


def test_named_move_falls_back_to_a_chain():
    # (3,)/(2,): vertex 0 loses only {0, 1}, so no arc it loses holds vertex 2
    # and the loss travels 0 -> 1 -> 2 through {1, 2}, which 1 loses.
    a, b, c = (VertexId(0, j) for j in range(3))
    shape = Shape((3,), (2,))
    losers = [a, c, b]
    M = Hypertournament.from_losers(shape, losers)
    named = _LoserChains(selection_vertices(shape), losers)
    by_predicate = _LoserChains(selection_vertices(shape), losers)
    named.move_loss_to(a, c)
    assert by_predicate.move_loss(a, lambda w: w == c) == c
    assert _state(named) == _state(by_predicate)
    assert named.losers == [arc.loser for arc in reference_move_loss(M, a, c).arcs]
    assert named.losers == [b, c, c]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=small_shapes(), seed=st.integers(0, 2**32 - 1), mode=MODES, data=st.data())
def test_flow_agrees_with_check_near_achievable_lists(shape, seed, mode, data):
    """Flow realizes achievable lists and, after some units move from the
    smallest positive entry of one part to the largest entry of a part, is
    feasible exactly when the losing-list check accepts."""
    lists = losing_scores(random_hypertournament(shape, seed, mode)).lists
    assert losing_scores(realize_flow(shape, lists)).lists == lists
    a = data.draw(st.sampled_from([i for i in range(shape.k) if lists[i][-1] > 0]))
    b = next(j for j, entry in enumerate(lists[a]) if entry > 0)
    c = data.draw(st.integers(0, shape.k - 1))
    units = data.draw(st.integers(1, lists[a][b]))
    work = [list(lst) for lst in lists]
    work[a][b] -= units
    work[c][-1] += units
    moved = tuple(tuple(sorted(lst)) for lst in work)
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
    "inst_222_111.json": "e6049fac77bca9a4135ca9138cb7650dd4ca5d1525169b9d5d68c3701a63d7e2",
    "inst_2x2_11.json": "012f62e268123e6493ad2f9c01d808397f4edbee4174773732adbac14917a13f",
    "inst_2x2_11.txt": "012f62e268123e6493ad2f9c01d808397f4edbee4174773732adbac14917a13f",
    "inst_3x2_11.json": "c9b8f68354d8e25f741df6707994d0956907d25630602c37fc67dd3fbcccc0ce",
    "inst_3x2_21.json": "0740d2bb6d771203e5a50cb05fb83057d821d6f33f6e687ff7bb86690bea492f",
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
                digest.update(repr([[tuple(v) for v in arc.order] for arc in M.arcs]).encode())
    return digest.hexdigest()


def test_inductive_witness_bytes_of_seeded_instances():
    """The lists of 200 seeded random hypertournaments realize to the same arcs
    as before the interchange engine, including non-loser order.

    Re-recorded when the engine came to keep one loser per rank: arcs list
    their non-losers in selection order, and the chain search visits each
    arc's vertices in that order, so on 7 instances it takes another equally
    short chain and ends with other losers."""
    assert _golden_digest(realize_inductive) == (
        "a56cdfcf8ee895416bdc7e010b95f2b5b2b7c2fd68ef314b3623a543ee641b27"
    )


def test_flow_witness_bytes_of_seeded_instances():
    """The same 200 instances through the flow realizer, recorded before
    saturation steps were decided on their box instead of a full check.

    Re-recorded when the engine came to keep one loser per rank: the losers
    are those recorded then, with the non-losers sorted into selection order."""
    assert _golden_digest(realize_flow) == (
        "69d5a25e282929a118717358a9002e1350428e896a9261ff3ebdef1b82435dc3"
    )


# sha256 of `realize FIXTURE --emit losers` stdout, recorded before the engine
# came to keep one loser per rank; the losers it finds must not change.
LOSERS_DIGESTS = {
    "inst_222_111.json": "d2f4b670f18d48abdb44f807780f8edf081f5dcc85273bc4e6bce0405c14b39e",
    "inst_2x2_11.json": "07e2c9596fe2199f56a09b0d46ec8f34750b309eb0361582db81fe2698a7f041",
    "inst_2x2_11.txt": "07e2c9596fe2199f56a09b0d46ec8f34750b309eb0361582db81fe2698a7f041",
    "inst_3x2_11.json": "c6b665adc39e5948c69f8d63a30be6d8ca0b23a17d7c810c765474e779d6148f",
    "inst_3x2_21.json": "f11ee70a39f09606354641f412b6f832b9c5346c2caf1b66254c06a7056eb88a",
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
    """Both realizers return the hypertournament of their losers: each arc is
    its selection with the loser moved last, the rest in selection order."""
    lists = losing_scores(random_hypertournament(shape, seed, mode)).lists
    for realizer in (realize_inductive, realize_flow):
        M = realizer(shape, lists)
        assert M == Hypertournament.from_losers(shape, [a.loser for a in M.arcs])
