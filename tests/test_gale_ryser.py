"""The losing-list and score-list checks against Gale-Ryser on two parts of
arity one, where a hypertournament is a 0/1 matrix with given margins."""

import random
from itertools import product

from gale_ryser import gale_ryser

from hyperscores import (
    Hypertournament,
    Shape,
    achievable_losing_lists,
    bounded_candidate_lists,
    check_losing_lists,
    check_score_lists,
    losing_scores,
    losing_to_scores,
    random_hypertournament,
    selection_vertices,
)


def test_the_reference_is_the_enumerated_truth():
    # Every (n1, n2)/(1, 1) with n_i <= 4: the reference accepts exactly the
    # achievable losing lists among all candidates.
    for n1, n2 in product(range(1, 5), repeat=2):
        shape = Shape((n1, n2), (1, 1))
        accepted = {c for c in bounded_candidate_lists(shape, "losing") if gale_ryser(n1, n2, *c)}
        assert accepted == achievable_losing_lists(shape).lists, (n1, n2)


def _decisions(shape, lists):
    """The reference's, the losing check's and the score check's decision on
    losing lists, the last through ``losing_to_scores``; a list that does not
    convert (an entry past its arcs) counts as rejected on the score side."""
    n1, n2 = shape.n
    try:
        score = check_score_lists(shape, losing_to_scores(shape, lists)).valid
    except ValueError:
        score = False
    return gale_ryser(n1, n2, *lists), check_losing_lists(shape, lists).valid, score


def test_both_checks_agree_with_gale_ryser_on_tournaments_and_moved_units():
    """Lists of random and weighted-transitive (each pair lost by its vertex of
    least weight) bipartite tournaments, n_i <= 12, in turn, each valid on all
    three sides; then one unit is taken off a non-zero entry and added to a
    random entry, and all three must decide the re-sorted lists alike."""
    rng, rejected = random.Random(15), 0
    for run in range(2000):
        shape = Shape((rng.randint(1, 12), rng.randint(1, 12)), (1, 1))
        if run % 2 == 0:
            M = random_hypertournament(shape, rng.randrange(2**32))
        else:
            w = {v: rng.random() for v in shape.vertices()}
            M = Hypertournament.from_losers(
                shape, [min(sel, key=w.__getitem__) for sel in selection_vertices(shape)])
        lists = losing_scores(M).lists
        assert _decisions(shape, lists) == (True, True, True), (shape, lists)
        moved = [list(lst) for lst in lists]
        cells = [(i, j) for i, lst in enumerate(moved) for j in range(len(lst))]
        i, j = rng.choice([(i, j) for i, j in cells if moved[i][j]])
        moved[i][j] -= 1
        p, q = rng.choice(cells)
        moved[p][q] += 1
        moved = [sorted(lst) for lst in moved]
        decided = _decisions(shape, moved)
        assert len(set(decided)) == 1, (shape, moved, decided)
        rejected += not decided[0]
    assert rejected > 200, rejected
