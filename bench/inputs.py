"""Seeded inputs for the benchmark workloads, from the standard library only.

run.py calls this file in a child interpreter, so that making the inputs
never sets the peak memory of the timed process, and the package under test
receives only the generated inputs. The same seed gives the same document.

Usage: python3 bench/inputs.py WORKLOAD SEED   (prints one JSON document)

The helpers ``selections``, ``arcs_through`` and ``reverse_complement`` are
also what the benchmark's own correctness checks use; none of them calls the
package.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys

CHECK_INPUTS = 102  # a multiple of 3: valid, grand total off by one, early violation
REALIZE_INSTANCES = 100
GROUND_TRUTH_SHAPES = 100
CLI_SESSIONS = 16

# Shapes with 10^4 to 10^5 prefix tuples; all arities are 1 so that a
# loser assignment costs one draw per selection.
CHECK_SHAPES = (
    (100, 100),
    (150, 120),
    (200, 150),
    (300, 300),
    (22, 22, 22),
    (30, 30, 30),
    (40, 35, 30),
    (10, 10, 10, 10),
    (12, 12, 12, 12),
    (15, 14, 13, 12),
)

# The ~140 KB arcs witness of the cli workload (T = 3360 selections).
CLI_BIG_SHAPE = ((10, 8), (3, 2))


def total_arcs(n, alpha) -> int:
    return math.prod(math.comb(n_i, a_i) for n_i, a_i in zip(n, alpha))


def arcs_through(n, alpha, part: int) -> int:
    """Arcs containing one fixed vertex of ``part``."""
    out = math.comb(n[part] - 1, alpha[part] - 1)
    for t, (n_t, a_t) in enumerate(zip(n, alpha)):
        if t != part:
            out *= math.comb(n_t, a_t)
    return out


def selections(n, alpha):
    """Selections of a shape in rank order, as tuples of (part, index) vertices.

    The order is mixed radix with part 1 the fastest digit, and
    colexicographic within a part; vertices are listed by part, then index.
    """
    per_part = [
        sorted(itertools.combinations(range(n_i), a_i), key=lambda s: s[::-1])
        for n_i, a_i in zip(n, alpha)
    ]
    for digits in itertools.product(*reversed(per_part)):
        yield tuple(
            (part, e) for part, subset in enumerate(reversed(digits)) for e in subset
        )


def reverse_complement(n, alpha, lists):
    """Losing lists to score lists and back: reverse, complement per part."""
    return [
        [arcs_through(n, alpha, i) - x for x in reversed(lst)]
        for i, lst in enumerate(lists)
    ]


def draw_losing_lists(n, alpha, rng: random.Random):
    """Sorted losing lists of a random loser assignment.

    Each selection loses at one of its vertices, drawn with probability
    proportional to per-vertex weights fixed for the instance, so the lists
    range from near-balanced to skewed. Selections are visited as a head
    (parts 1..k-1) times a last-part subset, which keeps the inner loop short.
    """
    k = len(n)
    weights = [[rng.uniform(0.2, 1.0) for _ in range(n_i)] for n_i in n]
    losses = [[0] * n_i for n_i in n]
    subsets = [list(itertools.combinations(range(n_i), a_i)) for n_i, a_i in zip(n, alpha)]
    last_w, last_l = weights[-1], losses[-1]
    tails = [(sub, sum(last_w[e] for e in sub)) for sub in subsets[-1]]
    rnd = rng.random
    for head in itertools.product(*subsets[:-1]):
        head_v = [(p, e) for p, sub in enumerate(head) for e in sub]
        head_w = [weights[p][e] for p, e in head_v]
        head_total = sum(head_w)
        for sub, tail_total in tails:
            x = rnd() * (head_total + tail_total)
            if x < tail_total:
                for e in sub:
                    x -= last_w[e]
                    if x < 0:
                        break
                last_l[e] += 1
            else:
                x -= tail_total
                for (p, e), w in zip(head_v, head_w):
                    x -= w
                    if x < 0:
                        break
                losses[p][e] += 1
    return [sorted(lst) for lst in losses]


def _check_inputs(rng: random.Random):
    """Valid lists, grand total off by one, and an early prefix violation.

    The expected witness is known by construction: none for valid lists, the
    full prefix for the total off by one (entries only grow, so no lower bound
    fails first), and for lists whose first entries are all zero the first
    prefix with a positive bound: (1, ..., 1) on the losing side and
    (0, ..., 0, 1, 1) on the score side.
    """
    out = []
    for j in range(CHECK_INPUTS // 3):
        # Shapes and kinds cycle in a fixed order, so that only the lists
        # depend on the seed.
        n = CHECK_SHAPES[j % len(CHECK_SHAPES)]
        alpha = (1,) * len(n)
        kind = "losing" if j // len(CHECK_SHAPES) % 2 == 0 else "score"
        lists = draw_losing_lists(n, alpha, rng)
        if kind == "score":
            lists = reverse_complement(n, alpha, lists)
        base = {"n": list(n), "alpha": list(alpha), "kind": kind}
        out.append(dict(base, case="valid", lists=lists, witness=None))

        plus = [list(lst) for lst in lists]
        plus[rng.randrange(len(n))][-1] += 1
        out.append(dict(base, case="total+1", lists=plus, witness=list(n)))

        early = [list(lst) for lst in lists]
        for lst in early:
            lst[-1] += lst[0]
            lst[0] = 0
        k = len(n)
        witness = [1] * k if kind == "losing" else [0] * (k - 2) + [1, 1]
        out.append(dict(base, case="early", lists=early, witness=witness))
    return out


def _shape_family(max_k, max_n, max_alpha, keep, proper=False):
    """Every shape with up to ``max_k`` parts, n_i <= max_n and
    1 <= alpha_i <= min(n_i, max_alpha) (alpha_i < n_i when ``proper``), for
    which ``keep(n, alpha, T)`` is true. ``keep`` returns None to prune: adding
    parts never shrinks T, so it does that once T is too large."""
    parts = [
        (n, a)
        for n in range(1, max_n + 1)
        for a in range(1, min(n - proper, max_alpha) + 1)
    ]
    out = []

    def rec(n, alpha, t):
        if n:
            verdict = keep(n, alpha, t)
            if verdict is None:
                return
            if verdict:
                out.append((n, alpha))
        if len(n) < max_k:
            for n_i, a_i in parts:
                rec(n + (n_i,), alpha + (a_i,), t * math.comb(n_i, a_i))

    rec((), (), 1)
    return out


# Largest T per part count k in the realize workload: the inductive route
# costs far more per arc as k grows (about 1 s at k = 4, T = 480), and the
# caps keep a pass near 4 s.
REALIZE_MAX_T = {1: 500, 2: 300, 3: 180, 4: 100}


def _realize_shapes():
    def keep(n, alpha, t):
        if t > REALIZE_MAX_T[len(n)]:
            return None
        return t >= 30 and (len(n) > 1 or alpha[0] >= 2)

    return _shape_family(4, 14, 4, keep, proper=True)


def _log_spread(rng: random.Random, shapes, slots: int, near: int):
    """One shape per slot, the slots spread evenly over log T.

    Slot s targets a fixed T; the seed picks among the ``near`` shapes whose T
    is closest to it (with ``near=1`` the shapes do not depend on the seed).
    """
    logs = sorted((math.log(total_arcs(n, a)), n, a) for n, a in shapes)
    lo, hi = logs[0][0], logs[-1][0]
    out = []
    for s in range(slots):
        target = lo + (s + 0.5) * (hi - lo) / slots
        _, n, a = rng.choice(sorted(logs, key=lambda x: (abs(x[0] - target), x))[:near])
        out.append((n, a))
    return out


def _realize_inputs(rng: random.Random):
    """A quarter of the instances for each part count k = 1..4."""
    by_k = {}
    for n, alpha in _realize_shapes():
        by_k.setdefault(len(n), []).append((n, alpha))
    out = []
    for k, group in sorted(by_k.items()):
        # Fixed shapes: the cost of realizing varies too much between shapes
        # of equal T for a seeded choice among them to leave a pass's work
        # unchanged; the seed draws the lists.
        for n, alpha in _log_spread(rng, group, REALIZE_INSTANCES // len(by_k), near=1):
            out.append({"n": list(n), "alpha": list(alpha), "lists": draw_losing_lists(n, alpha, rng)})
    return out


def _ground_truth_inputs(rng: random.Random):
    """Desk shapes whose loser-assignment count (sum alpha)^T is at most 2*10^4.

    Shapes that list the same parts in another order do the same enumeration
    work. The classes of such shapes are sorted by cost and cut into
    GROUND_TRUTH_SHAPES strata; each stratum contributes its first class, and
    the seed picks the order of its parts. So the work of a pass, down to the
    median input, hardly depends on the seed.
    """

    def keep(n, alpha, t):
        m = sum(alpha)
        count = 1 if m == 1 else m**t
        return count <= 20_000 or None

    classes = {}
    for n, alpha in _shape_family(4, 6, 3, keep):
        classes.setdefault(tuple(sorted(zip(n, alpha))), []).append((n, alpha))

    def cost(parts):  # enumeration work: assignments times selections
        n, alpha = zip(*parts)
        t = total_arcs(n, alpha)
        return max(1, sum(alpha) ** t) * t, parts

    ordered = sorted(classes, key=cost)
    bounds = [len(ordered) * s // GROUND_TRUTH_SHAPES for s in range(GROUND_TRUTH_SHAPES)]
    return [
        {"n": list(n), "alpha": list(a)}
        for n, a in (rng.choice(sorted(classes[ordered[lo]])) for lo in bounds)
    ]


def _cli_inputs(rng: random.Random):
    """A seeded sequence of in-process CLI calls; reads use earlier writes.

    Each call names the document it reads (``doc``) and the one it writes
    (``out``); the runner keeps the written documents for the pass.
    """

    def keep(n, alpha, t):
        if t > 300:
            return None
        return t >= 20

    calls = []
    shapes = _log_spread(rng, _shape_family(3, 12, 3, keep, proper=True), CLI_SESSIONS, near=4)
    for s, (n, alpha) in enumerate(shapes):
        flags = ["--n", ",".join(map(str, n)), "--alpha", ",".join(map(str, alpha))]
        w, r = f"w{s}", f"r{s}"
        emit = "arcs" if s % 2 == 0 else "losers"
        calls += [
            {"cmd": "random", "argv": ["random", *flags, "--seed", str(rng.getrandbits(32)),
                                       "--emit", emit], "out": w},
            {"cmd": "verify", "doc": w},
            {"cmd": "check", "doc": w},
            {"cmd": "check", "doc": w, "bump": rng.randrange(len(n))},
            {"cmd": "convert", "doc": w},
            {"cmd": "realize", "doc": w, "out": r},
            {"cmd": "verify", "doc": r},
        ]
    n, alpha = CLI_BIG_SHAPE
    flags = ["--n", ",".join(map(str, n)), "--alpha", ",".join(map(str, alpha))]
    calls += [
        {"cmd": "random", "argv": ["random", *flags, "--seed", str(rng.getrandbits(32)),
                                   "--emit", "arcs"], "out": "big"},
        {"cmd": "verify", "doc": "big"},
        {"cmd": "check", "doc": "big"},
        {"cmd": "convert", "doc": "big"},
        # Known defect (ROADMAP item 4): a losers witness with one extra,
        # out-of-shape entry should exit 1; today it exits 0.
        {"cmd": "verify", "doc": "r1", "extra_loser": [9, 9], "known_defect": True},
    ]
    return calls


GENERATORS = {
    "check": _check_inputs,
    "realize": _realize_inputs,
    "ground-truth": _ground_truth_inputs,
    "cli": _cli_inputs,
}


def generate(workload: str, seed: int):
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


if __name__ == "__main__":
    json.dump(generate(sys.argv[1], int(sys.argv[2])), sys.stdout)
