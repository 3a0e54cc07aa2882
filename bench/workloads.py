"""The four workloads: each generated input becomes one timed operation.

An operation has three parts. ``prepare`` builds the call's argument from the
pass's context (documents written earlier in the pass) and is not timed.
``run`` makes one call into the package's public API and is timed; it looks the
function up on its module at call time, so that the traced run's wrappers
apply. ``check`` decides with the benchmark's own code, never the package's,
whether the result is correct, and returns None or the reason it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from hyperscores import cli, criteria, oracle, realize
from hyperscores.model import Shape
from inputs import arcs_through, reverse_complement, selections, total_arcs


@dataclass
class Op:
    kind: str
    prepare: Callable[[dict], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], "str | None"]
    known_defect: bool = False
    doc_bytes: Callable[[Any, Any], int] = lambda arg, result: 0


def _const(value):
    return lambda ctx: value


# ---------------------------------------------------------------- check


def _bound_sides(n, alpha, kind, lists, prefix):
    """Both sides of the prefix bound at ``prefix``, recomputed with math.comb."""
    lhs = sum(sum(lst[:p]) for lst, p in zip(lists, prefix))
    if kind == "losing":
        return lhs, math.prod(math.comb(p, a) for p, a in zip(prefix, alpha))
    total = total_arcs(n, alpha)
    rhs = sum(p * arcs_through(n, alpha, i) for i, p in enumerate(prefix))
    rhs += math.prod(math.comb(n_i - p, a) for n_i, p, a in zip(n, prefix, alpha)) - total
    return lhs, rhs


def _check_op(inp) -> Op:
    n, alpha, kind, lists = tuple(inp["n"]), tuple(inp["alpha"]), inp["kind"], inp["lists"]
    shape = Shape(n, alpha)
    name = "check_losing_lists" if kind == "losing" else "check_score_lists"

    def check(result, ctx):
        w = result.witness_violation
        if inp["witness"] is None:
            ok = result.valid and w is None and result.equality_at_full
            return None if ok else "valid lists were rejected"
        if result.valid or w is None:
            return "invalid lists were accepted"
        if list(w.prefix) != inp["witness"]:
            return f"witness {w.prefix}, expected {inp['witness']}"
        lhs, rhs = _bound_sides(n, alpha, kind, lists, w.prefix)
        if (w.lhs, w.rhs) != (lhs, rhs):
            return f"witness sides {(w.lhs, w.rhs)}, recomputed {(lhs, rhs)}"
        if not (lhs < rhs or (w.prefix == n and lhs != rhs)):
            return "witness is not a violation"
        return None

    return Op(
        kind=f"{kind}.{inp['case']}",
        prepare=_const(None),
        run=lambda _: getattr(criteria, name)(shape, lists),
        check=check,
    )


# ---------------------------------------------------------------- realize


class _SelectionTables:
    """The benchmark's own selection tables, built once per shape."""

    def __init__(self):
        self._tables = {}

    def __call__(self, n, alpha):
        key = (tuple(n), tuple(alpha))
        if key not in self._tables:
            self._tables[key] = [frozenset(sel) for sel in selections(n, alpha)]
        return self._tables[key]


def _arcs_problem(n, alpha, arcs, tables) -> "str | None":
    """Each arc's vertex set must equal the selection of its rank; ``arcs``
    holds one sequence of (part, index) pairs per arc."""
    table = tables(n, alpha)
    if len(arcs) != len(table):
        return f"{len(arcs)} arcs for {len(table)} selections"
    for rank, (arc, sel) in enumerate(zip(arcs, table)):
        if len(arc) != len(sel) or frozenset(arc) != sel:
            return f"arc {rank} does not match its selection"
    return None


def _losers_problem(n, alpha, losers, tables) -> "str | None":
    """One loser per selection, each inside the selection of its rank."""
    table = tables(n, alpha)
    if len(losers) != len(table) or any(v not in sel for v, sel in zip(losers, table)):
        return "a loser lies outside its selection"
    return None


def _targets_problem(losers, lists) -> "str | None":
    """Vertex (i, j) must lose exactly lists[i][j] arcs."""
    losses = Counter(losers)
    for i, lst in enumerate(lists):
        for j, target in enumerate(lst):
            if losses[(i, j)] != target:
                return f"vertex {(i, j)} loses {losses[(i, j)]}, target {target}"
    return None


def _realize_ops(inp, tables) -> list[Op]:
    n, alpha, lists = tuple(inp["n"]), tuple(inp["alpha"]), inp["lists"]
    shape = Shape(n, alpha)

    def check(M, ctx):
        arcs = [tuple((v.part, v.index) for v in arc.order) for arc in M.arcs]
        return _arcs_problem(n, alpha, arcs, tables) or _targets_problem(
            [arc[-1] for arc in arcs], lists
        )

    return [
        Op(
            kind=name,
            prepare=_const(None),
            run=lambda _, name=name: getattr(realize, name)(shape, lists),
            check=check,
        )
        for name in ("realize_inductive", "realize_flow")
    ]


# ---------------------------------------------------------------- ground-truth


def _ground_truth_op(inp) -> Op:
    shape = Shape(tuple(inp["n"]), tuple(inp["alpha"]))

    def check(report, ctx):
        ok = (
            report.ok
            and report.losing_achievable_count == report.losing_accepted_count
            and report.score_achievable_count == report.score_accepted_count
        )
        return None if ok else "enumeration and predicates disagree"

    return Op(
        kind="cross_validate",
        prepare=_const(None),
        run=lambda _: oracle.cross_validate(shape),
        check=check,
    )


# ---------------------------------------------------------------- cli


def _cli_call(arg):
    """``hyperscores.cli.main(argv)`` in process, stdin given, stdout captured."""
    argv, stdin_text = arg
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _shape_flags(argv):
    """(n, alpha) as lists from the --n and --alpha flags of a random call."""
    return tuple([int(x) for x in _flag(argv, flag).split(",")] for flag in ("--n", "--alpha"))


def _pairs(doc_vertices):
    """1-based [part, index] pairs of a document as 0-based tuples."""
    return [(p - 1, i - 1) for p, i in doc_vertices]


def _sorted_counts(n, losers):
    counts = Counter(losers)
    return [sorted(counts[(i, j)] for j in range(n_i)) for i, n_i in enumerate(n)]


def _cli_check(call, tables):
    """Expected exit code and JSON fields for one call of the cli workload."""
    cmd = call["cmd"]

    def check(result, ctx):
        code, text = result
        expected_code = 1 if call.get("known_defect") or "bump" in call else 0
        if code != expected_code:
            return f"{cmd} exited {code}, expected {expected_code}"
        out = json.loads(text)
        if cmd == "random":
            argv = call["argv"]
            n, alpha = _shape_flags(argv)
            fields = (out["k"], out["n"], out["alpha"], out["kind"], out["seed"], out["mode"])
            if fields != (len(n), n, alpha, "losing", int(_flag(argv, "--seed")), "loser-only"):
                return "random echoed the wrong shape, seed or mode"
            if _flag(argv, "--emit") == "arcs":
                arcs = [_pairs(arc) for arc in out["arcs"]]
                problem = _arcs_problem(n, alpha, arcs, tables)
                losers = [arc[-1] for arc in arcs]
            else:
                losers = _pairs(out["losers"])
                problem = _losers_problem(n, alpha, losers, tables)
            if problem is None and _sorted_counts(n, losers) != out["lists"]:
                problem = "lists do not count the losers"
            if problem is None and out["score_lists"] != reverse_complement(n, alpha, out["lists"]):
                problem = "score lists are not the reverse complement"
            if problem is None:
                ctx[call["out"]] = (text, out)
            return problem
        doc = ctx[call["doc"]][1]
        n, alpha = doc["n"], doc["alpha"]
        if cmd == "verify":
            if call.get("known_defect"):
                return None if out["structure_valid"] is False else "extra loser accepted"
            ok = (
                out["structure_valid"] is True
                and out["arc_count"] == total_arcs(n, alpha)
                and out["losing_lists"] == doc["lists"]
                and out["score_lists"] == reverse_complement(n, alpha, doc["lists"])
                and out["lists_match"] is True
            )
            return None if ok else "verify disagrees with the witness"
        if cmd == "check":
            if "bump" in call:
                t = total_arcs(n, alpha)
                want = {"prefix": n, "lhs": t + 1, "rhs": t}
                ok = out["valid"] is False and out["violation"] == want
            else:
                ok = out["valid"] is True and out["violation"] is None
            return None if ok else "check verdict is wrong"
        if cmd == "convert":
            ok = out["kind"] == "score" and out["lists"] == reverse_complement(n, alpha, doc["lists"])
            return None if ok else "convert is not the reverse complement"
        if cmd == "realize":
            losers = _pairs(out["losers"])
            problem = _losers_problem(n, alpha, losers, tables) or _targets_problem(
                losers, doc["lists"]
            )
            if problem is None:
                ctx[call["out"]] = (text, out)
            return problem
        return f"unknown command {cmd}"

    return check


def _cli_prepare(call):
    cmd = call["cmd"]
    if cmd == "random":
        return _const((call["argv"], ""))

    def prepare(ctx):
        text, doc = ctx[call["doc"]]
        if "bump" in call:
            doc = dict(doc, lists=[list(lst) for lst in doc["lists"]])
            doc["lists"][call["bump"]][-1] += 1
            text = json.dumps(doc)
        if "extra_loser" in call:
            text = json.dumps(dict(doc, losers=doc["losers"] + [call["extra_loser"]]))
        argv = [cmd, "-"] + (["--emit", "losers"] if cmd == "realize" else [])
        return argv, text

    return prepare


def _cli_op(call, tables) -> Op:
    return Op(
        kind=call["cmd"],
        prepare=_cli_prepare(call),
        run=_cli_call,
        check=_cli_check(call, tables),
        known_defect=call.get("known_defect", False),
        doc_bytes=lambda arg, result: len(arg[1]) + len(result[1]),
    )


# ---------------------------------------------------------------- assembly


def build_ops(workload: str, inputs) -> list[Op]:
    """Operations of one pass, in the fixed order every pass runs them."""
    tables = _SelectionTables()
    if workload == "check":
        return [_check_op(inp) for inp in inputs]
    if workload == "realize":
        return [op for inp in inputs for op in _realize_ops(inp, tables)]
    if workload == "ground-truth":
        return [_ground_truth_op(inp) for inp in inputs]
    if workload == "cli":
        return [_cli_op(call, tables) for call in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def setup_shapes(workload: str, inputs) -> list:
    """Shapes whose selection tables the workload's operations build.

    The check workload scans prefix tuples only and builds none.
    """
    if workload in ("realize", "ground-truth"):
        shapes = [(inp["n"], inp["alpha"]) for inp in inputs]
    elif workload == "cli":
        shapes = [_shape_flags(c["argv"]) for c in inputs if c["cmd"] == "random"]
    else:
        shapes = []
    return sorted({(tuple(n), tuple(a)) for n, a in shapes})
