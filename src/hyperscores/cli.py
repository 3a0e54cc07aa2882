"""Command-line front end.

Subcommands: check, realize, verify, convert, enumerate, random. Machine
output is a single JSON document on stdout (or a plain-text rendering with
``--format text``); human notes go to stderr. Exit codes: 0 valid/success,
1 predicate-invalid, 2 input error, 3 realization gap, 4 resource limit or
closed stdout.

Documents use 1-based [part, index] vertex pairs to match the usual notation;
everything is 0-based internally.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .criteria import (
    CheckResult,
    check_losing_lists,
    check_score_lists,
    losing_to_scores,
    scores_to_losing,
)
from .model import (
    CapacityError,
    Hypertournament,
    ScoreLists,
    Shape,
    VertexId,
    _collector_paused,
    _selection_ids,
    losing_scores,
    validate,
)
from .oracle import (
    BudgetExceededError,
    DEFAULT_ASSIGNMENT_BUDGET,
    _score_tuples,
    achievable_losing_lists,
    random_hypertournament,
)
from .realize import (
    InfeasibleError,
    InvalidListsError,
    RealizationGapError,
    realize_flow,
    realize_inductive,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_GAP = 3
EXIT_RESOURCE = 4

class InputError(Exception):
    """Malformed or inconsistent input document."""


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_text_instance(text: str) -> dict:
    """Plain-text alternative: header "k n... alpha... [kind]", one list per line;
    "#" starts a comment that runs to the end of its line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InputError("empty document")
    header = lines[0].split()
    try:
        k = int(header[0])
    except ValueError as exc:
        raise InputError(f"bad header {lines[0]!r}: first token must be k") from exc
    if k < 1:
        raise _schema_error("k", "an integer >= 1")
    kind = "losing"
    rest = header[1:]
    if rest and rest[-1] in ("losing", "score"):
        kind = rest[-1]
        rest = rest[:-1]
    if len(rest) != 2 * k:
        raise InputError(f"header needs {2 * k} sizes after k, got {len(rest)}")
    try:
        n = [int(x) for x in rest[:k]]
        alpha = [int(x) for x in rest[k:]]
        lists = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + k]]
    except ValueError as exc:
        raise InputError(f"non-integer token: {exc}") from exc
    if len(lines) != 1 + k:
        raise InputError(f"expected {k} list lines after the header, got {len(lines) - 1}")
    return {"k": k, "n": n, "alpha": alpha, "kind": kind, "lists": lists}


def _integral(x) -> bool:
    """Whether x is an integer as JSON Schema counts one: an int that is not a
    bool, or an integral float (2.0 is one; 2.5, NaN and infinities are not)."""
    return type(x) is int or (type(x) is float and x.is_integer())


def _schema_error(path: str, expected: str) -> InputError:
    return InputError(f"document fails the schema: {path} must be {expected}")


def _check_fields(doc, witness: bool) -> None:
    """Raise InputError, naming the field, unless doc is a well-formed
    instance document (or witness document, if witness is set), but for a
    witness's vertex pairs, which _witness_vertices checks as it reads them.

    An instance needs k, n, alpha, kind and lists; a witness needs k, n and
    alpha. k is an integer >= 1; n and alpha are non-empty arrays of
    integers >= 1; kind is "losing" or "score"; lists is an array of integer
    arrays. A witness's arcs, if present, is an array of arrays of vertex
    pairs, and its losers an array of vertex pairs; a vertex pair is an
    array of exactly two integers. Other keys, an instance's arcs and losers
    among them, are not looked at. Values are not compared with each other
    or with the shape here.

    Documents come from json.loads or the text reader, which build only
    dict, list, str, int, float, bool and None, so exact type tests suffice.
    The loops test ``type(x) is int`` first and call _integral only for
    entries that fail it.
    """
    if type(doc) is not dict:
        raise _schema_error("the document", "an object")
    for key in ("k", "n", "alpha") if witness else ("k", "n", "alpha", "kind", "lists"):
        if key not in doc:
            raise _schema_error(key, "present")
    k = doc["k"]
    if not (_integral(k) and k >= 1):
        raise _schema_error("k", "an integer >= 1")
    for key in ("n", "alpha"):
        values = doc[key]
        if type(values) is not list or not values:
            raise _schema_error(key, "a non-empty array of integers >= 1")
        for i, x in enumerate(values):
            if not ((type(x) is int or _integral(x)) and x >= 1):
                raise _schema_error(f"{key}[{i}]", "an integer >= 1")
    if "kind" in doc and doc["kind"] not in ("losing", "score"):
        raise _schema_error("kind", '"losing" or "score"')
    if "lists" in doc:
        lists = doc["lists"]
        if type(lists) is not list:
            raise _schema_error("lists", "an array of integer arrays")
        for i, values in enumerate(lists):
            if type(values) is not list:
                raise _schema_error(f"lists[{i}]", "an array of integers")
            for j, x in enumerate(values):
                if type(x) is not int and not _integral(x):
                    raise _schema_error(f"lists[{i}][{j}]", "an integer")
    if witness and "arcs" in doc and type(doc["arcs"]) is not list:
        raise _schema_error("arcs", "an array of arcs")


def _read_document(path: str, witness: bool = False) -> dict:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integer literals beyond
            # the interpreter's digit limit; RecursionError deep nesting.
            raise InputError(f"malformed JSON: {exc}") from exc
    else:
        doc = _parse_text_instance(text)
    _check_fields(doc, witness)
    return doc


def _shape_from_doc(doc: dict) -> Shape:
    if doc["k"] != len(doc["n"]) or doc["k"] != len(doc["alpha"]):
        raise InputError("k must equal the lengths of n and alpha")
    try:
        return Shape(tuple(doc["n"]), tuple(doc["alpha"]))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _lists_from_doc(doc: dict, shape: Shape, sort: bool) -> ScoreLists:
    lists = [list(lst) for lst in doc["lists"]]
    if len(lists) != shape.k or any(len(lst) != shape.n[i] for i, lst in enumerate(lists)):
        raise InputError("lists must match the shape: one list of n_i entries per part")
    if sort:
        lists = [sorted(lst) for lst in lists]
    try:
        return ScoreLists(doc["kind"], tuple(tuple(lst) for lst in lists))
    except ValueError as exc:
        raise InputError(f"{exc} (pass --sort to sort input lists)") from exc


def _load_instance(args) -> tuple[Shape, ScoreLists]:
    doc = _read_document(args.instance)
    shape = _shape_from_doc(doc)
    return shape, _lists_from_doc(doc, shape, args.sort)


def _shape_from_flags(args) -> Shape:
    try:
        n = tuple(int(x) for x in args.n.split(","))
        alpha = tuple(int(x) for x in args.alpha.split(","))
    except ValueError as exc:
        raise InputError(f"bad shape flags: {exc}") from exc
    try:
        return Shape(n, alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _instance_doc(shape: Shape, lists: ScoreLists) -> dict:
    return {
        "k": shape.k,
        "n": list(shape.n),
        "alpha": list(shape.alpha),
        "kind": lists.kind,
        "lists": [list(lst) for lst in lists.lists],
    }


def _check_doc(kind: str, result: CheckResult) -> dict:
    violation = None
    if result.witness_violation is not None:
        violation = {
            "prefix": list(result.witness_violation.prefix),
            "lhs": result.witness_violation.lhs,
            "rhs": result.witness_violation.rhs,
        }
    return {
        "kind": kind,
        "valid": result.valid,
        "equality_at_full": result.equality_at_full,
        "violation": violation,
    }


def _emit(doc: dict, args, text_renderer=None) -> None:
    try:
        out = text_renderer(doc) if args.format == "text" and text_renderer else json.dumps(doc)
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise CapacityError(f"an output integer is too long to print: {exc}") from exc
    print(out)


# Losers or arcs that _emit_witness joins into one write.
_CHUNK = 4096


def _emit_witness(doc: dict, M: Hypertournament, args) -> None:
    """Write doc with M's losers or arcs, as ``--emit`` asks, as its last key:
    the head, then the items _CHUNK at a time. Each vertex is one string made
    per id, "[p, i]" in JSON and "p.i" in text; an arc is its rank's selection
    with the loser moved last, or its kept order. A witness's integers are
    all short, so the head needs no guard against the digit limit."""
    shape, ids, text = M.shape, M._ids, args.format == "text"
    form, sep = ("{}.{}", " ") if text else ("[{}, {}]", ", ")
    names = [form.format(p, i) for p, n_i in enumerate(shape.n, 1) for i in range(1, n_i + 1)]
    if args.emit == "losers":
        items, between = ids, sep
        chunk = lambda a, b: map(names.__getitem__, ids[a:b])
    else:
        items, between, (op, cl) = ids, "\n" if text else ", ", ("", "") if text else ("[", "]")
        if M._orders is None:
            sels, lead = _selection_ids(shape), [name + sep for name in names]
            chunk = lambda a, b: [f"{op}{''.join([lead[x] for x in sel if x != i])}{names[i]}{cl}"
                                  for sel, i in zip(sels[a:b], ids[a:b])]
        else:
            items, name = M._orders, names.__getitem__
            chunk = lambda a, b: [f"{op}{sep.join(map(name, o))}{cl}" for o in items[a:b]]
    write = sys.stdout.write
    write(_text_instance(doc) + "\n" if text else json.dumps(doc)[:-1] + f', "{args.emit}": [')
    for a in range(0, len(items), _CHUNK):
        write((between if a else "") + between.join(chunk(a, a + _CHUNK)))
    write("\n" if text else "]}\n")


def _text_instance(doc: dict) -> str:
    header = [str(doc["k"])] + [str(x) for x in doc["n"]] + [str(x) for x in doc["alpha"]]
    header.append(doc["kind"])
    lines = [" ".join(header)]
    lines += [" ".join(str(x) for x in lst) for lst in doc["lists"]]
    return "\n".join(lines)


def _text_check(doc: dict) -> str:
    if doc["valid"]:
        return "valid"
    v = doc["violation"]
    return f"invalid at p={tuple(v['prefix'])}: lhs={v['lhs']} rhs={v['rhs']}"


def cmd_check(args) -> int:
    shape, lists = _load_instance(args)
    fn = check_losing_lists if lists.kind == "losing" else check_score_lists
    result = fn(shape, lists)
    _emit(_check_doc(lists.kind, result), args, _text_check)
    return EXIT_OK if result.valid else EXIT_INVALID


def cmd_realize(args) -> int:
    shape, lists = _load_instance(args)
    kind = lists.kind
    result = (check_losing_lists if kind == "losing" else check_score_lists)(shape, lists)
    if not result.valid:
        _emit(_check_doc(kind, result), args, _text_check)
        return EXIT_INVALID
    if kind == "score":
        try:
            lists = scores_to_losing(shape, lists)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _note("score lists converted to losing lists for realization")

    realizer = realize_inductive if args.method == "inductive" else realize_flow
    try:
        M = realizer(shape, lists)
    except (RealizationGapError, InfeasibleError) as exc:
        _note(f"error: {exc}")
        return EXIT_GAP
    except InvalidListsError as exc:
        _emit(_check_doc("losing", exc.result), args, _text_check)
        return EXIT_INVALID

    doc = _instance_doc(shape, lists)
    doc["method"] = args.method
    if kind == "score":
        doc["converted_from_score"] = True
    _emit_witness(doc, M, args)
    return EXIT_OK


def _witness_vertices(doc: dict, shape: Shape | None) -> list[list]:
    """Each of a witness's arrays of vertex pairs (its arcs, then its losers,
    [] when absent) as the ids of ``shape``'s vertices, read from 1-based
    pairs; ``shape`` None finds no vertex. One pass looks each pair of ints
    (only ints: True == 1 and hashes alike) up. Then only the entries it
    missed are read again, in document order: an integral float finds its
    vertex, a pair outside the shape becomes its VertexId, so that a
    violation names it, and the first entry that is not a pair of integers
    raises InputError; every entry the pass found is such a pair. If the pass
    meets an entry that does not unpack into two, every entry is read again."""
    table = {}
    if shape is not None:
        offsets = shape.offsets
        table = {(p + 1, i - first + 1): i for p, first in enumerate(offsets[:-1])
                 for i in range(first, offsets[p + 1])}
    groups = [*doc.get("arcs", ()), doc.get("losers", [])]
    try:
        found = [
            [table.get((a, b)) if type(a) is int and type(b) is int else None
             for a, b in (pairs if type(pairs) is list else [None])]
            for pairs in groups
        ]
    except (TypeError, ValueError):  # an entry that does not unpack into two
        found = [[None] * len(pairs) if type(pairs) is list else [None] for pairs in groups]
    for i in [i for i, ids in enumerate(found) if None in ids]:
        pairs, ids = groups[i], found[i]
        path = f"arcs[{i}]" if i < len(groups) - 1 else "losers"
        if type(pairs) is not list:
            raise _schema_error(path, "an array of vertex pairs")
        j = -1
        for _ in range(ids.count(None)):
            j = ids.index(None, j + 1)
            pair = pairs[j]
            if type(pair) is not list or len(pair) != 2 or not all(map(_integral, pair)):
                raise _schema_error(f"{path}[{j}]", "a pair of integers")
            a, b = map(int, pair)
            ids[j] = VertexId(a - 1, b - 1) if (v := table.get((a, b))) is None else v
    return found


def _hypertournament_from_doc(doc: dict, shape: Shape) -> Hypertournament:
    """The witness of a document, its pairs read as ids by _witness_vertices:
    its losers, or its arcs, which the model keeps as their losers when each
    is canonical. Both arrays leave doc, so they are freed before M is built."""
    if "arcs" not in doc and "losers" not in doc:
        raise InputError("witness document needs an 'arcs' or 'losers' field")
    by_arcs = "arcs" in doc
    *arcs, losers = _witness_vertices(doc, shape)
    for key in ("arcs", "losers"):
        doc.pop(key, None)
    if by_arcs:
        return Hypertournament._from_id_orders(shape, arcs)
    return Hypertournament._from_ids(shape, losers)


def cmd_verify(args) -> int:
    doc = _read_document(args.witness, witness=True)
    try:
        shape = _shape_from_doc(doc)
        shape.vertices()  # raises CapacityError past the vertex limit
    except (InputError, CapacityError):
        _witness_vertices(doc, None)  # a pair's schema error comes first
        raise
    M = _hypertournament_from_doc(doc, shape)
    violations = validate(M)
    out = {
        "structure_valid": not violations,
        "violations": [
            {"selection_rank": v.selection_rank, "kind": v.kind, "detail": v.detail}
            for v in violations
        ],
        "arc_count": len(M._ids),
    }
    lists_match = None
    if not violations:
        # Exact for a well-formed witness: a vertex's score is the number of
        # arcs through it minus its losses.
        losing = losing_scores(M)
        score = losing_to_scores(shape, losing)
        out["losing_lists"] = [list(lst) for lst in losing.lists]
        out["score_lists"] = [list(lst) for lst in score.lists]
        out["losing_total"] = losing.total()
        out["score_total"] = score.total()
        if "lists" in doc and "kind" in doc:
            recomputed = losing if doc["kind"] == "losing" else score
            lists_match = [list(lst) for lst in recomputed.lists] == doc["lists"]
    out["lists_match"] = lists_match

    def renderer(d):
        if not d["structure_valid"]:
            return "\n".join(
                f"violation rank={v['selection_rank']} {v['kind']}: {v['detail']}"
                for v in d["violations"]
            )
        match = {None: "n/a", True: "yes", False: "NO"}[d["lists_match"]]
        return (
            f"structure ok; losing={d['losing_lists']} score={d['score_lists']} "
            f"totals={d['losing_total']}/{d['score_total']} lists match: {match}"
        )

    _emit(out, args, renderer)
    if violations or lists_match is False:
        return EXIT_INVALID
    return EXIT_OK


def cmd_convert(args) -> int:
    shape, lists = _load_instance(args)
    try:
        if lists.kind == "losing":
            converted = losing_to_scores(shape, lists)
        else:
            converted = scores_to_losing(shape, lists)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(_instance_doc(shape, converted), args, _text_instance)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    shape = _shape_from_flags(args)
    ach = achievable_losing_lists(shape, budget=args.budget)
    if args.kind == "score":
        lists = sorted(_score_tuples(shape, ach.lists))
    else:
        lists = sorted(ach.lists)
    doc = {
        "k": shape.k,
        "n": list(shape.n),
        "alpha": list(shape.alpha),
        "kind": args.kind,
        "count": len(lists),
        "assignments": ach.assignment_count,
        "lists": [[list(lst) for lst in tup] for tup in lists],
    }

    def renderer(d):
        lines = [f"{d['count']} achievable {d['kind']} list tuples"]
        lines += [" | ".join(" ".join(str(x) for x in lst) for lst in tup) for tup in d["lists"]]
        return "\n".join(lines)

    _emit(doc, args, renderer)
    return EXIT_OK


def cmd_random(args) -> int:
    shape = _shape_from_flags(args)
    M = random_hypertournament(shape, args.seed, args.mode)
    losing = losing_scores(M)
    doc = _instance_doc(shape, losing)
    doc["seed"] = args.seed
    doc["mode"] = args.mode
    doc["score_lists"] = [list(lst) for lst in losing_to_scores(shape, losing).lists]
    _emit_witness(doc, M, args)
    return EXIT_OK


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["json", "text"], default="json",
                     help="output format (default json)")


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer 0 <= seed < 2^64, so that no two seeds
    name the same SplitMix64 stream."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"expected an integer 0 <= seed < 2^64, got {text!r}")
    return seed


def _budget(text: str) -> int:
    """A ``--budget`` value: an integer budget >= 0."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"expected an integer budget >= 0, got {text!r}")
    return budget


def _add_shape_flags(sub) -> None:
    sub.add_argument("--n", required=True, help="comma-separated part sizes, e.g. 2,2")
    sub.add_argument("--alpha", required=True, help="comma-separated arities, e.g. 1,1")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="hyperscores",
        description="Check, realize, verify, convert, and enumerate score lists "
        "of multipartite hypertournaments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="decide whether an instance's lists are realizable")
    p.add_argument("instance", help="instance file (JSON or text), '-' for stdin")
    p.add_argument("--sort", action="store_true", help="sort unsorted input lists")
    _add_format(p)
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("realize", help="construct a witness hypertournament")
    p.add_argument("instance", help="instance file (JSON or text), '-' for stdin")
    p.add_argument("--method", choices=["inductive", "flow"], default="inductive")
    p.add_argument("--emit", choices=["losers", "arcs"], default="arcs")
    p.add_argument("--sort", action="store_true", help="sort unsorted input lists")
    _add_format(p)
    p.set_defaults(handler=cmd_realize)

    p = subs.add_parser("verify", help="validate a witness and recompute its lists")
    p.add_argument("witness", help="witness file (JSON), '-' for stdin")
    _add_format(p)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("convert", help="convert between losing and score lists")
    p.add_argument("instance", help="instance file (JSON or text), '-' for stdin")
    p.add_argument("--sort", action="store_true", help="sort unsorted input lists")
    _add_format(p)
    p.set_defaults(handler=cmd_convert)

    p = subs.add_parser("enumerate", help="enumerate the achievable lists of a shape")
    _add_shape_flags(p)
    p.add_argument("--kind", choices=["losing", "score"], default="losing")
    p.add_argument("--budget", type=_budget, default=DEFAULT_ASSIGNMENT_BUDGET,
                   help="assignment enumeration budget, an integer >= 0 (default %(default)s)")
    _add_format(p)
    p.set_defaults(handler=cmd_enumerate)

    p = subs.add_parser("random", help="generate a seeded random hypertournament")
    _add_shape_flags(p)
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed, an integer 0 <= seed < 2^64 (default 0)")
    p.add_argument("--mode", choices=["loser-only", "full-permutation"], default="loser-only")
    p.add_argument("--emit", choices=["losers", "arcs"], default="losers")
    _add_format(p)
    p.set_defaults(handler=cmd_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _collector_paused():  # a command makes no reference cycle
            code = args.handler(args)
            sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except InputError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except (CapacityError, BudgetExceededError) as exc:
        _note(f"error: {exc}")
        return EXIT_RESOURCE
    except BrokenPipeError:
        # The interpreter's last flush of stdout at exit then writes to nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note("error: stdout was closed before the output was written")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
