"""Span recording for the traced run, from outside the package.

``Recorder.install`` replaces public functions at layer boundaries, as bound in
the namespace of the module that calls them, with wrappers that record one
span per call: name, start, end, parent span and operation. No source file is
edited; ``uninstall`` puts the originals back. Spans stay in memory until the
run ends. Self time is a span's duration minus the durations of its children,
which never overlap because the benchmark runs one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter_ns

import hyperscores.cli
import hyperscores.model
import hyperscores.oracle
import hyperscores.realize
from hyperscores import criteria

CHECKS = ("criteria.check_losing_lists", "criteria.check_score_lists")

# (module, attribute) pairs that get a span per call. The names imported into
# hyperscores.cli from the library are added in Recorder.__init__.
SPAN_POINTS = [
    (criteria, "check_losing_lists"),
    (criteria, "check_score_lists"),
    (hyperscores.realize, "realize_inductive"),
    (hyperscores.realize, "realize_flow"),
    (hyperscores.realize, "check_losing_lists"),
    (hyperscores.realize, "selection_vertices"),
    (hyperscores.oracle, "cross_validate"),
    (hyperscores.oracle, "achievable_losing_lists"),
    (hyperscores.oracle, "bounded_candidate_lists"),
    (hyperscores.oracle, "check_losing_lists"),
    (hyperscores.oracle, "check_score_lists"),
    (hyperscores.oracle, "losing_to_scores"),
    (hyperscores.oracle, "selection_vertices"),
    (hyperscores.model, "selection_vertices"),
    (hyperscores.cli, "main"),
]

# Called once per selection, so only counted: a span each would dominate.
COUNT_POINTS = [(hyperscores.realize, "selection_rank")]


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _prefix_tuples(shape, result) -> int:
    """Prefix tuples a check scanned: all of them when the scan ran to the end,
    else the lexicographic rank of the witness plus one."""
    w = result.witness_violation
    if w is None:
        rank_plus_one = 1
        for n_i in shape.n:
            rank_plus_one *= n_i + 1
        return rank_plus_one
    rank = 0
    for p_i, n_i in zip(w.prefix, shape.n):
        rank = rank * (n_i + 1) + p_i
    return rank + 1


class Recorder:
    """Spans of the operation in flight, and the wrappers that record them."""

    def __init__(self):
        points = list(SPAN_POINTS)
        for attr, obj in vars(hyperscores.cli).items():
            module = getattr(obj, "__module__", "") or ""
            if (
                callable(obj)
                and not inspect.isclass(obj)
                and module.startswith("hyperscores.")
                and module != "hyperscores.cli"
            ):
                points.append((hyperscores.cli, attr))
        self._points = [(m, a) for m, a in points if hasattr(m, a)]
        self._counts_at = [(m, a) for m, a in COUNT_POINTS if hasattr(m, a)]
        self._saved = []
        self.spans = []  # (name, site, parent, t0, t1, info) of the current operation
        self.counts = Counter()
        self._stack = []

    # -- installing

    def install(self) -> None:
        for module, attr in self._points:
            fn = getattr(module, attr)
            site = module.__name__.rsplit(".", 1)[-1]
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, site))
        for module, attr in self._counts_at:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._count(fn, _layer_name(fn)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, name, site) -> int:
        sid = len(self.spans)
        self.spans.append([name, site, self._stack[-1] if self._stack else -1, perf_counter_ns(), 0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, info=None) -> None:
        span = self.spans[sid]
        span[4] = perf_counter_ns()
        span[5] = info
        self._stack.pop()

    def _wrap(self, fn, site):
        name = _layer_name(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, site)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid = self._open(name, site)
            info = None
            try:
                result = fn(*args, **kwargs)
                if name in CHECKS:
                    info = (_prefix_tuples(args[0], result), result.valid)
                elif name == "oracle.achievable_losing_lists":
                    info = result.assignment_count
                return result
            finally:
                if cache_info:
                    info = cache_info().misses - misses
                self._close(sid, info)

        return wrapper

    def _wrap_generator(self, fn, name, site):
        """One span per item drawn, so the consumer's time is not counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid = self._open(name, site)
                drawn = 0
                try:
                    item = next(items)
                    drawn = 1
                except StopIteration:
                    return
                finally:
                    self._close(sid, drawn)
                yield item

        return wrapper

    def _count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- one operation

    def begin(self, kind: str) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open(f"op.{kind}", "bench")

    def summary(self, doc_bytes: int) -> Counter:
        return summarize(self.spans, self.counts, doc_bytes)

    def end(self) -> int:
        """Close the operation's root span and return its duration in ns."""
        while self._stack:  # spans left open by an exception
            self._close(self._stack[-1])
        root = self.spans[0]
        return root[4] - root[3]


def summarize(spans, counts, doc_bytes: int) -> Counter:
    """Per-layer sums of one traced operation (times in ns)."""
    child_ns = [0] * len(spans)
    for name, site, parent, t0, t1, info in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    s = Counter()
    for (name, site, parent, t0, t1, info), children in zip(spans, child_ns):
        ns = t1 - t0
        self_ns = ns - children
        if name in CHECKS:
            tuples, valid = info or (0, True)
            s["criteria.calls"] += 1
            s["criteria.ns"] += ns
            s["criteria.tuples"] += tuples
            s["criteria.rejects"] += not valid
            if tuples <= 100:
                s["criteria.small_calls"] += 1
                s["criteria.small_ns"] += ns
            if site == "realize":
                s["realize.checks"] += 1
                s["realize.valid_checks"] += bool(valid)
            elif site == "oracle":
                s["oracle.checks"] += 1
        elif name == "realize.realize_inductive":
            s["realize.inductive_calls"] += 1
            s["realize.inductive_ns"] += ns
            s["realize.inductive_self_ns"] += self_ns
        elif name == "realize.realize_flow":
            s["realize.flow_ns"] += ns
            s["realize.flow_self_ns"] += self_ns
        elif name == "model.selection_vertices":
            s["model.sel_calls"] += 1
            if info:
                s["model.sel_misses"] += info
                s["model.sel_cold_ns"] += ns
        elif name == "model.validate":
            s["model.validate_ns"] += ns
        elif name in ("model.scores", "model.losing_scores"):
            s["model.scores_ns"] += ns
        elif name == "oracle.cross_validate":
            s["oracle.cross_validate_ns"] += ns
            s["oracle.self_ns"] += self_ns
        elif name == "oracle.achievable_losing_lists":
            s["oracle.achievable_ns"] += ns
            s["oracle.assignments"] += info or 0
        elif name == "oracle.bounded_candidate_lists":
            s["oracle.candidates"] += info or 0
        elif name == "oracle.random_hypertournament":
            s["oracle.random_ns"] += ns
        elif name == "cli.main":
            s["cli.self_ns"] += self_ns
        elif name == "op.verify":
            s["cli.verify_ns"] += ns
    s["combinatorics.selection_rank_calls"] += counts["combinatorics.selection_rank"]
    s["cli.doc_bytes"] += doc_bytes
    return s


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    s: Counter, cold: Counter, overhead_ratio: float, scale: float, reference_ms: float
) -> dict:
    """Per-layer metrics from summed operation summaries.

    ``s`` sums each input's fastest traced repeat; ``cold`` sums the first,
    cold-cache traced pass, which is where selection tables are built. Times
    are multiplied by ``scale`` (rates divided), as the end-to-end ones are.
    """

    def ms(ns):
        return ns * 1e-6 * scale

    saturation_checks = s["realize.checks"] - s["realize.inductive_calls"]
    steps = s["realize.valid_checks"] - s["realize.inductive_calls"]
    return {
        "criteria.calls": (s["criteria.calls"], "count"),
        "criteria.ms": (ms(s["criteria.ns"]), "ms"),
        "criteria.prefix_tuples": (s["criteria.tuples"], "count"),
        "criteria.ns_per_tuple": (_ratio(s["criteria.ns"], s["criteria.tuples"]) * scale, "ns"),
        "criteria.small_call_us": (
            _ratio(s["criteria.small_ns"], s["criteria.small_calls"]) / 1e3 * scale, "us"
        ),
        "criteria.reject_ratio": (_ratio(s["criteria.rejects"], s["criteria.calls"]), "ratio"),
        "realize.saturation_checks": (saturation_checks, "count"),
        "realize.saturation_accept_ratio": (_ratio(steps, saturation_checks), "ratio"),
        "realize.steps": (steps, "count"),
        "realize.inductive_ms": (ms(s["realize.inductive_ns"]), "ms"),
        "realize.inductive_self_ms": (ms(s["realize.inductive_self_ns"]), "ms"),
        "realize.flow_ms": (ms(s["realize.flow_ns"]), "ms"),
        "realize.flow_self_ms": (ms(s["realize.flow_self_ns"]), "ms"),
        "model.selection_table_calls": (s["model.sel_calls"], "count"),
        "model.selection_table_misses": (cold["model.sel_misses"], "count"),
        "model.selection_table_cold_ms": (ms(cold["model.sel_cold_ns"]), "ms"),
        "model.validate_ms": (ms(s["model.validate_ns"]), "ms"),
        "model.scores_ms": (ms(s["model.scores_ns"]), "ms"),
        "combinatorics.selection_rank_calls": (s["combinatorics.selection_rank_calls"], "count"),
        "oracle.cross_validate_ms": (ms(s["oracle.cross_validate_ns"]), "ms"),
        "oracle.achievable_ms": (ms(s["oracle.achievable_ns"]), "ms"),
        "oracle.assignments_per_s": (
            _ratio(s["oracle.assignments"], ms(s["oracle.achievable_ns"]) / 1e3), "1/s"
        ),
        "oracle.candidates": (s["oracle.candidates"], "count"),
        "oracle.check_calls": (s["oracle.checks"], "count"),
        "oracle.self_ms": (ms(s["oracle.self_ns"]), "ms"),
        "oracle.random_ms": (ms(s["oracle.random_ns"]), "ms"),
        "cli.verify_ms": (ms(s["cli.verify_ns"]), "ms"),
        "cli.self_ms": (ms(s["cli.self_ns"]), "ms"),
        "cli.doc_bytes": (s["cli.doc_bytes"], "bytes"),
        "cli.self_ns_per_byte": (_ratio(s["cli.self_ns"], s["cli.doc_bytes"]) * scale, "ns/byte"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "host.reference_ms": (reference_ms, "ms"),
    }


def write_spans(path, kept) -> None:
    """One JSON line per span of each input's fastest traced repeat:
    [op, span, parent, name, site, start_ns, end_ns], times from the op start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for op, spans in sorted(kept.items()):
            base = spans[0][3]
            for sid, (name, site, parent, t0, t1, info) in enumerate(spans):
                handle.write(json.dumps([op, sid, parent, name, site, t0 - base, t1 - base]) + "\n")
