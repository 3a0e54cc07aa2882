"""Benchmark of the hyperscores package: four closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload check --seed 1 --seconds 25 --trace 0

One process and one thread make every call, each after the previous one
returned. A run makes a fixed number of whole passes over a fixed, seeded list
of inputs (no time-boxed loop) and keeps, for every input, its fastest repeat
across the passes: the host alternates between two speeds about 2x apart in
phases of 5-15 s, and the fastest of repeats spread over several phases does
not depend on how much of the run fell in a slow one. Slow and fast eras that
last longer than a run are taken out by a host-speed reference: fixed
interpreter work, timed the same way, to whose speed every reported time is
scaled. Between passes a fresh interpreter times set-up. With ``--trace 1``
each pass times every operation traced and untraced, and the run reports
per-layer metrics instead (see spans.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("check", "realize", "ground-truth", "cli")

# Typical seconds of one untraced pass plus the fresh-interpreter set-up after
# it, on a 2-core x86-64 VM. The pass count is --seconds divided by this, so
# it depends only on the arguments, never on how fast the host happens to be.
NOMINAL_PASS_S = {"check": 4.5, "realize": 5.5, "ground-truth": 2.6, "cli": 3.2}
MIN_PASSES = 3
# A run that takes this many times --seconds stops after the pass in flight.
SAFETY_FACTOR = 3

TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many inputs beyond it

# Host-speed reference. Its fastest repeats track the host's slow and fast
# eras, which last minutes, longer than a run. Every reported time is scaled
# to a host on which the reference operation takes REFERENCE_MS.
REFERENCE_EVERY = 10  # one reference operation after every 10 operations
REFERENCE_MS = 6.0  # about its fastest time on the VM the benchmark was built on

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}

# Set-up as a CLI user pays it: import hyperscores.cli, then build the
# workload's selection tables through the public selection_vertices.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hyperscores.cli
import json
from hyperscores import Shape, selection_vertices
for n, alpha in json.loads(sys.argv[2]):
    selection_vertices(Shape(tuple(n), tuple(alpha)))
print(time.perf_counter() - t0)
"""


def generate_inputs(workload: str, seed: int):
    """Inputs from a child interpreter, so that making them sets no peak here."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def fresh_setup_seconds(shapes) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(shapes)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def reference_op() -> int:
    """Fixed interpreter work that uses no part of the package: dict and tuple
    building, a keyed sort, a JSON round trip, and a scan over integer tuples
    with generator sums and exact products."""
    table = {(i, i * 7 % 13): [i, str(i)] for i in range(3000)}
    rows = sorted(table.items(), key=lambda kv: kv[1][0] % 97)
    doc = json.loads(json.dumps([[key[0], value[1]] for key, value in rows[:800]]))
    sums = [list(range(j, j + 14)) for j in range(3)]
    total = len(doc)
    for p in itertools.product(range(14), repeat=3):
        bound = 1
        for i, p_i in enumerate(p):
            bound *= p_i + i
        total += sum(sums[i][p_i] for i, p_i in enumerate(p)) < bound
    return total


def tail_percentile(n: int) -> tuple[int, int]:
    """(percentile, index into the sorted values) of the highest whole
    percentile that leaves TAIL_BEYOND values beyond it (fewer when n is small)."""
    beyond = min(TAIL_BEYOND, n - 1)
    pct = 100 * (n - beyond) // n
    return pct, max(0, math.ceil(pct * n / 100) - 1)


class Measurement:
    """Timings and outcomes of every operation over the passes of one run."""

    def __init__(self, n_ops: int):
        self.best_ns = [math.inf] * n_ops
        self.best_traced_ns = [math.inf] * n_ops
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # (op index, kind, reason) of failures not known beforehand
        self.known = Counter()  # kind of known-defect operation -> failures
        self.setup_s = []
        self.pass_s = []
        self.best_ref_ns = []  # fastest repeat of each reference slot
        self.cold = Counter()  # per-layer sums of the first traced (cold) pass
        self.layer_by_op = {}  # per-layer sums of each input's fastest traced repeat
        self.spans_by_op = {}


def run_op(i: int, op, ctx: dict, m: Measurement, recorder=None, cold=False) -> None:
    """Prepare, time and check one operation; ``recorder`` traces the call."""
    m.attempted += 1
    result = reason = ns = None
    try:
        arg = op.prepare(ctx)
    except Exception as exc:  # an earlier write in this pass failed
        reason = f"no input: {exc!r}"
    else:
        if recorder is not None:
            recorder.begin(op.kind)
        t0 = time.perf_counter_ns()
        try:
            result = op.run(arg)
        except Exception as exc:
            reason = f"raised {exc!r}"
        ns = time.perf_counter_ns() - t0 if recorder is None else recorder.end()
        if reason is None:
            try:
                reason = op.check(result, ctx)
            except Exception as exc:
                reason = f"unexpected output: {exc!r}"
    if reason is not None:
        m.failed += 1
        if op.known_defect:
            m.known[op.kind] += 1
        else:
            m.unexpected.append((i, op.kind, reason))
    if ns is None:
        return
    if recorder is None:
        m.best_ns[i] = min(m.best_ns[i], ns)
        return
    summary = recorder.summary(op.doc_bytes(arg, result) if result else 0)
    if cold:
        m.cold += summary
    if ns < m.best_traced_ns[i]:
        m.best_traced_ns[i] = ns
        m.layer_by_op[i] = summary
        m.spans_by_op[i] = recorder.spans


def run_pass(ops, m: Measurement, recorder=None, traced_first=True) -> None:
    """One pass over every operation, in order. With a recorder, each operation
    runs traced and untraced back to back, so that the overhead ratio compares
    repeats made at the same host speed; the first pass runs the traced one
    first, with cold caches."""
    ctx = {}
    cold = recorder is not None and not m.layer_by_op
    for i, op in enumerate(ops):
        if i % REFERENCE_EVERY == 0:
            run_reference(m, i // REFERENCE_EVERY)
        if recorder is None:
            run_op(i, op, ctx, m)
            continue
        for traced in (True, False) if traced_first else (False, True):
            if not traced:
                run_op(i, op, ctx, m)
                continue
            recorder.install()
            try:
                run_op(i, op, ctx, m, recorder, cold)
            finally:
                recorder.uninstall()


def run_reference(m: Measurement, slot: int) -> None:
    t0 = time.perf_counter_ns()
    reference_op()
    ns = time.perf_counter_ns() - t0
    if slot == len(m.best_ref_ns):
        m.best_ref_ns.append(ns)
    m.best_ref_ns[slot] = min(m.best_ref_ns[slot], ns)


def host_scale(m: Measurement) -> float:
    """Factor from measured times to times on the reference host."""
    return REFERENCE_MS * 1e6 / statistics.mean(m.best_ref_ns)


def measure(workload: str, inputs, passes: int, trace: bool, deadline_s: float) -> Measurement:
    """Run ``passes`` whole passes. Untraced runs time a fresh-interpreter
    set-up between each pair of passes; traced runs time every operation both
    traced and untraced, alternating which goes first."""
    from workloads import build_ops, setup_shapes

    ops = build_ops(workload, inputs)
    m = Measurement(len(ops))
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
    shapes = [[list(n), list(a)] for n, a in setup_shapes(workload, inputs)]
    start = time.perf_counter()
    for p in range(passes):
        t0 = time.perf_counter()
        run_pass(ops, m, recorder, traced_first=p % 2 == 0)
        m.pass_s.append(time.perf_counter() - t0)
        if p == passes - 1:
            break
        if not trace:
            m.setup_s.append(fresh_setup_seconds(shapes))
        if time.perf_counter() - start > deadline_s and len(m.pass_s) >= 2:
            print(f"note: stopped after {len(m.pass_s)} of {passes} passes (time limit)")
            break
    return m


def end_to_end_metrics(m: Measurement, scale: float = 1.0) -> tuple[dict, str]:
    """End-to-end metrics, every time multiplied by ``scale``."""
    times_ms = sorted(ns / 1e6 * scale for ns in m.best_ns if ns != math.inf)
    n = len(times_ms)
    pct, idx = tail_percentile(n)
    values = {
        "ops_per_s": n / (sum(times_ms) / 1e3),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": times_ms[idx],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (m.attempted - m.failed) / m.attempted,
        "setup_s": min(m.setup_s) * scale,
    }
    note = f"op_tail_ms is p{pct} of {n} inputs ({n - 1 - idx} beyond it)"
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def per_layer(m: Measurement) -> dict:
    from spans import per_layer_metrics

    pairs = [
        (t, u) for t, u in zip(m.best_traced_ns, m.best_ns) if t != math.inf and u != math.inf
    ]
    overhead = sum(t for t, _ in pairs) / sum(u for _, u in pairs)
    ref_ms = statistics.mean(m.best_ref_ns) / 1e6
    return per_layer_metrics(
        sum(m.layer_by_op.values(), Counter()), m.cold, overhead, host_scale(m), ref_ms
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperscores" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    inputs = generate_inputs(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:  # each traced pass runs every operation twice
        passes = max(2, passes // 2)
    m = measure(args.workload, inputs, passes, bool(args.trace), SAFETY_FACTOR * args.seconds)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops_per_pass={len(m.best_ns)} attempted={m.attempted} failed={m.failed}"
    )
    print("pass seconds: " + " ".join(f"{s:.2f}" for s in m.pass_s))
    for kind, count in sorted(m.known.items()):
        print(f"known defect: {count} failed {kind} operations (expected; see bench/README.md)")
    for i, kind, reason in m.unexpected[:20]:
        print(f"FAILED op {i} ({kind}): {reason}")
    if args.trace:
        metrics = per_layer(m)
        path = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        from spans import write_spans

        write_spans(path, m.spans_by_op)
        print(f"spans of each input's fastest traced repeat: {path}")
    else:
        metrics, note = end_to_end_metrics(m, host_scale(m))
        raw, _ = end_to_end_metrics(m)
        print(note)
        print("as measured, before scaling: " + " ".join(
            f"{k}={v:.4f}" for k, (v, _) in raw.items() if k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s")
        ))
    print(
        f"host reference op: {statistics.mean(m.best_ref_ns) / 1e6:.3f} ms, "
        f"times scaled by {host_scale(m):.4f} to a {REFERENCE_MS} ms reference host"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": not m.unexpected,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
