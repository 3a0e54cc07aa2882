"""Self-test of the benchmark harness.

Runs two short passes over a few inputs of every workload, untraced and
traced, and checks that every metric named in BENCHMARK.json comes out with
its unit, that every operation's own correctness check passes and rejects a
corrupted result, and that the harness fails without the package source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from hyperscores.model import Arc, Hypertournament  # noqa: E402
from inputs import generate  # noqa: E402
from workloads import build_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def few_inputs(workload):
    inputs = generate(workload, 3)
    if workload == "cli":
        # Two sessions of seven calls, and the known-defect call, which reads
        # the second session's realized witness.
        return inputs[:14] + inputs[-1:]
    return inputs[:3]


def units(metrics):
    return {name: unit for name, (value, unit) in metrics.items()}


def test_workloads_match_the_spec():
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    m = run.measure(workload, few_inputs(workload), passes=2, trace=False, deadline_s=60)
    metrics, note = run.end_to_end_metrics(m)
    assert units(metrics) == {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert m.unexpected == []
    known = {"verify": 2} if workload == "cli" else {}
    assert dict(m.known) == known
    assert m.failed == sum(known.values())
    assert len(m.setup_s) == 1 and len(m.pass_s) == 2
    assert "inputs" in note


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    m = run.measure(workload, few_inputs(workload), passes=2, trace=True, deadline_s=60)
    metrics = run.per_layer(m)
    assert units(metrics) == {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert m.unexpected == []
    assert metrics["trace.overhead_ratio"][0] > 0
    assert m.spans_by_op and all(spans[0][0].startswith("op.") for spans in m.spans_by_op.values())


def _corrupt(workload, result):
    if workload == "check":
        return dataclasses.replace(result, valid=not result.valid)
    if workload == "realize":
        first = result.arcs[0].order
        rotated = Arc(first[1:] + first[:1])  # another vertex loses arc 0
        return Hypertournament(result.shape, (rotated,) + result.arcs[1:])
    if workload == "ground-truth":
        return dataclasses.replace(result, losing_accepted_count=result.losing_accepted_count + 1)
    code, text = result
    return code + 1, text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_rejects_a_corrupted_result(workload):
    ctx = {}
    for op in build_ops(workload, few_inputs(workload)):
        result = op.run(op.prepare(ctx))
        if not op.known_defect:
            assert op.check(result, dict(ctx)) is None
        assert op.check(_corrupt(workload, result), dict(ctx)) is not None
        op.check(result, ctx)  # keeps written documents for later reads


def test_tail_percentile_leaves_ten_inputs_beyond():
    assert run.tail_percentile(100) == (90, 89)
    assert run.tail_percentile(200) == (95, 189)
    assert run.tail_percentile(3) == (33, 0)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
