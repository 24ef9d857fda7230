"""Smoke tests for the benchmark harness: run with ``python3 -m pytest bench``.

They run every workload at smoke size (every output check, every metric
name, no timing asserts) and check that a wrong output is counted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402


def _smoke(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_checks_everything_and_emits_every_metric(workload):
    result = _smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END) | set(run.PER_LAYER)


def test_wrong_output_is_counted_as_failed():
    import workloads
    from apimod.core import Label

    wl = workloads.DeepEval(seed=1, smoke=True)
    index = next(i for i, r in enumerate(wl.pool) if r.label.startswith("chain"))
    req = wl.pool[index]
    tally = run._Tally()
    tally.record(wl, index, lambda: wl.run(req))
    assert tally.failed == 0
    expected = req.data["expected"][0]
    node = next(iter(expected))
    expected[node] = Label.CONFLICT
    tally.record(wl, index, lambda: wl.run(req))
    assert tally.failed == 1 and "wrong labels" in tally.errors[0]


def test_spans_nest_across_layers():
    import spans
    import workloads

    wl = workloads.DeepEval(seed=1, smoke=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.run(wl.pool[0])
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    parent = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert "tokenize" in {names[i] for i, p in parent.items() if p == "parse_model"}
    assert "propagate" in {names[i] for i, p in parent.items() if p == "compare_scenarios"}
    assert "validate_goal_model" in {names[i] for i, p in parent.items() if p == "propagate"}
    from apimod import dsl
    assert not hasattr(dsl.parse_model, "__wrapped__")  # uninstalled
