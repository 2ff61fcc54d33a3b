"""Self-test of the benchmark harness at toy size: result shape and the trace
self-check. No timing is asserted.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import TOY_WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def check_shape(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def traced_results():
    return {name: run.run_benchmark(w, seed=3, seconds=0.1, trace=True) for name, w in TOY_WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name):
    result = run.run_benchmark(TOY_WORKLOADS[name], seed=3, seconds=0.1, trace=False)
    check_shape(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_traced_run_passes_self_check(traced_results, name):
    result = traced_results[name]
    check_shape(result, SPEC["per_layer"])
    # correct covers the trace self-check: counts equal the output's own, spans fired.
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["values.evaluations"] > 0
    assert metrics["models.predict_rows"] >= metrics["models.predict_calls"] > 0
    assert 0 < metrics["attribution.dedupe_ratio"] <= 1


def test_self_check_flags_silent_span_and_miscount():
    workload = TOY_WORKLOADS["toy_explain"]
    doc = {"metadata": {"value_evaluations": 10, "prediction_rows": 640}}
    summary = {
        "boundaries": {name: {"calls": 1, "items": 0, "total_s": 0.0, "self_s": 0.0}
                       for name in workload.spans},
        "value_evaluations": 10,
        "predict_rows_in_global": 640,
    }
    assert run.trace_problems(workload, doc, summary) == []
    wrong = copy.deepcopy(summary)
    wrong["boundaries"]["coalitions.enumerate_consistent"]["calls"] = 0
    assert any("never fired" in p for p in run.trace_problems(workload, doc, wrong))
    wrong = copy.deepcopy(summary)
    wrong["predict_rows_in_global"] = 64
    assert any("predictor rows" in p for p in run.trace_problems(workload, doc, wrong))
    wrong = copy.deepcopy(summary)
    wrong["value_evaluations"] = 20
    assert any("value evaluations" in p for p in run.trace_problems(workload, doc, wrong))


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
