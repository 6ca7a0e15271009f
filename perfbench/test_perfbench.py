"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repo root.

Each workload runs at the ``tiny`` size, untraced and traced, through the
same command the benchmark is run with.  The result line must carry every
metric ``BENCHMARK.json`` declares, with its unit, and a traced run's
spans must cover the operation time, the rest reported as unexplained.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.coverage"]["value"] >= 0.9
        assert metrics["trace.unexplained_ms"]["value"] >= 0.0
        detail = json.loads(done.stdout.strip().splitlines()[-2])
        spans = detail["spans"]
        assert spans["operations"] > 0
        assert spans["coverage"] == pytest.approx(metrics["trace.coverage"]["value"])


@pytest.mark.parametrize("workload, names", [
    ("train-d2stgnn", ("tensor.matmul_fwd_count", "tensor.matmul_bwd_count")),
    ("serve-city-k2", ("router.publish_count",)),
])
def test_exact_counts_repeat_across_runs(workload, names):
    first, second = (_run(workload, 1) for _ in range(2))
    counts = [
        {name: json.loads(done.stdout.strip().splitlines()[-1])["metrics"][name]["value"]
         for name in names}
        for done in (first, second)
    ]
    assert counts[0] == counts[1] and all(value > 0 for value in counts[0].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forecast_mae_repeats_for_a_seed(workload):
    """Two processes with the same seed score the same MAE, bit for bit."""
    runs = [_run(workload, 0) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = [done.stdout.strip().splitlines() for done in runs]
    maes = [json.loads(out[-1])["metrics"]["forecast_mae"]["value"] for out in lines]
    assert maes[0] == maes[1]
    if workload == "train-d2stgnn":
        losses = [json.loads(out[-2])["check_losses"] for out in lines]
        assert losses[0] == losses[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_span_report_self_time_and_coverage():
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.common import Span, span_report

    spans = [
        Span(1, "op", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, None),
        Span(3, "b", 3.0, 8.0, 1, None),  # overlaps a: covered union is 1..8
        Span(4, "c", 2.0, 3.0, 2, None),
    ]
    report = span_report(spans, "op")
    assert report["coverage"] == pytest.approx(0.7)
    assert report["unexplained_ms_per_op"] == pytest.approx(3000.0)
    assert report["layers"]["a"]["self_ms_per_op"] == pytest.approx(2000.0)
