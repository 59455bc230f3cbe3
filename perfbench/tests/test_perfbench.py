"""The benchmark's own tests: tiny runs of every workload, checking works.

    python3 -m pytest perfbench/tests -q

Each run uses ``--size tiny`` (inputs of a few thousand slots), so the
whole file takes well under two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pbench import layers, trace  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]


def run(workload: str, *extra: str, trace_flag: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace_flag), "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace_flag):
    result = result_of(run(workload, trace_flag=trace_flag))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace_flag else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        printed = result["metrics"][entry["name"]]
        assert printed["unit"] == entry["unit"]
        assert isinstance(printed["value"], float)
    if not trace_flag:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_raises_error_rate(workload):
    result = result_of(run(workload, "--wrong-oracle"))
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    proc = run("fig2-mine", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_declared_per_layer_metrics_match_the_analysis():
    declared = {entry["name"]: entry["unit"] for entry in CONFIG["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in
                        layers.PER_LAYER.items()}


def test_self_time_subtracts_children_and_coverage_unions_roots():
    spans = [
        [1, None, 1, "core.mine", 0.0, 10.0, None],
        [2, 1, 1, "core.scan1", 1.0, 3.0, None],
        [3, 1, 1, "tree.derive", 4.0, 8.0, None],
        [4, 3, 1, "tree.insert", 5.0, 6.0, None],
        [5, None, 1, "timeseries.load", 12.0, 14.0, None],
    ]
    own = trace.self_times(spans)
    assert own == {"core": 4.0 + 2.0, "tree": 3.0 + 1.0, "timeseries": 2.0}
    assert trace.covered(spans, 0.0, 20.0) == 12.0
    assert trace.total(spans, "core.scan1") == 2.0


def test_nested_spans_of_one_name_count_once():
    spans = [
        [1, None, 1, "core.scan1", 0.0, 4.0, None],
        [2, 1, 1, "core.scan1", 1.0, 3.0, None],
    ]
    assert trace.total(spans, "core.scan1") == 4.0
    assert trace.self_times(spans) == {"core": 4.0}


def test_serve_feed_check_counts_a_missing_window():
    from pbench import common, serve

    oracle = serve.Oracle(windows={0: {}, 1: {}, 2: {}})
    tally = common.Tally()
    serve.check_emitted([0, 2], oracle, tally)
    serve.check_emitted([0, 1, 2], oracle, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
