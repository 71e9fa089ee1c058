"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, untraced and traced, must print every metric BENCHMARK.json
names, pass every correctness check except the known invalid-input
offenders, and repeat its counters exactly from pass to pass.  Outside a
checkout the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seconds", "0.5", "--tiny"]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import harness  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
from workloads import SHORT_LENGTHS, TINY_DOVETAIL_BUDGETS  # noqa: E402


def _exact_count(workload):
    """The tiny workload's per-pass count, from closed forms, or None."""
    if workload == "dovetail":
        return "enumerators.emitted", sum(
            sum(min(length, len(order)) for length in SHORT_LENGTHS) + len(order)
            for model, budgets in TINY_DOVETAIL_BUDGETS.items()
            for order in reference.dovetail_orders(model, budgets).values()
        )
    if workload == "oracle":
        return "oracle.instances", sum(
            reference.oracle_instances(pid, min(n, 3)) for pid, n in reference.ORACLE_N.items()
        )
    return None


def _run(workload, trace, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1

    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    record = json.loads(
        (ROOT / "perfbench" / "out" / f"{workload}-seed7-trace{trace}-tiny.json").read_text()
    )
    assert all(key.startswith("cli offender ") for key in record["failures"]), record["failures"]
    assert record["setup_failures"] == []
    counters = record["counters_per_pass"]
    assert all(c == counters[0] for c in counters)
    for key in ("seed", "python", "nproc", "commit"):
        assert key in record["meta"]
    if trace and _exact_count(workload):
        name, value = _exact_count(workload)
        assert result["metrics"][name]["value"] == value


def test_benchmark_json_matches_metrics_module():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


def test_times_are_divided_by_the_host_slowdown():
    passes = [harness.Pass(0.3, [0.1, 0.2], [], {}, [2e-3, 2e-3]) for _ in range(3)]
    scaled = metrics.end_to_end(passes, [0.4, 0.6], [4e-3, 4e-3], 10.0, 1e-3)
    raw = metrics.end_to_end(passes, [0.4, 0.6], [4e-3, 4e-3], 10.0)
    assert scaled["wall_s"] == pytest.approx(raw["wall_s"] / 2) == pytest.approx(0.15)
    assert scaled["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / 2)
    assert scaled["setup_s"] == pytest.approx(raw["setup_s"] / 4) == pytest.approx(0.125)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 10.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("listings", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
