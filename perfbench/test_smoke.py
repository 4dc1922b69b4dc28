"""Smoke test of the benchmark harness: every workload at minimal size.

    python3 -m pytest -q perfbench

Each run must pass the correctness gate and emit exactly the metric
names and units that BENCHMARK.json declares for its mode.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(cwd, workload, trace, smoke=True):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_known_defects_are_named():
    out = run_bench(ROOT, "cyclotomic-ladder", 0)
    unfinished = next(line for line in out.stdout.splitlines()
                      if line.startswith("unfinished"))
    assert "C50-p101/regular" in unfinished


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, it must exit
    non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0, smoke=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_fails_without_the_reference(tmp_path):
    for path in ("src", *BENCH["paths"]):
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "reference.json"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode == 2
    assert '"metrics"' not in out.stdout


def test_gate_statuses():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import classify
    ref = {"a": {"outcome": "report", "digest": "d"},
           "b": {"outcome": "error:GroupTooLarge"}, "c": {"outcome": "deadline"}}
    assert classify("a", "report", "d", {}, ref)[0] == "ok"
    assert classify("a", "report", "e", {}, ref)[0] == "wrong"
    assert classify("a", "deadline", None, None, ref)[0] == "wrong"
    assert classify("x", "report", "d", {}, ref)[0] == "wrong"
    assert classify("x", "error:GroupTooLarge", None, None, ref)[0] == "wrong"
    assert classify("b", "error:GroupTooLarge", None, None, ref)[0] == "unfinished"
    assert classify("b", "error:ValueError", None, None, ref)[0] == "wrong"
    assert classify("b", "deadline", None, None, ref)[0] == "wrong"
    assert classify("c", "deadline", None, None, ref)[0] == "unfinished"
    assert classify("c", "report", "d", {}, ref)[0] == "new"
    assert classify("fixture/gm_q", "report", "d", {"predicted_kt_order": "3"},
                    {"fixture/gm_q": {"outcome": "report", "digest": "d"}})[0] == "wrong"


def test_speed_gauge_scales_by_the_probes():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed
    gauge = speed.Gauge()
    with gauge.section() as sec:
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
    # a probe before, one after, and about one per PROBE_EVERY_S inside
    assert len(gauge.probes) >= 2 + int(0.1 / speed.PROBE_EVERY_S) // 2
    assert 0 < sec.seconds < 1
    window = gauge.probes[-speed.MIN_PROBES:]
    assert sec.factor == speed.REFERENCE_PROBE_S / statistics.mean(window)
    assert sec.scaled == sec.seconds * sec.factor
