"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIME_UNITS = {"s", "us", "%"}


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced tiny runs per workload, each one untraced and one traced pass."""
    return {name: [harness.run_workload(workload, seed=5, seconds=0, trace=True, tiny=True)
                   for _ in range(2)]
            for name, workload in WORKLOADS.items()}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(traced_twice, name):
    for meta, result in traced_twice[name]:
        assert meta["failures"] == []
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == 2 * len(meta["pool"])
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counts_repeat_exactly(traced_twice, name):
    (_, first), (_, second) = traced_twice[name]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIME_UNITS]
    assert counts
    assert ({c: first["metrics"][c] for c in counts}
            == {c: second["metrics"][c] for c in counts})


def test_untraced_run_reports_every_end_to_end_metric():
    meta, result = harness.run_workload(WORKLOADS["vdp-gradient"], seed=5, seconds=0,
                                        trace=False, tiny=True)
    assert result["correct"] is True
    assert meta["summary"]["error_rate"] == 0.0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_sampler_times_the_kernel_during_an_operation():
    with hostspeed.HostSampler() as sampler:
        mark = sampler.mark()
        end = time.perf_counter() + 3.5 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
        paused_s, ref_s = sampler.since(mark)
    samples = sampler.samples[mark[0]:]
    assert len(samples) >= 3
    assert paused_s == pytest.approx(sum(samples))
    assert ref_s == pytest.approx(sum(samples) / len(samples))


def test_wrong_expected_value_counts_as_failed_operation():
    workload = WORKLOADS["signal-study"]
    cases = workload.cases(seed=5, tiny=True)
    wrong = dataclasses.replace(
        cases[0], expect={**cases[0].expect,
                          "orders": {k: v + 1.0 for k, v in cases[0].expect["orders"].items()}})
    meta, result = harness.run_workload(workload, seed=5, seconds=0, trace=True,
                                        tiny=True, cases=[wrong, *cases[1:]])
    assert result["correct"] is False
    assert result["attempted"] == 2 * len(cases)
    assert result["failed"] == 2  # the planted case, once untraced and once traced
    assert any("slope" in message for message in meta["failures"])


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "vdp-gradient",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout == ""
