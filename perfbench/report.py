"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/report.py

Runs `perfbench/run.py` once untraced and once traced per workload, with
seed SEED for the `run_seconds` of BENCHMARK.json, each in a fresh process,
and prints one table row per metric: the bounded ones of BENCHMARK.json,
then the untraced run's summary (operations, error rate, median seconds
per operation, throughput and, where a run holds 100 operations, the 90th
percentile).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import harness  # noqa: F401  (puts the lcowind sources on the import path)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
SUMMARY_UNITS = {"operations": "count", "error_rate": "ratio", "op_s_p50": "s",
                 "ops_per_s": "1/s", "op_s_p90": "s"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=900)
    meta_line, result_line = completed.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main() -> int:
    print(f"{'workload':<14} {'metric':<40} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            meta, result = run(workload, trace)
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows += [(name, value, SUMMARY_UNITS[name])
                         for name, value in meta["summary"].items()]
            for name, value, unit in rows:
                print(f"{workload:<14} {name:<40} {value:>14.6g}  {unit}")
            if meta["failures"]:
                print(f"{workload:<14} failures: {meta['failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
