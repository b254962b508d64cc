"""Print the ROADMAP Open-items table: µs per step and model calls per step
for the primal, tangent and adjoint sweeps on Van der Pol.

    python3 perfbench/roadmap_table.py

Each of REPEATS repeats runs `lcowind tangent` then `lcowind adjoint`
(mu = 1, output x2, dt = 0.05, 1200 steps, bump window, fixed-point adjoint)
through the benchmark's traced path, at dtau = inf and at dtau = 1.  Times are medians
over the repeats and include the tracing overhead; the counts do not depend
on the machine and repeat exactly.
"""
from __future__ import annotations

import shutil
import statistics
import sys

import harness
from tracing import SWEEPS, Tracer, layer_metrics
from workloads import WORKLOADS, vdp_case

REPEATS = 5
DTAUS = ("inf", "1")
LAYERS = ("primal", "tangent", "adjoint")
CALL_LABELS = {"residual": "residual", "jacobian_state": "Jacobian",
               "jacobian_design": "design Jacobian"}
# the sweep's own counter per step, read from its return value
SWEEP_COUNTS = {"primal": ("inner_iterations", "inner iterations"),
                "tangent": ("solves", "solves"),
                "adjoint": ("inner_iterations", "inner iterations")}


def measure(dtau: str):
    """Median µs per step and the per-step counts of each sweep at one dtau."""
    case = vdp_case(f"dtau-{dtau}", 1.0, dtau)
    workdir = harness.WORK_ROOT / f"roadmap-{dtau}"
    runner = harness.Runner(WORKLOADS["vdp-gradient"], [case], workdir)
    times = {layer: [] for layer in LAYERS}
    try:
        runner.run(case)  # untimed warm-up
        for _ in range(REPEATS):
            tracer = Tracer()
            with tracer.installed():
                result = runner.run(case)
            if result.failures:
                raise RuntimeError(f"dtau={dtau}: {result.failures}")
            metrics = layer_metrics(tracer, 1)
            for layer in LAYERS:
                times[layer].append(metrics[f"{layer}.us_per_step"][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = {}
    for layer in LAYERS:
        key, label = SWEEP_COUNTS[layer]
        parts = [f"{tracer.calls_per_step(layer, method):.4g} {text}"
                 for method, text in CALL_LABELS.items()
                 if tracer.calls_per_step(layer, method)]
        per_step = tracer.work(SWEEPS[layer], key) / tracer.steps(layer)
        parts.append(f"{per_step:.4g} {label}")
        counts[layer] = ", ".join(parts)
    return {layer: statistics.median(times[layer]) for layer in LAYERS}, counts


def main() -> int:
    rows = {dtau: measure(dtau) for dtau in DTAUS}
    print("| Layer | µs/step, `dtau=inf` | µs/step, `dtau=1` "
          "| Model calls per step, `dtau=inf` | Model calls per step, `dtau=1` |")
    print("| --- | --- | --- | --- | --- |")
    for layer in LAYERS:
        print(f"| {layer} | {rows['inf'][0][layer]:.0f} | {rows['1'][0][layer]:.0f} "
              f"| {rows['inf'][1][layer]} | {rows['1'][1][layer]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
