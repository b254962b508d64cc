"""Run a workload's operations through `lcowind.cli.main` and derive its metrics.

Importing this module pins the BLAS libraries to one thread and puts the
checkout's `src` directory first on the import path, so the benchmark always
measures the sources next to it.  An operation is one closed-loop call
sequence from a single client in this process; its time covers the CLI
calls only, and its outputs are checked after the clock stops.  Untraced
runs also sample the host's speed during every operation (see hostspeed),
and report operation time in units of a reference kernel's time.
"""
from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

if not (SRC / "lcowind" / "__init__.py").is_file():
    raise ImportError(f"no lcowind sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lcowind  # noqa: E402
import lcowind.cli  # noqa: E402

from hostspeed import HostSampler  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Case, Workload  # noqa: E402

if Path(lcowind.__file__).resolve().parent != (SRC / "lcowind").resolve():
    raise ImportError(f"lcowind imported from {lcowind.__file__}, not from {SRC}")

# Set-up is measured this many times per untraced run, spread evenly over
# the run so that a burst of load from other tenants of the host lands on
# few of the measurements; the run reports their median.
SETUP_SAMPLES = 10

# A fresh interpreter's cost to import the package, load a config and
# compute the bump normalization, timed from outside the child process.
_SETUP_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from lcowind import cli, windows
cli.load_config({config!r})
windows.bump_normalization()
"""


@dataclass
class OpResult:
    key: str
    seconds: float
    failures: list[str]
    csv_bytes: int
    ref_s: float | None  # the reference kernel's mean time during the operation


class Runner:
    """Writes a workload's configs once and runs its operations on them."""

    def __init__(self, workload: Workload, cases: list[Case], workdir: Path):
        self.workload = workload
        self.cases = cases
        self.workdir = workdir
        self._digests: dict[str, dict[str, str]] = {}
        self.config_paths = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for case in cases:
            path = workdir / f"{case.key}.ini"
            path.write_text(case.config, encoding="utf-8")
            self.config_paths[case.key] = str(path)

    def run(self, case: Case, sampler: HostSampler | None = None) -> OpResult:
        outdir = self.workdir / case.key
        argvs = [[sub, self.config_paths[case.key], "--output-dir", str(outdir / sub)]
                 for sub in case.subcommands]
        failures = []
        mark = sampler.mark() if sampler else None
        start = time.perf_counter()
        try:
            for argv in argvs:
                # looked up on the module on every call, so tracing sees it
                code = lcowind.cli.main(argv)
                if code != 0:
                    failures.append(f"{argv[0]} exited with code {code}")
                    break
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            failures.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        ref_s = None
        if sampler:
            paused_s, ref_s = sampler.since(mark)
            seconds -= paused_s
        csv_files = sorted(outdir.rglob("*.csv"))
        if not failures:
            try:
                failures += self.workload.check(case, outdir)
                failures += self._check_repeat(case, outdir, csv_files)
            except Exception as exc:  # an unreadable output fails the check
                failures.append(f"check raised {type(exc).__name__}: {exc}")
        return OpResult(key=case.key, seconds=seconds, failures=failures,
                        csv_bytes=sum(path.stat().st_size for path in csv_files),
                        ref_s=ref_s)

    def _check_repeat(self, case: Case, outdir: Path, csv_files) -> list[str]:
        """CSV bodies must repeat byte for byte whenever a design repeats."""
        digests = {str(path.relative_to(outdir)): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in csv_files}
        first = self._digests.setdefault(case.key, digests)
        return [] if digests == first else [f"CSV bodies of {case.key} changed on repeat"]


def measure_setup(config_path: str) -> float:
    """Wall time of one fresh interpreter doing the set-up."""
    snippet = _SETUP_SNIPPET.format(src=str(SRC), config=config_path)
    start = time.perf_counter()
    # waited on without a timeout: with one, Popen.wait polls in steps of
    # up to 50 ms, which would round every reading up to that grid
    with subprocess.Popen([sys.executable, "-c", snippet], cwd=ROOT,
                          stdout=subprocess.DEVNULL) as child:
        code = child.wait()
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up exited with code {code}")
    return seconds


def run_for(runner: Runner, seconds: float, config_path: str):
    """Cycle through the pool for `seconds` of operation time, at least one
    operation, sampling the host's speed, and measure set-up SETUP_SAMPLES
    times spread over the run.

    Returns the operations' results and the set-up times.
    """
    results, setups = [], []
    elapsed = 0.0
    with HostSampler() as sampler:
        while not results or elapsed < seconds:
            while (len(setups) < SETUP_SAMPLES
                   and elapsed >= seconds * len(setups) / SETUP_SAMPLES):
                with sampler.paused():
                    setups.append(measure_setup(config_path))
            start = time.perf_counter()
            case = runner.cases[len(results) % len(runner.cases)]
            results.append(runner.run(case, sampler))
            elapsed += time.perf_counter() - start
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(config_path))
    return results, setups


def run_traced(runner: Runner, seconds: float, tracer: Tracer):
    """Alternate untraced and traced passes over the whole pool, at least
    one of each, while another pair still fits in `seconds`.

    Whole passes keep the design mix of the traced operations fixed, so
    per-operation work counts repeat exactly from run to run.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    pair_seconds = 0.0
    while not traced or time.perf_counter() - start + pair_seconds <= seconds:
        pair_start = time.perf_counter()
        untraced += [runner.run(case) for case in runner.cases]
        with tracer.installed():
            traced += [runner.run(case) for case in runner.cases]
        pair_seconds = time.perf_counter() - pair_start
    return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pool_median(results: list[OpResult], value) -> float:
    """The median of `value` over each design's operations, averaged over
    the pool, so a slowdown of any one design shows in it."""
    values: dict[str, list[float]] = {}
    for r in results:
        values.setdefault(r.key, []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in values.values())


def end_to_end_metrics(results: list[OpResult], setups: list[float]) -> dict:
    """The bounded end-to-end metrics.

    `op_ref_p50` is an operation's time in units of the reference kernel's
    time during it (see hostspeed): the host's drift cancels out of it.
    """
    return {
        "op_ref_p50": (pool_median(results, lambda r: r.seconds / r.ref_s), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def summary(results: list[OpResult], timed: list[OpResult]) -> dict:
    """Error rate over `results`; for the `timed` operations, the median time
    in seconds as `op_ref_p50` takes it, throughput and, from 100
    operations on, the 90th percentile."""
    times = [r.seconds for r in timed]
    failed = sum(1 for r in results if r.failures)
    report = {
        "operations": len(results),
        "error_rate": failed / len(results),
        "op_s_p50": pool_median(timed, lambda r: r.seconds),
        "ops_per_s": sum(1 for r in timed if not r.failures) / sum(times),
    }
    if len(times) >= 100:  # at least ten operations beyond the 90th percentile
        report["op_s_p90"] = statistics.quantiles(times, n=10, method="inclusive")[8]
    return report


def per_layer_metrics(tracer: Tracer, untraced: list[OpResult],
                      traced: list[OpResult]) -> dict:
    n_ops = len(traced)
    metrics = layer_metrics(tracer, n_ops)
    metrics["cli.csv_bytes"] = (sum(r.csv_bytes for r in traced) / n_ops, "bytes")
    metrics["windows.busy_s"] = (tracer.replay_weight_seconds() / n_ops, "s")
    overhead = (statistics.median(r.seconds for r in traced)
                - statistics.median(r.seconds for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lcowind": lcowind.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, cases: list[Case] | None = None):
    """Measure one workload; returns (metadata, result) as the benchmark prints them.

    `cases` replaces the seeded pool, which lets a self-test plant a wrong
    expected value.
    """
    cases = cases if cases is not None else workload.cases(seed, tiny)
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        # one untimed tiny operation fills lazy imports and caches
        warm_up = workload.cases(seed, tiny=True)[0]
        Runner(workload, [warm_up], workdir / "warm-up").run(warm_up)
        runner = Runner(workload, cases, workdir)
        if trace:
            tracer = Tracer()
            untraced, traced = run_traced(runner, seconds, tracer)
            results, timed = untraced + traced, untraced
            metrics = per_layer_metrics(tracer, untraced, traced)
        else:
            results, setups = run_for(runner, seconds, runner.config_paths[cases[0].key])
            timed = results
            metrics = end_to_end_metrics(results, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.failures]
    meta = metadata(workload.name, seed, seconds, trace)
    meta.update({
        "pool": [case.key for case in cases],
        "summary": summary(results, timed),
        "failures": [f"{r.key}: {msg}" for r in failed[:5] for msg in r.failures],
    })
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return meta, result
