"""Benchmark workloads: seeded designs, the CLI calls of one operation, and
the checks on its outputs.

A workload draws a small pool of designs from the seed, one uniform draw
from each of equal strata of the design range, so every seed covers the
range evenly and a run's median does not hinge on which designs were drawn.
Operations cycle through the pool, so every design repeats within a run and
its CSV bodies can be compared byte for byte.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lcowind.windows import Window

POOL_SIZE = 4
TINY_POOL_SIZE = 2


@dataclass(frozen=True)
class Case:
    """One operation's input: a config and the subcommands run on it."""

    key: str                      # names the design; repeats must match bytes
    config: str                   # INI text handed to the CLI
    subcommands: tuple[str, ...]  # run in order, each into its own directory
    expect: dict                  # expected values used by the checks


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable[[np.random.Generator, bool, int], list[Case]]
    check: Callable[[Case, Path], list[str]]

    def cases(self, seed: int, tiny: bool = False) -> list[Case]:
        """The design pool for `seed`; `tiny` shrinks every size for self-tests."""
        rng = np.random.default_rng(seed)
        return self.make_cases(rng, tiny, TINY_POOL_SIZE if tiny else POOL_SIZE)


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of `count` equal strata of [lo, hi], in seeded order."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return [lo + (hi - lo) * float(x) for x in u]


def _results(outdir: Path, subcommand: str) -> dict:
    with open(outdir / subcommand / "manifest.json", encoding="utf-8") as handle:
        return json.load(handle)["results"]


# --- vdp-gradient: tangent then adjoint on one Van der Pol design ----------

_VDP = """\
[model]
name = van-der-pol
output = x2

[design]
values = {mu!r}
lower = 0.5
upper = 2.0

[grid]
dt = 0.05
n_steps = {n_steps}
n_transient = {n_transient}

[pseudo_time]
dtau = {dtau}

[window]
kind = bump

[adjoint]
mode = fixed-point
"""


def vdp_case(key: str, mu: float, dtau: str, tiny: bool = False) -> Case:
    """`lcowind tangent` then `lcowind adjoint` on one Van der Pol design."""
    n_steps, n_transient = (120, 30) if tiny else (1200, 300)
    return Case(key=key,
                config=_VDP.format(mu=mu, dtau=dtau, n_steps=n_steps,
                                   n_transient=n_transient),
                subcommands=("tangent", "adjoint"),
                expect={"rel_tol": 1e-8})


def _vdp_cases(rng, tiny, count):
    return [vdp_case(f"mu-{i}", mu, "1", tiny)
            for i, mu in enumerate(_strata(rng, 0.5, 2.0, count))]


def _vdp_check(case, outdir):
    sensitivity = _results(outdir, "tangent")["windowed_sensitivity"][0]
    derivative = _results(outdir, "adjoint")["design_derivative"][0]
    rel = abs(derivative - sensitivity) / abs(sensitivity)
    if rel <= case.expect["rel_tol"]:
        return []
    return [f"adjoint derivative {derivative!r} differs from tangent "
            f"sensitivity {sensitivity!r} by {rel:.2e} relative"]


# --- signal-design: one projected-gradient design loop ---------------------

_DESIGN = """\
[model]
name = analytic-signal
a0 = 1
a1 = 0
amplitude = 0.05
quad = 5
quad_center = {center!r}

[design]
values = {start!r}
lower = {lower!r}
upper = {upper!r}

[grid]
dt = {dt}
n_steps = {n_steps}
n_transient = {n_transient}

[pseudo_time]
dtau = inf

[optimize]
relaxation = 1.0
max_iterations = 50
grad_tolerance = 1e-6
"""
# grad_tolerance: below about 1e-7 the Armijo test is decided by roundoff in
# the merit, and the loop wanders at the noise floor for a number of
# evaluations that varies several-fold between neighbouring designs.

_BOX = (-0.5, 0.9)


def _design_cases(rng, tiny, count):
    dt, n_steps, n_transient = (0.05, 300, 40) if tiny else (0.02, 720, 100)
    # The start lies a drawn distance from the optimum, on whichever side
    # keeps it in [-0.4, 0.8].  A start drawn on its own can land next to the
    # optimum and finish in a third of the evaluations; a distance of 0.2 to
    # 0.6 gives every design about the same number of iterations.
    centers = _strata(rng, -0.2, 0.6, count)
    distances = _strata(rng, 0.2, 0.6, count)
    starts = [c + d if c + d <= 0.8 else c - d for c, d in zip(centers, distances)]
    lower, upper = _BOX
    return [Case(key=f"design-{i}",
                 config=_DESIGN.format(center=center, start=start, lower=lower,
                                       upper=upper, dt=dt, n_steps=n_steps,
                                       n_transient=n_transient),
                 subcommands=("optimize",),
                 expect={"center": center, "tol": 1e-4,
                         "lower": lower, "upper": upper})
            for i, (center, start) in enumerate(zip(centers, starts))]


def _design_check(case, outdir):
    expect = case.expect
    failures = []
    final = _results(outdir, "optimize")["final_design"][0]
    if abs(final - expect["center"]) > expect["tol"]:
        failures.append(f"final design {final!r} is not within {expect['tol']} "
                        f"of the optimum {expect['center']!r}")
    with open(outdir / "optimize" / "history.csv", newline="", encoding="utf-8") as handle:
        iterates = [float(row["sigma_0"]) for row in csv.DictReader(handle)]
    outside = [x for x in iterates if not expect["lower"] <= x <= expect["upper"]]
    if outside:
        failures.append(f"{len(outside)} iterates leave the box, first {outside[0]!r}")
    return failures


# --- signal-study: one dense convergence study -----------------------------

_STUDY = """\
[model]
name = analytic-signal
a0 = 2
a1 = 0.7
amplitude = 0.8

[design]
values = {sigma!r}

[grid]
dt = 0.01
n_steps = {n_steps}

[study]
quantity = {quantity}
windows = all
k_list = {k_list}
"""
_STUDY_SLOPE_TOL = 0.3
_BUMP_MIN_SLOPE = 8.0
_K_MIN, _K_MAX = 2.0, 128.0


def _study_cases(rng, tiny, count):
    k_step = 2.0 if tiny else 0.5
    k_count = int((_K_MAX - _K_MIN) / k_step) + 1
    k_list = ",".join(format(_K_MIN + k_step * i, "g") for i in range(k_count))
    # the longest period, 1 + sigma at sigma = 0.5, sets the series length
    n_steps = math.ceil((_K_MAX + 1.0) * 1.5 / 0.01)
    cases = []
    for i, sigma in enumerate(_strata(rng, 0.0, 0.5, count)):
        for quantity in ("average", "sensitivity"):
            orders = {kind.value: (kind.order_average if quantity == "average"
                                   else kind.order_sensitivity)
                      for kind in Window}
            cases.append(Case(key=f"sigma-{i}-{quantity}",
                              config=_STUDY.format(sigma=sigma, n_steps=n_steps,
                                                   quantity=quantity, k_list=k_list),
                              subcommands=("study",),
                              expect={"orders": orders, "tol": _STUDY_SLOPE_TOL,
                                      "bump_min": _BUMP_MIN_SLOPE}))
    return cases


def _study_check(case, outdir):
    expect = case.expect
    failures = []
    for kind, summary in _results(outdir, "study")["windows"].items():
        slope = summary["slope"]
        if kind == Window.BUMP.value:
            if not slope >= expect["bump_min"]:
                failures.append(f"bump slope {slope!r} below {expect['bump_min']}")
        elif not abs(slope - expect["orders"][kind]) <= expect["tol"]:
            failures.append(f"{kind} slope {slope!r} is not within {expect['tol']} "
                            f"of order {expect['orders'][kind]}")
    return failures


# Why each workload was chosen is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("vdp-gradient", _vdp_cases, _vdp_check),
        Workload("signal-design", _design_cases, _design_check),
        Workload("signal-study", _study_cases, _study_check),
    )
}
