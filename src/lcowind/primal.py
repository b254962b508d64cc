"""Implicit BDF2 time marching driven by a pseudo-time inner iteration.

Each physical step solves the extended residual equation R*(u^n) = 0 by
implicit-Euler pseudo-time smoothing of the linearized update; an infinite
pseudo-time step reduces the update to a plain Newton step.  The first
physical step is bootstrapped with BDF1 since no second history level
exists yet.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import sub
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import (InvalidSpanError, PeriodUndetectableError, SingularStepError,
                     StepConvergenceError)
from .models import check_inputs, jacobian_entries_of

__all__ = [
    "TimeGrid",
    "PseudoTimeConfig",
    "Trajectory",
    "step_coefficients",
    "step_matrices",
    "solve_step",
    "simulate",
    "estimate_period",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform physical time grid with a transient cutoff.

    Steps run n = 0..n_steps; windowed averaging uses steps
    n_transient..n_steps.
    """

    dt: float
    n_steps: int
    n_transient: int = 0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("need at least one physical step")
        if not 0 <= self.n_transient < self.n_steps:
            raise InvalidSpanError(
                f"transient cutoff {self.n_transient} must lie in [0, {self.n_steps})")

    @property
    def span_steps(self) -> int:
        return self.n_steps - self.n_transient

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class PseudoTimeConfig:
    """Inner iteration controls.

    dtau = inf selects the Newton limit of the pseudo-time update.  A step
    whose residual norm stays above tol after max_inner iterations raises
    StepConvergenceError unless allow_unconverged is set, in which case the
    step is flagged and the march continues.
    """

    dtau: float = math.inf
    tol: float = 1e-12
    max_inner: int = 50
    allow_unconverged: bool = False

    def __post_init__(self):
        if not self.dtau > 0.0:
            raise ValueError("dtau must be positive (inf selects Newton)")
        if not self.tol > 0.0 or self.max_inner < 1:
            raise ValueError("tolerance and max_inner must be positive")

    @property
    def inv_dtau(self) -> float:
        return 0.0 if math.isinf(self.dtau) else 1.0 / self.dtau


@dataclass
class Trajectory:
    """States and per-step diagnostics of one forward solve."""

    grid: TimeGrid
    states: np.ndarray             # (n_steps + 1, d_u)
    outputs: np.ndarray            # (n_steps + 1,)
    inner_iterations: np.ndarray   # (n_steps + 1,) int
    residual_norms: np.ndarray     # (n_steps + 1,)
    converged: np.ndarray          # (n_steps + 1,) bool

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


def step_coefficients(n: int, dt: float) -> tuple[float, float, float]:
    """Multipliers (alpha, beta, delta) of (u^n, u^{n-1}, u^{n-2}) at step n.

    Step 1 has no u^{-1} history and uses BDF1; all later steps use BDF2.
    """
    if n < 1:
        raise ValueError("physical steps start at n = 1")
    if n == 1:
        return 1.0 / dt, -1.0 / dt, 0.0
    return 1.5 / dt, -2.0 / dt, 0.5 / dt


def _extended_residual(model, u_n, sigma, t, alpha, beta_u_nm1, delta_u_nm2) -> list[float]:
    """Extended residual alpha u_n + R(u_n) + beta u_{n-1} + delta u_{n-2}
    of the float list u_n, with its history terms beta u_{n-1} and delta
    u_{n-2} already formed as float lists, as they stay fixed over a
    physical step.  The sums run on Python floats, in the order of the
    formula."""
    return [alpha * x + r + b + d for x, r, b, d
            in zip(u_n, model.residual(u_n, sigma, t), beta_u_nm1, delta_u_nm2)]


def _extended_residual2(model, u_n, sigma, t, alpha, beta_u_nm1, delta_u_nm2) -> list[float]:
    """_extended_residual of two states, written out."""
    (u0, u1), (b0, b1), (d0, d1) = u_n, beta_u_nm1, delta_u_nm2
    r0, r1 = model.residual(u_n, sigma, t)
    return [alpha * u0 + r0 + b0 + d0, alpha * u1 + r1 + b1 + d1]


def _step_entries(jacobian, alpha, inv_dtau) -> list[float]:
    """Row-major entries of alpha I + J + inv_dtau I from J's, summed as
    the arrays alpha * np.eye(d_u) + J + inv_dtau * np.eye(d_u) sum them:
    (alpha + J_ii) + inv_dtau on the diagonal and 0.0 + J_ij off it, which
    turns a -0.0 into 0.0.  Adding inv_dtau = 0.0 leaves a sum with alpha
    > 0 unchanged, so the Newton limit needs no branch."""
    d_u = math.isqrt(len(jacobian))
    entries = [0.0 + j for j in jacobian]
    for i in range(0, d_u * d_u, d_u + 1):
        entries[i] = (alpha + jacobian[i]) + inv_dtau
    return entries


def step_matrices(model, sigma, traj: Trajectory) -> np.ndarray:
    """Step matrices A_n = alpha_n I + dR/du(u^n) of the trajectory's steps
    n = 1..N, stacked with shape (N, d_u, d_u); entry n - 1 is step n."""
    dt, d_u = traj.grid.dt, model.d_u
    steps = range(1, traj.n_steps + 1)
    alphas = np.array([step_coefficients(n, dt)[0] for n in steps])
    jacobian = jacobian_entries_of(model)
    jacobians = np.array([jacobian(u, sigma, n * dt)
                          for n, u in zip(steps, traj.states[1:].tolist())])
    return alphas[:, None, None] * np.eye(d_u) + jacobians.reshape(-1, d_u, d_u)


def _solve2(entries, rhs, step=None) -> list[float]:
    """Solve the 2x2 system with row-major entries by Gaussian elimination
    with partial pivoting, each operation one rounding of Python floats:
    the rows swap when |a21| > |a11|, then l = a21 / a11, u22 = a22 - l a12,
    x2 = (b2 - l b1) / u22 and x1 = (b1 - a12 x2) / a11.  A zero pivot or
    u22 raises SingularStepError, where dgesv would report info > 0.
    """
    a11, a12, a21, a22 = entries
    b1, b2 = rhs
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, b1, b2 = a21, a22, a11, a12, b2, b1
    if a11 == 0.0:
        raise SingularStepError(step)
    l = a21 / a11
    u22 = a22 - l * a12
    if u22 == 0.0:
        raise SingularStepError(step)
    x2 = (b2 - l * b1) / u22
    return [(b1 - a12 * x2) / a11, x2]


def _norm2(r) -> float:
    """The 2-norm sqrt(r0 r0 + r1 r1)."""
    r0, r1 = r
    return math.sqrt(r0 * r0 + r1 * r1)


def _solve_arrays(entries, rhs, step=None) -> list[float]:
    d_u = len(rhs)
    return solve_step(np.array(entries).reshape(d_u, d_u), np.array(rhs), step).tolist()


def _norm_arrays(r) -> float:
    """The 2-norm of a vector of any length, its squares summed left to
    right from 0.0.  The loop is written out: sum() compensates float sums
    from Python 3.12 on, which would round otherwise than _norm2."""
    square = 0.0
    for x in r:
        square += x * x
    return math.sqrt(square)


def _update(u, jacobian, residual, alpha, inv_dtau, step=None) -> list[float]:
    """One pseudo-time update of the float list u: u minus the solve of the
    step system with _step_entries' matrix and the extended residual."""
    entries = _step_entries(jacobian, alpha, inv_dtau)
    return list(map(sub, u, _solve_arrays(entries, residual, step)))


def _update2(u, jacobian, residual, alpha, inv_dtau, step=None) -> list[float]:
    """_update of two states, with _step_entries written out."""
    j11, j12, j21, j22 = jacobian
    s0, s1 = _solve2([(alpha + j11) + inv_dtau, 0.0 + j12, 0.0 + j21,
                      (alpha + j22) + inv_dtau], residual, step)
    return [u[0] - s0, u[1] - s1]


class FloatKernels(NamedTuple):
    """The inner iterate's kernels for one state size, on Python floats.

    extended_residual and update take the arguments of _extended_residual
    and _update; solve takes a step matrix's row-major entries, the
    right-hand side and the step; norm takes a vector.
    """

    extended_residual: Callable
    update: Callable
    solve: Callable
    norm: Callable


# two states, every model in lcowind: the residual and update written out
_TWO_STATE_KERNELS = FloatKernels(_extended_residual2, _update2, _solve2, _norm2)
_ARRAY_KERNELS = FloatKernels(_extended_residual, _update, _solve_arrays, _norm_arrays)


def float_kernels(d_u) -> FloatKernels:
    """The kernels of a step system of size d_u.  Two states solve on
    Python floats; any other size goes through dgesv.  Every size takes
    its norms on Python floats."""
    return _TWO_STATE_KERNELS if d_u == 2 else _ARRAY_KERNELS


def solve_step(matrix, rhs, step=None):
    """Solve a step's linear system, raising SingularStepError if it has none.

    LAPACK dgesv solves it, the routine np.linalg.solve calls, without
    numpy's generic wrapper; rhs is a vector or a matrix of columns, and
    neither input is overwritten.
    """
    _, _, solution, info = dgesv(matrix, rhs)
    if info > 0:
        raise SingularStepError(step)
    return solution


def simulate(model, sigma, grid: TimeGrid,
             cfg: PseudoTimeConfig | None = None) -> Trajectory:
    """March the model over the grid and record states and outputs.

    Each physical step drives the inner iteration until the extended
    residual R* is below cfg.tol.  Each inner iteration is one linearized
    implicit-Euler pseudo-time update, u <- u - (alpha I + dR/du +
    I/dtau)^{-1} R*(u), which at dtau = inf is a Newton step, warm-started
    from the previous physical state.  The iterate runs on Python floats,
    with the kernels float_kernels gives for the model's size: the extended
    residual, the update, which solves the step system, and the norm.  The
    norm is taken of every iterate's residual, and the norm that stops the
    step is the one the trajectory records.  The design and the initial
    state's shape are checked once, and the pseudo-time constants, the
    Jacobian reader and the kernels are resolved once per march; the model
    methods each step calls do not check their inputs again.  The outputs
    are formed in one call once the march is done.
    """
    cfg = cfg or PseudoTimeConfig()
    u0 = np.asarray(model.initial_state(sigma), dtype=float)
    sigma = check_inputs(model, sigma, u0)
    inv_dtau, tol, max_inner = cfg.inv_dtau, cfg.tol, cfg.max_inner
    jacobian = jacobian_entries_of(model)
    extended, update, _, norm_of = float_kernels(model.d_u)
    dt = grid.dt
    # step 1 has no u^{-1}; its BDF1 coefficients give u^{-1} no weight
    u_nm1 = u_nm2 = u0.tolist()
    # per step n: the state, inner iterations, residual norm and converged
    states, inner, norms, flags = [u_nm1], [0], [0.0], [True]
    bdf1, bdf2 = step_coefficients(1, dt), step_coefficients(2, dt)
    for n in range(1, grid.n_steps + 1):
        alpha, beta, delta = bdf2 if n > 1 else bdf1
        t = n * dt
        # fixed over the step: the history terms
        beta_u_nm1, delta_u_nm2 = [beta * x for x in u_nm1], [delta * x for x in u_nm2]
        u = list(u_nm1)
        residual = extended(model, u, sigma, t, alpha, beta_u_nm1, delta_u_nm2)
        norm = norm_of(residual)
        its = 0
        while norm > tol and its < max_inner:
            u = update(u, jacobian(u, sigma, t), residual, alpha, inv_dtau, n)
            residual = extended(model, u, sigma, t, alpha, beta_u_nm1, delta_u_nm2)
            norm = norm_of(residual)
            its += 1
        ok = norm <= tol
        if not ok:
            if not cfg.allow_unconverged:
                raise StepConvergenceError(n, its, norm)
            warnings.warn(f"step {n} left unconverged (residual {norm:.3e})",
                          RuntimeWarning, stacklevel=2)
        u_nm1, u_nm2 = u, u_nm1
        states.append(u)
        inner.append(its)
        norms.append(norm)
        flags.append(ok)

    states = np.array(states, dtype=float)
    return Trajectory(grid=grid, states=states, outputs=model.output_value(states, sigma),
                      inner_iterations=np.array(inner), residual_norms=np.array(norms, dtype=float),
                      converged=np.array(flags))


def estimate_period(outputs, n_transient: int, dt: float) -> tuple[float, float]:
    """Estimate the oscillation period from post-transient outputs.

    Uses the mean spacing of upward crossings of the post-transient mean,
    with linear interpolation between samples.  Returns (period, span in
    periods) where the span is (len - 1 - n_transient) * dt / period.
    """
    outputs = np.asarray(outputs, dtype=float)
    tail = outputs[n_transient:]
    if len(tail) < 3:
        raise PeriodUndetectableError("too few samples after the transient cutoff")
    mean = tail.mean()
    below = tail[:-1] < mean
    at_or_above = tail[1:] >= mean
    idx = np.nonzero(below & at_or_above)[0]
    if len(idx) < 2:
        raise PeriodUndetectableError(
            f"found {len(idx)} upward mean crossings, need at least 2")
    frac = (mean - tail[idx]) / (tail[idx + 1] - tail[idx])
    crossings = (n_transient + idx + frac) * dt
    period = float(np.diff(crossings).mean())
    span = (len(outputs) - 1 - n_transient) * dt
    return period, span / period
