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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dgesv

from .errors import (InvalidSpanError, PeriodUndetectableError, SingularStepError,
                     StepConvergenceError)
from .models import check_inputs

__all__ = [
    "TimeGrid",
    "PseudoTimeConfig",
    "Trajectory",
    "step_coefficients",
    "extended_residual",
    "step_matrices",
    "solve_step",
    "advance_physical_step",
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

    @property
    def averaging_span(self) -> float:
        return self.span_steps * self.dt

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


def extended_residual(model, u_n, u_nm1, u_nm2, sigma, dt, t=0.0,
                      coeffs=None) -> np.ndarray:
    """Extended residual alpha u_n + R(u_n) + beta u_{n-1} + delta u_{n-2}.

    coeffs are the step's (alpha, beta, delta) from step_coefficients; the
    default is BDF2.
    """
    alpha, beta, delta = step_coefficients(2, dt) if coeffs is None else coeffs
    u_n, u_nm1, u_nm2 = (np.asarray(u, dtype=float).tolist() for u in (u_n, u_nm1, u_nm2))
    return _extended_residual(model, u_n, sigma, t, alpha, [beta * x for x in u_nm1],
                              [delta * x for x in u_nm2])


def _extended_residual(model, u_n, sigma, t, alpha, beta_u_nm1, delta_u_nm2) -> np.ndarray:
    """extended_residual of the float list u_n, with its history terms
    beta u_{n-1} and delta u_{n-2} already formed as float lists, as they
    stay fixed over a physical step.  The sums run on Python floats, in the
    order of the formula; the one array made of them is what the norm and
    the step solve read."""
    return np.array([alpha * x + r + b + d for x, r, b, d
                     in zip(u_n, model.residual(u_n, sigma, t), beta_u_nm1, delta_u_nm2)])


def step_matrices(model, sigma, traj: Trajectory) -> np.ndarray:
    """Step matrices A_n = alpha_n I + dR/du(u^n) of the trajectory's steps
    n = 1..N, stacked with shape (N, d_u, d_u); entry n - 1 is step n."""
    dt = traj.grid.dt
    steps = range(1, traj.n_steps + 1)
    alphas = np.array([step_coefficients(n, dt)[0] for n in steps])
    jacobians = np.array([model.jacobian_state(u, sigma, n * dt)
                          for n, u in zip(steps, traj.states[1:].tolist())])
    return alphas[:, None, None] * np.eye(model.d_u) + jacobians


@lru_cache(maxsize=64)
def _scaled_identity(scale, d_u) -> np.ndarray:
    """scale * I of size d_u, built once and shared, so read-only."""
    matrix = scale * np.eye(d_u)
    matrix.flags.writeable = False
    return matrix


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


def advance_physical_step(model, u_nm1, u_nm2, sigma, dt, t, cfg: PseudoTimeConfig,
                          coeffs, step=None) -> tuple[list[float], int, float, bool]:
    """Drive the inner iteration at one physical step until R* is below tol.

    Each inner iteration is one linearized implicit-Euler pseudo-time update,
    u <- u - (alpha I + dR/du + I/dtau)^{-1} R*(u), which at dtau = inf is a
    Newton step.  u_nm1 and u_nm2 are sequences of floats, and the iterate
    is kept as a list of floats; only the residual and the step matrix are
    arrays, for the norm and the step solve.  Returns (state as a list of
    floats, inner iterations used, final residual norm, converged).  step
    only labels a SingularStepError.
    """
    alpha, beta, delta = coeffs
    # fixed over the step: the history terms and the diagonal shifts
    history = ([beta * x for x in u_nm1], [delta * x for x in u_nm2])
    shift = _scaled_identity(alpha, model.d_u)
    pseudo_shift = (None if math.isinf(cfg.dtau)
                    else _scaled_identity(1.0 / cfg.dtau, model.d_u))
    u = list(u_nm1)  # warm start from the previous physical state
    residual = _extended_residual(model, u, sigma, t, alpha, *history)
    # BLAS ddot is what residual.dot(residual) and np.linalg.norm compute;
    # a Python sum of squares rounds differently
    norm = math.sqrt(ddot(residual, residual))
    iterations = 0
    while norm > cfg.tol and iterations < cfg.max_inner:
        # a new array: the model's Jacobian may be its own, and is not written
        system = shift + model.jacobian_state(u, sigma, t)
        if pseudo_shift is not None:
            system += pseudo_shift
        solution = solve_step(system, residual, step)
        u = [x - s for x, s in zip(u, solution.tolist())]
        residual = _extended_residual(model, u, sigma, t, alpha, *history)
        norm = math.sqrt(ddot(residual, residual))
        iterations += 1
    return u, iterations, norm, norm <= cfg.tol


def simulate(model, sigma, grid: TimeGrid,
             cfg: PseudoTimeConfig | None = None) -> Trajectory:
    """March the model over the grid and record states and outputs.

    The design and the initial state's shape are checked here, once; the
    model methods each step calls do not check them again.  The outputs
    are formed in one call once the march is done.
    """
    cfg = cfg or PseudoTimeConfig()
    n_total = grid.n_steps
    states = np.empty((n_total + 1, model.d_u))
    inner = np.zeros(n_total + 1, dtype=int)
    norms = np.zeros(n_total + 1)
    flags = np.ones(n_total + 1, dtype=bool)

    u0 = np.asarray(model.initial_state(sigma), dtype=float)
    sigma = check_inputs(model, sigma, u0)
    states[0] = u0
    # step 1 has no u^{-1}; its BDF1 coefficients give u^{-1} no weight
    u_nm1 = u_nm2 = u0.tolist()

    for n in range(1, n_total + 1):
        coeffs = step_coefficients(n, grid.dt)
        t_n = n * grid.dt
        u, its, norm, ok = advance_physical_step(
            model, u_nm1, u_nm2, sigma, grid.dt, t_n, cfg, coeffs, n)
        if not ok:
            if not cfg.allow_unconverged:
                raise StepConvergenceError(n, its, norm)
            warnings.warn(f"step {n} left unconverged (residual {norm:.3e})",
                          RuntimeWarning, stacklevel=2)
        states[n] = u
        u_nm1, u_nm2 = u, u_nm1
        inner[n] = its
        norms[n] = norm
        flags[n] = ok

    return Trajectory(grid=grid, states=states, outputs=model.output_value(states, sigma),
                      inner_iterations=inner, residual_norms=norms, converged=flags)


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
