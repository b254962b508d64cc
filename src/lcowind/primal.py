"""Implicit BDF2 time marching driven by a pseudo-time inner iteration.

Each physical step solves the extended residual equation R*(u^n) = 0 by
implicit-Euler pseudo-time smoothing of the linearized update, with the
step matrix formed once per step (a chord iteration); an infinite
pseudo-time step reduces the update to a plain Newton step, with the
Jacobian taken at every iterate.  The first physical step is bootstrapped
with BDF1 since no second history level exists yet.  The march runs on
two states, in one float kernel, and the reverse loop of both sweeps lives
here too.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (AdjointDivergenceError, InvalidSpanError, PeriodUndetectableError,
                     SingularStepError, StepConvergenceError)
from .models import bind, check_inputs
from .windows import _step_index

__all__ = [
    "TimeGrid",
    "PseudoTimeConfig",
    "Trajectory",
    "step_coefficients",
    "step_matrices",
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
        _step_index(self.n_steps, "n_steps")
        _step_index(self.n_transient, "n_transient")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("need at least one physical step")
        if not math.isfinite(self.n_steps * self.dt):
            raise ValueError(f"final time n_steps * dt = {self.n_steps} * {self.dt!r} "
                             "overflows")
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
        if not (self.dtau > 0.0 and math.isfinite(self.inv_dtau)):
            raise ValueError("dtau must be positive with a finite 1/dtau (inf selects Newton)")
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


def step_matrices(model, sigma, traj: Trajectory) -> np.ndarray:
    """Step matrices A_n = alpha_n I + dR/du(u^n) of the trajectory's steps
    n = 1..N, stacked with shape (N, d_u, d_u); entry n - 1 is step n."""
    dt, d_u = traj.grid.dt, model.d_u
    steps = range(1, traj.n_steps + 1)
    # step 1 is BDF1, every later step BDF2
    alphas = np.full(traj.n_steps, step_coefficients(2, dt)[0])
    alphas[0] = step_coefficients(1, dt)[0]
    jacobian = bind(model, sigma)[1]
    jacobians = np.array([jacobian(u, n * dt)
                          for n, u in zip(steps, traj.states[1:].tolist())])
    return alphas[:, None, None] * np.eye(d_u) + jacobians.reshape(-1, d_u, d_u)


def _vector_norm(r) -> float:
    """The 2-norm of a vector of any length, its squares summed left to
    right from 0.0.  For two entries that is sqrt(r0 r0 + r1 r1), as a
    square is never -0.0.  The loop is written out: sum() compensates float
    sums from Python 3.12 on, which would round otherwise."""
    square = 0.0
    for x in r:
        square += x * x
    return math.sqrt(square)


def _row_norms(rows) -> np.ndarray:
    """_vector_norm of every row of a 2-D array, bit for bit: the squares
    summed column by column from 0.0.  numpy warns on a square that
    overflows, where Python floats do not, so its warnings are off."""
    with np.errstate(all="ignore"):
        square = 0.0
        for column in rows.T:
            square = square + column * column
        return np.sqrt(square)


def _march2(residual, jacobian, u0, dt, n_steps, inv_dtau, tol, max_inner, allow_unconverged):
    """Every physical step n = 1..n_steps of a march of two states from
    the float pair u0, at time n dt, on local floats: BDF1 at step 1, whose
    u_{-1} = u0 has no weight, and BDF2 after it.  Per step: the history
    terms beta u_{n-1} and delta u_{n-2}, then from the predictor, 2.0
    u_{n-1,i} - u_{n-2,i} from step 3 on and u_{n-1} before it, the
    extended residual alpha u_i + r_i + beta u_{n-1,i} + delta u_{n-2,i}, its
    norm sqrt(e0 e0 + e1 e1) and, while norm > tol and fewer than max_inner
    iterations ran, one update u - x, x the solve of the step system
    (alpha + J_ii) + inv_dtau on the diagonal, 0.0 + J_ij off it.  The
    factoring pivots, swapping the rows when |a21| > |a11|, then forms l =
    a21 / a11 and u22 = a22 - l a12, and a zero pivot or u22 raises
    SingularStepError; the solve swaps the right-hand side alike and forms
    x2 = (b2 - l b1) / u22 and x1 = (b1 - a12 x2) / a11.  The Jacobian is
    evaluated and factored at the step's first update and, at a finite dtau,
    kept for the rest of the step (a chord iteration); at inv_dtau = 0.0,
    the Newton limit, at every update.  A step that stops above tol raises
    StepConvergenceError with the roundoff floor at its last iterate unless
    allow_unconverged is set; the kernel never warns.  Returns (states,
    iterations, norms): u0..u_N row-major in one flat list, and per step the
    iterations and the last norm, step 0's zeros first.  The list loop
    _march of tests/any_size_kernels.py is its oracle."""
    p0, p1 = q0, q1 = u0  # u_{n-1} and u_{n-2}
    states, inner, norms = [p0, p1], [0], [0.0]
    bdf1, bdf2 = step_coefficients(1, dt), step_coefficients(2, dt)
    for n in range(1, n_steps + 1):
        alpha, beta, delta = bdf2 if n > 1 else bdf1
        t = n * dt
        h0 = beta * p0
        h1 = beta * p1
        g0 = delta * q0
        g1 = delta * q1
        if n > 2:
            x0 = 2.0 * p0 - q0
            x1 = 2.0 * p1 - q1
        else:
            x0, x1 = p0, p1
        its = 0
        while True:
            u = [x0, x1]
            r0, r1 = residual(u, t)
            e0 = alpha * x0 + r0 + h0 + g0
            e1 = alpha * x1 + r1 + h1 + g1
            norm = sqrt(e0 * e0 + e1 * e1)
            if not (norm > tol and its < max_inner):
                break
            if its == 0 or inv_dtau == 0.0:
                j11, j12, j21, j22 = jacobian(u, t)
                a11 = (alpha + j11) + inv_dtau
                a12 = 0.0 + j12
                a21 = 0.0 + j21
                a22 = (alpha + j22) + inv_dtau
                swap = abs(a21) > abs(a11)
                if swap:
                    a11, a12, a21, a22 = a21, a22, a11, a12
                if a11 == 0.0:
                    raise SingularStepError(n)
                l = a21 / a11
                u22 = a22 - l * a12
                if u22 == 0.0:
                    raise SingularStepError(n)
            if swap:
                b1, b2 = e1, e0
            else:
                b1, b2 = e0, e1
            s1 = (b2 - l * b1) / u22
            x0 -= (b1 - a12 * s1) / a11
            x1 -= s1
            its += 1
        if not (norm <= tol or allow_unconverged):
            floor = _roundoff_floor(residual, u, t, alpha, beta, delta, [p0, p1], [q0, q1])
            raise StepConvergenceError(n, its, norm, floor, tol)
        q0, q1, p0, p1 = p0, p1, x0, x1
        states.append(x0)
        states.append(x1)
        inner.append(its)
        norms.append(norm)
    return states, inner, norms


def _roundoff_floor(residual, u, t, alpha, beta, delta, u_nm1, u_nm2) -> float:
    """The extended residual's roundoff floor at u: eps times the norm of
    |alpha u| + |R(u)| + |beta u_{n-1}| + |delta u_{n-2}|, the size of the
    rounding error its four terms can carry, so a tolerance below it may
    not be met.  One more residual evaluation, taken only for the error."""
    terms = [abs(alpha * x) + abs(r) + abs(beta * y) + abs(delta * z)
             for x, r, y, z in zip(u, residual(u, t), u_nm1, u_nm2)]
    return math.ulp(1.0) * _vector_norm(terms)


def _reverse2(seeds, a_rows, inv_dtau, beta, delta, tol, max_inner):
    """The reverse loop of one sweep of two states, on local floats, for
    steps n from N = len(a_rows) down to 1: the adjoint's, and the tangent's
    in its Newton limit on the rows of A_n, steps reversed (tangent_sweep).

    seeds holds step n's seed at row n, entry n - 1 of a_rows A_n^T's
    row-major entries, and beta and delta couple step n to steps n + 1 and
    n + 2.  Each step factors M_n^T, A_n^T with a11 + inv_dtau and a22 +
    inv_dtau on its diagonal, once as _march2 does, raising
    SingularStepError where it is singular, and solves every lambda_n =
    M_n^{-T} ubar_n from the factors.  Its right-hand side is (s - beta
    lambda_{n+1}) - delta lambda_{n+2}, leaving out steps beyond N.  ubar_n
    is rhs itself in the Newton limit, inv_dtau = 0.0, which records one
    iteration and a zero norm; else the fixed point warm-started from
    ubar_{n+1}: M_n - A_n = I/dtau makes the iteration matrix (I - M_n^{-1}
    A_n)^T equal inv_dtau M_n^{-T}, so each iterate is row i r_i + inv_dtau
    lambda_i, then the solve of the new lambda.  The loop stops when its
    change's norm sqrt(c0 c0 + c1 c1) is at most tol, exceeds both 1 and
    ten times the previous one, or max_inner iterates ran, and raises
    AdjointDivergenceError, with no contraction estimate, unless the norm is
    at most tol.  Returns (ubar, iterations, norms, lambdas) as flat lists:
    ubar row-major with a zero row 0, the iterations and norms per step with
    step 0's zero, and lambda_n at row n - 1.  The list loop _reverse of
    tests/any_size_kernels.py is its oracle.
    """
    n_total = len(a_rows)
    ubar = [0.0] * (2 * n_total + 2)
    inner = [0] * (n_total + 1)
    norms = [0.0] * (n_total + 1)
    lambdas = [0.0] * (2 * n_total)
    iterate = inv_dtau != 0.0
    x0 = x1 = 0.0  # the warm start of the last step
    p0 = p1 = q0 = q1 = 0.0  # lambda_{n+1} and lambda_{n+2}
    for n in range(n_total, 0, -1):
        s0, s1 = seeds[n]
        if n + 2 <= n_total:
            r0 = (s0 - beta * p0) - delta * q0
            r1 = (s1 - beta * p1) - delta * q1
        elif n + 1 <= n_total:
            r0 = s0 - beta * p0
            r1 = s1 - beta * p1
        else:
            r0, r1 = s0, s1
        a11, a12, a21, a22 = a_rows[n - 1]
        a11 += inv_dtau
        a22 += inv_dtau
        swap = abs(a21) > abs(a11)
        if swap:
            a11, a12, a21, a22 = a21, a22, a11, a12
        if a11 == 0.0:
            raise SingularStepError(n)
        l = a21 / a11
        u22 = a22 - l * a12
        if u22 == 0.0:
            raise SingularStepError(n)
        if not iterate:
            x0, x1 = r0, r1
        q0, q1 = p0, p1
        b1, b2 = (x1, x0) if swap else (x0, x1)
        p1 = (b2 - l * b1) / u22
        p0 = (b1 - a12 * p1) / a11
        if iterate:
            previous = None  # the change norm of the previous iterate
            for its in range(1, max_inner + 1):
                y0 = r0 + inv_dtau * p0
                y1 = r1 + inv_dtau * p1
                c0, c1 = y0 - x0, y1 - x1
                norm = sqrt(c0 * c0 + c1 * c1)
                x0, x1 = y0, y1
                b1, b2 = (x1, x0) if swap else (x0, x1)
                p1 = (b2 - l * b1) / u22
                p0 = (b1 - a12 * p1) / a11
                if norm <= tol or norm > 1.0 and previous is not None and norm > previous * 10.0:
                    break
                previous = norm
            if not norm <= tol:
                raise AdjointDivergenceError(n, its, norm)
        else:
            its, norm = 1, 0.0
        i = 2 * n
        ubar[i] = x0
        ubar[i + 1] = x1
        lambdas[i - 2] = p0
        lambdas[i - 1] = p1
        inner[n] = its
        norms[n] = norm
    return ubar, inner, norms, lambdas


def simulate(model, sigma, grid: TimeGrid,
             cfg: PseudoTimeConfig | None = None) -> Trajectory:
    """March the model over the grid and record states and outputs.

    Each physical step drives the inner iteration until the extended
    residual R* is below cfg.tol.  Each inner iteration is one linearized
    implicit-Euler pseudo-time update, u <- u - (alpha I + dR/du +
    I/dtau)^{-1} R*(u).  At dtau = inf it is a Newton step, dR/du taken at
    every iterate; at a finite dtau dR/du is taken at the step's first
    iterate and the matrix formed once for the whole step, a chord
    iteration whose fixed point is the same R* = 0.  Steps 1 and 2 start
    from the previous physical state, every later step from the linear
    predictor 2 u_{n-1} - u_{n-2}.  One call of the two-state march kernel
    _march2 runs every physical step, each step's whole inner iteration, on
    Python floats.  The norm is taken of
    every iterate's residual, and the norm that stops the step is the one
    the trajectory records.  A step that stops unconverged raises
    StepConvergenceError with the extended residual's roundoff floor at its
    last iterate, unless cfg.allow_unconverged is set; then the march goes
    on, and one RuntimeWarning after it names how many steps were left
    unconverged, the first of them and the largest residual norm.  The
    model's size, the design and the initial state's shape are checked
    once, and the pseudo-time constants and the model's residual and
    Jacobian, bound to the design by bind, are resolved once per march;
    the bound functions each step calls do not check their inputs again.
    The outputs are formed in one call once the march is done.
    """
    cfg = cfg or PseudoTimeConfig()
    u0 = np.asarray(model.initial_state(), dtype=float)
    sigma = check_inputs(model, sigma, u0)
    residual, jacobian = bind(model, sigma)
    states, inner, norms = _march2(
        residual, jacobian, u0.tolist(), grid.dt, grid.n_steps, cfg.inv_dtau, cfg.tol,
        cfg.max_inner, cfg.allow_unconverged)
    states = np.array(states, dtype=float).reshape(grid.n_steps + 1, 2)
    norms = np.array(norms, dtype=float)
    converged = norms <= cfg.tol
    if not converged.all():
        left = np.flatnonzero(~converged)
        warnings.warn(f"{len(left)} of {grid.n_steps} steps left unconverged, the first at "
                      f"step {left[0]} (largest residual {norms[left].max():.3e})",
                      RuntimeWarning, stacklevel=2)
    return Trajectory(grid=grid, states=states, outputs=model.output_value(states, sigma),
                      inner_iterations=np.array(inner), residual_norms=norms,
                      converged=converged)


def estimate_period(outputs, n_transient: int, dt: float) -> tuple[float, float]:
    """Estimate the oscillation period from post-transient outputs.

    Uses the mean spacing of upward crossings of the post-transient mean,
    with linear interpolation between samples.  Returns (period, span in
    periods) where the span is (len - 1 - n_transient) * dt / period.  An
    n_transient that is not an integer raises TypeError; a negative one or
    a dt that is not positive and finite InvalidSpanError.
    """
    _step_index(n_transient, "n_transient")
    if not 0.0 < dt < math.inf:
        raise InvalidSpanError(f"time step must be positive and finite, got dt={dt!r}")
    if n_transient < 0:
        raise InvalidSpanError(
            f"transient cutoff must be non-negative, got n_transient={n_transient}")
    outputs = np.asarray(outputs, dtype=float)
    tail = outputs[n_transient:]
    if len(tail) < 3:
        raise PeriodUndetectableError("too few samples after the transient cutoff")
    with np.errstate(over="ignore"):
        mean = tail.mean()
    if not np.isfinite(mean):  # the sum overflowed: average the scaled samples
        mean = (tail / len(tail)).sum()
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
