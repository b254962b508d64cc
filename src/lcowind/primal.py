"""Implicit BDF2 time marching driven by a pseudo-time inner iteration.

Each physical step solves the extended residual equation R*(u^n) = 0 by
implicit-Euler pseudo-time smoothing of the linearized update, with the
step matrix formed once per step (a chord iteration); an infinite
pseudo-time step reduces the update to a plain Newton step, with the
Jacobian taken at every iterate.  The first physical step is bootstrapped
with BDF1 since no second history level exists yet.  The float kernels of
each state size live here too, the reverse loop of both sweeps among them,
so float_kernels alone chooses by size.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import sqrt
from operator import sub
from typing import Callable, NamedTuple

import numpy as np

from .errors import (AdjointDivergenceError, InvalidSpanError, PeriodUndetectableError,
                     SingularStepError, StepConvergenceError)
from .models import bind, check_inputs

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


def _extended_residual(residual, u_n, t, alpha, beta_u_nm1, delta_u_nm2) -> list[float]:
    """Extended residual alpha u_n + R(u_n) + beta u_{n-1} + delta u_{n-2}
    of the float list u_n, R the bound residual, with its history terms beta
    u_{n-1} and delta u_{n-2} already formed as float lists, as they stay
    fixed over a physical step.  The sums run on Python floats, in the order
    of the formula."""
    return [alpha * x + r + b + d for x, r, b, d
            in zip(u_n, residual(u_n, t), beta_u_nm1, delta_u_nm2)]


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
    # step 1 is BDF1, every later step BDF2
    alphas = np.full(traj.n_steps, step_coefficients(2, dt)[0])
    alphas[0] = step_coefficients(1, dt)[0]
    jacobian = bind(model, sigma)[1]
    jacobians = np.array([jacobian(u, n * dt)
                          for n, u in zip(steps, traj.states[1:].tolist())])
    return alphas[:, None, None] * np.eye(d_u) + jacobians.reshape(-1, d_u, d_u)


def _solver(entries, step=None) -> Callable:
    """The solve of the system with row-major entries: the returned function
    solves one right-hand side per call through np.linalg.solve, LAPACK
    dgesv, as a float list, and raises SingularStepError for step where the
    system is singular; each caller solves as soon as it has the function."""
    matrix = np.array(entries).reshape(-1, math.isqrt(len(entries)))

    def solve(rhs):
        try:
            return np.linalg.solve(matrix, rhs).tolist()
        except np.linalg.LinAlgError:
            raise SingularStepError(step) from None
    return solve


def _vector_norm(r) -> float:
    """The 2-norm of a vector of any length, its squares summed left to
    right from 0.0.  For two entries that is sqrt(r0 r0 + r1 r1), as a
    square is never -0.0.  The loop is written out: sum() compensates float
    sums from Python 3.12 on, which would round otherwise."""
    square = 0.0
    for x in r:
        square += x * x
    return math.sqrt(square)


def _march(residual, jacobian, u0, dt, n_steps, inv_dtau, tol, max_inner, allow_unconverged):
    """Every physical step n = 1..n_steps of a march from the float list u0,
    at time n dt, with the bound residual and Jacobian: BDF1 at step 1,
    whose u_{-1} = u0 has no weight, and BDF2 after it.  Per step: the
    history terms beta u_{n-1} and delta u_{n-2} once, then from the
    predictor, 2.0 u_{n-1,i} - u_{n-2,i} from step 3 on and u_{n-1} before
    it, the extended residual, its norm and, while norm > tol and fewer than
    max_inner iterations ran, one update u - x, x the solve of the step
    system with _step_entries' matrix and the extended residual.  At a
    finite dtau the step's first update evaluates the Jacobian and forms the
    matrix, and every later update of the step solves with that matrix (a
    chord iteration); at inv_dtau = 0.0, the Newton limit, every update
    evaluates and forms it afresh.  A step that stops above tol raises
    StepConvergenceError with the roundoff floor at its last iterate unless
    allow_unconverged is set; no kernel warns.  Returns (states, iterations,
    norms): u0..u_N row-major in one flat list, and per step the iterations
    and the last norm, step 0's zeros first."""
    u_nm1 = u_nm2 = u0
    states, inner, norms = list(u0), [0], [0.0]
    bdf1, bdf2 = step_coefficients(1, dt), step_coefficients(2, dt)
    for n in range(1, n_steps + 1):
        alpha, beta, delta = bdf2 if n > 1 else bdf1
        t = n * dt
        beta_u_nm1, delta_u_nm2 = [beta * x for x in u_nm1], [delta * x for x in u_nm2]
        u = [2.0 * x - y for x, y in zip(u_nm1, u_nm2)] if n > 2 else list(u_nm1)
        extended = _extended_residual(residual, u, t, alpha, beta_u_nm1, delta_u_nm2)
        norm = _vector_norm(extended)
        its = 0
        while norm > tol and its < max_inner:
            if its == 0 or inv_dtau == 0.0:
                solve = _solver(_step_entries(jacobian(u, t), alpha, inv_dtau), n)
            u = list(map(sub, u, solve(extended)))
            extended = _extended_residual(residual, u, t, alpha, beta_u_nm1, delta_u_nm2)
            norm = _vector_norm(extended)
            its += 1
        if not (norm <= tol or allow_unconverged):
            floor = _roundoff_floor(residual, u, t, alpha, beta, delta, u_nm1, u_nm2)
            raise StepConvergenceError(n, its, norm, floor, tol)
        u_nm1, u_nm2 = u, u_nm1
        states += u
        inner.append(its)
        norms.append(norm)
    return states, inner, norms


def _march2(residual, jacobian, u0, dt, n_steps, inv_dtau, tol, max_inner, allow_unconverged):
    """_march of two states on local floats, with the predictor, the
    extended residual, _step_entries, the solve and _vector_norm written
    out in their order.  The factoring pivots, swapping the rows when |a21|
    > |a11|, then forms l = a21 / a11 and u22 = a22 - l a12, and a zero
    pivot or u22 raises SingularStepError; the solve swaps the right-hand
    side alike and forms x2 = (b2 - l b1) / u22 and x1 = (b1 - a12 x2) /
    a11.  The factors are formed at the step's first update and, at a
    finite dtau, kept for the rest of the step.  The bound residual and
    Jacobian are called once per evaluation, with the iterate as a float
    list and t.  u_{n-1} and u_{n-2} stay local floats from one step to
    the next."""
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
        u = [x0, x1]
        r0, r1 = residual(u, t)
        e0 = alpha * x0 + r0 + h0 + g0
        e1 = alpha * x1 + r1 + h1 + g1
        norm = sqrt(e0 * e0 + e1 * e1)
        its = 0
        while norm > tol and its < max_inner:
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
            u = [x0, x1]
            r0, r1 = residual(u, t)
            e0 = alpha * x0 + r0 + h0 + g0
            e1 = alpha * x1 + r1 + h1 + g1
            norm = sqrt(e0 * e0 + e1 * e1)
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


def _reverse(seeds, a_rows, inv_dtau, beta, delta, tol, max_inner):
    """The reverse loop of one adjoint sweep, on float lists, for steps n
    from N = len(a_rows) down to 1.  The tangent runs it too, in its Newton
    limit on the rows of A_n, steps reversed (see tangent_sweep).

    seeds holds step n's seed at row n; entry n - 1 of a_rows holds the
    row-major entries of A_n^T; inv_dtau is 1/dtau, and beta and delta are
    the BDF2 coefficients that couple step n to steps n + 1 and n + 2.  Each
    step forms M_n^T's diagonal as a_ii + inv_dtau, leaving the entries off
    it as given, and its right-hand side (s - beta lambda_{n+1}) - delta
    lambda_{n+2}, leaving out the terms of steps beyond N, and sets ubar_n:
    as rhs itself in the Newton limit, inv_dtau = 0.0, else by the
    fixed-point loop warm-started from ubar_{n+1}.  M_n - A_n = I/dtau makes
    the iteration matrix (I - M_n^{-1} A_n)^T equal to inv_dtau M_n^{-T}, so
    from lambda = M_n^{-T} ubar each iterate is ubar <- rhs + inv_dtau
    lambda, row i r_i + inv_dtau lambda_i, followed by the solve of the new
    lambda.  The loop stops when the norm of the change is at most tol,
    exceeds both 1 and ten times the previous change's norm, or max_inner
    iterates ran, and raises AdjointDivergenceError, with no contraction
    estimate, unless that norm is at most tol.  The Newton limit records
    one iteration and a zero norm.  Each step forms M_n^T once and solves
    every lambda_n = M_n^{-T} ubar_n with it through _solver's solve, which
    raises SingularStepError at the first step whose M_n is singular; the
    last lambda is kept for the two earlier steps.  The direct adjoint hands
    inv_dtau = 0.0, so the Newton limit's lambda_n solves A_n^T lambda_n = rhs.

    Returns (ubar, iterations, norms, lambdas): ubar row-major with a zero
    row 0, the iterations and norms per step with step 0's zero, and
    lambda_n row-major at row n - 1, each a flat list.
    """
    n_total, d_u = len(a_rows), len(seeds[0])
    ubar = [0.0] * (d_u * (n_total + 1))
    inner = [0] * (n_total + 1)
    norms = [0.0] * (n_total + 1)
    lambdas = [0.0] * (d_u * n_total)
    iterate = inv_dtau != 0.0
    ubar_n = [0.0] * d_u  # the warm start of the last step
    lam1 = lam2 = None  # lambda_{n+1} and lambda_{n+2}
    for n in range(n_total, 0, -1):
        if n + 2 <= n_total:
            rhs = [(s - beta * x) - delta * y for s, x, y in zip(seeds[n], lam1, lam2)]
        elif n + 1 <= n_total:
            rhs = [s - beta * x for s, x in zip(seeds[n], lam1)]
        else:
            rhs = seeds[n]
        entries = list(a_rows[n - 1])
        for i in range(0, d_u * d_u, d_u + 1):
            entries[i] += inv_dtau
        solve = _solver(entries, n)
        if not iterate:
            ubar_n = rhs
        lam = solve(ubar_n)
        if iterate:
            previous = None  # the change norm of the previous iterate
            for its in range(1, max_inner + 1):
                updated = [r + inv_dtau * x for r, x in zip(rhs, lam)]
                norm = _vector_norm(list(map(sub, updated, ubar_n)))
                ubar_n = updated
                lam = solve(ubar_n)
                if norm <= tol or norm > 1.0 and previous is not None and norm > previous * 10.0:
                    break
                previous = norm
            if not norm <= tol:
                raise AdjointDivergenceError(n, its, norm)
        else:
            its, norm = 1, 0.0
        inner[n], norms[n] = its, norm
        lam1, lam2 = lam, lam1
        ubar[n * d_u:(n + 1) * d_u] = ubar_n
        lambdas[(n - 1) * d_u:n * d_u] = lam
    return ubar, inner, norms, lambdas


def _reverse2(seeds, a_rows, inv_dtau, beta, delta, tol, max_inner):
    """_reverse of two states on local floats, with the right-hand side,
    the iterate and _march2's solve written out in their order: each step forms
    M_n^T's diagonal a11 + inv_dtau and a22 + inv_dtau, factors M_n^T once,
    the row swap, l and u22 with their zero tests, and solves every lambda
    from those factors.  Row i of a fixed-point iterate is r_i + inv_dtau
    lambda_i, and its change's norm sqrt(c0 c0 + c1 c1).  ubar_{n+1},
    lambda_{n+1} and lambda_{n+2} stay local floats from one step to the
    next."""
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


class FloatKernels(NamedTuple):
    """The kernels of one state size, on Python floats.

    march takes the arguments of _march and runs every physical step of one
    march, each step's whole inner iteration; reverse takes the arguments of
    _reverse and runs one sweep's whole reverse loop, the adjoint's and, in
    its Newton limit, the tangent's.
    """

    march: Callable
    reverse: Callable


# two states, every model in lcowind: the march and the reverse loop
# written out
_TWO_STATE_KERNELS = FloatKernels(_march2, _reverse2)
_ARRAY_KERNELS = FloatKernels(_march, _reverse)


def float_kernels(d_u) -> FloatKernels:
    """The kernels of a step system of size d_u, the one place that chooses
    by size.  Two states solve on Python floats; any other size solves each
    right-hand side through np.linalg.solve, in _solver.  Every size takes
    its norms and its fixed-point iterates on Python floats, in the same
    stated order."""
    return _TWO_STATE_KERNELS if d_u == 2 else _ARRAY_KERNELS


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
    predictor 2 u_{n-1} - u_{n-2}.  One call of the march kernel that
    float_kernels gives for the model's size runs every physical step, each
    step's whole inner iteration, on Python floats.  The norm is taken of
    every iterate's residual, and the norm that stops the step is the one
    the trajectory records.  A step that stops unconverged raises
    StepConvergenceError with the extended residual's roundoff floor at its
    last iterate, unless cfg.allow_unconverged is set; then the march goes
    on, and one RuntimeWarning after it names how many steps were left
    unconverged, the first of them and the largest residual norm.  The
    design and the initial state's shape are checked once, and the
    pseudo-time constants, the kernels and the model's residual and
    Jacobian, bound to the design by bind, are resolved once per march;
    the bound functions each step calls do not check their inputs again.
    The outputs are formed in one call once the march is done.
    """
    cfg = cfg or PseudoTimeConfig()
    u0 = np.asarray(model.initial_state(sigma), dtype=float)
    sigma = check_inputs(model, sigma, u0)
    residual, jacobian = bind(model, sigma)
    states, inner, norms = float_kernels(model.d_u).march(
        residual, jacobian, u0.tolist(), grid.dt, grid.n_steps, cfg.inv_dtau, cfg.tol,
        cfg.max_inner, cfg.allow_unconverged)
    states = np.array(states, dtype=float).reshape(grid.n_steps + 1, model.d_u)
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
    periods) where the span is (len - 1 - n_transient) * dt / period.
    """
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
