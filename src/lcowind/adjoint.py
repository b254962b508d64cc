"""Discrete adjoint of the implicit BDF2 march with windowed objectives.

The adjoint variables satisfy a backward recurrence whose per-step equation
can be solved either by the same pseudo-time fixed-point iteration the
primal uses (transposed), or by a direct dense solve of the equivalent
linear system.  Both give identical design derivatives; the fixed-point
route additionally reports its contraction factor per step, which stays
below one whenever the primal inner iteration converged.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .errors import AdjointDivergenceError, SingularStepError
from .models import check_inputs
from .primal import (PseudoTimeConfig, Trajectory, float_kernels, solve_step,
                     step_coefficients, step_matrices)
from .windows import NamedEnum, NormalizationMode, Window, discrete_weights

__all__ = ["AdjointMode", "AdjointSweep", "ReverseSteps", "adjoint_sweep",
           "iteration_matrices"]


class AdjointMode(NamedEnum, label="adjoint mode"):
    FIXED_POINT = "fixed-point"
    DIRECT = "direct"


@dataclass(frozen=True)
class ReverseSteps:
    """Every step's matrices of one trajectory, built before a reverse sweep.

    Entry n - 1 belongs to physical step n: the step matrix A_n = alpha_n I
    + dR/du, the pseudo-time matrix M_n = A_n + inv_dtau I and, at finite
    dtau, the fixed-point iteration matrix (I - M_n^{-1} A_n)^T with its
    2-norm, the step's contraction estimate.  In the Newton limit the
    iteration matrix vanishes at the converged state: its entries are None
    and the contractions zero.

    singular is the SingularStepError of the latest step whose M_n is
    singular, if any; a sweep raises it on reaching that step, so a failure
    at a later step, which the sweep meets first, still wins.
    """

    a_mats: np.ndarray
    m_mats: np.ndarray
    iteration: np.ndarray | list
    contractions: np.ndarray
    singular: SingularStepError | None = None


@dataclass
class AdjointSweep:
    """Adjoint states, seeds, and diagnostics of one reverse sweep."""

    adjoint_states: np.ndarray        # (n_steps + 1, d_u); slot 0 unused
    seeds: np.ndarray                 # (n_steps + 1, d_u)
    design_derivative: np.ndarray     # (n_design,)
    running_design_derivative: np.ndarray  # (n_steps + 1, n_design), tail sums
    inner_iterations: np.ndarray      # (n_steps + 1,) int
    residual_norms: np.ndarray        # (n_steps + 1,)
    contraction_estimates: np.ndarray  # (n_steps + 1,)
    steps: ReverseSteps               # reusable by another sweep over the trajectory


def iteration_matrices(a_mats, m_mats):
    """Fixed-point iteration matrices (I - M_n^{-1} A_n)^T of the stacked
    steps n = 1..N and their 2-norms, the steps' contraction estimates.

    A singular M_n raises SingularStepError naming the latest such step,
    the first one a reverse sweep meets.
    """
    try:
        solved = np.linalg.solve(m_mats, a_mats)
    except np.linalg.LinAlgError:
        for n in range(len(m_mats), 0, -1):
            solve_step(m_mats[n - 1], a_mats[n - 1], n)
        raise
    iteration = np.swapaxes(np.eye(a_mats.shape[-1]) - solved, 1, 2)
    return iteration, np.linalg.norm(iteration, 2, axis=(1, 2))


def _reverse_steps(model, sigma, traj: Trajectory,
                   cfg: PseudoTimeConfig) -> ReverseSteps:
    """Build the matrices of every step of traj for a reverse sweep."""
    a_mats = step_matrices(model, sigma, traj)
    identity = np.eye(model.d_u)
    m_mats = a_mats + cfg.inv_dtau * identity
    if cfg.inv_dtau == 0.0:
        return ReverseSteps(a_mats, m_mats, [None] * len(a_mats), np.zeros(len(a_mats)))
    try:
        return ReverseSteps(a_mats, m_mats, *iteration_matrices(a_mats, m_mats))
    except SingularStepError as exc:
        # the sweep stops at exc.step; a regular M_n below it changes nothing
        regular = m_mats.copy()
        regular[:exc.step] = identity
        return ReverseSteps(a_mats, m_mats, *iteration_matrices(a_mats, regular),
                            singular=exc)


def _fixed_point_iterate(iter_matrix, rhs):
    """One fixed-point iterate as a function of ubar, a float list:
    (iter_matrix @ ubar + rhs, the 2-norm of its change from ubar).  Two
    states run on Python floats, row i as (v_i0 x0 + v_i1 x1) + r_i; any
    other size goes through numpy's matmul."""
    norm_of = float_kernels(len(rhs)).norm
    if len(rhs) == 2:
        ((v00, v01), (v10, v11)), (r0, r1) = iter_matrix.tolist(), rhs

        def iterate(ubar):
            x0, x1 = ubar
            y0 = (v00 * x0 + v01 * x1) + r0
            y1 = (v10 * x0 + v11 * x1) + r1
            return [y0, y1], norm_of((y0 - x0, y1 - x1))
        return iterate

    def iterate(ubar):
        updated = (iter_matrix @ np.array(ubar) + rhs).tolist()
        return updated, norm_of(list(map(sub, updated, ubar)))
    return iterate


def _adjoint_step(n, a_mat, m_mat, rhs, ubar_guess, iter_matrix, contraction, tol,
                  max_inner, mode):
    """Solve the adjoint equation of physical step n.

    a_mat is the step matrix A_n = alpha_n I + dR/du, m_mat the pseudo-time
    matrix M_n = A_n + inv_dtau I, and rhs, a float list, the step's seed
    less its downstream coupling.  iter_matrix is (I - M_n^{-1} A_n)^T and
    contraction its 2-norm, from iteration_matrices; iter_matrix is None in
    the Newton limit.  The fixed-point route iterates
    ubar <- iter_matrix ubar + rhs from the float list ubar_guess, on Python
    floats, until the norm of the change is at most tol; that norm is the
    one recorded.  The direct route solves for its limit
    M_n^T A_n^{-T} rhs.

    Returns (ubar_n as a float list, iterations, residual norm,
    contraction estimate).
    """
    if iter_matrix is None:
        # Newton limit: the iteration matrix vanishes at the converged state
        ubar = list(rhs) if mode is AdjointMode.FIXED_POINT \
            else (m_mat.T @ solve_step(a_mat.T, rhs, n)).tolist()
        return ubar, 1, 0.0, 0.0

    iterate = _fixed_point_iterate(iter_matrix, rhs)
    if mode is AdjointMode.DIRECT:
        ubar = (m_mat.T @ solve_step(a_mat.T, rhs, n)).tolist()
        return ubar, 0, iterate(ubar)[1], contraction

    ubar = list(ubar_guess)
    previous = None  # the change norm of the previous iterate
    for iteration in range(1, max_inner + 1):
        ubar, residual = iterate(ubar)
        if residual <= tol:
            return ubar, iteration, residual, contraction
        if residual > 1.0 and previous is not None and residual > previous * 10.0:
            raise AdjointDivergenceError(n, iteration, residual, contraction)
        previous = residual
    raise AdjointDivergenceError(n, max_inner, previous, contraction)


def adjoint_sweep(model, sigma, traj: Trajectory, kind: Window,
                  cfg: PseudoTimeConfig | None = None,
                  mode: AdjointMode = AdjointMode.FIXED_POINT,
                  normalization: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                  tol: float | None = None,
                  steps: ReverseSteps | None = None) -> AdjointSweep:
    """March the adjoint from the final step to the first and accumulate
    the design derivative of the windowed objective.

    Step n's objective seed is omega_n dg/du, omega_n being the window
    weight over the span, nonzero only from the transient cutoff on.  The
    seeds, the design Jacobians and the output design gradients of all
    steps are formed before the reverse loop, one model call each.  The
    matrices of all steps are built at once too, or taken from steps, the
    `steps` of an earlier sweep with the same dynamics, trajectory and cfg.
    Each step keeps lambda_n = M_n^{-T} ubar_n, which couples it to steps
    n - 1 and n - 2 and carries its design derivative term.  All primal
    states are held in memory, so no recomputation is needed.  The design
    and the states' shape are checked once, here.
    """
    sigma = check_inputs(model, sigma, traj.states, traj.n_steps)
    cfg = cfg or PseudoTimeConfig()
    tol = cfg.tol if tol is None else tol
    grid = traj.grid
    n_total = grid.n_steps
    n_tr = grid.n_transient
    dt = grid.dt
    d_u = model.d_u
    states = traj.states
    if steps is None:
        steps = _reverse_steps(model, sigma, traj, cfg)
    last = 0 if steps.singular is None else steps.singular.step

    omega = (discrete_weights(kind, n_tr, n_total, normalization) / (n_total - n_tr))[:, None]
    seeds = np.zeros((n_total + 1, d_u))
    seeds[n_tr:] = omega * model.output_state_gradient(states[n_tr:], sigma)
    design_seeds = omega * model.output_design_gradient(states[n_tr:], sigma)
    b_mats = model.jacobian_design(states[1:], sigma, grid.times()[1:])

    # the loop runs on float lists: each step's seed, its M_n^T row-major
    # for the solve of lambda_n = M_n^{-T} ubar_n, and the lambdas it keeps
    solve = float_kernels(d_u).solve
    seed_rows = seeds.tolist()
    m_transposed = steps.m_mats.transpose(0, 2, 1).reshape(n_total, d_u * d_u).tolist()
    step_contractions = steps.contractions.tolist()
    # row n: step n's (ubar_n, iterations, residual norm, contraction); row 0 stays zero
    records = [([0.0] * d_u, 0, 0.0, 0.0)] * (n_total + 1)
    lam = [None] * (n_total + 1)
    ubar_n = [0.0] * d_u  # the warm start of the last step
    # steps n + 1 and n + 2, which step n couples to, are BDF2 steps
    _, beta, delta = step_coefficients(2, dt)
    for n in range(n_total, last, -1):
        if n + 2 <= n_total:
            rhs = [(s - beta * x) - delta * y
                   for s, x, y in zip(seed_rows[n], lam[n + 1], lam[n + 2])]
        elif n + 1 <= n_total:
            rhs = [s - beta * x for s, x in zip(seed_rows[n], lam[n + 1])]
        else:
            rhs = seed_rows[n]
        # warm start from the downstream adjoint state
        records[n] = _adjoint_step(
            n, steps.a_mats[n - 1], steps.m_mats[n - 1], rhs, ubar_n, steps.iteration[n - 1],
            step_contractions[n - 1], tol, cfg.max_inner, mode)
        ubar_n = records[n][0]
        lam[n] = solve(m_transposed[n - 1], ubar_n, n)
    if steps.singular is not None:
        raise steps.singular
    ubar, inner, norms, contractions = (np.array(column) for column in zip(*records))

    # The design derivative runs back from step N: step n subtracts
    # lambda_n B_n and, from the transient cutoff on, adds its design seed.
    # The products are one batched matmul, with the bits of one per step;
    # the sums run on Python floats, from +0.0 as np.zeros starts them.
    coupling = np.matmul(np.array(lam[1:])[:, None, :], b_mats)[:, 0].tolist()
    design_rows = design_seeds.tolist()
    running = [None] * (n_total + 1)
    total = [0.0] * model.n_design
    for n in range(n_total, 0, -1):
        total = list(map(sub, total, coupling[n - 1]))
        if n >= n_tr:
            total = list(map(add, total, design_rows[n - n_tr]))
        running[n] = total
    running[0] = total  # step 0 carries no constraint and zero weight
    running = np.array(running)
    return AdjointSweep(adjoint_states=ubar, seeds=seeds, design_derivative=running[0].copy(),
                        running_design_derivative=running, inner_iterations=inner,
                        residual_norms=norms, contraction_estimates=contractions,
                        steps=steps)
