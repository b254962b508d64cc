"""Discrete adjoint of the implicit BDF2 march with windowed objectives.

The adjoint variables satisfy a backward recurrence whose per-step equation
can be solved either by the same pseudo-time fixed-point iteration the
primal uses (transposed), or by a direct dense solve of the equivalent
linear system.  Both give identical design derivatives; the fixed-point
route additionally reports its contraction factor per step, which stays
below one whenever the primal inner iteration converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdjointDivergenceError, SingularStepError
from .models import check_inputs
from .primal import (PseudoTimeConfig, Trajectory, solve_step, step_coefficients,
                     step_matrices)
from .windows import NamedEnum, NormalizationMode, Window, discrete_weights

__all__ = ["AdjointMode", "AdjointSweep", "ReverseSteps", "adjoint_step",
           "adjoint_sweep", "iteration_matrices"]


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


def adjoint_step(n, a_mat, m_mat, rhs, ubar_guess, iter_matrix, contraction, tol,
                 max_inner, mode: AdjointMode = AdjointMode.FIXED_POINT):
    """Solve the adjoint equation of physical step n.

    a_mat is the step matrix A_n = alpha_n I + dR/du, m_mat the pseudo-time
    matrix M_n = A_n + inv_dtau I, and rhs the step's seed less its
    downstream coupling.  iter_matrix is (I - M_n^{-1} A_n)^T and
    contraction its 2-norm, from iteration_matrices; iter_matrix is None in
    the Newton limit.  The fixed-point route iterates
    ubar <- iter_matrix ubar + rhs from ubar_guess; the direct route solves
    for its limit M_n^T A_n^{-T} rhs.

    Returns (ubar_n, iterations, residual norm, contraction estimate).
    """
    if iter_matrix is None:
        # Newton limit: the iteration matrix vanishes at the converged state
        ubar = rhs if mode is AdjointMode.FIXED_POINT \
            else m_mat.T @ solve_step(a_mat.T, rhs, n)
        return ubar, 1, 0.0, 0.0

    if mode is AdjointMode.DIRECT:
        ubar = m_mat.T @ solve_step(a_mat.T, rhs, n)
        change = iter_matrix @ ubar + rhs - ubar
        return ubar, 0, math.sqrt(change.dot(change)), contraction

    ubar = np.asarray(ubar_guess, dtype=float).copy()
    previous_residual = math.inf
    for iteration in range(1, max_inner + 1):
        updated = iter_matrix @ ubar + rhs
        change = updated - ubar
        residual = math.sqrt(change.dot(change))  # what np.linalg.norm computes
        ubar = updated
        if residual <= tol:
            return ubar, iteration, residual, contraction
        if residual > previous_residual * 10.0 and residual > 1.0:
            raise AdjointDivergenceError(n, iteration, residual, contraction)
        previous_residual = residual
    raise AdjointDivergenceError(n, max_inner, previous_residual, contraction)


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

    weights = discrete_weights(kind, n_tr, n_total, normalization)
    omega = (weights.values / weights.span)[:, None]
    seeds = np.zeros((n_total + 1, d_u))
    seeds[n_tr:] = omega * model.output_state_gradient(states[n_tr:], sigma)
    design_seeds = omega * model.output_design_gradient(states[n_tr:], sigma)
    b_mats = model.jacobian_design(states[1:], sigma, grid.times()[1:])

    ubar = np.zeros((n_total + 1, d_u))
    lam = np.zeros((n_total + 1, d_u))
    running = np.zeros((n_total + 1, model.n_design))
    inner = np.zeros(n_total + 1, dtype=int)
    norms = np.zeros(n_total + 1)
    contractions = np.zeros(n_total + 1)

    total = np.zeros(model.n_design)
    for n in range(n_total, last, -1):
        m_mat = steps.m_mats[n - 1]
        rhs = seeds[n].copy()
        if n + 1 <= n_total:
            rhs -= step_coefficients(n + 1, dt)[1] * lam[n + 1]
        if n + 2 <= n_total:
            rhs -= step_coefficients(n + 2, dt)[2] * lam[n + 2]
        # warm start from the downstream adjoint state
        ubar_guess = ubar[n + 1] if n + 1 <= n_total else np.zeros(d_u)
        ubar[n], inner[n], norms[n], contractions[n] = adjoint_step(
            n, steps.a_mats[n - 1], m_mat, rhs, ubar_guess, steps.iteration[n - 1],
            float(steps.contractions[n - 1]), tol, cfg.max_inner, mode)

        lam[n] = solve_step(m_mat.T, ubar[n], n)
        total = total - lam[n] @ b_mats[n - 1]
        if n >= n_tr:
            total = total + design_seeds[n - n_tr]
        running[n] = total
    if steps.singular is not None:
        raise steps.singular

    running[0] = total  # step 0 carries no constraint and zero weight
    return AdjointSweep(adjoint_states=ubar, seeds=seeds, design_derivative=total,
                        running_design_derivative=running, inner_iterations=inner,
                        residual_norms=norms, contraction_estimates=contractions,
                        steps=steps)
