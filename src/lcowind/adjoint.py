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

from .errors import AdjointDivergenceError
from .primal import PseudoTimeConfig, Trajectory, solve_step, step_coefficients
from .windows import NamedEnum, NormalizationMode, Window, discrete_weights

__all__ = ["AdjointMode", "AdjointSweep", "adjoint_step", "adjoint_sweep"]


class AdjointMode(NamedEnum, label="adjoint mode"):
    FIXED_POINT = "fixed-point"
    DIRECT = "direct"


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


def adjoint_step(n, a_mat, m_mat, rhs, ubar_guess, inv_dtau, tol, max_inner,
                 mode: AdjointMode = AdjointMode.FIXED_POINT):
    """Solve the adjoint equation of physical step n.

    a_mat is the step matrix A_n = alpha_n I + dR/du, m_mat the pseudo-time
    matrix M_n = A_n + inv_dtau I, and rhs the step's seed less its
    downstream coupling.  The fixed-point route iterates
    ubar <- (I - M_n^{-1} A_n)^T ubar + rhs from ubar_guess; the direct
    route solves for its limit M_n^T A_n^{-T} rhs.

    Returns (ubar_n, iterations, residual norm, contraction estimate).
    """
    if inv_dtau == 0.0:
        # Newton limit: the iteration matrix vanishes at the converged state
        ubar = rhs if mode is AdjointMode.FIXED_POINT \
            else m_mat.T @ solve_step(a_mat.T, rhs, n)
        return ubar, 1, 0.0, 0.0

    iter_matrix = (np.eye(len(rhs)) - solve_step(m_mat, a_mat, n)).T
    contraction = float(np.linalg.norm(iter_matrix, 2))

    if mode is AdjointMode.DIRECT:
        ubar = m_mat.T @ solve_step(a_mat.T, rhs, n)
        residual = float(np.linalg.norm(iter_matrix @ ubar + rhs - ubar))
        return ubar, 0, residual, contraction

    ubar = np.asarray(ubar_guess, dtype=float).copy()
    previous_residual = math.inf
    for iteration in range(1, max_inner + 1):
        updated = iter_matrix @ ubar + rhs
        residual = float(np.linalg.norm(updated - ubar))
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
                  tol: float | None = None) -> AdjointSweep:
    """March the adjoint from the final step to the first and accumulate
    the design derivative of the windowed objective.

    Step n's objective seed is omega_n dg/du, omega_n being the window
    weight over the span, nonzero only from the transient cutoff on.  Each
    step builds its matrices once and keeps lambda_n = M_n^{-T} ubar_n, which
    couples it to steps n - 1 and n - 2 and carries its design derivative
    term.  All primal states are held in memory, so no recomputation is
    needed.
    """
    cfg = cfg or PseudoTimeConfig()
    tol = cfg.tol if tol is None else tol
    grid = traj.grid
    n_total = grid.n_steps
    n_tr = grid.n_transient
    dt = grid.dt
    d_u = model.d_u
    states = traj.states

    weights = discrete_weights(kind, n_tr, n_total, normalization)
    omega = weights.values / weights.span

    ubar = np.zeros((n_total + 1, d_u))
    lam = np.zeros((n_total + 1, d_u))
    seeds = np.zeros((n_total + 1, d_u))
    running = np.zeros((n_total + 1, model.n_design))
    inner = np.zeros(n_total + 1, dtype=int)
    norms = np.zeros(n_total + 1)
    contractions = np.zeros(n_total + 1)

    for n in range(n_tr, n_total + 1):
        seeds[n] = omega[n - n_tr] * model.output_state_gradient(states[n], sigma)

    total = np.zeros(model.n_design)
    for n in range(n_total, 0, -1):
        t_n = n * dt
        a_mat = step_coefficients(n, dt)[0] * np.eye(d_u) \
            + model.jacobian_state(states[n], sigma, t_n)
        m_mat = a_mat + cfg.inv_dtau * np.eye(d_u)
        rhs = seeds[n].copy()
        if n + 1 <= n_total:
            rhs -= step_coefficients(n + 1, dt)[1] * lam[n + 1]
        if n + 2 <= n_total:
            rhs -= step_coefficients(n + 2, dt)[2] * lam[n + 2]
        # warm start from the downstream adjoint state
        ubar_guess = ubar[n + 1] if n + 1 <= n_total else np.zeros(d_u)
        ubar[n], inner[n], norms[n], contractions[n] = adjoint_step(
            n, a_mat, m_mat, rhs, ubar_guess, cfg.inv_dtau, tol, cfg.max_inner,
            mode)

        lam[n] = solve_step(m_mat.T, ubar[n], n)
        total = total - lam[n] @ model.jacobian_design(states[n], sigma, t_n)
        if n >= n_tr:
            total = total + omega[n - n_tr] * model.output_design_gradient(states[n], sigma)
        running[n] = total

    running[0] = total  # step 0 carries no constraint and zero weight
    return AdjointSweep(adjoint_states=ubar, seeds=seeds, design_derivative=total,
                        running_design_derivative=running, inner_iterations=inner,
                        residual_norms=norms, contraction_estimates=contractions)
