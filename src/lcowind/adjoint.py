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

import numpy as np

from .errors import SingularStepError
from .models import check_inputs
from .primal import (PseudoTimeConfig, Trajectory, _fixed_point, float_kernels, solve_step,
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


def _adjoint_step(n, a_mat, m_mat, rhs, iter_matrix):
    """Solve the direct mode's adjoint equation of physical step n.

    a_mat is the step matrix A_n = alpha_n I + dR/du, m_mat the pseudo-time
    matrix M_n = A_n + inv_dtau I, rhs, a float list, the step's seed less
    its downstream coupling, and iter_matrix the row-major float entries of
    (I - M_n^{-1} A_n)^T from iteration_matrices, or None in the Newton
    limit.  dgesv solves for the fixed-point iteration's limit M_n^T
    A_n^{-T} rhs, and at a finite dtau the step records the norm of one
    iterate's change from it, taken by _fixed_point, which rounds every
    size as the reverse kernels do.

    Returns (ubar_n as a float list, iterations, residual norm).
    """
    ubar = (m_mat.T @ solve_step(a_mat.T, rhs, n)).tolist()
    if iter_matrix is None:
        return ubar, 1, 0.0
    return ubar, 0, _fixed_point(iter_matrix, rhs, ubar, 0.0, 1)[2]


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

    # the reverse loop runs on float lists: each step's seed, its M_n^T and
    # its iteration matrix row-major, and its contraction estimate
    seed_rows = seeds.tolist()
    m_transposed = steps.m_mats.transpose(0, 2, 1).reshape(n_total, d_u * d_u).tolist()
    iteration = steps.iteration
    if cfg.inv_dtau != 0.0:
        iteration = iteration.reshape(n_total, d_u * d_u).tolist()
    direct = None
    if mode is AdjointMode.DIRECT:
        def direct(n, rhs):
            return _adjoint_step(n, steps.a_mats[n - 1], steps.m_mats[n - 1], rhs,
                                 iteration[n - 1])
    # steps n + 1 and n + 2, which step n couples to, are BDF2 steps
    _, beta, delta = step_coefficients(2, dt)
    ubar, inner, norms, lambdas = float_kernels(d_u).reverse(
        seed_rows, m_transposed, iteration, steps.contractions.tolist(), beta, delta, last,
        tol, cfg.max_inner, direct)
    if steps.singular is not None:
        raise steps.singular
    # the loop's float lists go before the design sum builds its arrays, so
    # the iteration matrices' rows add nothing to the sweep's peak memory
    del iteration, m_transposed, seed_rows

    # The design derivative runs back from step N: step n subtracts
    # lambda_n B_n and, from the transient cutoff on, adds its design seed.
    # The products are one batched matmul, with the bits of one per step.
    # One accumulate sums, from +0.0, a column that interleaves minus each
    # step's product with its design seed, or -0.0 before the cutoff.  a - b
    # is a + (-b) in IEEE arithmetic, x + (-0.0) is x, and accumulate adds
    # in sequence, so every sum rounds as a loop on Python floats would; only
    # a NaN product comes out with its sign bit flipped, which no output
    # shows.
    n_design = model.n_design
    coupling = np.matmul(np.array(lambdas).reshape(n_total, 1, d_u), b_mats)[:, 0]
    terms = np.full((2 * n_total + 1, n_design), -0.0)
    terms[0] = 0.0
    terms[1::2] = -coupling[::-1]
    seeded = n_total - max(n_tr, 1) + 1  # steps N down to max(n_tr, 1)
    terms[2:2 * seeded + 1:2] = design_seeds[::-1][:seeded]
    with np.errstate(all="ignore"):
        tail = np.add.accumulate(terms, axis=0)[:0:-2]  # the sums after steps 1..N
    # step 0 carries no constraint and zero weight
    running = np.concatenate((tail[:1], tail))
    return AdjointSweep(adjoint_states=np.array(ubar).reshape(n_total + 1, d_u), seeds=seeds,
                        design_derivative=running[0].copy(),
                        running_design_derivative=running, inner_iterations=np.array(inner),
                        residual_norms=np.array(norms),
                        contraction_estimates=np.concatenate(([0.0], steps.contractions)),
                        steps=steps)
