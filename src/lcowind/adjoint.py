"""Discrete adjoint of the implicit BDF2 march with windowed objectives.

The adjoint variables satisfy a backward recurrence whose per-step equation
can be solved either by the same pseudo-time fixed-point iteration the
primal uses (transposed), or by a direct dense solve of the equivalent
linear system.  Both give identical design derivatives; the fixed-point
route additionally reports per step the 2-norm of its iteration matrix as
a contraction estimate.  That norm bounds the iteration's spectral radius
from above, so it can exceed one at a step whose iteration still
converges, as the primal's inner iteration did there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import check_inputs
from .primal import (PseudoTimeConfig, Trajectory, float_kernels, solve_step, step_coefficients,
                     step_matrices)
from .windows import NamedEnum, NormalizationMode, Window, discrete_weights

__all__ = ["AdjointMode", "AdjointSweep", "ReverseSteps", "adjoint_sweep"]


class AdjointMode(NamedEnum, label="adjoint mode"):
    FIXED_POINT = "fixed-point"
    DIRECT = "direct"


@dataclass(frozen=True)
class ReverseSteps:
    """Every step's matrices of one trajectory, built before a reverse sweep.

    Entry n - 1 belongs to physical step n: the step matrix A_n = alpha_n I
    + dR/du, the pseudo-time matrix M_n = A_n + inv_dtau I and the step's
    contraction estimate, the 2-norm inv_dtau / sigma_min(M_n) of the
    fixed-point iteration matrix (I - M_n^{-1} A_n)^T = inv_dtau M_n^{-T}:
    zero in the Newton limit, and inf where M_n is singular, a step the
    sweep raises SingularStepError on when it reaches it.
    """

    a_mats: np.ndarray
    m_mats: np.ndarray
    contractions: np.ndarray


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


def _reverse_steps(model, sigma, traj: Trajectory,
                   cfg: PseudoTimeConfig) -> ReverseSteps:
    """Build the matrices of every step of traj for a reverse sweep, and
    their contraction estimates from one batched SVD."""
    a_mats = step_matrices(model, sigma, traj)
    m_mats = a_mats + cfg.inv_dtau * np.eye(model.d_u)
    if cfg.inv_dtau == 0.0:
        return ReverseSteps(a_mats, m_mats, np.zeros(len(a_mats)))
    with np.errstate(divide="ignore"):
        contractions = cfg.inv_dtau / np.linalg.svd(m_mats, compute_uv=False)[:, -1]
    return ReverseSteps(a_mats, m_mats, contractions)


def _adjoint_step(n, a_mat, m_mat, rhs):
    """Solve the direct mode's adjoint equation of physical step n.

    a_mat is the step matrix A_n = alpha_n I + dR/du, m_mat the pseudo-time
    matrix M_n = A_n + inv_dtau I and rhs, a float list, the step's seed
    less its downstream coupling.  dgesv solves for the fixed-point
    iteration's limit M_n^T A_n^{-T} rhs, returned as a float list.
    """
    return (m_mat.T @ solve_step(a_mat.T, rhs, n)).tolist()


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

    omega = (discrete_weights(kind, n_tr, n_total, normalization) / (n_total - n_tr))[:, None]
    seeds = np.zeros((n_total + 1, d_u))
    seeds[n_tr:] = omega * model.output_state_gradient(states[n_tr:], sigma)
    design_seeds = omega * model.output_design_gradient(states[n_tr:], sigma)
    b_mats = model.jacobian_design(states[1:], sigma, grid.times()[1:])

    # the reverse loop runs on float lists: each step's seed, its M_n^T
    # row-major, and its contraction estimate
    seed_rows = seeds.tolist()
    m_transposed = steps.m_mats.transpose(0, 2, 1).reshape(n_total, d_u * d_u).tolist()
    direct = None
    if mode is AdjointMode.DIRECT:
        def direct(n, rhs):
            return _adjoint_step(n, steps.a_mats[n - 1], steps.m_mats[n - 1], rhs)
    # steps n + 1 and n + 2, which step n couples to, are BDF2 steps
    _, beta, delta = step_coefficients(2, dt)
    ubar, inner, norms, lambdas = float_kernels(d_u).reverse(
        seed_rows, m_transposed, steps.contractions.tolist(), cfg.inv_dtau, beta, delta, tol,
        cfg.max_inner, direct)
    # the loop's float lists go before the design sum builds its arrays
    del m_transposed, seed_rows

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
