"""Discrete adjoint of the implicit BDF2 march with windowed objectives.

The adjoint variables satisfy a backward recurrence whose per-step equation
is the fixed point of the transposed pseudo-time update, ubar = rhs +
(1/dtau) M_n^{-T} ubar, M_n = A_n + I/dtau, on the stack of step matrices
A_n that step_matrices gives the primal's and the tangent's steps too.  The
fixed-point mode iterates it, as the primal's inner iteration does.
contraction_estimates gives per step the 2-norm of its iteration matrix, an
upper bound of its spectral radius, so it can exceed one at a step whose
iteration still converges.  The direct mode solves A_n^T lambda_n = rhs in
the reverse loop's Newton limit, as M_n^T - A_n^T = I/dtau, and sets ubar_n
= rhs + lambda_n / dtau.  The two modes agree to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import primal
from .errors import AdjointDivergenceError
from .models import check_inputs
from .primal import (PseudoTimeConfig, Trajectory, _row_norms, step_coefficients,
                     step_matrices)
from .windows import NamedEnum, NormalizationMode, Window, discrete_weights

__all__ = ["AdjointMode", "AdjointSweep", "adjoint_sweep", "contraction_estimates"]


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
    steps: np.ndarray                 # (n_steps, d_u, d_u) A_n, for any sweep over the trajectory


def contraction_estimates(steps: np.ndarray, cfg: PseudoTimeConfig) -> np.ndarray:
    """Each step's contraction estimate of the fixed-point adjoint at cfg's
    dtau, from steps, the A_n stack of step_matrices: step 0's zero, then
    the 2-norm inv_dtau / sigma_min(M_n) of the iteration matrix (I -
    M_n^{-1} A_n)^T = inv_dtau M_n^{-T}, M_n = A_n + inv_dtau I, from one
    batched SVD.  Zero in the Newton limit, and inf where M_n is singular,
    a step the fixed-point sweep raises SingularStepError on."""
    estimates = np.zeros(len(steps) + 1)
    if cfg.inv_dtau != 0.0:
        shifted = steps + cfg.inv_dtau * np.eye(steps.shape[1])  # every M_n
        with np.errstate(divide="ignore"):
            estimates[1:] = cfg.inv_dtau / np.linalg.svd(shifted, compute_uv=False)[:, -1]
    return estimates


def adjoint_sweep(model, sigma, traj: Trajectory, kind: Window,
                  cfg: PseudoTimeConfig | None = None,
                  mode: AdjointMode = AdjointMode.FIXED_POINT,
                  normalization: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                  tol: float | None = None,
                  steps: np.ndarray | None = None) -> AdjointSweep:
    """March the adjoint from the final step to the first and accumulate
    the design derivative of the windowed objective.

    Step n's objective seed is omega_n dg/du, omega_n being the window
    weight over the span, nonzero only from the transient cutoff on.  The
    seeds, the design Jacobians and the output design gradients of all
    steps are formed before the reverse loop, one model call each.  The
    step matrices A_n of all steps are stacked at once too, or taken from
    steps, the `steps` of an earlier sweep over the same dynamics and
    trajectory, at any dtau and in either mode; a stack of another shape
    than (N, 2, 2) raises ValueError.  Each step keeps lambda_n =
    M_n^{-T} ubar_n, which couples it to steps n - 1 and n - 2 and carries
    its design derivative term; the direct mode solves it as A_n^{-T} rhs,
    M_n^T - A_n^T being I/dtau.  All primal states are held in memory, so no
    recomputation is needed.  The design and the states' shape are checked
    once, here.  A diverging step's AdjointDivergenceError carries its
    contraction estimate.
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
        steps = step_matrices(model, sigma, traj)
    elif np.shape(steps) != (n_total, d_u, d_u):
        raise ValueError(f"steps must have shape {(n_total, d_u, d_u)} for this "
                         f"trajectory, got {np.shape(steps)}")

    omega = (discrete_weights(kind, n_tr, n_total, normalization) / (n_total - n_tr))[:, None]
    seeds = np.zeros((n_total + 1, d_u))
    seeds[n_tr:] = omega * model.output_state_gradient(states[n_tr:], sigma)
    design_seeds = omega * model.output_design_gradient(states[n_tr:], sigma)
    b_mats = model.jacobian_design(states[1:], sigma, grid.times()[1:])

    # the reverse loop runs on float lists: each step's seed and its A_n^T
    # row-major, to whose diagonal it adds inv_dtau.  The direct mode hands
    # inv_dtau = 0.0, so the loop's Newton limit copies each step's
    # right-hand side into ubar_n and solves A_n^T lambda_n = rhs
    direct = mode is AdjointMode.DIRECT
    transposed = steps.transpose(0, 2, 1)
    # steps n + 1 and n + 2, which step n couples to, are BDF2 steps
    _, beta, delta = step_coefficients(2, dt)
    try:
        ubar, inner, norms, lambdas = primal._reverse2(
            seeds.tolist(), transposed.reshape(n_total, d_u * d_u).tolist(),
            0.0 if direct else cfg.inv_dtau, beta, delta, tol, cfg.max_inner)
    except AdjointDivergenceError as exc:
        contraction = float(contraction_estimates(steps, cfg)[exc.step])
        raise AdjointDivergenceError(exc.step, exc.iterations, exc.residual_norm,
                                     contraction) from None
    ubar = np.array(ubar).reshape(n_total + 1, d_u)
    lam = np.array(lambdas).reshape(n_total, d_u)
    if direct:
        # ubar_n = rhs + inv_dtau lambda_n, row i r_i + inv_dtau lambda_i as an iterate
        # forms it, and the solve's residual norm ||A_n^T lambda_n - rhs_n||, all
        # elementwise, so no BLAS build changes its bits; neither warns, as Python
        # floats do not
        with np.errstate(all="ignore"):
            residuals = (transposed[:, :, 0] * lam[:, :1]
                         + transposed[:, :, 1] * lam[:, 1:]) - ubar[1:]
            norms = np.concatenate(([0.0], _row_norms(residuals)))
            if cfg.inv_dtau != 0.0:
                ubar[1:] += cfg.inv_dtau * lam

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
    coupling = np.matmul(lam.reshape(n_total, 1, d_u), b_mats)[:, 0]
    terms = np.full((2 * n_total + 1, n_design), -0.0)
    terms[0] = 0.0
    terms[1::2] = -coupling[::-1]
    seeded = n_total - max(n_tr, 1) + 1  # steps N down to max(n_tr, 1)
    terms[2:2 * seeded + 1:2] = design_seeds[::-1][:seeded]
    with np.errstate(all="ignore"):
        tail = np.add.accumulate(terms, axis=0)[:0:-2]  # the sums after steps 1..N
    # step 0 carries no constraint and zero weight
    running = np.concatenate((tail[:1], tail))
    return AdjointSweep(adjoint_states=ubar, seeds=seeds,
                        design_derivative=running[0].copy(),
                        running_design_derivative=running, inner_iterations=np.array(inner),
                        residual_norms=np.array(norms), steps=steps)
