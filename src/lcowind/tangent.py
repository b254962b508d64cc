"""Forward (tangent) sensitivities of the implicit BDF2 march.

The tangent recurrence differentiates the converged step equations, not
the inner iteration path, so its solution is the exact derivative of the
discrete trajectory with respect to the design variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import check_inputs
from .primal import Trajectory, solve_step, step_coefficients, step_matrices
from .windows import NormalizationMode, Window, discrete_weights

__all__ = ["TangentTrajectory", "tangent_step", "tangent_sweep",
           "windowed_tangent_sensitivity"]


@dataclass
class TangentTrajectory:
    """State and output sensitivities along a primal trajectory."""

    state_sensitivities: np.ndarray    # (n_steps + 1, d_u, n_design)
    output_sensitivities: np.ndarray   # (n_steps + 1, n_design)
    solve_count: int                   # dense solves spent, one per design column per step


def tangent_step(a_mat, b_mat, udot_nm1, udot_nm2, coeffs, step=None):
    """Advance the state sensitivity matrix by one physical step.

    a_mat is the step matrix A_n and b_mat the design Jacobian dR/dsigma at
    u^n.  Returns (udot_n, solves) where solves counts one dense solve per
    design column.  step only labels a SingularStepError.
    """
    _, beta, delta = coeffs
    rhs = -beta * udot_nm1 - delta * udot_nm2 - b_mat
    return solve_step(a_mat, rhs, step), rhs.shape[1]


def tangent_sweep(model, sigma, traj: Trajectory) -> TangentTrajectory:
    """Differentiate a converged trajectory w.r.t. the design variables.

    The initial state is design-independent, so the sweep starts from zero
    sensitivity.  The design's length and the states' shape are checked
    once, here.
    """
    sigma = check_inputs(model, sigma, traj.states, traj.n_steps)
    n_total = traj.n_steps
    n_design = model.n_design
    dt = traj.grid.dt
    a_mats = step_matrices(model, sigma, traj)
    udot = np.zeros((n_total + 1, model.d_u, n_design))
    gdot = np.zeros((n_total + 1, n_design))
    gdot[0] = model.output_design_gradient(traj.states[0], sigma)
    solves = 0
    for n in range(1, n_total + 1):
        u_n = traj.states[n]
        udot_nm2 = udot[n - 2] if n >= 2 else udot[0]
        udot[n], used = tangent_step(a_mats[n - 1],
                                     model.jacobian_design(u_n, sigma, n * dt),
                                     udot[n - 1], udot_nm2,
                                     step_coefficients(n, dt), step=n)
        solves += used
        gdot[n] = model.output_state_gradient(u_n, sigma) @ udot[n] \
            + model.output_design_gradient(u_n, sigma)
    return TangentTrajectory(state_sensitivities=udot, output_sensitivities=gdot,
                             solve_count=solves)


def windowed_tangent_sensitivity(tangent: TangentTrajectory, kind: Window,
                                 n_transient: int, n_final: int,
                                 mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                                 ) -> np.ndarray:
    """Windowed average of the output sensitivity over steps n_transient..n_final."""
    gdot = tangent.output_sensitivities
    if n_final >= len(gdot):
        raise ValueError(f"n_final={n_final} exceeds recorded steps {len(gdot) - 1}")
    weights = discrete_weights(kind, n_transient, n_final, mode).values
    span = n_final - n_transient
    return weights @ gdot[n_transient:n_final + 1] / span
