"""Forward (tangent) sensitivities of the implicit BDF2 march.

The tangent recurrence differentiates the converged step equations, not
the inner iteration path, so its solution is the exact derivative of the
discrete trajectory with respect to the design variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _windowed_sums
from .models import check_inputs
from .primal import Trajectory, solve_step, step_coefficients, step_matrices
from .windows import NormalizationMode, Window

__all__ = ["TangentTrajectory", "tangent_sweep", "windowed_tangent_sensitivity"]


@dataclass
class TangentTrajectory:
    """State and output sensitivities along a primal trajectory."""

    state_sensitivities: np.ndarray    # (n_steps + 1, d_u, n_design)
    output_sensitivities: np.ndarray   # (n_steps + 1, n_design)
    solve_count: int                   # dense solves spent, one per design column per step


def tangent_sweep(model, sigma, traj: Trajectory) -> TangentTrajectory:
    """Differentiate a converged trajectory w.r.t. the design variables.

    The initial state is design-independent, so the sweep starts from zero
    sensitivity.  Each step solves A_n udot_n = -beta udot_{n-1} - delta
    udot_{n-2} - dR/dsigma(u^n), one dense solve per design column; the
    design Jacobians and the output gradients are formed once, for the
    whole trajectory.  The design and the states' shape are checked once,
    here.
    """
    sigma = check_inputs(model, sigma, traj.states, traj.n_steps)
    n_total = traj.n_steps
    dt = traj.grid.dt
    states = traj.states
    a_mats = step_matrices(model, sigma, traj)
    b_mats = model.jacobian_design(states[1:], sigma, traj.grid.times()[1:])
    udot = np.zeros((n_total + 1, model.d_u, model.n_design))
    for n in range(1, n_total + 1):
        _, beta, delta = step_coefficients(n, dt)
        udot_nm2 = udot[n - 2] if n >= 2 else udot[0]
        rhs = -beta * udot[n - 1] - delta * udot_nm2 - b_mats[n - 1]
        udot[n] = solve_step(a_mats[n - 1], rhs, n)
    gdot = (model.output_state_gradient(states, sigma)[:, None, :] @ udot)[:, 0] \
        + model.output_design_gradient(states, sigma)
    return TangentTrajectory(state_sensitivities=udot, output_sensitivities=gdot,
                             solve_count=n_total * model.n_design)


def windowed_tangent_sensitivity(tangent: TangentTrajectory, kind: Window,
                                 n_transient: int, n_final: int,
                                 mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                                 ) -> np.ndarray:
    """Windowed average of the output sensitivity over steps n_transient..n_final."""
    return _windowed_sums(tangent.output_sensitivities, (kind,), n_transient, n_final,
                          mode)[0]
