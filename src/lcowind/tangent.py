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
from .primal import Trajectory, float_kernels, solve_step, step_coefficients, step_matrices
from .windows import NormalizationMode, Window

__all__ = ["TangentTrajectory", "tangent_sweep", "windowed_tangent_sensitivity"]


def _column_solver(d_u, n_design):
    """A solve of a step system, given row-major, for n_design right-hand
    side columns, each a float list, with the bits of dgesv on the matrix
    of the columns.  One column goes through float_kernels(d_u).solve; dgesv
    rounds several columns solved together otherwise than one at a time, so
    several go through dgesv itself."""
    if n_design == 1:
        solve = float_kernels(d_u).solve
        return lambda entries, columns, step: [solve(entries, columns[0], step)]
    return lambda entries, columns, step: solve_step(
        np.array(entries).reshape(d_u, d_u), np.array(columns).T, step).T.tolist()


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
    udot_{n-2} - dR/dsigma(u^n) on float lists, through _column_solver;
    the design Jacobians and the output gradients are formed once, for the
    whole trajectory.  The design and the states' shape are checked once,
    here.
    """
    sigma = check_inputs(model, sigma, traj.states, traj.n_steps)
    n_total = traj.n_steps
    dt = traj.grid.dt
    states = traj.states
    d_u, n_design = model.d_u, model.n_design
    solve = _column_solver(d_u, n_design)
    # the loop runs on float lists: each step's matrix row-major, and per
    # design column the design Jacobian's and the sensitivities' columns
    a_rows = step_matrices(model, sigma, traj).reshape(n_total, d_u * d_u).tolist()
    b_columns = model.jacobian_design(states[1:], sigma, traj.grid.times()[1:]) \
        .transpose(0, 2, 1).tolist()
    udot = [[[0.0] * d_u] * n_design]
    for n in range(1, n_total + 1):
        _, beta, delta = step_coefficients(n, dt)
        udot_nm2 = udot[n - 2] if n >= 2 else udot[0]
        udot.append(solve(a_rows[n - 1],
                          [[(-beta * x - delta * y) - b for x, y, b in zip(*columns)]
                           for columns in zip(udot[n - 1], udot_nm2, b_columns[n - 1])], n))
    udot = np.ascontiguousarray(np.array(udot).transpose(0, 2, 1))
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
