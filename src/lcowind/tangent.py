"""Forward (tangent) sensitivities of the implicit BDF2 march.

The tangent recurrence differentiates the converged step equations, not
the inner iteration path, so its solution is the exact derivative of the
discrete trajectory with respect to the design variables.  It is the
adjoint's recurrence on A_n, run forward, so it runs the reverse kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import primal
from .analysis import _windowed_sum
from .errors import SingularStepError
from .models import check_inputs
from .primal import Trajectory, step_coefficients, step_matrices
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
    sensitivity.  Each step solves A_n udot_n = ((0.0 - dR/dsigma(u^n)) -
    beta udot_{n-1}) - delta udot_{n-2}: the adjoint's recurrence on A_n,
    not A_n^T, run forward.  So one Newton-limit call of the reverse kernel
    _reverse2 per design column runs it, on the rows of A_n and the seeds
    0.0 - dR/dsigma, steps reversed: its lambda at reversed step m is udot
    at step N + 1 - m, and a SingularStepError it raises at reversed step m
    is raised again for step N + 1 - m.  BDF2's beta and delta serve every
    step, as step 1's BDF1 terms multiply udot_0 = 0, which the kernel
    leaves out.  The design Jacobians are formed once, before the kernel,
    and the output sensitivities from the output gradients once, after it;
    the design and the states' shape are checked once, here.
    """
    sigma = check_inputs(model, sigma, traj.states, traj.n_steps)
    n_total, states = traj.n_steps, traj.states
    d_u, n_design = model.d_u, model.n_design
    a_rows = step_matrices(model, sigma, traj)[::-1].reshape(n_total, d_u * d_u).tolist()
    b_mats = model.jacobian_design(states[1:], sigma, traj.grid.times()[1:])
    seeds = np.zeros((n_design, n_total + 1, d_u))
    seeds[:, 1:] = 0.0 - b_mats[::-1].transpose(2, 0, 1)
    _, beta, delta = step_coefficients(2, traj.grid.dt)
    udot = np.zeros((n_total + 1, d_u, n_design))
    try:
        for column, seed in enumerate(seeds.tolist()):
            # the Newton limit reads neither tol nor max_inner
            lambdas = primal._reverse2(seed, a_rows, 0.0, beta, delta, 0.0, 1)[3]
            udot[:0:-1, :, column] = np.reshape(lambdas, (n_total, d_u))
    except SingularStepError as exc:
        raise SingularStepError(n_total + 1 - exc.step) from None
    gdot = (model.output_state_gradient(states, sigma)[:, None, :] @ udot)[:, 0] \
        + model.output_design_gradient(states, sigma)
    return TangentTrajectory(state_sensitivities=udot, output_sensitivities=gdot,
                             solve_count=n_total * model.n_design)


def windowed_tangent_sensitivity(tangent: TangentTrajectory, kind: Window,
                                 n_transient: int, n_final: int,
                                 mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                                 ) -> np.ndarray:
    """Windowed average of the output sensitivity over steps
    n_transient..n_final: analysis's windowed sum, every design column at
    once."""
    return _windowed_sum(tangent.output_sensitivities, kind, n_transient, n_final, mode)
