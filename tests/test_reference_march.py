"""The sweeps against a plain reference march, compared bit for bit.

The reference builds every matrix where it is used: per step the linear
predictor 2 u_{n-1} - u_{n-2} from step 3 on, and per inner iterate the
extended residual in numpy arrays, with the step matrix's np.eye shifts
built at every iterate in the Newton limit and at the step's first iterate
alone at a finite dtau, where the step reuses it (a chord); per tangent
step the output sensitivity g @ udot; per adjoint step the step's own singular
values for its contraction inv_dtau / sigma_min(M_n), and per fixed-point
iterate ubar <- rhs + inv_dtau M_n^{-T} ubar a fresh solve of M_n^T; in
the direct mode, one solve of A_n^T lambda_n = rhs, the state rhs +
inv_dtau lambda_n and the solve's residual norm.  Its 2x2 solve, its norm
and its iterate are transcribed here from the operation order the
docstrings of _march2 and _reverse2 state.  The library hoists and
batches the same operations and runs them on Python floats, so the two
must agree exactly, not to a tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from lcowind.adjoint import AdjointMode, adjoint_sweep, contraction_estimates
from lcowind.models import AnalyticSignal, ForcedOscillator, OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate, step_coefficients
from lcowind.tangent import tangent_sweep
from lcowind.windows import Window, discrete_weights


@dataclass(frozen=True)
class CrossOutputVanDerPol(VanDerPol):
    """Van der Pol with the output x v.  Its state gradient (v, x) has two
    nonzero entries, so the order in which the tangent sums dg/du . udot
    shows in the bits; every library output's gradient has one."""

    def output_value(self, u, sigma):
        return u[..., 0] * u[..., 1]

    def output_state_gradient(self, u, sigma):
        return u[..., ::-1].copy()


GRID = TimeGrid(dt=0.05, n_steps=120, n_transient=20)
MODELS = {
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED),
                       np.array([1.0])),
    "van-der-pol-xv": (CrossOutputVanDerPol(), np.array([1.4])),
    "forced-oscillator-x2": (ForcedOscillator(output=OutputKind.FIRST_STATE_SQUARED),
                             np.array([0.1])),
    # the model the signal-design benchmark marches
    "analytic-signal": (AnalyticSignal(
        a0=1.0, a1=np.array([0.0]), amplitude=0.05, quad=5.0,
        quad_center=np.array([0.3])), np.array([0.2])),
    # two design columns, which the tangent solves one at a time
    "analytic-signal-2": (AnalyticSignal(
        a0=-0.4, a1=np.array([0.5, -1.2]), amplitude=0.7, base_period=2.5, quad=3.0,
        quad_center=np.array([0.1, -0.3])), np.array([0.2, -0.1])),
}


def solve(matrix, rhs):
    """Solve the 2x2 system matrix x = rhs column by column in the stated
    order, each operation one rounding: the rows swap when |a21| > |a11|,
    then l = a21 / a11, u22 = a22 - l a12, x2 = (b2 - l b1) / u22 and x1 =
    (b1 - a12 x2) / a11."""
    if rhs.ndim == 2:
        return np.stack([solve(matrix, column) for column in rhs.T], axis=1)
    (a11, a12), (a21, a22) = matrix.tolist()
    b1, b2 = rhs.tolist()
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    l = a21 / a11
    u22 = a22 - l * a12
    x2 = (b2 - l * b1) / u22
    return np.array([(b1 - a12 * x2) / a11, x2])


def norm(r):
    """The 2-norm, sqrt of the squares summed left to right from 0.0."""
    square = 0.0
    for x in np.asarray(r).tolist():
        square = square + x * x
    return math.sqrt(square)


def reference_simulate(model, sigma, grid, cfg):
    d_u, dt = model.d_u, grid.dt

    def extended_residual(u, u_nm1, u_nm2, t, coeffs):
        alpha, beta, delta = coeffs
        return alpha * u + np.asarray(model.residual(u, sigma, t)) \
            + beta * u_nm1 + delta * u_nm2

    states = np.empty((grid.n_steps + 1, d_u))
    outputs = np.empty(grid.n_steps + 1)
    inner = np.zeros(grid.n_steps + 1, dtype=int)
    norms = np.zeros(grid.n_steps + 1)
    states[0] = model.initial_state()
    outputs[0] = model.output_value(states[0], sigma)
    for n in range(1, grid.n_steps + 1):
        coeffs = step_coefficients(n, dt)
        u_nm1 = states[n - 1]
        u_nm2 = states[n - 2] if n >= 2 else states[0]
        t = n * dt
        u = 2.0 * u_nm1 - u_nm2 if n >= 3 else u_nm1.copy()
        residual = extended_residual(u, u_nm1, u_nm2, t, coeffs)
        residual_norm = norm(residual)
        while residual_norm > cfg.tol and inner[n] < cfg.max_inner:
            if math.isinf(cfg.dtau) or inner[n] == 0:
                system = coeffs[0] * np.eye(d_u) + model.jacobian_state(u, sigma, t)
                if not math.isinf(cfg.dtau):
                    system = system + (1.0 / cfg.dtau) * np.eye(d_u)
            u = u - solve(system, residual)
            residual = extended_residual(u, u_nm1, u_nm2, t, coeffs)
            residual_norm = norm(residual)
            inner[n] += 1
        states[n], outputs[n], norms[n] = u, model.output_value(u, sigma), residual_norm
    return states, outputs, inner, norms


def reference_tangent(model, sigma, states, dt):
    n_total = len(states) - 1
    udot = np.zeros((n_total + 1, model.d_u, model.n_design))
    gdot = np.zeros((n_total + 1, model.n_design))
    gdot[0] = model.output_design_gradient(states[0], sigma)
    for n in range(1, n_total + 1):
        alpha, beta, delta = step_coefficients(n, dt)
        t = n * dt
        system = alpha * np.eye(model.d_u) + model.jacobian_state(states[n], sigma, t)
        udot_nm2 = udot[n - 2] if n >= 2 else udot[0]
        rhs = (0.0 - model.jacobian_design(states[n], sigma, t)) - beta * udot[n - 1] \
            - delta * udot_nm2
        udot[n] = solve(system, rhs)
        gdot[n] = model.output_state_gradient(states[n], sigma) @ udot[n] \
            + model.output_design_gradient(states[n], sigma)
    return udot, gdot


def reference_adjoint(model, sigma, states, grid, kind, cfg, mode):
    d_u, dt, n_total, n_tr = model.d_u, grid.dt, grid.n_steps, grid.n_transient
    omega = discrete_weights(kind, n_tr, n_total) / (n_total - n_tr)
    ubar = np.zeros((n_total + 1, d_u))
    lam = np.zeros((n_total + 1, d_u))
    running = np.zeros((n_total + 1, model.n_design))
    inner = np.zeros(n_total + 1, dtype=int)
    norms = np.zeros(n_total + 1)
    contractions = np.zeros(n_total + 1)
    seeds = np.zeros((n_total + 1, d_u))
    for n in range(n_tr, n_total + 1):
        seeds[n] = omega[n - n_tr] * model.output_state_gradient(states[n], sigma)
    total = np.zeros(model.n_design)
    for n in range(n_total, 0, -1):
        t = n * dt
        a_mat = step_coefficients(n, dt)[0] * np.eye(d_u) \
            + model.jacobian_state(states[n], sigma, t)
        m_mat = a_mat + cfg.inv_dtau * np.eye(d_u)
        rhs = seeds[n].copy()
        if n + 1 <= n_total:
            rhs -= step_coefficients(n + 1, dt)[1] * lam[n + 1]
        if n + 2 <= n_total:
            rhs -= step_coefficients(n + 2, dt)[2] * lam[n + 2]
        if cfg.inv_dtau != 0.0:
            # (I - M_n^{-1} A_n)^T = inv_dtau M_n^{-T}, as M_n - A_n = I / dtau
            contractions[n] = cfg.inv_dtau / np.linalg.svd(m_mat, compute_uv=False)[-1]
        if mode is AdjointMode.DIRECT:
            # the fixed point's lambda_n solves A_n^T lambda_n = rhs, as
            # M_n^T - A_n^T = I / dtau, and its state is rhs + inv_dtau lambda_n;
            # the norm is the solve's residual, summed over the columns in order
            lam[n] = solve(a_mat.T, rhs)
            ubar[n] = rhs if cfg.inv_dtau == 0.0 else rhs + cfg.inv_dtau * lam[n]
            product = a_mat[0] * lam[n][0]
            for j in range(1, d_u):
                product = product + a_mat[j] * lam[n][j]
            norms[n] = norm(product - rhs)
            inner[n] = 1
        else:
            if cfg.inv_dtau == 0.0:
                ubar[n] = rhs
                inner[n] = 1
            else:
                value = ubar[n + 1].copy() if n + 1 <= n_total else np.zeros(d_u)
                while inner[n] < cfg.max_inner:
                    updated = rhs + cfg.inv_dtau * solve(m_mat.T, value)
                    norms[n] = norm(updated - value)
                    value = updated
                    inner[n] += 1
                    if norms[n] <= cfg.tol:
                        break
                ubar[n] = value
            lam[n] = solve(m_mat.T, ubar[n])
        total = total - lam[n] @ model.jacobian_design(states[n], sigma, t)
        if n >= n_tr:
            total = total + omega[n - n_tr] * model.output_design_gradient(states[n], sigma)
        running[n] = total
    running[0] = total
    return ubar, running, inner, norms, contractions


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
@pytest.mark.parametrize("name", MODELS)
def test_sweeps_match_reference_march_bit_for_bit(name, dtau):
    model, sigma = MODELS[name]
    cfg = PseudoTimeConfig(dtau, tol=1e-12, max_inner=200)
    traj = simulate(model, sigma, GRID, cfg)
    states, outputs, inner, norms = reference_simulate(model, sigma, GRID, cfg)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.outputs, outputs)
    assert np.array_equal(traj.inner_iterations, inner)
    assert np.array_equal(traj.residual_norms, norms)

    tangent = tangent_sweep(model, sigma, traj)
    udot, gdot = reference_tangent(model, sigma, states, GRID.dt)
    assert np.array_equal(tangent.state_sensitivities, udot)
    assert np.array_equal(tangent.output_sensitivities, gdot)

    for mode in AdjointMode:
        sweep = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg, mode)
        expected = reference_adjoint(model, sigma, states, GRID, Window.BUMP, cfg, mode)
        got = (sweep.adjoint_states, sweep.running_design_derivative,
               sweep.inner_iterations, sweep.residual_norms,
               contraction_estimates(sweep.steps, cfg))
        for got_array, expected_array in zip(got, expected):
            assert np.array_equal(got_array, expected_array), mode

    # at tol = 1e-12 a step's last residual often has a component that is
    # exactly 0, which hides how its norm is rounded; at 1e-6 both components
    # are far from roundoff and the rounding shows in the recorded norms
    loose = PseudoTimeConfig(dtau, tol=1e-6, max_inner=200)
    traj = simulate(model, sigma, GRID, loose)
    expected = reference_simulate(model, sigma, GRID, loose)
    got = (traj.states, traj.outputs, traj.inner_iterations, traj.residual_norms)
    for got_array, expected_array in zip(got, expected):
        assert np.array_equal(got_array, expected_array)
