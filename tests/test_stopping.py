"""The stopping tests of the march and of the fixed-point adjoint.

Both loops take the norm of every iterate's residual, stop on that norm,
and record it, so the norm a step records is the norm that decided it.
These tests recompute the recorded norms from the recorded states, and
check every decision against them.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from any_size_kernels import _extended_residual
from test_adjoint import StiffDecayModel
from test_kernels import solve2
from test_primal import LinearModel

from lcowind.adjoint import AdjointMode, adjoint_sweep
from lcowind.errors import StepConvergenceError
from lcowind.models import OutputKind, VanDerPol, bind
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate, step_coefficients
from lcowind.windows import Window

GRID = TimeGrid(dt=0.05, n_steps=40, n_transient=10)
# (model, design, grid): the stiff decay grows as e^(10 t), and its roundoff
# floor reaches tol = 1e-12 after about a dozen steps
MODELS = {
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), np.array([1.0]),
                       GRID),
    "stiff-decay": (StiffDecayModel(), np.array([0.0]),
                    TimeGrid(dt=0.05, n_steps=10, n_transient=2)),
    "linear-two-state": (LinearModel(matrix=np.array([[0.2, -1.0], [1.0, 0.3]]),
                                     offset=np.array([0.0, 0.5])), np.array([0.3]), GRID),
}
# the default budget, and one of two iterations that leaves steps unconverged
BUDGETS = {"converging": {}, "unconverged": {"max_inner": 2, "allow_unconverged": True}}


def march(name, dtau, budget):
    model, sigma, grid = MODELS[name]
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, **BUDGETS[budget])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # "left unconverged"
        return model, sigma, cfg, simulate(model, sigma, grid, cfg)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
@pytest.mark.parametrize("name", MODELS)
def test_the_march_records_the_norm_it_stopped_on(name, dtau, budget):
    model, sigma, cfg, traj = march(name, dtau, budget)
    states = traj.states.tolist()
    assert traj.residual_norms[0] == 0.0 and traj.converged[0]
    dt = traj.grid.dt
    bound_residual = bind(model, sigma)[0]
    for n in range(1, traj.n_steps + 1):
        alpha, beta, delta = step_coefficients(n, dt)
        u_nm2 = states[n - 2] if n >= 2 else states[0]
        residual = _extended_residual(
            bound_residual, states[n], n * dt, alpha, [beta * x for x in states[n - 1]],
            [delta * x for x in u_nm2])
        recorded = norm(residual)
        assert np.float64(recorded).tobytes() == traj.residual_norms[n].tobytes(), n
        assert traj.converged[n] == (recorded <= cfg.tol), n
        # a step stops early only on a converged norm
        assert traj.converged[n] or traj.inner_iterations[n] == cfg.max_inner, n
    if budget == "unconverged" and not math.isinf(dtau):
        # the linear models converge in one Newton step, but not in two
        # pseudo-time steps
        assert not traj.converged[1:].all()


def norm(r):
    """The 2-norm, its squares summed left to right from 0.0."""
    square = 0.0
    for x in r:
        square += x * x
    return math.sqrt(square)


def fixed_point_iterate(solve, m_rows, inv_dtau, rhs, ubar, n):
    """One iterate ubar <- rhs + inv_dtau M_n^{-T} ubar in the order the
    _reverse2 docstring states: lambda = M_n^{-T} ubar by the kernels'
    solve of the row-major entries of M_n^T, then row i as r_i + inv_dtau
    lambda_i."""
    return [r + inv_dtau * x for r, x in zip(rhs, solve(m_rows, ubar, n))]


@pytest.mark.parametrize("tol", [None, 5e-15], ids=["tol=cfg", "tol=5e-15"])
@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
@pytest.mark.parametrize("name", MODELS)
def test_the_fixed_point_adjoint_records_the_norm_it_stopped_on(name, dtau, tol):
    # every iterate the sweep makes, replayed step by step from step N down
    # to step 1: from the warm start, the downstream step's recorded state,
    # with the step's rhs formed from the recorded states of the two steps
    # it couples to and M_n = A_n + inv_dtau I from the sweep's own A_n
    model, sigma, cfg, traj = march(name, dtau, "converging")
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg, AdjointMode.FIXED_POINT,
                          tol=tol)
    tol = cfg.tol if tol is None else tol
    n_total, d_u = traj.n_steps, model.d_u
    _, beta, delta = step_coefficients(2, traj.grid.dt)
    seeds, states = sweep.seeds.tolist(), sweep.adjoint_states.tolist()
    lam = [None] * (n_total + 1)
    for n in range(n_total, 0, -1):
        if n + 2 <= n_total:
            rhs = [(s - beta * x) - delta * y
                   for s, x, y in zip(seeds[n], lam[n + 1], lam[n + 2])]
        elif n + 1 <= n_total:
            rhs = [s - beta * x for s, x in zip(seeds[n], lam[n + 1])]
        else:
            rhs = seeds[n]
        m_rows = (sweep.steps[n - 1] + cfg.inv_dtau * np.eye(d_u)).T.ravel().tolist()
        if math.isinf(dtau):
            # the Newton limit iterates nothing: the step's state is its rhs
            assert sweep.residual_norms[n] == 0.0, n
            assert np.array_equal(np.array(rhs), sweep.adjoint_states[n]), n
        else:
            ubar, norms = states[n + 1] if n < n_total else [0.0] * d_u, []
            while not norms or norms[-1] > tol and len(norms) < cfg.max_inner:
                updated = fixed_point_iterate(solve2, m_rows, cfg.inv_dtau, rhs, ubar, n)
                norms.append(norm([y - x for y, x in zip(updated, ubar)]))
                ubar = updated
            assert sweep.inner_iterations[n] == len(norms), n
            assert all(earlier > tol for earlier in norms[:-1]) and norms[-1] <= tol, n
            assert np.float64(norms[-1]).tobytes() == sweep.residual_norms[n].tobytes(), n
            assert np.array_equal(np.array(ubar), sweep.adjoint_states[n]), n
        lam[n] = solve2(m_rows, states[n], n)


@dataclass(frozen=True)
class DivergingModel:
    """du/dt + u = 0 with a state Jacobian of -1 + 1e-6 in place of 1.  At
    dt = 1 step 1's step matrix is then about 1e-6 I, so each update scales
    the extended residual by about -2e6 until it overflows.  Its methods
    run on Python floats, so any warning comes from the march itself."""

    name = "diverging"
    d_u = 2
    n_design = 1

    def initial_state(self):
        return np.ones(self.d_u)

    def residual(self, u, sigma, t=0.0):
        return list(u)

    def jacobian_state(self, u, sigma, t=0.0):
        return (-1.0 + 1e-6) * np.eye(self.d_u)

    def output_value(self, u, sigma):
        return u[..., 0].copy()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_residual_raises_without_a_warning():
    # the norm runs on Python floats: an overflowing residual gives an
    # infinite or NaN norm, and no numpy overflow warning
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(DivergingModel(), np.array([0.0]), TimeGrid(dt=1.0, n_steps=3))
    assert excinfo.value.step == 1
    assert not math.isfinite(excinfo.value.residual_norm)


@pytest.mark.parametrize("dtau", [0.3, 1.0, 100.0, 1e6, math.inf],
                         ids=["dtau=0.3", "dtau=1", "dtau=100", "dtau=1e6", "dtau=inf"])
def test_a_stalled_step_never_returns_silently(dtau):
    # the stiff decay grows as e^(10 t) until its roundoff floor passes tol:
    # at a finite dtau every step solves with the factors of its first
    # iterate, and a step that stalls there must raise StepConvergenceError
    # with its floor.  With allow_unconverged set, every step left above tol
    # is flagged, one warning after the march names their count, the first
    # and the largest norm, and every other step's norm is at most tol
    model, sigma = StiffDecayModel(), np.array([0.0])
    grid = TimeGrid(dt=0.05, n_steps=40)
    cfg = PseudoTimeConfig(dtau=dtau)
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(model, sigma, grid, cfg)
    error = excinfo.value
    assert error.iterations == cfg.max_inner and error.residual_norm > cfg.tol
    assert cfg.tol < error.floor < math.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = simulate(model, sigma, grid, PseudoTimeConfig(dtau=dtau, allow_unconverged=True))
    flagged = np.flatnonzero(~traj.converged)
    assert flagged[0] == error.step
    (warning,) = caught
    assert str(warning.message) == (
        f"{len(flagged)} of 40 steps left unconverged, the first at step {error.step} "
        f"(largest residual {traj.residual_norms[flagged].max():.3e})")
    assert (traj.residual_norms[traj.converged] <= cfg.tol).all()
    assert (traj.inner_iterations[flagged] == cfg.max_inner).all()
