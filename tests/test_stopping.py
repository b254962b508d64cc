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
from test_adjoint import StiffDecayModel
from test_kernels import LinearThreeStateModel

from lcowind import adjoint
from lcowind.adjoint import AdjointMode, adjoint_sweep
from lcowind.errors import StepConvergenceError
from lcowind.models import OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, float_kernels, simulate, step_coefficients
from lcowind.windows import Window

GRID = TimeGrid(dt=0.05, n_steps=40, n_transient=10)
# (model, design, grid): the stiff decay grows as e^(10 t), and its roundoff
# floor reaches tol = 1e-12 after about a dozen steps
MODELS = {
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), np.array([1.0]),
                       GRID),
    "stiff-decay": (StiffDecayModel(), np.array([0.0]),
                    TimeGrid(dt=0.05, n_steps=10, n_transient=2)),
    "linear-three-state": (LinearThreeStateModel(), np.array([0.3]), GRID),
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
    kernels = float_kernels(model.d_u)
    states = traj.states.tolist()
    assert traj.residual_norms[0] == 0.0 and traj.converged[0]
    dt = traj.grid.dt
    for n in range(1, traj.n_steps + 1):
        alpha, beta, delta = step_coefficients(n, dt)
        u_nm2 = states[n - 2] if n >= 2 else states[0]
        residual = kernels.extended_residual(
            model, states[n], sigma, n * dt, alpha, [beta * x for x in states[n - 1]],
            [delta * x for x in u_nm2])
        norm = kernels.norm(residual)
        assert np.float64(norm).tobytes() == traj.residual_norms[n].tobytes(), n
        assert traj.converged[n] == (norm <= cfg.tol), n
        # a step stops early only on a converged norm
        assert traj.converged[n] or traj.inner_iterations[n] == cfg.max_inner, n
    if budget == "unconverged" and not math.isinf(dtau):
        # the linear models converge in one Newton step, but not in two
        # pseudo-time steps
        assert not traj.converged[1:].all()


@pytest.mark.parametrize("tol", [None, 5e-15], ids=["tol=cfg", "tol=5e-15"])
@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
@pytest.mark.parametrize("name", MODELS)
def test_the_fixed_point_adjoint_records_the_norm_it_stopped_on(name, dtau, tol,
                                                               monkeypatch):
    # every iterate the sweep makes, step by step: the sweep runs from step
    # N down to step 1 and makes one iterate function per step
    iterates = []

    def recording(iter_matrix, rhs):
        iterate, calls = fixed_point_iterate(iter_matrix, rhs), []
        iterates.append(calls)

        def record(ubar):
            calls.append(iterate(ubar))
            return calls[-1]
        return record

    fixed_point_iterate = adjoint._fixed_point_iterate
    monkeypatch.setattr(adjoint, "_fixed_point_iterate", recording)
    model, sigma, cfg, traj = march(name, dtau, "converging")
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg, AdjointMode.FIXED_POINT,
                          tol=tol)
    tol = cfg.tol if tol is None else tol
    if math.isinf(dtau):
        # the Newton limit iterates nothing
        assert iterates == [] and not sweep.residual_norms.any()
        return
    assert len(iterates) == traj.n_steps
    for n, calls in zip(range(traj.n_steps, 0, -1), iterates):
        norms = [norm for _, norm in calls]
        assert sweep.inner_iterations[n] == len(calls), n
        assert all(norm > tol for norm in norms[:-1]) and norms[-1] <= tol, n
        assert np.float64(norms[-1]).tobytes() == sweep.residual_norms[n].tobytes(), n
        assert np.array_equal(np.array(calls[-1][0]), sweep.adjoint_states[n]), n


@dataclass(frozen=True)
class DivergingModel:
    """du/dt + u = 0 with a state Jacobian of -1 + 1e-6 in place of 1.  At
    dt = 1 step 1's step matrix is then about 1e-6 I, so each update scales
    the extended residual by about -2e6 until it overflows.  Its methods
    run on Python floats, so any warning comes from the march itself."""

    d_u: int
    name = "diverging"
    n_design = 1

    def initial_state(self, sigma=None):
        return np.ones(self.d_u)

    def residual(self, u, sigma, t=0.0):
        return list(u)

    def jacobian_state(self, u, sigma, t=0.0):
        return (-1.0 + 1e-6) * np.eye(self.d_u)

    def output_value(self, u, sigma):
        return u[..., 0].copy()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d_u", [1, 3])
def test_an_overflowing_residual_raises_without_a_warning(d_u):
    # the norm of every size runs on Python floats: an overflowing residual
    # gives an infinite or NaN norm, and no numpy overflow warning
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(DivergingModel(d_u), np.array([0.0]), TimeGrid(dt=1.0, n_steps=3))
    assert excinfo.value.step == 1
    assert not math.isfinite(excinfo.value.residual_norm)
