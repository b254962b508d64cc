"""Input checks where the march and the sweeps start, and singular steps.

The models' per-step methods do not check the state or the design: simulate,
tangent_sweep and adjoint_sweep check both once, before any step, and
reject a model of other than two states there too.  A
singular step matrix is reported by the kernels' solve with the step it
belongs to.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from lcowind.adjoint import AdjointMode, adjoint_sweep
from lcowind.errors import DesignDomainError, SingularStepError
from lcowind.models import OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, Trajectory, simulate
from lcowind.tangent import tangent_sweep
from lcowind.windows import Window

GRID = TimeGrid(dt=0.05, n_steps=30, n_transient=5)
SIGMA = np.array([1.0])


@dataclass(frozen=True)
class UncalledVanDerPol(VanDerPol):
    """Van der Pol whose per-step methods fail the test if a step is taken."""

    bad_initial_state: bool = False

    def initial_state(self, sigma=None):
        return np.zeros(3) if self.bad_initial_state else super().initial_state(sigma)

    def _stepped(self, *args):
        raise AssertionError("a step ran before the inputs were checked")

    residual = jacobian_state = jacobian_design = _stepped
    output_value = output_state_gradient = output_design_gradient = _stepped


def trajectory(states):
    n = len(states)
    return Trajectory(grid=GRID, states=states,
                      outputs=np.zeros(n), inner_iterations=np.zeros(n, dtype=int),
                      residual_norms=np.zeros(n), converged=np.ones(n, dtype=bool))


SWEEPS = {
    "tangent": lambda model, sigma, traj: tangent_sweep(model, sigma, traj),
    "adjoint": lambda model, sigma, traj: adjoint_sweep(model, sigma, traj, Window.BUMP),
}


@pytest.mark.parametrize("sigma", [np.array([1.0, 0.5]), np.zeros(0), np.ones((1, 1))],
                         ids=["two-values", "empty", "matrix"])
def test_wrong_length_design_is_rejected_before_any_step(sigma):
    model = UncalledVanDerPol()
    with pytest.raises(ValueError, match=r"design must have shape \(1,\)"):
        simulate(model, sigma, GRID)
    traj = simulate(VanDerPol(), SIGMA, GRID)
    for sweep in SWEEPS.values():
        with pytest.raises(ValueError, match=r"design must have shape \(1,\)"):
            sweep(model, sigma, traj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_design_is_rejected_before_any_step(value):
    model = UncalledVanDerPol()
    sigma = np.array([value])
    with pytest.raises(DesignDomainError, match="design must be finite"):
        simulate(model, sigma, GRID)
    traj = simulate(VanDerPol(), SIGMA, GRID)
    for sweep in SWEEPS.values():
        with pytest.raises(DesignDomainError, match="design must be finite"):
            sweep(model, sigma, traj)


def test_wrong_shape_initial_state_is_rejected_before_any_step():
    with pytest.raises(ValueError, match=r"state must have shape \(2,\), got \(3,\)"):
        simulate(UncalledVanDerPol(bad_initial_state=True), SIGMA, GRID)


@pytest.mark.parametrize("states", [np.zeros((31, 3)), np.zeros((32, 2)), np.zeros(31)],
                         ids=["three-components", "extra-step", "flat"])
@pytest.mark.parametrize("sweep", SWEEPS)
def test_wrong_shape_trajectory_states_are_rejected_before_any_step(sweep, states):
    with pytest.raises(ValueError, match=r"trajectory states must have shape \(31, 2\)"):
        SWEEPS[sweep](UncalledVanDerPol(), SIGMA, trajectory(states))


@dataclass(frozen=True)
class OtherSizeModel:
    """A model of d_u states whose per-step methods fail the test if called."""

    d_u: int
    name = "other-size"
    n_design = 1

    def initial_state(self, sigma=None):
        return np.zeros(self.d_u)

    def _stepped(self, *args):
        raise AssertionError("a step ran before the model's size was checked")

    residual = jacobian_state = jacobian_design = _stepped
    output_value = output_state_gradient = output_design_gradient = _stepped


@pytest.mark.parametrize("run", ["simulate", *SWEEPS])
@pytest.mark.parametrize("d_u", [1, 3])
def test_a_model_of_other_than_two_states_is_rejected_before_any_step(d_u, run):
    # the march and the sweeps take two states; the error names the size
    model = OtherSizeModel(d_u)
    with pytest.raises(ValueError, match=rf"^lcowind marches two states, got a model of "
                                         rf"d_u = {d_u}$"):
        if run == "simulate":
            simulate(model, SIGMA, GRID)
        else:
            SWEEPS[run](model, SIGMA, trajectory(np.zeros((GRID.n_steps + 1, d_u))))


def test_steps_of_another_trajectory_are_named_by_shape():
    # a stack from a shorter trajectory is named before numpy's reshape meets it
    traj = simulate(VanDerPol(), SIGMA, GRID)
    short = simulate(VanDerPol(), SIGMA, TimeGrid(dt=GRID.dt, n_steps=25, n_transient=5))
    steps = adjoint_sweep(VanDerPol(), SIGMA, short, Window.BUMP).steps
    for mode in AdjointMode:
        with pytest.raises(ValueError, match=r"^steps must have shape \(30, 2, 2\) for this "
                                             r"trajectory, got \(25, 2, 2\)$"):
            adjoint_sweep(UncalledVanDerPol(), SIGMA, traj, Window.BUMP, mode=mode,
                          steps=steps)


def test_design_given_as_scalar_or_list_marches_as_the_array():
    # the check reads the design once into the float array the methods take
    expected = simulate(VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), SIGMA, GRID)
    for sigma in (1.0, [1.0], np.array([1])):
        traj = simulate(VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), sigma, GRID)
        assert np.array_equal(traj.states, expected.states)


@dataclass(frozen=True)
class SingularAtModel:
    """du/dt - 10 u = 0 beside a decoupled dv/dt + v = 0, except that at t =
    singular_at the first state's Jacobian is -1.5: with dt = 1 it cancels
    BDF2's alpha = 1.5, so that step's matrix A_n = alpha I + dR/du is
    singular, while the second state's diagonal alpha + 1 stays regular."""

    singular_at: float = math.nan

    name = "singular-at"
    d_u = 2
    n_design = 1

    def initial_state(self, sigma=None):
        return np.array([1.0, 0.5])

    def residual(self, u, sigma, t=0.0):
        return np.array([-10.0 * u[0], u[1]])

    def jacobian_state(self, u, sigma, t=0.0):
        return np.array([[-1.5 if t == self.singular_at else -10.0, 0.0], [0.0, 1.0]])

    def jacobian_design(self, u, sigma, t=0.0):
        return u[..., None].copy()

    def output_value(self, u, sigma):
        return u[..., 0].copy()

    def output_state_gradient(self, u, sigma):
        return np.ones(np.shape(u))

    def output_design_gradient(self, u, sigma):
        return np.zeros(np.shape(u)[:-1] + (1,))


SINGULAR_GRID = TimeGrid(dt=1.0, n_steps=6, n_transient=1)


def assert_singular_at(run, step):
    with pytest.raises(SingularStepError) as excinfo:
        run()
    assert excinfo.value.step == step
    assert f"step {step}" in str(excinfo.value)


@pytest.mark.parametrize("step", [2, 3, 6])
def test_singular_step_matrix_names_its_step_in_every_sweep(step):
    singular = SingularAtModel(singular_at=float(step))
    # the primal meets A_step in its first inner iterate
    assert_singular_at(lambda: simulate(singular, SIGMA, SINGULAR_GRID), step)

    traj = simulate(SingularAtModel(), SIGMA, SINGULAR_GRID)
    assert_singular_at(lambda: tangent_sweep(singular, SIGMA, traj), step)
    # at dtau = inf M_n = A_n, so both adjoint modes solve with A_step;
    # at dtau = 1 M_step is regular and only the direct mode solves with A_step
    for dtau, modes in ((math.inf, AdjointMode), (1.0, [AdjointMode.DIRECT])):
        for mode in modes:
            assert_singular_at(lambda: adjoint_sweep(singular, SIGMA, traj, Window.HANN,
                                                     PseudoTimeConfig(dtau), mode), step)
