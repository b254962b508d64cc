"""Tests for the implicit time marching core."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from any_size_kernels import _extended_residual

from lcowind.errors import (InvalidSpanError, PeriodUndetectableError,
                            StepConvergenceError)
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, OutputKind,
                            VanDerPol, bind)
from lcowind.primal import (PseudoTimeConfig, TimeGrid, estimate_period, simulate,
                            step_coefficients)

# independent reference for the mu = 1 limit-cycle period, computed once with
# scipy.integrate.solve_ivp (rtol 1e-11) and event-based crossing detection
VDP_PERIOD_MU1 = 6.6632868593152805


@dataclass(frozen=True)
class LinearModel:
    """du/dt + A u + c = 0 with constant A, c; one exact inner solve."""

    matrix: np.ndarray
    offset: np.ndarray

    name = "linear"
    d_u = 2
    n_design = 1

    def initial_state(self, sigma=None):
        return np.array([1.0, -1.0])

    def residual(self, u, sigma, t=0.0):
        return self.matrix @ np.asarray(u, float) + self.offset

    def jacobian_state(self, u, sigma, t=0.0):
        return self.matrix

    def jacobian_design(self, u, sigma, t=0.0):
        return np.zeros(np.shape(u) + (1,))

    def output_value(self, u, sigma):
        return u[..., 0].copy()

    def output_state_gradient(self, u, sigma):
        grad = np.zeros(np.shape(u))
        grad[..., 0] = 1.0
        return grad

    def output_design_gradient(self, u, sigma):
        return np.zeros(np.shape(u)[:-1] + (1,))


def test_step_coefficients_values():
    dt = 0.25
    assert step_coefficients(1, dt) == (1.0 / dt, -1.0 / dt, 0.0)
    for n in (2, 3, 17):
        assert step_coefficients(n, dt) == (1.5 / dt, -2.0 / dt, 0.5 / dt)
    with pytest.raises(ValueError, match="start at n = 1"):
        step_coefficients(0, dt)


def test_extended_residual_hand_reference():
    model = VanDerPol()
    sigma = np.array([1.3])
    dt = 0.1
    u_n = np.array([0.4, -0.6])
    u_nm1 = np.array([0.3, -0.5])
    u_nm2 = np.array([0.2, -0.4])
    expected = 1.5 / dt * u_n + model.residual(u_n, sigma) \
        - 2.0 / dt * u_nm1 + 0.5 / dt * u_nm2
    got = _extended_residual(bind(model, sigma)[0], u_n.tolist(), 0.0, 1.5 / dt,
                             (-2.0 / dt * u_nm1).tolist(), (0.5 / dt * u_nm2).tolist())
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)


def bdf2_residual(model, u, u_nm1, u_nm2, sigma, dt, t=0.0):
    """The BDF2 relation 1.5/dt u + R(u) - 2/dt u_nm1 + 0.5/dt u_nm2 by hand."""
    return 1.5 / dt * u + model.residual(u, sigma, t) - 2.0 / dt * u_nm1 + 0.5 / dt * u_nm2


def test_newton_step_solves_linear_model_exactly():
    # one dtau = inf update must land on the exact BDF2 root of a linear model
    model = LinearModel(matrix=np.array([[2.0, 0.3], [-0.1, 1.5]]),
                        offset=np.array([0.2, -0.4]))
    sigma = np.array([0.0])
    dt = 0.1
    traj = simulate(model, sigma, TimeGrid(dt=dt, n_steps=2), PseudoTimeConfig(max_inner=1))
    u_nm2, u_nm1, u = traj.states
    assert traj.inner_iterations[2] == 1
    # hand solve of step 2: (1.5/dt I + A) u = 2/dt u_nm1 - 0.5/dt u_nm2 - c
    lhs = 1.5 / dt * np.eye(2) + model.matrix
    rhs = 2.0 / dt * u_nm1 - 0.5 / dt * u_nm2 - model.offset
    assert np.allclose(u, np.linalg.solve(lhs, rhs), rtol=1e-13, atol=1e-13)
    assert np.linalg.norm(bdf2_residual(model, u, u_nm1, u_nm2, sigma, dt)) < 1e-12


def test_finite_dtau_converges_to_same_root():
    model = LinearModel(matrix=np.array([[2.0, 0.3], [-0.1, 1.5]]),
                        offset=np.array([0.2, -0.4]))
    sigma = np.array([0.0])
    dt = 0.1
    cfg = PseudoTimeConfig(dtau=0.5, tol=1e-13, max_inner=200)
    traj = simulate(model, sigma, TimeGrid(dt=dt, n_steps=2), cfg)
    u_nm2, u_nm1, u = traj.states
    assert traj.converged[2] and traj.inner_iterations[2] > 1
    lhs = 1.5 / dt * np.eye(2) + model.matrix
    rhs = 2.0 / dt * u_nm1 - 0.5 / dt * u_nm2 - model.offset
    assert np.allclose(u, np.linalg.solve(lhs, rhs), rtol=1e-11, atol=1e-11)


def test_bdf_recurrence_holds_along_trajectory():
    model = VanDerPol(output=OutputKind.FIRST_STATE)
    sigma = np.array([1.0])
    grid = TimeGrid(dt=0.05, n_steps=60, n_transient=10)
    traj = simulate(model, sigma, grid)
    # step 1 satisfies the BDF1 relation
    alpha, beta, _ = step_coefficients(1, grid.dt)
    r1 = alpha * traj.states[1] + model.residual(traj.states[1], sigma, grid.dt) \
        + beta * traj.states[0]
    assert np.linalg.norm(r1) < 1e-11
    # every later step satisfies the BDF2 relation at its own time
    for n in range(2, grid.n_steps + 1):
        r = bdf2_residual(model, traj.states[n], traj.states[n - 1],
                          traj.states[n - 2], sigma, grid.dt, n * grid.dt)
        assert np.linalg.norm(r) < 1e-11
    assert traj.converged.all()
    assert traj.n_steps == 60
    assert len(traj.outputs) == 61


def test_second_order_accuracy_on_harmonic_model():
    sig = AnalyticSignal(a0=0.0, a1=np.array([0.0]), amplitude=1.0, base_period=1.0)
    model = AnalyticSignalModel(signal=sig)
    sigma = np.array([0.0])
    t_end = 2.0
    dts = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for dt in dts:
        grid = TimeGrid(dt=dt, n_steps=round(t_end / dt), n_transient=0)
        traj = simulate(model, sigma, grid)
        exact = np.array([math.sin(2 * math.pi * t_end), math.cos(2 * math.pi * t_end)])
        errs.append(np.linalg.norm(traj.states[-1] - exact))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.9 < order < 2.1


def test_van_der_pol_period_matches_reference():
    model = VanDerPol(output=OutputKind.FIRST_STATE)
    grid = TimeGrid(dt=0.01, n_steps=4000, n_transient=1000)
    traj = simulate(model, np.array([1.0]), grid)
    period, span = estimate_period(traj.outputs, grid.n_transient, grid.dt)
    assert period == pytest.approx(VDP_PERIOD_MU1, rel=0.01)
    assert span == pytest.approx((4000 - 1000) * 0.01 / period, rel=1e-12)


def test_estimate_period_pure_sine():
    dt = 0.002
    t = np.arange(0, 2001) * dt
    outputs = 0.7 + 0.4 * np.sin(2 * np.pi * t / 0.83)
    period, span = estimate_period(outputs, 100, dt)
    assert period == pytest.approx(0.83, rel=1e-3)
    assert span > 0


def test_estimate_period_failure_modes():
    with pytest.raises(PeriodUndetectableError, match="too few samples"):
        estimate_period(np.zeros(10), 8, 0.1)
    # a constant tail never crosses its own mean
    with pytest.raises(PeriodUndetectableError, match="upward mean crossings"):
        estimate_period(np.ones(500), 10, 0.1)


def test_estimate_period_rejects_a_negative_transient_cutoff():
    # outputs[-500:] would read the last 500 samples, and the span would be
    # counted from step -500
    dt = 0.01
    outputs = AnalyticSignal().output(np.arange(2001) * dt, 0.3)  # period 1.3
    assert estimate_period(outputs, 0, dt)[1] == pytest.approx(20.0 / 1.3, rel=1e-3)
    with pytest.raises(InvalidSpanError, match="^transient cutoff must be non-negative, "
                                               "got n_transient=-500$"):
        estimate_period(outputs, -500, dt)


def test_stalled_step_raises_with_context():
    model = VanDerPol()
    grid = TimeGrid(dt=0.2, n_steps=20, n_transient=0)
    cfg = PseudoTimeConfig(dtau=1e-3, tol=1e-14, max_inner=1)
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(model, np.array([1.0]), grid, cfg)
    assert excinfo.value.step == 1
    assert excinfo.value.iterations == 1
    # the exact norm of the step's last residual, bit for bit
    assert excinfo.value.residual_norm == 1.984126023426114


def test_a_tolerance_below_the_roundoff_floor_says_so():
    # the stiff decay grows as e^(10 t); by step 13 its state, about 1.3e3,
    # puts the extended residual's roundoff floor above the default tol, and
    # the step spends its whole budget near the floor
    from test_adjoint import StiffDecayModel

    model, sigma, grid = StiffDecayModel(), np.array([0.0]), TimeGrid(dt=0.05, n_steps=40)
    cfg = PseudoTimeConfig(dtau=0.3, max_inner=200)
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(model, sigma, grid, cfg)
    error = excinfo.value
    assert (error.step, error.iterations) == (13, 200)
    assert error.floor > cfg.tol and error.residual_norm > cfg.tol
    assert "lies below the residual's roundoff floor" in str(error)
    # the floor is eps |alpha u| + |R(u)| + |beta u_{n-1}| + |delta u_{n-2}|
    # at the stalled state, which a march allowed to go on reaches too
    with pytest.warns(RuntimeWarning, match="left unconverged"):
        states = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=13),
                          PseudoTimeConfig(dtau=0.3, max_inner=200, allow_unconverged=True)
                          ).states[:, 0]
    alpha, beta, delta = step_coefficients(13, 0.05)
    terms = abs(alpha * states[13]) + abs(-10.0 * states[13]) + abs(beta * states[12]) \
        + abs(delta * states[11])
    assert error.floor == pytest.approx(np.finfo(float).eps * terms, rel=1e-15)


def test_a_tolerance_above_the_roundoff_floor_is_not_blamed():
    model = VanDerPol()
    cfg = PseudoTimeConfig(dtau=1e-3, tol=1e-14, max_inner=1)
    with pytest.raises(StepConvergenceError) as excinfo:
        simulate(model, np.array([1.0]), TimeGrid(dt=0.2, n_steps=20), cfg)
    assert 0.0 < excinfo.value.floor < cfg.tol
    assert "floor" not in str(excinfo.value)


def test_allow_unconverged_warns_and_flags():
    model = VanDerPol()
    grid = TimeGrid(dt=0.2, n_steps=3, n_transient=0)
    cfg = PseudoTimeConfig(dtau=1e-3, tol=1e-14, max_inner=1, allow_unconverged=True)
    with pytest.warns(RuntimeWarning, match="left unconverged"):
        traj = simulate(model, np.array([1.0]), grid, cfg)
    assert not traj.converged[1:].any()
    assert traj.inner_iterations[1] == 1


@pytest.mark.parametrize("max_inner, n_left", [(1, 400), (8, 34)])
def test_allow_unconverged_warns_once_per_march(max_inner, n_left):
    # at dtau = 1 one update leaves every step above tol, and eight leave 34
    # of the 400: the march warns once, after its last step, and names the
    # count, the first such step and the largest residual norm that the
    # trajectory records; stacklevel=2 points the warning at the caller
    grid = TimeGrid(dt=0.05, n_steps=400)
    cfg = PseudoTimeConfig(dtau=1.0, max_inner=max_inner, allow_unconverged=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = simulate(VanDerPol(), np.array([1.0]), grid, cfg)
    (warning,) = caught
    assert warning.category is RuntimeWarning and warning.filename == __file__
    left = np.flatnonzero(~traj.converged)
    assert len(left) == n_left
    assert str(warning.message) == (
        f"{n_left} of 400 steps left unconverged, the first at step {left[0]} "
        f"(largest residual {traj.residual_norms[left].max():.3e})")


def test_simulation_is_deterministic():
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    grid = TimeGrid(dt=0.05, n_steps=200, n_transient=50)
    a = simulate(model, np.array([1.0]), grid)
    b = simulate(model, np.array([1.0]), grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.outputs, b.outputs)


def test_grid_and_pseudo_config_validation():
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeGrid(dt=0.0, n_steps=10, n_transient=0)
    with pytest.raises(ValueError, match="at least one physical step"):
        TimeGrid(dt=0.1, n_steps=0, n_transient=0)
    with pytest.raises(InvalidSpanError):
        TimeGrid(dt=0.1, n_steps=10, n_transient=10)
    with pytest.raises(InvalidSpanError):
        TimeGrid(dt=0.1, n_steps=10, n_transient=-1)
    with pytest.raises(ValueError, match="dtau must be positive"):
        PseudoTimeConfig(dtau=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        PseudoTimeConfig(tol=-1.0)
    grid = TimeGrid(dt=0.1, n_steps=10, n_transient=4)
    assert grid.span_steps == 6
    assert np.allclose(grid.times(), np.arange(11) * 0.1)
    # Newton is the default inner mode
    assert PseudoTimeConfig().inv_dtau == 0.0
    assert PseudoTimeConfig(dtau=2.0).inv_dtau == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_rejects_a_final_time_that_overflows():
    # each factor is finite, but 40 * 1e308 is not: the time axis would
    # read inf after a numpy overflow warning
    with pytest.raises(ValueError, match="final time n_steps \\* dt .* overflows"):
        TimeGrid(dt=1e308, n_steps=40)
    grid = TimeGrid(dt=1e306, n_steps=40)
    assert np.all(np.isfinite(grid.times()))


@pytest.mark.parametrize("build", [
    lambda: TimeGrid(dt=math.nan, n_steps=10),
    lambda: TimeGrid(dt=math.inf, n_steps=10),
    lambda: PseudoTimeConfig(dtau=math.nan),
    lambda: PseudoTimeConfig(tol=math.nan),
    lambda: PseudoTimeConfig(dtau=1e-320),
], ids=["dt-nan", "dt-inf", "dtau-nan", "tol-nan", "dtau-tiny"])
def test_grid_and_pseudo_config_reject_nan_and_inf(build):
    # a `<= 0` check lets NaN through, an infinite dt makes the time axis
    # NaN, and a positive dtau of 1e-320 has the reciprocal inf
    with pytest.raises(ValueError, match="must be positive"):
        build()
