"""Tests for forward sensitivity propagation."""

from dataclasses import dataclass

import numpy as np
import pytest

from lcowind.errors import InvalidSpanError
from lcowind.models import AnalyticSignal, AnalyticSignalModel, OutputKind, VanDerPol
from lcowind.primal import TimeGrid, simulate
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import Window


@dataclass(frozen=True)
class ScaledDesignModel:
    """Delegates to an inner model, scaling the design Jacobian by a constant."""

    inner: VanDerPol
    scale: float

    @property
    def name(self):
        return self.inner.name

    @property
    def d_u(self):
        return self.inner.d_u

    @property
    def n_design(self):
        return self.inner.n_design

    def initial_state(self, sigma=None):
        return self.inner.initial_state(sigma)

    def residual(self, u, sigma, t=0.0):
        return self.inner.residual(u, sigma, t)

    def jacobian_state(self, u, sigma, t=0.0):
        return self.inner.jacobian_state(u, sigma, t)

    def jacobian_design(self, u, sigma, t=0.0):
        return self.scale * self.inner.jacobian_design(u, sigma, t)

    def output_value(self, u, sigma):
        return self.inner.output_value(u, sigma)

    def output_state_gradient(self, u, sigma):
        return self.inner.output_state_gradient(u, sigma)

    def output_design_gradient(self, u, sigma):
        return self.inner.output_design_gradient(u, sigma)


def test_design_independent_dynamics_give_zero_tangent():
    # zero amplitude keeps the state pinned at the origin, where the design
    # Jacobian vanishes, so every sensitivity must be exactly zero
    sig = AnalyticSignal(a0=1.0, a1=np.array([0.0]), amplitude=0.0)
    model = AnalyticSignalModel(signal=sig)
    sigma = np.array([0.2])
    grid = TimeGrid(dt=0.05, n_steps=40, n_transient=0)
    tangent = tangent_sweep(model, sigma, simulate(model, sigma, grid))
    assert np.all(tangent.state_sensitivities == 0.0)
    assert np.all(tangent.output_sensitivities == 0.0)


def test_tangent_matches_finite_differences_of_states():
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    grid = TimeGrid(dt=0.05, n_steps=200, n_transient=0)
    sigma = np.array([1.0])
    tangent = tangent_sweep(model, sigma, simulate(model, sigma, grid))
    h = 1e-6
    plus = simulate(model, sigma + h, grid)
    minus = simulate(model, sigma - h, grid)
    fd_states = (plus.states - minus.states) / (2 * h)
    fd_outputs = (plus.outputs - minus.outputs) / (2 * h)
    scale = np.abs(fd_states).max()
    assert np.allclose(tangent.state_sensitivities[:, :, 0], fd_states,
                       atol=1e-5 * scale)
    assert np.allclose(tangent.output_sensitivities[:, 0], fd_outputs,
                       atol=1e-5 * np.abs(fd_outputs).max())


def test_tangent_is_linear_in_design_jacobian():
    # scaling dR/dsigma by a power of two scales the sweep bitwise
    base = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    grid = TimeGrid(dt=0.05, n_steps=120, n_transient=20)
    traj = simulate(base, sigma, grid)
    one = tangent_sweep(ScaledDesignModel(inner=base, scale=1.0), sigma, traj)
    four = tangent_sweep(ScaledDesignModel(inner=base, scale=4.0), sigma, traj)
    assert np.array_equal(four.state_sensitivities, 4.0 * one.state_sensitivities)
    assert np.array_equal(four.output_sensitivities, 4.0 * one.output_sensitivities)
    w_one = windowed_tangent_sensitivity(one, Window.HANN, 20, 120)
    w_four = windowed_tangent_sensitivity(four, Window.HANN, 20, 120)
    assert np.array_equal(w_four, 4.0 * w_one)


def test_solve_count_and_initial_gradient():
    sig = AnalyticSignal(a0=1.0, a1=np.array([0.5, -0.2]), amplitude=0.3)
    model = AnalyticSignalModel(signal=sig)
    sigma = np.array([0.1, 0.2])
    grid = TimeGrid(dt=0.02, n_steps=50, n_transient=0)
    tangent = tangent_sweep(model, sigma, simulate(model, sigma, grid))
    assert tangent.solve_count == 50 * 2
    assert np.allclose(tangent.output_sensitivities[0],
                       sig.mean_design_gradient(sigma))


def test_windowed_sensitivity_converges_to_mean_gradient():
    # twenty-odd periods under a smooth window recover the exact design
    # gradient of the limit average to a few parts in 1e5
    sig = AnalyticSignal(a0=1.0, a1=np.array([1.0]), amplitude=0.3, base_period=1.0)
    model = AnalyticSignalModel(signal=sig)
    sigma = np.array([0.3])
    dt = 0.01
    n_tr = 100
    n_final = n_tr + round(20.25 * sig.period(sigma) / dt)
    grid = TimeGrid(dt=dt, n_steps=n_final, n_transient=n_tr)
    tangent = tangent_sweep(model, sigma, simulate(model, sigma, grid))
    value = windowed_tangent_sensitivity(tangent, Window.HANN, n_tr, n_final)
    assert value[0] == pytest.approx(1.0, rel=1e-3)


def test_windowed_sensitivity_span_overrun():
    sig = AnalyticSignal()
    model = AnalyticSignalModel(signal=sig)
    sigma = np.array([0.0])
    grid = TimeGrid(dt=0.1, n_steps=30, n_transient=0)
    tangent = tangent_sweep(model, sigma, simulate(model, sigma, grid))
    with pytest.raises(InvalidSpanError, match="exceeds recorded length"):
        windowed_tangent_sensitivity(tangent, Window.HANN, 0, 31)
