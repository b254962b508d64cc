"""Oscillator models and the closed-form analytic test signal.

Every ODE model describes dynamics in the form du/dt + R(u, sigma, t) = 0
and exposes the residual R, its state Jacobian, its design derivative, and
an instantaneous scalar output g(u, sigma) with its state and design
gradients.  The residual and the state Jacobian take one state as any
sequence of d_u floats, and the march passes a list: they run per inner
iterate.  The residual returns a list of floats, the state Jacobian a new
(d_u, d_u) array.  The models here write their state Jacobian once, as
row-major floats in jacobian_entries, and jacobian_state wraps that in an
array; the march and the step matrices read the floats.  A model that
defines or overrides jacobian_state is read through it instead, flattened
by .ravel().tolist(), so the override always wins (jacobian_entries_of
picks the form).  The design Jacobian and the three output methods take
one state of shape (d_u,) or a trajectory's stack of shape (N, d_u), as
float arrays, and return their result for each state, so a sweep calls
each once.  All methods take the design as a float array and check neither
it nor the state: check_inputs checks both once, where a march or a sweep
starts.
The analytic signal provides exact values for the limit average and its
design derivative, which makes it the ground truth for convergence and
consistency checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignDomainError
from .windows import NamedEnum

__all__ = [
    "check_inputs",
    "jacobian_entries_of",
    "DesignVector",
    "OutputKind",
    "AnalyticSignal",
    "AnalyticSignalModel",
    "VanDerPol",
    "ForcedOscillator",
]


@dataclass(frozen=True)
class DesignVector:
    """Design values with componentwise box bounds."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if values.shape != lower.shape or values.shape != upper.shape:
            raise ValueError("design values and bounds must have matching shapes")
        if not np.all(np.isfinite(values)):
            raise ValueError("design values must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("design bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("lower bounds exceed upper bounds")
        if np.any(values < lower) or np.any(values > upper):
            raise ValueError("design values violate box bounds")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_design(self) -> int:
        return len(self.values)

    def project(self, raw: np.ndarray) -> np.ndarray:
        """Clip a raw design proposal back into the box."""
        return np.clip(np.asarray(raw, dtype=float), self.lower, self.upper)


class OutputKind(NamedEnum, label="output"):
    """Instantaneous output recorded along a trajectory."""

    FIRST_STATE = "x"
    FIRST_STATE_SQUARED = "x2"


def _sigma_values(sigma) -> np.ndarray:
    values = getattr(sigma, "values", sigma)
    return np.atleast_1d(np.asarray(values, dtype=float))


def check_inputs(model, sigma, states, n_steps=None) -> np.ndarray:
    """Check the inputs of a march or a sweep once, where it starts, so the
    models' per-step methods need not.

    states is the initial state, of shape (d_u,), or with n_steps a
    trajectory's states, of shape (n_steps + 1, d_u).  A wrong shape raises
    ValueError and a NaN or infinite design DesignDomainError.  Returns the
    design, given as a DesignVector, an array or a scalar, as a float array
    of shape (n_design,): the form the model methods read it in.
    """
    design = _sigma_values(sigma)
    if design.shape != (model.n_design,):
        raise ValueError(f"design must have shape ({model.n_design},), got {design.shape}")
    if not np.all(np.isfinite(design)):
        raise DesignDomainError(f"design must be finite, got {design}")
    shape = (model.d_u,) if n_steps is None else (n_steps + 1, model.d_u)
    if np.shape(states) != shape:
        what = "state" if n_steps is None else "trajectory states"
        raise ValueError(f"{what} must have shape {shape}, got {np.shape(states)}")
    return design


class _FloatJacobian:
    """jacobian_state as an array of the model's jacobian_entries, its
    state Jacobian written once as row-major floats."""

    def jacobian_state(self, u, sigma, t=0.0) -> np.ndarray:
        return np.array(self.jacobian_entries(u, sigma, t)).reshape(self.d_u, self.d_u)


def jacobian_entries_of(model):
    """The state Jacobian of model as a function (u, sigma, t) -> row-major
    floats: the model's jacobian_entries when its jacobian_state is the
    array wrapper of them, else its own jacobian_state flattened."""
    if type(model).jacobian_state is _FloatJacobian.jacobian_state:
        return model.jacobian_entries
    jacobian_state = model.jacobian_state
    return lambda u, sigma, t: jacobian_state(u, sigma, t).ravel().tolist()


@dataclass(frozen=True)
class AnalyticSignal:
    """Closed-form oscillating signal g(t, sigma) = a(sigma) + b sin(2 pi t / T(sigma)).

    The mean map is a(sigma) = a0 + a1 . sigma + quad * |sigma - quad_center|^2
    and the period is T(sigma) = base_period * (1 + sigma_1).  The limit of the
    windowed time average is a(sigma) and its design derivative is the mean
    gradient, independent of the period map.

    growth_rate > 0 multiplies the period-induced part of the instantaneous
    design derivative by exp(growth_rate * t), modelling sensitivities whose
    amplitude diverges in time.
    """

    a0: float = 1.0
    a1: np.ndarray = field(default_factory=lambda: np.array([0.5]))
    amplitude: float = 0.5
    base_period: float = 1.0
    growth_rate: float = 0.0
    quad: float = 0.0
    quad_center: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "a1", np.atleast_1d(np.asarray(self.a1, dtype=float)))
        if self.quad_center is not None:
            center = np.atleast_1d(np.asarray(self.quad_center, dtype=float))
            if center.shape != self.a1.shape:
                raise ValueError("quad_center must match a1 in shape")
            object.__setattr__(self, "quad_center", center)
        if self.base_period <= 0.0:
            raise ValueError("base_period must be positive")

    @property
    def n_design(self) -> int:
        return len(self.a1)

    def mean(self, sigma) -> float:
        sigma = _sigma_values(sigma)
        value = self.a0 + float(self.a1 @ sigma)
        if self.quad != 0.0:
            center = self.quad_center if self.quad_center is not None else np.zeros_like(sigma)
            value += self.quad * float(((sigma - center) ** 2).sum())
        return value

    def mean_design_gradient(self, sigma) -> np.ndarray:
        sigma = _sigma_values(sigma)
        grad = self.a1.copy()
        if self.quad != 0.0:
            center = self.quad_center if self.quad_center is not None else np.zeros_like(sigma)
            grad = grad + 2.0 * self.quad * (sigma - center)
        return grad

    def period(self, sigma) -> float:
        sigma = _sigma_values(sigma)
        period = self.base_period * (1.0 + sigma[0])
        if not period > 0.0:
            raise DesignDomainError(f"design drives the period non-positive ({period})")
        return period

    def output(self, t, sigma):
        """Signal value at time t (scalar or array)."""
        period = self.period(sigma)
        return self.mean(sigma) + self.amplitude * np.sin(2.0 * np.pi * np.asarray(t, float) / period)

    def output_design_derivative(self, t, sigma) -> np.ndarray:
        """Instantaneous derivative of the signal w.r.t. each design component.

        Shape (n_design,) for scalar t, (len(t), n_design) for array t.
        """
        sigma = _sigma_values(sigma)
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        period = self.period(sigma)
        grad_mean = self.mean_design_gradient(sigma)
        out = np.tile(grad_mean, (len(t_arr), 1))
        # only the first design component moves the period
        phase = 2.0 * np.pi * t_arr / period
        period_term = -self.amplitude * np.cos(phase) * (2.0 * np.pi * t_arr / period ** 2) \
            * self.base_period
        if self.growth_rate != 0.0:
            period_term = period_term * np.exp(self.growth_rate * t_arr)
        out[:, 0] += period_term
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


@dataclass(frozen=True)
class AnalyticSignalModel(_FloatJacobian):
    """Harmonic-oscillator realization of an AnalyticSignal.

    States (y, z) trace y(t) = b sin(Omega t) with Omega = 2 pi / T(sigma);
    the recorded output a(sigma) + y reproduces the analytic signal, so the
    full solve/differentiate pipeline can be checked against exact values.
    """

    signal: AnalyticSignal = field(default_factory=AnalyticSignal)
    # the design terms of the last design seen, which every step of a march
    # reads again: "omega" -> (sigma_1, Omega, dOmega/dsigma_1)
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    name = "analytic-signal"
    d_u = 2

    @property
    def n_design(self) -> int:
        return self.signal.n_design

    def initial_state(self, sigma=None) -> np.ndarray:
        return np.array([0.0, self.signal.amplitude])

    def _omega(self, sigma) -> tuple[float, float]:
        """Omega and dOmega/dsigma_1 at the design; the period is
        recomputed, and checked, only when sigma_1 changes."""
        s = float(sigma[0])
        last = self._last.get("omega")
        if last is None or last[0] != s:
            period = self.signal.period(sigma)
            # dOmega/dsigma_1 through T(sigma) = T0 (1 + sigma_1)
            last = (s, float(2.0 * np.pi / period),
                    float(-2.0 * np.pi * self.signal.base_period / period ** 2))
            self._last["omega"] = last
        return last[1], last[2]

    def residual(self, u, sigma, t=0.0) -> list[float]:
        y, z = u
        omega = self._omega(sigma)[0]
        return [-omega * z, omega * y]

    def jacobian_entries(self, u, sigma, t=0.0) -> list[float]:
        omega = self._omega(sigma)[0]
        return [0.0, -omega, omega, 0.0]

    def jacobian_design(self, u, sigma, t=0.0) -> np.ndarray:
        domega = self._omega(sigma)[1]
        jac = np.zeros(np.shape(u) + (len(sigma),))
        jac[..., 0, 0] = -domega * u[..., 1]
        jac[..., 1, 0] = domega * u[..., 0]
        return jac

    def output_value(self, u, sigma):
        return self.signal.mean(sigma) + u[..., 0]

    def output_state_gradient(self, u, sigma) -> np.ndarray:
        grad = np.zeros(np.shape(u))
        grad[..., 0] = 1.0
        return grad

    def output_design_gradient(self, u, sigma) -> np.ndarray:
        grad = np.empty(np.shape(u)[:-1] + (len(sigma),))
        grad[...] = self.signal.mean_design_gradient(sigma)
        return grad


class _FirstStateOutput:
    """Output x or x^2 of the first state, chosen by the ``output`` field;
    it does not depend on the design."""

    def output_value(self, u, sigma):
        x = u[..., 0]
        if self.output is OutputKind.FIRST_STATE:
            return x.copy()  # not a view: a trajectory's outputs outlive its states
        return x * x

    def output_state_gradient(self, u, sigma) -> np.ndarray:
        grad = np.zeros(np.shape(u))
        grad[..., 0] = 1.0 if self.output is OutputKind.FIRST_STATE else 2.0 * u[..., 0]
        return grad

    def output_design_gradient(self, u, sigma) -> np.ndarray:
        return np.zeros(np.shape(u)[:-1] + (self.n_design,))


@dataclass(frozen=True)
class VanDerPol(_FloatJacobian, _FirstStateOutput):
    """Van der Pol oscillator; the single design variable is the damping mu.

    Residual convention du/dt + R = 0 with R = (-v, -mu (1 - x^2) v + x),
    which gives the classical x'' - mu (1 - x^2) x' + x = 0 limit cycle.
    """

    output: OutputKind = OutputKind.FIRST_STATE

    name = "van-der-pol"
    d_u = 2
    n_design = 1

    def initial_state(self, sigma=None) -> np.ndarray:
        # close to the limit cycle for every mu in the design box
        return np.array([2.0, 0.0])

    def residual(self, u, sigma, t=0.0) -> list[float]:
        x, v = u
        mu = float(sigma[0])
        return [-v, -mu * (1.0 - x * x) * v + x]

    def jacobian_entries(self, u, sigma, t=0.0) -> list[float]:
        x, v = u
        mu = float(sigma[0])
        return [0.0, -1.0, 2.0 * mu * x * v + 1.0, -mu * (1.0 - x * x)]

    def jacobian_design(self, u, sigma, t=0.0) -> np.ndarray:
        x, v = u[..., 0], u[..., 1]
        jac = np.zeros(np.shape(u) + (1,))
        jac[..., 1, 0] = -(1.0 - x * x) * v
        return jac


@dataclass(frozen=True)
class ForcedOscillator(_FloatJacobian, _FirstStateOutput):
    """Damped linear oscillator driven at a fixed angular frequency.

    x'' + c x' + k x = forcing * sin(omega t), with stiffness and damping
    scaled by the design variable: k = stiffness0 (1 + sigma_1) and
    c = damping0 (1 + sigma_1).  The post-transient response period 2 pi /
    omega does not depend on the design, only amplitude and phase do.
    """

    omega: float = 2.0 * np.pi
    stiffness0: float = 55.0
    damping0: float = 0.5
    forcing: float = 10.0
    output: OutputKind = OutputKind.FIRST_STATE

    name = "forced-oscillator"
    d_u = 2
    n_design = 1

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def initial_state(self, sigma=None) -> np.ndarray:
        return np.array([0.0, 0.0])

    def _coefficients(self, s: float):
        """Stiffness and damping (k, c) at sigma_1 = s."""
        return self.stiffness0 * (1.0 + s), self.damping0 * (1.0 + s)

    def residual(self, u, sigma, t=0.0) -> list[float]:
        x, v = u
        k, c = self._coefficients(float(sigma[0]))
        return [-v, c * v + k * x - self.forcing * math.sin(self.omega * t)]

    def jacobian_entries(self, u, sigma, t=0.0) -> list[float]:
        k, c = self._coefficients(float(sigma[0]))
        return [0.0, -1.0, k, c]

    def jacobian_design(self, u, sigma, t=0.0) -> np.ndarray:
        x, v = u[..., 0], u[..., 1]
        jac = np.zeros(np.shape(u) + (1,))
        jac[..., 1, 0] = self.damping0 * v + self.stiffness0 * x
        return jac

    # steady-state closed forms, used as ground truth in tests
    def steady_amplitude(self, sigma) -> float:
        k, c = self._coefficients(_sigma_values(sigma)[0])
        denom = (k - self.omega ** 2) ** 2 + (c * self.omega) ** 2
        return self.forcing / math.sqrt(denom)
