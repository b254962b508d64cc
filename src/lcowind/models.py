"""Oscillator models, the closed-form analytic test signal among them.

Every ODE model describes dynamics in the form du/dt + R(u, sigma, t) = 0
and exposes the residual R, its state Jacobian, its design derivative, and
an instantaneous scalar output g(u, sigma) with its state and design
gradients.  The residual and the state Jacobian take one state as any
sequence of d_u floats: they run per inner iterate.  The residual returns a
list of floats, the state Jacobian a new (d_u, d_u) array.  The models here
write those two formulas once, as closures over the design's terms that
_bound(sigma) returns, and derive both methods from them.  A march reads
them through bind(model, sigma), with the design read once, as
residual(x, v, t) -> (r0, r1) and jacobian(x, v, t) -> (j11, j12, j21, j22),
called on the state's two floats, so no list is built per call; where a
class defines or overrides residual or jacobian_state, bind calls that
method instead on the list [x, v], the Jacobian flattened by
.ravel().tolist(), so an override wins, per function.  The design Jacobian
and the three output methods take one state of shape (d_u,) or a
trajectory's stack of shape (N, d_u), as float arrays, each formula written
once over u[..., i], and return their result for each state, so a sweep
calls each once.  All methods take the design as a float array and check
neither it nor the state: check_inputs checks both once, where a march or a
sweep starts.  Each model checks its own fields where it is built: a numeric
field that is not finite raises ValueError naming it, and an output that
is not an OutputKind TypeError.
The analytic signal is a closed form and its two-state realization, the
ground truth for convergence and consistency checks.  initial_state() takes
no design: the sweeps start from zero sensitivity, with no u_0 term, so an
initial state that depended on the design would get wrong derivatives with
no error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignDomainError
from .windows import NamedEnum

__all__ = [
    "check_inputs",
    "bind",
    "DesignVector",
    "OutputKind",
    "AnalyticSignal",
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


def _check_finite(model, names) -> None:
    """Raise ValueError naming the first of the model's numeric fields,
    scalar or array, that holds a NaN or an infinity; None passes."""
    for name in names:
        value = getattr(model, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_inputs(model, sigma, states, n_steps=None) -> np.ndarray:
    """Check the inputs of a march or a sweep once, where it starts, so the
    models' per-step methods need not.

    states is the initial state, of shape (d_u,), or with n_steps a
    trajectory's states, of shape (n_steps + 1, d_u).  A model whose d_u is
    not 2, as the march and the sweeps take two states, or a wrong shape
    raises ValueError, and a NaN or infinite design DesignDomainError.
    Returns the design, given as a DesignVector, an array, a list or a
    scalar, as a float array of shape (n_design,): the form the model
    methods read it in.
    """
    if model.d_u != 2:
        raise ValueError(f"lcowind marches two states, got a model of d_u = {model.d_u}")
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


class _BoundModel:
    """residual and jacobian_state from the closures residual(x, v, t) and
    jacobian(x, v, t) that the model's _bound(sigma) returns, called on the
    state's two entries."""

    def residual(self, u, sigma, t=0.0) -> list[float]:
        return list(self._bound(sigma)[0](*u, t))

    def jacobian_state(self, u, sigma, t=0.0) -> np.ndarray:
        return np.array(self._bound(sigma)[1](*u, t)).reshape(self.d_u, self.d_u)


def bind(model, sigma):
    """The model's residual and state Jacobian at the design sigma, read
    once, as residual(x, v, t) -> (r0, r1) and jacobian(x, v, t) -> (j11,
    j12, j21, j22), row-major, on the state's two floats: the closures of
    the model's _bound, except where its class defines or overrides
    residual or jacobian_state, which is then called per evaluation on the
    list [x, v]."""
    residual, jacobian = model._bound(sigma) if isinstance(model, _BoundModel) else (None, None)
    if type(model).residual is not _BoundModel.residual:
        residual_method = model.residual
        residual = lambda x, v, t: residual_method([x, v], sigma, t)
    if type(model).jacobian_state is not _BoundModel.jacobian_state:
        jacobian_method = model.jacobian_state
        jacobian = lambda x, v, t: jacobian_method([x, v], sigma, t).ravel().tolist()
    return residual, jacobian


@dataclass(frozen=True)
class AnalyticSignal(_BoundModel):
    """Closed-form oscillating signal g(t, sigma) = a(sigma) + b sin(2 pi t / T(sigma)),
    marched as a harmonic oscillator whose output reproduces it exactly.

    The mean map is a(sigma) = a0 + a1 . sigma + quad * |sigma - quad_center|^2
    and the period is T(sigma) = base_period * (1 + sigma_1).  The limit of the
    windowed time average is a(sigma) and its design derivative is the mean
    gradient, independent of the period map.  The states (y, z) trace
    y(t) = b sin(Omega t), Omega = 2 pi / T(sigma), and the output is a(sigma) + y.

    growth_rate > 0 multiplies the period-induced part of the instantaneous
    design derivative by exp(growth_rate * t), modelling sensitivities whose
    amplitude diverges in time.  It acts on the closed form alone, in
    output_design_derivative: the march's residual, Jacobians and outputs
    do not read it, so a marched signal's tangent and adjoint derivatives
    are the same at every growth_rate.  Of the CLI's runs only
    `study --quantity sensitivity`, whose series is the closed form, reads it.

    mean, mean_design_gradient, period, output and output_design_derivative
    take the design as a scalar, an array or a DesignVector.  base_period
    must be positive and finite (ValueError).  The signal keeps no march
    state: bind reads its period once, through period(), which raises
    DesignDomainError where the design makes the period non-positive or its
    square overflow or underflow to 0.0, so such a design fails where a
    march or a sweep starts; a design that makes the mean not finite fails
    where the outputs are formed.
    """

    a0: float = 1.0
    a1: np.ndarray = field(default_factory=lambda: np.array([0.5]))
    amplitude: float = 0.5
    base_period: float = 1.0
    growth_rate: float = 0.0
    quad: float = 0.0
    quad_center: np.ndarray | None = None

    name = "analytic-signal"
    d_u = 2

    def __post_init__(self):
        object.__setattr__(self, "a1", np.atleast_1d(np.asarray(self.a1, dtype=float)))
        if self.quad_center is not None:
            center = np.atleast_1d(np.asarray(self.quad_center, dtype=float))
            if center.shape != self.a1.shape:
                raise ValueError("quad_center must match a1 in shape")
            object.__setattr__(self, "quad_center", center)
        _check_finite(self, ("a0", "a1", "amplitude", "growth_rate", "quad", "quad_center"))
        if not 0.0 < self.base_period < math.inf:
            raise ValueError(f"base_period must be positive and finite, got {self.base_period!r}")

    @property
    def n_design(self) -> int:
        return len(self.a1)

    def mean(self, sigma) -> float:
        sigma = _sigma_values(sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.a0 + float(self.a1 @ sigma)
            if self.quad != 0.0:
                center = self.quad_center if self.quad_center is not None else np.zeros_like(sigma)
                value += self.quad * float(((sigma - center) ** 2).sum())
        if not math.isfinite(value):
            raise DesignDomainError(f"design drives the mean out of range ({value})")
        return value

    def mean_design_gradient(self, sigma) -> np.ndarray:
        sigma = _sigma_values(sigma)
        grad = self.a1.copy()
        if self.quad != 0.0:
            center = self.quad_center if self.quad_center is not None else np.zeros_like(sigma)
            grad = grad + 2.0 * self.quad * (sigma - center)
        return grad

    def period(self, sigma) -> float:
        period = self.base_period * (1.0 + float(_sigma_values(sigma)[0]))
        if not period > 0.0:
            raise DesignDomainError(f"design drives the period non-positive ({period})")
        # dOmega/dsigma_1 divides by the period's square
        if not 0.0 < period * period < math.inf:
            raise DesignDomainError(f"design drives the period out of range ({period}): "
                                    f"its square overflows or underflows to 0.0")
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
            # exp overflows for a fast growth over a long series, and
            # cos(phase) = 0 then gives 0 * inf: inf and nan, not warnings
            with np.errstate(over="ignore", invalid="ignore"):
                period_term = period_term * np.exp(self.growth_rate * t_arr)
        out[:, 0] += period_term
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def initial_state(self) -> np.ndarray:
        return np.array([0.0, self.amplitude])

    def _bound(self, sigma):
        omega = 2.0 * math.pi / self.period(sigma)
        jacobian = (0.0, -omega, omega, 0.0)
        return lambda y, z, t: (-omega * z, omega * y), lambda y, z, t: jacobian

    def jacobian_design(self, u, sigma, t=0.0) -> np.ndarray:
        # dOmega/dsigma_1 through T(sigma) = T0 (1 + sigma_1)
        domega = -2.0 * math.pi * self.base_period / self.period(sigma) ** 2
        jac = np.zeros(np.shape(u) + (len(sigma),))
        jac[..., 0, 0] = -domega * u[..., 1]
        jac[..., 1, 0] = domega * u[..., 0]
        return jac

    def output_value(self, u, sigma):
        return self.mean(sigma) + u[..., 0]

    def output_state_gradient(self, u, sigma) -> np.ndarray:
        grad = np.zeros(np.shape(u))
        grad[..., 0] = 1.0
        return grad

    def output_design_gradient(self, u, sigma) -> np.ndarray:
        grad = np.empty(np.shape(u)[:-1] + (len(sigma),))
        grad[...] = self.mean_design_gradient(sigma)
        return grad


class _FirstStateOutput:
    """Output x or x^2 of the first state, chosen by the ``output`` field;
    it does not depend on the design.  An output that is not an OutputKind
    raises TypeError naming the valid ones: the name "x" would otherwise
    march as x^2."""

    def __post_init__(self):
        if not isinstance(self.output, OutputKind):
            valid = ", ".join(f"OutputKind.{kind.name} ({kind.value!r})" for kind in OutputKind)
            raise TypeError(f"output must be an OutputKind, one of {valid}; got "
                            f"{self.output!r} (OutputKind.from_name reads a name)")

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
class VanDerPol(_BoundModel, _FirstStateOutput):
    """Van der Pol oscillator; the single design variable is the damping mu.

    Residual convention du/dt + R = 0 with R = (-v, -mu (1 - x^2) v + x),
    which gives the classical x'' - mu (1 - x^2) x' + x = 0 limit cycle.
    """

    output: OutputKind = OutputKind.FIRST_STATE

    name = "van-der-pol"
    d_u = 2
    n_design = 1

    def initial_state(self) -> np.ndarray:
        # close to the limit cycle for every mu in the design box
        return np.array([2.0, 0.0])

    def _bound(self, sigma):
        mu = float(sigma[0])

        def residual(x, v, t):
            return -v, -mu * (1.0 - x * x) * v + x

        def jacobian(x, v, t):
            return 0.0, -1.0, 2.0 * mu * x * v + 1.0, -mu * (1.0 - x * x)
        return residual, jacobian

    def jacobian_design(self, u, sigma, t=0.0) -> np.ndarray:
        x, v = u[..., 0], u[..., 1]
        jac = np.zeros(np.shape(u) + (1,))
        jac[..., 1, 0] = -(1.0 - x * x) * v
        return jac


@dataclass(frozen=True)
class ForcedOscillator(_BoundModel, _FirstStateOutput):
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

    def __post_init__(self):
        super().__post_init__()
        _check_finite(self, ("omega", "stiffness0", "damping0", "forcing"))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def initial_state(self) -> np.ndarray:
        return np.array([0.0, 0.0])

    def _coefficients(self, s: float):
        """Stiffness and damping (k, c) at sigma_1 = s."""
        return self.stiffness0 * (1.0 + s), self.damping0 * (1.0 + s)

    def _bound(self, sigma):
        k, c = self._coefficients(float(sigma[0]))
        forcing, omega = self.forcing, self.omega

        def residual(x, v, t):
            return -v, c * v + k * x - forcing * math.sin(omega * t)
        jacobian = (0.0, -1.0, k, c)
        return residual, lambda x, v, t: jacobian

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
