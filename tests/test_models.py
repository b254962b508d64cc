"""Tests for the oscillator models and the analytic test signal."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from lcowind.adjoint import adjoint_sweep
from lcowind.analysis import windowed_average
from lcowind.errors import DesignDomainError
from lcowind.models import AnalyticSignal, DesignVector, ForcedOscillator, OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import Window


def fd_jacobian_state(model, u, sigma, t, h=1e-7):
    d = len(u)
    jac = np.zeros((d, d))
    for j in range(d):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        jac[:, j] = (np.asarray(model.residual(up, sigma, t))
                     - np.asarray(model.residual(um, sigma, t))) / (2 * h)
    return jac


def fd_jacobian_design(model, u, sigma, t, h=1e-7):
    n = len(sigma)
    jac = np.zeros((model.d_u, n))
    for j in range(n):
        sp, sm = sigma.copy(), sigma.copy()
        sp[j] += h
        sm[j] -= h
        jac[:, j] = (np.asarray(model.residual(u, sp, t))
                     - np.asarray(model.residual(u, sm, t))) / (2 * h)
    return jac


STATES = [np.array([2.0, 0.0]), np.array([0.3, -1.2]), np.array([-1.1, 0.7])]


@pytest.mark.parametrize("u", STATES)
def test_van_der_pol_jacobians_match_fd(u):
    model = VanDerPol()
    sigma = np.array([1.3])
    assert np.allclose(model.jacobian_state(u, sigma), fd_jacobian_state(model, u, sigma, 0.0),
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(model.jacobian_design(u, sigma), fd_jacobian_design(model, u, sigma, 0.0),
                       rtol=1e-6, atol=1e-6)


def test_van_der_pol_jacobian_at_origin():
    # at u = 0 and mu = 1 the damping entry is -mu*(1 - x^2) = -1; the FD
    # probe pins the sign that a hand expansion can easily get wrong
    model = VanDerPol()
    sigma = np.array([1.0])
    u0 = np.zeros(2)
    expected = np.array([[0.0, -1.0], [1.0, -1.0]])
    assert np.allclose(model.jacobian_state(u0, sigma), expected, atol=1e-14)
    assert np.allclose(fd_jacobian_state(model, u0, sigma, 0.0), expected, atol=1e-6)


def test_van_der_pol_design_derivative_points():
    model = VanDerPol()
    sigma = np.array([1.0])
    # (1 - x^2) vanishes at x = 1, so the derivative w.r.t. mu is zero there
    assert np.allclose(model.jacobian_design(np.array([1.0, 1.0]), sigma),
                       [[0.0], [0.0]], atol=1e-14)
    assert np.allclose(model.jacobian_design(np.array([0.0, 1.0]), sigma),
                       [[0.0], [-1.0]], atol=1e-14)


def test_van_der_pol_outputs():
    model_x = VanDerPol(output=OutputKind.FIRST_STATE)
    model_x2 = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    u = np.array([1.5, -0.2])
    sigma = np.array([1.0])
    assert model_x.output_value(u, sigma) == 1.5
    assert model_x2.output_value(u, sigma) == pytest.approx(2.25)
    assert np.allclose(model_x.output_state_gradient(u, sigma), [1.0, 0.0])
    assert np.allclose(model_x2.output_state_gradient(u, sigma), [3.0, 0.0])
    assert np.all(model_x.output_design_gradient(u, sigma) == 0.0)


@pytest.mark.parametrize("u", STATES)
@pytest.mark.parametrize("t", [0.0, 0.37])
def test_forced_oscillator_jacobians_match_fd(u, t):
    model = ForcedOscillator()
    sigma = np.array([0.2])
    assert np.allclose(model.jacobian_state(u, sigma, t), fd_jacobian_state(model, u, sigma, t),
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(model.jacobian_design(u, sigma, t), fd_jacobian_design(model, u, sigma, t),
                       rtol=1e-5, atol=1e-5)


def test_forced_oscillator_zero_state_is_forcing_only():
    model = ForcedOscillator()
    sigma = np.array([0.0])
    t = 0.123
    r = model.residual(np.zeros(2), sigma, t)
    assert r[0] == 0.0
    assert r[1] == pytest.approx(-model.forcing * math.sin(model.omega * t), rel=1e-15)


def test_forced_oscillator_steady_closed_forms():
    model = ForcedOscillator()
    sigma = np.array([0.2])
    k = model.stiffness0 * 1.2
    c = model.damping0 * 1.2
    amp = model.forcing / math.sqrt((k - model.omega ** 2) ** 2 + (c * model.omega) ** 2)
    assert model.steady_amplitude(sigma) == pytest.approx(amp, rel=1e-14)


def test_forced_oscillator_period_fixed():
    model = ForcedOscillator(omega=2.0 * math.pi)
    assert model.period == pytest.approx(1.0, rel=1e-15)


def test_analytic_signal_mean_and_gradient():
    sig = AnalyticSignal(a0=1.0, a1=np.array([0.5, -0.2]), quad=0.8,
                         quad_center=np.array([0.1, 0.4]))
    sigma = np.array([0.3, -0.1])
    expected = 1.0 + 0.5 * 0.3 + (-0.2) * (-0.1) + 0.8 * ((0.2) ** 2 + (-0.5) ** 2)
    assert sig.mean(sigma) == pytest.approx(expected, rel=1e-14)
    h = 1e-7
    for j in range(2):
        sp, sm = sigma.copy(), sigma.copy()
        sp[j] += h
        sm[j] -= h
        fd = (sig.mean(sp) - sig.mean(sm)) / (2 * h)
        assert sig.mean_design_gradient(sigma)[j] == pytest.approx(fd, rel=1e-6)


def test_analytic_signal_output_derivative_matches_fd():
    sig = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8)
    sigma = np.array([0.3])
    h = 1e-7
    for t in (0.2, 1.7, 5.3):
        fd = (sig.output(t, sigma + h) - sig.output(t, sigma - h)) / (2 * h)
        assert sig.output_design_derivative(t, sigma)[0] == pytest.approx(fd, rel=1e-6)


def test_analytic_signal_growth_envelope():
    base = AnalyticSignal(a0=2.0, a1=np.array([0.0]), amplitude=0.8)
    grown = AnalyticSignal(a0=2.0, a1=np.array([0.0]), amplitude=0.8, growth_rate=0.25)
    sigma = np.array([0.3])
    t = 4.0
    ratio = grown.output_design_derivative(t, sigma)[0] / base.output_design_derivative(t, sigma)[0]
    assert ratio == pytest.approx(math.exp(0.25 * t), rel=1e-12)


def test_growth_rate_acts_on_the_closed_form_alone():
    # the march reads no growth_rate, so its tangent and adjoint derivatives
    # keep their bits at growth_rate 1, while the closed-form series that
    # study --quantity sensitivity averages moves from 0.70080 to -30.794
    sigma, grid = np.array([0.3]), TimeGrid(dt=0.01, n_steps=1500, n_transient=137)
    derivatives = {}
    for growth_rate in (0.0, 1.0):
        model = AnalyticSignal(a1=np.array([0.7]), growth_rate=growth_rate)
        traj = simulate(model, sigma, grid)
        tangent = windowed_tangent_sensitivity(tangent_sweep(model, sigma, traj), Window.BUMP,
                                               137, 1500)[0]
        adjoint = adjoint_sweep(model, sigma, traj, Window.BUMP).design_derivative[0]
        closed_form = windowed_average(model.output_design_derivative(grid.times(), sigma)[:, 0],
                                       Window.BUMP, 137, 1500)
        derivatives[growth_rate] = (tangent, adjoint, closed_form)
    (tangent, adjoint, steady), (grown_tangent, grown_adjoint, grown) = derivatives.values()
    assert (grown_tangent, grown_adjoint) == (tangent, adjoint)
    assert tangent == pytest.approx(0.70081032, abs=1e-8)
    assert adjoint == pytest.approx(tangent, rel=1e-12)
    assert steady == pytest.approx(0.70080, abs=1e-5)
    assert grown == pytest.approx(-30.794, abs=1e-3)


def test_analytic_signal_period_validation():
    sig = AnalyticSignal()
    assert sig.period(np.array([0.3])) == pytest.approx(1.3)
    with pytest.raises(ValueError, match="non-positive"):
        sig.period(np.array([-1.0]))
    with pytest.raises(DesignDomainError, match="non-positive"):
        sig.period(np.array([np.nan]))
    # the largest period is the one whose square, in dOmega/dsigma, is finite
    assert sig.period(np.array([1e154])) == 1e154
    with pytest.raises(DesignDomainError, match="period out of range"):
        sig.period(np.array([1e155]))
    with pytest.raises(DesignDomainError, match="period out of range"):
        AnalyticSignal(base_period=1e300).period(np.array([1e10]))
    # and the smallest is the one whose square is not 0.0
    assert AnalyticSignal(base_period=1e-161).period(np.array([0.0])) == 1e-161
    with pytest.raises(DesignDomainError, match="period out of range.*underflows"):
        AnalyticSignal(base_period=1e-162).period(np.array([0.0]))


def test_analytic_signal_reads_a_scalar_an_array_or_a_design_vector():
    sig = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8, quad=0.3)
    times = np.array([0.0, 0.4, 1.9])
    methods = {"mean": sig.mean, "mean_design_gradient": sig.mean_design_gradient,
               "period": sig.period, "output": lambda sigma: sig.output(times, sigma),
               "output_design_derivative":
                   lambda sigma: sig.output_design_derivative(times, sigma)}
    designs = (0.3, np.array([0.3]), DesignVector(values=[0.3], lower=[0.0], upper=[1.0]))
    for name, method in methods.items():
        results = [np.asarray(method(sigma)).tobytes() for sigma in designs]
        assert results == results[:1] * 3, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analytic_signal_mean_must_be_finite():
    assert AnalyticSignal(a1=np.array([1e300])).mean(np.array([1.0])) == 1e300
    for signal, sigma in ((AnalyticSignal(a1=np.array([1e300])), 1e10),
                          (AnalyticSignal(quad=1.0), 1e200)):
        with pytest.raises(DesignDomainError, match="mean out of range"):
            signal.mean(np.array([sigma]))
    with pytest.raises(ValueError, match="base_period"):
        AnalyticSignal(base_period=0.0)
    with pytest.raises(ValueError, match="quad_center"):
        AnalyticSignal(a1=np.array([1.0]), quad_center=np.array([0.1, 0.2]))


@pytest.mark.parametrize("base_period", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_analytic_signal_rejects_a_base_period_that_is_not_positive_and_finite(base_period):
    # NaN fails every comparison, so only the interval the period may take
    # rejects it; else the first period() call blames the design
    with pytest.raises(ValueError, match="^base_period must be positive and finite, got "):
        AnalyticSignal(base_period=base_period)


# every numeric field of a model, each rejected where the model is built
# when it is not finite; a1 and quad_center are arrays
NUMERIC_FIELDS = [(cls, f.name) for cls in (AnalyticSignal, ForcedOscillator)
                  for f in dataclasses.fields(cls) if f.name != "output"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
def test_a_model_rejects_a_field_that_is_not_finite(cls, name, value):
    # a NaN amplitude or forcing once reached the march as a stalled step
    field_value = np.array([value]) if name in ("a1", "quad_center") else value
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{name: field_value})


@pytest.mark.parametrize("cls", [VanDerPol, ForcedOscillator])
@pytest.mark.parametrize("output", ["x", "x2", None])
def test_an_output_that_is_not_an_output_kind_raises_where_the_model_is_built(cls, output):
    # the name "x" once marched as x^2, the other branch of the output
    expected = (r"^output must be an OutputKind, one of OutputKind.FIRST_STATE \('x'\), "
                r"OutputKind.FIRST_STATE_SQUARED \('x2'\); got ")
    with pytest.raises(TypeError, match=expected):
        cls(output=output)
    assert cls(output=OutputKind.from_name("x")).output is OutputKind.FIRST_STATE


def test_analytic_signal_model_matches_signal():
    model = AnalyticSignal(a0=1.5, a1=np.array([0.4]), amplitude=0.3)
    sigma = np.array([0.2])
    u = np.array([0.11, -0.05])
    assert model.output_value(u, sigma) == pytest.approx(model.mean(sigma) + 0.11, rel=1e-14)
    assert np.allclose(model.jacobian_state(u, sigma),
                       fd_jacobian_state(model, u, sigma, 0.0), rtol=1e-6, atol=1e-8)
    assert np.allclose(model.jacobian_design(u, sigma),
                       fd_jacobian_design(model, u, sigma, 0.0), rtol=1e-5, atol=1e-7)
    assert np.allclose(model.output_design_gradient(u, sigma),
                       model.mean_design_gradient(sigma))


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_the_analytic_model_keeps_no_state_between_marches(dtau):
    # one instance marched at two designs in turn gives the bytes of fresh
    # instances, and is left as it was: equal, and pickled to the same
    # bytes, which would show any state kept on it (its ndarray field makes
    # it unhashable)
    def model():
        return AnalyticSignal(a1=np.array([0.7]), amplitude=0.8)

    shared, grid, cfg = model(), TimeGrid(dt=0.05, n_steps=200), PseudoTimeConfig(dtau=dtau)
    before = pickle.dumps(shared)
    for sigma in (0.3, -0.2, 0.3):
        got = simulate(shared, np.array([sigma]), grid, cfg)
        expected = simulate(model(), np.array([sigma]), grid, cfg)
        for name in ("states", "outputs", "inner_iterations", "residual_norms"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert (shared.jacobian_design(got.states, np.array([sigma])).tobytes()
                == model().jacobian_design(got.states, np.array([sigma])).tobytes())
    assert shared == model()
    assert pickle.dumps(shared) == before


def test_design_vector_validation_and_projection():
    with pytest.raises(ValueError, match="matching shapes"):
        DesignVector(values=np.array([0.0]), lower=np.zeros(2), upper=np.ones(2))
    with pytest.raises(ValueError, match="lower bounds exceed"):
        DesignVector(values=np.array([0.0]), lower=np.array([1.0]), upper=np.array([-1.0]))
    with pytest.raises(ValueError, match="violate box"):
        DesignVector(values=np.array([2.0]), lower=np.array([0.0]), upper=np.array([1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            DesignVector(values=np.array([bad]), lower=np.array([-np.inf]),
                         upper=np.array([np.inf]))
    with pytest.raises(ValueError, match="must not be NaN"):
        DesignVector(values=np.array([0.5]), lower=np.array([np.nan]), upper=np.array([1.0]))
    unbounded = DesignVector(values=np.array([0.5]), lower=np.array([-np.inf]),
                             upper=np.array([np.inf]))
    assert unbounded.project(np.array([7.0]))[0] == 7.0
    dv = DesignVector(values=np.array([0.5]), lower=np.array([0.0]), upper=np.array([1.0]))
    assert dv.n_design == 1
    assert np.allclose(dv.project(np.array([7.0])), [1.0])
    assert np.allclose(dv.project(np.array([-7.0])), [0.0])


def test_output_kind_from_name():
    assert OutputKind.from_name("x") is OutputKind.FIRST_STATE
    assert OutputKind.from_name("X2") is OutputKind.FIRST_STATE_SQUARED
    with pytest.raises(ValueError, match="unknown output"):
        OutputKind.from_name("energy")
