"""The models' per-step methods and the step solve, pinned bit for bit.

The reference march in test_reference_march.py calls the models' own
methods, so it cannot see a change in a model formula.  Here each method
is compared, on thousands of seeded states, designs and times, with the
numpy-array form it was first written in: the state and the design read
through np.asarray, every product taken on numpy scalars.  The methods
that also take a stack of states must return the stack of their
single-state results, and the per-step ones the same result for a list of
floats as for an array.  solve_step is compared with np.linalg.solve, and
the BLAS ddot that forms the march's residual norms with ndarray.dot.
All must agree in every bit.  Both pins hold for a given OpenBLAS build,
which is why the CI log prints numpy's and scipy's build configurations.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg.blas import ddot

from lcowind.errors import SingularStepError
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, ForcedOscillator,
                            OutputKind, VanDerPol)
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate, solve_step

N_DRAWS = 3000
# the methods that take one state (d_u,) or a stack of states (N, d_u)
STACKED = ("jacobian_design", "output_value", "output_state_gradient",
           "output_design_gradient")
# the methods the march calls per inner iterate, with the state as a list
PER_STEP = ("residual", "jacobian_state")


def _state(u):
    return np.asarray(u, dtype=float)


def _design(sigma):
    return np.atleast_1d(np.asarray(sigma, dtype=float))


def first_state_outputs(output):
    def value(u, sigma):
        u = _state(u)
        return float(u[0]) if output is OutputKind.FIRST_STATE else float(u[0] * u[0])

    def state_gradient(u, sigma):
        u = _state(u)
        if output is OutputKind.FIRST_STATE:
            return np.array([1.0, 0.0])
        return np.array([2.0 * u[0], 0.0])

    def design_gradient(u, sigma):
        return np.zeros(1)

    return {"output_value": value, "output_state_gradient": state_gradient,
            "output_design_gradient": design_gradient}


def van_der_pol(model):
    def residual(u, sigma, t):
        mu = _design(sigma)[0]
        x, v = _state(u)
        return np.array([-v, -mu * (1.0 - x * x) * v + x])

    def jacobian_state(u, sigma, t):
        mu = _design(sigma)[0]
        x, v = _state(u)
        return np.array([[0.0, -1.0], [2.0 * mu * x * v + 1.0, -mu * (1.0 - x * x)]])

    def jacobian_design(u, sigma, t):
        x, v = _state(u)
        return np.array([[0.0], [-(1.0 - x * x) * v]])

    return {"residual": residual, "jacobian_state": jacobian_state,
            "jacobian_design": jacobian_design, **first_state_outputs(model.output)}


def forced_oscillator(model):
    def coefficients(sigma):
        s = _design(sigma)[0]
        return model.stiffness0 * (1.0 + s), model.damping0 * (1.0 + s)

    def residual(u, sigma, t):
        k, c = coefficients(sigma)
        x, v = _state(u)
        return np.array([-v, c * v + k * x - model.forcing * math.sin(model.omega * t)])

    def jacobian_state(u, sigma, t):
        k, c = coefficients(sigma)
        return np.array([[0.0, -1.0], [k, c]])

    def jacobian_design(u, sigma, t):
        x, v = _state(u)
        return np.array([[0.0], [model.damping0 * v + model.stiffness0 * x]])

    return {"residual": residual, "jacobian_state": jacobian_state,
            "jacobian_design": jacobian_design, **first_state_outputs(model.output)}


def analytic_signal(model):
    signal = model.signal

    def omega(sigma):
        return 2.0 * np.pi / signal.period(sigma)

    def residual(u, sigma, t):
        u = _state(u)
        return np.array([-omega(sigma) * u[1], omega(sigma) * u[0]])

    def jacobian_state(u, sigma, t):
        return np.array([[0.0, -omega(sigma)], [omega(sigma), 0.0]])

    def jacobian_design(u, sigma, t):
        u, sigma = _state(u), _design(sigma)
        domega = -2.0 * np.pi * signal.base_period / signal.period(sigma) ** 2
        jac = np.zeros((2, len(sigma)))
        jac[0, 0] = -domega * u[1]
        jac[1, 0] = domega * u[0]
        return jac

    def output_value(u, sigma):
        return signal.mean(sigma) + _state(u)[0]

    def output_state_gradient(u, sigma):
        return np.array([1.0, 0.0])

    def output_design_gradient(u, sigma):
        return signal.mean_design_gradient(sigma)

    return {"residual": residual, "jacobian_state": jacobian_state,
            "jacobian_design": jacobian_design, "output_value": output_value,
            "output_state_gradient": output_state_gradient,
            "output_design_gradient": output_design_gradient}


# (model, reference methods, design range, design length)
MODELS = {
    "van-der-pol-x": (VanDerPol(output=OutputKind.FIRST_STATE), van_der_pol, (0.1, 3.0), 1),
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), van_der_pol,
                       (0.1, 3.0), 1),
    "forced-oscillator-x": (ForcedOscillator(), forced_oscillator, (-0.5, 0.5), 1),
    "forced-oscillator-x2": (ForcedOscillator(omega=1.7, stiffness0=3.0, damping0=0.2,
                                              forcing=2.5,
                                              output=OutputKind.FIRST_STATE_SQUARED),
                             forced_oscillator, (-0.5, 0.5), 1),
    "analytic-signal": (AnalyticSignalModel(AnalyticSignal(
        a0=1.0, a1=np.array([0.5]), amplitude=0.3, quad=0.8,
        quad_center=np.array([0.1]))), analytic_signal, (-0.9, 2.0), 1),
    "analytic-signal-2": (AnalyticSignalModel(AnalyticSignal(
        a0=-0.4, a1=np.array([0.5, -1.2]), amplitude=0.7, base_period=2.5, quad=3.0,
        quad_center=np.array([0.1, -0.3]))), analytic_signal, (-0.9, 2.0), 2),
}


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_model_methods_match_array_formulas_bit_for_bit(name):
    model, reference, (low, high), n_design = MODELS[name]
    expected = reference(model)
    rng = np.random.default_rng(20240611)
    # each design serves three states in a row, so a method that keeps
    # design terms between calls is checked both on reuse and on change
    for _ in range(N_DRAWS // 3):
        sigma = rng.uniform(low, high, n_design)
        for _ in range(3):
            u = rng.standard_normal(2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
            t = float(rng.uniform(0.0, 50.0))
            for method, formula in expected.items():
                args = (u, sigma) if method.startswith("output") else (u, sigma, t)
                assert same_bits(getattr(model, method)(*args), formula(*args)), \
                    (method, args)
            for method in PER_STEP:
                call = getattr(model, method)
                assert same_bits(call(u.tolist(), sigma, t), call(u, sigma, t)), \
                    (method, u, sigma, t)
        # the three states again, as one stack
        states = rng.standard_normal((3, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 2))
        times = rng.uniform(0.0, 50.0, 3)
        for method in STACKED:
            call = getattr(model, method)
            if method.startswith("output"):
                stacked, single = call(states, sigma), [call(u, sigma) for u in states]
            else:
                stacked = call(states, sigma, times)
                single = [call(u, sigma, t) for u, t in zip(states, times)]
            assert same_bits(stacked, np.stack(single)), (method, states, sigma)


def test_model_methods_do_not_write_their_inputs():
    rng = np.random.default_rng(7)
    for model, reference, (low, high), n_design in MODELS.values():
        formulas = reference(model)
        sigma = rng.uniform(low, high, n_design)
        for u, t, methods in ((rng.standard_normal(2), 0.3, formulas),
                              (rng.standard_normal((5, 2)), np.full(5, 0.3), STACKED)):
            u_before, sigma_before = u.copy(), sigma.copy()
            for method in methods:
                result = getattr(model, method)(u, sigma) if method.startswith("output") \
                    else getattr(model, method)(u, sigma, t)
                if isinstance(result, np.ndarray):
                    result[...] = np.nan  # a caller may write the array it is given
            assert np.array_equal(u, u_before) and np.array_equal(sigma, sigma_before)
            # and so may not change what the next call returns
            expected = [formulas["output_design_gradient"](row, sigma)
                        for row in np.atleast_2d(u)]
            assert same_bits(model.output_design_gradient(u, sigma),
                             np.reshape(expected, np.shape(u)[:-1] + (n_design,)))
        # a trajectory's outputs are its own array, not a view of its states
        traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=10, n_transient=2))
        assert not np.shares_memory(traj.outputs, traj.states)


@pytest.mark.parametrize("n_rhs", [None, 1, 3], ids=["vector", "one-column", "three-columns"])
@pytest.mark.parametrize("size", [1, 2])
def test_solve_step_matches_numpy_solve_bit_for_bit(size, n_rhs):
    rng = np.random.default_rng(size * 10 + (n_rhs or 0))
    for _ in range(N_DRAWS):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        matrix = rng.standard_normal((size, size)) * scale
        shape = (size,) if n_rhs is None else (size, n_rhs)
        rhs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0)
        # the adjoint solves with transposed views of stored step matrices
        for system in (matrix, matrix.T):
            before = (system.copy(), rhs.copy())
            assert same_bits(solve_step(system, rhs), np.linalg.solve(system, rhs)), \
                (system, rhs)
            assert np.array_equal(system, before[0]) and np.array_equal(rhs, before[1])


@pytest.mark.parametrize("rhs", [np.ones(2), np.ones((2, 3))], ids=["vector", "matrix"])
def test_solve_step_raises_on_singular_matrix(rhs):
    for matrix in (np.zeros((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]]),
                   np.array([[np.nan, 1.0], [1.0, 1.0]])):
        # np.linalg.solve refuses each of these too
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(matrix, rhs)
        with pytest.raises(SingularStepError) as excinfo:
            solve_step(matrix, rhs, 5)
        assert excinfo.value.step == 5


@pytest.mark.parametrize("size", [1, 2])
def test_blas_ddot_matches_ndarray_dot_bit_for_bit(size):
    # the march's residual norm is sqrt(ddot(r, r)).  The components share a
    # scale to within 1e3, as a residual's do; on these draws a Python sum of
    # squares differs from r.dot(r) in about one 2-vector in eight
    rng = np.random.default_rng(100 + size)
    for _ in range(10 * N_DRAWS):
        scale = rng.uniform(-150.0, 150.0) + rng.uniform(-3.0, 3.0, size)
        r = rng.standard_normal(size) * 10.0 ** scale
        assert same_bits(ddot(r, r), r.dot(r)), r


@dataclass(frozen=True)
class ReadOnlyJacobianVanDerPol(VanDerPol):
    """Van der Pol whose state Jacobian comes back read-only, as a model's
    own stored matrix might."""

    def jacobian_state(self, u, sigma, t=0.0):
        jacobian = super().jacobian_state(u, sigma, t)
        jacobian.flags.writeable = False
        return jacobian


@pytest.mark.parametrize("dtau", [math.inf, 0.5], ids=["dtau=inf", "dtau=0.5"])
def test_march_does_not_write_the_models_jacobian(dtau):
    sigma = np.array([1.2])
    grid = TimeGrid(dt=0.05, n_steps=40)
    cfg = PseudoTimeConfig(dtau=dtau, max_inner=200)
    traj = simulate(ReadOnlyJacobianVanDerPol(), sigma, grid, cfg)
    assert np.array_equal(traj.states, simulate(VanDerPol(), sigma, grid, cfg).states)
