"""The models' per-step methods and the step solve, pinned bit for bit.

The reference march in test_reference_march.py calls the models' own
methods, so it cannot see a change in a model formula.  Here each method
is compared, on thousands of seeded states, designs and times, with the
numpy-array form it was first written in: the state and the design read
through np.asarray, every product taken on numpy scalars.  The methods
that also take a stack of states must return the stack of their
single-state results, and the per-step ones the same result for a list of
floats as for an array.  solve_step is compared with np.linalg.solve, and
BLAS ddot, whose bits the march's residual norms reproduce, with
ndarray.dot; the float step kernels are pinned further down.
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


# --- the float step kernels ---------------------------------------------
#
# The march, the step matrices and the adjoint's fixed-point loop do their
# 2x2 linear algebra on Python floats: an exact fused multiply-add (_fma),
# dgesv's pivoting and rounding (_solve2), ddot's norm (_norm2) and gemv's
# product (_fixed_point_iterate).  Each is pinned twice: against exact
# rational arithmetic rounded once per operation, which does not depend on
# the machine, and against the OpenBLAS routine it stands in for.  The
# solves and norms are reached through float_kernels(size), so sizes 1 and
# 3, which go through dgesv and ndarray.dot themselves, pin its dispatch.
# A NaN result must be NaN on both sides; its sign bit is not pinned, as
# IEEE 754 leaves it open and the x86 kernels return the negative default
# NaN where Python's negation flips a sign.

from fractions import Fraction

from scipy.linalg.lapack import dgesv

from lcowind.adjoint import _fixed_point_iterate
from lcowind.primal import _fma, float_kernels, step_coefficients, step_matrices

N_KERNEL_DRAWS = 100_000
NAN, INF = math.nan, math.inf
# NaN, infinities, signed zeros, subnormals, the smallest normal, and
# magnitudes whose products underflow or overflow
SPECIAL = (NAN, INF, -INF, 0.0, -0.0, 1.0, -1.5, 5e-324, -3e-310, 2.2250738585072014e-308,
           1e-160, 3e150, -1e300, 1.7976931348623157e308)


def same_float(got, expected):
    got, expected = float(got), float(expected)
    if math.isnan(expected):
        return math.isnan(got)
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


def same_floats(got, expected):
    return len(got) == len(expected) and all(map(same_float, got, expected))


def fma_exact(a, b, c):
    """IEEE 754 fusedMultiplyAdd: a * b + c exactly, rounded once to nearest."""
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return NAN
    if math.isinf(a) or math.isinf(b):
        if a == 0.0 or b == 0.0:
            return NAN
        product = math.copysign(INF, a) * math.copysign(1.0, b)
        return NAN if math.isinf(c) and c != product else product
    if math.isinf(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        # an exact zero is -0.0 only as the sum of two negative zeros
        product_negative = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
        zero_product = a == 0.0 or b == 0.0
        return -0.0 if zero_product and product_negative and math.copysign(1.0, c) < 0 \
            else 0.0
    try:
        return float(exact)  # CPython rounds int / int correctly, subnormals too
    except OverflowError:
        return INF if exact > 0 else -INF


def rounded(x: Fraction) -> float:
    return float(x)


def dgesv_exact(entries, rhs):
    """dgesv on a normal, nonsingular 2x2 system, each operation exact and
    rounded once: the reciprocal pivot and the multiplier, the unfused
    update of a22, and the fused steps of the two triangular solves."""
    a11, a12, a21, a22 = map(Fraction, entries)
    b1, b2 = map(Fraction, rhs)
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, b1, b2 = a21, a22, a11, a12, b2, b1
    l = Fraction(rounded(a21 * Fraction(rounded(1 / a11))))
    u22 = Fraction(rounded(a22 - Fraction(rounded(l * a12))))
    x2 = Fraction(rounded(Fraction(rounded(b2 - l * b1)) / u22))
    x1 = rounded(Fraction(rounded(b1 - a12 * x2)) / a11)
    return [x1, float(x2)]


def kernel_draws(rng, shape):
    """Normal draws scaled by 10**k, k uniform in [-150, 150]: products
    span 1e-300 to 1e300."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape)


def fma_draws(n):
    rng = np.random.default_rng(2971)
    a, b, c = (kernel_draws(rng, n) for _ in range(3))
    # a third of the addends nearly cancel the product, so the low bits count
    c[::3] = -(a[::3] * b[::3]) * (1.0 + rng.standard_normal(len(c[::3])) * 1e-12)
    cases = list(zip(a.tolist(), b.tolist(), c.tolist()))
    # ties of the final rounding: 1 + 2**-53 lies halfway between two doubles
    cases += [(1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52, -1.0), (1.0, 2.0 ** -53, 1.0),
              (3.0, 2.0 ** -54, 1.0), (1e-160, 1e-160, 0.0), (1e-160, -1e-160, 1e-320),
              (1e200, 1e200, -INF), (1e200, 1e200, -1e308), (INF, 1.0, -INF),
              (1.7e308, 1.5, -1.7e308)]
    cases += [(a, b, c) for a in SPECIAL for b in SPECIAL for c in SPECIAL]
    return cases


def test_fma_rounds_the_exact_sum_once():
    for a, b, c in fma_draws(N_KERNEL_DRAWS // 4):  # Fraction arithmetic is slow
        assert same_float(_fma(a, b, c), fma_exact(a, b, c)), (a, b, c)


def test_fma_matches_blas_ddot():
    # ddot of (c, a) and (1, b) is fma(a, b, c * 1) in OpenBLAS's kernel.  Its
    # sum starts at +0.0, which turns an addend of -0.0 into +0.0, so those
    # cases are left to the exact test above
    for a, b, c in fma_draws(N_KERNEL_DRAWS):
        if c == 0.0 and math.copysign(1.0, c) < 0:
            continue
        hardware = ddot(np.array([c, a]), np.array([1.0, b]))
        assert same_float(_fma(a, b, c), hardware), (a, b, c)


@pytest.mark.skipif(not hasattr(math, "fma"), reason="math.fma needs Python 3.13")
def test_fma_matches_math_fma():
    rng = np.random.default_rng(3130)
    a, b, c = (kernel_draws(rng, N_KERNEL_DRAWS).tolist() for _ in range(3))
    for x, y, z in zip(a, b, c):
        assert same_float(_fma(x, y, z), math.fma(x, y, z)), (x, y, z)


def test_solves_match_exact_lu():
    # normal systems whose solutions stay finite: each shares one scale in
    # 1e-100..1e100 with a spread of 1e3 within it
    rng = np.random.default_rng(4817)
    for _ in range(N_KERNEL_DRAWS // 10):
        entries, rhs = ((rng.standard_normal(size) * 10.0 ** rng.uniform(-100.0, 100.0)
                         * 10.0 ** rng.uniform(-3.0, 3.0, size)).tolist() for size in (4, 2))
        assert same_floats(float_kernels(2).solve(entries, rhs), dgesv_exact(entries, rhs)), \
            (entries, rhs)
        # dgesv's 1x1 solve is b / a, correctly rounded
        assert same_float(float_kernels(1).solve(entries[:1], rhs[:1])[0],
                          rounded(Fraction(rhs[0]) / Fraction(entries[0]))), (entries, rhs)


def float_solve_or_singular(solve, entries, rhs):
    try:
        return solve(entries, rhs, 9)
    except SingularStepError as exc:
        assert exc.step == 9
        return None


def check_against_dgesv(matrix, rhs):
    size = len(rhs)
    _, _, expected, info = dgesv(matrix, np.array(rhs))
    got = float_solve_or_singular(float_kernels(size).solve, matrix.ravel().tolist(), rhs)
    if info > 0:
        assert got is None, (matrix, rhs, got)
    else:
        assert got is not None and same_floats(got, expected.tolist()), \
            (matrix, rhs, got, expected)


def solve_draws(size):
    rng = np.random.default_rng(5233 + size)
    # three states reach dgesv itself, so fewer draws pin that dispatch
    for _ in range(N_KERNEL_DRAWS if size < 3 else N_KERNEL_DRAWS // 10):
        # one scale for the matrix and a spread within it, as a step matrix has
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        matrix = rng.standard_normal((size, size)) * scale * 10.0 ** rng.uniform(-3, 3, (size, size))
        yield matrix, kernel_draws(rng, size).tolist()


@pytest.mark.parametrize("size", [1, 2, 3])
def test_solves_match_dgesv_on_random_systems(size):
    for matrix, rhs in solve_draws(size):
        # the adjoint solves with the transpose of a stored step matrix
        for system in (matrix, matrix.T):
            check_against_dgesv(system, rhs)


@np.errstate(all="ignore")
def test_solves_match_dgesv_on_edge_cases():
    rhs_cases = ([1.0, -2.0], [NAN, 1.0], [0.0, -0.0], [1e300, 5e-324])
    # every 1x1 and 2x2 matrix of special values: zero, subnormal and NaN
    # pivots, infinite pivots whose reciprocal scales by zero, and inf - inf
    for a in SPECIAL:
        for b in SPECIAL:
            check_against_dgesv(np.array([[a]]), [b])
    for entries in np.array(np.meshgrid(*[SPECIAL] * 4)).reshape(4, -1).T.tolist():
        matrix = np.array(entries).reshape(2, 2)
        for rhs in rhs_cases[:2] if np.isnan(matrix).any() else rhs_cases:
            check_against_dgesv(matrix, rhs)
    rng = np.random.default_rng(6007)
    for _ in range(2000):
        a11, a12, a22, b1, b2 = kernel_draws(rng, 5).tolist()
        # pivot ties: idamax keeps the first row
        for a21 in (a11, -a11):
            check_against_dgesv(np.array([[a11, a12], [a21, a22]]), [b1, b2])
        # rank one: u22 is exactly zero, or rounds to a tiny remainder
        check_against_dgesv(np.array([[a11, a12], [2.0 * a11, 2.0 * a12]]), [b1, b2])
        check_against_dgesv(np.array([[a11, a12], [3.0 * a11, 3.0 * a12]]), [b1, b2])
        # a zero first column: info = 1
        check_against_dgesv(np.array([[0.0, a12], [-0.0, a22]]), [b1, b2])
    # three states: systems drawn from the special values, and a zero column
    for entries in rng.choice(SPECIAL, (2000, 12)).tolist():
        check_against_dgesv(np.array(entries[:9]).reshape(3, 3), entries[9:])
    check_against_dgesv(np.array([[0.0, 1.0, 2.0], [-0.0, 3.0, 4.0], [0.0, 5.0, 6.0]]),
                        [1.0, -2.0, 3.0])


@pytest.mark.parametrize("size", [1, 2, 3])
@np.errstate(all="ignore")
def test_norms_match_ddot(size):
    norm = float_kernels(size).norm
    rng = np.random.default_rng(7411 + size)
    vectors = [kernel_draws(rng, size) for _ in range(N_KERNEL_DRAWS)]
    vectors += [np.array(v) for v in np.array(np.meshgrid(*[SPECIAL] * size))
                .reshape(size, -1).T.tolist()]
    for r in vectors:
        assert same_float(norm(r.tolist()), math.sqrt(ddot(r, r))), r
        assert same_float(norm(r.tolist()), math.sqrt(r.dot(r))), r


def check_fixed_point_iterate(iter_matrix, rhs, ubar):
    updated, norm = _fixed_point_iterate(iter_matrix, rhs)(ubar)
    expected = iter_matrix @ np.array(ubar) + rhs
    change = expected - ubar
    assert same_floats(updated, expected.tolist()), (iter_matrix, rhs, ubar)
    assert same_float(norm, math.sqrt(change.dot(change))), (iter_matrix, rhs, ubar)


@pytest.mark.parametrize("layout", ["transposed", "contiguous"])
@np.errstate(all="ignore")
def test_fixed_point_iterate_matches_matmul(layout):
    # iteration_matrices returns transposed views, which run on floats
    # with gemv's fused product; a contiguous matrix goes through numpy
    rng = np.random.default_rng(8101)
    draws = N_KERNEL_DRAWS if layout == "transposed" else N_KERNEL_DRAWS // 10
    for _ in range(draws):
        matrix = kernel_draws(rng, (2, 2))
        iter_matrix = matrix.T if layout == "transposed" else matrix
        assert iter_matrix.flags.f_contiguous == (layout == "transposed")
        check_fixed_point_iterate(iter_matrix, kernel_draws(rng, 2).tolist(),
                                  kernel_draws(rng, 2).tolist())
    for entries in np.array(np.meshgrid(*[SPECIAL[:8]] * 4)).reshape(4, -1).T.tolist():
        matrix = np.array(entries).reshape(2, 2)
        iter_matrix = matrix.T if layout == "transposed" else matrix
        for ubar in ([1.0, -2.0], [0.0, -0.0], [-0.0, -0.0], [1e300, 1e-300]):
            check_fixed_point_iterate(iter_matrix, [-0.0, 0.5], ubar)
    for v, x in zip(SPECIAL, SPECIAL[::-1]):
        check_fixed_point_iterate(np.array([[v]]).T, [-0.0], [x])


# --- which Jacobian the march reads ---------------------------------------

@dataclass(frozen=True)
class ScaledJacobianVanDerPol(VanDerPol):
    """Van der Pol whose state Jacobian is 1.5 times the true one, written
    only as a jacobian_state override: the march must read it, not the float
    entries VanDerPol writes, and so converge along another path."""

    def jacobian_state(self, u, sigma, t=0.0):
        return 1.5 * super().jacobian_state(u, sigma, t)


K3 = np.array([[0.2, -1.0, 0.1], [1.0, 0.3, 0.4], [-0.2, -0.4, 0.5]])
F3 = np.array([0.0, 1.0, 0.5])


@dataclass(frozen=True)
class LinearThreeStateModel:
    """du/dt + (1 + sigma_1) K u - F sin(t) = 0 with a fixed 3x3 K: a d_u
    the float kernels do not cover, so its steps go through dgesv."""

    name = "linear-three-state"
    d_u = 3
    n_design = 1

    def initial_state(self, sigma=None):
        return np.array([1.0, 0.0, -0.5])

    def residual(self, u, sigma, t=0.0):
        return ((1.0 + sigma[0]) * (K3 @ np.asarray(u, dtype=float)) - F3 * math.sin(t)).tolist()

    def jacobian_state(self, u, sigma, t=0.0):
        return (1.0 + sigma[0]) * K3

    def jacobian_design(self, u, sigma, t=0.0):
        # K u written out, so one state and a stack of states round alike
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([K3[i, 0] * x + K3[i, 1] * y + K3[i, 2] * z for i in range(3)],
                        axis=-1)[..., None]

    def output_value(self, u, sigma):
        return u[..., 0] - u[..., 2]

    def output_state_gradient(self, u, sigma):
        grad = np.zeros(np.shape(u))
        grad[..., 0], grad[..., 2] = 1.0, -1.0
        return grad

    def output_design_gradient(self, u, sigma):
        return np.zeros(np.shape(u)[:-1] + (1,))


def assert_sweeps_match_reference(model, sigma, grid, cfg):
    from test_reference_march import reference_adjoint, reference_simulate, reference_tangent

    from lcowind.adjoint import AdjointMode, adjoint_sweep
    from lcowind.tangent import tangent_sweep
    from lcowind.windows import Window

    traj = simulate(model, sigma, grid, cfg)
    states, outputs, inner, norms = reference_simulate(model, sigma, grid, cfg)
    for got, expected in zip((traj.states, traj.outputs, traj.inner_iterations,
                              traj.residual_norms), (states, outputs, inner, norms)):
        assert same_bits(got, expected)
    tangent = tangent_sweep(model, sigma, traj)
    udot, gdot = reference_tangent(model, sigma, states, grid.dt)
    assert same_bits(tangent.state_sensitivities, udot)
    assert same_bits(tangent.output_sensitivities, gdot)
    for mode in AdjointMode:
        sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg, mode)
        expected = reference_adjoint(model, sigma, states, grid, Window.HANN, cfg, mode)
        got = (sweep.adjoint_states, sweep.running_design_derivative, sweep.inner_iterations,
               sweep.residual_norms, sweep.contraction_estimates)
        for got_array, expected_array in zip(got, expected):
            assert same_bits(got_array, expected_array), mode
    return traj


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_a_jacobian_state_override_wins(dtau):
    sigma = np.array([1.2])
    grid = TimeGrid(dt=0.05, n_steps=120, n_transient=20)
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    scaled = assert_sweeps_match_reference(ScaledJacobianVanDerPol(), sigma, grid, cfg)
    plain = simulate(VanDerPol(), sigma, grid, cfg)
    assert scaled.inner_iterations.sum() > plain.inner_iterations.sum()
    assert not np.array_equal(scaled.states, plain.states)


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_three_state_model_goes_through_dgesv(dtau):
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    assert_sweeps_match_reference(LinearThreeStateModel(), np.array([0.3]),
                                  TimeGrid(dt=0.05, n_steps=120, n_transient=20), cfg)


@dataclass(frozen=True)
class SignedZeroJacobianVanDerPol(VanDerPol):
    """Van der Pol whose state Jacobian has -0.0 off its diagonal."""

    def jacobian_state(self, u, sigma, t=0.0):
        jacobian = super().jacobian_state(u, sigma, t)
        jacobian[0, 1] = -0.0
        return jacobian


@pytest.mark.parametrize("model", [SignedZeroJacobianVanDerPol(), VanDerPol(),
                                   LinearThreeStateModel()], ids=["signed-zero", "vdp", "d_u=3"])
def test_step_matrices_equal_the_array_sum(model):
    # alpha * np.eye(d_u) + J: off the diagonal 0.0 + J_ij, which turns -0.0 into 0.0
    sigma = np.array([0.4])
    grid = TimeGrid(dt=0.05, n_steps=40)
    traj = simulate(model, sigma, grid)
    expected = [step_coefficients(n, grid.dt)[0] * np.eye(model.d_u)
                + model.jacobian_state(u, sigma, n * grid.dt)
                for n, u in enumerate(traj.states[1:], start=1)]
    assert same_bits(step_matrices(model, sigma, traj), np.stack(expected))


@pytest.mark.parametrize("dtau", [INF, 1.0, 0.3], ids=["dtau=inf", "dtau=1", "dtau=0.3"])
@np.errstate(all="ignore")
@pytest.mark.parametrize("size", [1, 2, 3])
def test_step_entries_equal_the_array_sum(size, dtau):
    # the march's step matrix, alpha I + J + inv_dtau I summed as arrays:
    # -0.0 off the diagonal becomes 0.0, and any special value passes as
    # numpy adds it
    from lcowind.primal import _step_entries

    inv_dtau = PseudoTimeConfig(dtau=dtau).inv_dtau
    rng = np.random.default_rng(size)
    entries = np.concatenate([kernel_draws(rng, (500, size * size)),
                              rng.choice(SPECIAL, (500, size * size))])
    identity = np.eye(size)
    for n, dt in ((1, 0.05), (2, 0.05), (2, 0.02), (1, 1e-3)):
        alpha = step_coefficients(n, dt)[0]
        for jacobian in entries:
            expected = (alpha * identity + jacobian.reshape(size, size)
                        + inv_dtau * identity).ravel().tolist()
            assert same_floats(_step_entries(jacobian.tolist(), alpha, inv_dtau), expected)


def update_or_singular(update, *args):
    try:
        return update(*args)
    except SingularStepError:
        return "singular"


@np.errstate(all="ignore")
@pytest.mark.parametrize("dtau", [INF, 1.0], ids=["dtau=inf", "dtau=1"])
def test_two_state_update_matches_the_general_form(dtau):
    # the size-2 kernel writes _step_entries out; a -0.0 in the residual
    # shows the sign of a zero off the diagonal, which a march never shows
    from lcowind.primal import _update, float_kernels

    inv_dtau = PseudoTimeConfig(dtau=dtau).inv_dtau
    rng = np.random.default_rng(20)
    draws = np.concatenate([kernel_draws(rng, (3000, 8)), rng.choice(SPECIAL, (3000, 8))])
    update2 = float_kernels(2).update
    for n, dt in ((1, 0.05), (2, 0.05)):
        alpha = step_coefficients(n, dt)[0]
        for row in draws.tolist():
            args = (row[:2], row[2:6], row[6:], alpha, inv_dtau, n)
            got, expected = update_or_singular(update2, *args), update_or_singular(_update, *args)
            assert got == expected == "singular" or same_floats(got, expected)


class FixedResidual:
    """A stand-in model whose residual is a given list, whatever the state."""

    def __init__(self, values):
        self.values = values

    def residual(self, u, sigma, t=0.0):
        return self.values


@np.errstate(all="ignore")
@pytest.mark.parametrize("size", [1, 2, 3])
def test_extended_residuals_match_the_formula(size):
    # alpha u_n + R + beta u_{n-1} + delta u_{n-2}, summed left to right on
    # numpy scalars, against the general form and the size's kernel
    from lcowind.primal import _extended_residual, float_kernels

    rng = np.random.default_rng(10 + size)
    draws = np.concatenate([kernel_draws(rng, (1000, 4, size)),
                            rng.choice(SPECIAL, (1000, 4, size))])
    for n, dt in ((1, 0.05), (2, 0.05), (2, 1e-3)):
        alpha, beta, delta = step_coefficients(n, dt)
        for u, r, u_nm1, u_nm2 in draws:
            beta_u_nm1, delta_u_nm2 = beta * u_nm1, delta * u_nm2
            expected = (alpha * u + r + beta_u_nm1 + delta_u_nm2).tolist()
            for extended in (_extended_residual, float_kernels(size).extended_residual):
                got = extended(FixedResidual(r.tolist()), u.tolist(), None, 0.0, alpha,
                               beta_u_nm1.tolist(), delta_u_nm2.tolist())
                assert same_floats(got, expected)


@dataclass(frozen=True)
class SignedZeroDesignVanDerPol(VanDerPol):
    """Van der Pol whose design enters nothing: its design Jacobian is +0.0
    and its output's design gradient -0.0, so every design derivative term
    is a signed zero and the running sums show where they start."""

    def jacobian_design(self, u, sigma, t=0.0):
        return np.zeros(np.shape(u) + (self.n_design,))

    def output_design_gradient(self, u, sigma):
        return np.full(np.shape(u)[:-1] + (self.n_design,), -0.0)


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_running_derivative_starts_at_positive_zero(dtau):
    # as np.zeros starts the sum: +0.0 - 0.0 + -0.0 stays +0.0, while a sum
    # started at -0.0 would stay -0.0
    from test_reference_march import reference_adjoint

    from lcowind.adjoint import AdjointMode, adjoint_sweep
    from lcowind.windows import Window

    model, sigma = SignedZeroDesignVanDerPol(), np.array([1.2])
    grid = TimeGrid(dt=0.05, n_steps=60)
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    traj = simulate(model, sigma, grid, cfg)
    for mode in AdjointMode:
        sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg, mode)
        expected = reference_adjoint(model, sigma, traj.states, grid, Window.HANN, cfg, mode)[1]
        assert same_bits(sweep.running_design_derivative, expected)
        assert same_bits(sweep.design_derivative, expected[0])
        assert not np.signbit(sweep.running_design_derivative).any()
