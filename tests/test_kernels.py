"""The models' per-step methods and the step solve, pinned bit for bit.

The reference march in test_reference_march.py calls the models' own
methods, so it cannot see a change in a model formula.  Here each method
is compared, on thousands of seeded states, designs and times, with the
numpy-array form it was first written in: the state and the design read
through np.asarray, every product taken on numpy scalars.  The methods
that also take a stack of states must return the stack of their
single-state results, and the per-step ones the same result for a list of
floats as for an array.  The solve of the any-size oracle kernels in
tests/any_size_kernels.py, _solver's, is compared with np.linalg.solve;
the float step kernels are pinned further down.  All must agree in every
bit.  _solver solves through np.linalg.solve itself, so that pin holds on
any LAPACK build.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import any_size_kernels as oracle
import numpy as np
import pytest

from lcowind.errors import AdjointDivergenceError, SingularStepError
from lcowind.models import AnalyticSignal, ForcedOscillator, OutputKind, VanDerPol, bind
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate

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
    def omega(sigma):
        return 2.0 * np.pi / model.period(sigma)

    def residual(u, sigma, t):
        u = _state(u)
        return np.array([-omega(sigma) * u[1], omega(sigma) * u[0]])

    def jacobian_state(u, sigma, t):
        return np.array([[0.0, -omega(sigma)], [omega(sigma), 0.0]])

    def jacobian_design(u, sigma, t):
        u, sigma = _state(u), _design(sigma)
        domega = -2.0 * np.pi * model.base_period / model.period(sigma) ** 2
        jac = np.zeros((2, len(sigma)))
        jac[0, 0] = -domega * u[1]
        jac[1, 0] = domega * u[0]
        return jac

    def output_value(u, sigma):
        return model.mean(sigma) + _state(u)[0]

    def output_state_gradient(u, sigma):
        return np.array([1.0, 0.0])

    def output_design_gradient(u, sigma):
        return model.mean_design_gradient(sigma)

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
    "analytic-signal": (AnalyticSignal(
        a0=1.0, a1=np.array([0.5]), amplitude=0.3, quad=0.8,
        quad_center=np.array([0.1])), analytic_signal, (-0.9, 2.0), 1),
    "analytic-signal-2": (AnalyticSignal(
        a0=-0.4, a1=np.array([0.5, -1.2]), amplitude=0.7, base_period=2.5, quad=3.0,
        quad_center=np.array([0.1, -0.3])), analytic_signal, (-0.9, 2.0), 2),
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


@pytest.mark.parametrize("size", [1, 2])
def test_solver_matches_numpy_solve_bit_for_bit(size):
    rng = np.random.default_rng(size * 10)
    for _ in range(N_DRAWS):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        matrix = rng.standard_normal((size, size)) * scale
        # the chord solves several right-hand sides with one matrix
        rhs_list = rng.standard_normal((3, size)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1))
        # the adjoint solves with the transposes of step matrices
        for system in (matrix, matrix.T):
            solve = oracle._solver(system.ravel().tolist())
            for rhs in rhs_list:
                got = solve(rhs.tolist())
                assert isinstance(got, list)
                assert same_bits(np.array(got), np.linalg.solve(system, rhs)), (system, rhs)


def test_solver_raises_on_singular_matrix():
    rhs = np.ones(2)
    for matrix in (np.zeros((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]]),
                   np.array([[np.nan, 1.0], [1.0, 1.0]])):
        # np.linalg.solve refuses each of these too
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(matrix, rhs)
        # the singular system is found at the first solve
        solve = oracle._solver(matrix.ravel().tolist(), 5)
        with pytest.raises(SingularStepError) as excinfo:
            solve(rhs.tolist())
        assert excinfo.value.step == 5


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
# The march, the tangent and the adjoint's reverse loop do their small
# linear algebra on Python floats, each operation one IEEE rounding with no
# fused multiply-add, in the order README states: the two-state solve,
# written out in _march2 and _reverse2 and pinned here through one
# Newton-limit step of _reverse2 against the reference solve2, the norm
# (_vector_norm, for every size) and the fixed-point iterate (one iterate
# of _reverse2 and of the oracle's list loop _reverse, for every size).
# Each is pinned to its stated formula twice:
# evaluated in exact rational arithmetic rounded once per operation, which
# does not depend on the machine, and, to reach NaN, infinities, signed
# zeros and subnormals, on numpy float64 scalars.  The two-state march is
# pinned to the oracle's list loop _march here, and the two-state reverse
# loop to its _reverse in tests/test_kernel_sets.py.  The solve is also
# held to LAPACK dgesv's accuracy and to its singular cases.
# A NaN result must be NaN on both sides; its sign bit is not pinned.

import itertools
import warnings
from fractions import Fraction

from scipy.linalg.lapack import dgesv

from lcowind import primal
from lcowind.primal import step_coefficients, step_matrices

N_KERNEL_DRAWS = 3000
NAN, INF = math.nan, math.inf
U = 2.0 ** -53  # the unit roundoff
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


def rounded(x: Fraction) -> Fraction:
    """x rounded once to the nearest double, kept as a Fraction; CPython
    rounds int / int correctly, subnormals too."""
    return Fraction(float(x))


def kernel_draws(rng, shape, decades=150.0):
    """Normal draws scaled by 10**k, k uniform in [-decades, decades]."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades, decades, shape)


def solve2_exact(entries, rhs):
    """The stated solve of a nonsingular 2x2 system, each operation exact
    and rounded once."""
    a11, a12, a21, a22 = map(Fraction, entries)
    b1, b2 = map(Fraction, rhs)
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    l = rounded(a21 / a11)
    u22 = rounded(a22 - rounded(l * a12))
    x2 = rounded(rounded(b2 - rounded(l * b1)) / u22)
    x1 = rounded(rounded(b1 - rounded(a12 * x2)) / a11)
    return [float(x1), float(x2)]


def factor2(entries, step=None):
    """The stated solve on numpy float64 scalars, split as the oracle's
    _solver splits it: the factoring of the 2x2 system with row-major
    entries, which raises SingularStepError for step where the system is
    singular, returns the solve of one right-hand side as a float list.
    The reference for the factors and the solve the two-state kernels
    write out."""
    a11, a12, a21, a22 = map(np.float64, entries)
    swap = abs(a21) > abs(a11)
    if swap:
        a11, a12, a21, a22 = a21, a22, a11, a12
    if a11 == 0.0:
        raise SingularStepError(step)
    l = a21 / a11
    u22 = a22 - l * a12
    if u22 == 0.0:
        raise SingularStepError(step)

    def solve(rhs):
        b1, b2 = map(np.float64, rhs[::-1] if swap else rhs)
        x2 = (b2 - l * b1) / u22
        return [float((b1 - a12 * x2) / a11), float(x2)]
    return solve


def solve2_float64(entries, rhs):
    """The stated solve through factor2; None where it is singular."""
    try:
        return factor2(entries)(rhs)
    except SingularStepError:
        return None


def solve2(entries, rhs, step=None):
    """The stated solve with the kernels' signature, through factor2."""
    return factor2(entries, step)(rhs)


def any_size_solve(entries, rhs, step=None):
    """The oracle's solve: _solver's, of one right-hand side."""
    return oracle._solver(entries, step)(rhs)


def kernel_solve(entries, rhs, step=None):
    """The solve the two-state kernels run: lambda of one Newton-limit step
    of _reverse2, which solves the system of the row-major entries, 0.0
    added to its diagonal; a SingularStepError is re-raised for step."""
    try:
        return primal._reverse2([[0.0, 0.0], rhs], [entries], 0.0, 0.0, 0.0, 0.0, 1)[3]
    except SingularStepError:
        raise SingularStepError(step) from None


def solve_or_singular(solve, entries, rhs):
    try:
        return solve(entries, rhs, 9)
    except SingularStepError as exc:
        assert exc.step == 9
        return None


def test_solve2_follows_the_stated_order():
    # normal systems whose solutions stay finite: each shares one scale in
    # 1e-100..1e100 with a spread of 1e3 within it
    rng = np.random.default_rng(4817)
    for _ in range(N_KERNEL_DRAWS):
        entries, rhs = ((rng.standard_normal(size) * 10.0 ** rng.uniform(-100.0, 100.0)
                         * 10.0 ** rng.uniform(-3.0, 3.0, size)).tolist() for size in (4, 2))
        assert same_floats(kernel_solve(entries, rhs), solve2_exact(entries, rhs)), \
            (entries, rhs)


@np.errstate(all="ignore")
def test_solve2_follows_the_stated_order_on_special_values():
    # every 2x2 matrix of special values: zero, subnormal, infinite and NaN
    # pivots, and inf - inf
    for entries in itertools.product(SPECIAL, repeat=4):
        for rhs in ([1.0, -2.0], [NAN, 5e-324]):
            got = solve_or_singular(kernel_solve, list(entries), rhs)
            expected = solve2_float64(entries, rhs)
            assert got == expected is None or same_floats(got, expected), (entries, rhs)


def backward_error(matrix, rhs, x):
    """Normwise backward error |b - A x| / (|A| |x| + |b|) in the infinity
    norm, with the residual formed exactly."""
    a, b, x = ([[Fraction(v) for v in row] for row in matrix],
               [Fraction(v) for v in rhs], [Fraction(v) for v in x])
    residual = max(abs(b[i] - a[i][0] * x[0] - a[i][1] * x[1]) for i in range(2))
    scale = max(abs(row[0]) + abs(row[1]) for row in a) * max(map(abs, x)) + max(map(abs, b))
    return float(residual / scale)


def test_solve2_is_as_accurate_as_dgesv():
    # 10**4 systems with condition number at most 100, at scales 1e-100..1e100.
    # Measured: the largest backward error is about 1.2 U here and 1.4 U
    # for dgesv, and the solutions differ by at most about 2 cond U
    rng = np.random.default_rng(5233)
    systems = 0
    while systems < 10_000:
        matrix = rng.standard_normal((2, 2))
        cond = np.linalg.cond(matrix, np.inf)
        if cond > 100.0:
            continue
        systems += 1
        matrix = matrix * 10.0 ** rng.uniform(-100.0, 100.0)
        rhs = kernel_draws(rng, 2, 100.0)
        got = kernel_solve(matrix.ravel().tolist(), rhs.tolist())
        _, _, expected, info = dgesv(matrix, rhs)
        assert info == 0
        assert backward_error(matrix.tolist(), rhs.tolist(), got) <= 4.0 * U, (matrix, rhs)
        assert np.abs(np.subtract(got, expected)).max() \
            <= 8.0 * cond * U * np.abs(expected).max(), (matrix, rhs)


def test_solve2_is_singular_exactly_where_the_matrix_is():
    # every integer matrix with entries in -6..6: SingularStepError exactly
    # where the determinant is zero, which takes in every matrix for which
    # dgesv reports info > 0.  dgesv forms the multiplier with the pivot's
    # reciprocal and misses 16 of these singular matrices, [[-5, -5], [-3, -3]]
    # among them; the stated division finds every one
    for entries in itertools.product(map(float, range(-6, 7)), repeat=4):
        a11, a12, a21, a22 = entries
        singular = a11 * a22 == a12 * a21
        got = solve_or_singular(kernel_solve, list(entries), [1.0, -2.0])
        assert (got is None) == singular, entries
        if dgesv(np.array(entries).reshape(2, 2), np.array([1.0, -2.0]))[3] > 0:
            assert singular, entries


def norm_exact(r):
    """The stated norm: the squares summed left to right from 0.0, each
    operation exact and rounded once, and the correctly rounded root."""
    square = Fraction(0)
    for x in r:
        square = rounded(square + rounded(Fraction(x) ** 2))
    return math.sqrt(float(square))


def norm_float64(r):
    square = np.float64(0.0)
    for x in r:
        square = square + np.float64(x) * np.float64(x)
    return float(np.sqrt(square))


@pytest.mark.parametrize("size", [1, 2, 3])
@np.errstate(all="ignore")
def test_norms_follow_the_stated_order(size):
    norm = primal._vector_norm
    rng = np.random.default_rng(7411 + size)
    for r in kernel_draws(rng, (N_KERNEL_DRAWS, size)).tolist():
        assert same_float(norm(r), norm_exact(r)), r
    for r in itertools.product(SPECIAL, repeat=size):
        assert same_float(norm(list(r)), norm_float64(r)), r


@pytest.mark.parametrize("size", [2, 3])
def test_row_norms_are_the_vector_norm_of_each_row(size):
    # the stacked norm of the CLI's adjoint columns and the direct adjoint's
    # residual norms, bit for bit, with no warning where a square overflows
    rng = np.random.default_rng(7511 + size)
    # rows at one scale, where the order of the sum shows in the last bit
    rows = np.concatenate((np.array(list(itertools.product(SPECIAL, repeat=size))),
                           kernel_draws(rng, (N_KERNEL_DRAWS, size)),
                           rng.standard_normal((N_KERNEL_DRAWS, size))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = primal._row_norms(rows)
    expected = [primal._vector_norm(r) for r in rows.tolist()]
    assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))


def iterate_exact(lam, rhs, ubar, inv_dtau):
    """The stated iterate from lambda = M^{-T} ubar: row i r_i + inv_dtau
    lambda_i, and the norm of its change, each operation exact and rounded
    once."""
    updated = [rounded(Fraction(r) + rounded(Fraction(inv_dtau) * Fraction(x)))
               for r, x in zip(rhs, lam)]
    change = [float(rounded(y - Fraction(v))) for y, v in zip(updated, ubar)]
    return list(map(float, updated)), norm_exact(change)


def iterate_float64(lam, rhs, ubar, inv_dtau):
    updated = [np.float64(r) + np.float64(inv_dtau) * np.float64(x) for r, x in zip(rhs, lam)]
    return (list(map(float, updated)),
            norm_float64([y - np.float64(v) for y, v in zip(updated, ubar)]))


def check_iterate(expected, got, where):
    updated, norm = got
    want_updated, want_norm = expected
    assert same_floats(updated, want_updated), where
    assert same_float(norm, want_norm), where


def m_rows_of(a_rows, inv_dtau):
    """The row-major entries of M^T = A^T + inv_dtau I from A^T's, as the
    reverse loops form them: a_ii + inv_dtau on the diagonal, the entries
    off it as given."""
    size = math.isqrt(len(a_rows))
    return [a + inv_dtau if i % (size + 1) == 0 else a for i, a in enumerate(a_rows)]


def reverse_iterate(reverse, a_rows, rhs, ubar, inv_dtau):
    """The first fixed-point iterate of the reverse loop reverse at step 1,
    given A_1^T's rows and warm-started from ubar, and its change's norm;
    None and the norm where a NaN norm stops the loop, and None twice where
    M_1 is singular.  Step 2 iterates once from the zero warm start with
    ubar as its seed: an A_2 whose M_2 = A_2 + inv_dtau I is diagonal with
    ubar's signs makes that start's lambda zeros with ubar's signs, which
    leave the seed's bits, and lambda_2 nonnegative, so with beta = 0 step
    1's right-hand side is rhs itself."""
    size = len(rhs)
    a_2 = np.diag([math.copysign(1.0 + 2.0 * inv_dtau, x) - inv_dtau for x in ubar])
    try:
        states, iterations, norms, _ = reverse([[0.0] * size, rhs, ubar],
                                               [a_rows, a_2.ravel().tolist()], inv_dtau,
                                               0.0, 0.0, INF, 1)
    except AdjointDivergenceError as exc:
        assert (exc.step, exc.iterations) == (1, 1)
        return None, exc.residual_norm
    except SingularStepError as exc:
        assert exc.step == 1
        return None, None
    assert iterations[1:] == [1, 1] and same_floats(states[2 * size:], ubar)
    return states[size:2 * size], norms[1]


@pytest.mark.parametrize("kernel, size", [("two-state", 2), ("any-size", 1), ("any-size", 2),
                                          ("any-size", 3)])
@np.errstate(all="ignore")
def test_fixed_point_iterate_follows_the_stated_order(kernel, size):
    # one iterate ubar <- rhs + inv_dtau lambda, lambda = M^{-T} ubar from
    # the warm start ubar, run through the reverse loop itself: _reverse2,
    # whose lambda is the stated solve, or the oracle's _reverse, whose
    # lambda is its _solver's, each of the M^T it forms from A^T.  A NaN
    # norm stops the loop before its iterate is kept
    reverse = primal._reverse2 if kernel == "two-state" else oracle._reverse

    def solved(m_rows, ubar, exact):
        if kernel == "any-size":
            return solve_or_singular(any_size_solve, m_rows, ubar)
        return solve2_exact(m_rows, ubar) if exact else solve2_float64(m_rows, ubar)

    def check(a_rows, rhs, ubar, inv_dtau, exact):
        where = (a_rows, rhs, ubar, inv_dtau)
        lam = solved(m_rows_of(a_rows, inv_dtau), ubar, exact)
        updated, norm = reverse_iterate(reverse, a_rows, rhs, ubar, inv_dtau)
        if lam is None:
            assert updated is None and norm is None, where
            return None
        expected = (iterate_exact if exact else iterate_float64)(lam, rhs, ubar, inv_dtau)
        if updated is None:
            assert math.isnan(norm) and math.isnan(expected[1]), where
        else:
            check_iterate(expected, (updated, norm), where)
        return expected

    rng = np.random.default_rng(8101 + size + 4 * (kernel == "two-state"))
    for _ in range(N_KERNEL_DRAWS):
        a_rows, rhs, ubar = (kernel_draws(rng, shape, 70.0).tolist()
                             for shape in (size * size, size, size))
        check(a_rows, rhs, ubar, 10.0 ** rng.uniform(-3.0, 3.0), exact=True)
    # special values: every A^T of the first eight for one and two states,
    # and draws of them for three, with signed-zero warm starts; an r_i =
    # -0.0 plus an inv_dtau lambda_i = -0.0 stays -0.0, which a sum started
    # from 0.0 would turn into 0.0.  At inv_dtau = 1.5, a_ii = -1.5 puts a
    # zero on M's diagonal, so some of these M are singular
    matrices = (itertools.product(SPECIAL[:8], repeat=size * size) if size < 3
                else rng.choice(SPECIAL, (2000, size * size)).tolist())
    rhs = [-0.0, 0.5, -0.0][:size]
    negative_zeros = singular = 0
    for a_rows in matrices:
        for ubar in ([1.0, -2.0, 3.0], [0.0, -0.0, 0.0], [-0.0] * 3, [1e300, 1e-300, -1e300]):
            expected = check(list(a_rows), rhs, ubar[:size], 1.5, exact=False)
            negative_zeros += expected is not None and same_float(expected[0][0], -0.0)
            singular += expected is None
    assert negative_zeros > 0 and singular > 0


# --- which Jacobian the march reads ---------------------------------------

@dataclass(frozen=True)
class ScaledJacobianVanDerPol(VanDerPol):
    """Van der Pol whose state Jacobian is 1.5 times the true one, written
    only as a jacobian_state override: the march must read it, not the float
    entries VanDerPol writes, and so converge along another path."""

    def jacobian_state(self, u, sigma, t=0.0):
        return 1.5 * super().jacobian_state(u, sigma, t)


def assert_sweeps_match_reference(model, sigma, grid, cfg):
    from test_reference_march import reference_adjoint, reference_simulate, reference_tangent

    from lcowind.adjoint import AdjointMode, adjoint_sweep, contraction_estimates
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
               sweep.residual_norms, contraction_estimates(sweep.steps, cfg))
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


@dataclass(frozen=True)
class ResidualCountingVanDerPol(VanDerPol):
    """Van der Pol that overrides only residual, with VanDerPol's formula,
    and counts its calls, the calls of _bound and those of the Jacobian
    _bound returns: the march must read the residual through the method
    and the Jacobian from one binding."""

    calls: Counter = field(default_factory=Counter, compare=False)

    def residual(self, u, sigma, t=0.0):
        self.calls["residual"] += 1
        x, v = u
        mu = float(sigma[0])
        return [-v, -mu * (1.0 - x * x) * v + x]

    def _bound(self, sigma):
        self.calls["_bound"] += 1
        jacobian = super()._bound(sigma)[1]

        def counted(x, v, t):
            self.calls["bound jacobian"] += 1
            return jacobian(x, v, t)
        return None, counted  # no residual: the march must call the method


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_a_residual_override_wins(dtau):
    sigma = np.array([1.2])
    grid = TimeGrid(dt=0.05, n_steps=120, n_transient=20)
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    model = ResidualCountingVanDerPol()
    traj = simulate(model, sigma, grid, cfg)
    # one residual at each step's predictor and one per inner iterate,
    # through the method; from one binding, one Jacobian per inner iterate
    # in the Newton limit, and one per step that iterates at a finite dtau
    inner = int(traj.inner_iterations.sum())
    jacobians = inner if math.isinf(dtau) else int((traj.inner_iterations > 0).sum())
    assert model.calls == Counter({"residual": grid.n_steps + inner, "_bound": 1,
                                   "bound jacobian": jacobians})
    assert same_bits(traj.states, simulate(VanDerPol(), sigma, grid, cfg).states)
    assert_sweeps_match_reference(model, sigma, grid, cfg)


@dataclass(frozen=True)
class SignedZeroJacobianVanDerPol(VanDerPol):
    """Van der Pol whose state Jacobian has -0.0 off its diagonal."""

    def jacobian_state(self, u, sigma, t=0.0):
        jacobian = super().jacobian_state(u, sigma, t)
        jacobian[0, 1] = -0.0
        return jacobian


@pytest.mark.parametrize("model", [SignedZeroJacobianVanDerPol(), VanDerPol()],
                         ids=["signed-zero", "vdp"])
def test_step_matrices_equal_the_array_sum(model):
    # alpha * np.eye(d_u) + J: off the diagonal 0.0 + J_ij, which turns -0.0 into 0.0
    sigma = np.array([0.4])
    grid = TimeGrid(dt=0.05, n_steps=40)
    traj = simulate(model, sigma, grid)
    expected = [step_coefficients(n, grid.dt)[0] * np.eye(model.d_u)
                + model.jacobian_state(u, sigma, n * grid.dt)
                for n, u in enumerate(traj.states[1:], start=1)]
    assert same_bits(step_matrices(model, sigma, traj), np.stack(expected))


@pytest.mark.parametrize("name", MODELS)
def test_the_bound_closures_take_two_floats_and_return_tuples(name):
    # the protocol of bind: residual(x, v, t) -> (r0, r1) and jacobian(x, v,
    # t) -> (j11, j12, j21, j22), floats whose bits are those of the
    # methods' results, the Jacobian's row-major
    model, _, (low, high), n_design = MODELS[name]
    rng = np.random.default_rng(35)
    sigma = rng.uniform(low, high, n_design)
    residual, jacobian = bind(model, sigma)
    for t in (0.0, 0.05, 1.7, 42.25):
        x, v = (rng.standard_normal(2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)).tolist()
        r, j = residual(x, v, t), jacobian(x, v, t)
        assert type(r) is tuple and len(r) == 2 and type(j) is tuple and len(j) == 4
        assert all(type(entry) is float for entry in r + j), (r, j)
        assert same_bits(r, model.residual([x, v], sigma, t)), (x, v, t)
        assert same_bits(j, model.jacobian_state([x, v], sigma, t).ravel()), (x, v, t)


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
@pytest.mark.parametrize("name", MODELS)
def test_the_march_and_the_step_matrices_call_the_closures_on_floats(name, dtau, monkeypatch):
    # every call of a bound closure receives the two state floats and the
    # time, so neither the march nor step_matrices builds a list or an
    # array per call
    model, _, (low, high), n_design = MODELS[name]
    sigma = np.full(n_design, 0.5 * (low + high))
    calls = Counter()

    def recorded(closure, what):
        def call(*args):
            calls[what, tuple(type(arg) for arg in args)] += 1
            return closure(*args)
        return call

    def recording_bind(model, sigma):
        residual, jacobian = bind(model, sigma)
        return recorded(residual, "residual"), recorded(jacobian, "jacobian")

    monkeypatch.setattr(primal, "bind", recording_bind)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=40),
                    PseudoTimeConfig(dtau=dtau, max_inner=200))
    step_matrices(model, sigma, traj)
    floats = (float, float, float)
    assert set(calls) == {("residual", floats), ("jacobian", floats)}
    assert calls["jacobian", floats] >= traj.n_steps


@pytest.mark.parametrize("dtau", [INF, 1.0, 0.3], ids=["dtau=inf", "dtau=1", "dtau=0.3"])
@np.errstate(all="ignore")
@pytest.mark.parametrize("size", [1, 2, 3])
def test_step_entries_equal_the_array_sum(size, dtau):
    # the oracle march's step matrix, alpha I + J + inv_dtau I summed as
    # arrays: -0.0 off the diagonal becomes 0.0, and any special value
    # passes as numpy adds it
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
            assert same_floats(oracle._step_entries(jacobian.tolist(), alpha, inv_dtau),
                               expected)


def fixed_residual(values):
    """A stand-in bound residual that returns a given list, whatever the
    state's entries and the time it is called on."""
    return lambda *state_and_time: values


def march_or_singular(march, *args):
    try:
        return march(*args)
    except SingularStepError as exc:
        return "singular", exc.step


@np.errstate(all="ignore")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtau", [INF, 1.0], ids=["dtau=inf", "dtau=1"])
def test_two_state_march_matches_the_general_form(dtau, monkeypatch):
    # three-step marches with a budget of one update per step, and one of
    # two, from drawn initial states, residuals and Jacobian entries, with
    # tol = 0.0 so every step spends its budget and goes on unconverged: the
    # two-state march writes out the oracle _march's predictor, extended
    # residual, _step_entries, the factors, the solve and the norm, so it is
    # _march with the stated factor2 as its factoring, and it reads the
    # Jacobian as often.  Step 1 is BDF1 and step 2 BDF2 from u_{n-1}; step
    # 3 starts from the predictor; with two updates the second reuses the
    # first's factors at a finite dtau.  A singular step raises at the same step in
    # both, and neither kernel warns.  A -0.0 in the residual shows the
    # sign of a zero off the diagonal, which a march never shows
    monkeypatch.setattr(oracle, "_solver", factor2)
    inv_dtau = PseudoTimeConfig(dtau=dtau).inv_dtau
    rng = np.random.default_rng(20)
    draws = np.concatenate([kernel_draws(rng, (3000, 8)), rng.choice(SPECIAL, (3000, 8))])
    # the drawn Jacobians make only step 1 singular; these two make step 2's
    # matrix, (30 + J_ii) + inv_dtau on its diagonal, [[0, 5], [0, 0]] and
    # [[1, 1], [1, 1]]
    shift = -30.0 - inv_dtau
    step2_singular = [[1.0, -0.5, shift, 5.0, 0.0, shift, 0.3, -0.2],
                      [1.0, -0.5, shift + 1.0, 1.0, 1.0, shift + 1.0, 0.3, -0.2]]
    for max_inner in (1, 2):
        for row in draws.tolist() + step2_singular:
            entries, calls = row[2:6], Counter()

            def jacobian(kernel):
                calls[kernel] += 1
                return entries

            results = [march_or_singular(kernel, fixed_residual(row[6:8]),
                                         lambda x, v, t: jacobian(kernel), row[:2], 0.05, 3,
                                         inv_dtau, 0.0, max_inner, True)
                       for kernel in (primal._march2, oracle._march)]
            got, expected = results
            assert calls[primal._march2] == calls[oracle._march], row
            if expected[0] == "singular":
                assert got == expected, row
            else:
                assert same_floats(got[0], expected[0]) and got[1] == expected[1], row
                assert same_floats(got[2], expected[2]), row
        for row in step2_singular:
            args = (fixed_residual(row[6:8]), lambda x, v, t: row[2:6], row[:2], 0.05, 3, inv_dtau,
                    0.0, max_inner, True)
            assert march_or_singular(primal._march2, *args) == ("singular", 2), row


@np.errstate(all="ignore")
@pytest.mark.parametrize("size", [1, 2, 3])
def test_extended_residuals_match_the_formula(size):
    # alpha u_n + R + beta u_{n-1} + delta u_{n-2}, summed left to right on
    # numpy scalars, in the oracle; the two-state step writes the same sums
    # out, and tests/test_stopping.py holds it to this form over whole marches
    rng = np.random.default_rng(10 + size)
    draws = np.concatenate([kernel_draws(rng, (1000, 4, size)),
                            rng.choice(SPECIAL, (1000, 4, size))])
    for n, dt in ((1, 0.05), (2, 0.05), (2, 1e-3)):
        alpha, beta, delta = step_coefficients(n, dt)
        for u, r, u_nm1, u_nm2 in draws:
            beta_u_nm1, delta_u_nm2 = beta * u_nm1, delta * u_nm2
            expected = (alpha * u + r + beta_u_nm1 + delta_u_nm2).tolist()
            got = oracle._extended_residual(fixed_residual(r.tolist()), u.tolist(), 0.0,
                                            alpha, beta_u_nm1.tolist(), delta_u_nm2.tolist())
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
