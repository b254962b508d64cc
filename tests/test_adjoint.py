"""Tests for the discrete adjoint sweep and its diagnostics."""

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import any_size_kernels as oracle
import numpy as np
import pytest
from test_kernels import solve2

from lcowind import primal
from lcowind.adjoint import AdjointMode, adjoint_sweep, contraction_estimates
from lcowind.analysis import windowed_average
from lcowind.errors import AdjointDivergenceError, SingularStepError
from lcowind.models import AnalyticSignal, ForcedOscillator, OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate, step_matrices
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import NormalizationMode, Window, discrete_weights


@dataclass(frozen=True)
class StiffDecayModel:
    """du/dt - 10 u = 0 in the first state, beside a decoupled second state
    dv/dt + v = 0 that starts at zero and that neither the design nor the
    output reads; linear, so Newton converges in one solve.  The second
    state's regular diagonal and exact zeros leave every norm and every
    step that fails where the first state alone puts it."""

    name = "stiff-decay"
    d_u = 2
    n_design = 1

    def initial_state(self):
        return np.array([1.0, 0.0])

    def residual(self, u, sigma, t=0.0):
        return np.array([-10.0 * u[0], u[1]])

    def jacobian_state(self, u, sigma, t=0.0):
        return np.array([[-10.0, 0.0], [0.0, 1.0]])

    def jacobian_design(self, u, sigma, t=0.0):
        jac = np.zeros(np.shape(u) + (1,))
        jac[..., 0, 0] = 1.0
        return jac

    def output_value(self, u, sigma):
        return u[..., 0].copy()

    def output_state_gradient(self, u, sigma):
        grad = np.zeros(np.shape(u))
        grad[..., 0] = 1.0
        return grad

    def output_design_gradient(self, u, sigma):
        return np.zeros(np.shape(u)[:-1] + (1,))


def make_vdp_setup(n_steps=300, n_transient=60, cfg=None):
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    grid = TimeGrid(dt=0.05, n_steps=n_steps, n_transient=n_transient)
    return model, sigma, simulate(model, sigma, grid, cfg)


def test_seed_zero_before_cutoff_and_at_endpoints():
    model, sigma, traj = make_vdp_setup(n_steps=40, n_transient=10)
    seeds = adjoint_sweep(model, sigma, traj, Window.HANN).seeds
    assert np.all(seeds[5] == 0.0)
    # window endpoints carry zero weight
    assert np.all(seeds[10] == 0.0)
    assert np.all(seeds[40] == 0.0)


def test_seed_interior_value():
    model, sigma, traj = make_vdp_setup(n_steps=40, n_transient=10)
    n = 25
    omega = discrete_weights(Window.HANN, 10, 40)[n - 10] / 30
    expected = omega * model.output_state_gradient(traj.states[n], sigma)
    assert np.allclose(adjoint_sweep(model, sigma, traj, Window.HANN).seeds[n],
                       expected, rtol=1e-15)


DUALITY_MODELS = {
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED),
                       np.array([1.0])),
    "forced-oscillator-x2": (ForcedOscillator(output=OutputKind.FIRST_STATE_SQUARED),
                             np.array([0.1])),
    "analytic-signal": (AnalyticSignal(
        a0=1.0, a1=np.array([0.5]), amplitude=0.3, quad=0.8,
        quad_center=np.array([0.1])), np.array([0.2])),
}
DUALITY_SOLVES = [(math.inf, AdjointMode.FIXED_POINT), (1.0, AdjointMode.FIXED_POINT),
                  (1.0, AdjointMode.DIRECT)]


def _duality_cases():
    cases = []
    for name in DUALITY_MODELS:
        for normalization in NormalizationMode:
            for dtau, mode in DUALITY_SOLVES:
                for window in Window:
                    first = (name == "van-der-pol-x2" and math.isinf(dtau)
                             and normalization is NormalizationMode.PAPER_FAITHFUL)
                    # the Newton-limit Van der Pol cases keep their original ids
                    case_id = (str(window) if first else
                               f"{name}-{normalization.value}-dtau={dtau:g}-"
                               f"{mode.value}-{window.value}")
                    cases.append(pytest.param(name, normalization, dtau, mode,
                                              window, id=case_id))
    return cases


@pytest.fixture(scope="module")
def duality_run():
    """One trajectory and tangent per (model, dtau), shared by the cases."""
    runs = {}

    def run(name, dtau):
        if (name, dtau) not in runs:
            model, sigma = DUALITY_MODELS[name]
            cfg = PseudoTimeConfig(dtau, tol=1e-13, max_inner=200)
            traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=300, n_transient=60),
                            cfg)
            runs[name, dtau] = cfg, traj, tangent_sweep(model, sigma, traj)
        return runs[name, dtau]
    return run


@pytest.mark.parametrize("name, normalization, dtau, mode, window", _duality_cases())
def test_adjoint_equals_tangent_sensitivity(duality_run, name, normalization,
                                            dtau, mode, window):
    # discrete duality: both routes differentiate the same finite sum, so
    # they must agree to roundoff, not merely to discretization error.  At
    # finite dtau the adjoint is iterated to 5e-15 instead of solved exactly.
    model, sigma = DUALITY_MODELS[name]
    cfg, traj, tangent = duality_run(name, dtau)
    t_val = windowed_tangent_sensitivity(tangent, window, 60, 300, normalization)
    a_val = adjoint_sweep(model, sigma, traj, window, cfg, mode, normalization,
                          tol=5e-15).design_derivative
    rel = 1e-12 if math.isinf(dtau) else 1e-10
    assert a_val[0] == pytest.approx(t_val[0], rel=rel)


def test_adjoint_matches_finite_differences():
    model, sigma, traj = make_vdp_setup()
    grid = traj.grid
    h = 1e-6

    def objective(mu):
        tr = simulate(model, np.array([mu]), grid)
        return windowed_average(tr.outputs, Window.HANN, 60, 300)

    fd = (objective(1.0 + h) - objective(1.0 - h)) / (2 * h)
    a_val = adjoint_sweep(model, sigma, traj, Window.HANN).design_derivative[0]
    assert a_val == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("dtau", [0.3, 1.0, 100.0, 1e6],
                         ids=["dtau=0.3", "dtau=1", "dtau=100", "dtau=1e6"])
def test_the_chord_keeps_the_derivatives_where_it_iterates_most(dtau):
    # at a finite dtau each step keeps the Jacobian of its first iterate,
    # and Van der Pol at mu = 2 with dt = 0.2 moves it most within a step:
    # at dtau = 100 and 1e6 the chord takes more than twice Newton's inner
    # iterations.  The march still stops on the same tolerance, and the
    # sweeps linearize at its converged states, so the tangent equals both
    # adjoint modes to roundoff, matches finite differences, and equals the
    # Newton march's tangent to the march's tolerance
    model, sigma = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), np.array([2.0])
    grid = TimeGrid(dt=0.2, n_steps=300, n_transient=60)
    cfg = PseudoTimeConfig(dtau, tol=1e-13, max_inner=200)
    traj = simulate(model, sigma, grid, cfg)
    newton = simulate(model, sigma, grid, PseudoTimeConfig(tol=1e-13, max_inner=200))
    assert traj.converged.all()
    if dtau >= 100.0:
        assert traj.inner_iterations.sum() > 2 * newton.inner_iterations.sum()

    def tangent(march):
        return windowed_tangent_sensitivity(tangent_sweep(model, sigma, march), Window.BUMP,
                                            60, 300)[0]

    t_val = tangent(traj)
    assert t_val == pytest.approx(tangent(newton), rel=1e-10)
    for mode in AdjointMode:
        a_val = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg, mode,
                              tol=5e-15).design_derivative[0]
        assert a_val == pytest.approx(t_val, rel=1e-10), mode
    h = 1e-6

    def objective(mu):
        return windowed_average(simulate(model, np.array([mu]), grid, cfg).outputs,
                                Window.BUMP, 60, 300)

    assert t_val == pytest.approx((objective(2.0 + h) - objective(2.0 - h)) / (2 * h), rel=1e-6)


def test_fixed_point_and_direct_modes_agree():
    cfg = PseudoTimeConfig(dtau=1.0, tol=1e-13, max_inner=200)
    model, sigma, traj = make_vdp_setup(cfg=cfg)
    fp = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg, tol=5e-15)
    direct = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg,
                           mode=AdjointMode.DIRECT, tol=5e-15)
    assert fp.design_derivative[0] == pytest.approx(direct.design_derivative[0],
                                                    rel=1e-10)
    # the fixed point iterates, the direct mode solves once per step
    assert fp.inner_iterations[1:].min() >= 1
    assert np.all(direct.inner_iterations[1:] == 1)
    # on this march every step's contraction estimate is below one; that
    # need not hold (see the test below)
    estimates = contraction_estimates(fp.steps, cfg)
    assert estimates[1:].max() < 1.0
    assert estimates[1:].max() > 0.0


def test_contraction_estimate_may_exceed_one_where_the_iteration_converges():
    # the estimate is the iteration matrix's 2-norm, inv_dtau / sigma_min(M_n),
    # which bounds its spectral radius from above.  On this stiff Van der Pol
    # every step of the march converges and so does the fixed-point sweep,
    # which matches the tangent, yet one step's estimate is about 1.038
    model, sigma = VanDerPol(), np.array([8.0])
    cfg = PseudoTimeConfig(dtau=0.1, max_inner=500)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=200, n_transient=20), cfg)
    assert traj.converged.all() and traj.inner_iterations.max() <= 28
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg)
    estimates = contraction_estimates(sweep.steps, cfg)
    assert np.flatnonzero(estimates > 1.0).tolist() == [151]
    assert estimates[151] == pytest.approx(1.038, abs=5e-4)
    assert np.all(sweep.residual_norms <= cfg.tol)
    m_mat = sweep.steps[150] + cfg.inv_dtau * np.eye(2)
    assert cfg.inv_dtau * np.abs(1.0 / np.linalg.eigvals(m_mat)).max() < 1.0
    tangent = windowed_tangent_sensitivity(tangent_sweep(model, sigma, traj), Window.HANN,
                                           20, 200)
    assert sweep.design_derivative[0] == pytest.approx(tangent[0], rel=1e-10)


@pytest.mark.parametrize("name", DUALITY_MODELS)
def test_contraction_is_the_iteration_matrix_norm(name):
    # M_n - A_n = I / dtau makes (I - M_n^{-1} A_n)^T = inv_dtau M_n^{-T}, so
    # the estimate inv_dtau / sigma_min(M_n) is that matrix's 2-norm
    model, sigma = DUALITY_MODELS[name]
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=120, n_transient=20))
    for dtau in (1.0, 0.3):
        cfg = PseudoTimeConfig(dtau)
        steps = adjoint_sweep(model, sigma, traj, Window.HANN, cfg).steps
        m_mats = steps + cfg.inv_dtau * np.eye(model.d_u)
        iteration = np.swapaxes(np.eye(model.d_u) - np.linalg.solve(m_mats, steps), 1, 2)
        assert np.allclose(iteration, cfg.inv_dtau * np.linalg.inv(m_mats).swapaxes(1, 2),
                           rtol=1e-13, atol=1e-15)
        estimates = contraction_estimates(steps, cfg)
        assert estimates[0] == 0.0
        assert np.allclose(estimates[1:], np.linalg.norm(iteration, 2, axis=(1, 2)),
                           rtol=1e-13, atol=0.0)


def test_newton_limit_shortcut():
    model, sigma, traj = make_vdp_setup(n_steps=60, n_transient=10)
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN)
    assert np.all(sweep.inner_iterations[1:] == 1)
    assert np.all(sweep.residual_norms == 0.0)
    assert np.all(contraction_estimates(sweep.steps, PseudoTimeConfig()) == 0.0)


def test_single_step_span_gives_exact_zero():
    # a one-step span touches only the two window endpoints, both zero, so
    # nothing seeds the adjoint and the derivative is exactly zero
    model = AnalyticSignal(a0=1.0, a1=np.array([0.5]), amplitude=0.3)
    sigma = np.array([0.2])
    grid = TimeGrid(dt=0.05, n_steps=6, n_transient=5)
    traj = simulate(model, sigma, grid)
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN)
    assert np.all(sweep.seeds == 0.0)
    assert np.all(sweep.adjoint_states == 0.0)
    assert np.all(sweep.design_derivative == 0.0)


def test_divergent_fixed_point_raises():
    # dt = 1 makes A = 1.5 - 10 = -8.5; with dtau = 0.2 the shifted matrix is
    # -3.5 and the iteration factor 1 - A/M has magnitude about 1.43
    model = StiffDecayModel()
    sigma = np.array([0.0])
    grid = TimeGrid(dt=1.0, n_steps=4, n_transient=1)
    traj = simulate(model, sigma, grid)
    bad = PseudoTimeConfig(dtau=0.2, tol=1e-12, max_inner=40)
    with pytest.raises(AdjointDivergenceError) as excinfo:
        adjoint_sweep(model, sigma, traj, Window.HANN, cfg=bad)
    assert excinfo.value.contraction > 1.0
    assert excinfo.value.iterations == 40
    # the budget's error carries the last exact residual, bit for bit
    error = excinfo.value
    assert (error.step, error.iterations, error.residual_norm, error.contraction) \
        == (3, 40, 549726.2098820935, 1.4285714285714286)


def test_growing_fixed_point_raises_before_the_budget():
    # with 1/dtau = 9.4 the shifted matrix is 0.9 and the iteration factor
    # about 10.44: the second residual is more than ten times the first and
    # above 1, which stops the sweep at its second iteration
    model = StiffDecayModel()
    sigma = np.array([0.0])
    traj = simulate(model, sigma, TimeGrid(dt=1.0, n_steps=4, n_transient=1))
    growing = PseudoTimeConfig(dtau=1.0 / 9.4, tol=1e-12, max_inner=40)
    with pytest.raises(AdjointDivergenceError) as excinfo:
        adjoint_sweep(model, sigma, traj, Window.HANN, cfg=growing)
    error = excinfo.value
    assert (error.step, error.iterations, error.residual_norm, error.contraction) \
        == (3, 2, 5.222222222222221, 10.444444444444441)


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_fixed_point_step_reproduces_the_sweeps_state(dtau):
    # the window's zero weight at the last step leaves its adjoint state
    # zero, so the step before it couples to nothing: its rhs is its seed,
    # and the fixed-point mode warm-starts it from the last step's state
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    model, sigma, traj = make_vdp_setup(n_steps=80, n_transient=20, cfg=cfg)
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg)
    assert not sweep.adjoint_states[-1].any()
    n, steps = traj.n_steps - 1, sweep.steps
    rhs = sweep.seeds[n].tolist()
    m_mat = steps[n - 1] + cfg.inv_dtau * np.eye(model.d_u)
    m_rows = m_mat.T.ravel().tolist()

    def iterate(ubar):
        # one fixed-point iterate r_i + inv_dtau lambda_i, lambda = M_n^{-T}
        # ubar, and the norm of its change
        lam = solve2(m_rows, ubar, n)
        updated = [r + cfg.inv_dtau * x for r, x in zip(rhs, lam)]
        c0, c1 = (y - x for y, x in zip(updated, ubar))
        return updated, math.sqrt(c0 * c0 + c1 * c1)

    if math.isinf(dtau):
        # the reverse kernel copies the Newton limit's fixed-point state, its rhs
        ubar, iterations, norm = list(rhs), 1, 0.0
    else:
        # the fixed-point loop, warm-started from the last step's state
        ubar, iterations = sweep.adjoint_states[n + 1].tolist(), 0
        while True:
            ubar, norm = iterate(ubar)
            iterations += 1
            if norm <= cfg.tol or iterations == cfg.max_inner:
                break
    contraction = 0.0 if math.isinf(dtau) else \
        cfg.inv_dtau / np.linalg.svd(m_mat, compute_uv=False)[-1]
    assert isinstance(ubar, list) and len(ubar) == model.d_u
    assert np.array_equal(np.array(ubar), sweep.adjoint_states[n]) and any(ubar)
    assert (iterations, norm, contraction) == (sweep.inner_iterations[n],
                                               sweep.residual_norms[n],
                                               contraction_estimates(steps, cfg)[n])


def direct_transcription(sweep, cfg, dt):
    """The direct mode's states and norms from the sweep's own seeds and
    steps, one step at a time on Python floats: rhs_n = (s_n - beta
    lambda_{n+1}) - delta lambda_{n+2}, lambda_n solved from A_n^T's rows,
    ubar_n = rhs_n + inv_dtau lambda_n row by row, or rhs_n in the Newton
    limit, and the norm of A_n^T lambda_n - rhs_n, each row's products
    summed over the columns in order and the squares left to right."""
    _, beta, delta = primal.step_coefficients(2, dt)
    n_total, d_u = len(sweep.steps), sweep.seeds.shape[1]
    ubar, norms, lambdas, bounds = [[0.0] * d_u], [0.0], {}, []
    for n in range(n_total, 0, -1):
        rhs = sweep.seeds[n].tolist()
        if n + 1 <= n_total:
            rhs = [r - beta * x for r, x in zip(rhs, lambdas[n + 1])]
        if n + 2 <= n_total:
            rhs = [r - delta * x for r, x in zip(rhs, lambdas[n + 2])]
        a_t = sweep.steps[n - 1].T.tolist()
        lam = lambdas[n] = solve2([x for row in a_t for x in row], rhs, n)
        ubar.insert(1, rhs if cfg.inv_dtau == 0.0 else
                    [r + cfg.inv_dtau * x for r, x in zip(rhs, lam)])
        residual = []
        for row, r in zip(a_t, rhs):
            product = row[0] * lam[0]
            for a, x in zip(row[1:], lam[1:]):
                product = product + a * x
            residual.append(product - r)
        norms.insert(1, primal._vector_norm(residual))
        # the roundoff bound of a backward-stable solve's residual
        bounds.insert(0, np.finfo(float).eps * (np.linalg.norm(a_t, 2) * np.linalg.norm(lam)
                                                 + np.linalg.norm(rhs)))
    return np.array(ubar), np.array(norms), np.array(bounds)


@pytest.mark.parametrize("name", DUALITY_MODELS)
@pytest.mark.parametrize("dtau", [math.inf, 1.0, 0.3], ids=["dtau=inf", "dtau=1", "dtau=0.3"])
def test_direct_mode_state_is_the_newton_limit_solve(name, dtau):
    # the direct mode solves A_n^T lambda_n = rhs_n in the reverse kernel's
    # Newton limit and sets ubar_n = rhs_n + inv_dtau lambda_n; it records
    # one iteration per step and the solve's residual norm
    model, sigma = DUALITY_MODELS[name]
    cfg = PseudoTimeConfig(dtau)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=300, n_transient=60), cfg)
    sweep = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg, AdjointMode.DIRECT)
    ubar, norms, bounds = direct_transcription(sweep, cfg, traj.grid.dt)
    assert sweep.adjoint_states.tobytes() == ubar.tobytes()
    assert sweep.residual_norms.tobytes() == norms.tobytes()
    assert sweep.inner_iterations.tolist() == [0] + [1] * traj.n_steps
    # a small multiple of eps (||A_n|| ||lambda_n|| + ||rhs_n||) bounds
    # every step's residual, and roundoff leaves some of them nonzero
    assert np.all(sweep.residual_norms[1:] <= 2.0 * bounds)
    assert sweep.residual_norms.max() > 0.0


NEWTON_LIMIT_MODELS = {**DUALITY_MODELS,
                       "van-der-pol-x": (VanDerPol(output=OutputKind.FIRST_STATE),
                                         np.array([1.0]))}


@pytest.mark.parametrize("name", NEWTON_LIMIT_MODELS)
def test_modes_agree_bit_for_bit_in_the_newton_limit(name):
    # at dtau = inf both modes copy each step's right-hand side in the
    # reverse kernel's Newton limit, on M_n^T = (A_n + 0.0 I)^T and on
    # A_n^T, which differ in signed zeros alone.  After 340 steps Van der
    # Pol's x_N is negative, so step N's x^2 seed, the window's zero end
    # weight times 2 x_N, is -0.0: the copy keeps it, where adding
    # 0.0 lambda_N would make it +0.0
    model, sigma = NEWTON_LIMIT_MODELS[name]
    for n_steps in (300, 340):
        traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=n_steps, n_transient=60))
        fixed, direct = (adjoint_sweep(model, sigma, traj, Window.BUMP, mode=mode)
                         for mode in AdjointMode)
        assert fixed.adjoint_states.tobytes() == direct.adjoint_states.tobytes()
        assert np.all(fixed.design_derivative == direct.design_derivative)
        assert np.all(fixed.running_design_derivative == direct.running_design_derivative)
    if name == "van-der-pol-x2":
        assert direct.adjoint_states[-1, 0] == 0.0 and np.signbit(direct.adjoint_states[-1, 0])


def test_running_derivative_terminates_at_total():
    model, sigma, traj = make_vdp_setup(n_steps=80, n_transient=20)
    sweep = adjoint_sweep(model, sigma, traj, Window.BUMP)
    assert np.array_equal(sweep.running_design_derivative[1],
                          sweep.design_derivative)
    assert np.array_equal(sweep.running_design_derivative[0],
                          sweep.running_design_derivative[1])
    # tail sums change monotonically in index only where seeds are active;
    # the pre-transient entries still move through the design Jacobian term
    assert sweep.running_design_derivative.shape == (81, 1)


@dataclass(frozen=True)
class ThreeDesignVanDerPol(VanDerPol):
    """Van der Pol with three design variables, of which only mu moves the
    state: the design Jacobian's second column is signed zeros and its third
    holds -inf and +inf at two interior steps, and the output's design
    gradient is 0.0, -0.0, and x with -inf and +inf in two interior rows of
    the stack, whose endpoint rows the window weighs zero.  The first row's
    -0.0 is NaN instead, which a zero weight keeps: the transient cutoff's
    design seed is NaN."""

    n_design = 3

    def jacobian_design(self, u, sigma, t=0.0):
        jac = np.zeros(np.shape(u) + (3,))
        jac[..., 0] = super().jacobian_design(u, sigma, t)[..., 0]
        jac[..., 0, 1] = -0.0
        jac[..., 1, 1] = np.where(u[..., 0] > 0.0, 0.0, -0.0)
        jac[..., 1, 2] = 0.25
        count = len(jac)
        jac[count // 3, 0, 2] = -math.inf
        jac[count // 2, 1, 2] = math.inf
        return jac

    def output_design_gradient(self, u, sigma):
        grad = np.zeros(np.shape(u)[:-1] + (3,))
        grad[..., 1] = -0.0
        grad[0, 1] = math.nan
        grad[..., 2] = u[..., 0]
        count = len(grad)
        grad[count // 4, 2] = -math.inf
        grad[count // 2 + 1, 2] = math.inf
        return grad


def same_sums(got, expected):
    """Equal bits, signed zeros and infinities included; a NaN must be NaN
    on both sides, its sign bit not pinned."""
    nan = np.isnan(expected)
    return (got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, expected).tobytes())


@pytest.mark.parametrize("n_transient", [0, 1, 50])
def test_running_derivative_is_the_tail_sum_loop(n_transient):
    # the sweep sums its design derivative in one accumulate; a loop on
    # Python floats from +0.0 over steps N..1, each step subtracting
    # lambda_n B_n and, from the cutoff on, adding its design seed, must
    # give the same bits.  Step 0's design seed is never added.
    model = ThreeDesignVanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0, 0.5, -2.0])
    grid = TimeGrid(dt=0.05, n_steps=120, n_transient=n_transient)
    traj = simulate(model, sigma, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = adjoint_sweep(model, sigma, traj, Window.HANN)
        n_total = grid.n_steps
        m_mats = sweep.steps + 0.0 * np.eye(model.d_u)  # M_n at dtau = inf
        lam = [solve2(m_mats[n - 1].T.ravel().tolist(),
                      sweep.adjoint_states[n].tolist(), n) for n in range(1, n_total + 1)]
        coupling = np.matmul(np.array(lam)[:, None, :],
                             model.jacobian_design(traj.states[1:], sigma,
                                                   grid.times()[1:]))[:, 0].tolist()
    omega = discrete_weights(Window.HANN, n_transient, n_total) / (n_total - n_transient)
    design_rows = (omega[:, None]
                   * model.output_design_gradient(traj.states[n_transient:], sigma)).tolist()
    running = [None] * (n_total + 1)
    total = [0.0] * 3
    for n in range(n_total, 0, -1):
        total = [x - c for x, c in zip(total, coupling[n - 1])]
        if n >= n_transient:
            total = [x + d for x, d in zip(total, design_rows[n - n_transient])]
        running[n] = total
    running[0] = total
    running = np.array(running)
    # the terms reach both signed zeros and both infinities, and the sums
    # infinities and NaN
    terms = np.concatenate((coupling, design_rows))
    assert {math.copysign(1.0, x) for x in terms[:, 1] if x == 0.0} == {-1.0, 1.0}
    assert {-math.inf, math.inf} <= set(terms[:, 2].tolist())
    assert np.isinf(running[:, 2]).any() and np.isnan(running[:, 2]).any()
    # the cutoff's NaN seed reaches the sums from its step down, unless the
    # cutoff is step 0
    assert np.isnan(running[:, 1]).tolist() == [n_transient > 0 and n <= n_transient
                                                 for n in range(n_total + 1)]
    assert same_sums(sweep.running_design_derivative, running)
    assert same_sums(sweep.design_derivative, running[0])


@dataclass(frozen=True)
class CountingVanDerPol(VanDerPol):
    """Van der Pol that counts the calls of each of its methods."""

    calls: Counter = field(default_factory=Counter, compare=False)

    def residual(self, u, sigma, t=0.0):
        self.calls["residual"] += 1
        return super().residual(u, sigma, t)

    def jacobian_state(self, u, sigma, t=0.0):
        self.calls["jacobian_state"] += 1
        return super().jacobian_state(u, sigma, t)

    def jacobian_design(self, u, sigma, t=0.0):
        self.calls["jacobian_design"] += 1
        return super().jacobian_design(u, sigma, t)

    def output_value(self, u, sigma):
        self.calls["output_value"] += 1
        return super().output_value(u, sigma)

    def output_state_gradient(self, u, sigma):
        self.calls["output_state_gradient"] += 1
        return super().output_state_gradient(u, sigma)

    def output_design_gradient(self, u, sigma):
        self.calls["output_design_gradient"] += 1
        return super().output_design_gradient(u, sigma)


@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_each_step_evaluates_its_residuals_and_jacobian_once(dtau):
    model = CountingVanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=80, n_transient=20), cfg)
    # one residual at each step's predictor, then one per inner iterate; the
    # state Jacobian once per inner iterate in the Newton limit, and at a
    # finite dtau once per step that iterates, whose factors the chord
    # keeps; the outputs of all states in one call
    inner = traj.inner_iterations
    jacobians = inner.sum() if math.isinf(dtau) else np.count_nonzero(inner)
    assert model.calls == Counter(residual=traj.n_steps + inner.sum(),
                                  jacobian_state=jacobians, output_value=1)
    assert 0 < np.count_nonzero(inner) < inner.sum()
    # each sweep: one state Jacobian per step, and every other method once
    # for the whole trajectory
    per_sweep = Counter(jacobian_state=traj.n_steps, jacobian_design=1,
                        output_state_gradient=1, output_design_gradient=1)
    for sweep in (lambda: tangent_sweep(model, sigma, traj),
                  lambda: adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg)):
        model.calls.clear()
        sweep()
        assert model.calls == per_sweep
    # an adjoint sweep given the steps of an earlier one reads no state Jacobian
    steps = step_matrices(model, sigma, traj)
    model.calls.clear()
    adjoint_sweep(model, sigma, traj, Window.HANN, PseudoTimeConfig(0.3), steps=steps)
    assert model.calls == per_sweep - Counter(jacobian_state=traj.n_steps)


SWEEP_ARRAYS = ("adjoint_states", "seeds", "design_derivative", "running_design_derivative",
                "inner_iterations", "residual_norms", "steps")


@pytest.mark.parametrize("name", DUALITY_MODELS)
def test_one_steps_stack_serves_every_dtau_and_mode(name):
    # steps is the A_n stack of step_matrices, which depends on neither dtau
    # nor the mode: taken from a fixed-point sweep at dtau = 1, it gives a
    # sweep at dtau = 0.3 and direct sweeps the bits of fresh ones
    model, sigma = DUALITY_MODELS[name]
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=200, n_transient=40))
    steps = adjoint_sweep(model, sigma, traj, Window.BUMP, PseudoTimeConfig(1.0)).steps
    assert steps.tobytes() == step_matrices(model, sigma, traj).tobytes()
    for dtau, mode in [(0.3, AdjointMode.FIXED_POINT), (0.3, AdjointMode.DIRECT),
                       (1.0, AdjointMode.DIRECT), (math.inf, AdjointMode.DIRECT)]:
        cfg = PseudoTimeConfig(dtau)
        fresh = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg, mode)
        reused = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg, mode, steps=steps)
        for array in SWEEP_ARRAYS:
            assert getattr(reused, array).tobytes() == getattr(fresh, array).tobytes(), \
                (dtau, mode, array)


def test_mode_from_name():
    assert AdjointMode.from_name("direct") is AdjointMode.DIRECT
    assert AdjointMode.from_name(" Fixed-Point ") is AdjointMode.FIXED_POINT
    with pytest.raises(ValueError, match="unknown adjoint mode"):
        AdjointMode.from_name("reverse")


@dataclass(frozen=True)
class SingularAtStepsOscillator(ForcedOscillator):
    """The forced oscillator with the state Jacobian diag(-2.5, 1) at
    t = 3 and t = 7: at dt = 1 and dtau = 1, alpha = 1.5 makes M_3 and M_7
    diag(0, 3.5), singular, while A_3 and A_7 stay regular."""

    def jacobian_state(self, u, sigma, t=0.0):
        if t in (3.0, 7.0):
            return np.array([[-2.5, 0.0], [0.0, 1.0]])
        return super().jacobian_state(u, sigma, t)


def test_singular_step_matrices_raise_with_step(monkeypatch):
    # k = -1, c = 0 and dt = 1 make A_1 = [[1, -1], [-1, 1]] singular; the
    # BDF2 steps (alpha = 1.5) stay regular, so only step 1 fails
    singular = ForcedOscillator(omega=1.0, stiffness0=-1.0, damping0=0.0)
    sigma = np.array([0.0])
    traj = simulate(ForcedOscillator(), sigma, TimeGrid(dt=1.0, n_steps=4,
                                                        n_transient=1))
    for sweep in (lambda: tangent_sweep(singular, sigma, traj),
                  lambda: adjoint_sweep(singular, sigma, traj, Window.BUMP)):
        with pytest.raises(SingularStepError) as excinfo:
            sweep()
        assert excinfo.value.step == 1
        assert "step 1" in str(excinfo.value)

    # M_3 and M_7 singular at a finite dtau: their contraction estimates are
    # inf, and the fixed-point mode's reverse loop meets step 7 first and
    # raises there, through _reverse2 and the oracle's _reverse.  The direct mode solves with
    # A_n alone, which stays regular, so it finishes
    traj = simulate(ForcedOscillator(), sigma, TimeGrid(dt=1.0, n_steps=10, n_transient=1))
    model, cfg = SingularAtStepsOscillator(), PseudoTimeConfig(dtau=1.0)
    steps = step_matrices(model, sigma, traj)
    assert np.flatnonzero(np.isinf(contraction_estimates(steps, cfg))).tolist() == [3, 7]
    for reverse in (primal._reverse2, oracle._reverse):
        monkeypatch.setattr(primal, "_reverse2", reverse)
        with pytest.raises(SingularStepError) as excinfo:
            adjoint_sweep(model, sigma, traj, Window.HANN, cfg)
        assert excinfo.value.step == 7, reverse
        direct = adjoint_sweep(model, sigma, traj, Window.HANN, cfg, AdjointMode.DIRECT)
        assert np.isfinite(direct.design_derivative).all() and direct.adjoint_states[7].any()

    # a singular A_n with a regular M_n = A_n + I stops the direct mode at
    # step n, where its loop meets it, through both reverse loops
    singular_a = steps.copy()
    singular_a[4] = [[1.0, -1.0], [-1.0, 1.0]]
    for reverse in (primal._reverse2, oracle._reverse):
        monkeypatch.setattr(primal, "_reverse2", reverse)
        with pytest.raises(SingularStepError) as excinfo:
            adjoint_sweep(model, sigma, traj, Window.HANN, cfg, AdjointMode.DIRECT,
                          steps=singular_a)
        assert excinfo.value.step == 5, reverse


@dataclass(frozen=True)
class SingularFirstStepModel(StiffDecayModel):
    """StiffDecayModel whose first state's Jacobian is `first` at t = 1;
    for dt = 1 M_1's first diagonal entry is 1 + first + 1/dtau, so first =
    -1 - 1/dtau makes M_1 singular."""

    first: float = -6.0

    def jacobian_state(self, u, sigma, t=0.0):
        return np.array([[self.first if t == 1.0 else -10.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("dtau, error, step", [(0.2, AdjointDivergenceError, 3),
                                               (1.0, SingularStepError, 1)])
def test_singular_step_surfaces_in_reverse_order(dtau, error, step):
    # the reverse loop meets a singular M_1 at step 1, its last.  At
    # dtau = 0.2 the later steps diverge (factor 5 / -3.5) and, being met
    # first, must win (step 4 has a zero seed, so step 3 fails); at dtau = 1
    # they converge (factor 1 / -7.5) and the sweep stops at step 1
    sigma = np.array([0.0])
    traj = simulate(StiffDecayModel(), sigma, TimeGrid(dt=1.0, n_steps=4,
                                                       n_transient=1))
    model = SingularFirstStepModel(first=-1.0 - 1.0 / dtau)
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=40)
    with pytest.raises(error) as excinfo:
        adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg)
    assert excinfo.value.step == step
