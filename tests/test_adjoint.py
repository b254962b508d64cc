"""Tests for the discrete adjoint sweep and its diagnostics."""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from lcowind.adjoint import AdjointMode, _adjoint_step, adjoint_sweep, iteration_matrices
from lcowind.analysis import windowed_average
from lcowind.errors import AdjointDivergenceError, SingularStepError
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, ForcedOscillator,
                            OutputKind, VanDerPol)
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import NormalizationMode, Window, discrete_weights


@dataclass(frozen=True)
class StiffDecayModel:
    """One-dimensional du/dt - 10 u = 0; linear, so Newton converges in one solve."""

    name = "stiff-decay"
    d_u = 1
    n_design = 1

    def initial_state(self, sigma=None):
        return np.array([1.0])

    def residual(self, u, sigma, t=0.0):
        return np.array([-10.0 * u[0]])

    def jacobian_state(self, u, sigma, t=0.0):
        return np.array([[-10.0]])

    def jacobian_design(self, u, sigma, t=0.0):
        return np.ones(np.shape(u) + (1,))

    def output_value(self, u, sigma):
        return u[..., 0].copy()

    def output_state_gradient(self, u, sigma):
        return np.ones(np.shape(u))

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
    "analytic-signal": (AnalyticSignalModel(AnalyticSignal(
        a0=1.0, a1=np.array([0.5]), amplitude=0.3, quad=0.8,
        quad_center=np.array([0.1]))), np.array([0.2])),
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


def test_fixed_point_and_direct_modes_agree():
    cfg = PseudoTimeConfig(dtau=1.0, tol=1e-13, max_inner=200)
    model, sigma, traj = make_vdp_setup(cfg=cfg)
    fp = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg, tol=5e-15)
    direct = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg,
                           mode=AdjointMode.DIRECT, tol=5e-15)
    assert fp.design_derivative[0] == pytest.approx(direct.design_derivative[0],
                                                    rel=1e-10)
    # the fixed point iterates, the direct mode solves outright
    assert fp.inner_iterations[1:].min() >= 1
    assert np.all(direct.inner_iterations[1:] == 0)
    # contraction stays below one whenever the primal inner loop converged
    assert fp.contraction_estimates[1:].max() < 1.0
    assert fp.contraction_estimates[1:].max() > 0.0


def test_newton_limit_shortcut():
    model, sigma, traj = make_vdp_setup(n_steps=60, n_transient=10)
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN)
    assert np.all(sweep.inner_iterations[1:] == 1)
    assert np.all(sweep.residual_norms == 0.0)
    assert np.all(sweep.contraction_estimates == 0.0)


def test_single_step_span_gives_exact_zero():
    # a one-step span touches only the two window endpoints, both zero, so
    # nothing seeds the adjoint and the derivative is exactly zero
    sig = AnalyticSignal(a0=1.0, a1=np.array([0.5]), amplitude=0.3)
    model = AnalyticSignalModel(signal=sig)
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
        == (3, 40, 549726.2098820913, 1.4285714285714284)


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


@pytest.mark.parametrize("mode", list(AdjointMode))
@pytest.mark.parametrize("dtau", [math.inf, 1.0], ids=["dtau=inf", "dtau=1"])
def test_adjoint_step_reproduces_the_sweeps_state(dtau, mode):
    # the window's zero weight at the last step leaves its adjoint state
    # zero, so the step before it couples to nothing: its rhs is its seed,
    # and the sweep warm-starts it from the last step's state
    cfg = PseudoTimeConfig(dtau=dtau, tol=1e-12, max_inner=200)
    model, sigma, traj = make_vdp_setup(n_steps=80, n_transient=20, cfg=cfg)
    sweep = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg, mode=mode)
    assert not sweep.adjoint_states[-1].any()
    n, steps = traj.n_steps - 1, sweep.steps
    ubar, iterations, norm, contraction = _adjoint_step(
        n, steps.a_mats[n - 1], steps.m_mats[n - 1], sweep.seeds[n].tolist(),
        sweep.adjoint_states[n + 1].tolist(), steps.iteration[n - 1],
        float(steps.contractions[n - 1]), cfg.tol, cfg.max_inner, mode)
    assert isinstance(ubar, list) and len(ubar) == model.d_u
    assert np.array_equal(np.array(ubar), sweep.adjoint_states[n]) and any(ubar)
    assert (iterations, norm, contraction) == (sweep.inner_iterations[n],
                                               sweep.residual_norms[n],
                                               sweep.contraction_estimates[n])


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


def test_each_step_evaluates_its_residuals_and_jacobian_once():
    model = CountingVanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    cfg = PseudoTimeConfig(dtau=1.0, tol=1e-12, max_inner=200)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=80, n_transient=20), cfg)
    # one residual at each step's warm start, then one per inner iterate;
    # the outputs of all states in one call
    assert model.calls == Counter(
        residual=traj.n_steps + traj.inner_iterations.sum(),
        jacobian_state=traj.inner_iterations.sum(), output_value=1)
    # each sweep: one state Jacobian per step, and every other method once
    # for the whole trajectory
    per_sweep = Counter(jacobian_state=traj.n_steps, jacobian_design=1,
                        output_state_gradient=1, output_design_gradient=1)
    for sweep in (lambda: tangent_sweep(model, sigma, traj),
                  lambda: adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg)):
        model.calls.clear()
        sweep()
        assert model.calls == per_sweep


def test_mode_from_name():
    assert AdjointMode.from_name("direct") is AdjointMode.DIRECT
    assert AdjointMode.from_name(" Fixed-Point ") is AdjointMode.FIXED_POINT
    with pytest.raises(ValueError, match="unknown adjoint mode"):
        AdjointMode.from_name("reverse")


def test_singular_step_matrices_raise_with_step():
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

    a_singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
    rhs = [1.0, 1.0]
    # (a_mat, m_mat, iter_matrix, mode): the Newton-limit direct solve and
    # the finite-dtau direct solve
    cases = [(a_singular, a_singular, None, AdjointMode.DIRECT),
             (a_singular, a_singular + np.eye(2), np.eye(2), AdjointMode.DIRECT)]
    for a_mat, m_mat, iter_matrix, mode in cases:
        with pytest.raises(SingularStepError) as excinfo:
            _adjoint_step(7, a_mat, m_mat, rhs, [0.0, 0.0], iter_matrix, 0.5, 1e-12,
                          50, mode)
        assert excinfo.value.step == 7

    # the iteration matrix's M_n solve, batched over steps 1..8 with M_3 and
    # M_7 singular: the error names step 7, the first the reverse sweep meets
    a_mats = np.tile(-np.eye(2), (8, 1, 1))
    m_mats = np.tile(np.eye(2), (8, 1, 1))
    m_mats[[2, 6]] = 0.0
    with pytest.raises(SingularStepError) as excinfo:
        iteration_matrices(a_mats, m_mats)
    assert excinfo.value.step == 7


@dataclass(frozen=True)
class SingularFirstStepModel(StiffDecayModel):
    """StiffDecayModel with Jacobian `first` at t = 1; for dt = 1 and
    M_1 = 1 + first + 1/dtau, first = -1 - 1/dtau makes M_1 singular."""

    first: float = -6.0

    def jacobian_state(self, u, sigma, t=0.0):
        return np.array([[self.first if t == 1.0 else -10.0]])


@pytest.mark.parametrize("dtau, error, step", [(0.2, AdjointDivergenceError, 3),
                                               (1.0, SingularStepError, 1)])
def test_singular_step_surfaces_in_reverse_order(dtau, error, step):
    # the batched build finds M_1 singular before the sweep starts.  At
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
