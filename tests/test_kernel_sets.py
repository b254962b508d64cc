"""The two-state kernels against the any-size oracle, over whole sweeps.

The march runs every physical step of two states in one written-out
kernel, _march2, and the tangent and the adjoint run a two-state sweep's
whole reverse loop in _reverse2.  The oracle in tests/any_size_kernels.py
states the same arithmetic as list loops: _march, a loop over
_extended_residual, the solve of _solver and _vector_norm, and _reverse
over the same solve.  Here each sweep runs twice, once through the
two-state kernels and once through the oracle, and the two must agree in
every bit: every array, and on failure the error's type, message and
fields.

The oracle solves through np.linalg.solve, LAPACK dgesv, which rounds a
2x2 system otherwise than the stated order, so the oracle run factors and
solves with the stated 2x2 solve, test_kernels.factor2.  Both
sets form their matrices where the same rule says: in the march once per
step at a finite dtau and at every iterate in the Newton limit, and in
the reverse loops once per step.
Both reverse loops iterate their fixed points in the stated order, each
iterate followed by the solve of its lambda, so that loop is the oracle's
itself.
"""

import math
import warnings
from dataclasses import dataclass

import any_size_kernels as oracle
import numpy as np
import pytest
from test_kernels import factor2, same_bits
from test_primal import LinearModel

from lcowind import primal
from lcowind.adjoint import AdjointMode, adjoint_sweep, contraction_estimates
from lcowind.errors import (AdjointDivergenceError, LcoError, SingularStepError,
                            StepConvergenceError)
from lcowind.models import AnalyticSignal, ForcedOscillator, OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate
from lcowind.tangent import tangent_sweep
from lcowind.windows import Window

GRID = TimeGrid(dt=0.05, n_steps=120, n_transient=20)
# stiff, non-normal pairs du/dt + K u = 0: K's eigenvalues 50 and 0.5 with
# a coupling 800 times the smaller one, and a growing pair whose eigenvalue
# -10 makes the fixed-point adjoint diverge at dt = 1
STIFF_PAIR = LinearModel(matrix=np.array([[50.0, -400.0], [0.0, 0.5]]), offset=np.zeros(2))
GROWING_PAIR = LinearModel(matrix=np.array([[-10.0, 40.0], [0.0, -0.5]]), offset=np.zeros(2))
MODELS = {
    "van-der-pol-x2": (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), [1.0], GRID),
    "forced-oscillator-x2": (ForcedOscillator(output=OutputKind.FIRST_STATE_SQUARED), [0.1],
                             GRID),
    "analytic-signal": (AnalyticSignal(
        a0=1.0, a1=np.array([0.0]), amplitude=0.05, quad=5.0, quad_center=np.array([0.3])),
        [0.2], GRID),
    # A_1 = [[1, -1], [-1, 1]] at dt = 1: singular in the Newton limit, and
    # a stalled step at a finite dtau
    "singular": (ForcedOscillator(omega=1.0, stiffness0=-1.0, damping0=0.0), [0.0],
                 TimeGrid(dt=1.0, n_steps=4, n_transient=1)),
    "stiff-pair": (STIFF_PAIR, [0.0], TimeGrid(dt=0.05, n_steps=60, n_transient=10)),
}
# the default budget, and one of two iterations that leaves steps unconverged
BUDGETS = {"default": {}, "unconverged": {"max_inner": 2, "allow_unconverged": True}}


def any_size_kernels(monkeypatch):
    """Route two-state sweeps through the oracle: the march and the reverse
    loop of the tangent and the adjoint."""
    monkeypatch.setattr(oracle, "_solver", factor2)
    monkeypatch.setattr(primal, "_march2", oracle._march)
    monkeypatch.setattr(primal, "_reverse2", oracle._reverse)


def outcome(run):
    """run()'s arrays, or its error's type, message and fields."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # "left unconverged"
            with np.errstate(all="ignore"):
                return run()
    except LcoError as exc:
        return type(exc), str(exc), repr(sorted(vars(exc).items()))


def sweeps(model, sigma, grid, cfg, adjoint_cfg, mode=AdjointMode.FIXED_POINT):
    """The march's arrays, and the tangent's and the adjoint's over it, the
    adjoint at adjoint_cfg."""
    def march():
        traj = simulate(model, np.array(sigma), grid, cfg)
        return traj, [traj.states, traj.outputs, traj.inner_iterations, traj.residual_norms,
                      traj.converged]

    def forward():
        tangent = tangent_sweep(model, np.array(sigma), traj)
        return [tangent.state_sensitivities, tangent.output_sensitivities]

    def reverse():
        sweep = adjoint_sweep(model, np.array(sigma), traj, Window.HANN, adjoint_cfg, mode)
        return [sweep.adjoint_states, sweep.running_design_derivative,
                sweep.inner_iterations, sweep.residual_norms,
                contraction_estimates(sweep.steps, adjoint_cfg)]

    marched = outcome(march)
    if not isinstance(marched[0], primal.Trajectory):
        return [marched]
    traj, arrays = marched
    return [arrays, outcome(forward), outcome(reverse)]


def assert_same(got, expected):
    assert len(got) == len(expected)
    for got_part, expected_part in zip(got, expected):
        if isinstance(expected_part, list):
            assert isinstance(got_part, list)
            for got_array, expected_array in zip(got_part, expected_part):
                assert same_bits(got_array, expected_array)
        else:
            assert got_part == expected_part


@pytest.mark.parametrize("mode", list(AdjointMode), ids=str)
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("dtau", [math.inf, 1.0, 0.3], ids=["dtau=inf", "dtau=1", "dtau=0.3"])
@pytest.mark.parametrize("name", MODELS)
def test_two_state_kernels_equal_the_any_size_ones(name, dtau, budget, mode, monkeypatch):
    model, sigma, grid = MODELS[name]
    # the adjoint keeps the default budget, so unconverged marches are swept
    # too; the direct mode runs either loop's Newton limit on A_n^T
    cfg, adjoint_cfg = PseudoTimeConfig(dtau=dtau, **BUDGETS[budget]), PseudoTimeConfig(dtau)
    two_state = sweeps(model, sigma, grid, cfg, adjoint_cfg, mode)
    any_size_kernels(monkeypatch)
    assert_same(sweeps(model, sigma, grid, cfg, adjoint_cfg, mode), two_state)


@pytest.mark.parametrize("dtau, max_inner", [(0.2, 40), (1.0 / 9.4, 40), (0.2, 3)],
                         ids=["budget", "growth", "short-budget"])
def test_two_state_kernels_diverge_alike(dtau, max_inner, monkeypatch):
    # at dt = 1 the growing pair's step matrices have the eigenvalue -8.5:
    # with 1/dtau = 5 the fixed-point factor is about -1.43 and the budget
    # runs out, and with 1/dtau = 9.4 it is about 10.4 and the second change
    # exceeds ten times the first
    grid = TimeGrid(dt=1.0, n_steps=4, n_transient=1)
    adjoint_cfg = PseudoTimeConfig(dtau=dtau, max_inner=max_inner)
    two_state = sweeps(GROWING_PAIR, [0.0], grid, PseudoTimeConfig(), adjoint_cfg)
    assert two_state[-1][0] is AdjointDivergenceError
    any_size_kernels(monkeypatch)
    assert_same(sweeps(GROWING_PAIR, [0.0], grid, PseudoTimeConfig(), adjoint_cfg), two_state)


@pytest.mark.parametrize("mode", list(AdjointMode), ids=str)
@pytest.mark.parametrize("dtau, stiffness", [(math.inf, -1.0), (4.0, -1.5625)],
                         ids=["dtau=inf", "dtau=4"])
def test_two_state_kernels_meet_a_singular_step_alike(dtau, stiffness, mode, monkeypatch):
    # at dt = 1, k = stiffness and c = 0, M_1 is [[1, -1], [-1, 1]] in the
    # Newton limit and [[1.25, -1], [-1.5625, 1.25]] at dtau = 4, both
    # singular, while the BDF2 steps' fixed points contract by 1/2.  The
    # fixed-point mode meets M_1 in the loop at step 1, and so does the
    # direct mode in the Newton limit, where A_1 = M_1: the two-state
    # kernel's factoring raises there, and the oracle's solve of
    # lambda_1.  At dtau = 4 the direct mode solves with A_1 alone, which is
    # regular, and both kernel sets finish alike
    grid = TimeGrid(dt=1.0, n_steps=4, n_transient=1)
    traj = simulate(ForcedOscillator(), np.array([0.0]), grid)
    model = ForcedOscillator(omega=1.0, stiffness0=stiffness, damping0=0.0)

    def reverse():
        sweep = adjoint_sweep(model, np.array([0.0]), traj, Window.HANN,
                              PseudoTimeConfig(dtau), mode)
        return [sweep.adjoint_states]

    two_state = outcome(reverse)
    if mode is AdjointMode.DIRECT and not math.isinf(dtau):
        assert isinstance(two_state, list)
    else:
        assert two_state[0] is SingularStepError and "'step', 1" in two_state[2]
    any_size_kernels(monkeypatch)
    assert_same([outcome(reverse)], [two_state])


@dataclass(frozen=True)
class SingularAtThreeOscillator(ForcedOscillator):
    """The forced oscillator whose state Jacobian is diag(-1.5, 1) at t = 3:
    at dt = 1 it cancels BDF2's alpha = 1.5 in A_3's first entry, so A_3 =
    diag(0, 2.5) is singular."""

    def jacobian_state(self, u, sigma, t=0.0):
        if t == 3.0:
            return np.diag([-1.5, 1.0])
        return super().jacobian_state(u, sigma, t)


def test_the_tangent_names_a_singular_middle_step(monkeypatch):
    # the tangent runs the reverse kernel on the steps reversed, so the
    # kernel meets A_3 at its reversed step N - 2 and the sweep must name
    # it as step 3, through either kernel set
    grid = TimeGrid(dt=1.0, n_steps=6, n_transient=1)
    traj = simulate(ForcedOscillator(), np.array([0.0]), grid)

    def forward():
        return [tangent_sweep(SingularAtThreeOscillator(), np.array([0.0]), traj)
                .state_sensitivities]

    two_state = outcome(forward)
    assert two_state[0] is SingularStepError and "'step', 3" in two_state[2]
    any_size_kernels(monkeypatch)
    assert_same([outcome(forward)], [two_state])


def drawn_reverse_inputs(rng, newton):
    """Arguments of a reverse kernel for two states: seeds with signed
    zeros, infinities, NaN and subnormals, the rows of step matrices A_n^T
    whose M_n^T = A_n^T + inv_dtau I has zero entries (zero pivots among
    them) and pivot ties |a21| = |a11 + inv_dtau|, and values of inv_dtau
    whose fixed-point iterations contract or grow."""
    n_total = int(rng.integers(1, 9))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
    seeds = rng.normal(size=(n_total + 1, 2))
    where = rng.random(seeds.shape) < 0.15
    seeds[where] = rng.choice(special, where.sum())
    a_rows = rng.normal(size=(n_total, 4))
    zeros = rng.random(a_rows.shape) < 0.1
    ties = rng.random(n_total) < 0.2
    inv_dtau = 0.0 if newton else float(rng.choice([0.2, 0.6, 2.0]))
    # a zero of M_n^T on the diagonal is a_ii = -inv_dtau, as -x + x is 0.0
    a_rows[zeros] = 0.0
    a_rows[:, [0, 3]] = np.where(zeros[:, [0, 3]], 0.0 - inv_dtau, a_rows[:, [0, 3]])
    a_rows[ties, 2] = rng.choice([-1.0, 1.0], ties.sum()) * (a_rows[ties, 0] + inv_dtau)
    _, beta, delta = primal.step_coefficients(2, float(rng.choice([0.05, 1.0])))
    return (seeds.tolist(), a_rows.tolist(), inv_dtau, beta, delta,
            float(rng.choice([1e-12, 1e-6, math.inf])), int(rng.choice([1, 3, 50])))


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "fixed-point"])
def test_reverse_kernels_agree_on_drawn_inputs(newton, monkeypatch):
    # the loop's own arithmetic, away from any model: the right-hand side,
    # the Newton copy, the fixed-point loop and its divergence rule, the
    # pivoting solve and its singular cases, and where the loop stops
    def run(reverse, args):
        try:
            with np.errstate(all="ignore"):
                return [np.array(part) for part in reverse(*args)]
        except LcoError as exc:
            return type(exc), str(exc), repr(sorted(vars(exc).items()))

    rng = np.random.default_rng(4112 + 2 * newton)
    cases = [drawn_reverse_inputs(rng, newton) for _ in range(400)]
    two_state = [run(primal._reverse2, args) for args in cases]
    monkeypatch.setattr(oracle, "_solver", factor2)
    for args, expected in zip(cases, two_state):
        got = run(oracle._reverse, args)
        if isinstance(expected, tuple):
            assert got == expected, args
        else:
            assert all(map(same_bits, got, expected)), args
    # the draws reach finished loops and every error
    outcomes = {result[0] if isinstance(result, tuple) else list for result in two_state}
    assert list in outcomes and SingularStepError in outcomes
    assert (AdjointDivergenceError in outcomes) == (not newton)


def test_the_cases_reach_every_outcome():
    # the matrix above meets a singular step, a stalled step, unconverged
    # marches, a diverging adjoint over one of them, and converged sweeps
    # over every model but the singular one
    results = {(name, dtau, budget): sweeps(model, sigma, grid,
                                            PseudoTimeConfig(dtau=dtau, **BUDGETS[budget]),
                                            PseudoTimeConfig(dtau))
               for name, (model, sigma, grid) in MODELS.items()
               for dtau in (math.inf, 1.0, 0.3) for budget in BUDGETS}
    errors = {result[-1][0] for result in results.values() if isinstance(result[-1], tuple)}
    assert errors == {SingularStepError, StepConvergenceError, AdjointDivergenceError}
    assert any(len(result) == 3 and not result[0][4].all() for result in results.values())
    swept = {name for (name, _, _), result in results.items() if len(result) == 3}
    assert swept == set(MODELS)
    assert all(len(results[name, dtau, "default"]) == 3 for name in MODELS if name != "singular"
               for dtau in (math.inf, 1.0, 0.3))
