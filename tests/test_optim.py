"""Tests for the projected-gradient design loop."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from lcowind import optim
from lcowind.adjoint import adjoint_sweep
from lcowind.errors import StepConvergenceError
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, DesignVector,
                            OutputKind, VanDerPol)
from lcowind.optim import DesignProblem, evaluate_design, optimize
from lcowind.primal import PseudoTimeConfig, TimeGrid
from lcowind.windows import Window


def quadratic_problem(amplitude=0.05, relaxation=0.1, kind=Window.BUMP,
                      max_iterations=40, max_backtracks=30, n_steps=720):
    # windowed average of this model is 1 + (sigma - 0.3)^2 up to tiny
    # window truncation error, so the box-constrained minimum sits at 0.3
    signal = AnalyticSignal(a0=1.0, a1=np.array([0.0]), amplitude=amplitude,
                            base_period=1.0, quad=1.0,
                            quad_center=np.array([0.3]))
    model = AnalyticSignalModel(signal=signal)
    design = DesignVector(values=np.array([0.1]), lower=np.array([-0.5]),
                          upper=np.array([0.9]))
    grid = TimeGrid(dt=0.02, n_steps=n_steps, n_transient=100)
    return DesignProblem(objective_model=model, design=design, grid=grid,
                         kind=kind, relaxation=relaxation,
                         max_iterations=max_iterations,
                         max_backtracks=max_backtracks)


def test_evaluate_design_gradient_closed_form():
    problem = quadratic_problem()
    sigma = np.array([0.1])
    objective, constraint, grad_obj, grad_con = evaluate_design(problem, sigma)
    assert objective == pytest.approx(1.0 + 0.2 ** 2, rel=1e-5)
    # gradients come back pre-scaled by the relaxation factor
    assert grad_obj[0] / problem.relaxation == pytest.approx(2 * (0.1 - 0.3),
                                                             rel=1e-3)
    assert constraint == math.inf
    assert np.all(grad_con == 0.0)


def test_evaluate_design_gradient_matches_fd():
    problem = quadratic_problem()
    h = 1e-6
    plus = evaluate_design(problem, np.array([0.1 + h]))[0]
    minus = evaluate_design(problem, np.array([0.1 - h]))[0]
    fd = (plus - minus) / (2 * h)
    grad = evaluate_design(problem, np.array([0.1]))[2] / problem.relaxation
    assert grad[0] == pytest.approx(fd, rel=1e-4)


def test_design_problem_validation():
    base = quadratic_problem()
    with pytest.raises(ValueError, match="relaxation"):
        DesignProblem(objective_model=base.objective_model, design=base.design,
                      grid=base.grid, relaxation=0.0)
    with pytest.raises(ValueError, match="relaxation"):
        DesignProblem(objective_model=base.objective_model, design=base.design,
                      grid=base.grid, relaxation=1.5)
    with pytest.raises(ValueError, match="bound must be finite"):
        DesignProblem(objective_model=base.objective_model, design=base.design,
                      grid=base.grid, constraint_model=base.objective_model,
                      bound=math.inf)
    with pytest.raises(ValueError, match="max_iterations"):
        DesignProblem(objective_model=base.objective_model, design=base.design,
                      grid=base.grid, max_iterations=0)
    with pytest.raises(ValueError, match="penalty"):
        DesignProblem(objective_model=base.objective_model, design=base.design,
                      grid=base.grid, penalty=0.0)


@pytest.mark.parametrize("field, value", [
    ("penalty", math.nan),
    ("grad_tolerance", math.nan),
    ("grad_tolerance", -1.0),
    ("max_backtracks", -1),
])
def test_design_problem_rejects_nan_and_negative_settings(field, value):
    # max_backtracks = -1 would skip the line search altogether
    with pytest.raises(ValueError, match=field.replace("_", ".")):
        dataclasses.replace(quadratic_problem(), **{field: value})


def test_quadratic_toy_converges_to_center():
    problem = quadratic_problem()
    history = optimize(problem)
    assert history.final_design[0] == pytest.approx(0.3, abs=5e-4)
    assert history.iterations == len(history.records)
    assert history.iterations <= problem.max_iterations
    assert history.evaluations > history.iterations
    assert not history.line_search_failed
    # merit decreases monotonically once the first step lands
    merits = [r.merit for r in history.records]
    assert all(b <= a + 1e-12 for a, b in zip(merits[1:], merits[2:]))


def test_immediate_termination_at_stationary_point():
    problem = quadratic_problem(amplitude=0.0, kind=Window.HANN)
    history = optimize(problem, sigma0=np.array([0.3]))
    # the gradient vanishes identically at the center, so the loop records
    # a single iterate and stops without ever line searching
    assert history.converged
    assert history.iterations == 1
    assert history.evaluations == 1
    assert history.records[0].step_size == 0.0
    assert history.message == "projected gradient below tolerance"
    assert history.final_design[0] == 0.3


def test_iterates_stay_in_box_and_rerun_is_bitwise():
    problem = quadratic_problem(max_iterations=10)
    first = optimize(problem)
    second = optimize(problem)
    for record in first.records:
        assert problem.design.lower[0] <= record.sigma[0] <= problem.design.upper[0]
    assert np.array_equal(first.final_design, second.final_design)
    for a, b in zip(first.records, second.records):
        assert np.array_equal(a.sigma, b.sigma)
        assert a.merit == b.merit and a.step_size == b.step_size


def test_sigma0_overrides_design_values():
    problem = quadratic_problem(max_iterations=2)
    history = optimize(problem, sigma0=np.array([5.0]))
    # the start point projects onto the box before anything else happens
    assert history.records[0].sigma[0] == problem.design.upper[0]


def test_constrained_run_flags_feasibility():
    objective = VanDerPol(output=OutputKind.FIRST_STATE)
    constraint = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    design = DesignVector(values=np.array([1.0]), lower=np.array([0.5]),
                          upper=np.array([2.0]))
    grid = TimeGrid(dt=0.05, n_steps=360, n_transient=60)
    problem = DesignProblem(objective_model=objective, design=design,
                            grid=grid, kind=Window.BUMP,
                            constraint_model=constraint, bound=1.0,
                            max_iterations=3)
    history = optimize(problem)
    assert 1 <= history.iterations <= 3
    for record in history.records:
        assert math.isfinite(record.constraint)
        assert record.feasible == (record.constraint >= problem.bound)
        assert record.penalty >= problem.penalty
    # the constrained gradient actually differs from the unconstrained one
    j, c, gj, gc = evaluate_design(problem, np.array([1.0]))
    assert math.isfinite(c)
    assert np.any(gc != 0.0)


def test_line_search_failure_sets_flag():
    # with full relaxation and no backtracking allowed, the step from 0.1
    # lands at the mirror point 0.5 where the quadratic merit is no lower,
    # so the Armijo test cannot pass
    problem = quadratic_problem(amplitude=0.0, relaxation=1.0,
                                kind=Window.HANN, max_backtracks=0,
                                n_steps=200)
    history = optimize(problem)
    assert history.line_search_failed
    assert not history.converged
    assert history.message == "line search failed to find descent"
    assert history.iterations == 1


def test_loop_stops_when_merit_stops_decreasing():
    # with grad_tolerance = 1e-8 the projected gradient never drops below the
    # tolerance: from iteration 14 on the Armijo margin rounds away, and an
    # accepted candidate's merit equals the current one.  Without the stop
    # the loop alternated between two designs for 48 iterations and 181
    # evaluations and ended at the same design to 8 digits
    signal = AnalyticSignal(a0=1.0, a1=np.array([0.0]), amplitude=0.05, quad=5.0,
                            quad_center=np.array([0.45]))
    problem = DesignProblem(
        objective_model=AnalyticSignalModel(signal=signal),
        design=DesignVector(values=np.array([0.0]), lower=np.array([-0.5]),
                            upper=np.array([0.9])),
        grid=TimeGrid(dt=0.02, n_steps=720, n_transient=100),
        relaxation=1.0, max_iterations=50, grad_tolerance=1e-8)
    history = optimize(problem)
    assert history.message == "merit stopped decreasing"
    assert not history.converged and not history.line_search_failed
    assert (history.iterations, history.evaluations) == (14, 57)
    assert history.final_design[0] == pytest.approx(0.45002088, abs=5e-9)
    # the candidate that did not lower the merit is not taken
    merits = [r.merit for r in history.records]
    assert all(b < a for a, b in zip(merits, merits[1:]))
    assert history.records[-1].step_size == 0.0
    assert np.array_equal(history.final_design, history.records[-1].sigma)


def test_penalty_doubles_before_the_merit_is_formed():
    # the iterate stays infeasible, so the penalty doubles at iterations 3, 6,
    # 9 and 12.  Doubled after the merit was formed, the line search judged
    # candidates at 200 against a reference merit at 100, and the loop ended
    # at iteration 3 with "line search failed to find descent" after 36
    # evaluations
    problem = dataclasses.replace(constrained_vdp_problem(), max_iterations=12)
    history = optimize(problem)
    assert history.message == "iteration budget exhausted"
    assert not history.line_search_failed
    assert (history.iterations, history.evaluations) == (12, 47)
    assert [r.penalty for r in history.records] == [100.0] * 2 + [200.0] * 3 \
        + [400.0] * 3 + [800.0] * 3 + [1600.0]
    third = history.records[2]
    assert (third.merit, third.step_size) == (pytest.approx(6.5586, abs=1e-4), 0.25)
    for record in history.records:
        assert not record.feasible
        assert record.merit == optim._merit(problem, record.objective,
                                            record.constraint, record.penalty)


def test_solver_failure_attaches_design_iterate():
    problem = quadratic_problem()
    sick = DesignProblem(objective_model=VanDerPol(), design=problem.design,
                         grid=TimeGrid(dt=0.2, n_steps=30, n_transient=5),
                         pseudo=PseudoTimeConfig(dtau=0.001, tol=1e-14,
                                                 max_inner=1))
    sigma = np.array([0.7])
    with pytest.raises(StepConvergenceError) as excinfo:
        evaluate_design(sick, sigma)
    assert np.array_equal(excinfo.value.design_iterate, sigma)


def constrained_vdp_problem():
    # x^2 averages about 2.8 here, so the bound 3 keeps the penalty active
    # and the line search backtracks many times per iteration
    design = DesignVector(values=np.array([1.0]), lower=np.array([0.5]),
                          upper=np.array([2.0]))
    return DesignProblem(objective_model=VanDerPol(output=OutputKind.FIRST_STATE),
                         design=design,
                         grid=TimeGrid(dt=0.05, n_steps=120, n_transient=20),
                         kind=Window.BUMP,
                         constraint_model=VanDerPol(
                             output=OutputKind.FIRST_STATE_SQUARED),
                         bound=3.0, max_iterations=4)


@pytest.mark.parametrize("make_problem, sweeps_per_iterate", [
    (lambda: quadratic_problem(relaxation=1.0, max_iterations=6), 1),
    (constrained_vdp_problem, 2),
], ids=["unconstrained", "constrained"])
def test_adjoint_runs_only_at_accepted_iterates(monkeypatch, make_problem,
                                                sweeps_per_iterate):
    calls = {"simulate": 0, "adjoint_sweep": 0}

    def counting(name):
        original = getattr(optim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(optim, name, counting(name))
    problem = make_problem()
    history = optimize(problem)
    monkeypatch.undo()

    # rejected line-search candidates are marched but never differentiated
    assert history.evaluations > history.iterations
    assert calls["simulate"] == history.evaluations
    assert calls["adjoint_sweep"] == sweeps_per_iterate * history.iterations
    for record in history.records:
        assert record.objective == evaluate_design(problem, record.sigma)[0]


@dataclasses.dataclass(frozen=True)
class JacobianCountingVanDerPol(VanDerPol):
    """Van der Pol that counts its state-Jacobian evaluations."""

    calls: Counter = dataclasses.field(default_factory=Counter, compare=False)

    def jacobian_state(self, u, sigma, t=0.0):
        self.calls["jacobian_state"] += 1
        return super().jacobian_state(u, sigma, t)


def test_constrained_gradient_builds_step_matrices_once():
    # both models share their dynamics, so the constraint sweep reuses the
    # objective sweep's step matrices: one state Jacobian per step in all
    calls = Counter()
    problem = dataclasses.replace(
        constrained_vdp_problem(),
        objective_model=JacobianCountingVanDerPol(output=OutputKind.FIRST_STATE,
                                                  calls=calls),
        constraint_model=JacobianCountingVanDerPol(
            output=OutputKind.FIRST_STATE_SQUARED, calls=calls),
        pseudo=PseudoTimeConfig(dtau=1.0, tol=1e-12, max_inner=200))
    sigma = problem.design.values
    traj = optim._primal(problem, sigma)[0]
    calls.clear()
    grad_obj, grad_con = optim._gradients(problem, sigma, traj)
    assert calls["jacobian_state"] == problem.grid.n_steps
    # and gives the bits of a sweep that builds its own
    alone = adjoint_sweep(problem.constraint_model, sigma, traj, problem.kind,
                          problem.pseudo)
    assert np.array_equal(grad_con, problem.relaxation * alone.design_derivative)
