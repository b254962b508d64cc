"""Projected-gradient design loop driven by windowed adjoint gradients.

The constrained problem min J_w(sigma) subject to C_w(sigma) >= bound and
box bounds is handled with a quadratic penalty on the constraint and exact
projection onto the box.  Gradients come from the discrete adjoint, so the
cost per iteration is independent of the number of design variables.
"""
from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointMode, adjoint_sweep
from .analysis import windowed_average
from .errors import LcoError
from .models import DesignVector, OutputKind
from .primal import PseudoTimeConfig, TimeGrid, simulate
from .windows import NormalizationMode, Window, _step_index

__all__ = ["DesignProblem", "DesignRecord", "DesignHistory",
           "evaluate_design", "optimize"]


@dataclass(frozen=True)
class DesignProblem:
    """A windowed-average design problem over one dynamical model.

    The objective is the windowed average of the objective model's output;
    the optional constraint requires the windowed average of another output
    of the same march, constraint_output, to stay at or above `bound`.  Both
    use the same window kind.  The constraint model is the objective model
    with its `output` field set to constraint_output, formed here once, so
    the two share their dynamics by construction and the constraint sweep
    may reuse the objective sweep's step matrices; it is None with no
    constraint.  A constraint_output on a model with no `output` field
    raises ValueError naming the model, and max_iterations and
    max_backtracks must be integers (TypeError naming either).
    """

    objective_model: object
    design: DesignVector
    grid: TimeGrid
    kind: Window = Window.BUMP
    constraint_output: OutputKind | None = None
    bound: float = 0.0
    relaxation: float = 0.1
    max_iterations: int = 100
    pseudo: PseudoTimeConfig = field(default_factory=PseudoTimeConfig)
    normalization: NormalizationMode = NormalizationMode.PAPER_FAITHFUL
    adjoint_mode: AdjointMode = AdjointMode.FIXED_POINT
    penalty: float = 100.0
    grad_tolerance: float = 1e-8
    max_backtracks: int = 30
    constraint_model: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _step_index(self.max_iterations, "max_iterations")
        _step_index(self.max_backtracks, "max_backtracks")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation factor must lie in (0, 1]")
        if self.constraint_output is not None and not math.isfinite(self.bound):
            raise ValueError("constraint bound must be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("penalty coefficient must be positive and finite")
        if not 0.0 <= self.grad_tolerance < math.inf:
            raise ValueError("grad_tolerance must be non-negative and finite")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be non-negative")
        constraint_model = None
        if self.constraint_output is not None:
            model = self.objective_model
            if not (dataclasses.is_dataclass(model)
                    and "output" in {f.name for f in dataclasses.fields(model)}):
                raise ValueError(f"constraint_output: the objective model "
                                 f"{type(model).__name__} has no output field")
            constraint_model = dataclasses.replace(model, output=self.constraint_output)
        object.__setattr__(self, "constraint_model", constraint_model)


@dataclass
class DesignRecord:
    iteration: int
    sigma: np.ndarray
    objective: float
    constraint: float
    feasible: bool
    merit: float
    grad_norm: float       # norm of the projected gradient step
    step_size: float       # accepted line-search step, 0.0 when none taken
    penalty: float


@dataclass
class DesignHistory:
    records: list[DesignRecord]
    final_design: np.ndarray
    converged: bool
    line_search_failed: bool
    iterations: int
    evaluations: int
    message: str


def evaluate_design(problem: DesignProblem, sigma):
    """Objective, constraint, and their relaxed adjoint gradients at sigma.

    Returns (J_w, C_w, grad_J, grad_C) with both gradients scaled by the
    problem's relaxation factor.  With no constraint model, C_w is +inf
    and grad_C is zero.  Solver failures are re-raised with the offending
    design attached as a `design_iterate` attribute.
    """
    values = np.asarray(getattr(sigma, "values", sigma), dtype=float)
    traj, objective, constraint = _primal(problem, values)
    return (objective, constraint) + _gradients(problem, values, traj)


@contextmanager
def _tagged(values):
    """Attach the design to any LcoError raised inside as `design_iterate`."""
    try:
        yield
    except LcoError as exc:
        exc.design_iterate = values.copy()
        raise


def _primal(problem, values):
    """March the design and return (trajectory, J_w, C_w); C_w is +inf
    with no constraint model."""
    window_args = (problem.kind, problem.grid.n_transient, problem.grid.n_steps,
                   problem.normalization)
    with _tagged(values):
        traj = simulate(problem.objective_model, values, problem.grid,
                        problem.pseudo)
        objective = windowed_average(traj.outputs, *window_args)
        if problem.constraint_model is None:
            return traj, objective, math.inf
        con_outputs = problem.constraint_model.output_value(traj.states, values)
        return traj, objective, windowed_average(con_outputs, *window_args)


def _gradients(problem, values, traj):
    """Relaxed adjoint gradients (grad_J, grad_C) over traj, the march at
    values; grad_C is zero with no constraint model.  The constraint model
    shares the objective's dynamics, so its sweep reuses the objective
    sweep's step matrices."""
    def sweep(model, steps=None):
        return adjoint_sweep(model, values, traj, problem.kind, problem.pseudo,
                             problem.adjoint_mode, problem.normalization,
                             steps=steps)

    with _tagged(values):
        objective = sweep(problem.objective_model)
        grad_obj = problem.relaxation * objective.design_derivative
        if problem.constraint_model is None:
            return grad_obj, np.zeros_like(grad_obj)
        constraint = sweep(problem.constraint_model, objective.steps)
        return grad_obj, problem.relaxation * constraint.design_derivative


def _merit(problem, objective, constraint, penalty):
    if problem.constraint_model is None:
        return objective
    return objective + penalty * max(0.0, problem.bound - constraint) ** 2


def _merit_gradient(problem, constraint, grad_obj, grad_con, penalty):
    if problem.constraint_model is None:
        return grad_obj
    violation = max(0.0, problem.bound - constraint)
    return grad_obj - 2.0 * penalty * violation * grad_con


def optimize(problem: DesignProblem, sigma0=None) -> DesignHistory:
    """Projected-gradient descent on the penalized windowed objective.

    Each iteration takes a backtracking step along the negative merit
    gradient, projecting every candidate onto the box.  Stops when the
    projected-gradient step drops below the tolerance, the iteration
    budget runs out, the line search stalls (reported as a flag, not an
    exception), or the accepted candidate's merit is no lower than the
    current one (the candidate is not taken).  The penalty doubles at the
    third infeasible iterate in a row, before that iterate's merit is
    formed.  Line-search candidates are only marched; the
    adjoint gradients are computed once a candidate is accepted, on the
    trajectory its march left.
    """
    design = problem.design
    sigma = design.project(np.asarray(
        getattr(sigma0, "values", sigma0 if sigma0 is not None else design.values),
        dtype=float))

    records: list[DesignRecord] = []
    penalty = problem.penalty
    infeasible_streak = 0
    evaluations = 0
    converged = False
    failed = False
    message = "iteration budget exhausted"

    objective, constraint, grad_obj, grad_con = evaluate_design(problem, sigma)
    evaluations += 1
    traj = None  # march of an accepted candidate, owed its gradients

    for iteration in range(1, problem.max_iterations + 1):
        if traj is not None:
            grad_obj, grad_con = _gradients(problem, sigma, traj)
            traj = None
        # the penalty changes before the merit is formed, so the line search
        # compares candidates with a reference merit at the same penalty
        feasible = problem.constraint_model is None or constraint >= problem.bound
        if not feasible:
            infeasible_streak += 1
            if infeasible_streak >= 3:
                penalty *= 2.0
                infeasible_streak = 0
        else:
            infeasible_streak = 0
        merit = _merit(problem, objective, constraint, penalty)
        grad = _merit_gradient(problem, constraint, grad_obj, grad_con, penalty)
        projected_step = sigma - design.project(sigma - grad)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, with no warning
            grad_norm = float(np.linalg.norm(projected_step))

        record = DesignRecord(iteration=iteration, sigma=sigma.copy(),
                              objective=objective, constraint=constraint,
                              feasible=feasible, merit=merit,
                              grad_norm=grad_norm, step_size=0.0,
                              penalty=penalty)
        records.append(record)

        if grad_norm < problem.grad_tolerance:
            converged = True
            message = "projected gradient below tolerance"
            break

        step = 1.0
        accepted = False
        for _ in range(problem.max_backtracks + 1):
            candidate = design.project(sigma - step * grad)
            cand_traj, cand_obj, cand_con = _primal(problem, candidate)
            evaluations += 1
            cand_merit = _merit(problem, cand_obj, cand_con, penalty)
            decrease = float(grad @ (sigma - candidate))
            if cand_merit <= merit - 1e-4 * decrease:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            failed = True
            message = "line search failed to find descent"
            break
        if not cand_merit < merit:
            # the sufficient-decrease margin rounded away: at the merit's
            # noise floor the iterates would only alternate
            message = "merit stopped decreasing"
            break

        record.step_size = step
        sigma = candidate
        objective, constraint, traj = cand_obj, cand_con, cand_traj

    return DesignHistory(records=records, final_design=sigma.copy(),
                         converged=converged, line_search_failed=failed,
                         iterations=len(records), evaluations=evaluations,
                         message=message)
