"""Windowed time averaging and design sensitivities of limit-cycle
oscillations, with tangent and adjoint gradients of an implicit BDF2
solver and a projected-gradient design loop on top.
"""

__version__ = "0.1.0"

from .adjoint import AdjointMode, AdjointSweep, adjoint_sweep
from .analysis import (ConvergenceStudy, DivergenceDiagnostic, convergence_study,
                       divergence_diagnostic, endpoint_shift_robustness,
                       windowed_average)
from .errors import (AdjointDivergenceError, ConfigError, DegenerateFitError,
                     DesignDomainError, InvalidSpanError, LcoError,
                     PeriodUndetectableError, SingularStepError, StepConvergenceError)
from .models import AnalyticSignal, DesignVector, ForcedOscillator, OutputKind, VanDerPol
from .optim import DesignHistory, DesignProblem, DesignRecord, evaluate_design, optimize
from .primal import (PseudoTimeConfig, TimeGrid, Trajectory, estimate_period, simulate,
                     step_coefficients)
from .tangent import TangentTrajectory, tangent_sweep, windowed_tangent_sensitivity
from .windows import (NormalizationMode, Window, bump_normalization, discrete_weights,
                      iter_span_weights, window_value)

__all__ = [
    "__version__",
    "AdjointMode", "AdjointSweep", "adjoint_sweep",
    "ConvergenceStudy", "DivergenceDiagnostic", "convergence_study",
    "divergence_diagnostic", "endpoint_shift_robustness", "windowed_average",
    "AdjointDivergenceError", "ConfigError", "DegenerateFitError",
    "DesignDomainError", "InvalidSpanError", "LcoError", "PeriodUndetectableError",
    "SingularStepError", "StepConvergenceError",
    "AnalyticSignal", "DesignVector", "ForcedOscillator", "OutputKind", "VanDerPol",
    "DesignHistory", "DesignProblem", "DesignRecord", "evaluate_design", "optimize",
    "PseudoTimeConfig", "TimeGrid", "Trajectory", "estimate_period", "simulate",
    "step_coefficients",
    "TangentTrajectory", "tangent_sweep", "windowed_tangent_sensitivity",
    "NormalizationMode", "Window", "bump_normalization", "discrete_weights",
    "iter_span_weights", "window_value",
]
