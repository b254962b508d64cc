"""Exception types shared across the package."""


class LcoError(Exception):
    """Base class for errors raised by this package."""


class InvalidSpanError(LcoError, ValueError):
    """Averaging span is empty, reversed, or otherwise unusable."""


class DesignDomainError(LcoError, ValueError):
    """Design lies outside the set on which the model is defined."""


class SingularStepError(LcoError):
    """A physical step's matrix is singular, so its system has no unique solution."""

    def __init__(self, step=None):
        self.step = step
        where = "" if step is None else f"step {step}: "
        super().__init__(f"{where}step matrix is singular")


class StepConvergenceError(LcoError):
    """Inner pseudo-time iteration failed to converge on a physical step.

    floor is the extended residual's roundoff floor at the step's last
    iterate, if known; a tolerance below it cannot be met, and the message
    says so.
    """

    def __init__(self, step, iterations, residual_norm, floor=None, tol=None):
        self.step = step
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.floor = floor
        message = (f"step {step}: inner iteration stalled after {iterations} iterations "
                   f"(residual norm {residual_norm:.3e})")
        if floor is not None and tol is not None and tol < floor:
            message += (f"; the tolerance {tol:.3e} lies below the residual's roundoff "
                        f"floor {floor:.3e}")
        super().__init__(message)


class AdjointDivergenceError(LcoError):
    """Adjoint fixed-point iteration failed to contract on a step."""

    def __init__(self, step, iterations, residual_norm, contraction=None):
        self.step = step
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.contraction = contraction
        estimate = "" if contraction is None else f", contraction estimate {contraction:.3f}"
        super().__init__(
            f"adjoint step {step}: no convergence after {iterations} iterations "
            f"(residual norm {residual_norm:.3e}{estimate})"
        )


class PeriodUndetectableError(LcoError):
    """Too few mean crossings to estimate an oscillation period."""


class DegenerateFitError(LcoError):
    """Not enough usable points above the noise floor for a slope fit."""


class ConfigError(LcoError):
    """Run configuration is missing, malformed, or contains unknown keys."""
