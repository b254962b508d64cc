"""Windowed averaging of recorded series and convergence-order studies.

The study helpers work on plain time series, so the same code measures
average convergence (pass the output series) and sensitivity convergence
(pass the sensitivity series).  Spans are measured in periods of the
underlying oscillation; the period is estimated from the series itself
unless the caller supplies it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InvalidSpanError
from .primal import estimate_period
from .windows import NormalizationMode, Window, discrete_weights, iter_span_weights

__all__ = ["ConvergenceStudy", "DivergenceDiagnostic", "windowed_average",
           "convergence_study", "endpoint_shift_robustness",
           "divergence_diagnostic"]

# Spans land a quarter period past each requested count.  Whole-period
# spans are degenerate for the trigonometric windows: their weighted
# averages of any periodic signal are then exact to machine precision,
# which leaves nothing to fit a convergence order on.  The quarter point
# keeps every window's leading error term active at once.
DEFAULT_SPAN_OFFSET = 0.25

# End step for the self-computed reference when no closed form is given.
REFERENCE_PERIOD_COUNT = 300.0

NOISE_FLOOR_FACTOR = 100.0

# Relative margin by which a divergence diagnostic's entry must exceed the
# running maximum of the earlier ones to be flagged as growth.
GROWTH_MARGIN = 1e-3


def windowed_average(outputs, kind: Window, n_tr: int, n_final: int,
                     mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL) -> float:
    """Discrete windowed time average of a recorded series."""
    series = np.asarray(outputs, dtype=float)
    if series.ndim != 1:
        raise ValueError("outputs must be a one-dimensional series")
    return float(_windowed_sum(series, kind, n_tr, n_final, mode))


@np.errstate(over="ignore", invalid="ignore")
def _windowed_sum(series, kind, n_tr, n_final, mode):
    """The windowed average of every column of a series indexed by step
    first over steps n_tr..n_final, with the weights of `discrete_weights`."""
    if n_final > len(series) - 1:
        raise InvalidSpanError(
            f"final step {n_final} exceeds recorded length {len(series) - 1}")
    return _weighted_sums(series[n_tr:n_final + 1], n_final - n_tr,
                          [discrete_weights(kind, n_tr, n_final, mode)])[0]


def _weighted_sums(window, span, all_weights):
    """(1/span) sum_i w_i window[i], one per weight vector in all_weights.
    A sum that is not finite is taken again over the window divided by the
    span first, so a finite series whose average is finite does not
    overflow; every finite sum is kept as it is.  The caller ignores
    overflow and invalid values."""
    averages = [weights @ window / span for weights in all_weights]
    if window.ndim == 1 and all(map(math.isfinite, averages)):
        return averages
    return [np.where(np.isfinite(average), average, weights @ (window / span))
            for weights, average in zip(all_weights, averages)]


@dataclass
class ConvergenceStudy:
    """Windowed values and errors over a list of span lengths."""

    kind: Window
    requested_k: np.ndarray     # strictly increasing period counts
    realized_k: np.ndarray      # spans actually used, in measured periods
    end_steps: np.ndarray       # final step index per entry
    values: np.ndarray          # windowed averages
    errors: np.ndarray          # |value - reference|
    reference: float
    reference_source: str       # "closed-form" or "bump@k=..."
    period: float
    slope: float | None         # positive decay order, None if not fitted
    fit_residual: float | None  # rms log-space misfit of the line
    fit_mask: np.ndarray        # entries used by the fit
    noise_floor: float


@dataclass
class DivergenceDiagnostic:
    """Windowed values over growing spans, with growth flags."""

    kind: Window
    requested_k: np.ndarray
    end_steps: np.ndarray
    values: np.ndarray
    growth_flags: np.ndarray    # bool, entry exceeds the running magnitude
    any_growth: bool


def _end_steps(k_list, n_tr, dt, period, span_offset, length):
    ks = np.asarray(list(k_list), dtype=float)
    if ks.size == 0:
        raise InvalidSpanError("empty span list")
    if not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise InvalidSpanError(f"period counts must be positive and finite, got {ks.tolist()}")
    if np.any(np.diff(ks) <= 0.0):
        raise InvalidSpanError("span list must be strictly increasing")
    # checked as floats, so an end step beyond the int range or NaN cannot
    # wrap in the cast; one that overflows is inf, which the check rejects
    with np.errstate(over="ignore"):
        ends = n_tr + np.rint((ks + span_offset) * period / dt)
    if not ends[-1] <= length - 1:
        raise InvalidSpanError(
            f"series of length {length} too short for {ks[-1]:g} periods "
            f"(needs step {ends[-1]:.17g})")
    if not ends[0] > n_tr:
        raise InvalidSpanError("smallest span rounds to zero steps")
    ends = ends.astype(int)
    realized = (ends - n_tr) * dt / period
    return ks, ends, realized


def _span_values(series, kinds, n_tr, dt, k_list, period, span_offset, mode):
    """The series as floats, its period (estimated from it unless given),
    the requested period counts, end steps and realized spans of the spans
    in k_list, and per window in kinds, in order, its windowed averages
    over those spans.  Each end step is visited once for all the windows,
    whose weights one sampler writes into buffers sized to the largest
    span."""
    data = np.asarray(series, dtype=float)
    if data.ndim != 1:
        raise ValueError("outputs must be a one-dimensional series")
    if period is None:
        period, _ = estimate_period(data, n_tr, dt)
    ks, ends, realized = _end_steps(k_list, n_tr, dt, period, span_offset, data.size)
    end_list = ends.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        per_end = [_weighted_sums(data[n_tr:end + 1], end - n_tr, weights)
                   for end, weights in zip(end_list,
                                           iter_span_weights(kinds, n_tr, end_list, mode))]
    values = [np.array(column, dtype=float) for column in zip(*per_end)]
    return data, period, ks, ends, realized, values


def _fit_loglog(requested_k, errors, noise_floor):
    mask = errors > noise_floor
    if int(mask.sum()) < 2:
        return None, None, mask
    x = np.log(requested_k[mask])
    y = np.log(errors[mask])
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    rms = float(np.sqrt(residuals[0] / x.size)) if residuals.size else 0.0
    return float(-coeffs[0]), rms, mask


def convergence_study(series, kinds, n_tr: int, dt: float, k_list,
                      reference: float | None = None,
                      period: float | None = None,
                      span_offset: float = DEFAULT_SPAN_OFFSET,
                      mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                      ) -> list[ConvergenceStudy]:
    """Windowed averages against span length, with a fitted decay order,
    one study per window in kinds, in order.

    The positive `slope` means the error shrinks like span^(-slope).  The
    fit uses the requested period counts and drops entries whose error
    sits at the floating-point noise floor of the reference.  A study
    whose spans all sit at that floor has no fittable order and raises,
    naming the first such window; single-entry studies skip the fit
    instead.  Without a closed-form reference, one bump average over a
    long span serves every window.  The studies share their span arrays.
    """
    kinds = tuple(kinds)
    data, period, ks, ends, realized, values = _span_values(
        series, kinds, n_tr, dt, k_list, period, span_offset, mode)
    if reference is None:
        ref_end = n_tr + int(round((REFERENCE_PERIOD_COUNT + span_offset)
                                   * period / dt))
        ref_end = min(ref_end, data.size - 1)
        if ref_end < ends[-1]:
            raise InvalidSpanError(
                "series too short to compute a reference beyond the largest span")
        ref_k = (ref_end - n_tr) * dt / period
        reference = windowed_average(data, Window.BUMP, n_tr, ref_end, mode)
        reference_source = f"bump@k={ref_k:.6g}"
    else:
        reference = float(reference)
        reference_source = "closed-form"

    studies = []
    for kind, kind_values in zip(kinds, values):
        errors = np.abs(kind_values - reference)
        scale = abs(reference)
        if scale == 0.0:
            scale = float(np.max(np.abs(kind_values))) or 1.0
        noise_floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * scale

        slope, fit_residual, fit_mask = _fit_loglog(ks, errors, noise_floor)
        if slope is None and ks.size >= 2:
            raise DegenerateFitError(
                f"{kind.value}: fewer than two spans above the noise floor "
                f"{noise_floor:.3e}; nothing to fit")
        studies.append(ConvergenceStudy(
            kind=kind, requested_k=ks, realized_k=realized, end_steps=ends,
            values=kind_values, errors=errors, reference=reference,
            reference_source=reference_source, period=period, slope=slope,
            fit_residual=fit_residual, fit_mask=fit_mask, noise_floor=noise_floor))
    return studies


def endpoint_shift_robustness(sensitivity_fn, kind: Window, n_tr: int,
                              n_final: int, shift: int) -> float:
    """Relative change of a sensitivity vector when the averaging endpoint
    moves by `shift` steps.

    `sensitivity_fn(kind, n_tr, n_final)` must return the sensitivity
    vector for that window and span.
    """
    baseline = np.asarray(sensitivity_fn(kind, n_tr, n_final), dtype=float)
    shifted = np.asarray(sensitivity_fn(kind, n_tr, n_final + shift),
                         dtype=float)
    norm = float(np.linalg.norm(baseline))
    if norm == 0.0:
        raise ValueError("baseline sensitivity vector has zero norm")
    return float(np.linalg.norm(shifted - baseline) / norm)


def divergence_diagnostic(series, kinds, n_tr: int, dt: float, k_list,
                          period: float | None = None,
                          span_offset: float = DEFAULT_SPAN_OFFSET,
                          mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL,
                          ) -> list[DivergenceDiagnostic]:
    """Windowed values over growing spans without any convergence claim,
    one diagnostic per window in kinds, in order.

    An entry is flagged when its magnitude exceeds the running maximum of
    all earlier entries by more than GROWTH_MARGIN, the signature of a
    diverging windowed quantity.  The diagnostics share their span arrays.
    """
    kinds = tuple(kinds)
    _, _, ks, ends, _, values = _span_values(series, kinds, n_tr, dt, k_list, period,
                                             span_offset, mode)
    diagnostics = []
    for kind, kind_values in zip(kinds, values):
        flags = np.zeros(ks.size, dtype=bool)
        running = abs(kind_values[0])
        for i in range(1, ks.size):
            magnitude = abs(kind_values[i])
            flags[i] = magnitude > running * (1.0 + GROWTH_MARGIN)
            running = max(running, magnitude)
        diagnostics.append(DivergenceDiagnostic(
            kind=kind, requested_k=ks, end_steps=ends, values=kind_values,
            growth_flags=flags, any_growth=bool(flags.any())))
    return diagnostics
