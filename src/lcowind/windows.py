"""Averaging windows of increasing smoothness and their discrete weights.

All windows are supported on the open interval (0, 1), integrate to one,
and are symmetric about s = 1/2.  Smoother windows buy faster convergence
of windowed time averages toward the underlying periodic limit value.
"""
from __future__ import annotations

import enum
import math
import operator

import numpy as np

from .errors import InvalidSpanError

__all__ = [
    "Window",
    "NormalizationMode",
    "window_value",
    "bump_normalization",
    "discrete_weights",
    "iter_span_weights",
]

_INF = math.inf

# (average order, sensitivity order) per window
_ORDER_TABLE = {
    "square": (1, 0),
    "hann": (3, 2),
    "hann-square": (5, 4),
    "bump": (_INF, _INF),
}


class NamedEnum(enum.Enum):
    """Enum looked up by its value, ignoring case and surrounding blanks.

    Subclasses pass the label that names them in error messages, as in
    ``class Window(NamedEnum, label="window")``.
    """

    def __init_subclass__(cls, label: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._label = label

    @classmethod
    def from_name(cls, name: str):
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown {cls._label} {name!r}; expected one of: {valid}") from None


class Window(NamedEnum, label="window"):
    """Window selector, ordered from least to most smooth."""

    SQUARE = "square"
    HANN = "hann"
    HANN_SQUARE = "hann-square"
    BUMP = "bump"

    @property
    def order_average(self) -> float:
        """Convergence order of the windowed average in period count."""
        return _ORDER_TABLE[self.value][0]

    @property
    def order_sensitivity(self) -> float:
        """Convergence order of the windowed design sensitivity in period count."""
        return _ORDER_TABLE[self.value][1]


# Window's members in order, as a tuple: iterating the enum class is several
# times slower, and every weight call iterates them
_WINDOWS = tuple(Window)


class NormalizationMode(NamedEnum, label="normalization"):
    """How discrete weights are scaled over a span of N - n_tr steps.

    PAPER_FAITHFUL keeps the raw samples w((n - n_tr)/(N - n_tr)) and the
    1/(N - n_tr) divisor, so a constant signal is reproduced only up to an
    O(1/span) bias for the square window.  RENORMALIZED rescales the weight
    vector so it sums to the span, which reproduces constants to roundoff.
    """

    PAPER_FAITHFUL = "paper-faithful"
    RENORMALIZED = "renormalized"


def bump_normalization() -> float:
    """Normalization constant of the bump window: the integral of
    exp(-1/(s - s^2)) over (0, 1).

    A literal, so no run depends on a quadrature library and importing the
    package loads no quadrature code: the value that adaptive quadrature
    (QUADPACK through scipy's ``quad``, ``epsabs = 0``, ``epsrel = 1e-12``,
    200 subintervals) returns.  A midpoint rule agrees to 1e-10 relative.
    """
    return 0.0070298584066096565


def _hann_square_from_hann(hann: np.ndarray, out: np.ndarray) -> None:
    """Write (2/3) hann^2, the hann-square window, from hann's samples."""
    np.square(hann, out=out)
    np.multiply(out, 2.0 / 3.0, out=out)


def _window_interior(kind: Window, si: np.ndarray, out: np.ndarray) -> None:
    """Write the window at the samples si, all inside (0, 1), into out.

    Each formula is written once, in place: the same ufuncs in the same
    order as the textbook expression, so the bits match it exactly.
    """
    if kind is Window.SQUARE:
        out.fill(1.0)
    elif kind is Window.HANN or kind is Window.HANN_SQUARE:
        # 1 - cos(2 pi s), then (2/3) (1 - cos(2 pi s))^2 for hann-square
        np.multiply(si, 2.0 * np.pi, out=out)
        np.cos(out, out=out)
        np.subtract(1.0, out, out=out)
        if kind is Window.HANN_SQUARE:
            _hann_square_from_hann(out, out)
    elif kind is Window.BUMP:
        # exp(-1/(s - s^2)) / a
        np.multiply(si, si, out=out)
        np.subtract(si, out, out=out)
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
        np.divide(out, bump_normalization(), out=out)
    else:
        raise TypeError(f"not a Window: {kind!r}")


def window_value(kind: Window, s):
    """Evaluate a window at s (scalar or array).  Zero outside (0, 1)."""
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > 0.0) & (arr < 1.0)
    si = arr[inside]
    values = np.empty_like(si)
    _window_interior(kind, si, values)
    out[inside] = values
    if scalar:
        return float(out[0])
    return out


def _step_index(value, name: str) -> None:
    """Raise TypeError, naming the argument, unless value is an integer."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def discrete_weights(kind: Window, n_tr: int, n_final: int,
                     mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL) -> np.ndarray:
    """Sample a window over steps n_tr..n_final inclusive: the weight
    vector, whose entry i weights step n_tr + i for i = 0..n_final - n_tr,
    so the span is its length less one.

    The one-span case of `iter_span_weights`: its buffer fits the span, so
    the vector is returned as it was written, each call its own."""
    return next(iter_span_weights((kind,), n_tr, (n_final,), mode))[0]


def iter_span_weights(kinds, n_tr: int, ends,
                      mode: NormalizationMode = NormalizationMode.PAPER_FAITHFUL):
    """Yield, for each end step in ends, in order, one weight vector per
    kind in kinds, in the order given, each as
    `discrete_weights(kind, n_tr, end, mode)` returns it.

    The inputs are checked once, on the first iteration: a step index that
    is not an integer (operator.index refuses it) raises TypeError naming
    it, a negative n_tr, no end step or a span that is not positive
    InvalidSpanError, a kind that is not a Window TypeError, and a repeated
    kind ValueError, as its one buffer would come back twice.  One ramp
    1..span - 1, one grid buffer and one weight vector per window are
    allocated once, sized to the largest span.  Each span's grid i/span and
    every window's samples are written into their prefixes, entry span is
    zeroed, and RENORMALIZED rescales the prefix in place, so no span
    allocates and a yielded vector is a view that the next span overwrites.
    When hann is among the kinds, hann-square is made from hann's unscaled
    samples by the same square and * 2/3 that end its own kernel, so every
    vector has the bits discrete_weights gives it.
    """
    kinds = tuple(kinds)
    ends = tuple(ends)
    _step_index(n_tr, "n_tr")
    for end in ends:
        _step_index(end, "each end step")
    if n_tr < 0:
        raise InvalidSpanError(f"transient cutoff must be non-negative, got n_tr={n_tr}")
    if not ends:
        raise InvalidSpanError("no end step given")
    first = min(ends)
    if first <= n_tr:
        raise InvalidSpanError(f"averaging span must be positive, got n_tr={n_tr}, N={first}")
    for kind in kinds:
        if not isinstance(kind, Window):
            raise TypeError(f"not a Window: {kind!r}")
    if len(set(kinds)) < len(kinds):  # one buffer per kind
        raise ValueError("must not repeat a window")
    largest = max(ends) - n_tr
    ramp = np.arange(1, largest, dtype=float)
    grid = np.empty_like(ramp)
    # in Window's order, so hann is sampled before hann-square
    buffers = {kind: np.zeros(largest + 1) for kind in _WINDOWS if kind in kinds}
    hann = buffers.get(Window.HANN)
    renormalize = mode is NormalizationMode.RENORMALIZED
    for end in ends:
        span = end - n_tr
        # i/span lies strictly inside (0, 1) for 0 < i < span, and the two
        # endpoint weights are zero for every kind
        si = np.divide(ramp[:span - 1], span, out=grid[:span - 1])
        for kind, values in buffers.items():
            if kind is Window.HANN_SQUARE and hann is not None:
                _hann_square_from_hann(hann[1:span], values[1:span])
            else:
                _window_interior(kind, si, values[1:span])
            values[span] = 0.0
        if renormalize:
            for values in buffers.values():
                weights = values[:span + 1]
                total = weights.sum()
                if total <= 0.0:
                    raise InvalidSpanError(
                        f"span of {span} steps leaves no interior weight to renormalize")
                np.multiply(weights, span / total, out=weights)
        yield [buffers[kind][:span + 1] for kind in kinds]
