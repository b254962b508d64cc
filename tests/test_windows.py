"""Tests for window functions and discrete averaging weights."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from lcowind.analysis import convergence_study, divergence_diagnostic, windowed_average
from lcowind.errors import InvalidSpanError
from lcowind.tangent import TangentTrajectory, windowed_tangent_sensitivity
from lcowind.windows import (NormalizationMode, Window, bump_normalization,
                             discrete_weights, iter_span_weights, window_value)

ALL_WINDOWS = list(Window)

# Normalization constant of the unscaled bump profile exp(-1/(s - s^2)):
# the literal the library returns.  Pinned by two independent computations:
# adaptive quadrature with the settings below, and a midpoint rule.
BUMP_NORM = 0.0070298584066096565


@pytest.mark.parametrize("kind", ALL_WINDOWS)
def test_quadrature_is_one(kind):
    value, err = quad(lambda s: window_value(kind, s), 0.0, 1.0, limit=200)
    assert abs(value - 1.0) < 1e-10
    assert err < 1e-9


def test_bump_normalization_frozen_constant():
    assert bump_normalization() == BUMP_NORM


def test_bump_normalization_matches_adaptive_quadrature():
    # the settings the literal was computed with: a pure relative tolerance
    # of 1e-12, kept above scipy's floor of about 50 eps
    rel = max(1e-12, 60.0 * np.finfo(float).eps)
    value, estimate = quad(lambda s: math.exp(-1.0 / (s - s * s)), 0.0, 1.0,
                           epsabs=0.0, epsrel=rel, limit=200)
    assert estimate <= 10.0 * rel * value
    assert abs(value - bump_normalization()) <= math.ulp(BUMP_NORM)


def test_bump_normalization_midpoint_oracle():
    # independent midpoint-rule evaluation of the same integral
    n = 200_000
    s = (np.arange(n) + 0.5) / n
    riemann = np.exp(-1.0 / (s - s * s)).sum() / n
    assert bump_normalization() == pytest.approx(riemann, rel=1e-10)


def test_midpoint_values():
    a = bump_normalization()
    assert window_value(Window.SQUARE, 0.5) == 1.0
    assert window_value(Window.HANN, 0.5) == pytest.approx(2.0, rel=1e-15)
    assert window_value(Window.HANN_SQUARE, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert window_value(Window.BUMP, 0.5) == pytest.approx(math.exp(-4.0) / a, rel=1e-14)
    # the normalization is smaller than the peak height's reciprocal scale
    assert a < math.exp(-4.0)


@pytest.mark.parametrize("kind", ALL_WINDOWS)
def test_support_symmetry_nonnegativity(kind):
    s = np.linspace(0.0, 1.0, 10_001)
    w = window_value(kind, s)
    assert np.all(w >= 0.0)
    assert np.allclose(w, w[::-1], atol=1e-12)
    # zero at the endpoints and outside the open unit interval
    assert w[0] == 0.0 and w[-1] == 0.0
    outside = np.array([-1.0, -1e-9, 1.0 + 1e-9, 2.0])
    assert np.all(window_value(kind, outside) == 0.0)


def test_window_value_scalar_and_shape():
    assert isinstance(window_value(Window.HANN, 0.25), float)
    arr = window_value(Window.HANN, np.linspace(0, 1, 7).reshape(7, 1))
    assert arr.shape == (7, 1)


def test_order_table():
    # (average order, sensitivity order) per window
    table = {
        Window.SQUARE: (1, 0),
        Window.HANN: (3, 2),
        Window.HANN_SQUARE: (5, 4),
        Window.BUMP: (math.inf, math.inf),
    }
    for kind, (p, ps) in table.items():
        assert kind.order_average == p
        assert kind.order_sensitivity == ps


def test_from_name_roundtrip_and_errors():
    for kind in ALL_WINDOWS:
        assert Window.from_name(kind.value) is kind
    assert Window.from_name(" Hann ") is Window.HANN
    with pytest.raises(ValueError, match="unknown window"):
        Window.from_name("hamming")
    with pytest.raises(ValueError, match="unknown normalization"):
        NormalizationMode.from_name("renorm")


def test_hann_weights_span_four_example():
    # w((n - n_tr)/4) for n = n_tr..n_tr+4 with hann is [0, 1, 2, 1, 0]
    weights = discrete_weights(Window.HANN, 3, 7, NormalizationMode.PAPER_FAITHFUL)
    assert len(weights) == 5
    assert np.allclose(weights, [0.0, 1.0, 2.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("span", [4, 7, 33, 250])
def test_trig_weight_sums_are_exact(span):
    # the hann and hann-square sums telescope to exactly the span, while
    # the square window misses the two zeroed endpoints
    for kind in (Window.HANN, Window.HANN_SQUARE):
        w = discrete_weights(kind, 0, span, NormalizationMode.PAPER_FAITHFUL)
        assert w.sum() == pytest.approx(span, abs=1e-10 * span)
    sq = discrete_weights(Window.SQUARE, 0, span, NormalizationMode.PAPER_FAITHFUL)
    assert sq.sum() == span - 1


@pytest.mark.parametrize("kind", ALL_WINDOWS)
@pytest.mark.parametrize("span", [3, 10, 101])
def test_renormalized_sums(kind, span):
    w = discrete_weights(kind, 5, 5 + span, NormalizationMode.RENORMALIZED)
    assert w.sum() == pytest.approx(span, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_WINDOWS)
def test_weights_endpoints_zero_and_symmetric(kind):
    w = discrete_weights(kind, 0, 64, NormalizationMode.PAPER_FAITHFUL)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.allclose(w, w[::-1], atol=1e-12)


def test_invalid_spans_raise():
    with pytest.raises(InvalidSpanError):
        discrete_weights(Window.HANN, 10, 10, NormalizationMode.PAPER_FAITHFUL)
    with pytest.raises(InvalidSpanError):
        discrete_weights(Window.HANN, 10, 4, NormalizationMode.PAPER_FAITHFUL)
    # a span of one step keeps only the two zero endpoints, so the
    # renormalized mode has nothing to rescale
    with pytest.raises(InvalidSpanError):
        discrete_weights(Window.BUMP, 0, 1, NormalizationMode.RENORMALIZED)
    # a negative cutoff would slice the series from its end
    tangent = TangentTrajectory(np.zeros((20, 2, 1)), np.zeros((20, 1)), 0)
    for average in (lambda: discrete_weights(Window.HANN, -5, 10),
                    lambda: windowed_average(np.arange(20.0), Window.HANN, -5, 10),
                    lambda: windowed_tangent_sensitivity(tangent, Window.HANN, -5, 10)):
        with pytest.raises(InvalidSpanError, match="n_tr=-5"):
            average()


def test_weights_match_window_samples():
    n_tr, n_final = 7, 57
    span = n_final - n_tr
    for kind in ALL_WINDOWS:
        w = discrete_weights(kind, n_tr, n_final, NormalizationMode.PAPER_FAITHFUL)
        s = (np.arange(span + 1)) / span
        assert np.array_equal(w, np.asarray(window_value(kind, s)))


def textbook_window(kind, s):
    """Each window's formula as a plain expression with fresh temporaries,
    masked to the open unit interval; shares no code with the library."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    if kind is Window.SQUARE:
        out[inside] = 1.0
    elif kind is Window.HANN:
        out[inside] = 1.0 - np.cos(2.0 * np.pi * si)
    elif kind is Window.HANN_SQUARE:
        out[inside] = (2.0 / 3.0) * (1.0 - np.cos(2.0 * np.pi * si)) ** 2
    else:
        out[inside] = np.exp(-1.0 / (si - si * si)) / bump_normalization()
    return out


def textbook_weights(kind, span, mode):
    values = textbook_window(kind, np.arange(span + 1, dtype=float) / span)
    if mode is NormalizationMode.RENORMALIZED:
        values = values * (span / values.sum())
    return values


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("kind", ALL_WINDOWS)
def test_weights_equal_textbook_formulas_bit_for_bit(kind, mode):
    for span in [*range(1, 2001), 10_007, 16_384, 25_000]:
        if span == 1 and mode is NormalizationMode.RENORMALIZED:
            continue  # no interior weight; test_invalid_spans_raise covers it
        values = discrete_weights(kind, 3, 3 + span, mode)
        assert values.tobytes() == textbook_weights(kind, span, mode).tobytes(), span


@pytest.mark.parametrize("kind", ALL_WINDOWS)
def test_window_value_equals_textbook_formula_bit_for_bit(kind):
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    points = np.concatenate([
        rng.random(20_000), rng.uniform(-0.5, 1.5, 2_000),
        [0.0, -0.0, 1.0, 0.5, 5e-324, 3 * 5e-324, tiny / 4, tiny, -5e-324,
         1.0 - 2.0 ** -53, np.nextafter(1.0, 2.0), -np.inf, np.inf]])
    with np.errstate(over="ignore"):
        expected = textbook_window(kind, points)
        assert window_value(kind, points).tobytes() == expected.tobytes()
        assert all(window_value(kind, float(p)) == float(e)
                   for p, e in zip(points[-13:], expected[-13:]))


# every ordered subset of the four windows, hann-square alone and listed
# before hann among them
KIND_ORDERS = [order for size in range(1, len(ALL_WINDOWS) + 1)
               for order in itertools.permutations(ALL_WINDOWS, size)]


def one_span_weights(kinds, n_tr, n_final, mode=NormalizationMode.PAPER_FAITHFUL):
    """The sampler's weight vectors over the one span n_tr..n_final."""
    return next(iter_span_weights(kinds, n_tr, (n_final,), mode))


def assert_one_span_weights_equal_discrete_weights(orders, span, mode):
    expected = {kind: discrete_weights(kind, 3, 3 + span, mode).tobytes()
                for kind in ALL_WINDOWS}
    for kinds in orders:
        got = one_span_weights(kinds, 3, 3 + span, mode)
        assert len(got) == len(kinds)
        for kind, values in zip(kinds, got):
            assert values.tobytes() == expected[kind], (kinds, span)


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_one_span_weights_equal_discrete_weights_bit_for_bit(mode):
    # hann-square made from hann's samples must keep its own kernel's bits
    for span in [*range(1, 5001), 9731, 19350]:
        if span == 1 and mode is NormalizationMode.RENORMALIZED:
            continue  # no interior weight; the next test covers it
        orders = KIND_ORDERS if span <= 12 or span > 5000 else (
            tuple(ALL_WINDOWS), (Window.HANN_SQUARE, Window.HANN))
        assert_one_span_weights_equal_discrete_weights(orders, span, mode)


def test_one_span_weights_keep_the_span_checks():
    with pytest.raises(InvalidSpanError) as single:
        discrete_weights(Window.HANN, 0, 1, NormalizationMode.RENORMALIZED)
    assert str(single.value) == "span of 1 steps leaves no interior weight to renormalize"
    for kinds in KIND_ORDERS:
        with pytest.raises(InvalidSpanError) as several:
            one_span_weights(kinds, 0, 1, NormalizationMode.RENORMALIZED)
        assert str(several.value) == str(single.value)
    with pytest.raises(InvalidSpanError, match="n_tr=-5"):
        one_span_weights(ALL_WINDOWS, -5, 10)
    with pytest.raises(InvalidSpanError, match="must be positive"):
        one_span_weights(ALL_WINDOWS, 10, 10)
    with pytest.raises(TypeError, match="not a Window"):
        one_span_weights([Window.HANN, "hann"], 0, 10)
    assert one_span_weights([], 0, 10) == []


def test_the_sampler_names_an_empty_list_of_end_steps():
    # checked with the other inputs, before min() would meet the empty list
    for ends in ((), []):
        with pytest.raises(InvalidSpanError, match="^no end step given$"):
            next(iter_span_weights(ALL_WINDOWS, 3, ends))
    with pytest.raises(InvalidSpanError, match="n_tr=-1"):
        next(iter_span_weights(ALL_WINDOWS, -1, ()))


def test_one_span_weights_reject_a_repeated_window():
    # the sampler keeps one buffer per kind, so a repeated kind would come
    # back as two views of one buffer
    with pytest.raises(ValueError, match="^must not repeat a window$"):
        one_span_weights([Window.HANN, Window.HANN], 0, 10)
    with pytest.raises(ValueError, match="^must not repeat a window$"):
        one_span_weights([Window.BUMP, Window.SQUARE, Window.BUMP], 3, 40,
                         NormalizationMode.RENORMALIZED)


@pytest.mark.parametrize("study", [convergence_study, divergence_diagnostic])
def test_studies_reject_a_repeated_window(study):
    series = 2.0 + np.sin(np.arange(3000) * 0.05)
    with pytest.raises(ValueError, match="^must not repeat a window$"):
        study(series, [Window.HANN, Window.BUMP, Window.HANN], 3, 0.05, [2, 4, 8])


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_returned_weights_are_writeable_distinct_and_kept(mode):
    # a one-span sampler returns its own buffers: each call must make its
    # own, which no later call or study writes into
    arrays = [values for kinds in KIND_ORDERS
              for values in one_span_weights(kinds, 3, 3 + 40, mode)]
    arrays += [discrete_weights(kind, 3, 3 + span, mode)
               for kind in ALL_WINDOWS for span in (2, 40, 900)]
    assert all(values.flags.writeable for values in arrays)
    assert not any(np.may_share_memory(a, b) for a, b in itertools.combinations(arrays, 2))
    kept = [values.tobytes() for values in arrays]
    one_span_weights(ALL_WINDOWS, 3, 3 + 40, mode)
    one_span_weights(ALL_WINDOWS, 0, 900, mode)
    series = 2.0 + np.sin(np.arange(3000) * 0.05)
    convergence_study(series, ALL_WINDOWS, 3, 0.05, [2, 4, 8], reference=2.0, mode=mode)
    assert [values.tobytes() for values in arrays] == kept
