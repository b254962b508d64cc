"""Tests for windowed averaging, convergence studies, and diagnostics."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from lcowind import windows
from lcowind.analysis import (DEFAULT_SPAN_OFFSET, _windowed_sum, convergence_study,
                              divergence_diagnostic,
                              endpoint_shift_robustness, windowed_average)
from lcowind.errors import DegenerateFitError, InvalidSpanError
from lcowind.models import AnalyticSignal
from lcowind.primal import estimate_period
from lcowind.windows import NormalizationMode, Window

SIG = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8, base_period=1.0)
SIGMA = np.array([0.3])
PERIOD = 1.3
MEAN = 2.21
DT = 0.01
N_TR = 137


def signal_series(k_max, sig=SIG, sigma=SIGMA, n_tr=N_TR, dt=DT, pad=10):
    period = sig.period(sigma)
    n_steps = n_tr + round((k_max + DEFAULT_SPAN_OFFSET) * period / dt) + pad
    return sig.output(np.arange(n_steps + 1) * dt, sigma)


def test_constant_series_averages():
    c = 3.7
    series = np.full(501, c)
    for kind in Window:
        # renormalized weights make constants exact by construction
        val = windowed_average(series, kind, 100, 500,
                               NormalizationMode.RENORMALIZED)
        assert val == pytest.approx(c, rel=1e-14)
    # the trigonometric windows sum exactly to the span even unnormalized
    for kind in (Window.HANN, Window.HANN_SQUARE):
        assert windowed_average(series, kind, 100, 500) == pytest.approx(c, rel=1e-14)
    # the square window loses its two zero endpoints: bias c / span
    val = windowed_average(series, Window.SQUARE, 100, 500)
    assert val == pytest.approx(c * 399 / 400, rel=1e-14)


def test_windowed_average_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        windowed_average(np.zeros((4, 4)), Window.HANN, 0, 3)
    with pytest.raises(InvalidSpanError, match="exceeds recorded length"):
        windowed_average(np.zeros(10), Window.HANN, 0, 10)


def test_bump_average_ten_periods_is_converged():
    # ten-and-a-quarter periods suffice for single precision style accuracy
    sig = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.03, base_period=1.0)
    n_tr = 50
    end = n_tr + round((10 + DEFAULT_SPAN_OFFSET) * sig.period(SIGMA) / DT)
    series = sig.output(np.arange(end + 1) * DT, SIGMA)
    val = windowed_average(series, Window.BUMP, n_tr, end)
    assert val == pytest.approx(sig.mean(SIGMA), rel=1e-6)


def test_error_hierarchy_at_k32():
    series = signal_series(33)
    end = N_TR + round(32.25 * PERIOD / DT)
    errs = {kind: abs(windowed_average(series, kind, N_TR, end) - MEAN)
            for kind in Window}
    assert errs[Window.BUMP] <= errs[Window.HANN_SQUARE]
    assert errs[Window.HANN_SQUARE] <= errs[Window.HANN]
    assert errs[Window.HANN] <= 10.0 * errs[Window.SQUARE]


def test_convergence_slopes_with_closed_form_reference():
    series = signal_series(64)
    ks = [2, 4, 8, 16, 32, 64]
    slopes = {}
    for study in convergence_study(series, Window, N_TR, DT, ks,
                                   reference=MEAN, period=PERIOD):
        slopes[study.kind] = study.slope
        assert study.reference_source == "closed-form"
        assert study.fit_mask.sum() >= 2
        assert np.all(study.errors > 0)
        assert np.allclose(study.realized_k, np.array(ks) + DEFAULT_SPAN_OFFSET,
                           atol=5e-3)
    # decay orders separate cleanly and increase with window smoothness
    assert 0.6 < slopes[Window.SQUARE] < 1.4
    assert 2.6 < slopes[Window.HANN] < 3.4
    assert 4.6 < slopes[Window.HANN_SQUARE] < 5.6
    assert slopes[Window.BUMP] > 6.0


def test_self_reference_matches_closed_form():
    series = signal_series(300)
    ks = [2, 4, 8, 16, 32, 64]
    kinds = (Window.SQUARE, Window.HANN, Window.HANN_SQUARE)
    explicits = convergence_study(series, kinds, N_TR, DT, ks,
                                  reference=MEAN, period=PERIOD)
    inferreds = convergence_study(series, kinds, N_TR, DT, ks, period=PERIOD)
    for kind, explicit, inferred in zip(kinds, explicits, inferreds):
        assert explicit.kind is kind and inferred.kind is kind
        assert inferred.reference_source.startswith("bump@k=")
        assert inferred.reference == pytest.approx(MEAN, rel=1e-8)
        assert inferred.slope == pytest.approx(explicit.slope, abs=0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", list(Window), ids=lambda kind: kind.value)
def test_a_series_near_the_float_range_averages_finite(kind):
    # samples up to 3e306 sum past the largest float over the span; their
    # average, and the mean estimate_period crosses, do not
    series = 1e306 * signal_series(8)
    n_final = len(series) - 1
    value = windowed_average(series, kind, N_TR, n_final)
    assert math.isfinite(value)
    assert value == pytest.approx(1e306 * windowed_average(series / 1e306, kind, N_TR, n_final),
                                  rel=1e-13)
    assert estimate_period(series, N_TR, DT)[0] == pytest.approx(PERIOD, rel=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_only_a_sum_that_overflows_is_taken_again():
    # of two columns, the second 1e306 times the first, only the second
    # sum overflows: the first keeps the bits of the plain weighted sum
    base = signal_series(8)
    series = np.stack([base, 1e306 * base], axis=1)
    n_final = len(base) - 1
    weights = windows.discrete_weights(Window.HANN, N_TR, n_final)
    got = _windowed_sum(series, Window.HANN, N_TR, n_final, NormalizationMode.PAPER_FAITHFUL)
    with np.errstate(over="ignore"):
        plain = weights @ series[N_TR:] / (n_final - N_TR)
    assert got[0].tobytes() == plain[0].tobytes()
    assert not math.isfinite(plain[1])
    assert got[1] == pytest.approx(1e306 * got[0], rel=1e-13)


# every non-empty subset of the four windows, in Window's order
WINDOW_SUBSETS = [subset for size in range(1, len(Window) + 1)
                  for subset in itertools.combinations(Window, size)]
# 4.33 and 4.3301 periods round to the same end step
REPEATING_KS = [2, 3, 4, 4.33, 4.3301, 8, 16]


def oracle_values(series, kind, ends, mode):
    """The windowed average at each end step, from a fresh weight vector."""
    return np.array([windows.discrete_weights(kind, N_TR, end, mode) @ series[N_TR:end + 1]
                     / (end - N_TR) for end in ends.tolist()])


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_studies_equal_fresh_weight_vectors_bit_for_bit(mode):
    # every span's weights are written into buffers sized to the largest
    # span; no sample of a longer or repeated span may leak into a value
    series = signal_series(16)
    for kinds in WINDOW_SUBSETS:
        studies = convergence_study(series, kinds, N_TR, DT, REPEATING_KS, reference=MEAN,
                                    period=PERIOD, mode=mode)
        diagnostics = divergence_diagnostic(series, kinds, N_TR, DT, REPEATING_KS,
                                            period=PERIOD, mode=mode)
        ends = studies[0].end_steps
        assert len(set(ends.tolist())) == len(ends) - 1
        for kind, study, diagnostic in zip(kinds, studies, diagnostics):
            expected = oracle_values(series, kind, ends, mode).tobytes()
            assert study.values.tobytes() == expected, (kinds, kind)
            assert diagnostic.values.tobytes() == expected, (kinds, kind)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_a_study_near_the_float_range_takes_each_overflowing_sum_again(mode):
    # every windowed sum of 1e306 times the series overflows, and each is
    # taken again over the samples divided by the span
    series = signal_series(16)
    ks = [2, 4, 8, 16]
    scaled = convergence_study(series, Window, N_TR, DT, ks, reference=MEAN,
                               period=PERIOD, mode=mode)
    large = convergence_study(1e306 * series, Window, N_TR, DT, ks, reference=1e306 * MEAN,
                              period=PERIOD, mode=mode)
    for small, big in zip(scaled, large):
        assert np.all(np.isfinite(big.values))
        assert big.values == pytest.approx(1e306 * small.values, rel=1e-13)
    # at 1.5e305 only the longer spans overflow: the others keep the bits
    # of the plain weighted sum
    series = 1.5e305 * series
    for diagnostic in divergence_diagnostic(series, Window, N_TR, DT, ks, period=PERIOD,
                                            mode=mode):
        with np.errstate(over="ignore"):
            plain = oracle_values(series, diagnostic.kind, diagnostic.end_steps, mode)
        finite = np.isfinite(plain)
        assert 0 < finite.sum() < len(ks)
        assert diagnostic.values[finite].tobytes() == plain[finite].tobytes()
        assert np.all(np.isfinite(diagnostic.values))


def test_period_is_estimated_when_not_given():
    series = signal_series(16)
    study, = convergence_study(series, [Window.HANN], N_TR, DT, [2, 4, 8, 16],
                               reference=MEAN)
    assert study.period == pytest.approx(PERIOD, rel=1e-3)


def test_signed_error_crossings_phase_aligned():
    # when the transient cutoff lands on a half-period boundary the signed
    # error of the smooth trigonometric windows keeps one sign; the square
    # window oscillates through zero repeatedly
    sigma = np.array([0.0])
    n_tr = 100
    series = SIG.output(np.arange(n_tr + 830 + 1) * DT, sigma)
    mean = SIG.mean(sigma)
    counts = {}
    for kind in (Window.SQUARE, Window.HANN, Window.HANN_SQUARE):
        signed = []
        for k in np.linspace(5.25, 8.25, 25):
            end = n_tr + round(k * 1.0 / DT)
            signed.append(windowed_average(series, kind, n_tr, end) - mean)
        signed = np.array(signed)
        significant = signed[np.abs(signed) > 1e-12]
        counts[kind] = int(np.sum(np.sign(significant[1:])
                                  != np.sign(significant[:-1])))
    assert counts[Window.SQUARE] >= 3
    assert counts[Window.HANN] == 0
    assert counts[Window.HANN_SQUARE] == 0


def test_divergence_diagnostic_flags_growth():
    grow = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8,
                          base_period=1.0, growth_rate=0.12)
    ks = list(range(2, 17, 2))
    n_steps = N_TR + round(16.25 * PERIOD / DT) + 5
    t = np.arange(n_steps + 1) * DT
    sens = grow.output_design_derivative(t, SIGMA)[:, 0]
    square, bump = divergence_diagnostic(sens, [Window.SQUARE, Window.BUMP], N_TR, DT, ks,
                                         period=PERIOD)
    assert square.any_growth
    assert np.all(square.growth_flags[1:])
    assert not bump.any_growth
    # the limit sensitivity is the mean gradient 0.7; the bump window sits
    # closer to it than the square window at every sampled span
    assert np.all(np.abs(bump.values - 0.7) <= np.abs(square.values - 0.7))


def test_divergence_diagnostic_clean_when_bounded():
    sens = SIG.output_design_derivative(np.arange(2500) * DT, SIGMA)[:, 0]
    ks = list(range(2, 17, 2))
    diag, = divergence_diagnostic(sens, [Window.HANN], N_TR, DT, ks, period=PERIOD)
    assert not diag.any_growth


def test_endpoint_shift_trivials():
    series = signal_series(24)

    def sens_fn(kind, n_tr, n_final):
        return np.array([windowed_average(series, kind, n_tr, n_final,
                                          NormalizationMode.RENORMALIZED)])

    end = N_TR + round(20.25 * PERIOD / DT)
    assert endpoint_shift_robustness(sens_fn, Window.HANN, N_TR, end, 0) == 0.0

    constant = np.full(series.shape, 2.21)

    def const_fn(kind, n_tr, n_final):
        return np.array([windowed_average(constant, kind, n_tr, n_final,
                                          NormalizationMode.RENORMALIZED)])

    assert endpoint_shift_robustness(const_fn, Window.SQUARE, N_TR, end, 7) < 1e-12

    def zero_fn(kind, n_tr, n_final):
        return np.zeros(1)

    with pytest.raises(ValueError, match="zero norm"):
        endpoint_shift_robustness(zero_fn, Window.HANN, N_TR, end, 7)


def test_study_input_validation():
    series = signal_series(8)
    with pytest.raises(InvalidSpanError, match="empty span list"):
        convergence_study(series, [Window.HANN], N_TR, DT, [], reference=MEAN,
                          period=PERIOD)
    with pytest.raises(InvalidSpanError, match="strictly increasing"):
        convergence_study(series, [Window.HANN], N_TR, DT, [4, 4], reference=MEAN,
                          period=PERIOD)
    with pytest.raises(InvalidSpanError, match="too short"):
        convergence_study(series, [Window.HANN], N_TR, DT, [2, 400],
                          reference=MEAN, period=PERIOD)
    with pytest.raises(InvalidSpanError, match="rounds to zero"):
        convergence_study(series, [Window.HANN], N_TR, DT, [0.0001],
                          reference=MEAN, period=PERIOD, span_offset=0.0)
    # an end step past the int range once wrapped to a negative one in the
    # cast, with numpy's "invalid value" warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for study, extra in ((convergence_study, {"reference": MEAN}),
                             (divergence_diagnostic, {})):
            with pytest.raises(InvalidSpanError, match="too short"):
                study(series, [Window.HANN], N_TR, DT, [2, 1e300], period=PERIOD, **extra)


@pytest.mark.parametrize("period", [None, PERIOD], ids=["estimated", "given"])
@pytest.mark.parametrize("study", [convergence_study, divergence_diagnostic])
def test_studies_reject_a_series_of_columns(study, period):
    # without a period, a series of two columns once reached estimate_period
    # before the shape check and raised numpy's broadcast error there
    series = signal_series(8)
    extra = {"reference": MEAN} if study is convergence_study else {}
    with pytest.raises(ValueError, match="one-dimensional"):
        study(np.stack([series, series], 1), [Window.HANN], N_TR, DT, [2, 4], period=period,
              **extra)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("period", [None, PERIOD], ids=["estimated", "given"])
@pytest.mark.parametrize("study", [convergence_study, divergence_diagnostic])
def test_studies_reject_a_time_step_that_is_not_positive_and_finite(study, period, dt):
    # with dt = -0.01 a whole study runs at period -1.3, and with dt = 0 and
    # a period the end steps divide by zero, which numpy reports as a warning
    extra = {"reference": MEAN} if study is convergence_study else {}
    with pytest.raises(InvalidSpanError, match="^time step must be positive and finite, "
                                               f"got dt={re.escape(repr(dt))}$"):
        study(signal_series(8), [Window.BUMP], N_TR, dt, [2, 4, 8], period=period, **extra)


@pytest.mark.parametrize("k_list", [[0, 1], [-2, 4], [np.nan, 4], [2, np.inf]],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("study", [convergence_study, divergence_diagnostic])
def test_span_lists_reject_non_positive_and_non_finite_counts(study, k_list, capfd):
    # a zero count once reached a log-log fit of log(0), which raised
    # LinAlgError and printed LAPACK's DLASCL complaints on the terminal
    series = signal_series(8)
    extra = {"reference": MEAN} if study is convergence_study else {}
    with pytest.raises(InvalidSpanError, match="positive and finite"):
        study(series, [Window.HANN], N_TR, DT, k_list, period=PERIOD, **extra)
    assert capfd.readouterr() == ("", "")


def test_degenerate_fit_raises_and_single_entry_skips():
    constant = np.full(4000, MEAN)
    with pytest.raises(DegenerateFitError, match="noise floor"):
        convergence_study(constant, [Window.HANN], N_TR, DT, [2, 4],
                          reference=MEAN, period=PERIOD)
    series = signal_series(4)
    single, = convergence_study(series, [Window.HANN], N_TR, DT, [4],
                                reference=MEAN, period=PERIOD)
    assert single.slope is None
    assert single.fit_residual is None


def count_window_samples(monkeypatch):
    """Per window, the calls that sample it through its own kernel."""
    calls = {kind: 0 for kind in Window}
    interior = windows._window_interior

    def counted(kind, si, out):
        calls[kind] += 1
        interior(kind, si, out)

    monkeypatch.setattr(windows, "_window_interior", counted)
    return calls


def test_study_samples_each_window_once_per_span(monkeypatch):
    # hann's cosine serves hann-square too: m evaluations over m spans, not 2m
    series = signal_series(16)
    ks = [2, 3, 4, 8, 16]
    calls = count_window_samples(monkeypatch)
    studies = convergence_study(series, Window, N_TR, DT, ks, reference=MEAN,
                                period=PERIOD)
    assert [study.kind for study in studies] == list(Window)
    assert calls == {Window.SQUARE: 5, Window.HANN: 5, Window.HANN_SQUARE: 0,
                     Window.BUMP: 5}
    calls.update(dict.fromkeys(Window, 0))
    divergence_diagnostic(series, Window, N_TR, DT, ks, period=PERIOD)
    assert calls[Window.HANN] == 5 and calls[Window.HANN_SQUARE] == 0


def test_study_computes_its_bump_reference_once(monkeypatch):
    series = signal_series(300)
    ks = [2, 4, 8]
    calls = count_window_samples(monkeypatch)
    studies = convergence_study(series, [Window.SQUARE, Window.HANN, Window.HANN_SQUARE],
                                N_TR, DT, ks, period=PERIOD)
    assert calls[Window.BUMP] == 1
    assert len({study.reference for study in studies}) == 1
    calls.update(dict.fromkeys(Window, 0))
    convergence_study(series, Window, N_TR, DT, ks, period=PERIOD)
    assert calls[Window.BUMP] == len(ks) + 1
