"""Property-based checks over models, windows, normalizations and solvers.

The hypothesis profile (derandomized, no database, no deadline) is loaded
in conftest.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcowind.adjoint import AdjointMode, adjoint_sweep
from lcowind.analysis import windowed_average
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, ForcedOscillator,
                            OutputKind, VanDerPol)
from lcowind.primal import PseudoTimeConfig, TimeGrid, estimate_period, simulate
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import NormalizationMode, Window, discrete_weights

EPS = np.finfo(float).eps

MODELS = [
    (VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), np.array([1.0])),
    (VanDerPol(output=OutputKind.FIRST_STATE), np.array([0.7])),
    (ForcedOscillator(output=OutputKind.FIRST_STATE_SQUARED), np.array([0.1])),
    (AnalyticSignalModel(AnalyticSignal(
        a0=1.0, a1=np.array([0.5]), amplitude=0.3, quad=0.8,
        quad_center=np.array([0.1]))), np.array([0.2])),
]


@settings(max_examples=30)
@given(model_index=st.sampled_from(range(len(MODELS))),
       window=st.sampled_from(Window),
       normalization=st.sampled_from(NormalizationMode),
       dtau=st.sampled_from([math.inf, 0.5, 1.0, 3.0]),
       mode=st.sampled_from(AdjointMode),
       n_transient=st.integers(min_value=5, max_value=40),
       span=st.integers(min_value=20, max_value=80))
def test_tangent_equals_adjoint(model_index, window, normalization, dtau, mode,
                                n_transient, span):
    # both differentiate the same discrete windowed sum, so they agree to
    # roundoff for every combination, not only the hand-picked ones
    model, sigma = MODELS[model_index]
    grid = TimeGrid(dt=0.05, n_steps=n_transient + span, n_transient=n_transient)
    cfg = PseudoTimeConfig(dtau, tol=1e-13, max_inner=200)
    traj = simulate(model, sigma, grid, cfg)
    forward = windowed_tangent_sensitivity(tangent_sweep(model, sigma, traj), window,
                                           n_transient, grid.n_steps, normalization)
    reverse = adjoint_sweep(model, sigma, traj, window, cfg, mode, normalization,
                            tol=5e-15).design_derivative
    rel = 1e-12 if math.isinf(dtau) else 1e-10
    assert reverse == pytest.approx(forward, rel=rel)


@settings(max_examples=30)
@given(model_index=st.sampled_from(range(len(MODELS))),
       window=st.sampled_from(Window),
       normalization=st.sampled_from(NormalizationMode),
       dtau=st.sampled_from([math.inf, 0.5, 1.0, 3.0]),
       mode=st.sampled_from(AdjointMode),
       n_transient=st.integers(min_value=5, max_value=40),
       span=st.integers(min_value=20, max_value=80))
def test_adjoint_matches_central_finite_difference(model_index, window, normalization,
                                                   dtau, mode, n_transient, span):
    # The bound comes from 300 random draws of these settings: the worst
    # miss was 1.4e-8 absolute, at a derivative of 1.19, and 3.7e-7
    # relative, at a derivative of 1.8e-3.  Both are the inner tolerance
    # 1e-13 divided by the step h = 1e-6, not an adjoint error; a wrong
    # sign or a dropped term misses by the derivative itself.
    model, sigma = MODELS[model_index]
    grid = TimeGrid(dt=0.05, n_steps=n_transient + span, n_transient=n_transient)
    cfg = PseudoTimeConfig(dtau, tol=1e-13, max_inner=200)

    def objective(design):
        return windowed_average(simulate(model, design, grid, cfg).outputs, window,
                                n_transient, grid.n_steps, normalization)

    traj = simulate(model, sigma, grid, cfg)
    reverse = adjoint_sweep(model, sigma, traj, window, cfg, mode, normalization,
                            tol=5e-15).design_derivative
    h = 1e-6 * max(1.0, abs(sigma[0]))
    central = (objective(sigma + h) - objective(sigma - h)) / (2.0 * h)
    assert reverse[0] == pytest.approx(central, rel=1e-6, abs=1e-7)


@settings(max_examples=100)
@given(period=st.floats(min_value=0.5, max_value=3.0),
       samples_per_period=st.floats(min_value=8.0, max_value=60.0),
       harmonic=st.floats(min_value=0.0, max_value=0.3),
       phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       n_periods=st.floats(min_value=4.0, max_value=20.0),
       transient_share=st.floats(min_value=0.0, max_value=0.25),
       shift=st.integers(min_value=1, max_value=3))
def test_estimate_period_is_stable_under_whole_period_shifts(
        period, samples_per_period, harmonic, phase, n_periods, transient_share, shift):
    # g(t + shift T) = g(t), so the two series differ only by roundoff in
    # the sampled phase.  Over 2000 random draws of these settings the
    # estimates differed by at most 3.4 eps relative (median 0).
    def series(offset):
        t = np.arange(n_steps + 1) * dt + offset
        return (1.3 + np.sin(2.0 * np.pi * t / period)
                + harmonic * np.sin(4.0 * np.pi * t / period + phase))

    dt = period / samples_per_period
    n_steps = int(n_periods * samples_per_period)
    n_transient = int(transient_share * n_steps)
    base, base_span = estimate_period(series(0.0), n_transient, dt)
    shifted, shifted_span = estimate_period(series(shift * period), n_transient, dt)
    assert abs(shifted - base) <= 8 * EPS * base
    assert abs(shifted_span - base_span) <= 8 * EPS * base_span


@settings(max_examples=200)
@given(kind=st.sampled_from(Window), mode=st.sampled_from(NormalizationMode),
       span=st.integers(min_value=2, max_value=399))
def test_window_weight_endpoints_symmetry_and_sums(kind, mode, span):
    # The bounds come from every span 2..399, window and normalization:
    # - max |w - w[::-1]| reached 6.2 eps * max(w) (bump; 3.6e-15 absolute),
    #   so the weights are symmetric to roundoff, not bit for bit;
    # - renormalized sums missed the span by at most 2.6 eps relative;
    # - paper-faithful hann and hann-square sums missed it by at most
    #   2.7 eps relative, except hann-square at span 2, whose single
    #   interior sample w(1/2) = 8/3 is 4/3 of the span.
    w = discrete_weights(kind, 7, 7 + span, mode)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.max(np.abs(w - w[::-1])) <= 8 * EPS * np.max(w)
    if mode is NormalizationMode.RENORMALIZED:
        assert abs(w.sum() - span) <= 4 * EPS * span
    elif kind in (Window.HANN, Window.HANN_SQUARE):
        exact = span * 4 / 3 if (kind is Window.HANN_SQUARE and span == 2) else span
        assert abs(w.sum() - exact) <= 4 * EPS * exact
