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
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, ForcedOscillator,
                            OutputKind, VanDerPol)
from lcowind.primal import PseudoTimeConfig, TimeGrid, simulate
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
    w = discrete_weights(kind, 7, 7 + span, mode).values
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.max(np.abs(w - w[::-1])) <= 8 * EPS * np.max(w)
    if mode is NormalizationMode.RENORMALIZED:
        assert abs(w.sum() - span) <= 4 * EPS * span
    elif kind in (Window.HANN, Window.HANN_SQUARE):
        exact = span * 4 / 3 if (kind is Window.HANN_SQUARE and span == 2) else span
        assert abs(w.sum() - exact) <= 4 * EPS * exact
