"""The stopping tests of the march and of the fixed-point adjoint.

Both loops decide norm(r) > tol from the unfused sum of squares of r,
screened against tol**2 with a certified band, and take the exact norm
only inside the band and where it is recorded.  These tests pin that the
screened decisions are the exact norm's, and count the exact norms taken.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcowind import primal
from lcowind.adjoint import AdjointMode, _adjoint_step, adjoint_sweep
from lcowind.errors import AdjointDivergenceError
from lcowind.models import OutputKind, VanDerPol
from lcowind.primal import PseudoTimeConfig, TimeGrid, _screen, float_kernels, simulate
from lcowind.windows import Window

# signed zeros, subnormals, the smallest normal, infinities, NaN, and
# magnitudes whose squares overflow
SPECIAL = (0.0, -0.0, 5e-324, -3e-310, 2.2250738585072014e-308, math.inf, -math.inf,
           math.nan, 1e160, -1.7976931348623157e308)
# 1.0 is the divergence test's bound; tol**2 underflows at 1e-300 and
# overflows at 1e200, which turns the screen off
TOLERANCES = (1e-12, 1.0, 1e-300, 1e200, math.inf)


@st.composite
def residuals(draw, d_u, tol):
    """A residual whose sum of squares lies within 2**-30 relative of
    tol**2, with some entries replaced by special values."""
    direction = draw(st.lists(st.floats(0.1, 1.0), min_size=d_u, max_size=d_u))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=d_u, max_size=d_u))
    spread = draw(st.floats(-2.0 ** -30, 2.0 ** -30))
    scale = tol * math.sqrt(1.0 + spread) / math.sqrt(math.fsum(x * x for x in direction))
    specials = draw(st.lists(st.one_of(st.none(), st.sampled_from(SPECIAL)),
                             min_size=d_u, max_size=d_u))
    return [s * scale * x if special is None else special
            for s, x, special in zip(signs, direction, specials)]


@dataclass(frozen=True)
class ConstantResidual:
    """A model whose residual is the constant r and whose state Jacobian is
    zero: from its zero initial state, step 1's extended residual is r."""

    r: tuple
    name = "constant-residual"
    n_design = 1

    @property
    def d_u(self):
        return len(self.r)

    def initial_state(self, sigma=None):
        return np.zeros(self.d_u)

    def residual(self, u, sigma, t=0.0):
        return list(self.r)

    def jacobian_state(self, u, sigma, t=0.0):
        return np.zeros((self.d_u, self.d_u))

    def output_value(self, u, sigma):
        return u[..., 0].copy()


def same_float(got, expected):
    if math.isnan(expected):
        return math.isnan(got)
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("d_u", [1, 2, 3])
@settings(max_examples=100)
@given(data=st.data())
def test_screened_decisions_match_the_exact_norm(d_u, tol, data):
    r = data.draw(residuals(d_u, tol))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        exact = float_kernels(d_u).norm(r)
        # one step of one inner iteration at most: it iterates iff norm(r) > tol
        traj = simulate(ConstantResidual(tuple(r)), np.array([0.0]),
                        TimeGrid(dt=1.0, n_steps=1),
                        PseudoTimeConfig(tol=tol, max_inner=1, allow_unconverged=True))
        assert traj.inner_iterations[1] == (exact > tol), r
        if not exact > tol:
            assert same_float(traj.residual_norms[1], exact), r
        # a zero iteration matrix makes the first change r: one iteration
        # converges iff norm(r) <= tol, and otherwise spends the budget
        try:
            _, iterations, norm, _ = _adjoint_step(
                1, None, None, r, [0.0] * d_u, np.zeros((d_u, d_u)).T, 0.0, _screen(tol), 1,
                AdjointMode.FIXED_POINT)
            converged = True
        except AdjointDivergenceError as exc:
            converged, iterations, norm = False, exc.iterations, exc.residual_norm
    assert converged == (exact <= tol) and iterations == 1, r
    assert same_float(norm, exact), r


def test_exact_norm_is_taken_once_per_step(monkeypatch):
    calls = []
    kernels = primal._TWO_STATE_KERNELS

    def counting_norm(r):
        calls.append(1)
        return kernels.norm(r)
    monkeypatch.setattr(primal, "_TWO_STATE_KERNELS", kernels._replace(norm=counting_norm))
    model, sigma = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED), np.array([1.0])
    cfg = PseudoTimeConfig(dtau=1.0)
    traj = simulate(model, sigma, TimeGrid(dt=0.05, n_steps=1200, n_transient=300), cfg)
    assert traj.converged.all()
    assert len(calls) == 1200
    # a norm before each update and one after the last would be 12000
    assert (traj.inner_iterations[1:] + 1).sum() == 12000
    calls.clear()
    sweep = adjoint_sweep(model, sigma, traj, Window.BUMP, cfg)
    assert sweep.inner_iterations[1:].sum() > 2 * 1200
    assert len(calls) == 1200
