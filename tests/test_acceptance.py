"""Acceptance criteria for the windowed limit-cycle toolkit.

Each test is one criterion, checked at its stated tolerance and runtime
bound.  The measured quantities print alongside each assertion so a
failing run shows the numbers, not just the verdict.
"""

import csv
import json
import textwrap
import time

import numpy as np
import pytest
from scipy.integrate import quad

from lcowind.adjoint import AdjointMode, adjoint_sweep, contraction_estimates
from lcowind.analysis import (convergence_study, divergence_diagnostic,
                              endpoint_shift_robustness, windowed_average)
from lcowind.cli import main
from lcowind.models import (AnalyticSignal, AnalyticSignalModel, DesignVector,
                            ForcedOscillator, OutputKind, VanDerPol)
from lcowind.optim import DesignProblem, optimize
from lcowind.primal import (PseudoTimeConfig, TimeGrid, estimate_period,
                            simulate)
from lcowind.tangent import tangent_sweep, windowed_tangent_sensitivity
from lcowind.windows import Window, window_value

# shared analytic test signal: the design moves both the mean and the
# period, so average and sensitivity convergence are both exercised
SIG = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8, base_period=1.0)
SIGMA = np.array([0.3])
PERIOD = 1.3
MEAN = 2.21
MEAN_GRADIENT = 0.7
DT = 0.01
N_TR = 137
K_LIST = [2, 4, 8, 16, 32, 64]


def closed_form_series(k_max, signal=SIG, derivative=False):
    n_steps = N_TR + round((k_max + 0.25) * PERIOD / DT) + 10
    t = np.arange(n_steps + 1) * DT
    if derivative:
        return signal.output_design_derivative(t, SIGMA)[:, 0]
    return np.asarray(signal.output(t, SIGMA), dtype=float)


def test_criterion_01_window_validity():
    started = time.perf_counter()
    s = np.linspace(0.0, 1.0, 10_000)
    for kind in Window:
        integral, err = quad(lambda x: window_value(kind, x), 0.0, 1.0,
                             limit=200)
        print(f"criterion 1: {kind.value} integral {integral:.12f} "
              f"(quadrature error {err:.1e})")
        assert abs(integral - 1.0) < 1e-10
        values = window_value(kind, s)
        assert np.all(values >= 0.0)
        assert values[0] == 0.0 and values[-1] == 0.0
        assert np.allclose(values, values[::-1], atol=1e-12)
        assert np.all(window_value(kind, np.array([-0.5, 1.5, 2.0])) == 0.0)
    elapsed = time.perf_counter() - started
    print(f"criterion 1: runtime {elapsed:.2f} s")
    assert elapsed < 1.0


def _continuous_average_error(window, n_final):
    """Windowed-average error of the closed-form signal over steps N_TR..n_final,
    as the continuous integral of window(s) * b sin(2 pi (t0 + s T) / PERIOD)
    over s in (0, 1), taken by QUADPACK's oscillatory rule."""
    t0 = N_TR * DT
    span_t = (n_final - N_TR) * DT
    omega = 2.0 * np.pi * span_t / PERIOD
    phase = 2.0 * np.pi * t0 / PERIOD
    # epsabs sits far below 1e-6 of the ~1e-7 errors being checked
    cos_part, _ = quad(window, 0.0, 1.0, weight="cos", wvar=omega,
                       epsabs=1e-15, limit=200)
    sin_part, _ = quad(window, 0.0, 1.0, weight="sin", wvar=omega,
                       epsabs=1e-15, limit=200)
    return SIG.amplitude * (np.sin(phase) * cos_part + np.cos(phase) * sin_part)


def _bump_shape(s):
    return np.exp(-1.0 / (s - s * s)) if 0.0 < s < 1.0 else 0.0


def test_criterion_02_average_convergence_orders():
    started = time.perf_counter()
    series = closed_form_series(64)
    studies = {study.kind: study
               for study in convergence_study(series, Window, N_TR, DT, K_LIST,
                                              reference=MEAN, period=PERIOD)}
    slopes = {kind: study.slope for kind, study in studies.items()}
    print(f"criterion 2: average slopes square={slopes[Window.SQUARE]:.3f} "
          f"hann={slopes[Window.HANN]:.3f} "
          f"hann-square={slopes[Window.HANN_SQUARE]:.3f}")
    assert abs(slopes[Window.SQUARE] - 1.0) <= 0.4
    assert abs(slopes[Window.HANN] - 3.0) <= 0.4
    assert abs(slopes[Window.HANN_SQUARE] - 5.0) <= 0.4

    # At k = 20 the bump error (3.305e-7) still sits above hann-square's
    # (1.898e-7), ratio 0.574.  These are the windows' exact values for this
    # signal: the discrete averages match an independent quadrature of the
    # continuous windowed integral, so neither the discrete weights nor the
    # bump normalization cause the gap.  The bump error decays faster than
    # any power of the span but from a much larger constant: the ratio first
    # passes 1 near k = 21, dips back to 1.5 near k = 25 and first clears 10
    # near k = 31.  The tenfold advantage is therefore checked at the two
    # longest spans, k = 32 and 64, where the window has it.
    end20 = N_TR + round(20.25 * PERIOD / DT)
    err_hs = windowed_average(series, Window.HANN_SQUARE, N_TR, end20) - MEAN
    err_bump = windowed_average(series, Window.BUMP, N_TR, end20) - MEAN
    ratio = abs(err_hs / err_bump)
    bump_area, _ = quad(_bump_shape, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                        limit=200)
    exact_hs = _continuous_average_error(
        lambda s: (2.0 / 3.0) * (1.0 - np.cos(2.0 * np.pi * s)) ** 2, end20)
    exact_bump = _continuous_average_error(
        lambda s: _bump_shape(s) / bump_area, end20)
    mismatch_hs = abs(err_hs - exact_hs) / abs(exact_hs)
    mismatch_bump = abs(err_bump - exact_bump) / abs(exact_bump)
    print(f"criterion 2: k=20 errors hann-square={abs(err_hs):.3e} "
          f"bump={abs(err_bump):.3e} ratio={ratio:.3f}; relative mismatch "
          f"to quadrature hann-square={mismatch_hs:.1e} "
          f"bump={mismatch_bump:.1e}")
    assert mismatch_hs <= 1e-6, (
        f"hann-square error at k=20 is {err_hs:.6e}, quadrature gives "
        f"{exact_hs:.6e}")
    assert mismatch_bump <= 1e-6, (
        f"bump error at k=20 is {err_bump:.6e}, quadrature gives "
        f"{exact_bump:.6e}")

    errors_hs = studies[Window.HANN_SQUARE].errors
    errors_bump = studies[Window.BUMP].errors
    long_spans = np.isin(K_LIST, [32, 64])
    long_ratios = errors_hs[long_spans] / errors_bump[long_spans]
    tail = np.asarray(K_LIST) >= 16
    bump_tail_order = -np.polyfit(np.log(np.asarray(K_LIST)[tail]),
                                  np.log(errors_bump[tail]), 1)[0]
    elapsed = time.perf_counter() - started
    print(f"criterion 2: hann-square/bump error ratio k=32 "
          f"{long_ratios[0]:.1f}, k=64 {long_ratios[1]:.1f}; bump decay "
          f"order k=16..64 {bump_tail_order:.2f}; runtime {elapsed:.2f} s")
    assert elapsed < 10.0
    assert np.all(long_ratios >= 10.0), (
        f"hann-square/bump error ratios at k=32, 64 are {long_ratios}; "
        f"the bump window should lead tenfold once past k = 31")
    assert bump_tail_order > 5.0 + 0.4, (
        f"bump decay order over k=16..64 is {bump_tail_order:.2f}, not above "
        f"hann-square's asserted 5 + 0.4")


def test_criterion_03_sensitivity_convergence_orders():
    started = time.perf_counter()
    sens = closed_form_series(64, derivative=True)
    studies = {study.kind: study
               for study in convergence_study(
                   sens, (Window.SQUARE, Window.HANN, Window.HANN_SQUARE), N_TR, DT,
                   K_LIST, reference=MEAN_GRADIENT, period=PERIOD)}
    square = studies[Window.SQUARE]
    floor_ratio = square.errors.min() / square.errors.max()
    print(f"criterion 3: sensitivity slopes square={square.slope:.3f} "
          f"hann={studies[Window.HANN].slope:.3f} "
          f"hann-square={studies[Window.HANN_SQUARE].slope:.3f} "
          f"square min/max error ratio={floor_ratio:.3f}")
    assert abs(studies[Window.HANN].slope - 2.0) <= 0.4
    assert abs(studies[Window.HANN_SQUARE].slope - 4.0) <= 0.4
    assert abs(square.slope) < 0.3
    assert floor_ratio >= 0.1
    elapsed = time.perf_counter() - started
    print(f"criterion 3: runtime {elapsed:.2f} s")
    assert elapsed < 30.0


def test_criterion_04_bdf2_temporal_order():
    started = time.perf_counter()
    signal = AnalyticSignal(a0=0.0, a1=np.array([0.0]), amplitude=1.0,
                            base_period=1.0)
    model = AnalyticSignalModel(signal=signal)
    sigma = np.array([0.0])
    t_end = 2.0
    dts = [0.02, 0.01, 0.005, 0.0025]
    errors = []
    for dt in dts:
        grid = TimeGrid(dt=dt, n_steps=round(t_end / dt), n_transient=0)
        traj = simulate(model, sigma, grid)
        exact = np.array([np.sin(2 * np.pi * t_end), np.cos(2 * np.pi * t_end)])
        errors.append(np.linalg.norm(traj.states[-1] - exact))
    order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    elapsed = time.perf_counter() - started
    print(f"criterion 4: observed temporal order {order:.3f} over three "
          f"halvings; runtime {elapsed:.2f} s")
    assert abs(order - 2.0) <= 0.2
    assert elapsed < 5.0


def test_criterion_05_tangent_adjoint_consistency():
    started = time.perf_counter()
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    grid = TimeGrid(dt=0.21, n_steps=1200, n_transient=500)
    traj = simulate(model, sigma, grid)
    # the averaging span covers about 22 periods of the first state
    period, _ = estimate_period(traj.states[:, 0], 500, 0.21)
    periods_averaged = 700 * 0.21 / period
    print(f"criterion 5: period {period:.4f}, averaged span "
          f"{periods_averaged:.2f} periods")
    assert 20.0 < periods_averaged < 24.0

    tangent = tangent_sweep(model, sigma, traj)
    h = 1e-6
    plus = simulate(model, sigma + h, grid)
    minus = simulate(model, sigma - h, grid)
    for kind in Window:
        t_val = windowed_tangent_sensitivity(tangent, kind, 500, 1200)[0]
        a_val = adjoint_sweep(model, sigma, traj, kind).design_derivative[0]
        fd = (windowed_average(plus.outputs, kind, 500, 1200)
              - windowed_average(minus.outputs, kind, 500, 1200)) / (2 * h)
        rel_ta = abs(a_val - t_val) / abs(t_val)
        rel_t_fd = abs(t_val - fd) / abs(fd)
        rel_a_fd = abs(a_val - fd) / abs(fd)
        print(f"criterion 5: {kind.value} tangent/adjoint rel {rel_ta:.2e}, "
              f"vs FD {rel_t_fd:.2e} / {rel_a_fd:.2e}")
        assert rel_ta <= 1e-6
        assert rel_t_fd <= 1e-4
        assert rel_a_fd <= 1e-4
    elapsed = time.perf_counter() - started
    print(f"criterion 5: runtime {elapsed:.2f} s")
    assert elapsed < 60.0


def test_criterion_06_adjoint_mode_equivalence():
    started = time.perf_counter()
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    cfg = PseudoTimeConfig(dtau=1.0, tol=1e-13, max_inner=200)
    grid = TimeGrid(dt=0.21, n_steps=700, n_transient=200)
    traj = simulate(model, sigma, grid, cfg)
    fixed = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg, tol=5e-15)
    direct = adjoint_sweep(model, sigma, traj, Window.HANN, cfg=cfg,
                           mode=AdjointMode.DIRECT, tol=5e-15)
    rel = abs(fixed.design_derivative[0] - direct.design_derivative[0]) \
        / abs(direct.design_derivative[0])
    worst_contraction = contraction_estimates(fixed.steps, cfg)[1:].max()
    elapsed = time.perf_counter() - started
    print(f"criterion 6: mode agreement rel {rel:.2e}, max contraction "
          f"{worst_contraction:.4f}; runtime {elapsed:.2f} s")
    assert rel <= 1e-10
    assert worst_contraction < 1.0
    assert elapsed < 60.0


def test_criterion_07_fixed_period_slopes_match():
    started = time.perf_counter()
    model = ForcedOscillator(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([0.2])
    period = model.period
    n_tr = 2000
    n_steps = n_tr + round(301 * period / DT) + 10
    grid = TimeGrid(dt=DT, n_steps=n_steps, n_transient=n_tr)
    traj = simulate(model, sigma, grid)
    tangent = tangent_sweep(model, sigma, traj)
    avg, = convergence_study(traj.outputs, [Window.SQUARE], n_tr, DT, K_LIST,
                             period=period)
    sens, = convergence_study(tangent.output_sensitivities[:, 0], [Window.SQUARE],
                              n_tr, DT, K_LIST, period=period)
    diff = abs(avg.slope - sens.slope)
    elapsed = time.perf_counter() - started
    print(f"criterion 7: square slopes average={avg.slope:.4f} "
          f"sensitivity={sens.slope:.4f} diff={diff:.2e} "
          f"(references {avg.reference_source}); runtime {elapsed:.2f} s")
    assert diff <= 0.3
    assert elapsed < 30.0


def test_criterion_08_endpoint_shift_robustness():
    started = time.perf_counter()
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    sigma = np.array([1.0])
    shift = 9
    grid = TimeGrid(dt=0.21, n_steps=1200 + shift, n_transient=500)
    traj = simulate(model, sigma, grid)
    period, _ = estimate_period(traj.states[:, 0], 500, 0.21)
    shift_fraction = shift * 0.21 / period
    tangent = tangent_sweep(model, sigma, traj)

    def sensitivity(kind, n_tr, n_final):
        return windowed_tangent_sensitivity(tangent, kind, n_tr, n_final)

    square = endpoint_shift_robustness(sensitivity, Window.SQUARE, 500, 1200,
                                       shift)
    bump = endpoint_shift_robustness(sensitivity, Window.BUMP, 500, 1200,
                                     shift)
    elapsed = time.perf_counter() - started
    print(f"criterion 8: shift of {shift_fraction:.1%} of a period changes "
          f"square by {square:.2%}, bump by {bump:.2e}; runtime {elapsed:.2f} s")
    assert 0.2 < shift_fraction < 0.4
    assert bump <= square / 5.0
    assert elapsed < 60.0


def test_criterion_09_divergence_diagnostic():
    started = time.perf_counter()
    grow = AnalyticSignal(a0=2.0, a1=np.array([0.7]), amplitude=0.8,
                          base_period=1.0, growth_rate=0.12)
    ks = list(range(2, 17, 2))
    sens = closed_form_series(16, signal=grow, derivative=True)
    square, bump = divergence_diagnostic(sens, [Window.SQUARE, Window.BUMP], N_TR, DT,
                                         ks, period=PERIOD)
    mag_square = np.abs(square.values)
    mag_bump = np.abs(bump.values)
    print(f"criterion 9: square magnitudes {np.round(mag_square, 3)}")
    print(f"criterion 9: bump magnitudes   {np.round(mag_bump, 3)}")
    assert square.any_growth
    assert np.all(np.diff(mag_square) > 0.0)
    assert not bump.any_growth
    # per-span growth factor of the bump stays below the square's
    assert np.all(mag_bump[1:] / mag_bump[:-1]
                  < mag_square[1:] / mag_square[:-1])
    elapsed = time.perf_counter() - started
    print(f"criterion 9: runtime {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_10_optimization_sanity():
    started = time.perf_counter()
    signal = AnalyticSignal(a0=1.0, a1=np.array([0.0]), amplitude=0.05,
                            base_period=1.0, quad=1.0,
                            quad_center=np.array([0.3]))
    model = AnalyticSignalModel(signal=signal)
    design = DesignVector(values=np.array([0.1]), lower=np.array([-0.5]),
                          upper=np.array([0.9]))
    grid = TimeGrid(dt=0.02, n_steps=720, n_transient=100)
    problem = DesignProblem(objective_model=model, design=design, grid=grid,
                            kind=Window.BUMP, max_iterations=50)
    history = optimize(problem)
    error = abs(history.final_design[0] - 0.3)
    merits = [record.merit for record in history.records]
    elapsed = time.perf_counter() - started
    print(f"criterion 10: final design {history.final_design[0]:.6f} "
          f"(error {error:.2e}) after {history.iterations} iterations; "
          f"runtime {elapsed:.2f} s")
    assert error <= 1e-4
    assert history.iterations <= 50
    for record in history.records:
        assert design.lower[0] <= record.sigma[0] <= design.upper[0]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(merits[1:], merits[2:]))
    assert elapsed < 60.0


def test_criterion_11_determinism(tmp_path):
    configs = {
        "vdp.ini": textwrap.dedent("""\
            [model]
            name = van-der-pol
            output = x2

            [design]
            values = 1.0

            [grid]
            dt = 0.05
            n_steps = 400
            n_transient = 100
            """),
        "signal.ini": textwrap.dedent("""\
            [model]
            name = analytic-signal
            a0 = 2.0
            a1 = 0.7
            amplitude = 0.8

            [design]
            values = 0.3

            [grid]
            dt = 0.01
            n_steps = 1300
            n_transient = 137

            [study]
            k_list = 2,4,8
            """),
    }
    runs = [("simulate", "vdp.ini", "trajectory.csv"),
            ("adjoint", "vdp.ini", "adjoint.csv"),
            ("study", "signal.ini", "study.csv")]
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    for subcommand, config, artifact in runs:
        first = tmp_path / f"{subcommand}-a"
        second = tmp_path / f"{subcommand}-b"
        assert main([subcommand, str(tmp_path / config),
                     "--output-dir", str(first)]) == 0
        assert main([subcommand, str(tmp_path / config),
                     "--output-dir", str(second)]) == 0
        body_a = (first / artifact).read_bytes()
        body_b = (second / artifact).read_bytes()
        print(f"criterion 11: {subcommand} -> {artifact} "
              f"({len(body_a)} bytes) identical: {body_a == body_b}")
        assert body_a == body_b


def test_criterion_12_smooth_windows_make_the_design_loop_robust():
    # The paper's comparison on the design loop: the analytic signal's period
    # T0 (1 + sigma) moves with the design, so the square window's average
    # and gradient carry an O(1/span) error that moves with it, while the
    # smooth windows' errors shrink fast.  Projected gradient from -0.1 to
    # the optimum 0.3 of 1 + 5 (sigma - 0.3)^2 over three spans.  A sweep of
    # centres {0.1, 0.3, 0.5} and starts {-0.4, -0.1, 0.6} gave: every
    # smooth window's error at least 4.3 times smaller per doubled span, each
    # at least 28 times below the square window's at the same span, and the
    # square window's evaluations over the spans at least 1.82 times each
    # smooth window's
    started = time.perf_counter()
    model = AnalyticSignalModel(AnalyticSignal(a0=1.0, a1=np.array([0.0]), amplitude=0.8,
                                               quad=5.0, quad_center=np.array([0.3])))
    design = DesignVector(values=np.array([-0.1]), lower=np.array([-0.5]),
                          upper=np.array([0.9]))
    spans = [300, 600, 1200]
    errors = {kind: [] for kind in Window}
    evaluations = {kind: 0 for kind in Window}
    for n_steps in spans:
        for kind in Window:
            history = optimize(DesignProblem(
                objective_model=model, design=design, kind=kind, relaxation=1.0,
                grid=TimeGrid(dt=0.05, n_steps=n_steps, n_transient=40), max_iterations=50))
            errors[kind].append(abs(history.final_design[0] - 0.3))
            evaluations[kind] += history.evaluations
    for kind in Window:
        listed = ", ".join(f"{error:.1e}" for error in errors[kind])
        print(f"criterion 12: {kind.value} final-design errors {listed} over spans {spans}, "
              f"{evaluations[kind]} evaluations")
    square = np.array(errors[Window.SQUARE])
    for kind in (Window.HANN, Window.HANN_SQUARE, Window.BUMP):
        error = np.array(errors[kind])
        assert np.all(error[1:] <= error[:-1] / 2.0), kind
        assert np.all(error <= square / 10.0), kind
        assert evaluations[Window.SQUARE] >= 1.5 * evaluations[kind], kind
    elapsed = time.perf_counter() - started
    print(f"criterion 12: runtime {elapsed:.2f} s")
    assert elapsed < 6.0


def test_criterion_13_limit_cycle_sensitivity_orders():
    # The paper's gradient-convergence claim on a limit cycle the solver
    # simulates, whose period moves with the design: Van der Pol's windowed
    # x^2, differentiated by the discrete adjoint through the Newton-limit
    # march.  Each span's error is the largest relative one over three
    # designs, as a single design's error swings with the phase at which the
    # span ends.  The reference is the bump window's derivative over 12000
    # steps, cross-checked by hann-square's over the same span.
    started = time.perf_counter()
    model = VanDerPol(output=OutputKind.FIRST_STATE_SQUARED)
    n_tr, dt, spans, reference_span = 300, 0.05, [600, 1200, 2400, 4800], 12000
    errors = {kind: np.zeros(len(spans)) for kind in Window}
    for mu in (0.8, 1.2, 1.6):
        sigma = np.array([mu])

        def derivatives(span, kinds):
            traj = simulate(model, sigma, TimeGrid(dt=dt, n_steps=n_tr + span, n_transient=n_tr))
            first = adjoint_sweep(model, sigma, traj, kinds[0])
            # the other windows' sweeps reuse the first one's step matrices
            return [first.design_derivative[0]] + [
                adjoint_sweep(model, sigma, traj, kind, steps=first.steps).design_derivative[0]
                for kind in kinds[1:]]

        reference, cross = derivatives(reference_span, [Window.BUMP, Window.HANN_SQUARE])
        cross_check = abs(cross - reference) / abs(reference)
        print(f"criterion 13: mu={mu} reference {reference:.12f}, hann-square "
              f"over the same span differs by {cross_check:.1e} relative")
        assert cross_check <= 1e-7
        for i, span in enumerate(spans):
            for kind, value in zip(Window, derivatives(span, list(Window))):
                errors[kind][i] = max(errors[kind][i], abs(value - reference) / abs(reference))
    orders = {kind: -np.polyfit(np.log(spans), np.log(errors[kind]), 1)[0] for kind in Window}
    for kind in Window:
        listed = ", ".join(f"{error:.1e}" for error in errors[kind])
        print(f"criterion 13: {kind.value} largest errors {listed}, order {orders[kind]:.2f}")
    square = errors[Window.SQUARE]
    assert abs(orders[Window.HANN] - 2.0) <= 0.4
    assert abs(orders[Window.HANN_SQUARE] - 4.0) <= 0.4
    assert orders[Window.BUMP] > orders[Window.HANN_SQUARE] + 0.4
    # the square window's gradient does not converge: O(1) at every span
    assert abs(orders[Window.SQUARE]) < 0.3
    assert square.min() / square.max() >= 0.1 and square.min() >= 0.5
    elapsed = time.perf_counter() - started
    print(f"criterion 13: runtime {elapsed:.2f} s")
    assert elapsed < 5.0
