"""Command-line front end: config-driven runs with CSV and JSON artifacts.

Config files use INI syntax with a fixed schema; unknown sections or keys
are rejected before any computation or file creation happens.  Every run
writes one or more CSV files plus a manifest.json tying together the
config echo, library versions, wall time, and result numbers.  CSV bodies
are deterministic: identical configs yield byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import AdjointMode, adjoint_sweep
from .analysis import (DEFAULT_SPAN_OFFSET, convergence_study, windowed_average)
from .errors import ConfigError, LcoError, PeriodUndetectableError
from .models import (AnalyticSignal, AnalyticSignalModel, DesignVector,
                     ForcedOscillator, OutputKind, VanDerPol)
from .optim import DesignProblem, optimize
from .primal import PseudoTimeConfig, TimeGrid, estimate_period, simulate
from .tangent import tangent_sweep, windowed_tangent_sensitivity
from .windows import NormalizationMode, Window, discrete_weights

__all__ = ["main", "console_main"]

SUBCOMMANDS = ("simulate", "tangent", "adjoint", "average", "study", "optimize")

# Allowed keys per section.  Anything else in a config file is an error.
_SCHEMA = {
    "model": {"name", "output", "a0", "a1", "amplitude", "base_period",
              "growth_rate", "quad", "quad_center", "omega", "stiffness0",
              "damping0", "forcing"},
    "design": {"values", "lower", "upper"},
    "grid": {"dt", "n_steps", "n_transient"},
    "pseudo_time": {"dtau", "tol", "max_inner", "allow_unconverged"},
    "window": {"kind", "normalization"},
    "adjoint": {"mode", "tol"},
    "study": {"quantity", "windows", "k_list", "span_offset", "reference",
              "period"},
    "optimize": {"bound", "constraint_output", "relaxation", "max_iterations",
                 "penalty", "grad_tolerance", "max_backtracks"},
    "output": {"directory", "seed"},
}

_MODEL_NAMES = ("analytic-signal", "van-der-pol", "forced-oscillator")


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(f"{where}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(f"{where}: expected an integer, got {raw!r}") from None


def _parse_floats(raw: str, where: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise _fail(f"{where}: expected a comma-separated list of numbers")
    return [_parse_float(p, where) for p in parts]


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise _fail(f"{where}: expected a boolean, got {raw!r}")


class RunConfig:
    """Validated run options plus the raw config echo for the manifest."""

    def __init__(self, parser: configparser.ConfigParser, path: str):
        self.path = path
        self.echo = {section: dict(parser.items(section))
                     for section in parser.sections()}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise _fail(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    raise _fail(f"unknown key {key!r} in section [{section}]")
        if "model" not in parser or "name" not in parser["model"]:
            raise _fail("section [model] with key 'name' is required")
        if "grid" not in parser:
            raise _fail("section [grid] is required")
        if "design" not in parser or "values" not in parser["design"]:
            raise _fail("section [design] with key 'values' is required")

        self.model = self._build_model(parser["model"])
        self.design = self._build_design(parser["design"])
        if self.design.n_design != self.model.n_design:
            raise _fail(
                f"design has {self.design.n_design} values but the model "
                f"expects {self.model.n_design}")
        try:  # a design outside the model's domain fails here, not mid-run
            self.model.residual(self.model.initial_state(self.design.values),
                                self.design.values)
        except ValueError as exc:
            raise _fail(f"[design] values: {exc}") from None
        self.grid = self._build_grid(parser["grid"])
        self.pseudo = self._build_pseudo(parser["pseudo_time"]
                                         if "pseudo_time" in parser else {})
        window = parser["window"] if "window" in parser else {}
        try:
            self.window = Window.from_name(window.get("kind", "bump"))
            self.normalization = NormalizationMode.from_name(
                window.get("normalization", "paper-faithful"))
        except ValueError as exc:
            raise _fail(str(exc)) from None

        adjoint = parser["adjoint"] if "adjoint" in parser else {}
        try:
            self.adjoint_mode = AdjointMode.from_name(
                adjoint.get("mode", "fixed-point"))
        except ValueError as exc:
            raise _fail(str(exc)) from None
        self.adjoint_tol = (_parse_float(adjoint["tol"], "[adjoint] tol")
                            if "tol" in adjoint else None)

        study = parser["study"] if "study" in parser else {}
        self.study_quantity = study.get("quantity", "average").strip().lower()
        if self.study_quantity not in ("average", "sensitivity"):
            raise _fail("[study] quantity must be 'average' or 'sensitivity'")
        self.study_windows = self._parse_windows(study.get("windows", "all"))
        self.study_k_list = _parse_floats(study.get("k_list", "2,4,8,16,32,64"),
                                          "[study] k_list")
        self.study_span_offset = _parse_float(
            study.get("span_offset", str(DEFAULT_SPAN_OFFSET)),
            "[study] span_offset")
        self.study_reference = (_parse_float(study["reference"],
                                             "[study] reference")
                                if "reference" in study else None)
        self.study_period = (_parse_float(study["period"], "[study] period")
                             if "period" in study else None)

        opt = parser["optimize"] if "optimize" in parser else {}
        self.opt_constraint_output = opt.get("constraint_output", "").strip()
        self.opt_bound = _parse_float(opt.get("bound", "0.0"),
                                      "[optimize] bound")
        self.opt_relaxation = _parse_float(opt.get("relaxation", "0.1"),
                                           "[optimize] relaxation")
        self.opt_max_iterations = _parse_int(opt.get("max_iterations", "100"),
                                             "[optimize] max_iterations")
        self.opt_penalty = _parse_float(opt.get("penalty", "100.0"),
                                        "[optimize] penalty")
        self.opt_grad_tolerance = _parse_float(
            opt.get("grad_tolerance", "1e-8"), "[optimize] grad_tolerance")
        self.opt_max_backtracks = _parse_int(opt.get("max_backtracks", "30"),
                                             "[optimize] max_backtracks")

        output = parser["output"] if "output" in parser else {}
        self.output_directory = output.get("directory", "").strip() or None
        self.seed = _parse_int(output.get("seed", "0"), "[output] seed")

    @staticmethod
    def _parse_windows(raw: str) -> list[Window]:
        raw = raw.strip().lower()
        if raw == "all":
            return list(Window)
        try:
            return [Window.from_name(p) for p in raw.split(",") if p.strip()]
        except ValueError as exc:
            raise _fail(str(exc)) from None

    @staticmethod
    def _build_model(section):
        name = section["name"].strip().lower()
        where = "[model]"
        if name not in _MODEL_NAMES:
            raise _fail(f"{where} name must be one of: {', '.join(_MODEL_NAMES)}")
        try:
            output = OutputKind.from_name(section.get("output", "x"))
        except ValueError as exc:
            raise _fail(str(exc)) from None
        if name == "analytic-signal":
            center = section.get("quad_center")
            signal = AnalyticSignal(
                a0=_parse_float(section.get("a0", "1.0"), where),
                a1=np.array(_parse_floats(section.get("a1", "0.5"), where)),
                amplitude=_parse_float(section.get("amplitude", "0.5"), where),
                base_period=_parse_float(section.get("base_period", "1.0"), where),
                growth_rate=_parse_float(section.get("growth_rate", "0.0"), where),
                quad=_parse_float(section.get("quad", "0.0"), where),
                quad_center=(np.array(_parse_floats(center, where))
                             if center else None),
            )
            return AnalyticSignalModel(signal=signal)
        if name == "van-der-pol":
            return VanDerPol(output=output)
        return ForcedOscillator(
            omega=_parse_float(section.get("omega", str(2.0 * math.pi)), where),
            stiffness0=_parse_float(section.get("stiffness0", "55.0"), where),
            damping0=_parse_float(section.get("damping0", "0.5"), where),
            forcing=_parse_float(section.get("forcing", "10.0"), where),
            output=output,
        )

    @staticmethod
    def _build_design(section) -> DesignVector:
        where = "[design]"
        values = np.array(_parse_floats(section["values"], where))
        lower = (np.array(_parse_floats(section["lower"], where))
                 if "lower" in section else np.full_like(values, -math.inf))
        upper = (np.array(_parse_floats(section["upper"], where))
                 if "upper" in section else np.full_like(values, math.inf))
        try:
            return DesignVector(values=values, lower=lower, upper=upper)
        except ValueError as exc:
            raise _fail(f"{where}: {exc}") from None

    @staticmethod
    def _build_grid(section) -> TimeGrid:
        where = "[grid]"
        if "dt" not in section or "n_steps" not in section:
            raise _fail(f"{where} requires keys 'dt' and 'n_steps'")
        try:
            return TimeGrid(
                dt=_parse_float(section["dt"], where),
                n_steps=_parse_int(section["n_steps"], where),
                n_transient=_parse_int(section.get("n_transient", "0"), where),
            )
        except (ValueError, LcoError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise _fail(f"{where}: {exc}") from None

    @staticmethod
    def _build_pseudo(section) -> PseudoTimeConfig:
        where = "[pseudo_time]"
        raw_dtau = section.get("dtau", "inf") if section else "inf"
        try:
            return PseudoTimeConfig(
                dtau=_parse_float(raw_dtau, where),
                tol=_parse_float(section.get("tol", "1e-12"), where) if section else 1e-12,
                max_inner=_parse_int(section.get("max_inner", "50"), where) if section else 50,
                allow_unconverged=_parse_bool(section.get("allow_unconverged", "false"),
                                              where) if section else False,
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise _fail(f"{where}: {exc}") from None


def load_config(path: str) -> RunConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise _fail(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(config_path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise _fail(f"cannot parse {path}: {exc}") from None
    return RunConfig(parser, str(path))


def _fmt(value) -> str:
    """Serialize one CSV cell; floats keep 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _run_primal(cfg: RunConfig):
    return simulate(cfg.model, cfg.design.values, cfg.grid, cfg.pseudo)


def _primal_diagnostics(traj) -> dict:
    diag = {
        "steps": int(traj.n_steps),
        "max_inner_iterations": int(traj.inner_iterations.max()),
        "max_residual_norm": float(traj.residual_norms.max()),
        "all_converged": bool(traj.converged.all()),
    }
    try:
        period, span = estimate_period(traj.outputs, traj.grid.n_transient,
                                       traj.grid.dt)
        diag["estimated_period"] = period
        diag["span_periods"] = span
    except PeriodUndetectableError:
        diag["estimated_period"] = None
        diag["span_periods"] = None
    return diag


def _cmd_simulate(cfg: RunConfig, outdir: Path):
    traj = _run_primal(cfg)
    times = cfg.grid.times()
    d_u = cfg.model.d_u
    header = (["step", "time"] + [f"state_{i}" for i in range(d_u)]
              + ["output", "inner_iterations", "residual_norm", "converged"])
    rows = [[n, times[n], *traj.states[n], traj.outputs[n],
             traj.inner_iterations[n], traj.residual_norms[n],
             traj.converged[n]] for n in range(traj.n_steps + 1)]
    _write_csv(outdir / "trajectory.csv", header, rows)
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    results = {"windowed_average": value, "window": cfg.window.value,
               "final_state": traj.states[-1]}
    return ["trajectory.csv"], results, _primal_diagnostics(traj)


def _cmd_tangent(cfg: RunConfig, outdir: Path):
    traj = _run_primal(cfg)
    tangent = tangent_sweep(cfg.model, cfg.design.values, traj)
    times = cfg.grid.times()
    n_design = cfg.model.n_design
    header = ["step", "time"] + [f"output_sensitivity_{i}" for i in range(n_design)]
    rows = [[n, times[n], *tangent.output_sensitivities[n]]
            for n in range(traj.n_steps + 1)]
    _write_csv(outdir / "tangent.csv", header, rows)
    sens = windowed_tangent_sensitivity(tangent, cfg.window,
                                        cfg.grid.n_transient, cfg.grid.n_steps,
                                        cfg.normalization)
    results = {"windowed_sensitivity": sens, "window": cfg.window.value,
               "solve_count": tangent.solve_count}
    return ["tangent.csv"], results, _primal_diagnostics(traj)


def _cmd_adjoint(cfg: RunConfig, outdir: Path):
    traj = _run_primal(cfg)
    sweep = adjoint_sweep(cfg.model, cfg.design.values, traj, cfg.window,
                          cfg.pseudo, cfg.adjoint_mode, cfg.normalization,
                          tol=cfg.adjoint_tol)
    times = cfg.grid.times()
    n_design = cfg.model.n_design
    header = (["step", "time", "adjoint_norm", "seed_norm",
               "inner_iterations", "residual_norm", "contraction"]
              + [f"running_derivative_{i}" for i in range(n_design)])
    rows = []
    for n in range(traj.n_steps + 1):
        rows.append([n, times[n],
                     float(np.linalg.norm(sweep.adjoint_states[n])),
                     float(np.linalg.norm(sweep.seeds[n])),
                     sweep.inner_iterations[n], sweep.residual_norms[n],
                     sweep.contraction_estimates[n],
                     *sweep.running_design_derivative[n]])
    _write_csv(outdir / "adjoint.csv", header, rows)
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    results = {"design_derivative": sweep.design_derivative,
               "windowed_average": value, "window": cfg.window.value,
               "mode": cfg.adjoint_mode.value}
    diag = _primal_diagnostics(traj)
    diag["max_contraction"] = float(sweep.contraction_estimates.max())
    diag["max_adjoint_inner_iterations"] = int(sweep.inner_iterations.max())
    return ["adjoint.csv"], results, diag


def _cmd_average(cfg: RunConfig, outdir: Path):
    traj = _run_primal(cfg)
    weights = discrete_weights(cfg.window, cfg.grid.n_transient,
                               cfg.grid.n_steps, cfg.normalization)
    span = weights.span
    header = ["index", "s", "weight"]
    rows = [[i, i / span, weights.values[i]] for i in range(span + 1)]
    _write_csv(outdir / "weights.csv", header, rows)
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    _write_csv(outdir / "average.csv",
               ["window", "normalization", "n_transient", "n_final", "value"],
               [[cfg.window.value, cfg.normalization.value,
                 cfg.grid.n_transient, cfg.grid.n_steps, value]])
    results = {"windowed_average": value, "window": cfg.window.value,
               "weight_sum": float(weights.values.sum()), "span": span}
    return ["weights.csv", "average.csv"], results, _primal_diagnostics(traj)


def _study_series(cfg: RunConfig):
    """Series, reference, and period for the configured study quantity."""
    sigma = cfg.design.values
    if isinstance(cfg.model, AnalyticSignalModel):
        signal = cfg.model.signal
        times = cfg.grid.times()
        period = signal.period(sigma)
        if cfg.study_quantity == "average":
            series = np.asarray(signal.output(times, sigma), dtype=float)
            reference = signal.mean(sigma)
        else:
            series = signal.output_design_derivative(times, sigma)[:, 0]
            reference = float(signal.mean_design_gradient(sigma)[0])
        if cfg.study_reference is not None:
            reference = cfg.study_reference
        if cfg.study_period is not None:
            period = cfg.study_period
        return series, reference, period

    traj = _run_primal(cfg)
    if cfg.study_quantity == "average":
        series = traj.outputs
    else:
        tangent = tangent_sweep(cfg.model, sigma, traj)
        series = tangent.output_sensitivities[:, 0]
    period = cfg.study_period
    if period is None:
        period, _ = estimate_period(traj.outputs, cfg.grid.n_transient,
                                    cfg.grid.dt)
    return series, cfg.study_reference, period


def _cmd_study(cfg: RunConfig, outdir: Path):
    series, reference, period = _study_series(cfg)
    rows = []
    summary = {}
    for kind in cfg.study_windows:
        study = convergence_study(series, kind, cfg.grid.n_transient,
                                  cfg.grid.dt, cfg.study_k_list,
                                  reference=reference, period=period,
                                  span_offset=cfg.study_span_offset,
                                  mode=cfg.normalization)
        slope = study.slope if study.slope is not None else math.nan
        for i, k in enumerate(study.requested_k):
            rows.append([kind.value, k, int(study.end_steps[i]),
                         study.values[i], study.errors[i], slope])
        summary[kind.value] = {
            "slope": study.slope,
            "fit_residual": study.fit_residual,
            "reference": study.reference,
            "reference_source": study.reference_source,
            "period": study.period,
        }
    _write_csv(outdir / "study.csv",
               ["window", "k", "end_step", "value", "error", "slope"], rows)
    results = {"quantity": cfg.study_quantity, "windows": summary}
    return ["study.csv"], results, {"series_length": int(len(series))}


def _cmd_optimize(cfg: RunConfig, outdir: Path):
    constraint_model = None
    if cfg.opt_constraint_output:
        try:
            kind = OutputKind.from_name(cfg.opt_constraint_output)
        except ValueError as exc:
            raise _fail(str(exc)) from None
        if isinstance(cfg.model, AnalyticSignalModel):
            raise _fail("the analytic-signal model has no constraint output")
        constraint_model = dataclasses.replace(cfg.model, output=kind)
    problem = DesignProblem(objective_model=cfg.model, design=cfg.design,
                            grid=cfg.grid, kind=cfg.window,
                            constraint_model=constraint_model,
                            bound=cfg.opt_bound,
                            relaxation=cfg.opt_relaxation,
                            max_iterations=cfg.opt_max_iterations,
                            pseudo=cfg.pseudo,
                            normalization=cfg.normalization,
                            adjoint_mode=cfg.adjoint_mode,
                            penalty=cfg.opt_penalty,
                            grad_tolerance=cfg.opt_grad_tolerance,
                            max_backtracks=cfg.opt_max_backtracks)
    history = optimize(problem, cfg.design.values)
    n_design = cfg.model.n_design
    header = (["iteration"] + [f"sigma_{i}" for i in range(n_design)]
              + ["objective", "constraint", "feasible", "grad_norm",
                 "step_size", "penalty", "merit"])
    rows = [[rec.iteration, *rec.sigma, rec.objective, rec.constraint,
             rec.feasible, rec.grad_norm, rec.step_size, rec.penalty,
             rec.merit] for rec in history.records]
    _write_csv(outdir / "history.csv", header, rows)
    results = {"final_design": history.final_design,
               "converged": history.converged,
               "line_search_failed": history.line_search_failed,
               "iterations": history.iterations,
               "evaluations": history.evaluations,
               "message": history.message}
    return ["history.csv"], results, {"iterations": history.iterations}


_RUNNERS = {
    "simulate": _cmd_simulate,
    "tangent": _cmd_tangent,
    "adjoint": _cmd_adjoint,
    "average": _cmd_average,
    "study": _cmd_study,
    "optimize": _cmd_optimize,
}


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcowind",
        description="Windowed time averaging and sensitivities of "
                    "limit-cycle simulations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to an INI run configuration")
    common.add_argument("--output-dir", default=None,
                        help="directory for CSV and manifest outputs "
                             "(falls back to [output] directory, then "
                             "LCO_OUTPUT_DIR)")
    common.add_argument("--window", default=None,
                        help="override the window kind "
                             "(square, hann, hann-square, bump)")

    sub.add_parser("simulate", parents=[common],
                   help="march the model and dump the trajectory")
    sub.add_parser("tangent", parents=[common],
                   help="forward sensitivity sweep along the trajectory")
    adj = sub.add_parser("adjoint", parents=[common],
                         help="reverse sweep and design derivative")
    adj.add_argument("--mode", default=None,
                     choices=[m.value for m in AdjointMode],
                     help="override the adjoint solve mode")
    sub.add_parser("average", parents=[common],
                   help="windowed average of the recorded output")
    study = sub.add_parser("study", parents=[common],
                           help="convergence study over period counts")
    study.add_argument("--quantity", default=None,
                       choices=["average", "sensitivity"],
                       help="which windowed quantity to study")
    study.add_argument("--windows", default=None,
                       help="'all' or comma-separated window kinds")
    study.add_argument("--k-list", default=None,
                       help="comma-separated period counts")
    sub.add_parser("optimize", parents=[common],
                   help="projected-gradient design loop")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> None:
    try:
        if args.window is not None:
            cfg.window = Window.from_name(args.window)
        if getattr(args, "mode", None) is not None:
            cfg.adjoint_mode = AdjointMode.from_name(args.mode)
        if getattr(args, "quantity", None) is not None:
            cfg.study_quantity = args.quantity
        if getattr(args, "windows", None) is not None:
            cfg.study_windows = RunConfig._parse_windows(args.windows)
        if getattr(args, "k_list", None) is not None:
            cfg.study_k_list = _parse_floats(args.k_list, "--k-list")
    except ValueError as exc:
        raise _fail(str(exc)) from None


def _resolve_output_dir(cfg: RunConfig, args) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    if cfg.output_directory:
        return Path(cfg.output_directory)
    env = os.environ.get("LCO_OUTPUT_DIR")
    if env:
        return Path(env)
    return Path("lcowind-out")


@contextmanager
def _output_directory(outdir: Path):
    """Create outdir and its missing parents for the block; if the block
    fails, remove the ones created here that are still empty."""
    created = list(takewhile(lambda path: not path.exists(),
                             (outdir, *outdir.parents)))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for path in created:
            try:
                path.rmdir()
            except OSError:
                break
        raise


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        outdir = _resolve_output_dir(cfg, args)
        with _output_directory(outdir):
            files, results, diagnostics = _RUNNERS[args.subcommand](cfg, outdir)
            manifest = {
                "subcommand": args.subcommand,
                "config_path": cfg.path,
                "config": cfg.echo,
                "versions": {
                    "lcowind": __version__,
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "scipy": _scipy_version(),
                },
                "wall_time_s": time.perf_counter() - started,
                "timestamp_utc": datetime.now(timezone.utc).isoformat(),
                "outputs": files,
                "diagnostics": _json_ready(diagnostics),
                "results": _json_ready(results),
            }
            with open(outdir / "manifest.json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 0
    except ConfigError as exc:
        _report_error(exc, 2)
        return 2
    except LcoError as exc:
        _report_error(exc, 3)
        return 3
    except OSError as exc:
        _report_error(exc, 4)
        return 4


def _scipy_version() -> str:
    import scipy
    return scipy.__version__


_ERROR_FIELDS = ("step", "iterations", "residual_norm", "contraction",
                 "design_iterate")


def _report_error(exc: Exception, code: int) -> None:
    """Print one JSON line with the error's type, message, exit code and
    whichever structured fields the exception carries."""
    record = {"error": type(exc).__name__, "message": str(exc),
              "exit_code": code}
    for name in _ERROR_FIELDS:
        if getattr(exc, name, None) is not None:
            record[name] = _json_ready(getattr(exc, name))
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def console_main() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    sys.exit(main())
