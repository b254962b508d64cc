"""Command-line front end: config-driven runs with CSV and JSON artifacts.

Config files use INI syntax with a fixed schema; unknown sections or keys
are rejected before any computation or file creation happens.  A run
that succeeds then writes one or more CSV files plus a manifest.json tying
together the config echo, library versions, wall time, and result numbers;
a failed run creates no directory.  CSV bodies are deterministic:
identical configs yield byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .adjoint import AdjointMode, adjoint_sweep, contraction_estimates
from .analysis import (DEFAULT_SPAN_OFFSET, convergence_study, windowed_average)
from .errors import ConfigError, LcoError, PeriodUndetectableError
from .models import (AnalyticSignal, AnalyticSignalModel, DesignVector,
                     ForcedOscillator, OutputKind, VanDerPol)
from .optim import DesignProblem, optimize
from .primal import PseudoTimeConfig, TimeGrid, _row_norms, estimate_period, simulate
from .tangent import tangent_sweep, windowed_tangent_sensitivity
from .windows import NormalizationMode, Window, discrete_weights

__all__ = ["main", "console_main"]

_MODELS = {"analytic-signal": AnalyticSignal, "van-der-pol": VanDerPol,
           "forced-oscillator": ForcedOscillator}


@contextmanager
def _blame(where: str):
    """Report a ValueError raised in the block as a ConfigError about `where`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _real(domain: str, inside=math.isfinite):
    """Parser of one number that `inside` accepts; `domain` describes it."""
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got {raw!r}") from None
        if not inside(value):
            raise ValueError(f"must be {domain}, got {raw.strip()}")
        return value
    return parse


def _integer(minimum: int):
    """Parser of one integer no smaller than `minimum`."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _listing(item, increasing: bool = False):
    """Parser of a non-empty comma-separated list of `item` values."""
    def parse(raw: str) -> list:
        values = [item(part) for part in raw.split(",") if part.strip()]
        if not values:
            raise ValueError("expected a comma-separated list, got nothing")
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("must be strictly increasing")
        return values
    return parse


def _one_of(choices: dict):
    """Parser of a name in `choices`, ignoring case and blanks, to its value."""
    def parse(raw: str):
        try:
            return choices[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"expected one of: {', '.join(choices)}, "
                             f"got {raw!r}") from None
    return parse


def _windows(raw: str) -> list[Window]:
    if raw.strip().lower() == "all":
        return list(Window)
    kinds = _listing(Window.from_name)(raw)
    if len(set(kinds)) < len(kinds):
        raise ValueError("must not repeat a window")
    return kinds


_FINITE = _real("finite")
_FINITES = _listing(_FINITE)
_POSITIVE = _real("positive and finite", lambda x: 0.0 < x < math.inf)
_NONNEGATIVE = _real("non-negative and finite", lambda x: 0.0 <= x < math.inf)
_DTAU = _real("positive (inf selects Newton)", lambda x: x > 0.0)
_FRACTION = _real("in (0, 1]", lambda x: 0.0 < x <= 1.0)
_BOUNDS = _listing(_real("a number or +-inf, not nan", lambda x: x == x))
_BOOLEAN = _one_of(configparser.ConfigParser.BOOLEAN_STATES)
_QUANTITIES = ("average", "sensitivity")
_QUANTITY = _one_of({name: name for name in _QUANTITIES})


class _Key(NamedTuple):
    parse: Callable[[str], object]  # raw text -> value in the key's domain
    default: object                 # raw text used when the key is absent
    attr: str                       # RunConfig attribute that holds the value


_REQUIRED = object()  # default of a key every config must set

# Every config key.  A default of None leaves the attribute None when the
# key is absent.  Attributes named after a field of a model, TimeGrid,
# PseudoTimeConfig or DesignProblem feed that field, and their keys hold no
# default: an absent one leaves the field at its dataclass default.
_SCHEMA = {
    ("model", "name"): _Key(_one_of(_MODELS), _REQUIRED, "model_class"),
    ("model", "output"): _Key(OutputKind.from_name, None, "output"),
    ("model", "a0"): _Key(_FINITE, None, "a0"),
    ("model", "a1"): _Key(_FINITES, None, "a1"),
    ("model", "amplitude"): _Key(_FINITE, None, "amplitude"),
    ("model", "base_period"): _Key(_POSITIVE, None, "base_period"),
    ("model", "growth_rate"): _Key(_FINITE, None, "growth_rate"),
    ("model", "quad"): _Key(_FINITE, None, "quad"),
    ("model", "quad_center"): _Key(_FINITES, None, "quad_center"),
    ("model", "omega"): _Key(_POSITIVE, None, "omega"),
    ("model", "stiffness0"): _Key(_FINITE, None, "stiffness0"),
    ("model", "damping0"): _Key(_FINITE, None, "damping0"),
    ("model", "forcing"): _Key(_FINITE, None, "forcing"),
    ("design", "values"): _Key(_FINITES, _REQUIRED, "design_values"),
    ("design", "lower"): _Key(_BOUNDS, None, "design_lower"),
    ("design", "upper"): _Key(_BOUNDS, None, "design_upper"),
    ("grid", "dt"): _Key(_POSITIVE, _REQUIRED, "dt"),
    ("grid", "n_steps"): _Key(_integer(1), _REQUIRED, "n_steps"),
    ("grid", "n_transient"): _Key(_integer(0), None, "n_transient"),
    ("pseudo_time", "dtau"): _Key(_DTAU, None, "dtau"),
    ("pseudo_time", "tol"): _Key(_POSITIVE, None, "tol"),
    ("pseudo_time", "max_inner"): _Key(_integer(1), None, "max_inner"),
    ("pseudo_time", "allow_unconverged"): _Key(_BOOLEAN, None, "allow_unconverged"),
    ("window", "kind"): _Key(Window.from_name, "bump", "window"),
    ("window", "normalization"): _Key(NormalizationMode.from_name, "paper-faithful",
                                      "normalization"),
    ("adjoint", "mode"): _Key(AdjointMode.from_name, "fixed-point", "adjoint_mode"),
    ("adjoint", "tol"): _Key(_POSITIVE, None, "adjoint_tol"),
    ("study", "quantity"): _Key(_QUANTITY, "average", "study_quantity"),
    ("study", "windows"): _Key(_windows, "all", "study_windows"),
    ("study", "k_list"): _Key(_listing(_POSITIVE, increasing=True), "2,4,8,16,32,64",
                              "study_k_list"),
    ("study", "span_offset"): _Key(_NONNEGATIVE, str(DEFAULT_SPAN_OFFSET),
                                   "study_span_offset"),
    ("study", "reference"): _Key(_FINITE, None, "study_reference"),
    ("study", "period"): _Key(_POSITIVE, None, "study_period"),
    ("optimize", "bound"): _Key(_FINITE, None, "bound"),
    ("optimize", "constraint_output"): _Key(OutputKind.from_name, None, "constraint_output"),
    ("optimize", "relaxation"): _Key(_FRACTION, None, "relaxation"),
    ("optimize", "max_iterations"): _Key(_integer(1), None, "max_iterations"),
    ("optimize", "penalty"): _Key(_POSITIVE, None, "penalty"),
    ("optimize", "grad_tolerance"): _Key(_NONNEGATIVE, None, "grad_tolerance"),
    ("optimize", "max_backtracks"): _Key(_integer(0), None, "max_backtracks"),
    ("output", "directory"): _Key(str.strip, None, "output_directory"),
}

# CLI flag -> (the config key it overrides, the subcommands that take it or
# None for every one, help).  A flag's value goes through its key's parser.
_FLAGS = {
    "--window": (("window", "kind"), None,
                 f"override the window kind ({', '.join(k.value for k in Window)})"),
    "--mode": (("adjoint", "mode"), ("adjoint",),
               f"override the adjoint solve mode ({', '.join(m.value for m in AdjointMode)})"),
    "--quantity": (("study", "quantity"), ("study",),
                   f"which windowed quantity to study ({', '.join(_QUANTITIES)})"),
    "--windows": (("study", "windows"), ("study",), "'all' or comma-separated window kinds"),
    "--k-list": (("study", "k_list"), ("study",), "comma-separated period counts"),
}


class RunConfig:
    """Validated run options plus the raw config echo for the manifest."""

    def __init__(self, parser: configparser.ConfigParser, path: str):
        self.path = path
        self.echo = {section: dict(parser.items(section))
                     for section in parser.sections()}
        sections = {section for section, _ in _SCHEMA}
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if (section, key) not in _SCHEMA:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for (section, key), spec in _SCHEMA.items():
            raw = parser.get(section, key, fallback=spec.default)
            if raw is _REQUIRED:
                raise ConfigError(f"[{section}] {key}: required key is missing")
            with _blame(f"[{section}] {key}"):
                setattr(self, spec.attr, None if raw is None else spec.parse(raw))

        with _blame("[model]"):
            self.model = self._build_model()
        values = np.array(self.design_values)
        with _blame("[design]"):
            self.design = DesignVector(
                values=values,
                lower=(np.full_like(values, -math.inf) if self.design_lower is None
                       else np.array(self.design_lower)),
                upper=(np.full_like(values, math.inf) if self.design_upper is None
                       else np.array(self.design_upper)))
        if self.design.n_design != self.model.n_design:
            raise ConfigError(f"design has {self.design.n_design} values but the "
                              f"model expects {self.model.n_design}")
        # a design outside the model's domain fails here, not mid-run: the
        # residual and the output at the initial state.  The residual takes
        # the state as floats, as the march passes it, so an overflow gives
        # inf or nan without a numpy warning
        with _blame("[design] values"):
            u0 = self.model.initial_state(self.design.values)
            self.model.residual(u0.tolist(), self.design.values)
            self.model.output_value(u0, self.design.values)
        with _blame("[grid]"):
            self.grid = TimeGrid(**self._fields(TimeGrid))
        # a forcing term such as sin(omega t) is finite at t = 0 but may have
        # no value at the last step; past the grid check that time is finite
        t_final = self.grid.n_steps * self.grid.dt
        with _blame(f"[model] {self.model.name}: residual at the final time t = {t_final!r}"):
            self.model.residual(u0.tolist(), self.design.values, t_final)
        with _blame("[pseudo_time]"):
            self.pseudo = PseudoTimeConfig(**self._fields(PseudoTimeConfig))
        if (self.constraint_output is not None
                and isinstance(self.model, AnalyticSignalModel)):
            raise ConfigError("[optimize] constraint_output: the analytic-signal "
                              "model has no constraint output")

    def _fields(self, cls) -> dict:
        """Keyword arguments for dataclass `cls`, read from the same-named
        attributes that are set: a field whose attribute is missing or None
        keeps its dataclass default."""
        fields = {f.name: getattr(self, f.name, None) for f in dataclasses.fields(cls)}
        return {name: value for name, value in fields.items() if value is not None}

    def _build_model(self):
        model = self.model_class(**self._fields(self.model_class))
        return (AnalyticSignalModel(model) if isinstance(model, AnalyticSignal)
                else model)


def load_config(path: str) -> RunConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(config_path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    return RunConfig(parser, str(path))


def _quoted(text: str) -> str:
    """One CSV cell as csv's QUOTE_MINIMAL writes it with a "\\n" line end:
    quoted, its quotes doubled, when it holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# column dtype kind -> the %-format of its cells; bools and strings arrive
# as text, so "%d" % True never writes 1
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "b": "%s", "U": "%s"}


def _write_csv(path: Path, header, columns):
    """Write a table given by columns, each an array, a range or a list of
    one type: floats with 17 significant digits, integers in decimal, bools
    as true/false and text quoted by _quoted.  Each column is converted
    once, every row is formatted by one line format, and a column of
    another length than the others raises ValueError."""
    cells, formats = [], []
    for column in columns:
        array = np.asarray(column)
        kind = array.dtype.kind
        formats.append(_CELL_FORMATS[kind])
        values = array.tolist()
        if kind == "b":
            values = ["true" if v else "false" for v in values]
        elif kind == "U":
            values = [_quoted(v) for v in values]
        cells.append(values)
    line = ",".join(formats) + "\n"
    body = "".join([line % row for row in zip(*cells, strict=True)])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(_quoted, header)) + "\n" + body)


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


def _cmd_simulate(cfg: RunConfig):
    traj = _run_primal(cfg)
    d_u = cfg.model.d_u
    header = (["step", "time"] + [f"state_{i}" for i in range(d_u)]
              + ["output", "inner_iterations", "residual_norm", "converged"])
    tables = {"trajectory.csv": (header, [
        range(traj.n_steps + 1), cfg.grid.times(), *traj.states.T, traj.outputs,
        traj.inner_iterations, traj.residual_norms, traj.converged])}
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    results = {"windowed_average": value, "window": cfg.window.value,
               "final_state": traj.states[-1]}
    return tables, results, _primal_diagnostics(traj)


def _cmd_tangent(cfg: RunConfig):
    traj = _run_primal(cfg)
    tangent = tangent_sweep(cfg.model, cfg.design.values, traj)
    n_design = cfg.model.n_design
    header = ["step", "time"] + [f"output_sensitivity_{i}" for i in range(n_design)]
    tables = {"tangent.csv": (header, [range(traj.n_steps + 1), cfg.grid.times(),
                                       *tangent.output_sensitivities.T])}
    sens = windowed_tangent_sensitivity(tangent, cfg.window,
                                        cfg.grid.n_transient, cfg.grid.n_steps,
                                        cfg.normalization)
    results = {"windowed_sensitivity": sens, "window": cfg.window.value,
               "solve_count": tangent.solve_count}
    return tables, results, _primal_diagnostics(traj)


def _cmd_adjoint(cfg: RunConfig):
    traj = _run_primal(cfg)
    sweep = adjoint_sweep(cfg.model, cfg.design.values, traj, cfg.window,
                          cfg.pseudo, cfg.adjoint_mode, cfg.normalization,
                          tol=cfg.adjoint_tol)
    contractions = contraction_estimates(sweep.steps, cfg.pseudo)
    n_design = cfg.model.n_design
    header = (["step", "time", "adjoint_norm", "seed_norm",
               "inner_iterations", "residual_norm", "contraction"]
              + [f"running_derivative_{i}" for i in range(n_design)])
    tables = {"adjoint.csv": (header, [
        range(traj.n_steps + 1), cfg.grid.times(), _row_norms(sweep.adjoint_states),
        _row_norms(sweep.seeds), sweep.inner_iterations, sweep.residual_norms,
        contractions, *sweep.running_design_derivative.T])}
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    results = {"design_derivative": sweep.design_derivative,
               "windowed_average": value, "window": cfg.window.value,
               "mode": cfg.adjoint_mode.value}
    diag = _primal_diagnostics(traj)
    diag["max_contraction"] = float(contractions.max())
    diag["max_adjoint_inner_iterations"] = int(sweep.inner_iterations.max())
    return tables, results, diag


def _cmd_average(cfg: RunConfig):
    traj = _run_primal(cfg)
    weights = discrete_weights(cfg.window, cfg.grid.n_transient,
                               cfg.grid.n_steps, cfg.normalization)
    span = len(weights) - 1
    value = windowed_average(traj.outputs, cfg.window, cfg.grid.n_transient,
                             cfg.grid.n_steps, cfg.normalization)
    tables = {"weights.csv": (["index", "s", "weight"],
                              [range(span + 1), [i / span for i in range(span + 1)], weights]),
              "average.csv": (["window", "normalization", "n_transient", "n_final", "value"],
                              [[cfg.window.value], [cfg.normalization.value],
                               [cfg.grid.n_transient], [cfg.grid.n_steps], [value]])}
    results = {"windowed_average": value, "window": cfg.window.value,
               "weight_sum": float(weights.sum()), "span": span}
    return tables, results, _primal_diagnostics(traj)


def _study_series(cfg: RunConfig):
    """Series, reference, and period for the configured study quantity.
    [study] reference and period replace the ones found here, and the
    period is found only when it is not set."""
    sigma = cfg.design.values
    analytic = isinstance(cfg.model, AnalyticSignalModel)
    if analytic:
        signal = cfg.model.signal
        times = cfg.grid.times()
        if cfg.study_quantity == "average":
            series = np.asarray(signal.output(times, sigma), dtype=float)
            reference = signal.mean(sigma)
        else:
            series = signal.output_design_derivative(times, sigma)[:, 0]
            reference = float(signal.mean_design_gradient(sigma)[0])
    else:
        traj = _run_primal(cfg)
        if cfg.study_quantity == "average":
            series = traj.outputs
        else:
            tangent = tangent_sweep(cfg.model, sigma, traj)
            series = tangent.output_sensitivities[:, 0]
        reference = None  # the study extrapolates its own
    if cfg.study_reference is not None:
        reference = cfg.study_reference
    period = cfg.study_period
    if period is None:
        period = (signal.period(sigma) if analytic else
                  estimate_period(traj.outputs, cfg.grid.n_transient, cfg.grid.dt)[0])
    return series, reference, period


def _cmd_study(cfg: RunConfig):
    series, reference, period = _study_series(cfg)
    studies = convergence_study(series, cfg.study_windows, cfg.grid.n_transient,
                                cfg.grid.dt, cfg.study_k_list,
                                reference=reference, period=period,
                                span_offset=cfg.study_span_offset,
                                mode=cfg.normalization)
    lengths = [len(study.requested_k) for study in studies]
    tables = {"study.csv": (["window", "k", "end_step", "value", "error", "slope"], [
        np.repeat([study.kind.value for study in studies], lengths),
        *(np.concatenate([getattr(study, name) for study in studies])
          for name in ("requested_k", "end_steps", "values", "errors")),
        np.repeat([math.nan if study.slope is None else study.slope
                   for study in studies], lengths)])}
    summary = {study.kind.value: {"slope": study.slope,
                                  "fit_residual": study.fit_residual,
                                  "reference": study.reference,
                                  "reference_source": study.reference_source,
                                  "period": study.period}
               for study in studies}
    results = {"quantity": cfg.study_quantity, "windows": summary}
    return tables, results, {"series_length": int(len(series))}


def _cmd_optimize(cfg: RunConfig):
    constraint_model = (None if cfg.constraint_output is None
                        else dataclasses.replace(cfg.model, output=cfg.constraint_output))
    problem = DesignProblem(objective_model=cfg.model, kind=cfg.window,
                            constraint_model=constraint_model,
                            **cfg._fields(DesignProblem))
    history = optimize(problem, cfg.design.values)
    n_design = cfg.model.n_design
    header = (["iteration"] + [f"sigma_{i}" for i in range(n_design)]
              + ["objective", "constraint", "feasible", "grad_norm",
                 "step_size", "penalty", "merit"])

    def field(name):
        return [getattr(rec, name) for rec in history.records]
    tables = {"history.csv": (header, [
        field("iteration"), *np.array(field("sigma")).T,
        *map(field, ("objective", "constraint", "feasible", "grad_norm",
                     "step_size", "penalty", "merit"))])}
    results = {"final_design": history.final_design,
               "converged": history.converged,
               "line_search_failed": history.line_search_failed,
               "iterations": history.iterations,
               "evaluations": history.evaluations,
               "message": history.message}
    diagnostics = {"iterations": history.iterations,
                   "final_penalty": history.records[-1].penalty,
                   "feasible_iterates": sum(rec.feasible for rec in history.records)}
    return tables, results, diagnostics


# subcommand -> (runner, help).  A runner takes the config alone and returns
# (tables, results, diagnostics), tables mapping each CSV name, in write
# order, to the (header, columns) that main hands _write_csv after the run.
_COMMANDS = {
    "simulate": (_cmd_simulate, "march the model and dump the trajectory"),
    "tangent": (_cmd_tangent, "forward sensitivity sweep along the trajectory"),
    "adjoint": (_cmd_adjoint, "reverse sweep and design derivative"),
    "average": (_cmd_average, "windowed average of the recorded output"),
    "study": (_cmd_study, "convergence study over period counts"),
    "optimize": (_cmd_optimize, "projected-gradient design loop"),
}
SUBCOMMANDS = tuple(_COMMANDS)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcowind",
        description="Windowed time averaging and sensitivities of "
                    "limit-cycle simulations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # argparse copies a parent parser's arguments faster than it adds them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to an INI run configuration")
    common.add_argument("--output-dir",
                        help="directory for CSV and manifest outputs "
                             "(falls back to [output] directory, then "
                             "LCO_OUTPUT_DIR)")
    for flag, (_, takers, help_text) in _FLAGS.items():
        if takers is None:
            common.add_argument(flag, help=help_text)
    commands = {name: sub.add_parser(name, parents=[common], help=help_text)
                for name, (_, help_text) in _COMMANDS.items()}
    for flag, (_, takers, help_text) in _FLAGS.items():
        for name in takers or ():
            commands[name].add_argument(flag, help=help_text)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> None:
    for flag, (key, _, _) in _FLAGS.items():
        raw = getattr(args, flag[2:].replace("-", "_"), None)
        if raw is not None:
            with _blame(flag):
                setattr(cfg, _SCHEMA[key].attr, _SCHEMA[key].parse(raw))


def _resolve_output_dir(cfg: RunConfig, args) -> Path:
    return Path(args.output_dir or cfg.output_directory
                or os.environ.get("LCO_OUTPUT_DIR") or "lcowind-out")


_parser = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_arg_parser()
    args = _parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # a warning goes out as one JSON line; one that the interpreter's
        # filters raise is caught below as an error
        with warnings.catch_warnings():
            warnings.showwarning = _report_warning
            cfg = load_config(args.config)
            _apply_overrides(cfg, args)
            run, _ = _COMMANDS[args.subcommand]
            tables, results, diagnostics = run(cfg)
        outdir = _resolve_output_dir(cfg, args)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, columns) in tables.items():
            _write_csv(outdir / name, header, columns)
        manifest = {
            "subcommand": args.subcommand,
            "config_path": cfg.path,
            "config": cfg.echo,
            "versions": {
                "lcowind": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "wall_time_s": time.perf_counter() - started,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": list(tables),
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
    except (LcoError, Warning) as exc:
        _report_error(exc, 3)
        return 3
    except OSError as exc:
        _report_error(exc, 4)
        return 4


_ERROR_FIELDS = ("step", "iterations", "residual_norm", "floor", "contraction",
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


def _report_warning(message, category, filename, lineno, file=None, line=None):
    """Print one JSON line with the warning's message and category name."""
    print(json.dumps({"message": str(message), "warning": category.__name__},
                     sort_keys=True), file=sys.stderr)


def console_main() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    sys.exit(main())
