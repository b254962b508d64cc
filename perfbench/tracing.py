"""Spans and work counts around lcowind's layers, recorded from outside the package.

While a `Tracer` is installed, each traced function is replaced, at every
attribute of the lcowind modules that refers to it, by a wrapper that
records a span.  A subcommand's calls then leave spans in the order it makes
them, each with the span that was open when it started as its parent.

Model calls are counted by a subclass of the configured model that the
tracer substitutes when the CLI loads its config, so the CLI and the sweeps
run on it unchanged.  The per-step work counts come from it and from the
counters the sweeps already return.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
import types
from collections import Counter

# Public entry points per layer.  Per-step helpers such as pseudo_time_step
# are left out: a span costs about a microsecond, as much as the work they do.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "primal": ("simulate", "estimate_period"),
    "tangent": ("tangent_sweep", "windowed_tangent_sensitivity"),
    "adjoint": ("adjoint_sweep",),
    "windows": ("discrete_weights",),
    "analysis": ("windowed_average", "convergence_study"),
    "optim": ("optimize", "evaluate_design"),
}

# The function whose return value counts each layer's physical steps.
SWEEPS = {"primal": "simulate", "tangent": "tangent_sweep", "adjoint": "adjoint_sweep"}

MODEL_METHODS = ("initial_state", "residual", "jacobian_state", "jacobian_design",
                 "output_value", "output_state_gradient", "output_design_gradient")


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    parent: int | None   # index into Tracer.spans
    nested: bool         # an enclosing span belongs to the same layer
    start: float
    end: float = 0.0
    work: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _work(name: str, result) -> dict:
    """Counters read off a traced function's return value."""
    if name == "simulate":
        return {"steps": result.n_steps,
                "inner_iterations": int(result.inner_iterations.sum())}
    if name == "tangent_sweep":
        return {"steps": len(result.output_sensitivities) - 1,
                "solves": result.solve_count}
    if name == "adjoint_sweep":
        return {"steps": len(result.inner_iterations) - 1,
                "inner_iterations": int(result.inner_iterations.sum())}
    if name == "optimize":
        return {"iterations": result.iterations, "evaluations": result.evaluations}
    return {}


class Tracer:
    """Spans, model-call counts and recorded window-weight calls of traced operations."""

    def __init__(self):
        self.spans: list[Span] = []
        self.model_calls: Counter = Counter()   # (layer, method) -> calls
        self.model_seconds = 0.0
        self.weight_calls: list[tuple[tuple, dict]] = []
        self._stack: list[int] = []
        self._open_layers: Counter = Counter()

    def _current_layer(self) -> str:
        return self.spans[self._stack[-1]].layer if self._stack else "cli"

    def _traced(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "discrete_weights":
                self.weight_calls.append((args, kwargs))
            span = Span(layer=layer, name=name,
                        parent=self._stack[-1] if self._stack else None,
                        nested=self._open_layers[layer] > 0,
                        start=time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open_layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open_layers[layer] -= 1
                self._stack.pop()
            span.work = _work(name, result)
            return result
        return traced

    def _counting_model(self, model):
        """A copy of `model` whose methods count and time each call."""
        tracer = self

        def counted(name, method):
            @functools.wraps(method)
            def call(model_self, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return method(model_self, *args, **kwargs)
                finally:
                    tracer.model_seconds += time.perf_counter() - start
                    tracer.model_calls[(tracer._current_layer(), name)] += 1
            return call

        cls = type(model)
        counting_cls = type(f"Counting{cls.__name__}", (cls,),
                            {name: counted(name, getattr(cls, name))
                             for name in MODEL_METHODS})
        return counting_cls(**{f.name: getattr(model, f.name)
                               for f in dataclasses.fields(model) if f.init})

    @contextlib.contextmanager
    def installed(self):
        """Trace every lcowind call made inside the block."""
        modules = {name: module for name, module in sys.modules.items()
                   if name == "lcowind" or name.startswith("lcowind.")}
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = modules[f"lcowind.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._traced(layer, name, fn)

        cli = modules["lcowind.cli"]
        load_config = cli.load_config

        def counting_load_config(path):
            cfg = load_config(path)
            cfg.model = self._counting_model(cfg.model)
            return cfg

        patches = [(module, attr, value, wrappers[value])
                   for module in modules.values()
                   for attr, value in list(vars(module).items())
                   if isinstance(value, types.FunctionType) and value in wrappers]
        patches.append((cli, "load_config", load_config, counting_load_config))
        try:
            for module, attr, _, replacement in patches:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def work(self, name: str, key: str) -> int:
        return sum(s.work[key] for s in self.named(name))

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def steps(self, layer: str) -> int:
        """Physical steps marched by the layer's sweeps."""
        return self.work(SWEEPS[layer], "steps")

    def calls_per_step(self, layer: str, method: str) -> float:
        """Model calls made inside the layer's spans, per physical step it marched."""
        return _ratio(self.model_calls[(layer, method)], self.steps(layer))

    def replay_weight_seconds(self) -> float:
        """Time to recompute every recorded discrete_weights call, untraced."""
        from lcowind.windows import discrete_weights
        start = time.perf_counter()
        for args, kwargs in self.weight_calls:
            discrete_weights(*args, **kwargs)
        return time.perf_counter() - start


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced operation, as name -> (value, unit).

    Times are inclusive of the layer's callees except `cli.self_s`.  A
    share is the layer's outermost spans over the traced operation time.
    """
    spans = tracer.spans
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def layer_seconds(layer):
        return sum(s.seconds for s in spans if s.layer == layer and not s.nested)

    work, seconds, steps = tracer.work, tracer.seconds, tracer.steps
    op_seconds = layer_seconds("cli")
    cli_self = sum(s.seconds - child_seconds[i] for i, s in enumerate(spans)
                   if s.layer == "cli")
    evaluations = len(tracer.named("evaluate_design"))

    metrics = {
        "cli.self_s": (cli_self / n_ops, "s"),
        "primal.us_per_step": (1e6 * _ratio(seconds("simulate"), steps("primal")), "us"),
        "primal.inner_iters_per_step": (
            _ratio(work("simulate", "inner_iterations"), steps("primal")), "1/step"),
        "primal.residual_evals_per_step": (
            tracer.calls_per_step("primal", "residual"), "1/step"),
        "primal.jacobian_evals_per_step": (
            tracer.calls_per_step("primal", "jacobian_state"), "1/step"),
        "tangent.us_per_step": (
            1e6 * _ratio(seconds("tangent_sweep"), steps("tangent")), "us"),
        "tangent.solves_per_step": (
            _ratio(work("tangent_sweep", "solves"), steps("tangent")), "1/step"),
        "adjoint.us_per_step": (
            1e6 * _ratio(seconds("adjoint_sweep"), steps("adjoint")), "us"),
        "adjoint.inner_iters_per_step": (
            _ratio(work("adjoint_sweep", "inner_iterations"), steps("adjoint")), "1/step"),
        "adjoint.jacobian_evals_per_step": (
            tracer.calls_per_step("adjoint", "jacobian_state"), "1/step"),
        "adjoint.design_jacobian_evals_per_step": (
            tracer.calls_per_step("adjoint", "jacobian_design"), "1/step"),
        "optim.evaluations": (_ratio(work("optimize", "evaluations"), n_ops), "count"),
        "optim.iterations": (_ratio(work("optimize", "iterations"), n_ops), "count"),
        "optim.s_per_evaluation": (_ratio(seconds("evaluate_design"), evaluations), "s"),
        "optim.gradient_use_ratio": (
            _ratio(work("optimize", "iterations"), work("optimize", "evaluations")),
            "ratio"),
        "windows.weights_calls_per_op": (
            len(tracer.named("discrete_weights")) / n_ops, "count"),
        "analysis.study_s": (seconds("convergence_study") / n_ops, "s"),
        "models.calls_per_op": (sum(tracer.model_calls.values()) / n_ops, "count"),
        "models.busy_s": (tracer.model_seconds / n_ops, "s"),
    }
    for layer in ("primal", "tangent", "adjoint", "windows", "analysis"):
        metrics[f"{layer}.share_pct"] = (100.0 * _ratio(layer_seconds(layer), op_seconds), "%")
    metrics["models.share_pct"] = (100.0 * _ratio(tracer.model_seconds, op_seconds), "%")
    metrics["cli.self_share_pct"] = (100.0 * _ratio(cli_self, op_seconds), "%")
    return metrics
