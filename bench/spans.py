"""Span tracing around the public entry points of each apimod layer.

Wrappers are installed only for a traced run. Each one replaces a layer
function in every ``apimod`` module namespace that holds it (and in the
parser's format-dispatch table), so calls between layers are traced too and
nest as child spans: ``compare_scenarios`` -> ``propagate`` ->
``validate_goal_model``, ``parse_model`` -> ``tokenize``. Spans are kept in
memory and turned into per-layer metrics at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter

#: layer -> (module, traced public functions)
LAYERS = {
    "lexer": ("apimod.dsl.lexer", ("tokenize",)),
    "parser": ("apimod.dsl.parser", (
        "parse_model", "parse_goal_model", "parse_value_model", "parse_scenario",
        "parse_api_descriptor", "parse_metric_catalog")),
    "printer": ("apimod.dsl.printer", ("print_goal_model", "print_value_model")),
    "validate": ("apimod.validate", ("validate_goal_model", "validate_value_model")),
    "transform": ("apimod.transform", ("transform_value_to_goal",)),
    "evaluate": ("apimod.evaluate", ("propagate", "compare_scenarios")),
    "report": ("apimod.report", ("export_dot", "report_json")),
}
LAYER_OF = {fn: layer for layer, (_, fns) in LAYERS.items() for fn in fns}


def model_nodes(model) -> int:
    """Elements + dependums + actors of a goal model; for a value model,
    activities, stimuli and flows stand in for elements and dependums."""
    from apimod.core import GoalModel, ValueModel

    if isinstance(model, GoalModel):
        return (len(model.actors) + len(model.dependencies)
                + sum(len(a.elements) for a in model.actors))
    if isinstance(model, ValueModel):
        return (len(model.actors) + len(model.flows) + len(model.stimuli)
                + sum(len(a.activities) for a in model.actors))
    return 0


def _counts(fn: str, args: tuple, result) -> dict:
    """Work done by one call, measured where it happens."""
    if fn == "tokenize":
        return {"tokens": len(result)}
    if fn.startswith("parse_"):
        return {"nodes": model_nodes(result.model)}
    if fn.startswith("print_") or fn in ("export_dot", "report_json"):
        return {"bytes": len(result.encode())}
    if fn == "propagate":
        return {"sweeps": result.iterations, "nodes": len(result.labels)}
    return {}


class Tracer:
    """Records spans ``[name, start, end, parent index, request id, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span that is not a layer call (a request)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, {})

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counts: dict) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = counts
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, {} if result is None else _counts(name, args, result))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every reference to a layer function in loaded apimod modules."""
        originals = {}
        for _, (module, fns) in LAYERS.items():
            mod = importlib.import_module(module)
            for fn in fns:
                originals[id(getattr(mod, fn))] = (fn, getattr(mod, fn))
        wrappers = {key: self._wrap(fn, orig) for key, (fn, orig) in originals.items()}
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "apimod" or name.startswith("apimod.")]
        namespaces.append(importlib.import_module("apimod.dsl.parser")._DISPATCH)
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is originals[id(value)][1]:
                    self._patched.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patched):
            ns[key] = value
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover (calls are
    sequential, so children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer counts, self times and rates from one run's spans."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}  # per function, and per layer
    totals: dict[str, float] = {}
    root_parses = 0
    for s, t in zip(spans, own):
        name, counts = s[0], s[5] or {}
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer = LAYER_OF.get(name, name)
        if layer != name:
            self_s[layer] = self_s.get(layer, 0.0) + t
        for key, value in counts.items():
            totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
        if layer == "parser" and (s[3] < 0 or LAYER_OF.get(spans[s[3]][0]) != "parser"):
            root_parses += 1
            totals["parser.root_nodes"] = totals.get("parser.root_nodes", 0) \
                + counts.get("nodes", 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for layer, (_, fns) in LAYERS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = calls.get(fn, 0)
            out[f"{layer}.{fn}.self_s"] = self_s.get(fn, 0.0)
    out["lexer.tokens_per_s"] = rate(totals.get("lexer.tokens", 0), self_s.get("lexer", 0))
    out["lexer.tokenize_per_parse"] = (calls.get("tokenize", 0) / root_parses
                                       if root_parses else 0.0)
    out["parser.nodes_per_s"] = rate(totals.get("parser.root_nodes", 0),
                                     self_s.get("parser", 0))
    out["printer.bytes_per_s"] = rate(totals.get("printer.bytes", 0),
                                      self_s.get("printer", 0))
    validations = (calls.get("validate_goal_model", 0)
                   + calls.get("validate_value_model", 0))
    out["validate.calls_per_request"] = validations / requests if requests else 0.0
    sweeps = totals.get("evaluate.sweeps", 0)
    out["evaluate.sweeps"] = sweeps
    nodes = totals.get("evaluate.nodes", 0)
    out["evaluate.sweeps_per_node"] = sweeps / nodes if nodes else 0.0
    out["report.bytes_per_s"] = rate(totals.get("report.bytes", 0), self_s.get("report", 0))
    out["request.calls"] = calls.get("request", 0)
    out["request.self_s"] = self_s.get("request", 0.0)
    out["request.total_s"] = sum(s[2] - s[1] for s in spans if s[0] == "request")
    return out
