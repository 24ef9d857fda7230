"""DOT diagram export and the JSON report envelope.

DOT output is plain graph text so any external renderer can draw the models;
nothing here depends on a graphviz installation. JSON reports share one
envelope across commands and are byte-stable for identical inputs.
"""

from __future__ import annotations

import json

from . import __version__
from .core import (
    Diagnostic, ElementKind, GoalModel, LAYER_ORDER, Layer, Severity,
    ValueModel, load_package_data,
)

_ELEMENT_SHAPES = {
    ElementKind.GOAL: "ellipse",
    ElementKind.QUALITY: "egg",
    ElementKind.TASK: "hexagon",
    ElementKind.RESOURCE: "box",
}

#: Band order for layered exports, top band first.
_BAND_ORDER = [Layer.ASSET, Layer.API, Layer.USAGE, Layer.DOMAIN]


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _actor_node(actor_id: str) -> str:
    return _q(f"actor:{actor_id}")


def export_dot(model, cluster_by_actor: bool = True,
               layer_bands: str | None = None) -> str:
    """Render a value or goal model as DOT.

    One node per actor boundary and per element (activities and stimuli for
    value models); one edge per refinement child, contribution, dependency,
    association, or value flow. With `layer_bands`, actors are grouped into
    four ranks for the given API of focus instead of per-actor clusters.
    """
    if isinstance(model, GoalModel):
        return _goal_dot(model, cluster_by_actor, layer_bands)
    if isinstance(model, ValueModel):
        return _value_dot(model, cluster_by_actor, layer_bands)
    raise TypeError(f"cannot export {type(model).__name__}")


def _band_preamble(model, focus: str, out: list[str]) -> None:
    by_layer: dict[Layer, list[str]] = {layer: [] for layer in LAYER_ORDER}
    unassigned: list[str] = []
    for actor in model.actors:
        layer = actor.layer_assignments.get(focus)
        if layer is None:
            unassigned.append(actor.id)
        else:
            by_layer[layer].append(actor.id)
    for layer in _BAND_ORDER:
        out.append(f'  subgraph "band_{layer.value}" {{')
        out.append("    rank=same;")
        out.append(f'    "band:{layer.value}" [shape=plaintext, '
                   f'label={_q(layer.value)}];')
        for actor_id in by_layer[layer]:
            out.append(f"    {_actor_node(actor_id)} "
                       f"[label={_q(actor_id)}, shape=circle];")
        out.append("  }")
    chain = " -> ".join(f'"band:{layer.value}"' for layer in _BAND_ORDER)
    out.append(f"  {chain} [style=invis];")
    for actor_id in unassigned:
        out.append(f"  {_actor_node(actor_id)} "
                   f"[label={_q(actor_id)}, shape=circle];")


def _goal_dot(model: GoalModel, cluster: bool, bands: str | None) -> str:
    out = [f"digraph {_q(model.name)} {{"]
    if bands is not None:
        _band_preamble(model, bands, out)
        for actor in model.actors:
            for el in actor.elements:
                out.append(f"  {_q(el.id)} [label={_q(el.name)}, "
                           f"shape={_ELEMENT_SHAPES[el.kind]}];")
    else:
        for actor in model.actors:
            if cluster:
                out.append(f"  subgraph {_q('cluster_' + actor.id)} {{")
                out.append(f"    label={_q(actor.name)};")
                indent = "    "
            else:
                indent = "  "
            out.append(f"{indent}{_actor_node(actor.id)} "
                       f"[label={_q(actor.name)}, shape=circle];")
            for el in actor.elements:
                out.append(f"{indent}{_q(el.id)} [label={_q(el.name)}, "
                           f"shape={_ELEMENT_SHAPES[el.kind]}];")
            if cluster:
                out.append("  }")
    for actor in model.actors:
        for el in actor.elements:
            if el.refinement is not None:
                for child in el.refinement.children:
                    out.append(f"  {_q(child)} -> {_q(el.id)} "
                               f"[label={_q(el.refinement.kind.value)}];")
            for c in el.contributions:
                out.append(f"  {_q(el.id)} -> {_q(c.target)} "
                           f"[label={_q(c.strength.value)}, style=dashed];")
    for link in model.associations:
        out.append(f"  {_actor_node(link.source)} -> {_actor_node(link.target)} "
                   f'[label="part of"];')
    for dep in model.dependencies:
        def anchor(end) -> str:
            return _q(end.element) if end.element is not None \
                else _actor_node(end.actor)
        label = f"{dep.dependum.kind.value} {dep.dependum.name}"
        if dep.dependum.initial_label is not None:
            label += f" [{dep.dependum.initial_label.value}]"
        out.append(f"  {anchor(dep.depender)} -> {anchor(dep.dependee)} "
                   f"[label={_q(label)}, style=bold];")
    out.append("}")
    return "\n".join(out) + "\n"


def _value_dot(model: ValueModel, cluster: bool, bands: str | None) -> str:
    out = [f"digraph {_q(model.name)} {{"]
    if bands is not None:
        _band_preamble(model, bands, out)
        for actor in model.actors:
            for act in actor.activities:
                out.append(f"  {_q(act.id)} [label={_q(act.name)}, shape=hexagon];")
        for stim in model.stimuli:
            out.append(f"  {_q(stim.id)} [label={_q(stim.name)}, "
                       f"shape=circle, color=red];")
    else:
        for actor in model.actors:
            if cluster:
                out.append(f"  subgraph {_q('cluster_' + actor.id)} {{")
                out.append(f"    label={_q(actor.name)};")
                indent = "    "
            else:
                indent = "  "
            shape = "doublecircle" if actor.api_role else "circle"
            out.append(f"{indent}{_actor_node(actor.id)} "
                       f"[label={_q(actor.name)}, shape={shape}];")
            for act in actor.activities:
                out.append(f"{indent}{_q(act.id)} [label={_q(act.name)}, "
                           f"shape=hexagon];")
            for stim in model.stimuli:
                if stim.at == actor.id:
                    out.append(f"{indent}{_q(stim.id)} [label={_q(stim.name)}, "
                               f"shape=circle, color=red];")
            if cluster:
                out.append("  }")

    activity_ids = {act.id for a in model.actors for act in a.activities}

    def anchor(ref: str) -> str:
        return _q(ref) if ref in activity_ids else _actor_node(ref)

    styles = {"normal": "solid", "problematic": "dashed", "missing": "dotted"}
    for flow in model.flows:
        label = f"{flow.obj.name} : {flow.obj.kind.value}"
        style = styles[flow.status.value]
        out.append(f"  {anchor(flow.source)} -> {anchor(flow.target)} "
                   f"[label={_q(label)}, style={style}];")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def diagnostics_payload(diags: list[Diagnostic]) -> list[dict]:
    rows = []
    for d in diags:
        row = {"severity": d.severity.value, "code": d.code, "message": d.message}
        if d.span is not None:
            row["span"] = {
                "file": d.span.file,
                "startLine": d.span.start_line,
                "startCol": d.span.start_col,
                "endLine": d.span.end_line,
                "endCol": d.span.end_col,
            }
        rows.append(row)
    return rows


def make_report(command: str, input_files: list[str],
                diagnostics: list[Diagnostic], analysis: dict) -> dict:
    return {
        "toolVersion": __version__,
        "command": command,
        "inputFiles": list(input_files),
        "diagnostics": diagnostics_payload(diagnostics),
        "analysis": analysis,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def report_schema() -> dict:
    """The published envelope schema shipped with the package."""
    return load_package_data("report.schema.json")


def exit_code_for(diagnostics: list[Diagnostic], strict: bool = False) -> int:
    """0 clean, 1 warnings only (2 when --strict), 2 errors."""
    worst = 0
    for d in diagnostics:
        if d.severity is Severity.ERROR:
            return 2
        if d.severity is Severity.WARNING:
            worst = max(worst, 1)
    if worst == 1 and strict:
        return 2
    return worst
