"""DOT diagram export and the JSON report envelope.

DOT output is plain graph text so any external renderer can draw the models;
nothing here depends on a graphviz installation. JSON reports share one
envelope across commands and are byte-stable for identical inputs.
"""

from math import isfinite

from . import __version__
from .core import (
    ApimodError, Diagnostic, ElementKind, GoalModel, Layer, Severity, ValueModel,
    load_package_data,
)
from .validate import names, reference_diagnostic, reference_problems

#: `encode_basestring_ascii`, the C string encoder that `json.dumps` writes
#: strings with, once the first `report_json` call has imported it from
#: `_json`: `--json` does not load the `json` package, and a call without
#: `--json` does not load `_json` either.
_json_string = None

#: Keyed by the kind's value: hashing an enum member runs Python code.
_ELEMENT_SHAPES = {
    ElementKind.GOAL.value: "ellipse",
    ElementKind.QUALITY.value: "egg",
    ElementKind.TASK.value: "hexagon",
    ElementKind.RESOURCE.value: "box",
}

#: Band order for layered exports, top band first.
_BAND_ORDER = tuple(reversed(Layer))


def _q(s: str) -> str:
    if '"' in s or "\\" in s:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return f'"{s}"'


def export_dot(model, cluster_by_actor: bool = True,
               layer_bands: str | None = None) -> str:
    """Render a value or goal model as DOT.

    One node per actor boundary and per element (activities and stimuli for
    value models); one edge per refinement child, contribution, dependency,
    association, or value flow. Each actor is a cluster, or with
    `cluster_by_actor=False` its nodes are listed flat. With `layer_bands`,
    actors are instead grouped into four ranks for the given API of focus,
    each a plain circle, and the other nodes follow them. A model with a
    repeated id (E-DUP) or a reference that does not resolve raises
    ApimodError naming the first one (E-DANGLE; E-CYCLE for a partnership
    cycle).
    """
    if not isinstance(model, (GoalModel, ValueModel)):
        raise TypeError(f"cannot export {type(model).__name__}")
    found = names(model)
    if found.repeats:
        raise ApimodError(f"cannot export {model.name!r}: duplicate identifier "
                          f"{found.repeats[0].id!r}", code="E-DUP")
    problems = reference_problems(model, found)
    if problems:
        d = reference_diagnostic(*problems[0])
        raise ApimodError(f"cannot export {model.name!r}: {d.message}", code=d.code)
    cluster = cluster_by_actor and layer_bands is None
    indent = "    " if cluster else "  "

    # The DOT node of each actor, element and activity by id, quoted once. An
    # actor shares its model's namespace with the elements or activities, and
    # every reference resolves, so each edge end is a key.
    node = {actor.id: _q(f"actor:{actor.id}") for actor in model.actors}
    # Per model kind: each actor's member node lines (`members`), the node
    # lines that follow the bands (`loose`), each actor's shape, the edges.
    edges: list[str] = []
    if isinstance(model, GoalModel):
        members = []
        for actor in model.actors:
            lines = []
            for el in actor.elements:
                node[el.id] = quoted = _q(el.id)
                lines.append(f"{indent}{quoted} [label={_q(el.name)}, "
                             f"shape={_ELEMENT_SHAPES[el.kind.value]}];")
            members.append(lines)
        loose = [line for lines in members for line in lines]
        shapes = ["circle"] * len(model.actors)
        for actor in model.actors:
            for el in actor.elements:
                source = node[el.id]
                if el.refinement is not None:
                    kind = _q(el.refinement.kind.value)
                    for child in el.refinement.children:
                        edges.append(f"  {node[child]} -> {source} [label={kind}];")
                for c in el.contributions:
                    edges.append(f"  {source} -> {node[c.target]} "
                                 f"[label={_q(c.strength.value)}, style=dashed];")
        edges += [f'  {node[link.source]} -> {node[link.target]} [label="part of"];'
                  for link in model.associations]
        for dep in model.dependencies:
            src, dst = (node[end.actor if end.element is None else end.element]
                        for end in (dep.depender, dep.dependee))
            label = f"{dep.dependum.kind.value} {dep.dependum.name}"
            if dep.dependum.initial_label is not None:
                label += f" [{dep.dependum.initial_label.value}]"
            edges.append(f"  {src} -> {dst} [label={_q(label)}, style=bold];")
    else:
        activities = []
        for actor in model.actors:
            lines = []
            for act in actor.activities:
                node[act.id] = quoted = _q(act.id)
                lines.append(f"{indent}{quoted} [label={_q(act.name)}, shape=hexagon];")
            activities.append(lines)
        stimuli = [(stim.at, f"{indent}{_q(stim.id)} [label={_q(stim.name)}, "
                             f"shape=circle, color=red];") for stim in model.stimuli]
        members = [lines + [line for at, line in stimuli if at == actor.id]
                   for actor, lines in zip(model.actors, activities)]
        loose = [line for lines in activities for line in lines]
        loose += [line for _, line in stimuli]
        shapes = ["doublecircle" if actor.api_role else "circle" for actor in model.actors]
        styles = {"normal": "solid", "problematic": "dashed", "missing": "dotted"}
        for flow in model.flows:
            label = f"{flow.obj.name} : {flow.obj.kind.value}"
            edges.append(f"  {node[flow.source]} -> {node[flow.target]} "
                         f"[label={_q(label)}, style={styles[flow.status.value]}];")

    # One layout: the four rank bands and then `loose`, or the actors each
    # as a cluster or flat; then the edges.
    out = [f"digraph {_q(model.name)} {{"]
    if layer_bands is not None:
        # actors without a layer for the focus (key None) follow the bands
        bands: dict[Layer | None, list[str]] = {key: [] for key in (*_BAND_ORDER, None)}
        for actor in model.actors:
            layer = actor.layer_assignments.get(layer_bands)
            bands[layer].append(f"{'  ' if layer is None else '    '}{node[actor.id]} "
                                f"[label={_q(actor.id)}, shape=circle];")
        for layer in _BAND_ORDER:
            out += [f'  subgraph "band_{layer.value}" {{', "    rank=same;",
                    f'    "band:{layer.value}" [shape=plaintext, label={_q(layer.value)}];',
                    *bands[layer], "  }"]
        chain = " -> ".join(f'"band:{layer.value}"' for layer in _BAND_ORDER)
        out.append(f"  {chain} [style=invis];")
        out += bands[None] + loose
    else:
        for actor, lines, shape in zip(model.actors, members, shapes):
            name = _q(actor.name)
            if cluster:
                out += [f"  subgraph {_q('cluster_' + actor.id)} {{", f"    label={name};"]
            out.append(f"{indent}{node[actor.id]} [label={name}, shape={shape}];")
            out += lines
            if cluster:
                out.append("  }")
    out += edges
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
    """`report` as `json.dumps(report, indent=2, allow_nan=False)` writes it,
    and a newline, without the pure-Python encoder that `indent` selects.
    Like `json.dumps`, nan and infinity raise ValueError and a value with no
    JSON form TypeError; reports are trees, so cycles are not looked for."""
    global _json_string
    if _json_string is None:
        try:
            from _json import encode_basestring_ascii
        except ImportError:  # a Python without the C accelerator
            from json.encoder import encode_basestring_ascii
        _json_string = encode_basestring_ascii
    out: list[str] = []
    _write_json(report, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, write) -> None:
    """`value` through `write`, its nested lines starting with `newline` and
    two more spaces. Strings go through the C string encoder. A container
    writes an item of exact type `int` itself, without a call; any other
    item, `IntEnum` members and `bool` included, takes the `isinstance` path."""
    if isinstance(value, str):
        write(_json_string(value))
    elif isinstance(value, (list, tuple, dict)):
        is_dict = isinstance(value, dict)
        if not value:
            write("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        separator = ("{" if is_dict else "[") + inner
        for item in value.items() if is_dict else value:
            write(separator)
            if is_dict:
                key, item = item
                write(_json_string(key if isinstance(key, str) else _json_scalar(key)))
                write(": ")
            if type(item) is int:
                write(int.__repr__(item))
            else:
                _write_json(item, inner, write)
            separator = "," + inner
        write(newline + ("}" if is_dict else "]"))
    else:
        write(_json_scalar(value))


def _json_scalar(value) -> str:
    """A JSON literal or number; also a dict key, coerced as `json` does."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
