"""Canonical pretty-printers: parse(print(m)) reproduces m structurally.

Output is deterministic: statement groups appear in a fixed order, set-valued
annotations are printed in canonical order, and names are quoted only when
required.
"""

from ..core import (
    ApimodError, BapoTag, Dimension, GActor, GoalModel, Label, MetricDef, Scenario, VActor,
    ValueModel,
)
from .lexer import format_number as num
from .parser import quote_name as q


def _actor_block(out: list[str], head: str, body: list[str],
                 actor: VActor | GActor) -> None:
    """Append an actor statement to `out`: `head`, then in braces `body` and
    the actor's BAPO tags and layer assignments, or `head` alone if all
    three are empty."""
    if actor.bapo_tags:
        tags = ", ".join(t.value for t in BapoTag if t in actor.bapo_tags)
        body.append(f"    bapo = {tags}")
    for focus in sorted(actor.layer_assignments):
        body.append(f"    layer({q(focus)}) = {actor.layer_assignments[focus].value}")
    out += [head + " {", *body, "  }"] if body else [head]


def print_value_model(model: ValueModel) -> str:
    out = [f"valuemodel {q(model.name)} {{"]
    for actor in model.actors:
        head = f"  actor {q(actor.id)}"
        if actor.parent is not None:
            head += f" in {q(actor.parent)}"
        body = [f"    activity {q(act.id)}" for act in actor.activities]
        if actor.api_role:
            body.append("    api")
        if actor.market_segment:
            body.append("    market")
        _actor_block(out, head, body, actor)
    for flow in model.flows:
        stmt = (f"  flow {q(flow.obj.name)} from {q(flow.source)} "
                f"to {q(flow.target)} : {flow.obj.kind.value}")
        if flow.status.value != "normal":
            stmt += f" status {flow.status.value}"
        if flow.group is not None:
            stmt += f" group {q(flow.group)}"
        out.append(stmt)
    for stim in model.stimuli:
        out.append(f"  stimulus {q(stim.id)} in {q(stim.at)}")
    out.append("}")
    return "\n".join(out) + "\n"


def print_goal_model(model: GoalModel) -> str:
    head = f"goalmodel {q(model.name)}"
    if model.draft:
        head += " draft"
    out = [head + " {"]
    for actor in model.actors:
        body = [f"    {el.kind.value} {q(el.id)}" for el in actor.elements]
        for el in actor.elements:
            if el.refinement is not None:
                children = ", ".join(q(c) for c in el.refinement.children)
                body.append(f"    {q(el.id)} {el.refinement.kind.value} {children}")
        for el in actor.elements:
            for c in el.contributions:
                body.append(f"    {q(el.id)} {c.strength.value} {q(c.target)}")
        _actor_block(out, f"  actor {q(actor.id)}", body, actor)
    for link in model.associations:
        out.append(f"  partof {q(link.source)} -> {q(link.target)}")
    for dep in model.dependencies:
        def end(e) -> str:
            return q(e.actor) if e.element is None else f"{q(e.actor)}.{q(e.element)}"
        stmt = (f"  depend {end(dep.depender)} -> {end(dep.dependee)} : "
                f"{dep.dependum.kind.value} {q(dep.dependum.name)}")
        if dep.dependum.initial_label is not None:
            stmt += f" = {dep.dependum.initial_label.value}"
        out.append(stmt)
    out.append("}")
    return "\n".join(out) + "\n"


def print_api_descriptor(d: "ApiDescriptor") -> str:
    out = [f"api {q(d.name)} {{", f"  stage {d.declared_stage.value}"]
    for name, value in d.observed.items():
        if value is not None:
            out.append(f"  observed {name} {value.value}")
    for sample in d.curve:
        out.append(f"  curve {num(sample.t)} {sample.stage.value} {num(sample.value)}")
    for rationale in d.transition_rationales:
        out.append(f"  rationale {q(rationale)}")
    out.append("}")
    return "\n".join(out) + "\n"


def print_metric_catalog(metrics: list[MetricDef]) -> str:
    out: list[str] = []
    for m in metrics:
        out.append(f"metric {q(m.name)} {{")
        if m.what is not None:
            out.append(f"  what {q(m.what)}")
        if m.why is not None:
            out.append(f"  why {q(m.why)}")
        if m.who:
            out.append("  who " + ", ".join(q(w) for w in m.who))
        if m.where:
            out.append("  where " + ", ".join(q(w) for w in m.where))
        if m.dimensions:
            dims = ", ".join(d.value for d in Dimension if d in m.dimensions)
            out.append(f"  dimensions {dims}")
        if m.automation is not None:
            out.append(f"  automation {m.automation.value}")
        if m.links:
            out.append("  links " + ", ".join(q(l) for l in m.links))
        out.append("}")
    return "\n".join(out) + "\n"


def print_scenario(s: Scenario) -> str:
    out = [f"scenario {q(s.name)} {{"]
    for target, label in s.assignments.items():
        if label is Label.CONFLICT:
            raise ApimodError(f"{s.name}: conflict label of {target!r} cannot be printed")
        out.append(f"  label {q(target)} = {label.value}")
    out.append("}")
    return "\n".join(out) + "\n"


def print_model(model) -> str:
    """Dispatch on model type; also accepts a metric-catalog list. An API
    descriptor is tested for last, so that only it loads `lifecycle`."""
    if isinstance(model, ValueModel):
        return print_value_model(model)
    if isinstance(model, GoalModel):
        return print_goal_model(model)
    if isinstance(model, Scenario):
        return print_scenario(model)
    if isinstance(model, list) and all(isinstance(m, MetricDef) for m in model):
        return print_metric_catalog(model)
    from ..lifecycle import ApiDescriptor
    if isinstance(model, ApiDescriptor):
        return print_api_descriptor(model)
    raise TypeError(f"cannot print {type(model).__name__}")
