"""Attach metrics to goal-model elements.

A linked metric materializes as a quality element that receives a helps
contribution from each linked goal or task. Metric qualities are pure
evidence sinks: they emit nothing, so adding instrumentation never changes
the evaluation of the rest of the ecosystem.
"""

import copy

from .core import (
    Contribution, ContributionStrength, Diagnostic, ElementKind, GElement,
    GoalModel, MetricDef, Severity, TupleRecord, sort_diagnostics, tuple_new,
)
from .validate import names


def metric_quality_id(metric_name: str) -> str:
    # Namespaced so metric qualities cannot collide with modeled elements.
    return f"metric:{metric_name}"


def link_metrics(model: GoalModel,
                 metrics: list[MetricDef]) -> tuple[GoalModel, list[Diagnostic]]:
    """Produce a new model with one quality per linked metric; idempotent."""
    out = copy.deepcopy(model)
    diagnostics: list[Diagnostic] = []
    found = names(out)
    elements, owners = found.nodes, found.owner

    for metric in metrics:
        if not metric.links:
            diagnostics.append(Diagnostic(
                Severity.WARNING, "W-UNLINKED",
                f"metric {metric.name!r} is not linked to any goal or task; "
                "why is it measured?", metric.span))
            continue
        targets = []
        for ref in metric.links:
            el = elements.get(ref)
            if el is None:
                diagnostics.append(Diagnostic(
                    Severity.ERROR, "E-REF",
                    f"metric {metric.name!r} links to unknown element {ref!r}",
                    metric.span))
            else:
                targets.append(el)
        if not targets:
            continue
        quality_id = metric_quality_id(metric.name)
        if quality_id not in elements:
            owner = owners[targets[0].id]
            quality = GElement(id=quality_id, kind=ElementKind.QUALITY,
                               name=quality_id)
            found.actors[owner].elements.append(quality)
            elements[quality_id] = quality
            owners[quality_id] = owner
        for el in targets:
            link = Contribution(quality_id, ContributionStrength.HELPS)
            if link not in el.contributions:
                el.contributions.append(link)
    return out, sort_diagnostics(diagnostics)


class WhoRow(TupleRecord):
    __slots__ = ()
    metric: str
    why: str | None
    who: list[str]
    where: list[str]
    actors: list[str]  # owners of linked elements

    def __new__(cls, metric, why, who, where, actors):
        return tuple_new(cls, (metric, why, who, where, actors))


def who_report(model: GoalModel, metrics: list[MetricDef]) -> list[WhoRow]:
    """Answer why/who/where per metric, plus which actors host its links."""
    rows = []
    owners = names(model).owner
    for metric in metrics:
        actors: list[str] = []
        for ref in metric.links:
            owner = owners.get(ref)
            if owner is not None and owner not in actors:
                actors.append(owner)
        rows.append(WhoRow(metric.name, metric.why, list(metric.who),
                           list(metric.where), actors))
    return rows
