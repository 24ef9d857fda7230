"""Attach metrics to goal-model elements.

A linked metric materializes as a quality element that receives a helps
contribution from each linked goal or task. Metric qualities are pure
evidence sinks: they emit nothing, so adding instrumentation never changes
the evaluation of the rest of the ecosystem.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from .core import (
    Contribution, ContributionStrength, Diagnostic, ElementKind, GElement,
    GoalModel, Severity, sort_diagnostics,
)
from .govern import MetricDef


def metric_quality_id(metric_name: str) -> str:
    # Namespaced so metric qualities cannot collide with modeled elements.
    return f"metric:{metric_name}"


def link_metrics(model: GoalModel,
                 metrics: list[MetricDef]) -> tuple[GoalModel, list[Diagnostic]]:
    """Produce a new model with one quality per linked metric; idempotent."""
    out = copy.deepcopy(model)
    diagnostics: list[Diagnostic] = []
    elements = out.element_map()

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
            owner = out.owner_of(targets[0].id)
            quality = GElement(id=quality_id, kind=ElementKind.QUALITY,
                               name=quality_id)
            owner.elements.append(quality)
            elements[quality_id] = quality
        for el in targets:
            link = Contribution(quality_id, ContributionStrength.HELPS)
            if link not in el.contributions:
                el.contributions.append(link)
    return out, sort_diagnostics(diagnostics)


class WhoRow(NamedTuple):
    metric: str
    why: str | None
    who: list[str]
    where: list[str]
    actors: list[str]  # owners of linked elements


def who_report(model: GoalModel, metrics: list[MetricDef]) -> list[WhoRow]:
    """Answer why/who/where per metric, plus which actors host its links."""
    rows = []
    for metric in metrics:
        actors: list[str] = []
        for ref in metric.links:
            owner = model.owner_of(ref)
            if owner is not None and owner.id not in actors:
                actors.append(owner.id)
        rows.append(WhoRow(metric.name, metric.why, list(metric.who),
                           list(metric.where), actors))
    return rows
