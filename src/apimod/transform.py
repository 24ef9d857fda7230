"""Mechanical value-model to goal-model transformation.

Actors map to actors (partnerships become part-of links), activities to
tasks, stimuli to goals, and each value flow to a dependency pointing from
the receiving end back to the providing end: the receiver depends on the
provider. Problematic or missing flows yield dependums that start out denied.

The output is a draft: it is structurally valid but deliberately shallow,
and one reminder diagnostic per actor asks for the goals and qualities only
a human can supply. The goal-model grammar numbers dependencies `d1`, `d2`,
..., so an activity or stimulus named like one of them is refused (E-DUP).
"""

from .core import (
    ApimodError, AssociationKind, AssociationLink, Dependency, DependencyEnd,
    Dependum, Diagnostic, ElementKind, GActor, GElement, GoalModel, Label,
    Severity, ValueModel, sort_diagnostics,
)
from .validate import names, refuse_errors, validate_value_model


def transform_value_to_goal(model: ValueModel) -> tuple[GoalModel, list[Diagnostic]]:
    refuse_errors(validate_value_model(model), "value model")

    goal = GoalModel(model.name, draft=True)
    diagnostics: list[Diagnostic] = []
    activity_owner: dict[str, str] = {}
    actors: dict[str, GActor] = {}

    for vactor in model.actors:
        gactor = GActor(
            id=vactor.id, name=vactor.name,
            layer_assignments=dict(vactor.layer_assignments),
            bapo_tags=set(vactor.bapo_tags), span=vactor.span)
        for act in vactor.activities:
            gactor.elements.append(GElement(
                id=act.id, kind=ElementKind.TASK, name=act.name, span=act.span))
            activity_owner[act.id] = vactor.id
        goal.actors.append(gactor)
        actors[vactor.id] = gactor
        if vactor.parent is not None:
            goal.associations.append(AssociationLink(
                AssociationKind.PART_OF, vactor.id, vactor.parent))
        diagnostics.append(Diagnostic(
            Severity.INFO, "W-EXPAND",
            f"actor {vactor.id!r} is a draft skeleton: ask why (more goals), "
            "how well (more qualities), and how it relates (more links)",
            vactor.span))

    for stim in model.stimuli:
        actors[stim.at].elements.append(GElement(
            id=stim.id, kind=ElementKind.GOAL, name=stim.name, span=stim.span))

    for i, flow in enumerate(model.flows):
        def end(ref: str) -> DependencyEnd:
            if ref in activity_owner:
                return DependencyEnd(activity_owner[ref], ref)
            return DependencyEnd(ref)
        initial = Label.DENIED if flow.status.value != "normal" else None
        goal.dependencies.append(Dependency(
            id=f"d{i + 1}",
            depender=end(flow.target),
            dependum=Dependum(flow.obj.kind, flow.obj.name, initial),
            dependee=end(flow.source),
            span=flow.span,
        ))

    repeated = names(goal).repeats
    if repeated:
        raise ApimodError(f"activity or stimulus {repeated[0].id!r} repeats the id of a "
                          "dependency, which the draft numbers d1, d2, ...", code="E-DUP")
    return goal, sort_diagnostics(diagnostics)
