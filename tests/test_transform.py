"""Value-model to goal-model transformation."""

import random

import pytest

from apimod.core import (
    ApimodError, AssociationKind, ElementKind, Label, Severity,
)
from apimod.dsl import parse_goal_model, parse_value_model, print_model
from apimod.transform import transform_value_to_goal
from apimod.validate import names, validate_goal_model

from helpers import CORPUS, gen_value_model, replaced


def vm(text):
    r = parse_value_model(text)
    assert r.ok, [d.render() for d in r.diagnostics]
    return r.model


BASIC = """
valuemodel M {
  actor A { api activity Work }
  actor B
  flow Out from Work to B
  flow Back from B to A
  stimulus Need in B
}
"""


def test_basic_counts():
    goal, _ = transform_value_to_goal(vm(BASIC))
    assert len(goal.actors) == 2
    tasks = [e for a in goal.actors for e in a.elements
             if e.kind is ElementKind.TASK]
    goals = [e for a in goal.actors for e in a.elements
             if e.kind is ElementKind.GOAL]
    assert len(tasks) == 1 and tasks[0].id == "Work"
    assert len(goals) == 1 and goals[0].id == "Need"
    assert len(goal.dependencies) == 2
    assert goal.draft


def test_flow_direction_reverses_into_dependency():
    goal, _ = transform_value_to_goal(vm(BASIC))
    dep = goal.dependencies[0]  # flow Out: Work (in A) -> B
    assert dep.depender.actor == "B" and dep.depender.element is None
    assert dep.dependee.actor == "A" and dep.dependee.element == "Work"
    assert dep.dependum.name == "Out"
    assert dep.dependum.kind is ElementKind.RESOURCE


def test_activity_endpoint_becomes_task_reference():
    goal, _ = transform_value_to_goal(vm("""
        valuemodel M {
          actor Platform { api activity "Govern API" }
          actor "App Dev"
          flow Rules from "Govern API" to "App Dev"
          flow Fees from "App Dev" to Platform
        }"""))
    dep = goal.dependencies[0]
    assert dep.dependee.element == "Govern API"
    found = names(goal)
    assert found.owner["Govern API"] == "Platform"
    assert found.nodes["Govern API"].kind is ElementKind.TASK


def test_problematic_and_missing_flows_start_denied():
    goal, _ = transform_value_to_goal(vm("""
        valuemodel M {
          actor A { api }
          actor B
          flow Good from A to B
          flow Bad from B to A status problematic
          flow Gone from A to B status missing
        }"""))
    labels = [d.dependum.initial_label for d in goal.dependencies]
    assert labels == [None, Label.DENIED, Label.DENIED]


def test_partnership_becomes_part_of_link():
    goal, _ = transform_value_to_goal(vm("""
        valuemodel M {
          actor Company { api }
          actor Team in Company
        }"""))
    assert len(goal.associations) == 1
    link = goal.associations[0]
    assert link.kind is AssociationKind.PART_OF
    assert link.source == "Team" and link.target == "Company"


def test_stimulus_becomes_goal_in_owner():
    goal, _ = transform_value_to_goal(vm(BASIC))
    found = names(goal)
    assert found.owner["Need"] == "B"
    assert found.nodes["Need"].kind is ElementKind.GOAL


def test_empty_model_transforms_to_empty_draft():
    goal, diags = transform_value_to_goal(vm("valuemodel M { }"))
    assert goal.draft
    assert goal.actors == [] and goal.dependencies == []
    assert diags == []


def test_expand_reminder_per_actor():
    _, diags = transform_value_to_goal(vm(BASIC))
    expands = [d for d in diags if d.code == "W-EXPAND"]
    assert len(expands) == 2
    assert all(d.severity is Severity.INFO for d in expands)


def test_precondition_rejects_model_with_errors():
    no_api = vm("""
        valuemodel M {
          actor A
          actor B
          flow F from A to B
          flow G from B to A
          stimulus S in A
        }""")
    with pytest.raises(ApimodError):
        transform_value_to_goal(no_api)


def test_precondition_rejects_dangling_stimulus_and_flow():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    stimulus = replaced(model.stimuli[0], at="nobody")
    with pytest.raises(ApimodError, match="unknown actor 'nobody'"):
        transform_value_to_goal(replaced(model, stimuli=[stimulus]))
    flow = replaced(model.flows[0], target="ghost")
    with pytest.raises(ApimodError, match="unknown endpoint 'ghost'"):
        transform_value_to_goal(replaced(model, flows=[flow]))


def test_precondition_rejects_dangling_parent_actor():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    actor = replaced(model.actors[0], parent="Ghost")
    with pytest.raises(ApimodError, match="unknown actor 'Ghost'"):
        transform_value_to_goal(replaced(model, actors=[actor, *model.actors[1:]]))


DEPENDENCY_ID_CLASH = """
valuemodel M {
  actor A { api activity d1 }
  actor B
  flow X from B to A.d1
  flow Y from A to B
  stimulus S in B
}
"""


def test_activity_named_like_a_dependency_id_is_refused():
    with pytest.raises(ApimodError) as exc:
        transform_value_to_goal(vm(DEPENDENCY_ID_CLASH))
    assert exc.value.code == "E-DUP"
    assert "'d1'" in str(exc.value)
    # renamed, the same model transforms to a draft that validates
    goal, _ = transform_value_to_goal(vm(DEPENDENCY_ID_CLASH.replace("d1", "e1")))
    assert not [d for d in validate_goal_model(goal) if d.severity is Severity.ERROR]


def test_annotations_carry_over():
    goal, _ = transform_value_to_goal(
        vm((CORPUS / "device_api.vm").read_text(encoding="utf-8")))
    [platform] = [a for a in goal.actors if a.id == "Camera Platform"]
    assert platform.layer_assignments == {"Device API": __import__(
        "apimod.core", fromlist=["Layer"]).Layer.API}
    assert platform.bapo_tags


def count_stats(value_model, goal):
    activities = sum(len(a.activities) for a in value_model.actors)
    tasks = sum(1 for a in goal.actors for e in a.elements
                if e.kind is ElementKind.TASK)
    goals = sum(1 for a in goal.actors for e in a.elements
                if e.kind is ElementKind.GOAL)
    parented = sum(1 for a in value_model.actors if a.parent is not None)
    return {
        "actors": (len(value_model.actors), len(goal.actors)),
        "tasks": (activities, tasks),
        "dependencies": (len(value_model.flows), len(goal.dependencies)),
        "goals": (len(value_model.stimuli), goals),
        "partof": (parented, len(goal.associations)),
    }


def test_count_bijections_on_random_models():
    rng = random.Random(808)
    for i in range(100):
        model = gen_value_model(rng)
        goal, _ = transform_value_to_goal(model)
        for name, (expected, actual) in count_stats(model, goal).items():
            assert expected == actual, (i, name)
        errors = [d for d in validate_goal_model(goal)
                  if d.severity is Severity.ERROR]
        assert errors == [], (i, [d.render() for d in errors])


def test_transformation_is_deterministic():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    g1, d1 = transform_value_to_goal(model)
    g2, d2 = transform_value_to_goal(model)
    assert g1 == g2 and d1 == d2
    assert print_model(g1) == print_model(g2)


def test_transformed_output_round_trips_through_text():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    goal, _ = transform_value_to_goal(model)
    text = print_model(goal)
    back = parse_goal_model(text)
    assert back.ok, [d.render() for d in back.diagnostics]
    assert back.model == goal
