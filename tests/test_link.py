"""Linking metrics into goal models."""

import copy

from apimod.core import ContributionStrength, ElementKind, Label
from apimod.dsl import parse_goal_model, parse_metric_catalog, print_model
from apimod.evaluate import Scenario, propagate
from apimod.govern import Dimension, MetricDef
from apimod.link import link_metrics, metric_quality_id, who_report
from apimod.validate import names

from helpers import CORPUS

MODEL = """
goalmodel M {
  actor Platform {
    goal Run
    task "Provide API Governance"
    Run and "Provide API Governance"
  }
  actor Consumer {
    task "Use API"
    goal Profit
    Profit and "Use API"
  }
  depend Consumer."Use API" -> Platform."Provide API Governance" : resource "Rules"
}
"""


def model():
    r = parse_goal_model(MODEL)
    assert r.ok
    return r.model


def catalog(**fields):
    base = dict(name="Consistency between APIs", why="governed ecosystem",
                who=["Architect"], where=["Reviews"],
                dimensions={Dimension.DESIGN})
    base.update(fields)
    return [MetricDef(**base)]


def test_linked_metric_materializes_as_quality_with_helps():
    linked, diags = link_metrics(model(), catalog(
        links=["Provide API Governance"]))
    assert diags == []
    quality_id = metric_quality_id("Consistency between APIs")
    found = names(linked)
    quality = found.nodes[quality_id]
    assert quality.kind is ElementKind.QUALITY
    assert found.owner[quality_id] == "Platform"
    assert quality in found.actors["Platform"].elements
    source = found.nodes["Provide API Governance"]
    assert any(c.target == quality_id and
               c.strength is ContributionStrength.HELPS
               for c in source.contributions)


def test_unlinked_metric_is_warned():
    linked, diags = link_metrics(model(), catalog(links=[]))
    assert [d.code for d in diags] == ["W-UNLINKED"]
    assert metric_quality_id("Consistency between APIs") not in names(linked).nodes


def test_dangling_link_is_an_error():
    _, diags = link_metrics(model(), catalog(links=["Ghost Task"]))
    assert [d.code for d in diags] == ["E-REF"]


def test_linking_is_idempotent():
    metrics = catalog(links=["Provide API Governance"])
    once, _ = link_metrics(model(), metrics)
    twice, _ = link_metrics(once, metrics)
    assert once == twice


def test_links_spanning_actors_list_both_in_who_report():
    metrics = catalog(links=["Provide API Governance", "Use API"])
    rows = who_report(model(), metrics)
    assert rows[0].actors == ["Platform", "Consumer"]
    assert rows[0].why == "governed ecosystem"


def test_who_report_on_empty_catalog():
    assert who_report(model(), []) == []


def test_linked_model_still_prints_and_parses():
    linked, _ = link_metrics(model(), catalog(
        links=["Provide API Governance", "Use API"]))
    text = print_model(linked)
    back = parse_goal_model(text)
    assert back.ok, [d.render() for d in back.diagnostics]
    assert back.model == linked


def test_evaluation_of_existing_elements_is_untouched_by_linking():
    base_model = model()
    scenario = Scenario("s", {"Provide API Governance": Label.SATISFIED,
                              "Use API": Label.SATISFIED})
    before = propagate(base_model, scenario)
    linked, _ = link_metrics(base_model, catalog(
        links=["Provide API Governance"]))
    after = propagate(linked, scenario)
    for node, label in before.labels.items():
        assert after.labels[node] is label
    # and the instrumentation itself picked up evidence
    assert after.labels[metric_quality_id("Consistency between APIs")] \
        is Label.PARTIALLY_SATISFIED


def test_linking_does_not_mutate_the_input_model():
    base_model = model()
    snapshot = copy.deepcopy(base_model)
    link_metrics(base_model, catalog(links=["Use API"]))
    assert base_model == snapshot


def test_corpus_link_round_trip():
    gm = parse_goal_model((CORPUS / "device_api.gm").read_text(encoding="utf-8"))
    metrics = parse_metric_catalog(
        (CORPUS / "device_metrics.metrics").read_text(encoding="utf-8"))
    assert gm.ok and metrics.ok
    linked, diags = link_metrics(gm.model, metrics.model)
    assert [d.code for d in diags] == ["W-UNLINKED"]  # Update Latency
    quality = names(linked).nodes[metric_quality_id("Sales Volume")]
    assert quality.kind is ElementKind.QUALITY
