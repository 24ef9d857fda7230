"""DOT export and JSON report envelope."""

import json

import jsonschema
import pytest

from apimod.core import Diagnostic, Severity, SourceSpan
from apimod.dsl import parse_goal_model, parse_value_model
from apimod.report import (
    diagnostics_payload, exit_code_for, export_dot, make_report, report_json,
    report_schema,
)

from helpers import CORPUS, parse_dot


def gm(text):
    r = parse_goal_model(text)
    assert r.ok
    return r.model


def vm(text):
    r = parse_value_model(text)
    assert r.ok
    return r.model


TWO_ACTOR = """
goalmodel M {
  actor A { goal G }
  actor B { task T }
  depend A.G -> B.T : resource "Data"
}
"""


def test_two_actor_model_with_one_dependency():
    dot = export_dot(gm(TWO_ACTOR))
    info = parse_dot(dot)
    assert len(info.subgraphs) == 2
    assert all(name.startswith('"cluster_') for name in info.subgraphs)
    assert len(info.edges) == 1
    assert info.edges[0] == ('"G"', '"T"')
    # one node per element plus one per actor boundary
    assert len(info.nodes) == 4


def test_empty_model_is_a_valid_empty_digraph():
    dot = export_dot(gm("goalmodel Empty { }"))
    info = parse_dot(dot)
    assert info.nodes == set() and info.edges == []


def test_node_and_edge_counts_match_model():
    model = gm("""
        goalmodel M {
          actor A {
            goal G
            task T1
            task T2
            quality Q
            G and T1, T2
            T1 helps Q
          }
          actor B
          depend A.G -> B : resource R
        }""")
    info = parse_dot(export_dot(model))
    elements = 4
    actors = 2
    assert len(info.nodes) == elements + actors
    edges = 2 + 1 + 1  # refinement children + contribution + dependency
    assert len(info.edges) == edges


def test_value_model_export():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    info = parse_dot(export_dot(model))
    actors, activities, stimuli = 4, 3, 1
    assert len(info.nodes) == actors + activities + stimuli
    assert len(info.edges) == len(model.flows)


def test_layered_export_has_four_rank_bands():
    model = gm((CORPUS / "device_api_layers.gm").read_text(encoding="utf-8"))
    dot = export_dot(model, layer_bands="Device API")
    info = parse_dot(dot)
    assert [name for name in info.subgraphs if name.startswith('"band_')] == [
        '"band_asset"', '"band_api"', '"band_usage"', '"band_domain"']
    # the band ordering chain contributes 3 invisible edges
    band_edges = [e for e in info.edges if e[0].startswith('"band:')]
    assert len(band_edges) == 3


def test_layered_export_keeps_element_nodes():
    model = gm(TWO_ACTOR)
    info = parse_dot(export_dot(model, layer_bands="F"))
    assert '"G"' in info.nodes and '"T"' in info.nodes


def test_flat_export_has_no_clusters():
    info = parse_dot(export_dot(gm(TWO_ACTOR), cluster_by_actor=False))
    assert info.subgraphs == []


def test_dot_quoting_of_hostile_names():
    model = gm('goalmodel "we \\" say" { actor "a\\"b" { goal "g\\"1" } }')
    info = parse_dot(export_dot(model))
    assert len(info.nodes) == 2


def test_export_is_deterministic():
    model = gm(TWO_ACTOR)
    assert export_dot(model) == export_dot(model)


def test_corpus_exports_all_parse_under_dot_grammar():
    for path in sorted(CORPUS.iterdir()):
        if path.suffix == ".gm":
            model = gm(path.read_text(encoding="utf-8"))
        elif path.suffix == ".vm":
            model = vm(path.read_text(encoding="utf-8"))
        else:
            continue
        parse_dot(export_dot(model))
        parse_dot(export_dot(model, cluster_by_actor=False))
        for focus in sorted({f for a in model.actors
                             for f in a.layer_assignments}):
            parse_dot(export_dot(model, layer_bands=focus))


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def sample_diags():
    return [
        Diagnostic(Severity.WARNING, "W-X", "something odd",
                   SourceSpan("f.gm", 3, 1, 3, 7)),
        Diagnostic(Severity.INFO, "I-Y", "fyi"),
    ]


def test_report_round_trips_and_validates():
    report = make_report("check", ["f.gm"], sample_diags(), {"modelKind": "goalmodel"})
    text = report_json(report)
    parsed = json.loads(text)
    jsonschema.validate(parsed, report_schema())
    assert parsed == report
    assert parsed["diagnostics"][0]["span"]["startLine"] == 3


def test_report_bytes_are_stable():
    r1 = report_json(make_report("check", ["f.gm"], sample_diags(), {}))
    r2 = report_json(make_report("check", ["f.gm"], sample_diags(), {}))
    assert r1 == r2


def test_report_json_refuses_non_finite_numbers():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            report_json(make_report("lifecycle", [], [], {"high": value}))


def test_schema_rejects_malformed_reports():
    bad = make_report("check", [], [], {})
    del bad["toolVersion"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, report_schema())


def test_diagnostics_payload_omits_span_when_absent():
    payload = diagnostics_payload(sample_diags())
    assert "span" in payload[0] and "span" not in payload[1]


def test_exit_codes():
    err = [Diagnostic(Severity.ERROR, "E", "boom")]
    warn = [Diagnostic(Severity.WARNING, "W", "hm")]
    info = [Diagnostic(Severity.INFO, "I", "fyi")]
    assert exit_code_for([]) == 0
    assert exit_code_for(info) == 0
    assert exit_code_for(warn) == 1
    assert exit_code_for(warn, strict=True) == 2
    assert exit_code_for(err + warn) == 2
    assert exit_code_for(err, strict=True) == 2
