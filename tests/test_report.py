"""DOT export and JSON report envelope."""

import json

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from apimod.core import (
    ApimodError, AssociationKind, AssociationLink, Diagnostic, Evidence, GActor, Severity,
    SourceSpan, Stimulus, VActor, ValueFlow,
)
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


# P is the API actor, X has no layer for focus F, and the stimuli are
# declared out of actor order.
MODES_VM = """
valuemodel V {
  actor P { activity p1 api layer(F) = api }
  actor U { activity u1 activity u2 layer(F) = usage }
  actor X { activity x1 }
  flow o1 from u1 to p1 : resource
  flow o2 from P to X : task status missing
  stimulus s2 in U
  stimulus s1 in P
}
"""

VM_FLAT_DOT = """\
digraph "V" {
  "actor:P" [label="P", shape=doublecircle];
  "p1" [label="p1", shape=hexagon];
  "s1" [label="s1", shape=circle, color=red];
  "actor:U" [label="U", shape=circle];
  "u1" [label="u1", shape=hexagon];
  "u2" [label="u2", shape=hexagon];
  "s2" [label="s2", shape=circle, color=red];
  "actor:X" [label="X", shape=circle];
  "x1" [label="x1", shape=hexagon];
  "u1" -> "p1" [label="o1 : resource", style=solid];
  "actor:P" -> "actor:X" [label="o2 : task", style=dotted];
}
"""

BANDS_HEAD = """\
  subgraph "band_asset" {
    rank=same;
    "band:asset" [shape=plaintext, label="asset"];
%s  }
  subgraph "band_api" {
    rank=same;
    "band:api" [shape=plaintext, label="api"];
%s  }
  subgraph "band_usage" {
    rank=same;
    "band:usage" [shape=plaintext, label="usage"];
%s  }
  subgraph "band_domain" {
    rank=same;
    "band:domain" [shape=plaintext, label="domain"];
%s  }
  "band:asset" -> "band:api" -> "band:usage" -> "band:domain" [style=invis];
"""

VM_BANDS_DOT = 'digraph "V" {\n' + BANDS_HEAD % (
    "", '    "actor:P" [label="P", shape=circle];\n',
    '    "actor:U" [label="U", shape=circle];\n', "") + """\
  "actor:X" [label="X", shape=circle];
  "p1" [label="p1", shape=hexagon];
  "u1" [label="u1", shape=hexagon];
  "u2" [label="u2", shape=hexagon];
  "x1" [label="x1", shape=hexagon];
  "s2" [label="s2", shape=circle, color=red];
  "s1" [label="s1", shape=circle, color=red];
  "u1" -> "p1" [label="o1 : resource", style=solid];
  "actor:P" -> "actor:X" [label="o2 : task", style=dotted];
}
"""

GM_BANDS_DOT = 'digraph "G" {\n' + BANDS_HEAD % (
    '    "actor:B" [label="B", shape=circle];\n', "", "",
    '    "actor:A" [label="A", shape=circle];\n') + """\
  "actor:C" [label="C", shape=circle];
  "g" [label="g", shape=ellipse];
  "t" [label="t", shape=hexagon];
  "q" [label="q", shape=egg];
  "r" [label="r", shape=box];
  "t" -> "g" [label="and"];
  "t" -> "q" [label="helps", style=dashed];
  "actor:C" -> "actor:A" [label="part of"];
  "t" -> "r" [label="resource R [denied]", style=bold];
}
"""


def test_value_model_flat_export_text():
    assert export_dot(vm(MODES_VM), cluster_by_actor=False) == VM_FLAT_DOT


@pytest.mark.parametrize("cluster", [True, False])
def test_value_model_band_export_text(cluster):
    # bands override clusters, and every actor in a band is a plain circle
    dot = export_dot(vm(MODES_VM), cluster_by_actor=cluster, layer_bands="F")
    assert dot == VM_BANDS_DOT


def test_goal_model_flat_band_export_text():
    model = gm("""
        goalmodel G {
          actor A { goal g task t quality q g and t t helps q layer(F) = domain }
          actor B { resource r layer(F) = asset }
          actor C
          partof C -> A
          depend A.t -> B.r : resource R = denied
        }""")
    assert export_dot(model, cluster_by_actor=False, layer_bands="F") == GM_BANDS_DOT


def _ghost_part_of(model):
    model.associations.append(AssociationLink(AssociationKind.PART_OF, "A", "Ghost"))


def _flow_to_nowhere(model):
    model.flows.append(ValueFlow("f9", "p1", "Nowhere"))


def _stimulus_at_ghost(model):
    model.stimuli.append(Stimulus("s9", "s9", at="Ghost"))


@pytest.mark.parametrize("model, spoil, message", [
    (lambda: gm(TWO_ACTOR), _ghost_part_of,
     "part-of link 'A' -> 'Ghost' names unknown actor 'Ghost'"),
    (lambda: vm(MODES_VM), _flow_to_nowhere,
     "flow 'f9' references unknown endpoint 'Nowhere'"),
    (lambda: vm(MODES_VM), _stimulus_at_ghost,
     "stimulus 's9' is placed at unknown actor 'Ghost'"),
], ids=["part-of", "flow", "stimulus"])
def test_export_refuses_an_unresolved_reference(model, spoil, message):
    model = model()
    spoil(model)
    for kwargs in ({}, {"cluster_by_actor": False}, {"layer_bands": "F"}):
        with pytest.raises(ApimodError) as exc:
            export_dot(model, **kwargs)
        assert exc.value.code == "E-DANGLE"
        assert str(exc.value) == f"cannot export {model.name!r}: {message}"


@pytest.mark.parametrize("model, repeat", [
    (lambda: vm(MODES_VM), lambda model: model.actors.append(VActor("P", "P"))),
    (lambda: gm(TWO_ACTOR), lambda model: model.actors.append(GActor("G", "G"))),
], ids=["value", "goal"])
def test_export_refuses_a_repeated_id(model, repeat):
    # Drawn, the repeats would merge into one node under two clusters.
    model = model()
    repeat(model)
    for kwargs in ({}, {"cluster_by_actor": False}, {"layer_bands": "F"}):
        with pytest.raises(ApimodError) as exc:
            export_dot(model, **kwargs)
        assert exc.value.code == "E-DUP"
        assert str(exc.value) == (f"cannot export {model.name!r}: duplicate identifier "
                                  f"{model.actors[-1].id!r}")


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


class _Text(str):
    """A `str` subclass, which `json` writes as the string it holds."""


# Leaves and keys of the JSON-like values `report_json` is checked on:
# strings with non-ASCII and control characters and lone surrogates, ints
# past 64 bits and floats at their edges, a `str` subclass and an `IntEnum`
# member, which `json` writes as a string and an int; `json` coerces each to
# a key.
_STRINGS = st.text(st.one_of(st.characters(exclude_categories=()),
                             st.sampled_from("\x00\x1f\x7f\"\\/\u2028\ud800\udfffé\U0001f600")))
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
_INTS = st.one_of(st.integers(), st.integers(-2 ** 80, 2 ** 80))
_SCALARS = st.one_of(_STRINGS, _INTS, _FLOATS, st.booleans(), st.none(),
                     _STRINGS.map(_Text), st.sampled_from(Evidence))
_BAD = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _json_like(leaves, keys):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4)), max_leaves=12)


def _dumped(value):
    """`report_json`'s reference, or the type of the error it raises."""
    try:
        return json.dumps(value, indent=2, allow_nan=False) + "\n"
    except (ValueError, TypeError) as exc:
        return type(exc)


def _written(value):
    try:
        return report_json(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=_json_like(_SCALARS, _SCALARS))
def test_report_json_writes_what_json_dumps_writes(value):
    """Byte for byte, on tree-shaped values: circular values are out of
    scope, since apimod builds its reports as trees."""
    assert report_json(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=_json_like(st.one_of(_SCALARS, _BAD, st.just(set()), st.builds(object)),
                        st.one_of(_SCALARS, _BAD, st.builds(object))))
def test_report_json_refuses_what_json_dumps_refuses(value):
    """nan and infinity, as values or keys, raise ValueError from both, and
    a set or an `object()` TypeError; the first one met decides."""
    assert _written(value) == _dumped(value)


@pytest.mark.parametrize("value, error", [
    ({float("nan"): 1}, ValueError), ({"a": [1, {"b": float("-inf")}]}, ValueError),
    ([{1.5: 2}, (float("inf"),)], ValueError), ({"a": {1, 2}}, TypeError),
    ([1, object()], TypeError), ({object(): 1}, TypeError),
])
def test_report_json_raises_as_json_dumps_does(value, error):
    assert _dumped(value) is error
    with pytest.raises(error):
        report_json(value)


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


def test_export_dot_refuses_a_non_model():
    with pytest.raises(TypeError, match="^cannot export dict$"):
        export_dot({})
