"""Parsing, printing, round-trips, and diagnostic quality."""

import random

import pytest

from apimod.core import (
    Activity, ApimodError, ElementKind, FlowStatus, Label, RefinementKind, Severity, VActor,
    ValueFlow, ValueModel, ValueObject,
)
from apimod.dsl import (
    parse_api_descriptor, parse_goal_model, parse_metric_catalog, parse_model,
    parse_scenario, parse_value_model, print_model, quote_name,
)
from apimod.evaluate import Scenario
from apimod.govern import AutomationLevel, Dimension
from apimod.lifecycle import ApiDescriptor, LifecycleStage, Stability, ValueCurveSample

from helpers import CORPUS, gen_goal_model, gen_value_model


def errors(result):
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

def test_two_actors_two_flows_one_stimulus():
    r = parse_value_model("""
        valuemodel M {
          actor A { api }
          actor B
          flow Data from A to B
          flow Payment from B to A
          stimulus Need in B
        }""")
    assert r.ok
    assert len(r.model.actors) == 2
    assert len(r.model.flows) == 2
    assert len(r.model.stimuli) == 1
    assert r.model.flows[0].obj.kind is ElementKind.RESOURCE  # default kind


def test_flow_status_problematic():
    r = parse_value_model("""
        valuemodel M {
          actor A
          actor B
          flow Data from A to B status problematic
          flow Want from B to A : quality status missing
        }""")
    assert r.ok
    assert r.model.flows[0].status is FlowStatus.PROBLEMATIC
    assert r.model.flows[1].status is FlowStatus.MISSING
    assert r.model.flows[1].obj.kind is ElementKind.QUALITY


def test_actor_nesting_sets_parent():
    r = parse_value_model("""
        valuemodel M {
          actor "Company"
          actor "Team" in "Company"
        }""")
    assert r.ok
    assert r.model.actors[1].parent == "Company"


def test_flow_from_activity_endpoint():
    r = parse_value_model("""
        valuemodel M {
          actor A { activity Work }
          actor B
          flow Output from Work to B
          flow Input from B to A.Work
        }""")
    assert r.ok
    assert r.model.flows[0].source == "Work"
    assert r.model.flows[1].target == "Work"


def test_duplicate_identifier_is_rejected():
    r = parse_value_model("""
        valuemodel M {
          actor A
          actor A
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-DUP"]


def test_unknown_endpoint_is_rejected():
    r = parse_value_model("""
        valuemodel M {
          actor A
          flow Data from A to Ghost
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-REF"]


def test_self_flow_is_rejected():
    r = parse_value_model("""
        valuemodel M {
          actor A
          flow Data from A to A
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-SELF"]


def test_actor_name_with_a_dot_is_a_flow_endpoint():
    r = parse_value_model("""
        valuemodel M {
          actor "a.b" { activity x }
          actor C
          flow F from "a.b" to C
          flow G from C to "a.b".x
        }""")
    assert r.diagnostics == []
    assert [(f.source, f.target) for f in r.model.flows] == [("a.b", "C"), ("C", "x")]


def test_unknown_endpoint_under_a_dotted_actor_keeps_its_message():
    r = parse_value_model("""
        valuemodel M {
          actor "a.b" { activity x }
          actor C
          flow F from "a.b".y to C
        }""")
    assert [(d.code, d.message) for d in r.diagnostics] == [
        ("E-REF", "unknown endpoint 'a.b.y'")]


def test_dotted_endpoint_is_bound_from_its_tokens_not_its_joined_text():
    r = parse_value_model("""
        valuemodel M {
          actor B
          actor "B.x"
          flow F from B.x to B
        }""")
    assert [(d.code, d.message) for d in r.diagnostics] == [
        ("E-REF", "unknown endpoint 'B.x'")]


def test_value_model_with_dotted_actor_round_trips():
    model = ValueModel("M")
    model.actors = [VActor(id="a.b", name="a.b", activities=[Activity(id="x.y", name="x.y")]),
                    VActor(id="C", name="C")]
    model.flows = [ValueFlow(id="f1", source="a.b", target="C",
                             obj=ValueObject("F", ElementKind.RESOURCE)),
                   ValueFlow(id="f2", source="C", target="x.y",
                             obj=ValueObject("G", ElementKind.RESOURCE))]
    text = print_model(model)
    again = parse_value_model(text)
    assert again.diagnostics == []
    assert print_model(again.model) == text


def test_partnership_cycle_is_rejected():
    r = parse_value_model("""
        valuemodel M {
          actor A in B
          actor B in A
        }""")
    assert not r.ok
    assert all(d.code == "E-CYCLE" for d in errors(r))


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

def test_refinement_statement():
    r = parse_goal_model("""
        goalmodel M {
          actor X {
            goal G
            task T
            G and T
          }
        }""")
    assert r.ok
    g = r.model.element_map()["G"]
    assert g.refinement.kind is RefinementKind.AND
    assert g.refinement.children == ("T",)


def test_contribution_onto_non_quality_is_error():
    r = parse_goal_model("""
        goalmodel M {
          actor X {
            task T
            goal Q
            T helps Q
          }
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-CONTRIB"]


def test_depend_with_resource_dependum():
    r = parse_goal_model("""
        goalmodel M {
          actor A
          actor B
          depend A -> B : resource "Data"
        }""")
    assert r.ok
    dep = r.model.dependencies[0]
    assert dep.dependum.kind is ElementKind.RESOURCE
    assert dep.dependum.name == "Data"
    assert dep.depender.actor == "A" and dep.dependee.actor == "B"


def test_depend_attaches_to_elements_and_initial_label():
    r = parse_goal_model("""
        goalmodel M {
          actor A { goal g1 }
          actor B { task t2 }
          depend A.g1 -> B.t2 : quality "Stable" = denied
        }""")
    assert r.ok
    dep = r.model.dependencies[0]
    assert dep.depender.element == "g1"
    assert dep.dependee.element == "t2"
    assert dep.dependum.initial_label is Label.DENIED


def test_conflict_is_not_a_writable_label():
    r = parse_goal_model("""
        goalmodel M {
          actor A { goal g1 }
          actor B
          depend A.g1 -> B : goal "X" = conflict
        }""")
    assert not r.ok
    assert errors(r)[0].code == "E-SYNTAX"


def test_goal_model_actor_nesting_becomes_part_of_link():
    r = parse_goal_model("""
        goalmodel M {
          actor Team in Company
          actor Company
        }""")
    assert r.ok
    link = r.model.associations[0]
    assert link.source == "Team" and link.target == "Company"


def test_quality_refinement_is_rejected():
    r = parse_goal_model("""
        goalmodel M {
          actor X {
            quality Q
            task T
            Q and T
          }
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-REFINE"]


def test_unknown_element_in_open_actor_is_eref():
    r = parse_goal_model("""
        goalmodel M {
          actor A { goal G }
          actor B { task T }
          depend A.Ghost -> B.T : resource R
        }""")
    assert not r.ok
    assert [d.code for d in errors(r)] == ["E-REF"]


def test_closed_actor_element_ref_is_deferred_to_validate():
    r = parse_goal_model("""
        goalmodel M {
          actor A
          actor B { task T }
          depend A.Hidden -> B.T : resource R
        }""")
    assert r.ok  # the parser cannot see into a closed actor


def diagnostics_at(result):
    return [(d.code, d.message, d.span.start_line, d.span.start_col)
            for d in result.diagnostics]


def test_duplicate_element_id_links_to_its_last_declaration():
    r = parse_goal_model("""goalmodel M {
          actor A {
            goal G
            quality G
            goal P
            quality Q
            G and P
            P or G
            G helps Q
          }
        }""")
    assert diagnostics_at(r) == [
        ("E-DUP", "duplicate identifier 'G'", 4, 21),
        ("E-REFINE", "quality 'G' cannot be refined; use contribution links", 7, 13),
        ("E-REFINE", "quality 'G' cannot be a refinement child", 8, 13),
    ]


def test_refinement_child_in_another_actor_is_eref():
    r = parse_goal_model("""goalmodel M {
          actor A { goal G }
          actor B { goal P  task T  P and T, G }
        }""")
    assert diagnostics_at(r) == [
        ("E-REF", "unknown element 'G' in actor 'B'", 3, 37)]


@pytest.mark.parametrize("actor_a, expected", [
    ("actor A { goal G }", [("E-REF", "unknown element 'Ghost' in actor 'A'", 3, 11)]),
    ("actor A", []),  # closed: checked by validate_goal_model instead
])
def test_dependency_end_missing_from_open_versus_closed_actor(actor_a, expected):
    r = parse_goal_model(f"""goalmodel M {{
          {actor_a}  actor B {{ task T }}
          depend A.Ghost -> B.T : resource R
        }}""")
    assert diagnostics_at(r) == expected


# ---------------------------------------------------------------------------
# Error recovery and spans
# ---------------------------------------------------------------------------

def test_one_error_per_malformed_statement_and_parsing_continues():
    text = """
        goalmodel M {
          actor A {
            goal G
            task and and
            task T
            quality 17
            quality Q
            G and T
          }
        }"""
    r = parse_goal_model(text)
    assert not r.ok
    errs = errors(r)
    assert len(errs) == 2
    assert {e.code for e in errs} == {"E-SYNTAX"}
    # recovery really did resume: the error-free variant of the same model
    # contains everything the broken one declared after its bad statements
    clean = parse_goal_model(text.replace("task and and", "")
                             .replace("quality 17", ""))
    assert clean.ok
    assert set(clean.model.element_map()) == {"G", "T", "Q"}


def test_diagnostics_carry_spans_inside_offending_tokens():
    text = 'valuemodel M {\n  actor A\n  flow Data from A to Ghost\n}'
    r = parse_value_model(text, "m.vm")
    err = errors(r)[0]
    assert err.span is not None
    assert err.span.file == "m.vm"
    lines = text.split("\n")
    token = lines[err.span.start_line - 1][err.span.start_col - 1:err.span.end_col]
    assert token == "Ghost"


def test_model_absent_iff_errors():
    good = parse_value_model("valuemodel M { actor A }")
    assert good.ok and not errors(good)
    bad = parse_value_model("valuemodel M { actor }")
    assert bad.model is None and errors(bad)


def test_lex_error_reports_span():
    r = parse_value_model('valuemodel M { actor @ }')
    assert not r.ok
    assert errors(r)[0].span is not None


# ---------------------------------------------------------------------------
# Other formats
# ---------------------------------------------------------------------------

def test_api_descriptor_parses():
    r = parse_api_descriptor("""
        api "Thing API" {
          stage plan
          observed stability unstable
          curve 0 plan 0.1
          curve 1 plan 0.4
          rationale "mvp-ready"
        }""")
    assert r.ok
    d = r.model
    assert d.declared_stage is LifecycleStage.PLAN
    assert d.observed.stability is Stability.UNSTABLE
    assert d.observed.support is None
    assert len(d.curve) == 2 and d.transition_rationales == ["mvp-ready"]


def test_api_descriptor_curve_ordering_enforced():
    r = parse_api_descriptor("""
        api X {
          stage operation
          curve 0 operation 0.5
          curve 1 plan 0.6
        }""")
    assert not r.ok
    assert errors(r)[0].code == "E-ORDER"


def test_api_descriptor_value_range_enforced():
    r = parse_api_descriptor('api X { stage plan curve 0 plan 1.5 }')
    assert not r.ok
    assert errors(r)[0].code == "E-RANGE"


def test_metric_catalog_parses():
    r = parse_metric_catalog("""
        metric "Branding" {
          what "Impact on brand"
          why "Grow the business"
          who "CMO", "Product Owner"
          where "Surveys"
          dimensions business
        }
        metric "Documentation" {
          dimensions design
          automation automatable
          links "Write docs"
        }""")
    assert r.ok
    branding, docs = r.model
    assert branding.dimensions == {Dimension.BUSINESS}
    assert branding.who == ["CMO", "Product Owner"]
    assert docs.automation is AutomationLevel.AUTOMATABLE
    assert docs.links == ["Write docs"]


def test_scenario_parses():
    r = parse_scenario("""
        scenario s1 {
          label G = satisfied
          label "Big Goal" = partden
        }""")
    assert r.ok
    assert r.model.assignments["G"] is Label.SATISFIED
    assert r.model.assignments["Big Goal"] is Label.PARTIALLY_DENIED


def test_parse_model_dispatches_by_leading_keyword():
    assert isinstance(parse_model("valuemodel M { }").model, type(
        parse_value_model("valuemodel M { }").model))
    assert parse_model("nonsense").model is None


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

PARSERS = {
    ".vm": parse_value_model,
    ".gm": parse_goal_model,
    ".api": parse_api_descriptor,
    ".metrics": parse_metric_catalog,
    ".scn": parse_scenario,
}


def corpus_files():
    return sorted(p for p in CORPUS.iterdir() if p.suffix in PARSERS)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_round_trip(path):
    parse = PARSERS[path.suffix]
    first = parse(path.read_text(encoding="utf-8"), str(path))
    assert first.ok, [d.render() for d in first.diagnostics]
    printed = print_model(first.model)
    second = parse(printed, str(path) + ".printed")
    assert second.ok
    assert second.model == first.model
    # canonical text is a fixpoint of parse/print
    assert print_model(second.model) == printed


def test_random_model_round_trips():
    rng = random.Random(1401)
    for _ in range(100):
        vm = gen_value_model(rng)
        text = print_model(vm)
        back = parse_value_model(text, "gen.vm")
        assert back.ok, [d.render() for d in back.diagnostics] + [text]
        assert back.model == vm
    for _ in range(100):
        gm = gen_goal_model(rng, max_elements=12)
        text = print_model(gm)
        back = parse_goal_model(text, "gen.gm")
        assert back.ok, [d.render() for d in back.diagnostics] + [text]
        assert back.model == gm


def test_printing_is_deterministic():
    rng = random.Random(7)
    model = gen_goal_model(rng)
    assert print_model(model) == print_model(model)


def test_quote_name_refuses_a_line_break():
    assert quote_name("a\tb") == '"a\tb"'
    with pytest.raises(ApimodError, match="line break"):
        quote_name("a\nb")


@pytest.mark.parametrize("path", [CORPUS / name for name in (
    "device_api.gm", "device_api.vm", "device_settings.api", "sample_catalog.metrics",
    "device_ok.scn")], ids=lambda p: p.name)
def test_every_printer_refuses_a_name_with_a_line_break(path):
    # Such a name would print as a string the lexer cannot read back.
    model = PARSERS[path.suffix](path.read_text(encoding="utf-8")).model
    (model[0] if isinstance(model, list) else model).name = "a\nb"
    with pytest.raises(ApimodError, match="line break"):
        print_model(model)


def test_print_scenario_refuses_a_conflict_label():
    # `label a = conflict` would not parse: conflict is not a label word.
    with pytest.raises(ApimodError, match="conflict label of 'a'"):
        print_model(Scenario("s", {"b": Label.SATISFIED, "a": Label.CONFLICT}))


@pytest.mark.parametrize("x", [1e-05, -1.0, 1e16, float("nan"), float("inf")], ids=repr)
def test_print_api_descriptor_refuses_a_curve_number_the_lexer_cannot_read(x):
    plan = LifecycleStage.PLAN
    for sample in (ValueCurveSample(x, plan, 0.5), ValueCurveSample(0.0, plan, x)):
        with pytest.raises(ApimodError, match="cannot be printed"):
            print_model(ApiDescriptor("X", plan, curve=[sample]))


def test_curve_numbers_print_exactly_and_round_trip():
    plan = LifecycleStage.PLAN
    d = ApiDescriptor("X", plan, curve=[ValueCurveSample(0.1234567891, plan, 0.25),
                                        ValueCurveSample(123456789.0, plan, 1.0)])
    text = print_model(d)
    assert "curve 0.1234567891 plan 0.25\n" in text
    assert "curve 123456789.0 plan 1\n" in text
    back = parse_api_descriptor(text)
    assert back.ok and back.model == d


# ---------------------------------------------------------------------------
# Unexpected statement heads, block by block
# ---------------------------------------------------------------------------

#: Per braced block: a text whose statement head is `HEAD`, the error each
#: unexpected head gets (punctuation, a number, an empty quoted name and a
#: keyword of another block), and the errors of the two statements after it,
#: which show that parsing resumed at the block's next statement keywords.
STATEMENT_HEADS = {
    "value-model top": (
        "valuemodel M {\n  HEAD\n  stimulus = in A\n  actor =\n}",
        {"=": ("expected actor, flow, or stimulus, found '='", 2, 3),
         "7": ("expected actor, flow, or stimulus, found '7'", 2, 3),
         '""': ("expected actor, flow, or stimulus, found ''", 2, 3),
         "depend": ("expected actor, flow, or stimulus, found 'depend'", 2, 3)},
        [("expected stimulus name, found '='", 3, 12),
         ("expected actor name, found '='", 4, 9)]),
    "value-model actor body": (
        "valuemodel M {\n  actor A {\n    HEAD\n    activity =\n    layer =\n  }\n}",
        {"=": ("expected actor-body statement, found '='", 3, 5),
         "7": ("expected actor-body statement, found '7'", 3, 5),
         '""': ("expected actor-body statement, found ''", 3, 5),
         "goal": ("expected actor-body statement, found 'goal'", 3, 5)},
        [("expected activity name, found '='", 4, 14),
         ("expected '(', found '='", 5, 11)]),
    "goal-model top": (
        "goalmodel M {\n  HEAD\n  partof = -> A\n  depend =\n}",
        {"=": ("expected actor, depend, or partof, found '='", 2, 3),
         "7": ("expected actor, depend, or partof, found '7'", 2, 3),
         '""': ("expected actor, depend, or partof, found ''", 2, 3),
         "flow": ("expected actor, depend, or partof, found 'flow'", 2, 3)},
        [("expected actor, found '='", 3, 10),
         ("expected actor reference, found '='", 4, 10)]),
    "goal-model actor body": (
        # A name starts a link statement, so `""` and a keyword of another
        # block are read as its source.
        "goalmodel M {\n  actor A {\n    HEAD\n    task =\n    bapo = X\n  }\n}",
        {"=": ("expected actor-body statement, found '='", 3, 5),
         "7": ("expected actor-body statement, found '7'", 3, 5),
         '""': ("expected and/or/makes/helps/hurts/breaks after ''", 4, 5),
         "activity": ("expected element reference, found 'activity'", 3, 5)},
        [("expected element name, found '='", 4, 10),
         ("expected BAPO tag (B|A|P|O), found 'X'", 5, 12)]),
    "api body": (
        "api A {\n  HEAD\n  rationale =\n  stage =\n}",
        {"=": ("expected stage, observed, curve, or rationale, found '='", 2, 3),
         "7": ("expected stage, observed, curve, or rationale, found '7'", 2, 3),
         '""': ("expected stage, observed, curve, or rationale, found ''", 2, 3),
         "label": ("expected stage, observed, curve, or rationale, found 'label'", 2, 3)},
        [("expected rationale tag, found '='", 3, 13),
         ("expected lifecycle stage, found '='", 4, 9)]),
    "metric body": (
        'metric "M" {\n  HEAD\n  automation =\n  dimensions =\n}',
        {"=": ("unknown metric field '='", 2, 3),
         "7": ("unknown metric field '7'", 2, 3),
         '""': ("unknown metric field ''", 2, 3),
         "stage": ("unknown metric field 'stage'", 2, 3)},
        [("expected automation level (automatable|partial|manual), found '='", 3, 14),
         ("expected dimension (business|usage|design|implementation), found '='", 4, 14)]),
    "scenario body": (
        # Scenarios show an empty name by its token kind.
        "scenario s {\n  HEAD\n  label = = denied\n  label G = 7\n}",
        {"=": ("expected 'label', found '='", 2, 3),
         "7": ("expected 'label', found '7'", 2, 3),
         '""': ("expected 'label', found 'string'", 2, 3),
         "actor": ("expected 'label', found 'actor'", 2, 3)},
        [("expected element or dependum id, found '='", 3, 9),
         ("expected label, found '7'", 4, 13)]),
}


@pytest.mark.parametrize("block, head", [
    (block, head) for block, (_, heads, _) in STATEMENT_HEADS.items() for head in heads])
def test_unexpected_statement_head_is_reported_and_parsing_resumes(block, head):
    text, heads, later = STATEMENT_HEADS[block]
    r = parse_model(text.replace("HEAD", head))
    assert r.model is None
    assert diagnostics_at(r) == [("E-SYNTAX", *d) for d in [heads[head], *later]]
