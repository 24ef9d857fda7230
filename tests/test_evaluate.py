"""Propagation engine: paper rules, oracle equivalence, invariants."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from apimod import evaluate
from apimod.core import (
    ApimodError, Contribution, ContributionStrength, Dependency, DependencyEnd,
    Dependum, ElementKind, GActor,
    GElement, GoalModel, Label, Refinement, RefinementKind, Severity,
)
from apimod.dsl import parse_goal_model, parse_scenario
from apimod.evaluate import (
    Scenario, compare_scenarios, compile_rules, evaluation_nodes, propagate,
    propagate_metric_hierarchy, resolve_scenario, scenario_score,
)

from helpers import CORPUS, gen_goal_model, gen_scenario, jacobi_propagate, oracle_propagate

S, PS, U, PD, D = (Label.SATISFIED, Label.PARTIALLY_SATISFIED, Label.UNKNOWN,
                   Label.PARTIALLY_DENIED, Label.DENIED)


def gm(text):
    r = parse_goal_model(text)
    assert r.ok, [d.render() for d in r.diagnostics]
    return r.model


def run(text, assignments):
    return propagate(gm(text), Scenario("t", assignments))


ONE_ACTOR = """
goalmodel M {{
  actor A {{
    {body}
  }}
}}
"""


# ---------------------------------------------------------------------------
# The seven propagation rules, one minimal model each
# ---------------------------------------------------------------------------

def test_rule_dependency_satisfied_makes_depender_satisfied():
    result = run("""
        goalmodel M {
          actor A { goal G }
          actor B { task T }
          depend A.G -> B.T : task "Service"
        }""", {"T": S})
    assert result.labels["d1"] is S
    assert result.labels["G"] is S


def test_rule_and_refinement_all_children_satisfied():
    result = run(ONE_ACTOR.format(body="goal G task T1 task T2 G and T1, T2"),
                 {"T1": S, "T2": S})
    assert result.labels["G"] is S


def test_rule_or_refinement_one_child_satisfied():
    result = run(ONE_ACTOR.format(body="goal G task T1 task T2 G or T1, T2"),
                 {"T1": S, "T2": D})
    assert result.labels["G"] is S


def test_rule_helps_gives_partially_satisfied():
    result = run(ONE_ACTOR.format(body="task T quality Q T helps Q"), {"T": S})
    assert result.labels["Q"] is PS


def test_rule_hurts_gives_partially_denied():
    result = run(ONE_ACTOR.format(body="task T quality Q T hurts Q"), {"T": S})
    assert result.labels["Q"] is PD


def test_rule_makes_gives_satisfied():
    result = run(ONE_ACTOR.format(body="task T quality Q T makes Q"), {"T": S})
    assert result.labels["Q"] is S


def test_rule_breaks_gives_denied():
    result = run(ONE_ACTOR.format(body="task T quality Q T breaks Q"), {"T": S})
    assert result.labels["Q"] is D


# ---------------------------------------------------------------------------
# Further propagation behavior
# ---------------------------------------------------------------------------

def test_and_refinement_takes_the_minimum():
    result = run(ONE_ACTOR.format(body="goal G task T1 task T2 G and T1, T2"),
                 {"T1": S, "T2": PD})
    assert result.labels["G"] is PD


def test_helps_and_hurts_from_satisfied_sources_conflict():
    result = run(ONE_ACTOR.format(
        body="task T1 task T2 quality Q T1 helps Q T2 hurts Q"),
        {"T1": S, "T2": S})
    assert result.labels["Q"] is Label.CONFLICT
    assert [d.code for d in result.diagnostics] == ["W-CONFLICT"]
    assert result.diagnostics[0].severity is Severity.WARNING


def test_symmetric_closure_denied_source_through_breaks_satisfies():
    result = run(ONE_ACTOR.format(body="task T quality Q T breaks Q"), {"T": D})
    assert result.labels["Q"] is S


def test_unknown_source_delivers_nothing():
    result = run(ONE_ACTOR.format(body="task T quality Q T helps Q"), {})
    assert result.labels["Q"] is U


def test_problematic_dependum_injects_denial():
    result = run("""
        goalmodel M {
          actor A { goal G }
          actor B
          depend A.G -> B : resource "Data" = denied
        }""", {})
    assert result.labels["d1"] is D
    assert result.labels["G"] is D


def test_dependency_and_refinement_combine_by_min():
    result = run("""
        goalmodel M {
          actor A { goal G task T G and T }
          actor B { task Srv }
          depend A.G -> B.Srv : task "Help"
        }""", {"T": S, "Srv": PD})
    assert result.labels["G"] is PD


def test_mutual_dependencies_terminate():
    result = run("""
        goalmodel M {
          actor A { task TA }
          actor B { task TB }
          depend A.TA -> B.TB : task "B serves A"
          depend B.TB -> A.TA : task "A serves B"
        }""", {"TB": S})
    assert result.labels["TA"] is S
    assert result.labels["d2"] is S


def test_override_on_non_leaf_is_surfaced():
    result = run(ONE_ACTOR.format(body="goal G task T G and T"),
                 {"T": D, "G": S})
    assert result.labels["G"] is S  # the human assignment wins
    assert result.overridden == {"G"}


def test_agreeing_assignment_is_not_overridden():
    result = run(ONE_ACTOR.format(body="goal G task T G and T"),
                 {"T": S, "G": S})
    assert result.overridden == set()


def test_leaf_assignments_are_seeds_not_overrides():
    result = run(ONE_ACTOR.format(body="goal G task T G and T"), {"T": S})
    assert result.overridden == set()


def test_scenario_may_label_dependum_by_unique_name():
    model = gm("""
        goalmodel M {
          actor A { goal G }
          actor B
          depend A.G -> B : resource "Data"
        }""")
    resolved = resolve_scenario(model, Scenario("s", {"Data": S}))
    assert resolved == {"d1": S}
    result = propagate(model, Scenario("s", {"Data": S}))
    assert result.labels["G"] is S


def test_one_node_labelled_under_two_names_raises():
    model = gm("""
        goalmodel M {
          actor A { goal G }
          actor B
          depend A.G -> B : resource "Data"
        }""")
    scenario = Scenario("s", {"Data": S, "d1": D})
    for resolve in (resolve_scenario, propagate):
        with pytest.raises(ApimodError, match="labels one node twice, as 'Data' and as 'd1'"):
            resolve(model, scenario)


def test_unknown_scenario_id_raises():
    model = gm("goalmodel M { actor A { goal G } }")
    with pytest.raises(ApimodError):
        propagate(model, Scenario("s", {"Ghost": S}))


def test_conflict_assignment_raises():
    model = gm("goalmodel M { actor A { goal G } }")
    with pytest.raises(ApimodError):
        propagate(model, Scenario("s", {"G": Label.CONFLICT}))


def test_self_contribution_raises_precondition():
    q = GElement("Q", ElementKind.QUALITY, "Q")
    t = GElement("T", ElementKind.TASK, "T",
                 contributions=[Contribution("Q", ContributionStrength.HELPS)])
    q.contributions.append(Contribution("Q", ContributionStrength.HURTS))
    model = GoalModel("m", actors=[GActor("A", "A", elements=[q, t])])
    with pytest.raises(ApimodError, match="contribution must connect two distinct"):
        propagate(model, Scenario("s", {"T": S}))


def test_invalid_model_raises_precondition():
    model = gm("""
        goalmodel M {
          actor A { goal G task T G and T T and G }
        }""")
    with pytest.raises(ApimodError):
        propagate(model, Scenario("s", {}))


# ---------------------------------------------------------------------------
# Oracle equivalence, confluence, termination, monotonicity
# ---------------------------------------------------------------------------

def test_engine_matches_randomized_closure_oracle():
    rng = random.Random(2024)
    for i in range(200):
        model = gen_goal_model(rng, max_elements=8, max_links=12)
        scenario = gen_scenario(rng, model)
        result = propagate(model, scenario)
        resolved = resolve_scenario(model, scenario)
        expected = oracle_propagate(model, resolved, random.Random(i))
        actual = {node: result.labels[node].value for node in expected}
        assert actual == expected, f"model {i}"
        nodes = evaluation_nodes(model)
        assert result.iterations <= 4 * max(1, len(nodes))


def test_confluence_across_rule_orders():
    rng = random.Random(77)
    for i in range(60):
        model = gen_goal_model(rng, max_elements=8, max_links=12)
        scenario = gen_scenario(rng, model)
        resolved = resolve_scenario(model, scenario)
        runs = {tuple(sorted(oracle_propagate(model, resolved,
                                              random.Random(seed)).items()))
                for seed in range(5)}
        assert len(runs) == 1, f"model {i} is order-sensitive"


def test_monotonicity_strengthening_a_partsat_seed_never_weakens_positive_evidence():
    # Strengthening PARTIALLY_SATISFIED -> SATISFIED preserves the sign of
    # every delivery, so no node anywhere may lose positive evidence. (An
    # upgrade that crosses the sign boundary, e.g. denied -> unknown, can
    # legitimately remove evidence that the inverted hurts/breaks rules had
    # produced, so only sign-preserving strengthenings are monotone.)
    positive_rank = {U: 0, PD: 0, D: 0, Label.CONFLICT: 1, PS: 1, S: 2}
    rng = random.Random(31337)
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 2000:
        attempts += 1
        model = gen_goal_model(rng, max_elements=6, max_links=10)
        scenario = gen_scenario(rng, model)
        partials = [n for n, lab in scenario.assignments.items() if lab is PS]
        if not partials:
            continue
        target = rng.choice(partials)
        stronger = dict(scenario.assignments)
        stronger[target] = S
        base = propagate(model, scenario)
        bumped = propagate(model, Scenario("up", stronger))
        for node, label in base.labels.items():
            if node == target:
                continue
            assert positive_rank[bumped.labels[node]] >= positive_rank[label], \
                (node, label, bumped.labels[node])
        checked += 1
    assert checked >= 60


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 24),
       order_seed=st.integers(0, 2**32 - 1))
def test_engine_matches_oracle_and_ignores_model_order(seed, size, order_seed):
    rng = random.Random(seed)
    model = gen_goal_model(rng, max_elements=size, max_links=size + 4)
    scenario = gen_scenario(rng, model)
    result = propagate(model, scenario)
    expected = oracle_propagate(model, resolve_scenario(model, scenario),
                                random.Random(seed))
    assert {node: lab.value for node, lab in result.labels.items()} == expected

    shuffle = random.Random(order_seed).shuffle
    shuffle(model.actors)
    for actor in model.actors:
        shuffle(actor.elements)
    shuffle(model.dependencies)
    reordered = propagate(model, scenario)
    assert reordered.labels == result.labels
    assert reordered.overridden == result.overridden
    assert reordered.iterations == result.iterations
    assert reordered.diagnostics == result.diagnostics


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 24),
       count=st.integers(2, 4))
@example(seed=62, size=12, count=2)  # a round grows a pair but changes no label
@example(seed=151, size=16, count=2)  # an AND input in conflict before a lower one
def test_engine_matches_plain_jacobi_rounds_and_comparison_matches_engine(seed, size, count):
    rng = random.Random(seed)
    model = gen_goal_model(rng, max_elements=size, max_links=size + 4)
    scenarios = [Scenario(f"s{i}", gen_scenario(rng, model, max_assignments=6).assignments)
                 for i in range(count)]
    results = [propagate(model, s) for s in scenarios]
    for scenario, result in zip(scenarios, results):
        labels, rounds, overridden = jacobi_propagate(model, resolve_scenario(model, scenario))
        assert {node: lab.value for node, lab in result.labels.items()} == labels
        assert result.iterations == rounds
        assert result.overridden == overridden

    table = compare_scenarios(model, scenarios)
    assert table.scenarios == [s.name for s in scenarios]
    assert table.rows == [(el.id, [r.labels[el.id] for r in results])
                          for actor in model.actors for el in actor.elements]


@pytest.mark.parametrize("assignments", [
    {"a": Label.SATISFIED, "b": Label.SATISFIED},
    {"a": Label.DENIED},
    {"a": Label.PARTIALLY_DENIED, "b": Label.SATISFIED},
])
def test_one_node_round_with_a_reader_listed_twice_matches_jacobi_rounds(assignments):
    """The round that relabels only X evaluates its reader list, Y twice;
    the second evaluation finds Y's pair merged and changes nothing."""
    model = parse_goal_model("goalmodel m { actor A { goal X goal Y task a task b "
                             "X and a, a, b Y or X, X } }").model
    rules = compile_rules(model)
    index = {node: i for i, node in enumerate(rules.nodes)}
    assert rules.readers[index["a"]] == [index["X"]] * 2
    assert rules.readers[index["X"]] == [index["Y"]] * 2
    result = propagate(model, Scenario("s", assignments), rules)
    labels, rounds, overridden = jacobi_propagate(model, assignments)
    assert {node: lab.value for node, lab in result.labels.items()} == labels
    assert result.iterations == rounds == 2
    assert result.overridden == overridden


def and_chain(actors: int, per_actor: int) -> GoalModel:
    """Each actor holds an AND-chain of goals whose last goal depends on the
    first goal of the next actor, so evidence from the last leaf climbs
    through every node one round at a time."""
    model = GoalModel("chain")
    for a in range(actors):
        ids = [f"g{a}.{i}" for i in range(per_actor)]
        model.actors.append(GActor(f"A{a}", f"A{a}", elements=[
            GElement(el, ElementKind.GOAL, el,
                     refinement=Refinement(RefinementKind.AND, (child,)))
            for el, child in zip(ids, ids[1:])] + [
            GElement(ids[-1], ElementKind.GOAL, ids[-1])]))
        if a:
            model.dependencies.append(Dependency(
                f"d{a}", DependencyEnd(f"A{a - 1}", f"g{a - 1}.{per_actor - 1}"),
                Dependum(ElementKind.GOAL, f"dum{a}"),
                DependencyEnd(f"A{a}", f"g{a}.0")))
    return model


@pytest.mark.parametrize("leaf", [S, PD])
def test_long_cross_actor_chain_takes_one_round_per_node(leaf):
    model = and_chain(40, 50)
    nodes = evaluation_nodes(model)
    assert len(nodes) == 2039
    result = propagate(model, Scenario("leaf", {"g39.49": leaf}))
    assert result.labels == {node: leaf for node in nodes}
    assert result.iterations == len(nodes) - 1
    assert result.overridden == set() and result.diagnostics == []


def test_sweep_bound_is_checked_under_python_optimize():
    src = Path(evaluate.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from apimod import evaluate\n"
        "from apimod.core import ApimodError, Label\n"
        "from apimod.dsl import parse_goal_model\n"
        "assert sys.flags.optimize\n"
        "model = parse_goal_model("
        "'goalmodel M { actor A { goal G task T G and T } }').model\n"
        "evaluate.MAX_ROUNDS_PER_NODE = 0\n"
        "try:\n"
        "    evaluate.propagate(model, evaluate.Scenario('s', {'T': Label.SATISFIED}))\n"
        "except ApimodError as e:\n"
        "    print('bound:', e)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bound: fixpoint took 1 rounds"), proc.stdout


def test_dangling_refinement_child_is_rejected_before_propagation():
    model = GoalModel("m", actors=[GActor("A", "A", elements=[
        GElement("G", ElementKind.GOAL, "G",
                 refinement=Refinement(RefinementKind.AND, ("ghost",)))])])
    with pytest.raises(ApimodError, match="'ghost'"):
        propagate(model, Scenario("s", {}))


def test_element_named_like_a_dependency_id_is_rejected_before_propagation():
    def model(quality):
        return GoalModel("m", actors=[
            GActor("A", "A", elements=[
                GElement(quality, ElementKind.QUALITY, quality),
                GElement("X", ElementKind.TASK, "X",
                         contributions=[Contribution(quality, ContributionStrength.HELPS)]),
                GElement("T", ElementKind.TASK, "T")]),
            GActor("B", "B", elements=[GElement("G", ElementKind.GOAL, "G")])],
            dependencies=[Dependency("d1", DependencyEnd("A", "T"),
                                     Dependum(ElementKind.RESOURCE, "R"),
                                     DependencyEnd("B", "G"))])

    scenario = Scenario("s", {"X": S, "G": D})
    for evaluate_it in (lambda m: propagate(m, scenario),
                        lambda m: compare_scenarios(m, [scenario, scenario])):
        with pytest.raises(ApimodError, match="duplicate identifier 'd1'"):
            evaluate_it(model("d1"))
    # Renamed, the quality and the dependum are two nodes again.
    labels = propagate(model("Q"), scenario).labels
    assert (labels["Q"], labels["d1"], labels["T"]) == (PS, D, D)


def test_rules_from_another_model_are_refused():
    text = ONE_ACTOR.format(body="goal G task T G and T")
    with pytest.raises(ApimodError):
        propagate(gm(text), Scenario("s", {}), compile_rules(gm(text)))


# ---------------------------------------------------------------------------
# Scenario comparison
# ---------------------------------------------------------------------------

def load_scenario(name):
    r = parse_scenario((CORPUS / name).read_text(encoding="utf-8"))
    assert r.ok
    return r.model


def test_two_connection_example_ranks_platform_first():
    model = gm((CORPUS / "ecosystem.gm").read_text(encoding="utf-8"))
    table = compare_scenarios(
        model,
        [load_scenario("option_platform.scn"), load_scenario("option_direct.scn")],
        focus_actor="Company A")
    assert table.ranking[0] == ("platform", 1)
    assert table.scores["platform"] > table.scores["direct"]
    assert {row.node for row in table.rows} == {
        "Generate Revenue", "Reach Users", "Low Effort", "Sell Direct",
        "Use Platform"}


def test_identical_scenarios_tie():
    model = gm(ONE_ACTOR.format(body="goal G task T G and T"))
    s1 = Scenario("one", {"T": S})
    s2 = Scenario("two", {"T": S})
    table = compare_scenarios(model, [s1, s2])
    assert [r for _, r in table.ranking] == [1, 1]
    for row in table.rows:
        assert row.labels[0] is row.labels[1]


def test_score_counts_satisfied_and_half_for_partial():
    model = gm(ONE_ACTOR.format(
        body="goal G1 goal G2 goal G3 task T "
             "G1 and T G2 and T G3 and T"))
    result = propagate(model, Scenario("s", {"G1": S, "G2": PS, "G3": D, "T": S}))
    assert scenario_score(model, result, "A") == 1.5


def test_comparison_validates_the_model_once(monkeypatch):
    calls = []
    real = evaluate.validate_goal_model
    monkeypatch.setattr(evaluate, "validate_goal_model",
                        lambda model: calls.append(model) or real(model))
    model = gm(ONE_ACTOR.format(body="goal G task T G and T"))
    compare_scenarios(model, [Scenario(n, {"T": S}) for n in "xyz"])
    assert calls == [model]


def test_comparison_of_invalid_model_raises():
    model = gm(ONE_ACTOR.format(body="goal G task T G and T T and G"))
    with pytest.raises(ApimodError, match="refinement cycle"):
        compare_scenarios(model, [Scenario("x", {}), Scenario("y", {})])


def test_comparison_refuses_a_repeated_scenario_name():
    model = gm(ONE_ACTOR.format(body="goal G task T G and T"))
    scenarios = [Scenario("x", {"T": S}), Scenario("y", {}), Scenario("x", {"T": D})]
    with pytest.raises(ApimodError, match="scenario name 'x' is repeated"):
        compare_scenarios(model, scenarios)


def test_comparison_needs_two_scenarios():
    model = gm("goalmodel M { actor A { goal G } }")
    with pytest.raises(ApimodError):
        compare_scenarios(model, [Scenario("only", {})])


def test_ranking_ignores_irrelevant_closed_actor():
    base = """
        goalmodel M {{
          actor "Company A" {{
            goal G
            task T1
            task T2
            G or T1, T2
          }}{extra}
        }}"""
    model1 = gm(base.format(extra=""))
    model2 = gm(base.format(extra='\n          actor "Bystander"'))
    scenarios = [Scenario("x", {"T1": S}), Scenario("y", {"T1": D, "T2": PS})]
    t1 = compare_scenarios(model1, scenarios, focus_actor="Company A")
    t2 = compare_scenarios(model2, scenarios, focus_actor="Company A")
    assert t1.ranking == t2.ranking


# ---------------------------------------------------------------------------
# Metric hierarchies
# ---------------------------------------------------------------------------

HIERARCHY = """
goalmodel H {
  actor Metrics {
    quality Profit
    quality "Customer Value"
    quality "Developer Cost"
    quality "Design Stability"
    quality "Documentation"
    quality "Consistency between APIs"
    "Customer Value" helps Profit
    "Developer Cost" hurts Profit
    "Design Stability" helps "Customer Value"
    "Documentation" helps "Customer Value"
    "Consistency between APIs" helps "Design Stability"
  }
}
"""


def test_measured_leaf_propagates_up_via_helps():
    result = propagate_metric_hierarchy(
        gm(HIERARCHY), Scenario("m", {"Consistency between APIs": PS}))
    assert result.labels["Design Stability"] is PS
    assert result.labels["Customer Value"] is PS


def test_unmeasured_hierarchy_is_all_unknown():
    result = propagate_metric_hierarchy(gm(HIERARCHY), Scenario("m", {}))
    assert set(result.labels.values()) == {U}


def test_hierarchy_with_mixed_leaves_matches_oracle():
    model = gm(HIERARCHY)
    assignments = {"Consistency between APIs": PS, "Documentation": S,
                   "Developer Cost": D}
    result = propagate_metric_hierarchy(model, Scenario("m", assignments))
    expected = oracle_propagate(model, assignments, random.Random(5))
    assert {node: lab.value for node, lab in result.labels.items()} == expected
    # unmeasured ancestors of nothing stay unknown; measured chains move
    assert result.labels["Customer Value"] is PS
    assert result.labels["Profit"] is PS  # helps from PS, hurts from D both give +


def test_hierarchy_rejects_non_quality_elements():
    model = gm(ONE_ACTOR.format(body="task T quality Q T helps Q"))
    with pytest.raises(ApimodError):
        propagate_metric_hierarchy(model, Scenario("m", {}))


def test_hierarchy_rejects_dependencies():
    model = gm("goalmodel M { actor A { quality Q } actor B { quality P }"
               " depend A.Q -> B.P : quality R }")
    with pytest.raises(ApimodError, match="^metric hierarchy may not contain dependencies$"):
        propagate_metric_hierarchy(model, Scenario("m", {}))
