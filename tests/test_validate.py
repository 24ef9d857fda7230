"""Model checks: references, reciprocity, cycles, floats, coverage."""

import importlib
import pkgutil
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import apimod
from apimod.core import (
    Activity, ApimodError, AssociationKind, AssociationLink, Contribution,
    ContributionStrength, Dependency, DependencyEnd, Dependum, ElementKind, GActor,
    GElement, GoalModel, Refinement, RefinementKind, Severity, Stimulus, VActor, ValueFlow,
    ValueModel,
)
from apimod.dsl import parse_goal_model, parse_model, parse_value_model, print_model
from apimod.evaluate import compile_rules
from apimod.report import export_dot
from apimod.transform import transform_value_to_goal
from apimod.validate import (
    check_bapo_coverage, check_layer_coverage, names, reference_problems,
    validate_goal_model, validate_value_model,
)

from helpers import CORPUS, gen_goal_model, gen_value_model, replaced


def codes(diags):
    return [d.code for d in diags]


def vm(text):
    r = parse_value_model(text)
    assert r.ok, [d.render() for d in r.diagnostics]
    return r.model


def gm(text):
    r = parse_goal_model(text)
    assert r.ok, [d.render() for d in r.diagnostics]
    return r.model


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

def test_actor_with_two_outgoing_and_no_incoming_flows_gets_recip_warning():
    model = vm("""
        valuemodel M {
          actor A { api }
          actor B
          actor C
          flow X from A to B
          flow Y from A to C
          flow Z from B to C
          stimulus S in A
        }""")
    diags = validate_value_model(model)
    recip = [d for d in diags if d.code == "W-RECIP"]
    assert len(recip) == 2  # A never receives, C never provides
    assert "'A'" in recip[0].message and "provides" in recip[0].message


def test_reciprocity_both_directions():
    model = vm("""
        valuemodel M {
          actor A { api }
          actor Sink
          actor Source
          flow X from A to Sink
          flow Y from Source to A
          stimulus S in A
        }""")
    diags = [d for d in validate_value_model(model) if d.code == "W-RECIP"]
    assert len(diags) == 2
    messages = " | ".join(d.message for d in diags)
    assert "'Sink'" in messages and "'Source'" in messages


def test_no_api_marker_is_an_error():
    model = vm("""
        valuemodel M {
          actor A
          actor B
          flow X from A to B
          flow Y from B to A
          stimulus S in A
        }""")
    assert "E-NOAPI" in codes(validate_value_model(model))


def test_clean_reciprocated_model_yields_nothing():
    model = vm("""
        valuemodel M {
          actor A { api }
          actor B
          flow X from A to B
          flow Y from B to A
          stimulus S in A
        }""")
    assert validate_value_model(model) == []


def test_isolated_actor_and_missing_stimulus():
    model = vm("""
        valuemodel M {
          actor A { api }
          actor B
          actor Lonely
          flow X from A to B
          flow Y from B to A
        }""")
    assert codes(validate_value_model(model)) == ["W-NOSTIM", "W-ISOLATED"] \
        or set(codes(validate_value_model(model))) == {"W-ISOLATED", "W-NOSTIM"}


def test_empty_model_is_not_linted():
    model = vm("valuemodel M { }")
    assert validate_value_model(model) == []


def test_strict_reciprocity_flags_unreciprocated_pairs():
    model = vm("""
        valuemodel M {
          actor A { api }
          actor B
          actor C
          flow X from A to B
          flow Y from B to C
          flow Z from C to A
          stimulus S in A
        }""")
    assert validate_value_model(model) == []  # per-actor reciprocity holds
    strict = validate_value_model(model, strict_reciprocity=True)
    assert codes(strict) == ["W-RECIP", "W-RECIP", "W-RECIP"]


def test_flows_via_activities_count_for_the_owning_actor():
    model = vm("""
        valuemodel M {
          actor A { api activity Work }
          actor B
          flow X from Work to B
          flow Y from B to Work
          stimulus S in B
        }""")
    assert validate_value_model(model) == []


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

def test_self_refinement_is_a_cycle():
    model = GoalModel("m", actors=[GActor("A", "A", elements=[
        GElement("G", ElementKind.GOAL, "G",
                 refinement=Refinement(RefinementKind.AND, ("G",)))])])
    assert "E-CYCLE" in codes(validate_goal_model(model))


def test_two_element_cycle_detected():
    model = gm("""
        goalmodel M {
          actor A {
            goal G
            task T
            G and T
            T and G
          }
        }""")
    assert "E-CYCLE" in codes(validate_goal_model(model))


def test_lone_task_floats():
    model = gm("goalmodel M { actor A { task T } }")
    diags = validate_goal_model(model)
    assert codes(diags) == ["W-FLOAT"]
    assert "'T'" in diags[0].message


def test_root_goal_with_children_is_not_floating():
    model = gm("""
        goalmodel M {
          actor A {
            goal Root
            task T1
            task T2
            Root and T1, T2
          }
        }""")
    assert validate_goal_model(model) == []


def test_contribution_onto_task_is_error():
    # built programmatically; the parser already rejects this at parse time
    model = GoalModel("m", actors=[GActor("A", "A", elements=[
        GElement("T", ElementKind.TASK, "T"),
        GElement("H", ElementKind.TASK, "H"),
    ])])
    from apimod.core import Contribution, ContributionStrength
    model.actors[0].elements[1].contributions.append(
        Contribution("T", ContributionStrength.HELPS))
    assert "E-CONTRIB" in codes(validate_goal_model(model))


def test_contribution_from_an_element_to_itself_is_e_self_at_the_element():
    q = GElement("Q", ElementKind.QUALITY, "Q")
    t = GElement("T", ElementKind.TASK, "T",
                 contributions=[Contribution("Q", ContributionStrength.HELPS)])
    q.contributions.append(Contribution("Q", ContributionStrength.HURTS))
    diags = validate_goal_model(GoalModel("m", actors=[GActor("A", "A", elements=[q, t])]))
    assert [(d.code, d.message) for d in diags] == [
        ("E-SELF", "contribution must connect two distinct elements")]


def test_dependency_into_closed_actor_element_dangles():
    model = gm("""
        goalmodel M {
          actor A
          actor B { task T }
          depend A.Hidden -> B.T : resource R
        }""")
    diags = validate_goal_model(model)
    assert "E-DANGLE" in codes(diags)


def test_dangling_refinement_child_is_an_error():
    model = GoalModel("m", actors=[GActor("A", "A", elements=[
        GElement("G", ElementKind.GOAL, "G",
                 refinement=Refinement(RefinementKind.AND, ("T", "ghost"))),
        GElement("T", ElementKind.TASK, "T")])])
    diags = validate_goal_model(model)
    assert codes(diags) == ["E-DANGLE"]
    assert "'ghost'" in diags[0].message and diags[0].severity is Severity.ERROR


def test_stimulus_at_unknown_actor_dangles():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    model.stimuli[0] = replaced(model.stimuli[0], at="nobody")
    diags = validate_value_model(model)
    assert codes(diags) == ["E-DANGLE"]
    assert "'nobody'" in diags[0].message and diags[0].severity is Severity.ERROR


def test_flow_with_unknown_endpoints_dangles():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    model.flows[0] = replaced(model.flows[0], source="ghost",
                                         target="Camera Platform.Govern API")
    diags = [d for d in validate_value_model(model) if d.code == "E-DANGLE"]
    assert [d.message for d in diags] == [
        "flow 'f1' references unknown endpoint 'Camera Platform.Govern API'",
        "flow 'f1' references unknown endpoint 'ghost'"]


def test_dangling_parent_actor_dangles():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    model.actors[0] = replaced(model.actors[0], parent="Ghost")
    diags = validate_value_model(model)
    assert codes(diags) == ["E-DANGLE"]
    assert "'Ghost'" in diags[0].message and diags[0].span == model.actors[0].span


def test_partnership_cycle_is_an_error():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    first, second = model.actors[:2]
    model.actors[:2] = [replaced(first, parent=second.id),
                        replaced(second, parent=first.id)]
    diags = [d for d in validate_value_model(model) if d.severity is Severity.ERROR]
    assert codes(diags) == ["E-CYCLE", "E-CYCLE"]
    assert {d.message for d in diags} == {f"partnership cycle through {first.id!r}",
                                          f"partnership cycle through {second.id!r}"}


def test_part_of_link_to_unknown_actor_dangles():
    model = gm("goalmodel M { actor A { goal G } actor B  partof A -> B }")
    model.associations[0] = replaced(model.associations[0], target="Ghost")
    diags = [d for d in validate_goal_model(model) if d.severity is Severity.ERROR]
    assert codes(diags) == ["E-DANGLE"]
    assert "'Ghost'" in diags[0].message


def test_unknown_actor_named_at_both_ends_dangles_once():
    model = gm("goalmodel M { actor A { task a }  actor B { task b }  "
               "depend A.a -> B.b : resource R  partof A -> B }")
    dep = model.dependencies[0]
    dep.depender, dep.dependee = DependencyEnd("X", "a"), DependencyEnd("X", "b")
    model.associations[0] = replaced(model.associations[0], source="Y", target="Y")
    diags = [d for d in validate_goal_model(model) if d.severity is Severity.ERROR]
    assert [d.render() for d in diags] == [
        "<input>:1:55: error E-DANGLE dependency 'd1' references unknown actor 'X'",
        "<input>:1:87: error E-DANGLE part-of link 'Y' -> 'Y' names unknown actor 'Y'"]


def test_refinement_child_of_another_actor_dangles():
    model = GoalModel("m", actors=[
        GActor("A", "A", elements=[GElement(
            "G", ElementKind.GOAL, "G",
            refinement=Refinement(RefinementKind.AND, ("T",)))]),
        GActor("B", "B", elements=[GElement("T", ElementKind.TASK, "T")])])
    diags = validate_goal_model(model)
    assert codes(diags) == ["E-DANGLE"]
    assert "'T'" in diags[0].message and "its actor" in diags[0].message


def test_repeated_id_in_another_actor_is_a_duplicate():
    model = GoalModel("m", actors=[
        GActor("A", "A", elements=[GElement("G", ElementKind.GOAL, "G")]),
        GActor("B", "B", elements=[GElement("G", ElementKind.TASK, "G")])])
    diags = [d for d in validate_goal_model(model) if d.severity is Severity.ERROR]
    assert [(d.code, d.message) for d in diags] == [("E-DUP", "duplicate identifier 'G'")]
    assert "E-DUP" in codes(parse_model(print_model(model)).diagnostics)


def _repeated(declared: list) -> list:
    """The declarations whose id an earlier one of `declared` holds."""
    return [x for i, x in enumerate(declared) if any(y.id == x.id for y in declared[:i])]


def _goal_duplicates_by_definition(model: GoalModel) -> list:
    """The repeats of a goal model's two namespaces, read off their
    definition: actors then elements, and elements then dependencies."""
    elements = [el for a in model.actors for el in a.elements]
    return (_repeated(model.actors + elements)
            + [d for d in _repeated(elements + model.dependencies)
               if isinstance(d, Dependency)])


def _value_duplicates_by_definition(model: ValueModel) -> list:
    """The repeats of a value model's one namespace, read off its
    definition: the actors and their activities interleaved, then the
    stimuli."""
    return _repeated([x for a in model.actors for x in (a, *a.activities)] + model.stimuli)


def _last_wins(pairs: list) -> dict:
    """Each key of `pairs` with the value of the last pair that has it, by a
    scan for that pair."""
    return {key: next(v for k, v in reversed(pairs) if k == key) for key, _ in pairs}


def _assert_names_scan(model, found, members_of) -> None:
    """`found`'s actor, member, node and owner maps are the last-wins scans
    of `model`'s declarations; `members_of` reads an actor's members."""
    def same(got: dict, want: dict) -> bool:
        return got.keys() == want.keys() and all(got[k] is want[k] for k in want)

    members = [(m, a) for a in model.actors for m in members_of(a)]
    assert same(found.actors, _last_wins([(a.id, a) for a in model.actors]))
    assert found.members.keys() == {id(a) for a in model.actors}
    assert all(same(found.members[id(a)], _last_wins([(m.id, m) for m in members_of(a)]))
               for a in model.actors)
    assert same(found.nodes, _last_wins([(m.id, m) for m, _ in members]))
    assert found.owner == _last_wins([(m.id, a.id) for m, a in members])


def _assert_same_objects(got: list, want: list) -> None:
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_goal_model_duplicates_are_the_repeats_of_each_namespace(data):
    ids = st.lists(st.sampled_from("abcd"), max_size=4)
    model = GoalModel("m", actors=[
        GActor(a, a, elements=[GElement(e, ElementKind.TASK, e) for e in data.draw(ids)])
        for a in data.draw(ids)], dependencies=[
        Dependency(d, DependencyEnd("a"), Dependum(ElementKind.GOAL, d), DependencyEnd("b"))
        for d in data.draw(ids)])
    found = names(model)
    _assert_same_objects(found.repeats, _goal_duplicates_by_definition(model))
    _assert_names_scan(model, found, lambda actor: actor.elements)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_value_model_duplicates_are_the_repeats_of_its_namespace(data):
    ids = st.lists(st.sampled_from("abcd"), max_size=4)
    model = ValueModel("m", actors=[
        VActor(a, a, activities=[Activity(x, x) for x in data.draw(ids)])
        for a in data.draw(ids)], stimuli=[Stimulus(s, s, "a") for s in data.draw(ids)])
    found = names(model)
    _assert_same_objects(found.repeats, _value_duplicates_by_definition(model))
    _assert_names_scan(model, found, lambda actor: actor.activities)


@pytest.mark.parametrize("call, suffix", [
    (validate_value_model, ".vm"), (parse_value_model, ".vm"), (export_dot, ".vm"),
    (validate_goal_model, ".gm"), (parse_goal_model, ".gm"), (export_dot, ".gm")],
    ids=lambda x: getattr(x, "__name__", x))
def test_a_call_builds_the_names_index_once(monkeypatch, call, suffix):
    calls = []

    def counted(model):
        calls.append(model)
        return names(model)

    patched = set()
    for info in pkgutil.walk_packages(apimod.__path__, "apimod."):
        module = importlib.import_module(info.name)
        if getattr(module, "names", None) is names:
            monkeypatch.setattr(module, "names", counted)
            patched.add(info.name)
    assert {"apimod.validate", "apimod.dsl.parser", "apimod.report"} <= patched
    paths = sorted(CORPUS.glob("*" + suffix))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        model = (vm if suffix == ".vm" else gm)(text)
        calls.clear()
        call(text if call in (parse_value_model, parse_goal_model) else model)
        assert len(calls) == 1, path.name


def test_activity_named_like_an_actor_is_a_duplicate():
    model = vm((CORPUS / "device_api.vm").read_text(encoding="utf-8"))
    first, second = model.actors[:2]
    second.activities.append(Activity(first.id, first.id))
    diags = [d for d in validate_value_model(model) if d.severity is Severity.ERROR]
    assert [(d.code, d.message) for d in diags] == [
        ("E-DUP", f"duplicate identifier {first.id!r}")]


# ---------------------------------------------------------------------------
# Validation and the parser agree on which references resolve
# ---------------------------------------------------------------------------

GHOST = "no such id"


def _break_goal_reference(model, rng):
    """Break one reference of a generated goal model in place; False if it
    has none of the chosen kind."""
    elements = [(a, el) for a in model.actors for el in a.elements]
    kind = rng.choice(["child", "contribution", "dependency", "partof"])
    if kind == "child":
        refined = [(a, el) for a, el in elements if el.refinement is not None]
        if not refined:
            return False
        actor, el = rng.choice(refined)
        # A ghost, or an element of another actor: both leave the actor.
        others = [o.id for a, o in elements if a is not actor] + [GHOST]
        children = list(el.refinement.children)
        children[rng.randrange(len(children))] = rng.choice(others)
        el.refinement = Refinement(el.refinement.kind, tuple(children))
    elif kind == "contribution":
        sources = [el for _, el in elements if el.contributions]
        if not sources:
            return False
        el = rng.choice(sources)
        i = rng.randrange(len(el.contributions))
        el.contributions[i] = Contribution(GHOST, el.contributions[i].strength)
    elif kind == "dependency":
        if not model.dependencies:
            return False
        dep = rng.choice(model.dependencies)
        side = rng.choice(["depender", "dependee"])
        end = getattr(dep, side)
        open_actor = any(a.id == end.actor and a.elements for a in model.actors)
        broken = (DependencyEnd(end.actor, GHOST) if open_actor and rng.random() < 0.5
                  else DependencyEnd(GHOST, end.element))
        setattr(dep, side, broken)
    else:
        ends = [rng.choice(model.actors).id, GHOST]
        rng.shuffle(ends)
        model.associations.append(AssociationLink(AssociationKind.PART_OF, *ends))
    return True


def _break_value_reference(model, rng):
    """Break one reference of a generated value model in place; False if it
    has none of the chosen kind."""
    kind = rng.choice(["flow", "stimulus", "parent", "cycle"])
    if kind == "flow":
        if not model.flows:
            return False
        setattr(rng.choice(model.flows), rng.choice(["source", "target"]), GHOST)
    elif kind == "stimulus":
        if not model.stimuli:
            return False
        rng.choice(model.stimuli).at = GHOST
    elif kind == "parent":
        rng.choice(model.actors).parent = GHOST
    else:
        first, second = rng.choice(model.actors), rng.choice(model.actors)
        first.parent, second.parent = second.id, first.id
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), goal=st.booleans(), broken=st.booleans())
def test_validation_flags_a_reference_exactly_when_the_printed_model_fails_to_link(
        seed, goal, broken):
    rng = random.Random(seed)
    if goal:
        model, validate = gen_goal_model(rng, max_elements=10), validate_goal_model
        reference_codes = {"E-DANGLE"}  # E-CYCLE here is a refinement cycle
    else:
        model, validate = gen_value_model(rng, max_elements=12), validate_value_model
        reference_codes = {"E-DANGLE", "E-CYCLE"}
    if broken:
        breaker = _break_goal_reference if goal else _break_value_reference
        broken = breaker(model, rng)
    flagged = any(d.code in reference_codes for d in validate(model))
    reparsed = parse_model(print_model(model))
    unlinked = any(d.code in ("E-REF", "E-CYCLE") for d in reparsed.diagnostics)
    assert flagged == unlinked
    assert flagged == broken


def _break_goal_link(model, rng):
    """Break one link rule of a generated goal model in place; False if it
    has nothing the chosen break applies to."""
    elements = [el for a in model.actors for el in a.elements]
    kind = rng.choice(["contribution", "self", "child", "refined", "dependency"])
    if kind == "contribution":
        sources = [el for el in elements if el.contributions]
        targets = [el.id for el in elements if el.kind is not ElementKind.QUALITY]
        if not sources or not targets:
            return False
        el = rng.choice(sources)
        i = rng.randrange(len(el.contributions))
        el.contributions[i] = Contribution(rng.choice(targets), el.contributions[i].strength)
    elif kind == "self":  # on a quality, which no typing rule refuses
        qualities = [el for el in elements if el.kind is ElementKind.QUALITY]
        if not qualities:
            return False
        el = rng.choice(qualities)
        el.contributions.append(Contribution(el.id, rng.choice(list(ContributionStrength))))
    elif kind in ("child", "refined"):
        refined = [el for el in elements if el.refinement is not None]
        if not refined:
            return False
        el = rng.choice(refined)
        if kind == "child":
            child = rng.choice(el.refinement.children)
            el = next(c for c in elements if c.id == child)
        el.kind = ElementKind.QUALITY
    else:
        if not model.dependencies:
            return False
        dep = rng.choice(model.dependencies)
        dep.dependee = dep.depender
    return True


def _break_value_link(model, rng):
    """Point a flow of a generated value model back at its source; False if
    it has no flow."""
    if not model.flows:
        return False
    flow = rng.choice(model.flows)
    flow.target = flow.source
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), goal=st.booleans(), broken=st.booleans())
def test_validation_flags_a_link_rule_exactly_when_the_printed_model_fails_to_parse(
        seed, goal, broken):
    rng = random.Random(seed)
    if goal:
        model, validate = gen_goal_model(rng, max_elements=10), validate_goal_model
    else:
        model, validate = gen_value_model(rng, max_elements=12), validate_value_model
    if broken:
        broken = (_break_goal_link if goal else _break_value_link)(model, rng)
    link_codes = {"E-CONTRIB", "E-REFINE", "E-SELF"}
    flagged = any(d.code in link_codes for d in validate(model))
    reparsed = parse_model(print_model(model))
    assert flagged == any(d.code in link_codes for d in reparsed.diagnostics)
    assert flagged == broken


def test_cycle_detection_matches_dfs_oracle_on_random_graphs():
    def has_cycle_dfs(n, edges):
        adjacency = {i: [] for i in range(n)}
        for a, b in edges:
            adjacency[a].append(b)
        state = {i: 0 for i in range(n)}  # 0 new, 1 active, 2 done

        def visit(v):
            state[v] = 1
            for w in adjacency[v]:
                if state[w] == 1 or (state[w] == 0 and visit(w)):
                    return True
            state[v] = 2
            return False

        return any(state[i] == 0 and visit(i) for i in range(n))

    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 20)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.add((a, b))
        # refinement graph: one parent may have one refinement (children set)
        children_of = {}
        for a, b in sorted(edges):
            children_of.setdefault(a, []).append(b)
        model = GoalModel("m", actors=[GActor("A", "A")])
        for i in range(n):
            refinement = None
            if i in children_of:
                refinement = Refinement(RefinementKind.AND,
                                        tuple(f"e{c}" for c in children_of[i]))
            model.actors[0].elements.append(
                GElement(f"e{i}", ElementKind.TASK, f"e{i}", refinement=refinement))
        engine = any(d.code == "E-CYCLE" for d in validate_goal_model(model))
        assert engine == has_cycle_dfs(n, edges)


# ---------------------------------------------------------------------------
# Cycles: one search for partnerships and refinements
# ---------------------------------------------------------------------------

def _closure(graph):
    """Brute force: for each node, every node reachable from it by one or
    more edges."""
    reach = {}
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(graph.get(node, ()))
        reach[start] = seen
    return reach


def _oracle_cycles(graph):
    """The groups of mutually reachable nodes that reach themselves, as
    sorted id lists in sorted order."""
    reach = _closure(graph)
    groups = {frozenset(w for w in reach[v] if v in reach.get(w, ()))
              for v in graph if v in reach[v]}
    return sorted(sorted(group) for group in groups)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cycles_match_a_transitive_closure_of_the_last_declarations(seed):
    rng = random.Random(seed)
    ids = [f"n{i}" for i in range(rng.randint(1, 6))]
    targets = ids + ["ghost"]  # an unknown successor lies on no cycle

    # Refinements: repeated ids, self-loops and unknown children; each id's
    # last declaration gives its edges.
    goal = GoalModel("m", actors=[GActor(a, a) for a in ("A", "B")])
    for _ in range(rng.randint(1, 9)):
        children = tuple(rng.choices(targets, k=rng.randint(0, 3)))
        refinement = Refinement(RefinementKind.AND, children) if children else None
        rng.choice(goal.actors).elements.append(GElement(
            rng.choice(ids), ElementKind.TASK, "x", refinement=refinement))
    graph = {el.id: el.refinement.children if el.refinement else ()
             for actor in goal.actors for el in actor.elements}
    assert [d.message for d in validate_goal_model(goal) if d.code == "E-CYCLE"] == [
        "refinement cycle through " + ", ".join(map(repr, group))
        for group in _oracle_cycles(graph)]

    # Partnerships: the same, with at most one parent per declaration.
    value = ValueModel("m", actors=[
        VActor(rng.choice(ids), "x", parent=rng.choice(targets + [None]))
        for _ in range(rng.randint(1, 9))])
    reach = _closure({a.id: () if a.parent is None else (a.parent,) for a in value.actors})
    expected = [a for a in value.actors if a.id in reach[a.id]]
    assert [owner for kind, _, owner in reference_problems(value, names(value))
            if kind == "cycle"] == expected
    assert sorted(d.message for d in validate_value_model(value) if d.code == "E-CYCLE") == \
        sorted(f"partnership cycle through {a.id!r}" for a in expected)


def test_a_repeated_actor_takes_its_partnership_from_the_last_declaration():
    text = "valuemodel M { actor A in B  actor B in A  actor A }"
    assert codes(parse_value_model(text).diagnostics) == ["E-DUP"]
    model = ValueModel("M", actors=[VActor("A", "A", parent="B"), VActor("B", "B", parent="A"),
                                    VActor("A", "A", api_role=True)])
    errors = [d for d in validate_value_model(model) if d.severity is Severity.ERROR]
    assert codes(errors) == ["E-DUP"]


def test_cycle_search_is_linear_on_a_16000_long_chain():
    n = 16_000
    value = ValueModel("M", actors=[VActor(f"a{i}", f"a{i}", parent=f"a{i + 1}")
                                    for i in range(n - 1)] + [VActor(f"a{n - 1}", "last")])
    goal = GoalModel("G", actors=[GActor("A", "A", elements=[
        GElement(f"e{i}", ElementKind.GOAL, f"e{i}",
                 refinement=Refinement(RefinementKind.AND, (f"e{i + 1}",)))
        for i in range(n - 1)] + [GElement(f"e{n - 1}", ElementKind.TASK, "last")])])
    for validate, model in ((validate_value_model, value), (validate_goal_model, goal)):
        start = time.perf_counter()
        diags = validate(model)
        assert time.perf_counter() - start < 2.0, validate.__name__
        assert "E-CYCLE" not in codes(diags)


# ---------------------------------------------------------------------------
# Coverage checks
# ---------------------------------------------------------------------------

GOLDEN = {
    "device_api_layers.gm": "Device API",
    "cloud_api_layers.gm": "Cloud API",
    "product_api_layers.gm": "Product API",
    "technology_api_layers.gm": "Technology API",
    "service_api_layers.gm": "Service API",
}


@pytest.mark.parametrize("filename,focus", sorted(GOLDEN.items()))
def test_golden_layer_models_have_full_coverage(filename, focus):
    model = gm((CORPUS / filename).read_text(encoding="utf-8"))
    assert validate_goal_model(model) == []
    assert check_layer_coverage(model, focus) == []


def test_missing_api_layer_is_reported():
    model = gm("""
        goalmodel M {
          actor D { layer(F) = domain }
          actor U { layer(F) = usage }
          actor S { layer(F) = asset }
        }""")
    diags = check_layer_coverage(model, "F")
    assert codes(diags) == ["W-LAYER-MISSING"]
    assert "api" in diags[0].message


def test_empty_model_misses_all_four_layers():
    model = gm("goalmodel M { }")
    diags = check_layer_coverage(model, "F")
    assert codes(diags) == ["W-LAYER-MISSING"] * 4


def test_unassigned_actor_is_reported():
    model = gm("""
        goalmodel M {
          actor D { layer(F) = domain }
          actor Other
        }""")
    diags = check_layer_coverage(model, "F")
    assert "W-UNASSIGNED" in codes(diags)


def test_bapo_coverage():
    only_b = gm("goalmodel M { actor A { bapo = B } }")
    diags = check_bapo_coverage(only_b)
    assert codes(diags) == ["I-BAPO"] * 3
    assert all(d.severity is Severity.INFO for d in diags)

    all_four = gm("goalmodel M { actor A { bapo = B, A, P, O } }")
    assert check_bapo_coverage(all_four) == []

    untagged = gm("goalmodel M { actor A }")
    assert codes(check_bapo_coverage(untagged)) == ["I-BAPO"] * 4


def test_diagnostics_are_sorted_deterministically():
    model = gm("""
        goalmodel M {
          actor A { task T }
          actor B { task U }
        }""")
    d1 = validate_goal_model(model)
    d2 = validate_goal_model(model)
    assert d1 == d2
    spans = [(d.span.start_line, d.span.start_col) for d in d1]
    assert spans == sorted(spans)


# ---------------------------------------------------------------------------
# The analyses' precondition: every error of the validator, in report order
# ---------------------------------------------------------------------------

def _model_with_several_errors() -> GoalModel:
    """A repeated id, dangling references, a refinement cycle, link typing
    and a self-dependency."""
    t = GElement("T", ElementKind.TASK, "T", refinement=Refinement(RefinementKind.OR, ("G",)),
                 contributions=[Contribution("T", ContributionStrength.HELPS),
                                Contribution("G", ContributionStrength.MAKES)])
    return GoalModel("broken", actors=[
        GActor("A", "A", elements=[
            GElement("G", ElementKind.GOAL, "G",
                     refinement=Refinement(RefinementKind.AND, ("T", "X"))),
            t,
            GElement("Q", ElementKind.QUALITY, "Q",
                     refinement=Refinement(RefinementKind.AND, ("T",))),
            GElement("F", ElementKind.TASK, "F"),
            GElement("C1", ElementKind.GOAL, "C1",
                     refinement=Refinement(RefinementKind.AND, ("C2",))),
            GElement("C2", ElementKind.GOAL, "C2",
                     refinement=Refinement(RefinementKind.OR, ("C1",)))]),
        GActor("B", "B", elements=[GElement("T", ElementKind.GOAL, "T")])],
        dependencies=[
            Dependency("d1", DependencyEnd("A"), Dependum(ElementKind.RESOURCE, "r"),
                       DependencyEnd("A")),
            Dependency("d2", DependencyEnd("C"), Dependum(ElementKind.GOAL, "s"),
                       DependencyEnd("B", "Z"))])


def test_preconditions_name_every_error_in_report_order():
    with pytest.raises(ApimodError) as refused:
        compile_rules(_model_with_several_errors())
    assert str(refused.value) == (
        "model does not validate: contribution target 'G' is a goal; contributions "
        "target qualities only; refinement cycle through 'C1', 'C2'; dependency 'd2' "
        "references unknown actor 'C'; dependency 'd2' references unknown element 'Z' "
        "in actor 'B'; refinement of 'G' names 'X', which is no element of its actor; "
        "duplicate identifier 'T'; quality 'Q' cannot be refined; use contribution "
        "links; contribution must connect two distinct elements; dependency must "
        "connect two distinct ends")
    model = ValueModel("broken", actors=[
        VActor("A", "A", activities=[Activity("x", "x")]),
        VActor("B", "B", parent="C"), VActor("x", "x")],
        flows=[ValueFlow("f1", "A", "A"), ValueFlow("f2", "A", "nowhere")],
        stimuli=[Stimulus("s", "s", "ghost")])
    with pytest.raises(ApimodError) as refused:
        transform_value_to_goal(model)
    assert str(refused.value) == (
        "value model does not validate: actor 'B' is part of unknown actor 'C'; flow "
        "'f2' references unknown endpoint 'nowhere'; stimulus 's' is placed at unknown "
        "actor 'ghost'; duplicate identifier 'x'; no actor is marked as the API; add "
        "an `api` marker; value flow must connect two distinct endpoints")
