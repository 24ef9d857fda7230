"""Seeded model generators for the benchmark workloads.

The adversarial goal-model shapes (cross-actor AND-chains, wide OR fans,
cross-actor dependency cycles, contribution meshes) are built here together
with the labels their construction implies, so the harness can check the
engine without trusting it. Random value and goal models with quoted,
keyword-clashing and Unicode names come from ``tests/helpers.py``, which is
imported, never edited.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from apimod.core import (
    Contribution, ContributionStrength, Dependency, DependencyEnd, Dependum,
    ElementKind, GActor, GElement, GoalModel, Label, Refinement,
    RefinementKind, ValueModel,
)
from apimod.evaluate import Scenario
from apimod.transform import transform_value_to_goal

from helpers import gen_goal_model, gen_name, gen_scenario, gen_value_model
from spans import model_nodes

#: Labels a scenario may assign, in the engine's order.
ORDER = [Label.DENIED, Label.PARTIALLY_DENIED, Label.UNKNOWN,
         Label.PARTIALLY_SATISFIED, Label.SATISFIED]
_RANK = {label: i for i, label in enumerate(ORDER)}
#: Leaf labels of the k = 4 compared scenarios: every one propagates the
#: whole depth of a chain or cycle, so no scenario is a cheap no-op.
PROPAGATING = [Label.SATISFIED, Label.PARTIALLY_SATISFIED,
               Label.PARTIALLY_DENIED, Label.DENIED]


@dataclass
class DeepCase:
    """One deep-eval input: a goal model, four scenarios, and the labels
    known for some nodes under each scenario (``None`` where the oracle
    decides, or where only cross-checks apply)."""

    shape: str
    model: GoalModel
    scenarios: list[Scenario]
    expected: list[dict[str, Label] | None]
    depth: int = 0
    nodes: int = 0
    edges: int = 0


def model_edges(model) -> int:
    """Refinement children, contributions and dependencies (value models:
    flows and stimulus owners)."""
    if isinstance(model, GoalModel):
        edges = len(model.dependencies)
        for actor in model.actors:
            for el in actor.elements:
                edges += len(el.contributions)
                if el.refinement is not None:
                    edges += len(el.refinement.children)
        return edges
    if isinstance(model, ValueModel):
        return len(model.flows) + len(model.stimuli)
    return 0


class _Namer:
    """Unique names in the helpers' adversarial styles (quotes, spaces,
    keywords, Unicode), one counter per prefix."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counts: dict[str, int] = {}

    def __call__(self, prefix: str) -> str:
        i = self.counts.get(prefix, 0)
        self.counts[prefix] = i + 1
        return gen_name(self.rng, prefix, i)


def _finish(case: DeepCase) -> DeepCase:
    case.nodes = model_nodes(case.model)
    case.edges = model_edges(case.model)
    return case


def _actors(model: GoalModel, name: _Namer, count: int) -> list[GActor]:
    for _ in range(count):
        nm = name("A")
        model.actors.append(GActor(id=nm, name=nm))
    return model.actors


def _add(actor: GActor, kind: ElementKind, nm: str) -> GElement:
    el = GElement(id=nm, kind=kind, name=nm)
    actor.elements.append(el)
    return el


def _depend(model: GoalModel, name: _Namer, depender: tuple[GActor, GElement],
            dependee: tuple[GActor, GElement]) -> str:
    dep_id = f"d{len(model.dependencies) + 1}"  # the parser's numbering
    model.dependencies.append(Dependency(
        id=dep_id,
        depender=DependencyEnd(depender[0].id, depender[1].id),
        dependum=Dependum(ElementKind.RESOURCE, name("dum")),
        dependee=DependencyEnd(dependee[0].id, dependee[1].id)))
    return dep_id


def chain_case(rng: random.Random, length: int) -> DeepCase:
    """An AND-chain of `length` nodes hopping between actors.

    Walking from the root, each chain element AND-refines into the next one
    and its actor's `base` task, or, on a hop, AND-refines into `base` and
    depends on the next element in another actor through a dependum. The
    leaf is assigned X and every base satisfied, so every chain node and
    dependum must end at X: min(X, satisfied) = X.
    """
    name = _Namer(rng)
    model = GoalModel(name("chain"))
    actors = _actors(model, name, rng.randint(3, 6))
    bases = {a.id: _add(a, ElementKind.TASK, name("base")) for a in actors}
    chain: list[str] = []
    actor = actors[0]
    el = _add(actor, ElementKind.GOAL, name("c"))
    chain.append(el.id)
    while len(chain) < length:
        if rng.random() < 0.3 and len(chain) < length - 1:
            other = rng.choice([a for a in actors if a is not actor])
            nxt = _add(other, rng.choice([ElementKind.GOAL, ElementKind.TASK]),
                       name("c"))
            el.refinement = Refinement(RefinementKind.AND, (bases[actor.id].id,))
            chain.append(_depend(model, name, (actor, el), (other, nxt)))
            actor = other
        else:
            nxt = _add(actor, rng.choice([ElementKind.GOAL, ElementKind.TASK]),
                       name("c"))
            el.refinement = Refinement(RefinementKind.AND,
                                       (nxt.id, bases[actor.id].id))
        chain.append(nxt.id)
        el = nxt
    leaf = el.id
    scenarios, expected = [], []
    for i, label in enumerate(PROPAGATING):
        assignments = {b.id: Label.SATISFIED for b in bases.values()}
        assignments[leaf] = label
        scenarios.append(Scenario(f"leaf_{i}", assignments))
        expected.append({node: label for node in chain})
    return _finish(DeepCase("chain", model, scenarios, expected,
                            depth=len(chain)))


def fan_case(rng: random.Random, width: int) -> DeepCase:
    """Wide two-level OR fans, one per actor: root OR mids, mid OR leaves.

    Leaves get random labels (some stay unknown), so each mid is the max of
    its leaves and each root the max of its mids, in the order
    denied < partden < unknown < partsat < satisfied.
    """
    name = _Namer(rng)
    model = GoalModel(name("fan"))
    actors = _actors(model, name, rng.randint(2, 4))
    fans = []  # (root id, [(mid id, [leaf ids])])
    per_actor = max(2, width // len(actors))
    for actor in actors:
        root = _add(actor, ElementKind.GOAL, name("root"))
        mids = []
        n_mids = max(2, int(per_actor ** 0.5))
        for _ in range(n_mids):
            mid = _add(actor, ElementKind.GOAL, name("mid"))
            leaves = [_add(actor, rng.choice([ElementKind.TASK, ElementKind.RESOURCE]),
                           name("leaf")).id
                      for _ in range(max(2, per_actor // n_mids))]
            mid.refinement = Refinement(RefinementKind.OR, tuple(leaves))
            mids.append((mid.id, leaves))
        root.refinement = Refinement(RefinementKind.OR, tuple(m for m, _ in mids))
        fans.append((root.id, mids))
    all_leaves = [leaf for _, mids in fans for _, leaves in mids for leaf in leaves]
    scenarios, expected = [], []
    for i in range(4):
        assignments = {leaf: rng.choice(ORDER) for leaf in all_leaves
                       if rng.random() < 0.6}
        labels: dict[str, Label] = {}
        for root, mids in fans:
            for mid, leaves in mids:
                labels[mid] = max((assignments.get(leaf, Label.UNKNOWN)
                                   for leaf in leaves), key=_RANK.__getitem__)
            labels[root] = max((labels[m] for m, _ in mids), key=_RANK.__getitem__)
        scenarios.append(Scenario(f"fan_{i}", assignments))
        expected.append(labels)
    return _finish(DeepCase("fan", model, scenarios, expected, depth=2))


def cycle_case(rng: random.Random, ring: int) -> DeepCase:
    """A dependency cycle through `ring` actors.

    Each actor's goal AND-refines into its satisfied base task and depends
    on the next actor's goal, the last one on the first. One goal is
    assigned X; evidence runs around the ring, so every other goal and
    every dependum must end at X.
    """
    name = _Namer(rng)
    model = GoalModel(name("ring"))
    actors = _actors(model, name, ring)
    goals, bases = [], []
    for actor in actors:
        goal = _add(actor, ElementKind.GOAL, name("g"))
        base = _add(actor, ElementKind.TASK, name("base"))
        goal.refinement = Refinement(RefinementKind.AND, (base.id,))
        goals.append(goal)
        bases.append(base)
    deps = [_depend(model, name, (actors[i], goals[i]),
                    (actors[(i + 1) % ring], goals[(i + 1) % ring]))
            for i in range(ring)]
    scenarios, expected = [], []
    for i, label in enumerate(PROPAGATING):
        start = rng.randrange(ring)
        assignments = {b.id: Label.SATISFIED for b in bases}
        assignments[goals[start].id] = label
        scenarios.append(Scenario(f"ring_{i}", assignments))
        expected.append({node: label for node in [g.id for g in goals] + deps})
    return _finish(DeepCase("cycle", model, scenarios, expected, depth=2 * ring))


def mesh_case(rng: random.Random, size: int) -> DeepCase:
    """Layered contribution meshes into qualities, spread over actors.

    Layer 0 holds tasks with random labels; each quality in a later layer
    receives 2-4 contributions of random strength from the layer below, in
    any actor. A few tasks also depend on a quality of another actor. There
    is no closed-form answer: a seeded sample of these is checked against
    the independent oracle in ``tests/helpers.py``.
    """
    name = _Namer(rng)
    model = GoalModel(name("mesh"))
    actors = _actors(model, name, rng.randint(2, 4))
    n_layers = 4
    per_layer = max(3, size // n_layers)
    layers: list[list[tuple[GActor, GElement]]] = []
    for depth in range(n_layers):
        kind = ElementKind.TASK if depth == 0 else ElementKind.QUALITY
        row = []
        for _ in range(per_layer):
            actor = rng.choice(actors)
            row.append((actor, _add(actor, kind, name("t" if depth == 0 else "q"))))
        layers.append(row)
    strengths = list(ContributionStrength)
    for below, row in zip(layers, layers[1:]):
        for _, quality in row:
            for _, src in rng.sample(below, rng.randint(2, min(4, len(below)))):
                src.contributions.append(Contribution(quality.id, rng.choice(strengths)))
    tasks = layers[0]
    for actor, task in rng.sample(tasks, max(1, len(tasks) // 8)):
        others = [(a, q) for a, q in layers[-1] if a is not actor]
        if others:
            _depend(model, name, (actor, task), rng.choice(others))
    scenarios = []
    for i in range(4):
        scenarios.append(Scenario(f"mesh_{i}", {
            task.id: rng.choice(ORDER) for _, task in tasks if rng.random() < 0.7}))
    return _finish(DeepCase("mesh", model, scenarios, [None] * 4,
                            depth=n_layers))


@dataclass
class IngestCase:
    """One wide-ingest input: a random goal or value model and a scenario
    for the goal model the pipeline evaluates (the transformed one for
    value models)."""

    kind: str  # "gm" or "vm"
    model: object
    scenario: Scenario
    focus: str
    nodes: int = 0
    edges: int = 0


def ingest_case(rng: random.Random, kind: str, lo: int, hi: int) -> IngestCase:
    """A helpers-generated model with `lo`..`hi` elements (rejection
    sampling keeps the helpers' own shape distribution)."""
    while True:
        if kind == "gm":
            model = gen_goal_model(rng, max_elements=hi, max_links=hi)
            size = sum(len(a.elements) for a in model.actors)
        else:
            model = gen_value_model(rng, max_elements=2 * hi)
            size = len(model.actors) + sum(len(a.activities) for a in model.actors)
        if lo <= size <= hi:
            break
    goal = model if kind == "gm" else transform_value_to_goal(model)[0]
    focuses = sorted({f for a in model.actors for f in a.layer_assignments})
    focus = focuses[0] if focuses else "focus"
    return IngestCase(kind, model, gen_scenario(rng, goal), focus,
                      model_nodes(model), model_edges(model))
