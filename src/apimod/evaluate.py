"""Qualitative label propagation over goal models and metric hierarchies.

The engine works in evidence space: every node (element or dependum) holds an
evidence pair, the positive and negative evidence of
:class:`~apimod.core.EvidencePair` packed into a 4-bit code, and a pair only
ever gains evidence, so the fixpoint exists and is reached quickly even when
actors depend on each other in cycles. Labels are projections of the pairs.

Rules applied until quiescence:

* refinement: a parent receives the min (AND) or max (OR) of its children's
  labels; if the parent is also a depender, the incoming dependum labels join
  that combination as further AND-style inputs;
* dependency: a dependum receives its dependee element's label unchanged;
* contribution: a quality accumulates evidence scaled by the link strength.

The contribution rules are the symmetric closure of the usual
satisfied-source rules: a denied source delivers inverted evidence through
hurts/breaks links. Reports flag this rule set as "symmetric-closure".

Human assignments always win: an assigned node keeps its label, and if the
rules would have produced something else the node is listed as overridden.

Evaluation runs in Jacobi rounds: each round applies the rules to the labels
left by the round before and merges the delivered evidence into the pairs.
Round 0 evaluates every node that has an input. A delivery depends only on
its sources' labels, so each later round evaluates only the readers of nodes
whose label changed in the round before; any other delivery would repeat
evidence already merged.
`iterations` counts the rounds in which at least one pair changed. A pair can
gain evidence at most four times, so that count stays within 4 x nodes, which
is checked at run time.
"""

from itertools import compress

from .core import (
    ApimodError, ContributionStrength, Diagnostic, ElementKind, Evidence,
    EvidencePair, GoalModel, Label, RefinementKind, Scenario, Severity, TupleRecord,
    evidence_to_label, label_to_evidence, sort_diagnostics, tuple_new,
)
from .validate import refuse_errors, validate_goal_model

RULE_SET = "symmetric-closure"

# Enum members read once: each class attribute access costs a lookup.
_AND = RefinementKind.AND
_GOAL, _QUALITY = ElementKind.GOAL, ElementKind.QUALITY
_SATISFIED, _PARTIALLY_SATISFIED = Label.SATISFIED, Label.PARTIALLY_SATISFIED
_CONFLICT_LABEL = Label.CONFLICT


class EvaluationResult(TupleRecord):
    __slots__ = ()
    labels: dict[str, Label]
    overridden: set[str]
    iterations: int
    diagnostics: list[Diagnostic]
    scenario: str

    def __new__(cls, labels, overridden, iterations, diagnostics, scenario=""):
        return tuple_new(cls, (labels, overridden, iterations, diagnostics, scenario))


def evaluation_nodes(model: GoalModel) -> list[str]:
    """All label-carrying nodes in deterministic order: elements, then
    dependums (addressed by their dependency id)."""
    ids = [e.id for a in model.actors for e in a.elements]
    ids.extend(d.id for d in model.dependencies)
    return ids


def _targets(model: GoalModel, index: dict) -> dict:
    """Scenario target -> node key, `index` mapping node ids to keys. A
    dependum name counts where no node id takes it; a name that several
    dependums share maps to the list of their ids."""
    named: dict[str, list[str]] = {}
    for d in model.dependencies:
        named.setdefault(d.dependum.name, []).append(d.id)
    targets = {name: ids if len(ids) > 1 else index[ids[0]]
               for name, ids in named.items()}
    targets.update(index)
    return targets


def _resolve(scenario: Scenario, targets: dict) -> dict:
    """Scenario assignments keyed by node key, through a `_targets` map."""
    resolved = {}
    for target, label in scenario.assignments.items():
        if label is _CONFLICT_LABEL:
            raise ApimodError(
                f"scenario {scenario.name!r} assigns conflict to {target!r}; "
                "conflict cannot be an initial label")
        node = targets.get(target)
        if node is None:
            raise ApimodError(
                f"scenario {scenario.name!r} labels unknown node {target!r}")
        if type(node) is list:
            raise ApimodError(
                f"scenario {scenario.name!r}: dependum name {target!r} is "
                f"ambiguous ({', '.join(node)})")
        if node in resolved:
            first = next(t for t in scenario.assignments if targets[t] == node)
            raise ApimodError(
                f"scenario {scenario.name!r} labels one node twice, as "
                f"{first!r} and as {target!r}")
        resolved[node] = label
    return resolved


def resolve_scenario(model: GoalModel, scenario: Scenario) -> dict[str, Label]:
    """Map scenario assignments onto node ids.

    Targets may be element ids, dependency ids, or a dependum name when that
    name is unique among the model's dependums. A node may be labelled once.
    """
    return _resolve(scenario, _targets(model, {n: n for n in evaluation_nodes(model)}))


# Compiled form. A label is a small int in label order with CONFLICT on top,
# so max() absorbs it. An evidence pair keeps each side in thermometer code
# (none 0, partial 1, full 3), the negative side two bits up, so merging two
# pairs is a bitwise or.
_LABELS = tuple(Label)
_CONFLICT = len(_LABELS) - 1
_TOP = _CONFLICT - 1  # SATISFIED, the top of the order
_CODE = _LABELS.index  # a label's code, found without hashing the enum


def _pair_code(pair: EvidencePair) -> int:
    return (0, 1, 3)[pair.positive] | (0, 1, 3)[pair.negative] << 2


def _swap_sides(code: int) -> int:
    return (code & 0b11) << 2 | code >> 2


# The label code of each pair code; a side never holds bits 0b10 alone, so
# those codes stay None.
_PROJECT: list = [None] * 16
for _pair in (EvidencePair(p, n) for p in Evidence for n in Evidence):
    _PROJECT[_pair_code(_pair)] = _CODE(evidence_to_label(_pair))
# Evidence a label carries through refinement and dependency links.
_CARRIED = [_pair_code(label_to_evidence(label)) for label in _LABELS]
_PARTIAL = 0b0101
# Evidence delivered through a contribution link, per source label: the
# carried evidence, capped at partial through helps/hurts and with its sides
# swapped through hurts/breaks. UNKNOWN sources deliver nothing. CONFLICT
# sources deliver mixed partial evidence through every strength: anything
# weaker would make the final labels depend on rule-application order (a
# transiently positive source could leave evidence behind that its settled
# conflicted state no longer justifies delivering).
_CONTRIBUTED = {
    ContributionStrength.MAKES: _CARRIED,
    ContributionStrength.HELPS: [c & _PARTIAL for c in _CARRIED],
    ContributionStrength.HURTS: [_swap_sides(c & _PARTIAL) for c in _CARRIED],
    ContributionStrength.BREAKS: [_swap_sides(c) for c in _CARRIED],
}

#: A pair can gain evidence at most four times (each side none -> partial
#: -> full), so an evaluation has at most this many changing rounds per node.
MAX_ROUNDS_PER_NODE = 4


class Rules(TupleRecord):
    """A validated goal model compiled for evaluation, indexed like `nodes`."""

    __slots__ = ()
    model: GoalModel
    nodes: list[str]
    # per node: (AND inputs, OR children, [(source, table)]). The combined
    # input is the min over the AND inputs (AND children, incoming dependums)
    # and the max of the OR children; a source delivers table[its label].
    inputs: list[tuple[list[int], list[int], list[tuple[int, list[int]]]]]
    readers: list[list[int]]  # per node: the nodes whose delivery reads it
    initial: list[int]  # per node: evidence before any scenario is applied
    fed: list[int]  # the nodes that have an input, in node order
    targets: dict  # scenario target -> node (see `_targets`)

    def __new__(cls, model, nodes, inputs, readers, initial, fed, targets):
        return tuple_new(cls, (model, nodes, inputs, readers, initial, fed, targets))


def compile_rules(model: GoalModel) -> Rules:
    """Validate `model` and compile its delivery rules for any number of
    scenarios; raises ApimodError when the model has errors."""
    refuse_errors(validate_goal_model(model), "model")
    nodes = evaluation_nodes(model)  # validation rejects a repeated id
    index = {node: i for i, node in enumerate(nodes)}
    inputs = [([], [], []) for _ in nodes]
    readers: list[list[int]] = [[] for _ in nodes]
    for actor in model.actors:
        for el in actor.elements:
            node = index[el.id]
            if el.refinement is not None:
                children = list(map(index.__getitem__, el.refinement.children))
                inputs[node][el.refinement.kind is not _AND].extend(children)
                for child in children:
                    readers[child].append(node)
            for c in el.contributions:
                target = index[c.target]
                inputs[target][2].append((node, _CONTRIBUTED[c.strength]))
                readers[node].append(target)
    initial = [0] * len(nodes)
    for d in model.dependencies:
        node = index[d.id]
        if d.depender.element is not None:  # validation: an element of its actor
            depender = index[d.depender.element]
            inputs[depender][0].append(node)
            readers[node].append(depender)
        if d.dependee.element is not None:
            dependee = index[d.dependee.element]
            inputs[node][2].append((dependee, _CARRIED))
            readers[dependee].append(node)
        if d.dependum.initial_label is not None:
            initial[node] = _CARRIED[_CODE(d.dependum.initial_label)]
    fed = list(compress(range(len(nodes)), map(any, inputs)))
    return Rules(model, nodes, inputs, readers, initial, fed, _targets(model, index))


def _delivery(inputs, labels: list[int]) -> int:
    """Evidence one application of every rule delivers to a node."""
    and_inputs, or_children, sources = inputs
    delivered = 0
    if and_inputs or or_children:
        # The min over the AND inputs and the max of the OR children, with
        # CONFLICT absorbing both (it is the highest code, so max keeps it).
        combined = max(map(labels.__getitem__, or_children)) if or_children else _TOP
        for i in and_inputs:
            if combined == _CONFLICT:
                break
            label = labels[i]
            if label < combined or label == _CONFLICT:
                combined = label
        delivered = _CARRIED[combined]
    for source, table in sources:
        delivered |= table[labels[source]]
    return delivered


def propagate(model: GoalModel, scenario: Scenario,
              rules: Rules | None = None) -> EvaluationResult:
    """Fixpoint evaluation of a goal model under a scenario.

    `rules`, from :func:`compile_rules` on the same model, saves validating
    and compiling the model again for each of several scenarios.
    """
    if rules is None:
        rules = compile_rules(model)
    elif rules.model is not model:
        raise ApimodError("rules were compiled from a different model")
    assigned = _resolve(scenario, rules.targets)
    pairs = rules.initial[:]
    pinned = bytearray(len(pairs))
    for node, label in assigned.items():
        pairs[node] = _CARRIED[_CODE(label)]
        pinned[node] = 1
    labels = [_PROJECT[p] for p in pairs]
    inputs, readers = rules.inputs, rules.readers

    bound = MAX_ROUNDS_PER_NODE * max(1, len(pairs))
    iterations = 0
    frontier = rules.fed
    while True:
        # A delivery reads labels only, so pairs change in place and the
        # label changes wait for the end of the round.
        grew = False
        relabelled = []
        for node in frontier:
            if pinned[node]:
                continue
            pair = pairs[node]
            merged = pair | _delivery(inputs[node], labels)
            if merged != pair:
                pairs[node] = merged
                grew = True
                if _PROJECT[merged] != labels[node]:
                    relabelled.append(node)
        if not grew:
            break
        iterations += 1
        if iterations > bound:
            raise ApimodError(f"fixpoint took {iterations} rounds (> {bound})")
        # Most rounds relabel one node, whose reader list is then the
        # frontier: a reader listed twice is evaluated twice, and the second
        # time finds its pair merged already.
        if len(relabelled) == 1:
            node = relabelled[0]
            labels[node] = _PROJECT[pairs[node]]
            frontier = readers[node]
        else:
            frontier = set()
            for node in relabelled:
                labels[node] = _PROJECT[pairs[node]]
                frontier.update(readers[node])

    overridden = {
        rules.nodes[node] for node, label in assigned.items()
        if any(inputs[node])
        and _PROJECT[_delivery(inputs[node], labels)] != _CODE(label)
    }
    diagnostics = [
        Diagnostic(Severity.WARNING, "W-CONFLICT",
                   f"node {node!r} received both positive and negative evidence")
        for node, label in zip(rules.nodes, labels) if label == _CONFLICT
    ] if _CONFLICT in labels else []
    return EvaluationResult(dict(zip(rules.nodes, map(_LABELS.__getitem__, labels))),
                            overridden, iterations,
                            sort_diagnostics(diagnostics), scenario.name)


# ---------------------------------------------------------------------------
# Scenario comparison
# ---------------------------------------------------------------------------

class ComparisonRow(TupleRecord):
    __slots__ = ()
    node: str
    labels: list[Label]  # one per scenario, in scenario order

    def __new__(cls, node, labels):
        return tuple_new(cls, (node, labels))


class ComparisonTable(TupleRecord):
    __slots__ = ()
    scenarios: list[str]
    rows: list[ComparisonRow]
    scores: dict[str, float]
    ranking: list[tuple[str, int]]  # (scenario, dense rank starting at 1)
    focus_actor: str | None

    def __new__(cls, scenarios, rows, scores, ranking, focus_actor=None):
        return tuple_new(cls, (scenarios, rows, scores, ranking, focus_actor))


def scenario_score(model: GoalModel, result: EvaluationResult,
                   focus_actor: str | None = None) -> float:
    """Satisfied goals/qualities count 1, partially satisfied 0.5."""
    score = 0.0
    labels = result.labels
    for actor in model.actors:
        if focus_actor is not None and actor.id != focus_actor:
            continue
        for el in actor.elements:
            kind = el.kind
            if kind is _GOAL or kind is _QUALITY:
                label = labels[el.id]
                if label is _SATISFIED:
                    score += 1.0
                elif label is _PARTIALLY_SATISFIED:
                    score += 0.5
    return score


def compare_scenarios(model: GoalModel, scenarios: list[Scenario],
                      focus_actor: str | None = None) -> ComparisonTable:
    """Evaluate several scenarios side by side and rank them by score.
    Scenario names must differ: they key the scores and the ranking."""
    if len(scenarios) < 2:
        raise ApimodError("comparison needs at least two scenarios")
    if focus_actor is not None and all(a.id != focus_actor for a in model.actors):
        raise ApimodError(f"unknown focus actor {focus_actor!r}")
    rules = compile_rules(model)
    names: set[str] = set()
    for s in scenarios:
        if s.name in names:
            raise ApimodError(f"scenario name {s.name!r} is repeated; "
                              "compared scenarios need distinct names")
        names.add(s.name)
    results = [propagate(model, s, rules) for s in scenarios]

    row_ids = [e.id for a in model.actors
               if focus_actor is None or a.id == focus_actor
               for e in a.elements]
    label_maps = [r.labels for r in results]
    rows = [ComparisonRow(node, [labels[node] for labels in label_maps])
            for node in row_ids]
    scores = {s.name: scenario_score(model, r, focus_actor)
              for s, r in zip(scenarios, results)}

    distinct = sorted(set(scores.values()), reverse=True)
    rank_of = {value: i + 1 for i, value in enumerate(distinct)}
    ranking = sorted(((name, rank_of[score]) for name, score in scores.items()),
                     key=lambda nr: (nr[1], nr[0]))
    return ComparisonTable([s.name for s in scenarios], rows, scores, ranking,
                           focus_actor)


# ---------------------------------------------------------------------------
# Metric hierarchies
# ---------------------------------------------------------------------------

def propagate_metric_hierarchy(hierarchy: GoalModel,
                               measured: Scenario) -> EvaluationResult:
    """Propagate measured leaf values up a quality hierarchy.

    The hierarchy is a goal model restricted to qualities and contribution
    links; anything a measurement does not reach stays UNKNOWN.
    """
    for actor in hierarchy.actors:
        for el in actor.elements:
            if el.kind is not ElementKind.QUALITY:
                raise ApimodError(
                    f"metric hierarchy may contain qualities only; {el.id!r} "
                    f"is a {el.kind.value}")
    if hierarchy.dependencies:
        raise ApimodError("metric hierarchy may not contain dependencies")
    return propagate(hierarchy, measured)
