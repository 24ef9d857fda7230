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
Round 0 evaluates every node. A delivery depends only on its sources' labels,
so each later round evaluates only the readers of nodes whose label changed
in the round before; any other delivery would repeat evidence already merged.
`iterations` counts the rounds in which at least one pair changed. A pair can
gain evidence at most four times, so that count stays within 4 x nodes, which
is checked at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    ApimodError, ContributionStrength, Diagnostic, ElementKind, Evidence,
    EvidencePair, GoalModel, Label, RefinementKind, Severity,
    evidence_to_label, label_to_evidence, sort_diagnostics,
)
from .validate import validate_goal_model

RULE_SET = "symmetric-closure"


@dataclass
class Scenario:
    """Initial labels for an evaluation; CONFLICT cannot be assigned."""

    name: str
    assignments: dict[str, Label] = field(default_factory=dict)


class EvaluationResult(NamedTuple):
    labels: dict[str, Label]
    overridden: set[str]
    iterations: int
    diagnostics: list[Diagnostic]
    scenario: str = ""


def evaluation_nodes(model: GoalModel) -> list[str]:
    """All label-carrying nodes in deterministic order: elements, then
    dependums (addressed by their dependency id)."""
    ids = [e.id for a in model.actors for e in a.elements]
    ids.extend(d.id for d in model.dependencies)
    return ids


def resolve_scenario(model: GoalModel, scenario: Scenario) -> dict[str, Label]:
    """Map scenario assignments onto node ids.

    Targets may be element ids, dependency ids, or a dependum name when that
    name is unique among the model's dependums.
    """
    elements = {e.id for a in model.actors for e in a.elements}
    dep_ids = {d.id for d in model.dependencies}
    by_dependum_name: dict[str, list[str]] = {}
    for d in model.dependencies:
        by_dependum_name.setdefault(d.dependum.name, []).append(d.id)
    resolved: dict[str, Label] = {}
    for target, label in scenario.assignments.items():
        if label is Label.CONFLICT:
            raise ApimodError(
                f"scenario {scenario.name!r} assigns conflict to {target!r}; "
                "conflict cannot be an initial label")
        if target in elements or target in dep_ids:
            resolved[target] = label
        elif target in by_dependum_name:
            candidates = by_dependum_name[target]
            if len(candidates) > 1:
                raise ApimodError(
                    f"scenario {scenario.name!r}: dependum name {target!r} is "
                    f"ambiguous ({', '.join(candidates)})")
            resolved[candidates[0]] = label
        else:
            raise ApimodError(
                f"scenario {scenario.name!r} labels unknown node {target!r}")
    return resolved


# Compiled form. A label is a small int in label order with CONFLICT on top,
# so max() absorbs it. An evidence pair keeps each side in thermometer code
# (none 0, partial 1, full 3), the negative side two bits up, so merging two
# pairs is a bitwise or.
_LABELS = (Label.DENIED, Label.PARTIALLY_DENIED, Label.UNKNOWN,
           Label.PARTIALLY_SATISFIED, Label.SATISFIED, Label.CONFLICT)
_CONFLICT = len(_LABELS) - 1
_CODE = {label: i for i, label in enumerate(_LABELS)}


def _pair_code(pair: EvidencePair) -> int:
    return (0, 1, 3)[pair.positive] | (0, 1, 3)[pair.negative] << 2


def _swap_sides(code: int) -> int:
    return (code & 0b11) << 2 | code >> 2


_PROJECT = {_pair_code(EvidencePair(p, n)): _CODE[evidence_to_label(EvidencePair(p, n))]
            for p in Evidence for n in Evidence}
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


class Rules(NamedTuple):
    """A validated goal model compiled for evaluation, indexed like `nodes`."""

    model: GoalModel
    nodes: list[str]
    index: dict[str, int]
    # per node: (AND inputs, OR children, [(source, table)]). The combined
    # input is the min over the AND inputs (AND children, incoming dependums)
    # and the max of the OR children; a source delivers table[its label].
    inputs: list[tuple[list[int], list[int], list[tuple[int, list[int]]]]]
    readers: list[set[int]]  # per node: the nodes whose delivery reads it
    initial: list[int]  # per node: evidence before any scenario is applied


def compile_rules(model: GoalModel) -> Rules:
    """Validate `model` and compile its delivery rules for any number of
    scenarios; raises ApimodError when the model has errors."""
    errors = [d for d in validate_goal_model(model) if d.severity is Severity.ERROR]
    if errors:
        raise ApimodError(
            "model does not validate: " + "; ".join(d.message for d in errors))
    nodes = evaluation_nodes(model)  # validation rejects a repeated id
    index = {node: i for i, node in enumerate(nodes)}
    elements = {e.id for a in model.actors for e in a.elements}
    inputs = [([], [], []) for _ in nodes]
    for actor in model.actors:
        for el in actor.elements:
            if el.refinement is not None:
                and_inputs, or_children, _ = inputs[index[el.id]]
                (and_inputs if el.refinement.kind is RefinementKind.AND
                 else or_children).extend(index[c] for c in el.refinement.children)
            for c in el.contributions:
                inputs[index[c.target]][2].append(
                    (index[el.id], _CONTRIBUTED[c.strength]))
    initial = [0] * len(nodes)
    for d in model.dependencies:
        if d.depender.element in elements:
            inputs[index[d.depender.element]][0].append(index[d.id])
        if d.dependee.element in elements:
            inputs[index[d.id]][2].append((index[d.dependee.element], _CARRIED))
        if d.dependum.initial_label is not None:
            initial[index[d.id]] |= _CARRIED[_CODE[d.dependum.initial_label]]
    readers: list[set[int]] = [set() for _ in nodes]
    for node, (and_inputs, or_children, sources) in enumerate(inputs):
        for source in and_inputs + or_children + [s for s, _ in sources]:
            readers[source].add(node)
    return Rules(model, nodes, index, inputs, readers, initial)


def _delivery(inputs, labels: list[int]) -> int:
    """Evidence one application of every rule delivers to a node."""
    and_inputs, or_children, sources = inputs
    delivered = 0
    if and_inputs or or_children:
        parts = [labels[i] for i in and_inputs]
        if or_children:
            parts.append(max(labels[i] for i in or_children))
        delivered = _CARRIED[_CONFLICT if _CONFLICT in parts else min(parts)]
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
    assigned = {rules.index[node]: _CODE[label]
                for node, label in resolve_scenario(model, scenario).items()}
    pairs = rules.initial[:]
    for node, label in assigned.items():
        pairs[node] = _CARRIED[label]
    labels = [_PROJECT[p] for p in pairs]

    bound = MAX_ROUNDS_PER_NODE * max(1, len(pairs))
    iterations = 0
    frontier = [node for node in range(len(pairs)) if node not in assigned]
    while True:
        updates = []
        for node in frontier:
            merged = pairs[node] | _delivery(rules.inputs[node], labels)
            if merged != pairs[node]:
                updates.append((node, merged))
        if not updates:
            break
        iterations += 1
        if iterations > bound:
            raise ApimodError(f"fixpoint took {iterations} rounds (> {bound})")
        changed: set[int] = set()
        for node, merged in updates:
            pairs[node] = merged
            if _PROJECT[merged] != labels[node]:
                labels[node] = _PROJECT[merged]
                changed.update(rules.readers[node])
        frontier = [node for node in changed if node not in assigned]

    overridden = {
        rules.nodes[node] for node, label in assigned.items()
        if any(rules.inputs[node])
        and _PROJECT[_delivery(rules.inputs[node], labels)] != label
    }
    diagnostics = [
        Diagnostic(Severity.WARNING, "W-CONFLICT",
                   f"node {node!r} received both positive and negative evidence")
        for node in evaluation_nodes(model) if labels[rules.index[node]] == _CONFLICT
    ]
    return EvaluationResult({node: _LABELS[label]
                             for node, label in zip(rules.nodes, labels)},
                            overridden, iterations,
                            sort_diagnostics(diagnostics), scenario.name)


# ---------------------------------------------------------------------------
# Scenario comparison
# ---------------------------------------------------------------------------

class ComparisonRow(NamedTuple):
    node: str
    labels: list[Label]  # one per scenario, in scenario order


class ComparisonTable(NamedTuple):
    scenarios: list[str]
    rows: list[ComparisonRow]
    scores: dict[str, float]
    ranking: list[tuple[str, int]]  # (scenario, dense rank starting at 1)
    focus_actor: str | None = None


def scenario_score(model: GoalModel, result: EvaluationResult,
                   focus_actor: str | None = None) -> float:
    """Satisfied goals/qualities count 1, partially satisfied 0.5."""
    score = 0.0
    for actor in model.actors:
        if focus_actor is not None and actor.id != focus_actor:
            continue
        for el in actor.elements:
            if el.kind not in (ElementKind.GOAL, ElementKind.QUALITY):
                continue
            label = result.labels[el.id]
            if label is Label.SATISFIED:
                score += 1.0
            elif label is Label.PARTIALLY_SATISFIED:
                score += 0.5
    return score


def compare_scenarios(model: GoalModel, scenarios: list[Scenario],
                      focus_actor: str | None = None) -> ComparisonTable:
    """Evaluate several scenarios side by side and rank them by score."""
    if len(scenarios) < 2:
        raise ApimodError("comparison needs at least two scenarios")
    if focus_actor is not None and focus_actor not in model.actor_map():
        raise ApimodError(f"unknown focus actor {focus_actor!r}")
    rules = compile_rules(model)
    results = [propagate(model, s, rules) for s in scenarios]

    row_ids = [e.id for a in model.actors
               if focus_actor is None or a.id == focus_actor
               for e in a.elements]
    rows = [ComparisonRow(node, [r.labels[node] for r in results])
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
