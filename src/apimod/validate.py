"""Structural and methodological model checks.

Value models are checked for dangling flow endpoints and stimulus owners,
reciprocity, scoping, a captured API, and a stimulus; goal models for
refinement cycles, floating elements, mistyped contributions, and dangling
refinement children and dependency ends. Layer and BAPO coverage checks work
on both model types.
"""

from __future__ import annotations

from .core import (
    BAPO_ORDER, Diagnostic, ElementKind, GoalModel, LAYER_ORDER, Severity,
    ValueModel, sort_diagnostics,
)


def validate_value_model(model: ValueModel,
                         strict_reciprocity: bool = False) -> list[Diagnostic]:
    """Dangling references, reciprocity, scoping, and completeness checks
    (§-style construction hygiene). With `strict_reciprocity`, every actor
    pair with a flow must also have a backflow."""
    diags: list[Diagnostic] = []
    owner = {a.id: a.id for a in model.actors}
    for actor in model.actors:
        for act in actor.activities:
            owner[act.id] = actor.id

    for flow in model.flows:
        for end in (flow.source, flow.target):
            if end not in owner:
                diags.append(Diagnostic(
                    Severity.ERROR, "E-DANGLE",
                    f"flow {flow.id!r} references unknown endpoint {end!r}",
                    flow.span))
    actor_ids = {a.id for a in model.actors}
    for stim in model.stimuli:
        if stim.at not in actor_ids:
            diags.append(Diagnostic(
                Severity.ERROR, "E-DANGLE",
                f"stimulus {stim.id!r} is placed at unknown actor {stim.at!r}",
                stim.span))

    outgoing: dict[str, int] = {a.id: 0 for a in model.actors}
    incoming: dict[str, int] = {a.id: 0 for a in model.actors}
    for flow in model.flows:
        src = owner.get(flow.source)
        dst = owner.get(flow.target)
        if src in outgoing:
            outgoing[src] += 1
        if dst in incoming:
            incoming[dst] += 1

    for actor in model.actors:
        out_n, in_n = outgoing[actor.id], incoming[actor.id]
        if out_n == 0 and in_n == 0:
            diags.append(Diagnostic(
                Severity.WARNING, "W-ISOLATED",
                f"actor {actor.id!r} exchanges no value; is it in scope?",
                actor.span))
        elif out_n == 0:
            diags.append(Diagnostic(
                Severity.WARNING, "W-RECIP",
                f"actor {actor.id!r} receives value but provides none",
                actor.span))
        elif in_n == 0:
            diags.append(Diagnostic(
                Severity.WARNING, "W-RECIP",
                f"actor {actor.id!r} provides value but receives none",
                actor.span))

    if strict_reciprocity:
        pairs = {(owner.get(f.source), owner.get(f.target)) for f in model.flows}
        for src, dst in sorted(p for p in pairs if None not in p and p[0] != p[1]):
            if (dst, src) not in pairs:
                diags.append(Diagnostic(
                    Severity.WARNING, "W-RECIP",
                    f"no backflow from {dst!r} to {src!r}"))

    # An empty model has not been scoped yet, so the completeness
    # checks below would be noise.
    if model.actors:
        if not any(a.api_role for a in model.actors):
            diags.append(Diagnostic(
                Severity.ERROR, "E-NOAPI",
                "no actor is marked as the API; add an `api` marker"))
        if not model.stimuli:
            diags.append(Diagnostic(
                Severity.WARNING, "W-NOSTIM",
                "model has no stimulus; what sets the ecosystem in motion?"))
    return sort_diagnostics(diags)


def _refinement_cycles(model: GoalModel) -> list[list[str]]:
    """Strongly connected components of the refinement digraph that contain
    a cycle, as sorted id lists."""
    graph: dict[str, tuple[str, ...]] = {}
    for actor in model.actors:
        for el in actor.elements:
            graph[el.id] = el.refinement.children if el.refinement else ()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan; parser output can nest deep.
        work = [(node, iter(graph.get(node, ())))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1 or v in graph.get(v, ()):
                    cycles.append(sorted(scc))

    for node in graph:
        if node not in index:
            strongconnect(node)
    return sorted(cycles)


def validate_goal_model(model: GoalModel) -> list[Diagnostic]:
    """Construction-rule checks: cycles, floating elements, contribution
    typing, dangling refinement children and dependency ends."""
    diags: list[Diagnostic] = []
    elements = model.element_map()
    actors = model.actor_map()

    for cycle in _refinement_cycles(model):
        diags.append(Diagnostic(
            Severity.ERROR, "E-CYCLE",
            "refinement cycle through " + ", ".join(repr(c) for c in cycle)))

    attached: set[str] = set()
    for actor in model.actors:
        for el in actor.elements:
            if el.refinement is not None:
                attached.add(el.id)
                attached.update(el.refinement.children)
                for child in el.refinement.children:
                    if child not in elements:
                        diags.append(Diagnostic(
                            Severity.ERROR, "E-DANGLE",
                            f"refinement of {el.id!r} names unknown element "
                            f"{child!r}", el.span))
            for c in el.contributions:
                attached.add(el.id)
                attached.add(c.target)
                target = elements.get(c.target)
                if target is None:
                    diags.append(Diagnostic(
                        Severity.ERROR, "E-DANGLE",
                        f"contribution from {el.id!r} targets unknown element "
                        f"{c.target!r}", el.span))
                elif target.kind is not ElementKind.QUALITY:
                    diags.append(Diagnostic(
                        Severity.ERROR, "E-CONTRIB",
                        f"contribution from {el.id!r} targets "
                        f"{target.kind.value} {c.target!r}; only qualities "
                        "may be targeted", el.span))
            if el.kind is ElementKind.QUALITY and el.refinement is not None:
                diags.append(Diagnostic(
                    Severity.ERROR, "E-REFINE",
                    f"quality {el.id!r} must not be refined; use contribution "
                    "links", el.span))

    actor_elements = {a.id: {e.id for e in a.elements} for a in actors.values()}
    for dep in model.dependencies:
        for end in (dep.depender, dep.dependee):
            actor = actors.get(end.actor)
            if actor is None:
                diags.append(Diagnostic(
                    Severity.ERROR, "E-DANGLE",
                    f"dependency {dep.id!r} references unknown actor "
                    f"{end.actor!r}", dep.span))
                continue
            if end.element is not None:
                attached.add(end.element)
                if not actor.open:
                    diags.append(Diagnostic(
                        Severity.ERROR, "E-DANGLE",
                        f"dependency {dep.id!r} references element "
                        f"{end.element!r} of closed actor {end.actor!r}",
                        dep.span))
                elif end.element not in actor_elements[actor.id]:
                    diags.append(Diagnostic(
                        Severity.ERROR, "E-DANGLE",
                        f"dependency {dep.id!r} references unknown element "
                        f"{end.element!r} in actor {end.actor!r}", dep.span))

    for actor in model.actors:
        for el in actor.elements:
            if el.id not in attached:
                diags.append(Diagnostic(
                    Severity.WARNING, "W-FLOAT",
                    f"element {el.id!r} floats: no refinement, contribution, "
                    "or dependency attaches it", el.span))
    return sort_diagnostics(diags)


def check_layer_coverage(model, api_focus: str) -> list[Diagnostic]:
    """For one API of focus: every layer should hold at least one actor and
    every actor should be placed. Works on value and goal models alike."""
    diags: list[Diagnostic] = []
    assigned_layers = set()
    for actor in model.actors:
        layer = actor.layer_assignments.get(api_focus)
        if layer is None:
            diags.append(Diagnostic(
                Severity.WARNING, "W-UNASSIGNED",
                f"actor {actor.id!r} has no layer for focus {api_focus!r}",
                actor.span))
        else:
            assigned_layers.add(layer)
    for layer in LAYER_ORDER:
        if layer not in assigned_layers:
            diags.append(Diagnostic(
                Severity.WARNING, "W-LAYER-MISSING",
                f"no actor is mapped to the {layer.value} layer for focus "
                f"{api_focus!r}"))
    return sort_diagnostics(diags)


def check_bapo_coverage(model) -> list[Diagnostic]:
    """One Info per concern (Business, Architecture, Process, Organization)
    that no actor in the model carries."""
    present = set()
    for actor in model.actors:
        present.update(actor.bapo_tags)
    return [
        Diagnostic(Severity.INFO, "I-BAPO",
                   f"no actor is tagged with the {tag.name.lower()} concern "
                   f"({tag.value})")
        for tag in BAPO_ORDER if tag not in present
    ]
