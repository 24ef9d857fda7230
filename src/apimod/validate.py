"""Structural and methodological model checks.

`names` alone resolves a model's ids, in one walk per call: which
declarations repeat an id, the actors, each actor's members and every
member's owner, where the last declaration of an id wins. Every check that
resolves a name reads what it returns, and `reference_problems` alone
decides from it whether a model's references resolve, through
`link_references` for each link, which the parser calls on a link statement
before it places it. For goal models it
follows iStar 2.0: refinement children stay inside their parent's actor, and
dependencies name elements only of open actors. The parser reports its
problems as E-REF at the tokens, validation as E-DANGLE at the model objects
(E-CYCLE for a partnership cycle, which `reference_diagnostic` words for
both); both report a repeated id as E-DUP at the declaration that repeats
it, through `duplicate_diagnostics`. `link_problems` (link typing) and
`self_links` decide E-REFINE, E-CONTRIB and E-SELF for both, and one search,
`_cycles`, finds partnership and refinement cycles alike, over the edges of
each id's last declaration. Value models are also checked for reciprocity,
scoping, a captured API and a stimulus; goal models for floating elements.
Layer and BAPO coverage checks work on both model types.
"""

from .core import (
    ApimodError, BapoTag, Contribution, Diagnostic, ElementKind, GoalModel, Layer, Refinement,
    Severity, TupleRecord, ValueModel, sort_diagnostics, tuple_new,
)

_QUALITY = ElementKind.QUALITY  # an enum member costs a lookup per access


class Names(TupleRecord):
    """What `names` finds in one walk of a model's declarations. Where an id
    repeats, the last declaration wins."""

    __slots__ = ()
    repeats: list  # the declarations whose id an earlier one of their namespace holds
    actors: dict  # id -> actor
    members: dict  # `id()` of each actor declaration -> its elements or activities by id
    nodes: dict  # id -> element or activity
    owner: dict  # element or activity id -> its actor's id

    def __new__(cls, repeats, actors, members, nodes, owner):
        return tuple_new(cls, (repeats, actors, members, nodes, owner))


def names(model: ValueModel | GoalModel) -> Names:
    """The one walk that resolves a model's names. A value model's actors,
    activities and stimuli share one namespace. A goal model's actors and
    elements share one, and its evaluation nodes, elements and then
    dependencies (`d1`, `d2`, ...), share another, so a dependency whose id
    names an element repeats it."""
    repeats: list = []
    actors: dict = {}
    members: dict = {}
    nodes: dict = {}
    owner: dict = {}

    def walk(actor, declared: list) -> None:
        members[id(actor)] = local = {}
        for obj in declared:
            if obj.id in nodes or obj.id in actors:
                repeats.append(obj)
            local[obj.id] = nodes[obj.id] = obj
            owner[obj.id] = actor.id

    value = isinstance(model, ValueModel)
    for actor in model.actors:
        if actor.id in actors or actor.id in nodes:
            repeats.append(actor)
        actors[actor.id] = actor
        if value:  # each actor's activities follow it in the one namespace
            walk(actor, actor.activities)
    if not value:  # every actor precedes the elements
        for actor in model.actors:
            walk(actor, actor.elements)
    taken = {*actors, *nodes} if value else set(nodes)
    for obj in model.stimuli if value else model.dependencies:
        if obj.id in taken:
            repeats.append(obj)
        taken.add(obj.id)
    return Names(repeats, actors, members, nodes, owner)


def _cycles(graph: dict[str, tuple[str, ...]]) -> list[list[str]]:
    """Each strongly connected component of `graph` (id to successor ids)
    that holds a cycle, as a sorted id list, in sorted order. A successor
    that is no node, or has no successors, lies on no cycle. Tarjan (1972),
    iterative, since parser output can nest deep."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    found = len(graph)  # the low of a node whose component is found: above every index
    stack: list[str] = []
    cycles: list[list[str]] = []
    for root, successors in graph.items():
        if not successors or root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        # `filter` passes on only the successors that have successors.
        work = [(root, filter(graph.get, successors))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, filter(graph.get, graph[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:  # every successor of `v` is done
                work.pop()
                if low[v] == index[v]:  # `v` is the root of its component
                    w = stack.pop()
                    low[w] = found
                    if w == v:
                        if v in graph[v]:
                            cycles.append([v])
                        continue
                    scc = [w]
                    while w != v:
                        w = stack.pop()
                        low[w] = found
                        scc.append(w)
                    cycles.append(sorted(scc))
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return sorted(cycles)


def reference_problems(model: ValueModel | GoalModel,
                       found: Names) -> list[tuple[str, object, object]]:
    """`(kind, ref, owner)` for each reference of `model` that does not
    resolve by its `names` index `found`: `ref` as written, `owner` the
    object holding it. Value models: `parent`, `cycle` (the actor's id is on
    a partnership cycle), `source` and `target` (flow endpoints) and
    `stimulus`. Goal models: for each link placed on an element, `child` or
    `contribution` (its target), by `link_references`; then `actor` (once
    per unknown actor of a dependency), `end` and `closed` for dependency
    ends (`ref` is the `DependencyEnd`) and `partof` (once per unknown actor
    of a link)."""
    problems: list[tuple[str, object, object]] = []
    actors, members, nodes = found.actors, found.members, found.nodes
    if isinstance(model, ValueModel):
        cyclic = {i for scc in _cycles({a.id: () if a.parent is None else (a.parent,)
                                        for a in model.actors}) for i in scc}
        for actor in model.actors:
            if actor.parent is not None and actor.parent not in actors:
                problems.append(("parent", actor.parent, actor))
            if actor.id in cyclic:
                problems.append(("cycle", actor.id, actor))
        for flow in model.flows:
            if flow.source not in actors and flow.source not in nodes:
                problems.append(("source", flow.source, flow))
            if flow.target not in actors and flow.target not in nodes:
                problems.append(("target", flow.target, flow))
        for stim in model.stimuli:
            if stim.at not in actors:
                problems.append(("stimulus", stim.at, stim))
        return problems

    for actor in model.actors:
        ids = members[id(actor)]
        for el in actor.elements:  # its own actor's scope holds its id
            if el.refinement is not None:
                for child in link_references(el.refinement, ids, nodes):
                    problems.append(("child", child, el))
            for link in el.contributions:
                for target in link_references(link, ids, nodes):
                    problems.append(("contribution", target, el))
    for dep in model.dependencies:
        for end in (dep.depender, dep.dependee):
            actor = actors.get(end.actor)
            if actor is None:
                if end is dep.depender or end.actor != dep.depender.actor:  # once per actor
                    problems.append(("actor", end.actor, dep))
            elif end.element is None:
                continue
            elif not actor.open:  # iStar 2.0: a closed actor shows no elements
                problems.append(("closed", end, dep))
            elif end.element not in members[id(actor)]:
                problems.append(("end", end, dep))
    for link in model.associations:
        for end in dict.fromkeys((link.source, link.target)):
            if end not in actors:
                problems.append(("partof", end, link))
    return problems


def link_references(link: Refinement | Contribution, ids: dict, elements: dict) -> list[str]:
    """The ids that one link, whose source is an element with the actor
    scope `ids`, names and that do not resolve: refinement children not in
    `ids`, or a contribution target not in `elements`."""
    if type(link) is Refinement:
        return [child for child in link.children if child not in ids]
    return [] if link.target in elements else [link.target]


#: How validation words each `reference_problems` kind, for owner `o`, ref `r`.
_DANGLING = {
    "parent": "actor {o.id!r} is part of unknown actor {r!r}",
    "cycle": "partnership cycle through {r!r}",
    "source": "flow {o.id!r} references unknown endpoint {r!r}",
    "target": "flow {o.id!r} references unknown endpoint {r!r}",
    "stimulus": "stimulus {o.id!r} is placed at unknown actor {r!r}",
    "child": "refinement of {o.id!r} names {r!r}, which is no element of its actor",
    "contribution": "contribution from {o.id!r} targets unknown element {r!r}",
    "actor": "dependency {o.id!r} references unknown actor {r!r}",
    "end": "dependency {o.id!r} references unknown element {r.element!r} in actor {r.actor!r}",
    "closed": "dependency {o.id!r} references element {r.element!r} of closed actor "
              "{r.actor!r}",
    "partof": "part-of link {o.source!r} -> {o.target!r} names unknown actor {r!r}",
}


def reference_diagnostic(kind: str, ref, owner) -> Diagnostic:
    """One `reference_problems` entry as an E-DANGLE error (E-CYCLE for a
    partnership cycle) at its owner."""
    return Diagnostic(Severity.ERROR, "E-CYCLE" if kind == "cycle" else "E-DANGLE",
                      _DANGLING[kind].format(o=owner, r=ref), owner.span)


def link_problems(source, link: Refinement | Contribution, local: dict,
                  elements: dict) -> list[tuple[str, str]]:
    """(code, message) for each iStar 2.0 typing rule that `link` on element
    `source` breaks: E-SELF for a contribution to `source` itself (then
    alone), E-REFINE for a refined quality (then alone) and for a quality
    child, E-CONTRIB for a contribution to a non-quality. `local` and
    `elements` map the ids of the source's actor and of the model to
    elements; ids that do not resolve are left to `reference_problems`."""
    if type(link) is not Refinement:
        if link.target == source.id:
            return [("E-SELF", "contribution must connect two distinct elements")]
        target = elements.get(link.target)
        if target is None or target.kind is _QUALITY:
            return []
        return [("E-CONTRIB", f"contribution target {link.target!r} is a "
                 f"{target.kind.value}; contributions target qualities only")]
    if source.kind is _QUALITY:
        return [("E-REFINE", f"quality {source.id!r} cannot be refined; use contribution "
                 "links")]
    problems = []
    for child in link.children:
        el = local.get(child)
        if el is not None and el.kind is _QUALITY:
            problems.append(("E-REFINE", f"quality {child!r} cannot be a refinement child"))
    return problems


def self_links(model: ValueModel | GoalModel) -> list[tuple[str, str, object]]:
    """(code, message, link) for each value flow or dependency of `model`
    whose two ends are equal."""
    if isinstance(model, ValueModel):
        return [("E-SELF", "value flow must connect two distinct endpoints", flow)
                for flow in model.flows if flow.source == flow.target]
    return [("E-SELF", "dependency must connect two distinct ends", dep)
            for dep in model.dependencies if dep.depender == dep.dependee]


def duplicate_diagnostics(found: Names) -> list[Diagnostic]:
    """E-DUP at each declaration whose id is taken (`Names.repeats`)."""
    return [Diagnostic(Severity.ERROR, "E-DUP", f"duplicate identifier {obj.id!r}", obj.span)
            for obj in found.repeats]


def _shared_diagnostics(model, found: Names) -> list[Diagnostic]:
    """Repeated ids, reference problems and self-links, each at its owner."""
    diags = duplicate_diagnostics(found)
    diags += [reference_diagnostic(*problem)
              for problem in reference_problems(model, found)]
    return diags + [Diagnostic(Severity.ERROR, code, message, link.span)
                    for code, message, link in self_links(model)]


def validate_value_model(model: ValueModel,
                         strict_reciprocity: bool = False) -> list[Diagnostic]:
    """Repeated ids, reference problems, reciprocity, scoping, and
    completeness checks (§-style construction hygiene). With
    `strict_reciprocity`, every actor pair with a flow must also have a
    backflow."""
    found = names(model)
    diags = _shared_diagnostics(model, found)

    def owner(ref: str) -> str | None:
        """The id of the actor that is or holds endpoint `ref`."""
        return found.owner.get(ref, ref if ref in found.actors else None)

    providers = {owner(f.source) for f in model.flows}
    receivers = {owner(f.target) for f in model.flows}
    for actor in model.actors:
        provides, receives = actor.id in providers, actor.id in receivers
        if not provides and not receives:
            diags.append(Diagnostic(
                Severity.WARNING, "W-ISOLATED",
                f"actor {actor.id!r} exchanges no value; is it in scope?",
                actor.span))
        elif not provides:
            diags.append(Diagnostic(
                Severity.WARNING, "W-RECIP",
                f"actor {actor.id!r} receives value but provides none",
                actor.span))
        elif not receives:
            diags.append(Diagnostic(
                Severity.WARNING, "W-RECIP",
                f"actor {actor.id!r} provides value but receives none",
                actor.span))

    if strict_reciprocity:
        pairs = {(owner(f.source), owner(f.target)) for f in model.flows}
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


def validate_goal_model(model: GoalModel) -> list[Diagnostic]:
    """Construction-rule checks: repeated ids, reference problems,
    self-dependencies, refinement cycles, floating elements and link typing."""
    found = names(model)
    diags = _shared_diagnostics(model, found)
    members, elements = found.members, found.nodes

    graph = {i: el.refinement.children for i, el in elements.items()
             if el.refinement is not None}
    diags += [Diagnostic(Severity.ERROR, "E-CYCLE", "refinement cycle through "
                         + ", ".join(repr(c) for c in cycle)) for cycle in _cycles(graph)]

    # Link typing, and the elements a link attaches; those without links of
    # their own float unless a link or a dependency attaches them.
    attached = {end.element for dep in model.dependencies
                for end in (dep.depender, dep.dependee) if end.element is not None}
    unlinked = []
    for actor in model.actors:
        local = members[id(actor)]
        for el in actor.elements:
            links = (el.contributions if el.refinement is None
                     else (el.refinement, *el.contributions))
            if not links:
                unlinked.append(el)
                continue
            attached.add(el.id)
            for link in links:
                attached.update(link.children if type(link) is Refinement else (link.target,))
                for code, message in link_problems(el, link, local, elements):
                    diags.append(Diagnostic(Severity.ERROR, code, message, el.span))

    for el in unlinked:
        if el.id not in attached:
            diags.append(Diagnostic(
                Severity.WARNING, "W-FLOAT",
                f"element {el.id!r} floats: no refinement, contribution, "
                "or dependency attaches it", el.span))
    return sort_diagnostics(diags)


def refuse_errors(diagnostics: list[Diagnostic], what: str) -> None:
    """The precondition of every analysis that needs a valid model: raise
    ApimodError naming each error of `diagnostics`, in their order, if any."""
    messages = [d.message for d in diagnostics if d.severity is Severity.ERROR]
    if messages:
        raise ApimodError(f"{what} does not validate: " + "; ".join(messages))


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
    for layer in Layer:
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
        for tag in BapoTag if tag not in present
    ]
