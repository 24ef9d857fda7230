"""Shared test machinery: random model generators, an independent
evidence-closure oracle and a plain Jacobi reference, the reference lexer,
and a DOT-subset grammar checker.

The two engine references deliberately re-implement the propagation
semantics with their own label tables, one by randomized single-rule
application and one by whole rounds, so they share no combination code with
the engine they check.
"""

from __future__ import annotations

import copy
import random
import re
from pathlib import Path

from apimod.core import (
    ContributionStrength, Contribution, Dependency, DependencyEnd, Dependum,
    ElementKind, GActor, GElement, GoalModel, Label, Refinement,
    RefinementKind, VActor, Activity, ValueFlow, ValueModel, ValueObject,
    FlowStatus, SourceSpan, Stimulus, BapoTag, Layer,
)
from apimod.dsl.lexer import LexError, TokKind
from apimod.evaluate import Scenario

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def replaced(record, **changes):
    """A new record like `record` with `changes` set, sharing its other
    fields (a shallow copy); `record` itself does not change."""
    new = copy.copy(record)
    for name, value in changes.items():
        setattr(new, name, value)
    return new


# ---------------------------------------------------------------------------
# Name generation (exercises quoting and keyword collisions)
# ---------------------------------------------------------------------------

def gen_name(rng: random.Random, prefix: str, i: int) -> str:
    style = rng.randrange(6)
    if style == 0:
        return f"{prefix}{i}"
    if style == 1:
        return f"{prefix} {i}"
    if style == 2:
        return f'{prefix}"{i}"'
    if style == 3:
        return f"depend {prefix}{i}"
    if style == 4:
        return f"{prefix}_ü{i}"
    return f"{prefix}-{i}"


# ---------------------------------------------------------------------------
# Random goal models (always validate without Errors)
# ---------------------------------------------------------------------------

def gen_goal_model(rng: random.Random, max_elements: int = 8,
                   max_links: int = 12, plain_names: bool = False) -> GoalModel:
    def name(prefix, i):
        return f"{prefix}{i}" if plain_names else gen_name(rng, prefix, i)

    model = GoalModel(name("m", 0), draft=rng.random() < 0.2)
    for a in range(rng.randint(1, 3)):
        nm = name("A", a)
        model.actors.append(GActor(id=nm, name=nm))
    kinds = list(ElementKind)
    elements: list[GElement] = []
    for i in range(rng.randint(0, max_elements)):
        nm = name("e", i)
        el = GElement(id=nm, kind=rng.choice(kinds), name=nm)
        rng.choice(model.actors).elements.append(el)
        elements.append(el)

    links = 0
    order = {el.id: i for i, el in enumerate(elements)}
    for actor in model.actors:
        locals_ = actor.elements
        for el in locals_:
            if el.kind is ElementKind.QUALITY or rng.random() > 0.45:
                continue
            candidates = [c for c in locals_
                          if order[c.id] > order[el.id]
                          and c.kind is not ElementKind.QUALITY]
            if not candidates or links >= max_links:
                continue
            children = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
            el.refinement = Refinement(rng.choice(list(RefinementKind)),
                                       tuple(c.id for c in children))
            links += len(children)

    qualities = [el for el in elements if el.kind is ElementKind.QUALITY]
    if qualities:
        for _ in range(rng.randint(0, 4)):
            if links >= max_links:
                break
            src = rng.choice(elements)
            target = rng.choice(qualities)
            if src.id == target.id:
                continue
            link = Contribution(target.id, rng.choice(list(ContributionStrength)))
            if link not in src.contributions:
                src.contributions.append(link)
                links += 1

    initial_pool = [None, None, None, Label.DENIED, Label.SATISFIED,
                    Label.PARTIALLY_DENIED, Label.PARTIALLY_SATISFIED]
    for _ in range(rng.randint(0, 3)):
        if links >= max_links or len(model.actors) < 1:
            break
        a1, a2 = rng.choice(model.actors), rng.choice(model.actors)

        def end(actor: GActor) -> DependencyEnd:
            if actor.elements and rng.random() < 0.7:
                return DependencyEnd(actor.id, rng.choice(actor.elements).id)
            return DependencyEnd(actor.id)

        e1, e2 = end(a1), end(a2)
        if e1 == e2:
            continue
        model.dependencies.append(Dependency(
            id=f"d{len(model.dependencies) + 1}",
            depender=e1,
            dependum=Dependum(rng.choice(kinds), name("dum", len(model.dependencies)),
                              rng.choice(initial_pool)),
            dependee=e2))
        links += 1
    return model


def gen_scenario(rng: random.Random, model: GoalModel,
                 max_assignments: int = 4) -> Scenario:
    nodes = [el.id for a in model.actors for el in a.elements]
    nodes += [d.id for d in model.dependencies]
    labels = [Label.SATISFIED, Label.PARTIALLY_SATISFIED, Label.UNKNOWN,
              Label.PARTIALLY_DENIED, Label.DENIED]
    chosen = rng.sample(nodes, min(len(nodes), rng.randint(0, max_assignments)))
    return Scenario("random", {node: rng.choice(labels) for node in chosen})


# ---------------------------------------------------------------------------
# Random value models (always validate without Errors)
# ---------------------------------------------------------------------------

def gen_value_model(rng: random.Random, max_elements: int = 20,
                    plain_names: bool = False) -> ValueModel:
    def name(prefix, i):
        return f"{prefix}{i}" if plain_names else gen_name(rng, prefix, i)

    model = ValueModel(name("vm", 0))
    n_actors = rng.randint(1, 5)
    for a in range(n_actors):
        nm = name("A", a)
        actor = VActor(id=nm, name=nm)
        if a > 0 and rng.random() < 0.3:
            actor.parent = model.actors[rng.randrange(a)].id
        actor.market_segment = rng.random() < 0.2
        if rng.random() < 0.4:
            actor.layer_assignments[name("focus", 0)] = rng.choice(list(Layer))
        if rng.random() < 0.3:
            actor.bapo_tags = set(rng.sample(list(BapoTag), rng.randint(1, 4)))
        model.actors.append(actor)
    rng.choice(model.actors).api_role = True

    budget = max_elements - n_actors
    i = 0
    while budget > 0 and i < max_elements:
        if rng.random() < 0.4:
            actor = rng.choice(model.actors)
            nm = name("act", i)
            actor.activities.append(Activity(id=nm, name=nm))
            budget -= 1
        i += 1

    endpoints = [a.id for a in model.actors]
    endpoints += [act.id for a in model.actors for act in a.activities]
    kinds = list(ElementKind)
    for f in range(rng.randint(0, 8)):
        src, dst = rng.choice(endpoints), rng.choice(endpoints)
        if src == dst:
            continue
        model.flows.append(ValueFlow(
            id=f"f{len(model.flows) + 1}", source=src, target=dst,
            obj=ValueObject(name("obj", f), rng.choice(kinds)),
            status=rng.choice(list(FlowStatus)),
            group=name("g", f) if rng.random() < 0.2 else None))
    for s in range(rng.randint(0, 2)):
        nm = name("stim", s)
        model.stimuli.append(Stimulus(id=nm, name=nm,
                                      at=rng.choice(model.actors).id))
    return model


# ---------------------------------------------------------------------------
# Independent evidence-closure oracle
# ---------------------------------------------------------------------------

_ORDER = ["denied", "partden", "unknown", "partsat", "satisfied"]
_RANK = {w: i for i, w in enumerate(_ORDER)}
_L2E = {
    "satisfied": (2, 0), "partsat": (1, 0), "unknown": (0, 0),
    "partden": (0, 1), "denied": (0, 2), "conflict": (1, 1),
}
_STRENGTH_TABLE = {
    "makes": {"satisfied": (2, 0), "partsat": (1, 0),
              "partden": (0, 1), "denied": (0, 2), "conflict": (1, 1)},
    "helps": {"satisfied": (1, 0), "partsat": (1, 0),
              "partden": (0, 1), "denied": (0, 1), "conflict": (1, 1)},
    "hurts": {"satisfied": (0, 1), "partsat": (0, 1),
              "partden": (1, 0), "denied": (1, 0), "conflict": (1, 1)},
    "breaks": {"satisfied": (0, 2), "partsat": (0, 1),
               "partden": (1, 0), "denied": (2, 0), "conflict": (1, 1)},
}


def _e2l(pair: tuple[int, int]) -> str:
    pos, neg = pair
    if pos > 0 and neg > 0:
        return "conflict"
    if pos == 2:
        return "satisfied"
    if pos == 1:
        return "partsat"
    if neg == 2:
        return "denied"
    if neg == 1:
        return "partden"
    return "unknown"


def _omin(a: str, b: str) -> str:
    if "conflict" in (a, b):
        return "conflict"
    return a if _RANK[a] <= _RANK[b] else b


def _omax(a: str, b: str) -> str:
    if "conflict" in (a, b):
        return "conflict"
    return a if _RANK[a] >= _RANK[b] else b


def _closure(model: GoalModel, assignments: dict[str, Label]):
    """The references' shared start: the nodes, the pinned label words, the
    initial pairs, the rule instances, and `delivery(rule) -> (target,
    pair)`, which reads labels from the pairs as they stand."""
    nodes = [el.id for a in model.actors for el in a.elements]
    nodes += [d.id for d in model.dependencies]
    pinned = {node: lab.value for node, lab in assignments.items()}

    pairs: dict[str, tuple[int, int]] = {node: (0, 0) for node in nodes}
    for d in model.dependencies:
        if d.dependum.initial_label is not None:
            p = _L2E[d.dependum.initial_label.value]
            pairs[d.id] = (max(pairs[d.id][0], p[0]), max(pairs[d.id][1], p[1]))
    for node, word in pinned.items():
        pairs[node] = _L2E[word]

    def label_of(node: str) -> str:
        if node in pinned:
            return pinned[node]
        return _e2l(pairs[node])

    elements = {el.id: el for a in model.actors for el in a.elements}
    incoming: dict[str, list[str]] = {}
    for d in model.dependencies:
        if d.depender.element is not None and d.depender.element in elements:
            incoming.setdefault(d.depender.element, []).append(d.id)

    # (kind, payload) rule instances
    rules: list[tuple] = []
    for el in elements.values():
        if el.refinement is not None or el.id in incoming:
            rules.append(("combined", el.id))
        for c in el.contributions:
            rules.append(("contrib", el.id, c.strength.value, c.target))
    for d in model.dependencies:
        if d.dependee.element is not None and d.dependee.element in elements:
            rules.append(("dependum", d.id, d.dependee.element))

    def delivery(rule: tuple) -> tuple[str, tuple[int, int]]:
        if rule[0] == "combined":
            node = rule[1]
            el = elements[node]
            parts: list[str] = []
            if el.refinement is not None:
                fold = _omin if el.refinement.kind is RefinementKind.AND else _omax
                acc = label_of(el.refinement.children[0])
                for child in el.refinement.children[1:]:
                    acc = fold(acc, label_of(child))
                parts.append(acc)
            for dep_id in incoming.get(node, ()):
                parts.append(label_of(dep_id))
            acc = parts[0]
            for word in parts[1:]:
                acc = _omin(acc, word)
            return node, _L2E[acc]
        if rule[0] == "contrib":
            _, src, strength, target = rule
            return target, _STRENGTH_TABLE[strength].get(label_of(src), (0, 0))
        _, dep_id, dependee = rule
        return dep_id, _L2E[label_of(dependee)]

    return nodes, pinned, pairs, rules, delivery, label_of


def _merge(pairs: dict, target: str, pair: tuple[int, int]) -> bool:
    """Merge `pair` into the pair of `target`; whether it grew."""
    old = pairs[target]
    new = (max(old[0], pair[0]), max(old[1], pair[1]))
    pairs[target] = new
    return new != old


def oracle_propagate(model: GoalModel, assignments: dict[str, Label],
                     rng: random.Random) -> dict[str, str]:
    """Apply single propagation rules in random order until closure.

    `assignments` must already be keyed by node id (element or dependency
    id). Returns final label words per node.
    """
    nodes, pinned, pairs, rules, delivery, label_of = _closure(model, assignments)
    changed = True
    while changed:
        changed = False
        shuffled = rules[:]
        rng.shuffle(shuffled)
        for rule in shuffled:
            target, pair = delivery(rule)
            if target not in pinned and _merge(pairs, target, pair):
                changed = True
    return {node: label_of(node) for node in nodes}


def jacobi_propagate(model: GoalModel, assignments: dict[str, Label]
                     ) -> tuple[dict[str, str], int, set[str]]:
    """Plain Jacobi rounds over the oracle's rules: each round evaluates
    every rule from the labels the round before left and then applies all
    merges at once, until a round changes no pair.

    `assignments` is keyed by node id. Returns the final label words per
    node, the number of rounds in which a pair changed, and the overridden
    nodes: the pinned ones that some rule targets and whose delivered
    evidence, from the final labels, reads as another label."""
    nodes, pinned, pairs, rules, delivery, label_of = _closure(model, assignments)
    rounds = 0
    while True:
        delivered = [delivery(rule) for rule in rules]
        changed = False
        for target, pair in delivered:
            if target not in pinned and _merge(pairs, target, pair):
                changed = True
        if not changed:
            break
        rounds += 1
    received: dict[str, tuple[int, int]] = {}
    for target, pair in map(delivery, rules):
        if target in pinned:
            received.setdefault(target, (0, 0))
            _merge(received, target, pair)
    overridden = {node for node, pair in received.items() if _e2l(pair) != pinned[node]}
    return {node: label_of(node) for node in nodes}, rounds, overridden


# ---------------------------------------------------------------------------
# Lexer oracle: the original character-by-character scanner
# ---------------------------------------------------------------------------

_ORACLE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ORACLE_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?")
_ORACLE_PUNCT = ("->", "{", "}", "(", ")", "=", ":", ",", ".")


def oracle_tokenize(text: str, filename: str = "<input>") -> list[tuple]:
    """Reference scanner for `tokenize`: walks the text one character at a
    time. Returns `(kind, value, span)` triples, or raises `LexError` at
    the same place and with the same message as the lexer must."""
    tokens: list[tuple] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def span(l0: int, c0: int, l1: int, c1: int) -> SourceSpan:
        return SourceSpan(filename, l0, c0, l1, c1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == '"':
            l0, c0 = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise LexError("unterminated string", span(l0, c0, line, col))
                if text[i] == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise LexError("unterminated string", span(l0, c0, line, col))
            i += 1
            col += 1
            tokens.append((TokKind.STRING, "".join(buf), span(l0, c0, line, col - 1)))
            continue
        m = _ORACLE_NUMBER_RE.match(text, i)
        if m:
            lex = m.group(0)
            tokens.append((TokKind.NUMBER, lex, span(line, col, line, col + len(lex) - 1)))
            i = m.end()
            col += len(lex)
            continue
        m = _ORACLE_IDENT_RE.match(text, i)
        if m:
            lex = m.group(0)
            tokens.append((TokKind.IDENT, lex, span(line, col, line, col + len(lex) - 1)))
            i = m.end()
            col += len(lex)
            continue
        for p in _ORACLE_PUNCT:
            if text.startswith(p, i):
                tokens.append((TokKind.PUNCT, p, span(line, col, line, col + len(p) - 1)))
                i += len(p)
                col += len(p)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", span(line, col, line, col))

    tokens.append((TokKind.EOF, "", span(line, col, line, col)))
    return tokens


# ---------------------------------------------------------------------------
# DOT subset grammar checker
# ---------------------------------------------------------------------------

_DOT_TOKEN = re.compile(r'''
    "(?:[^"\\]|\\.)*"      # quoted id
  | [A-Za-z0-9_.:]+        # bare id
  | ->
  | [{}\[\]=,;]
''', re.VERBOSE)


class DotInfo:
    def __init__(self):
        self.nodes: set[str] = set()
        self.edges: list[tuple[str, str]] = []
        self.subgraphs: list[str] = []


def parse_dot(text: str) -> DotInfo:
    """Parse the DOT subset the exporter emits; raises on grammar violations."""
    pos = 0
    tokens: list[str] = []
    for m in _DOT_TOKEN.finditer(text):
        between = text[pos:m.start()]
        if between.strip():
            raise ValueError(f"unlexable DOT fragment: {between!r}")
        tokens.append(m.group(0))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"unlexable DOT trailer: {text[pos:]!r}")

    info = DotInfo()
    i = 0

    def expect(tok: str) -> None:
        nonlocal i
        if i >= len(tokens) or tokens[i] != tok:
            found = tokens[i] if i < len(tokens) else "<eof>"
            raise ValueError(f"DOT: expected {tok!r}, found {found!r}")
        i += 1

    def is_id(tok: str) -> bool:
        return tok not in ("{", "}", "[", "]", "=", ",", ";", "->")

    def attr_block() -> None:
        nonlocal i
        expect("[")
        while tokens[i] != "]":
            if not is_id(tokens[i]):
                raise ValueError(f"DOT: bad attribute name {tokens[i]!r}")
            i += 1
            expect("=")
            if not is_id(tokens[i]):
                raise ValueError(f"DOT: bad attribute value {tokens[i]!r}")
            i += 1
            if tokens[i] == ",":
                i += 1
        expect("]")

    def body() -> None:
        nonlocal i
        expect("{")
        while tokens[i] != "}":
            if tokens[i] == "subgraph":
                i += 1
                if is_id(tokens[i]):
                    info.subgraphs.append(tokens[i])
                    i += 1
                body()
                continue
            if not is_id(tokens[i]):
                raise ValueError(f"DOT: unexpected token {tokens[i]!r}")
            head = tokens[i]
            i += 1
            if tokens[i] == "=":  # graph attribute like rank=same
                i += 1
                if not is_id(tokens[i]):
                    raise ValueError(f"DOT: bad value {tokens[i]!r}")
                i += 1
            elif tokens[i] == "->":
                prev = head
                while tokens[i] == "->":
                    i += 1
                    nxt = tokens[i]
                    if not is_id(nxt):
                        raise ValueError(f"DOT: bad edge target {nxt!r}")
                    info.edges.append((prev, nxt))
                    prev = nxt
                    i += 1
                if tokens[i] == "[":
                    attr_block()
            else:
                info.nodes.add(head)
                if tokens[i] == "[":
                    attr_block()
            if tokens[i] == ";":
                i += 1
        expect("}")

    expect("digraph")
    if is_id(tokens[i]):
        i += 1
    body()
    if i != len(tokens):
        raise ValueError("DOT: trailing tokens after closing brace")
    return info
