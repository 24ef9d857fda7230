"""Recursive-descent parsers for the model formats.

Five dialects share one lexer:

* ``valuemodel <name> { ... }``   actors, activities, flows, stimuli
* ``goalmodel <name> { ... }``    actors, elements, refinements, dependencies
* ``api <name> { ... }``          lifecycle descriptor
* ``metric <name> { ... }``*      metric catalog (one block per metric)
* ``scenario <name> { ... }``     initial labels for evaluation

Every entry point goes through `_parse`, which lexes the text once and
returns a lex error as the result's only diagnostic; `parse_model` picks the
dialect by the leading keyword there. `_Parser.parse` reads the
``keyword name {`` frame of the single-block dialects. Each braced block has
one table from its statement keywords to their handlers, and `_Parser.block`
is the one loop that reads a block's statements through it; a block owns its
closing brace, and a dialect ends at its brace. The reserved words,
`KEYWORDS`, are read off these tables too. `_Parser.fail` words every
``expected X, found Y``, and a token with no text is shown by its kind
(``'end of input'``). Where X lists choices, the list is read off the table
the parser reads there (`_Parser.keyword_choice`, `_Parser.block`,
`parse_model`'s dispatch), so it names exactly the words accepted. A
malformed statement produces one Error diagnostic and parsing resumes at the
next keyword of the block's statement table, so several problems are
reported in one run. Every reported span points inside the offending token
range.
"""

import re
from functools import cache

from ..core import (
    Activity, ApimodError, AssociationKind, AssociationLink, AutomationLevel, BapoTag,
    ContributionStrength, Contribution, Dependency, DependencyEnd, Dependum,
    Diagnostic, Dimension, ElementKind, FlowStatus, GActor, GElement, GoalModel,
    LABEL_WORDS, Layer, MetricDef, Refinement, RefinementKind, Scenario, Severity,
    SourceSpan, Stimulus, TupleRecord, VActor, ValueFlow, ValueModel, ValueObject,
    sort_diagnostics, tuple_new,
)
from ..validate import (
    duplicate_diagnostics, link_problems, link_references, names, reference_diagnostic,
    reference_problems, self_links,
)
from . import lexer
from .lexer import LexError, TokKind, Tokens, tokenize


class ParseResult(TupleRecord):
    """Outcome of a parse: `model` is None iff an Error was reported."""

    __slots__ = ()
    model: object | None
    diagnostics: list[Diagnostic]

    def __new__(cls, model, diagnostics):
        return tuple_new(cls, (model, diagnostics))

    @property
    def ok(self) -> bool:
        return self.model is not None


class _ParseAbort(Exception):
    """Internal: unwinds to the nearest recovery point."""


_IDENT, _PUNCT, _STRING, _EOF = TokKind.IDENT, TokKind.PUNCT, TokKind.STRING, TokKind.EOF

_ELEMENT_KIND_WORDS = {k.value: k for k in ElementKind}
_LINK_WORDS = {k.value: k for kinds in (RefinementKind, ContributionStrength) for k in kinds}
_FLOW_STATUS_WORDS = {s.value: s for s in FlowStatus if s is not FlowStatus.NORMAL}
_LAYER_WORDS = {l.value: l for l in Layer}
_BAPO_WORDS = {t.value: t for t in BapoTag}
_DIMENSION_WORDS = {d.value: d for d in Dimension}
_AUTOMATION_WORDS = {a.value: a for a in AutomationLevel}


#: `Actor` or `Actor.element` as the positions of its actor and element
#: name tokens; `span(*ref)` covers both.
_Ref = tuple[int, int | None]


class _Parser:
    """Token cursor, dialect frame, statement loop and recovery shared by
    the dialect parsers. Tokens are read by position: `pos` never moves past
    the end-of-input token, so the current token is always `kinds[pos]` and
    `values[pos]`, and `span(first, last)` is built only for a token that is
    kept or reported. Handlers and helpers pass positions. A dialect states its
    `KEYWORD`, what its name is read as (`NAME`) and its `STATEMENTS` table
    (see `block`). Its `start(name)` builds `model`, which handlers extend,
    keeping the actor being read and pending links too."""

    def __init__(self, tokens: Tokens):
        self.kinds, self.values, self.span = tokens.kinds, tokens.values, tokens.span
        self.diagnostics: list[Diagnostic] = []
        self.pos = 0

    def parse(self) -> ParseResult:
        """`KEYWORD name { statements }` and nothing after it, then the
        dialect's `finish`."""
        try:
            self.expect(self.KEYWORD)
            self.start(self.text(self.NAME))
            self.expect("{")
        except _ParseAbort:
            return self.result(None)
        self.block(self.STATEMENTS)
        if self.kinds[pos := self.pos] is not _EOF:
            self.fail("end of input", pos)
        self.finish()
        return self.result(self.model)

    def finish(self) -> None:
        """Checks that need the whole block, once it is read."""

    # -- token helpers ------------------------------------------------------

    def eat(self, value: str) -> bool:
        pos = self.pos
        if self.values[pos] == value and ((kind := self.kinds[pos]) is _IDENT
                                          or kind is _PUNCT):
            self.pos = pos + 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.eat(value):
            raise self.fail(repr(value), self.pos)

    def name(self, what: str = "name") -> int:
        """The position of the next token, read as a name."""
        pos = self.pos
        kind = self.kinds[pos]
        if kind is _STRING or (kind is _IDENT and self.values[pos] not in KEYWORDS):
            self.pos = pos + 1
            return pos
        raise self.fail(what, pos)

    def number(self, what: str = "number") -> tuple[float, SourceSpan]:
        pos = self.pos
        if self.kinds[pos] is TokKind.NUMBER:
            self.pos = pos + 1
            return float(self.values[pos]), self.span(pos)
        raise self.fail(what, pos)

    def keyword_choice(self, words: dict, what: str):
        """The value `words` maps the next identifier to; a failure names
        `what` and lists the words of `words` as its choices."""
        pos = self.pos
        if self.kinds[pos] is _IDENT and (word := self.values[pos]) in words:
            self.pos = pos + 1
            return words[word]
        raise self.fail(f"{what} ({'|'.join(words)})", pos)

    # -- diagnostics and recovery -------------------------------------------

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))

    def fail(self, what: str, pos: int) -> _ParseAbort:
        """Report that `what` was expected at token `pos`, showing the token
        by its value, or by its kind if the value is empty; raise what it
        returns to unwind."""
        found = self.values[pos] or self.kinds[pos].value
        self.error("E-SYNTAX", f"expected {what}, found {found!r}", self.span(pos))
        return _ParseAbort()

    def block(self, statements: dict, other=None) -> None:
        """Read a block's statements and its closing brace. `statements`
        maps each statement keyword to its handler, called as
        `handler(parser, head)` once the head is consumed. `other`, if
        given, is a `(what, handler)` pair: another identifier or string
        head is read by `name(what)` and its position passed to `handler`.
        Any other head is reported through `fail` as an expected statement,
        listing the keywords of `statements`, then `or what` if `other` is
        given. After an error, parsing resumes at the next keyword of
        `statements`. At the end of input the missing brace is reported
        through `fail` without unwinding, since no enclosing block could
        resume there."""
        kinds, values = self.kinds, self.values
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind is _EOF:
                self.fail("'}'", pos)
                return
            value = values[pos]
            if kind is _PUNCT and value == "}":
                self.pos = pos + 1
                return
            try:
                handler = statements.get(value) if kind is _IDENT else None
                if handler is not None:
                    self.pos = pos + 1
                    handler(self, pos)
                elif other is not None and (kind is _IDENT or kind is _STRING):
                    what, handler = other
                    handler(self.name(what))
                else:
                    alternative = "" if other is None else f" or {other[0]}"
                    raise self.fail(f"statement ({'|'.join(statements)}){alternative}", pos)
            except _ParseAbort:
                self.sync(statements)

    def sync(self, keywords) -> None:
        """Skip tokens until a statement keyword or block boundary."""
        depth = 0
        kinds, values = self.kinds, self.values
        while True:
            kind = kinds[self.pos]
            if kind is _EOF:
                return
            if kind is _PUNCT:
                if values[self.pos] == "{":
                    depth += 1
                elif values[self.pos] == "}":
                    if depth == 0:
                        return
                    depth -= 1
            elif depth == 0 and kind is _IDENT and values[self.pos] in keywords:
                return
            self.pos += 1

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def result(self, model) -> ParseResult:
        """The model unless an Error was reported, and each diagnostic once:
        a nested block and its parent both report a missing brace."""
        diags = sort_diagnostics(list(dict.fromkeys(self.diagnostics)))
        return ParseResult(None if self.has_errors() else model, diags)

    # -- shared small rules ---------------------------------------------------

    def text(self, what: str = "name") -> str:
        """The next token's value, read as a name."""
        return self.values[self.name(what)]

    def ref_text(self, ref: _Ref) -> str:
        """`Actor.element`, or `Actor` alone when the element name is empty."""
        actor, element = (None if pos is None else self.values[pos] for pos in ref)
        return f"{actor}.{element}" if element else actor

    def name_list(self) -> list[str]:
        """`name, name, ...`; refinements list up to hundreds of children."""
        kinds, values = self.kinds, self.values
        names = [values[self.name()]]
        while values[pos := self.pos] == "," and kinds[pos] is _PUNCT:
            self.pos = pos + 1
            names.append(values[self.name()])
        return names

    def parse_layer(self, kw: int) -> None:
        """`layer(focus) = layer` in an actor body."""
        self.expect("(")
        focus = self.text("api focus")
        self.expect(")")
        self.expect("=")
        layer = self.keyword_choice(_LAYER_WORDS, "layer")
        assignments = self.actor.layer_assignments
        if focus in assignments:
            self.error("E-DUP", f"duplicate layer assignment for focus {focus!r}",
                       self.span(kw))
        assignments[focus] = layer

    def parse_bapo(self, kw: int) -> None:
        """`bapo = tag, ...` in an actor body."""
        self.expect("=")
        while True:
            self.actor.bapo_tags.add(self.keyword_choice(_BAPO_WORDS, "BAPO tag"))
            if not self.eat(","):
                return

    def qualified_ref(self) -> _Ref:
        """`Actor` or `Actor.element`: the positions of its name tokens."""
        actor = self.name("actor reference")
        element = self.name("element reference") if self.eat(".") else None
        return actor, element


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

class _ValueModelParser(_Parser):
    KEYWORD, NAME = "valuemodel", "model name"

    def start(self, name: str) -> None:
        self.model = ValueModel(name)
        self.parents: dict[int, int] = {}  # actor identity -> its parent's name token
        self.raw_flows: list[tuple[ValueFlow, _Ref, _Ref]] = []

    def parse_actor(self, kw: int) -> None:
        name = self.name("actor name")
        value = self.values[name]
        actor = self.actor = VActor(id=value, name=value, span=self.span(name))
        if self.eat("in"):
            parent = self.parents[id(actor)] = self.name("parent actor")
            actor.parent = self.values[parent]
        self.model.actors.append(actor)
        if self.eat("{"):
            self.block(self.ACTOR_STATEMENTS)

    def parse_activity(self, kw: int) -> None:
        name = self.name("activity name")
        value = self.values[name]
        self.actor.activities.append(Activity(value, value, self.span(name)))

    def parse_api(self, kw: int) -> None:
        self.actor.api_role = True

    def parse_market(self, kw: int) -> None:
        self.actor.market_segment = True

    def parse_flow(self, kw: int) -> None:
        obj_name = self.text("value object name")
        self.expect("from")
        src = self.qualified_ref()
        self.expect("to")
        dst = self.qualified_ref()
        kind = ElementKind.RESOURCE
        if self.eat(":"):
            kind = self.keyword_choice(_ELEMENT_KIND_WORDS, "object kind")
        status = FlowStatus.NORMAL
        if self.eat("status"):
            status = self.keyword_choice(_FLOW_STATUS_WORDS, "flow status")
        group = None
        if self.eat("group"):
            group = self.text("group id")
        flow = ValueFlow(
            id=f"f{len(self.raw_flows) + 1}",
            source=self.ref_text(src),
            target=self.ref_text(dst),
            obj=ValueObject(obj_name, kind),
            status=status,
            group=group,
            span=self.span(kw),
        )
        self.model.flows.append(flow)
        self.raw_flows.append((flow, src, dst))

    def parse_stimulus(self, kw: int) -> None:
        name = self.name("stimulus name")
        self.expect("in")
        owner = self.text("owning actor")
        value = self.values[name]
        self.model.stimuli.append(Stimulus(id=value, name=value, at=owner,
                                           span=self.span(name)))

    STATEMENTS = {"actor": parse_actor, "flow": parse_flow, "stimulus": parse_stimulus}
    ACTOR_STATEMENTS = {"activity": parse_activity, "api": parse_api, "market": parse_market,
                        "layer": _Parser.parse_layer, "bapo": _Parser.parse_bapo}

    def finish(self) -> None:
        model = self.model
        found = names(model)
        self.diagnostics += duplicate_diagnostics(found)

        # `Actor.activity` is bound here, from the name tokens rather than the
        # joined text (names may contain dots); any other endpoint is left to
        # `reference_problems`.
        values = self.values
        ends: dict[tuple[int, str], _Ref] = {}
        for flow, src, dst in self.raw_flows:
            for attr, ref in (("source", src), ("target", dst)):
                owner, element = ref
                if element is None or not values[element]:
                    ends[id(flow), attr] = ref
                elif found.owner.get(values[element]) == values[owner]:
                    setattr(flow, attr, values[element])
                else:
                    self.error("E-REF", f"unknown endpoint {getattr(flow, attr)!r}",
                               self.span(*ref))
        for code, message, flow in self_links(model):
            src = next(ref for raw, ref, _ in self.raw_flows if raw is flow)
            self.error(code, message, self.span(*src))
        for kind, ref, owner in reference_problems(model, found):
            if kind == "parent":
                self.error("E-REF", f"unknown parent actor {ref!r}",
                           self.span(self.parents[id(owner)]))
            elif kind == "cycle":
                self.diagnostics.append(reference_diagnostic(kind, ref, owner))
            elif kind == "stimulus":
                self.error("E-REF", f"unknown actor {ref!r}", owner.span)
            elif (id(owner), kind) in ends:
                self.error("E-REF", f"unknown endpoint {ref!r}",
                           self.span(*ends[id(owner), kind]))


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

#: A link statement before it is placed on its source element: its actor,
#: source id, link, and the position of the token it is reported at.
_Pending = tuple[GActor, str, Refinement | Contribution, int]


class _GoalModelParser(_Parser):
    KEYWORD, NAME = "goalmodel", "model name"

    def start(self, name: str) -> None:
        self.model = GoalModel(name, draft=self.eat("draft"))
        self.pending: list[_Pending] = []

    def parse_actor(self, kw: int) -> None:
        pos = self.name("actor name")
        name = self.values[pos]
        self.actor = GActor(id=name, name=name, span=self.span(pos))
        self.model.actors.append(self.actor)
        if self.eat("in"):
            # Goal models keep actors side by side; nesting syntax is
            # accepted and recorded as a part-of association.
            parent = self.name("parent actor")
            self.model.associations.append(AssociationLink(
                AssociationKind.PART_OF, name, self.values[parent], span=self.span(parent)))
        if self.eat("{"):
            self.block(self.ACTOR_STATEMENTS, ("element reference", self.parse_link_stmt))

    def parse_element(self, kw: int) -> None:
        element = self.name("element name")
        value = self.values[element]
        # By position, in `__init__`'s order: keywords cost a record 0.3 µs.
        self.actor.elements.append(GElement(
            value, _ELEMENT_KIND_WORDS[self.values[kw]], value, None, None, self.span(element)))

    def parse_link_stmt(self, source: int) -> None:
        kind = self.keyword_choice(_LINK_WORDS, "link")
        values = self.values
        if type(kind) is RefinementKind:
            children = tuple(self.name_list())
            self.pending.append((self.actor, values[source],
                                 Refinement(kind, children), source))
        else:
            target = self.name("contribution target")
            self.pending.append((self.actor, values[source],
                                 Contribution(values[target], kind), target))

    def parse_depend(self, kw: int) -> None:
        dr_actor, dr_el = self.qualified_ref()
        self.expect("->")
        de_actor, de_el = self.qualified_ref()
        self.expect(":")
        kind = self.keyword_choice(_ELEMENT_KIND_WORDS, "dependum kind")
        dname = self.text("dependum name")
        initial = None
        if self.eat("="):
            initial = self.keyword_choice(LABEL_WORDS, "label")
        values = self.values
        dependencies = self.model.dependencies
        dependencies.append(Dependency(
            id=f"d{len(dependencies) + 1}",
            depender=DependencyEnd(values[dr_actor], None if dr_el is None else values[dr_el]),
            dependum=Dependum(kind, dname, initial),
            dependee=DependencyEnd(values[de_actor], None if de_el is None else values[de_el]),
            span=self.span(kw),
        ))

    def parse_partof(self, kw: int) -> None:
        part = self.text("actor")
        self.expect("->")
        whole = self.text("actor")
        self.model.associations.append(AssociationLink(
            AssociationKind.PART_OF, part, whole, span=self.span(kw)))

    STATEMENTS = {"actor": parse_actor, "depend": parse_depend, "partof": parse_partof}
    ACTOR_STATEMENTS = {**dict.fromkeys(_ELEMENT_KIND_WORDS, parse_element),
                        "layer": _Parser.parse_layer, "bapo": _Parser.parse_bapo}

    def finish(self) -> None:
        model = self.model
        found = names(model)
        self.diagnostics += duplicate_diagnostics(found)
        members, elements = found.members, found.nodes

        # No link is placed yet: these are the dependencies' and part-of
        # links' problems, and an end in a closed actor is left to validation.
        for kind, ref, owner in reference_problems(model, found):
            if kind == "end":
                self.error("E-REF", f"unknown element {ref.element!r} in actor "
                           f"{ref.actor!r}", owner.span)
            elif kind in ("actor", "partof"):
                self.error("E-REF", f"unknown actor {ref!r}", owner.span)

        # A statement is placed on its source element only if no rule
        # rejects it. An unknown source hides the rest of the statement, and
        # a refined quality hides its children.
        for actor, source, link, at in self.pending:
            local = members[id(actor)]
            el = local.get(source)
            if el is None:
                self.error("E-REF", f"unknown element {source!r} in actor {actor.id!r}",
                           self.span(at))
                continue
            contribution = type(link) is Contribution
            if not contribution and el.refinement is not None:  # never on a quality
                self.error("E-REFINE", f"element {source!r} already has a refinement",
                           self.span(at))
                continue
            problems = link_problems(el, link, local, elements)
            missing = link_references(link, local, elements)
            if missing and contribution:
                problems += [("E-REF", f"unknown contribution target {ref!r}")
                             for ref in missing]
            elif missing and el.kind is not ElementKind.QUALITY:
                problems += [("E-REF", f"unknown element {ref!r} in actor {actor.id!r}")
                             for ref in missing]
            for code, message in problems:
                self.error(code, message, self.span(at))
            if problems:
                continue
            if contribution:
                el.contributions.append(link)
            else:
                el.refinement = link

        for code, message, dep in self_links(model):
            self.error(code, message, dep.span)


# ---------------------------------------------------------------------------
# API descriptors
# ---------------------------------------------------------------------------

@cache
def _api_words() -> tuple[dict, dict]:
    """The `api` dialect's keyword tables, built by its first parse, so that
    no other dialect loads `lifecycle`: the stage words, and each `observed`
    characteristic (a `Characteristics` attribute) with its value words."""
    from ..lifecycle import CHARACTERISTICS, LifecycleStage
    return ({s.value: s for s in LifecycleStage},
            {name: {v.value: v for v in values} for name, values in CHARACTERISTICS.items()})


class _ApiDescriptorParser(_Parser):
    KEYWORD, NAME = "api", "api name"

    def start(self, name: str) -> None:
        from ..lifecycle import ApiDescriptor, LifecycleStage
        self.stage_words, self.observed_words = _api_words()
        self.model = ApiDescriptor(name, LifecycleStage.PLAN)
        self.staged = False  # a stage statement was read

    def finish(self) -> None:
        if not self.staged and not self.has_errors():
            self.error("E-SYNTAX", "api descriptor is missing a stage declaration",
                       self.span(self.pos))

    def parse_stage(self, kw: int) -> None:
        stage = self.keyword_choice(self.stage_words, "lifecycle stage")
        if self.staged:
            self.error("E-DUP", "stage declared twice", self.span(kw))
        self.model.declared_stage, self.staged = stage, True

    def parse_observed(self, kw: int) -> None:
        pos = self.pos
        words = self.keyword_choice(self.observed_words, "characteristic")
        attr, observed = self.values[pos], self.model.observed
        value = self.keyword_choice(words, f"{attr} value")
        if getattr(observed, attr) is not None:
            self.error("E-DUP", f"characteristic {attr} observed twice", self.span(pos))
        setattr(observed, attr, value)

    def parse_curve_sample(self, kw: int) -> None:
        from ..lifecycle import ValueCurveSample, curve_number_problems, curve_step_problems
        t, tspan = self.number("sample time")
        stage = self.keyword_choice(self.stage_words, "lifecycle stage")
        value, vspan = self.number("sample value")
        sample = ValueCurveSample(t, stage, value)
        curve = self.model.curve
        for code, message in curve_step_problems(curve[-1] if curve else None, sample):
            self.error(code, message, vspan if code == "E-RANGE" else tspan)
        for field, code, message in curve_number_problems(sample):
            self.error(code, message, tspan if field == "time" else vspan)
        curve.append(sample)

    def parse_rationale(self, kw: int) -> None:
        self.model.transition_rationales.append(self.text("rationale tag"))

    STATEMENTS = {"stage": parse_stage, "observed": parse_observed,
                  "curve": parse_curve_sample, "rationale": parse_rationale}


# ---------------------------------------------------------------------------
# Metric catalogs
# ---------------------------------------------------------------------------

def _metric_field(read):
    """The handler of a metric field whose value `read(parser)` parses. A
    field may be given once per metric."""
    def handler(self, kw: int) -> None:
        field = self.values[kw]
        if field in self.seen:
            self.error("E-DUP", f"metric field {field} given twice", self.span(kw))
        self.seen.add(field)
        setattr(self.metric, field, read(self))
    return handler


class _MetricCatalogParser(_Parser):
    KEYWORD = "metric"

    def parse(self) -> ParseResult:
        metrics: list[MetricDef] = []
        names: dict[str, SourceSpan] = {}
        while self.kinds[pos := self.pos] is not _EOF:
            try:
                if not self.eat("metric"):
                    raise self.fail("metric block", pos)
                self.parse_metric(metrics, names)
            except _ParseAbort:
                self.sync({"metric"})
                self.eat("}")  # sync stops at a stray top-level brace
        return self.result(metrics)

    def parse_metric(self, metrics: list[MetricDef],
                     names: dict[str, SourceSpan]) -> None:
        pos = self.name("metric name")
        name, span = self.values[pos], self.span(pos)
        if name in names:
            self.error("E-DUP", f"duplicate metric {name!r}", span)
        names[name] = span
        self.metric = MetricDef(name=name, span=span)
        self.expect("{")
        self.seen: set[str] = set()  # the fields given so far
        self.block(self.STATEMENTS)
        metrics.append(self.metric)

    def read_text(self) -> str:
        return self.text("text")

    def read_dimensions(self) -> set[Dimension]:
        dims = set()
        while True:
            dims.add(self.keyword_choice(_DIMENSION_WORDS, "dimension"))
            if not self.eat(","):
                return dims

    def read_automation(self) -> AutomationLevel:
        return self.keyword_choice(_AUTOMATION_WORDS, "automation level")

    STATEMENTS = {
        "what": _metric_field(read_text), "why": _metric_field(read_text),
        "who": _metric_field(_Parser.name_list), "where": _metric_field(_Parser.name_list),
        "links": _metric_field(_Parser.name_list),
        "dimensions": _metric_field(read_dimensions),
        "automation": _metric_field(read_automation),
    }


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

class _ScenarioParser(_Parser):
    KEYWORD, NAME = "scenario", "scenario name"

    def start(self, name: str) -> None:
        self.model = Scenario(name)

    def parse_label(self, kw: int) -> None:
        pos = self.name("element or dependum id")
        self.expect("=")
        label = self.keyword_choice(LABEL_WORDS, "label")
        target, assignments = self.values[pos], self.model.assignments
        if target in assignments:
            self.error("E-DUP", f"label assigned twice for {target!r}", self.span(pos))
        assignments[target] = label

    STATEMENTS = {"label": parse_label}


#: The clean-scenario reader's patterns, compiled by its first call: the
#: `scenario NAME {` header, and one `label NAME = WORD` statement or the
#: closing brace and the end of the text. A gap is blanks and comments; a
#: comment runs to the end of its line, so a gap splits one way only. A
#: keyword may not be followed by an identifier character, since the lexer
#: would read both as one identifier. A name is a bare identifier (group 1)
#: or a string body (group 2); group 3 is the label word.
_clean_scenario: tuple | None = None


def _clean_name(bare: str | None, body: str | None) -> str | None:
    """A name the reader matched, or None for a bare keyword."""
    if bare is None:
        return lexer.unescape(body) if "\\" in body else body
    return None if bare in KEYWORDS else bare


def _read_clean_scenario(text: str) -> Scenario | None:
    """The scenario `text` holds, read one statement per match with no
    tokens, if it is clean: `scenario NAME { (label NAME = WORD)* }` with no
    bare name a keyword, every WORD a label word and no target repeated.
    Otherwise None, and `_ScenarioParser` reads the text and words its
    diagnostics."""
    global _clean_scenario
    if _clean_scenario is None:
        gap = rf"[{lexer.BLANK}]*(?:{lexer.COMMENT}(?!.)[{lexer.BLANK}]*)*"
        name = rf'(?:({lexer.IDENT})|"({lexer.STRING_BODY})")'
        end = "(?![A-Za-z0-9_])"
        keyword, (label,) = _ScenarioParser.KEYWORD, _ScenarioParser.STATEMENTS
        _clean_scenario = (
            re.compile(rf"{gap}{keyword}{end}{gap}{name}{gap}\{{"),
            re.compile(rf"{gap}(?:{label}{end}{gap}{name}{gap}={gap}({lexer.IDENT})|\}}{gap}\Z)"))
    header, statement = _clean_scenario
    m = header.match(text)
    if m is None or (name := _clean_name(*m.groups())) is None:
        return None
    scenario = Scenario(name)
    assignments = scenario.assignments
    match = statement.match
    while (m := match(text, m.end())) is not None:
        bare, body, word = m.groups()
        if word is None:  # the closing brace
            return scenario
        target = _clean_name(bare, body)
        if target is None or target in assignments or (label := LABEL_WORDS.get(word)) is None:
            return None
        assignments[target] = label
    return None


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

#: Leading keyword -> parser class, for `parse_model`.
_DISPATCH = {cls.KEYWORD: cls for cls in (_ValueModelParser, _GoalModelParser,
                                          _ApiDescriptorParser, _MetricCatalogParser,
                                          _ScenarioParser)}

#: Reserved words across all dialects: the dialect keywords, every block's
#: statement keywords, the link words and the words handlers read with `eat`
#: or `expect`. A name equal to one is written quoted.
KEYWORDS = frozenset().union(
    _DISPATCH, _LINK_WORDS, ("in", "from", "to", "status", "group", "draft"),
    *[getattr(cls, table, ()) for cls in _DISPATCH.values()
      for table in ("STATEMENTS", "ACTOR_STATEMENTS")])


def is_bare_name(s: str) -> bool:
    """True if `s` can be printed unquoted: an IDENT token that is no keyword.
    An ASCII identifier is exactly `[A-Za-z_][A-Za-z0-9_]*`."""
    return s.isascii() and s.isidentifier() and s not in KEYWORDS


def quote_name(s: str) -> str:
    """`s` as the text formats write a name; a line break cannot be written."""
    if is_bare_name(s):
        return s
    if "\n" in s:
        raise ApimodError(f"name {s!r} contains a line break and cannot be printed")
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parse(parser: type[_Parser] | None, text: str, filename: str) -> ParseResult:
    """Every entry point's front door: lex `text` once, and run `parser` on
    its tokens, or the parser its leading keyword names when `parser` is
    None. A lex error is the result's only diagnostic."""
    try:
        tokens = tokenize(text, filename)
    except LexError as exc:
        return ParseResult(None, [Diagnostic(Severity.ERROR, "E-SYNTAX", exc.message, exc.span)])
    if parser is None:
        parser = _DISPATCH.get(tokens.values[0]) if tokens.kinds[0] is _IDENT else None
        if parser is None:
            front = _Parser(tokens)
            front.fail(f"model ({'|'.join(_DISPATCH)})", 0)
            return front.result(None)
    return parser(tokens).parse()


def parse_value_model(text: str, filename: str = "<input>") -> ParseResult:
    return _parse(_ValueModelParser, text, filename)


def parse_goal_model(text: str, filename: str = "<input>") -> ParseResult:
    return _parse(_GoalModelParser, text, filename)


def parse_api_descriptor(text: str, filename: str = "<input>") -> ParseResult:
    return _parse(_ApiDescriptorParser, text, filename)


def parse_metric_catalog(text: str, filename: str = "<input>") -> ParseResult:
    return _parse(_MetricCatalogParser, text, filename)


def parse_scenario(text: str, filename: str = "<input>") -> ParseResult:
    """A clean scenario is read without tokens; any other text goes to the
    token parser, which words every diagnostic."""
    scenario = _read_clean_scenario(text)
    if scenario is not None:
        return ParseResult(scenario, [])
    return _parse(_ScenarioParser, text, filename)


def parse_model(text: str, filename: str = "<input>") -> ParseResult:
    """Parse any supported format, dispatching on the leading keyword."""
    return _parse(None, text, filename)
