"""Recursive-descent parsers for the model formats.

Five dialects share one lexer:

* ``valuemodel <name> { ... }``   actors, activities, flows, stimuli
* ``goalmodel <name> { ... }``    actors, elements, refinements, dependencies
* ``api <name> { ... }``          lifecycle descriptor
* ``metric <name> { ... }``*      metric catalog (one block per metric)
* ``scenario <name> { ... }``     initial labels for evaluation

`_Parser.parse` reads the ``keyword name {`` frame of the single-block
dialects. Each braced block has one table from its statement keywords to
their handlers, and `_Parser.block` is the one loop that reads a block's
statements through it; a block owns its closing brace, and a dialect ends
at its brace. A malformed
statement produces one Error diagnostic and parsing resumes at the next
keyword of the block's statement table, so several problems are reported
in one run. Every reported span points inside the offending token range.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn, Optional

from ..core import (
    Activity, AssociationKind, AssociationLink, BapoTag, ContributionStrength,
    Contribution, Dependency, DependencyEnd, Dependum, Diagnostic, ElementKind,
    FlowStatus, GActor, GElement, GoalModel, LABEL_WORDS, Layer,
    Refinement, RefinementKind, Severity, SourceSpan, Stimulus, VActor,
    ValueFlow, ValueModel, ValueObject, sort_diagnostics,
)
from ..evaluate import Scenario
from ..govern import AutomationLevel, Dimension, MetricDef
from ..lifecycle import (
    CHARACTERISTICS, ApiDescriptor, LifecycleStage, ValueCurveSample,
    curve_number_problems, curve_step_problems,
)
from ..validate import duplicate_ids, link_problems, reference_problems, self_links
from .lexer import KEYWORDS, LexError, TokKind, Token, tokenize


class ParseResult(NamedTuple):
    """Outcome of a parse: `model` is None iff an Error was reported."""

    model: Optional[object]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


class _ParseAbort(Exception):
    """Internal: unwinds to the nearest recovery point."""


_IDENT, _PUNCT, _STRING, _EOF = TokKind.IDENT, TokKind.PUNCT, TokKind.STRING, TokKind.EOF

_ELEMENT_KIND_WORDS = {k.value: k for k in ElementKind}
_REFINEMENT_WORDS = {k.value: k for k in RefinementKind}
_STRENGTH_WORDS = {s.value: s for s in ContributionStrength}
_FLOW_STATUS_WORDS = {s.value: s for s in FlowStatus if s is not FlowStatus.NORMAL}
_LAYER_WORDS = {l.value: l for l in Layer}
_BAPO_WORDS = {t.value: t for t in BapoTag}
_STAGE_WORDS = {s.value: s for s in LifecycleStage}
_DIMENSION_WORDS = {d.value: d for d in Dimension}
_AUTOMATION_WORDS = {a.value: a for a in AutomationLevel}

#: `observed` characteristic (a `Characteristics` attribute) -> its value words.
_OBSERVED_WORDS = {name: {v.value: v for v in values}
                   for name, values in CHARACTERISTICS.items()}


def _lex(text: str, filename: str) -> tuple[list[Token], list[Diagnostic]]:
    """Tokens and lexer diagnostics. A lex error becomes one E-SYNTAX
    diagnostic and a lone end-of-input token at the error's span, so the
    parser still runs and reports what it expected there."""
    try:
        return tokenize(text, filename), []
    except LexError as exc:
        s = exc.span
        eof = Token(TokKind.EOF, "", s.file, s.start_line, s.start_col, s.end_col)
        return [eof], [Diagnostic(Severity.ERROR, "E-SYNTAX", exc.message, s)]


#: `Actor` or `Actor.element` as its actor and element name tokens.
_Ref = tuple[Token, Optional[Token]]


def _ref_text(actor: Token, element: Optional[Token]) -> str:
    """`Actor.element`, or `Actor` alone when the element name is empty."""
    return f"{actor.value}.{element.value}" if element and element.value else actor.value


def _ref_span(actor: Token, element: Optional[Token]) -> SourceSpan:
    if element is None:
        return actor.span
    return SourceSpan(actor.file, actor.line, actor.col, element.line, element.end_col)


class _Parser:
    """Token cursor, dialect frame, statement loop and recovery shared by
    the dialect parsers. `pos` never moves past the end-of-input token, so
    the current token is always `tokens[pos]`. A dialect states its
    `KEYWORD`, what its name is read as (`NAME`) and its `UNEXPECTED`
    statement wording (see `block`). Its `start(name)` builds `model`, which
    handlers extend, keeping the actor being read and pending links too."""

    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.diagnostics = diagnostics
        self.pos = 0

    def parse(self) -> ParseResult:
        """`KEYWORD name { statements }` and nothing after it, then the
        dialect's `finish`."""
        try:
            self.expect(self.KEYWORD)
            self.start(self.name(self.NAME).value)
            self.expect("{")
        except _ParseAbort:
            return self.result(None)
        self.block(self.STATEMENTS, self.UNEXPECTED)
        if (tok := self.peek()).kind is not _EOF:
            self.error("E-SYNTAX", f"unexpected trailing input {tok.value!r}", tok.span)
        self.finish()
        return self.result(self.model)

    def finish(self) -> None:
        """Checks that need the whole block, once it is read."""

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def eat(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.value == value and (tok.kind is _IDENT or tok.kind is _PUNCT):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value == value and (tok.kind is _IDENT or tok.kind is _PUNCT):
            self.pos += 1
            return tok
        self.fail(repr(value), tok)

    def name(self, what: str = "name") -> Token:
        """The next token as a name. Callers take its span only where they
        keep or report it, so most names never build one."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _STRING or (kind is _IDENT and tok.value not in KEYWORDS):
            self.pos += 1
            return tok
        self.fail(what, tok)

    def number(self, what: str = "number") -> tuple[float, SourceSpan]:
        tok = self.tokens[self.pos]
        if tok.kind is TokKind.NUMBER:
            self.pos += 1
            return float(tok.value), tok.span
        self.error("E-SYNTAX", f"expected {what}, found {tok.value!r}", tok.span)
        raise _ParseAbort()

    def keyword_choice(self, words: dict, what: str):
        """The value `words` maps the next identifier to."""
        tok = self.tokens[self.pos]
        if tok.kind is _IDENT and tok.value in words:
            self.pos += 1
            return words[tok.value]
        self.fail(what, tok)

    # -- diagnostics and recovery -------------------------------------------

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))

    def fail(self, what: str, tok: Token) -> NoReturn:
        """Report that `what` was expected at `tok` and unwind."""
        shown = tok.value if tok.value else str(tok.kind.value)
        self.error("E-SYNTAX", f"expected {what}, found {shown!r}", tok.span)
        raise _ParseAbort()

    def block(self, statements: dict, unexpected: str, other=None) -> None:
        """Read a block's statements and its closing brace. `statements`
        maps each statement keyword to its handler, called as
        `handler(parser, head)` once the head is consumed. Any other head is
        passed to `other(head)` if it is a name, and is otherwise reported
        as E-SYNTAX `unexpected`, formatted with the head's `value` and with
        `shown`, the text `fail` shows for it. After an error, parsing
        resumes at the next keyword of `statements`. At the end of input the
        missing brace is reported as `fail` words it, without unwinding,
        since no enclosing block could resume there."""
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _EOF:
                self.error("E-SYNTAX", "expected '}', found 'end of input'", tok.span)
                return
            if kind is _PUNCT and tok.value == "}":
                self.pos += 1
                return
            try:
                handler = statements.get(tok.value) if kind is _IDENT else None
                if handler is not None:
                    self.pos += 1
                    handler(self, tok)
                elif other is not None and (kind is _IDENT or kind is _STRING):
                    other(tok)
                else:
                    shown = tok.value or str(kind.value)
                    self.error("E-SYNTAX", unexpected.format(value=tok.value, shown=shown),
                               tok.span)
                    raise _ParseAbort()
            except _ParseAbort:
                self.sync(statements)

    def sync(self, keywords) -> None:
        """Skip tokens until a statement keyword or block boundary."""
        depth = 0
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _EOF:
                return
            if kind is _PUNCT:
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    if depth == 0:
                        return
                    depth -= 1
            elif depth == 0 and kind is _IDENT and tok.value in keywords:
                return
            self.pos += 1

    def report_duplicates(self, model) -> None:
        """E-DUP at each declaration whose id is taken (see `duplicate_ids`)."""
        for obj in duplicate_ids(model):
            self.error("E-DUP", f"duplicate identifier {obj.id!r}", obj.span)

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def result(self, model) -> ParseResult:
        """The model unless an Error was reported, and each diagnostic once:
        a nested block and its parent both report a missing brace, and a
        statement may name one unknown actor twice."""
        diags = sort_diagnostics(list(dict.fromkeys(self.diagnostics)))
        return ParseResult(None if self.has_errors() else model, diags)

    # -- shared small rules ---------------------------------------------------

    def name_list(self) -> list[str]:
        names = [self.name().value]
        while self.eat(","):
            names.append(self.name().value)
        return names

    def parse_layer(self, kw: Token) -> None:
        """`layer(focus) = layer` in an actor body."""
        self.expect("(")
        focus = self.name("api focus").value
        self.expect(")")
        self.expect("=")
        layer = self.keyword_choice(_LAYER_WORDS, "layer (domain|usage|api|asset)")
        assignments = self.actor.layer_assignments
        if focus in assignments:
            self.error("E-DUP", f"duplicate layer assignment for focus {focus!r}", kw.span)
        assignments[focus] = layer

    def parse_bapo(self, kw: Token) -> None:
        """`bapo = tag, ...` in an actor body."""
        self.expect("=")
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is not _IDENT or tok.value not in _BAPO_WORDS:
                self.error("E-SYNTAX", f"expected BAPO tag (B|A|P|O), found {tok.value!r}",
                           tok.span)
                raise _ParseAbort()
            self.pos += 1
            self.actor.bapo_tags.add(_BAPO_WORDS[tok.value])
            if not self.eat(","):
                return

    def qualified_ref(self) -> _Ref:
        """`Actor` or `Actor.element`: the actor and element name tokens."""
        actor = self.name("actor reference")
        element = self.name("element reference") if self.eat(".") else None
        return actor, element


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

class _ValueModelParser(_Parser):
    KEYWORD, NAME = "valuemodel", "model name"
    UNEXPECTED = "expected actor, flow, or stimulus, found {value!r}"

    def start(self, name: str) -> None:
        self.model = ValueModel(name)
        self.parents: dict[int, Token] = {}  # actor identity -> its parent's name
        self.raw_flows: list[tuple[ValueFlow, _Ref, _Ref]] = []

    def parse_actor(self, kw: Token) -> None:
        name = self.name("actor name")
        actor = self.actor = VActor(id=name.value, name=name.value, span=name.span)
        if self.eat("in"):
            parent = self.parents[id(actor)] = self.name("parent actor")
            actor.parent = parent.value
        self.model.actors.append(actor)
        if self.eat("{"):
            self.block(self.ACTOR_STATEMENTS, "expected actor-body statement, found {value!r}")

    def parse_activity(self, kw: Token) -> None:
        name = self.name("activity name")
        self.actor.activities.append(Activity(id=name.value, name=name.value, span=name.span))

    def parse_api(self, kw: Token) -> None:
        self.actor.api_role = True

    def parse_market(self, kw: Token) -> None:
        self.actor.market_segment = True

    def parse_flow(self, kw: Token) -> None:
        obj_name = self.name("value object name").value
        self.expect("from")
        src = self.qualified_ref()
        self.expect("to")
        dst = self.qualified_ref()
        kind = ElementKind.RESOURCE
        if self.eat(":"):
            kind = self.keyword_choice(_ELEMENT_KIND_WORDS,
                                       "object kind (resource|task|goal|quality)")
        status = FlowStatus.NORMAL
        if self.eat("status"):
            tok = self.tokens[self.pos]
            if tok.kind is _IDENT and tok.value in _FLOW_STATUS_WORDS:
                self.pos += 1
                status = _FLOW_STATUS_WORDS[tok.value]
            else:
                self.error("E-SYNTAX",
                           f"expected problematic or missing, found {tok.value!r}", tok.span)
                raise _ParseAbort()
        group = None
        if self.eat("group"):
            group = self.name("group id").value
        flow = ValueFlow(
            id=f"f{len(self.raw_flows) + 1}",
            source=_ref_text(*src),
            target=_ref_text(*dst),
            obj=ValueObject(obj_name, kind),
            status=status,
            group=group,
            span=kw.span,
        )
        self.model.flows.append(flow)
        self.raw_flows.append((flow, src, dst))

    def parse_stimulus(self, kw: Token) -> None:
        name = self.name("stimulus name")
        self.expect("in")
        owner = self.name("owning actor").value
        self.model.stimuli.append(Stimulus(id=name.value, name=name.value, at=owner,
                                           span=name.span))

    STATEMENTS = {"actor": parse_actor, "flow": parse_flow, "stimulus": parse_stimulus}
    ACTOR_STATEMENTS = {"activity": parse_activity, "api": parse_api, "market": parse_market,
                        "layer": _Parser.parse_layer, "bapo": _Parser.parse_bapo}

    def finish(self) -> None:
        model = self.model
        self.report_duplicates(model)

        # `Actor.activity` is bound here, from the name tokens rather than the
        # joined text (names may contain dots); any other endpoint is left to
        # `reference_problems`.
        activity_owner = {act.id: a.id for a in model.actors for act in a.activities}
        ends: dict[tuple[int, str], _Ref] = {}
        for flow, src, dst in self.raw_flows:
            for attr, (owner, element) in (("source", src), ("target", dst)):
                if element is None or not element.value:
                    ends[id(flow), attr] = owner, element
                elif activity_owner.get(element.value) == owner.value:
                    setattr(flow, attr, element.value)
                else:
                    self.error("E-REF", f"unknown endpoint {getattr(flow, attr)!r}",
                               _ref_span(owner, element))
        for code, message, flow in self_links(model):
            src = next(ref for raw, ref, _ in self.raw_flows if raw is flow)
            self.error(code, message, _ref_span(*src))
        for kind, ref, owner in reference_problems(model):
            if kind == "parent":
                self.error("E-REF", f"unknown parent actor {ref!r}",
                           self.parents[id(owner)].span)
            elif kind == "cycle":
                self.error("E-CYCLE", f"partnership cycle through {ref!r}", owner.span)
            elif kind == "stimulus":
                self.error("E-REF", f"unknown actor {ref!r}", owner.span)
            elif (id(owner), kind) in ends:
                self.error("E-REF", f"unknown endpoint {ref!r}",
                           _ref_span(*ends[id(owner), kind]))


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

#: A link statement before it is placed on its source element: its actor,
#: source id, link, and the token it is reported at.
_Pending = tuple[GActor, str, Refinement | Contribution, Token]


class _GoalModelParser(_Parser):
    KEYWORD, NAME = "goalmodel", "model name"
    UNEXPECTED = "expected actor, depend, or partof, found {value!r}"

    def start(self, name: str) -> None:
        self.model = GoalModel(name, draft=self.eat("draft"))
        self.pending: list[_Pending] = []

    def parse_actor(self, kw: Token) -> None:
        name = self.name("actor name")
        self.actor = GActor(id=name.value, name=name.value, span=name.span)
        self.model.actors.append(self.actor)
        if self.eat("in"):
            # Goal models keep actors side by side; nesting syntax is
            # accepted and recorded as a part-of association.
            parent = self.name("parent actor")
            self.model.associations.append(AssociationLink(
                AssociationKind.PART_OF, name.value, parent.value, span=parent.span))
        if self.eat("{"):
            self.block(self.ACTOR_STATEMENTS, "expected actor-body statement, found {value!r}",
                       self.parse_link_stmt)

    def parse_element(self, kw: Token) -> None:
        element = self.name("element name")
        self.actor.elements.append(GElement(
            id=element.value, kind=_ELEMENT_KIND_WORDS[kw.value],
            name=element.value, span=element.span))

    def parse_link_stmt(self, head: Token) -> None:
        source = self.name("element reference")
        tok = self.tokens[self.pos]
        word = tok.value if tok.kind is _IDENT else ""
        if word in _REFINEMENT_WORDS:
            self.pos += 1
            children = tuple(self.name_list())
            self.pending.append((self.actor, source.value,
                                 Refinement(_REFINEMENT_WORDS[word], children), source))
        elif word in _STRENGTH_WORDS:
            self.pos += 1
            target = self.name("contribution target")
            self.pending.append((self.actor, source.value,
                                 Contribution(target.value, _STRENGTH_WORDS[word]), target))
        else:
            self.error("E-SYNTAX",
                       f"expected and/or/makes/helps/hurts/breaks after {source.value!r}",
                       tok.span)
            raise _ParseAbort()

    def parse_depend(self, kw: Token) -> None:
        dr_actor, dr_el = self.qualified_ref()
        self.expect("->")
        de_actor, de_el = self.qualified_ref()
        self.expect(":")
        kind = self.keyword_choice(_ELEMENT_KIND_WORDS,
                                   "dependum kind (goal|quality|task|resource)")
        dname = self.name("dependum name").value
        initial = None
        if self.eat("="):
            initial = self.keyword_choice(LABEL_WORDS, "label")
        dependencies = self.model.dependencies
        dependencies.append(Dependency(
            id=f"d{len(dependencies) + 1}",
            depender=DependencyEnd(dr_actor.value, dr_el.value if dr_el else None),
            dependum=Dependum(kind, dname, initial),
            dependee=DependencyEnd(de_actor.value, de_el.value if de_el else None),
            span=kw.span,
        ))

    def parse_partof(self, kw: Token) -> None:
        part = self.name("actor").value
        self.expect("->")
        whole = self.name("actor").value
        self.model.associations.append(AssociationLink(
            AssociationKind.PART_OF, part, whole, span=kw.span))

    STATEMENTS = {"actor": parse_actor, "depend": parse_depend, "partof": parse_partof}
    ACTOR_STATEMENTS = {**dict.fromkeys(_ELEMENT_KIND_WORDS, parse_element),
                        "layer": _Parser.parse_layer, "bapo": _Parser.parse_bapo}

    def finish(self) -> None:
        model = self.model
        self.report_duplicates(model)
        # Each actor's own elements by id, keyed by actor identity; as in the
        # model-wide map, the last declaration of a duplicate id wins.
        local_maps = {id(a): {el.id: el for el in a.elements} for a in model.actors}
        elements = {k: el for local in local_maps.values() for k, el in local.items()}

        unresolved: dict[int, list[str]] = {}  # statement token -> its unknown ids
        for kind, ref, owner in reference_problems(model, self.pending):
            if kind == "end":
                self.error("E-REF", f"unknown element {ref.element!r} in actor "
                           f"{ref.actor!r}", owner.span)
            elif kind in ("actor", "partof"):
                self.error("E-REF", f"unknown actor {ref!r}", owner.span)
            elif kind != "closed":
                unresolved.setdefault(id(owner), []).append(ref)

        # A statement is placed on its source element only if no rule
        # rejects it. An unknown source hides the rest of the statement, and
        # a refined quality hides its children.
        for actor, source, link, at in self.pending:
            missing = unresolved.get(id(at), ()) if unresolved else ()
            local = local_maps[id(actor)]
            el = None if source in missing else local[source]
            if el is None:
                self.error("E-REF", f"unknown element {source!r} in actor {actor.id!r}",
                           at.span)
                continue
            contribution = type(link) is Contribution
            if not contribution and el.refinement is not None:  # never on a quality
                self.error("E-REFINE", f"element {source!r} already has a refinement",
                           at.span)
                continue
            problems = link_problems(el, link, local, elements)
            if missing and contribution:
                problems += [("E-REF", f"unknown contribution target {ref!r}")
                             for ref in missing]
            elif missing and el.kind is not ElementKind.QUALITY:
                problems += [("E-REF", f"unknown element {ref!r} in actor {actor.id!r}")
                             for ref in missing]
            for code, message in problems:
                self.error(code, message, at.span)
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

class _ApiDescriptorParser(_Parser):
    KEYWORD, NAME = "api", "api name"
    UNEXPECTED = "expected stage, observed, curve, or rationale, found {value!r}"

    def start(self, name: str) -> None:
        self.model = ApiDescriptor(name, LifecycleStage.PLAN)
        self.staged = False  # a stage statement was read

    def finish(self) -> None:
        if not self.staged and not self.has_errors():
            self.error("E-SYNTAX", "api descriptor is missing a stage declaration",
                       self.peek().span)

    def parse_stage(self, kw: Token) -> None:
        stage = self.keyword_choice(_STAGE_WORDS, "lifecycle stage")
        if self.staged:
            self.error("E-DUP", "stage declared twice", kw.span)
        self.model.declared_stage, self.staged = stage, True

    def parse_observed(self, kw: Token) -> None:
        tok = self.peek()
        if tok.kind is not _IDENT or tok.value not in _OBSERVED_WORDS:
            self.error("E-SYNTAX", f"unknown characteristic {tok.value!r}", tok.span)
            raise _ParseAbort()
        self.pos += 1
        attr = tok.value
        values = _OBSERVED_WORDS[attr]
        vtok = self.peek()
        if vtok.kind is not _IDENT or vtok.value not in values:
            self.error("E-SYNTAX", f"unknown {attr} value {vtok.value!r}", vtok.span)
            raise _ParseAbort()
        self.pos += 1
        observed = self.model.observed
        if getattr(observed, attr) is not None:
            self.error("E-DUP", f"characteristic {attr} observed twice", tok.span)
        setattr(observed, attr, values[vtok.value])

    def parse_curve_sample(self, kw: Token) -> None:
        t, tspan = self.number("sample time")
        stage = self.keyword_choice(_STAGE_WORDS, "lifecycle stage")
        value, vspan = self.number("sample value")
        sample = ValueCurveSample(t, stage, value)
        curve = self.model.curve
        for code, message in curve_step_problems(curve[-1] if curve else None, sample):
            self.error(code, message, vspan if code == "E-RANGE" else tspan)
        for field, code, message in curve_number_problems(sample):
            self.error(code, message, tspan if field == "time" else vspan)
        curve.append(sample)

    def parse_rationale(self, kw: Token) -> None:
        self.model.transition_rationales.append(self.name("rationale tag").value)

    STATEMENTS = {"stage": parse_stage, "observed": parse_observed,
                  "curve": parse_curve_sample, "rationale": parse_rationale}


# ---------------------------------------------------------------------------
# Metric catalogs
# ---------------------------------------------------------------------------

def _metric_field(read):
    """The handler of a metric field whose value `read(parser)` parses. A
    field may be given once per metric."""
    def handler(self, kw: Token) -> None:
        if kw.value in self.seen:
            self.error("E-DUP", f"metric field {kw.value} given twice", kw.span)
        self.seen.add(kw.value)
        setattr(self.metric, kw.value, read(self))
    return handler


class _MetricCatalogParser(_Parser):
    KEYWORD = "metric"

    def parse(self) -> ParseResult:
        metrics: list[MetricDef] = []
        names: dict[str, SourceSpan] = {}
        while (tok := self.peek()).kind is not _EOF:
            try:
                if tok.value != "metric" or tok.kind is not _IDENT:
                    self.error("E-SYNTAX", f"expected metric block, found {tok.value!r}",
                               tok.span)
                    raise _ParseAbort()
                self.pos += 1
                self.parse_metric(metrics, names)
            except _ParseAbort:
                self.sync({"metric"})
                self.eat("}")  # sync stops at a stray top-level brace
        return self.result(metrics)

    def parse_metric(self, metrics: list[MetricDef],
                     names: dict[str, SourceSpan]) -> None:
        tok = self.name("metric name")
        name, span = tok.value, tok.span
        if name in names:
            self.error("E-DUP", f"duplicate metric {name!r}", span)
        names[name] = span
        self.metric = MetricDef(name=name, span=span)
        self.expect("{")
        self.seen: set[str] = set()  # the fields given so far
        self.block(self.STATEMENTS, "unknown metric field {value!r}")
        metrics.append(self.metric)

    def read_text(self) -> str:
        return self.name("text").value

    def read_dimensions(self) -> set[Dimension]:
        dims = set()
        while True:
            dims.add(self.keyword_choice(
                _DIMENSION_WORDS, "dimension (business|usage|design|implementation)"))
            if not self.eat(","):
                return dims

    def read_automation(self) -> AutomationLevel:
        return self.keyword_choice(
            _AUTOMATION_WORDS, "automation level (automatable|partial|manual)")

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
    UNEXPECTED = "expected 'label', found {shown!r}"

    def start(self, name: str) -> None:
        self.model = Scenario(name)

    def parse_label(self, kw: Token) -> None:
        target = self.name("element or dependum id")
        self.expect("=")
        label = self.keyword_choice(LABEL_WORDS, "label")
        assignments = self.model.assignments
        if target.value in assignments:
            self.error("E-DUP", f"label assigned twice for {target.value!r}", target.span)
        assignments[target.value] = label

    STATEMENTS = {"label": parse_label}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_value_model(text: str, filename: str = "<input>") -> ParseResult:
    return _ValueModelParser(*_lex(text, filename)).parse()


def parse_goal_model(text: str, filename: str = "<input>") -> ParseResult:
    return _GoalModelParser(*_lex(text, filename)).parse()


def parse_api_descriptor(text: str, filename: str = "<input>") -> ParseResult:
    return _ApiDescriptorParser(*_lex(text, filename)).parse()


def parse_metric_catalog(text: str, filename: str = "<input>") -> ParseResult:
    return _MetricCatalogParser(*_lex(text, filename)).parse()


def parse_scenario(text: str, filename: str = "<input>") -> ParseResult:
    return _ScenarioParser(*_lex(text, filename)).parse()


#: Leading keyword -> parser class, for `parse_model`.
_DISPATCH = {cls.KEYWORD: cls for cls in (_ValueModelParser, _GoalModelParser,
                                          _ApiDescriptorParser, _MetricCatalogParser,
                                          _ScenarioParser)}


def parse_model(text: str, filename: str = "<input>") -> ParseResult:
    """Parse any supported format, dispatching on the leading keyword. The
    text is lexed once and the tokens go to the dialect's parser."""
    tokens, diagnostics = _lex(text, filename)
    if diagnostics:
        return ParseResult(None, diagnostics)
    head = tokens[0]
    parser = _DISPATCH.get(head.value) if head.kind is _IDENT else None
    if parser is None:
        return ParseResult(None, [Diagnostic(
            Severity.ERROR, "E-SYNTAX",
            f"unrecognized model format (found {head.value!r})", head.span)])
    return parser(tokens, diagnostics).parse()
