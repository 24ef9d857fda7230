"""Shared domain types: the qualitative label lattice, evidence pairs,
diagnostics, and the value-model / goal-model object structures.

One rule holds for records across the package: a record is a tuple record
(a :class:`TupleRecord`) unless code or tests change it in place (assign to
it or fill its lists) or it leaves `span` out of equality; then it is a
:class:`Record`, as every model object is. No module imports `dataclasses`
or `typing`, and no record is a `typing.NamedTuple`: importing them and
generating each class's methods cost a CLI call more than the call's own
work.
"""

from enum import Enum, IntEnum
from operator import attrgetter, itemgetter

try:  # the C field getter that `collections.namedtuple` reads fields with
    from _collections import _tuplegetter
except ImportError:  # as `collections` falls back
    def _tuplegetter(index: int, doc: str) -> property:
        return property(itemgetter(index), doc=doc)


class ValueEnum(Enum):
    """Base of every apimod `Enum`: `value` reads the member's value through
    a C-level property. `Enum.value` is a Python-level descriptor, about four
    times slower, and the printers and reports read it for every word they
    write. A member is built, looked up, pickled and copied as by `Enum`."""

    value = property(attrgetter("_value_"))


#: What a tuple record's `__new__` builds it with. A global: a call that
#: leaves an argument to its default takes a slower path, so a
#: `_new=tuple.__new__` parameter would slow every call.
tuple_new = tuple.__new__


class TupleRecord(tuple):
    """Base of the immutable records, which are tuples as a `NamedTuple` is.
    A subclass sets `__slots__ = ()`, annotates its fields in order, and
    builds itself as `tuple_new(cls, (field, ...))` in its own `__new__`,
    whose parameters are the fields in order, with their defaults. Each
    annotated field is read through the C getter that `collections.namedtuple`
    uses. A record compares, hashes, prints, pickles and copies as a
    `NamedTuple` with the same fields does."""

    __slots__ = ()

    def __init_subclass__(cls):
        #: The field names, in order.
        cls._fields = fields = tuple(cls.__annotations__)
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


# ---------------------------------------------------------------------------
# Labels and evidence
# ---------------------------------------------------------------------------

class Label(ValueEnum):
    """Qualitative satisfaction label.

    The five regular values are totally ordered:

        DENIED < PARTIALLY_DENIED < UNKNOWN < PARTIALLY_SATISFIED < SATISFIED

    CONFLICT sits outside the order: it records that both positive and
    negative evidence reached one node, and it absorbs min/max.
    """

    DENIED = "denied"
    PARTIALLY_DENIED = "partden"
    UNKNOWN = "unknown"
    PARTIALLY_SATISFIED = "partsat"
    SATISFIED = "satisfied"
    CONFLICT = "conflict"


#: Each regular label's place in the order, which `Label` lists its members in.
_LABEL_RANK = {label: i for i, label in enumerate(Label) if label is not Label.CONFLICT}

#: Words accepted in model files; CONFLICT is deliberately not writable.
LABEL_WORDS = {label.value: label for label in _LABEL_RANK}


def label_min(a: Label, b: Label) -> Label:
    """Greatest lower bound under the label order; CONFLICT is absorbing."""
    if a is Label.CONFLICT or b is Label.CONFLICT:
        return Label.CONFLICT
    return a if _LABEL_RANK[a] <= _LABEL_RANK[b] else b


def label_max(a: Label, b: Label) -> Label:
    """Least upper bound under the label order; CONFLICT is absorbing."""
    if a is Label.CONFLICT or b is Label.CONFLICT:
        return Label.CONFLICT
    return a if _LABEL_RANK[a] >= _LABEL_RANK[b] else b


class Evidence(IntEnum):
    """Strength of evidence on one side of an :class:`EvidencePair`."""

    NONE = 0
    PARTIAL = 1
    FULL = 2


class EvidencePair(TupleRecord):
    """Accumulated positive and negative satisfaction evidence.

    Pairs only ever gain evidence (`merge` takes the per-side maximum), which
    is what makes fixpoint propagation terminate even on cyclic dependency
    structures.
    """

    __slots__ = ()
    positive: Evidence
    negative: Evidence

    def __new__(cls, positive=Evidence.NONE, negative=Evidence.NONE):
        return tuple_new(cls, (positive, negative))

    def merge(self, other: "EvidencePair") -> "EvidencePair":
        return EvidencePair(
            Evidence(max(self.positive, other.positive)),
            Evidence(max(self.negative, other.negative)),
        )


NO_EVIDENCE = EvidencePair()


def evidence_to_label(e: EvidencePair) -> Label:
    """Project an evidence pair onto a label.

    Mixed evidence (both sides present, at any strength) projects to
    CONFLICT; otherwise the non-empty side decides.
    """
    if e.positive is not Evidence.NONE and e.negative is not Evidence.NONE:
        return Label.CONFLICT
    if e.positive is Evidence.FULL:
        return Label.SATISFIED
    if e.positive is Evidence.PARTIAL:
        return Label.PARTIALLY_SATISFIED
    if e.negative is Evidence.FULL:
        return Label.DENIED
    if e.negative is Evidence.PARTIAL:
        return Label.PARTIALLY_DENIED
    return Label.UNKNOWN


def label_to_evidence(label: Label) -> EvidencePair:
    """Evidence carried by a label when it is delivered to another node."""
    if label is Label.SATISFIED:
        return EvidencePair(Evidence.FULL, Evidence.NONE)
    if label is Label.PARTIALLY_SATISFIED:
        return EvidencePair(Evidence.PARTIAL, Evidence.NONE)
    if label is Label.PARTIALLY_DENIED:
        return EvidencePair(Evidence.NONE, Evidence.PARTIAL)
    if label is Label.DENIED:
        return EvidencePair(Evidence.NONE, Evidence.FULL)
    if label is Label.CONFLICT:
        return EvidencePair(Evidence.PARTIAL, Evidence.PARTIAL)
    return NO_EVIDENCE


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

class Severity(ValueEnum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class SourceSpan(TupleRecord):
    """1-based source range; `file` may be a path or a synthetic name."""

    __slots__ = ()
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __new__(cls, file, start_line, start_col, end_line, end_col):
        return tuple_new(cls, (file, start_line, start_col, end_line, end_col))

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(TupleRecord):
    __slots__ = ()
    severity: Severity
    code: str
    message: str
    span: SourceSpan | None

    def __new__(cls, severity, code, message, span=None):
        return tuple_new(cls, (severity, code, message, span))

    def render(self) -> str:
        loc = str(self.span) if self.span else "<model>"
        return f"{loc}: {self.severity.value} {self.code} {self.message}"


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic report order: by file, span, code, message."""
    def key(d: Diagnostic):
        s = d.span
        return (
            s.file if s else "",
            s.start_line if s else 0,
            s.start_col if s else 0,
            d.code,
            d.message,
        )
    return sorted(diags, key=key)


class ApimodError(Exception):
    """Raised for contract violations (code E-PRE unless stated otherwise)."""

    def __init__(self, message: str, code: str = "E-PRE"):
        super().__init__(message)
        self.code = code


def load_package_data(name: str):
    """The JSON document `name` shipped in `apimod.data`. The loaders are
    the only users of `importlib.resources`, so it is imported here and a
    command that loads no catalog does not pay for it at start-up."""
    import json
    from importlib import resources
    return json.loads(resources.files("apimod.data").joinpath(name)
                      .read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Cross-cutting annotations
# ---------------------------------------------------------------------------

# Both enums list their members in report order.
class Layer(ValueEnum):
    DOMAIN = "domain"
    USAGE = "usage"
    API = "api"
    ASSET = "asset"


class BapoTag(ValueEnum):
    BUSINESS = "B"
    ARCHITECTURE = "A"
    PROCESS = "P"
    ORGANIZATION = "O"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Record:
    """Base of the records that are not tuple records: a subclass lists its
    fields, in order, as `__slots__` and sets them in its own `__init__`.

    Two records are equal when they are of one class and agree on every
    field but `span`, so a model parsed from two layouts of one text compares
    equal. A record can change while it compares by value, so none may be a
    dict key: every one is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        #: The compared fields of a record, as one tuple.
        cls._compare = attrgetter(*[name for name in cls.__slots__ if name != "span"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compare(self) == self._compare(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

class ElementKind(ValueEnum):
    GOAL = "goal"
    QUALITY = "quality"
    TASK = "task"
    RESOURCE = "resource"


class RefinementKind(ValueEnum):
    AND = "and"
    OR = "or"


class ContributionStrength(ValueEnum):
    MAKES = "makes"
    HELPS = "helps"
    HURTS = "hurts"
    BREAKS = "breaks"


class Contribution(TupleRecord):
    __slots__ = ()
    target: str  # quality element id
    strength: ContributionStrength

    def __new__(cls, target, strength):
        return tuple_new(cls, (target, strength))


class Refinement(TupleRecord):
    __slots__ = ()
    kind: RefinementKind
    children: tuple[str, ...]  # element ids, same actor

    def __new__(cls, kind, children):
        return tuple_new(cls, (kind, children))


class GElement(Record):
    __slots__ = ("id", "kind", "name", "refinement", "contributions", "span")

    def __init__(self, id: str, kind: ElementKind, name: str,
                 refinement: Refinement | None = None,
                 contributions: list[Contribution] | None = None,
                 span: SourceSpan | None = None):
        self.id = id
        self.kind = kind
        self.name = name
        self.refinement = refinement
        self.contributions = [] if contributions is None else contributions
        self.span = span


class GActor(Record):
    __slots__ = ("id", "name", "elements", "layer_assignments", "bapo_tags", "span")

    def __init__(self, id: str, name: str,
                 elements: list[GElement] | None = None,
                 layer_assignments: dict[str, Layer] | None = None,
                 bapo_tags: set[BapoTag] | None = None,
                 span: SourceSpan | None = None):
        self.id = id
        self.name = name
        self.elements = [] if elements is None else elements
        self.layer_assignments = {} if layer_assignments is None else layer_assignments
        self.bapo_tags = set() if bapo_tags is None else bapo_tags
        self.span = span

    @property
    def open(self) -> bool:
        """An actor is open once its internal rationale is modeled."""
        return bool(self.elements)


class DependencyEnd(TupleRecord):
    __slots__ = ()
    actor: str
    element: str | None

    def __new__(cls, actor, element=None):
        return tuple_new(cls, (actor, element))


class Dependum(TupleRecord):
    __slots__ = ()
    kind: ElementKind
    name: str
    initial_label: Label | None

    def __new__(cls, kind, name, initial_label=None):
        return tuple_new(cls, (kind, name, initial_label))


class Dependency(Record):
    __slots__ = ("id", "depender", "dependum", "dependee", "span")

    def __init__(self, id: str, depender: DependencyEnd, dependum: Dependum,
                 dependee: DependencyEnd, span: SourceSpan | None = None):
        self.id = id
        self.depender = depender
        self.dependum = dependum
        self.dependee = dependee
        self.span = span


class AssociationKind(ValueEnum):
    PART_OF = "partof"


class AssociationLink(Record):
    __slots__ = ("kind", "source", "target", "span")

    def __init__(self, kind: AssociationKind, source: str, target: str,
                 span: SourceSpan | None = None):
        self.kind = kind
        self.source = source  # actor id (the part)
        self.target = target  # actor id (the whole)
        self.span = span


class GoalModel(Record):
    __slots__ = ("name", "actors", "dependencies", "associations", "draft")

    def __init__(self, name: str, actors: list[GActor] | None = None,
                 dependencies: list[Dependency] | None = None,
                 associations: list[AssociationLink] | None = None,
                 draft: bool = False):
        self.name = name
        self.actors = [] if actors is None else actors
        self.dependencies = [] if dependencies is None else dependencies
        self.associations = [] if associations is None else associations
        self.draft = draft


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

class Activity(Record):
    __slots__ = ("id", "name", "span")

    def __init__(self, id: str, name: str, span: SourceSpan | None = None):
        self.id = id
        self.name = name
        self.span = span


class VActor(Record):
    __slots__ = ("id", "name", "parent", "activities", "market_segment", "api_role",
                 "layer_assignments", "bapo_tags", "span")

    def __init__(self, id: str, name: str, parent: str | None = None,
                 activities: list[Activity] | None = None,
                 market_segment: bool = False, api_role: bool = False,
                 layer_assignments: dict[str, Layer] | None = None,
                 bapo_tags: set[BapoTag] | None = None,
                 span: SourceSpan | None = None):
        self.id = id
        self.name = name
        self.parent = parent
        self.activities = [] if activities is None else activities
        self.market_segment = market_segment
        self.api_role = api_role
        self.layer_assignments = {} if layer_assignments is None else layer_assignments
        self.bapo_tags = set() if bapo_tags is None else bapo_tags
        self.span = span


class FlowStatus(ValueEnum):
    NORMAL = "normal"
    PROBLEMATIC = "problematic"
    MISSING = "missing"


class ValueObject(TupleRecord):
    __slots__ = ()
    name: str
    kind: ElementKind

    def __new__(cls, name, kind=ElementKind.RESOURCE):
        return tuple_new(cls, (name, kind))


class ValueFlow(Record):
    __slots__ = ("id", "source", "target", "obj", "status", "group", "span")

    def __init__(self, id: str, source: str, target: str,
                 obj: ValueObject = ValueObject(""),
                 status: FlowStatus = FlowStatus.NORMAL,
                 group: str | None = None, span: SourceSpan | None = None):
        self.id = id
        self.source = source  # actor or activity id
        self.target = target  # actor or activity id
        self.obj = obj
        self.status = status
        self.group = group
        self.span = span


class Stimulus(Record):
    __slots__ = ("id", "name", "at", "span")

    def __init__(self, id: str, name: str, at: str,
                 span: SourceSpan | None = None):
        self.id = id
        self.name = name
        self.at = at  # owning actor id
        self.span = span


class ValueModel(Record):
    __slots__ = ("name", "actors", "flows", "stimuli")

    def __init__(self, name: str, actors: list[VActor] | None = None,
                 flows: list[ValueFlow] | None = None,
                 stimuli: list[Stimulus] | None = None):
        self.name = name
        self.actors = [] if actors is None else actors
        self.flows = [] if flows is None else flows
        self.stimuli = [] if stimuli is None else stimuli


# ---------------------------------------------------------------------------
# Scenarios and metric catalogs, the parser's other records
# ---------------------------------------------------------------------------

class Scenario(Record):
    """Initial labels for an evaluation; CONFLICT cannot be assigned."""

    __slots__ = ("name", "assignments")

    def __init__(self, name: str, assignments: dict[str, Label] | None = None):
        self.name = name
        self.assignments = {} if assignments is None else assignments


class Dimension(ValueEnum):
    BUSINESS = "business"
    USAGE = "usage"
    DESIGN = "design"
    IMPLEMENTATION = "implementation"


class AutomationLevel(ValueEnum):
    AUTOMATABLE = "automatable"
    PARTIALLY_AUTOMATABLE = "partial"
    MANUAL = "manual"


class MetricDef(Record):
    __slots__ = ("name", "what", "why", "who", "where", "dimensions", "automation",
                 "links", "span")

    def __init__(self, name: str, what: str | None = None,
                 why: str | None = None, who: list[str] | None = None,
                 where: list[str] | None = None,
                 dimensions: set[Dimension] | None = None,
                 automation: AutomationLevel | None = None,
                 links: list[str] | None = None,
                 span: SourceSpan | None = None):
        self.name = name
        self.what = what
        self.why = why
        self.who = [] if who is None else who
        self.where = [] if where is None else where
        self.dimensions = set() if dimensions is None else dimensions
        self.automation = automation
        self.links = [] if links is None else links
        self.span = span
