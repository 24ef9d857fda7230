"""Shared domain types: the qualitative label lattice, evidence pairs,
diagnostics, and the value-model / goal-model object structures.

One rule holds for records across the package: a record is a `NamedTuple`
unless code or tests change it (assign to it, fill its lists, `replace` it or
read its `fields`), it keeps a field out of equality (`span`), or it validates
in `__post_init__`; then it is a dataclass, as every model object is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple, Optional


# ---------------------------------------------------------------------------
# Labels and evidence
# ---------------------------------------------------------------------------

class Label(Enum):
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


_LABEL_RANK = {
    Label.DENIED: 0,
    Label.PARTIALLY_DENIED: 1,
    Label.UNKNOWN: 2,
    Label.PARTIALLY_SATISFIED: 3,
    Label.SATISFIED: 4,
}

#: Words accepted in model files; CONFLICT is deliberately not writable.
LABEL_WORDS = {
    "satisfied": Label.SATISFIED,
    "partsat": Label.PARTIALLY_SATISFIED,
    "unknown": Label.UNKNOWN,
    "partden": Label.PARTIALLY_DENIED,
    "denied": Label.DENIED,
}


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


class EvidencePair(NamedTuple):
    """Accumulated positive and negative satisfaction evidence.

    Pairs only ever gain evidence (`merge` takes the per-side maximum), which
    is what makes fixpoint propagation terminate even on cyclic dependency
    structures.
    """

    positive: Evidence = Evidence.NONE
    negative: Evidence = Evidence.NONE

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

class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class SourceSpan(NamedTuple):
    """1-based source range; `file` may be a path or a synthetic name."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(NamedTuple):
    severity: Severity
    code: str
    message: str
    span: Optional[SourceSpan] = None

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

class Layer(Enum):
    DOMAIN = "domain"
    USAGE = "usage"
    API = "api"
    ASSET = "asset"


class BapoTag(Enum):
    BUSINESS = "B"
    ARCHITECTURE = "A"
    PROCESS = "P"
    ORGANIZATION = "O"


BAPO_ORDER = [BapoTag.BUSINESS, BapoTag.ARCHITECTURE, BapoTag.PROCESS,
              BapoTag.ORGANIZATION]
LAYER_ORDER = [Layer.DOMAIN, Layer.USAGE, Layer.API, Layer.ASSET]


# ---------------------------------------------------------------------------
# Goal models
# ---------------------------------------------------------------------------

class ElementKind(Enum):
    GOAL = "goal"
    QUALITY = "quality"
    TASK = "task"
    RESOURCE = "resource"


class RefinementKind(Enum):
    AND = "and"
    OR = "or"


class ContributionStrength(Enum):
    MAKES = "makes"
    HELPS = "helps"
    HURTS = "hurts"
    BREAKS = "breaks"


class Contribution(NamedTuple):
    target: str  # quality element id
    strength: ContributionStrength


class Refinement(NamedTuple):
    kind: RefinementKind
    children: tuple[str, ...]  # element ids, same actor


@dataclass
class GElement:
    id: str
    kind: ElementKind
    name: str
    refinement: Optional[Refinement] = None
    contributions: list[Contribution] = field(default_factory=list)
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class GActor:
    id: str
    name: str
    elements: list[GElement] = field(default_factory=list)
    layer_assignments: dict[str, Layer] = field(default_factory=dict)
    bapo_tags: set[BapoTag] = field(default_factory=set)
    span: Optional[SourceSpan] = field(default=None, compare=False)

    @property
    def open(self) -> bool:
        """An actor is open once its internal rationale is modeled."""
        return bool(self.elements)


class DependencyEnd(NamedTuple):
    actor: str
    element: Optional[str] = None


class Dependum(NamedTuple):
    kind: ElementKind
    name: str
    initial_label: Optional[Label] = None


@dataclass
class Dependency:
    id: str
    depender: DependencyEnd
    dependum: Dependum
    dependee: DependencyEnd
    span: Optional[SourceSpan] = field(default=None, compare=False)


class AssociationKind(Enum):
    PART_OF = "partof"


@dataclass
class AssociationLink:
    kind: AssociationKind
    source: str  # actor id (the part)
    target: str  # actor id (the whole)
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class GoalModel:
    name: str
    actors: list[GActor] = field(default_factory=list)
    dependencies: list[Dependency] = field(default_factory=list)
    associations: list[AssociationLink] = field(default_factory=list)
    draft: bool = False

    def element_map(self) -> dict[str, GElement]:
        return {e.id: e for a in self.actors for e in a.elements}

    def actor_map(self) -> dict[str, GActor]:
        return {a.id: a for a in self.actors}

    def owner_of(self, element_id: str) -> Optional[GActor]:
        for a in self.actors:
            for e in a.elements:
                if e.id == element_id:
                    return a
        return None


# ---------------------------------------------------------------------------
# Value models
# ---------------------------------------------------------------------------

@dataclass
class Activity:
    id: str
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class VActor:
    id: str
    name: str
    parent: Optional[str] = None
    activities: list[Activity] = field(default_factory=list)
    market_segment: bool = False
    api_role: bool = False
    layer_assignments: dict[str, Layer] = field(default_factory=dict)
    bapo_tags: set[BapoTag] = field(default_factory=set)
    span: Optional[SourceSpan] = field(default=None, compare=False)


class FlowStatus(Enum):
    NORMAL = "normal"
    PROBLEMATIC = "problematic"
    MISSING = "missing"


class ValueObject(NamedTuple):
    name: str
    kind: ElementKind = ElementKind.RESOURCE


@dataclass
class ValueFlow:
    id: str
    source: str  # actor or activity id
    target: str  # actor or activity id
    obj: ValueObject = ValueObject("")
    status: FlowStatus = FlowStatus.NORMAL
    group: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class Stimulus:
    id: str
    name: str
    at: str  # owning actor id
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class ValueModel:
    name: str
    actors: list[VActor] = field(default_factory=list)
    flows: list[ValueFlow] = field(default_factory=list)
    stimuli: list[Stimulus] = field(default_factory=list)

    def actor_map(self) -> dict[str, VActor]:
        return {a.id: a for a in self.actors}
