"""Governance analyses: openness classification, the implementation and
change decision quadrants, prioritization, and metric-catalog checks.
"""

from .core import (  # the catalog's records live in core, where the parser reads them
    AutomationLevel, Diagnostic, Dimension, MetricDef, Severity, TupleRecord,
    ValueEnum, load_package_data, sort_diagnostics, tuple_new,
)


# ---------------------------------------------------------------------------
# Openness
# ---------------------------------------------------------------------------

class Exclusion(ValueEnum):
    DIFFICULT = "difficult"
    EASY = "easy"


class Subtractability(ValueEnum):
    LOW = "low"
    HIGH = "high"


class GoodsClass(ValueEnum):
    PUBLIC_GOODS = "public-goods"
    COMMON_POOL = "common-pool"
    CLUB_GOODS = "club-goods"
    PRIVATE_GOODS = "private-goods"


def classify_openness(exclusion: Exclusion,
                      subtractability: Subtractability) -> GoodsClass:
    """Place a resource on the exclusion/subtractability grid."""
    if exclusion is Exclusion.DIFFICULT:
        return (GoodsClass.PUBLIC_GOODS if subtractability is Subtractability.LOW
                else GoodsClass.COMMON_POOL)
    return (GoodsClass.CLUB_GOODS if subtractability is Subtractability.LOW
            else GoodsClass.PRIVATE_GOODS)


# ---------------------------------------------------------------------------
# Decision quadrants
# ---------------------------------------------------------------------------

class Quadrant(ValueEnum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class DecisionItem(TupleRecord):
    """Two scores in [0, 1]; their meaning depends on the decision model:
    (value, effort) for implementation decisions, (scope, impact) for change
    decisions."""

    __slots__ = ()
    name: str
    a: float
    b: float

    def __new__(cls, name, a, b):
        for score in (a, b):
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{name}: score {score} outside [0, 1]")
        return tuple_new(cls, (name, a, b))


#: A score equal to the threshold counts as high.
DEFAULT_THRESHOLD = 0.5


def classify_implementation(item: DecisionItem,
                            threshold: float = DEFAULT_THRESHOLD) -> Quadrant:
    """Value/effort quadrant: A implement now, B discuss (high value, high
    effort), C non-crucial, D red flag (effort without enough value)."""
    value, effort = item.a, item.b
    high_value, high_effort = value >= threshold, effort >= threshold
    if high_value:
        return Quadrant.B if high_effort else Quadrant.A
    return Quadrant.D if high_effort else Quadrant.C


def classify_change(item: DecisionItem,
                    threshold: float = DEFAULT_THRESHOLD) -> Quadrant:
    """Scope/impact quadrant: A monitor closely, B needs definitive
    attention, C ignorable to avoid overwhelming the board, D small-scope
    changes discussed only when attention is required."""
    scope, impact = item.a, item.b
    high_scope, high_impact = scope >= threshold, impact >= threshold
    if high_impact:
        return Quadrant.A if high_scope else Quadrant.B
    return Quadrant.C if high_scope else Quadrant.D


#: C ranks last in change mode: it is the "ignore to avoid overwhelming" bin.
_QUADRANT_ORDER = {
    "impl": [Quadrant.A, Quadrant.B, Quadrant.C, Quadrant.D],
    "change": [Quadrant.A, Quadrant.B, Quadrant.D, Quadrant.C],
}


def prioritize_items(items: list[DecisionItem],
                     mode: str,
                     threshold: float = DEFAULT_THRESHOLD
                     ) -> list[tuple[DecisionItem, Quadrant]]:
    """Stable-sort items into a prioritized list with quadrant tags."""
    if mode not in _QUADRANT_ORDER:
        raise ValueError(f"unknown mode {mode!r}; expected impl or change")
    classify = classify_implementation if mode == "impl" else classify_change
    order = {q: i for i, q in enumerate(_QUADRANT_ORDER[mode])}
    tagged = [(item, classify(item, threshold)) for item in items]

    def tiebreak(item: DecisionItem) -> float:
        return item.a - item.b if mode == "impl" else item.b

    return sorted(tagged, key=lambda iq: (order[iq[1]], -tiebreak(iq[0])))


# ---------------------------------------------------------------------------
# Metric catalog
# ---------------------------------------------------------------------------

def check_metric_catalog(metrics: list[MetricDef]) -> list[Diagnostic]:
    """Flag metrics whose rationale, audience, sources, or placement is
    missing; Design metrics should carry an automation level."""
    diags: list[Diagnostic] = []
    for m in metrics:
        if not m.why:
            diags.append(Diagnostic(Severity.WARNING, "W-NOWHY",
                                    f"metric {m.name!r} has no goal (why?)", m.span))
        if not m.who:
            diags.append(Diagnostic(Severity.WARNING, "W-NOWHO",
                                    f"metric {m.name!r} has no interested roles (who?)",
                                    m.span))
        if not m.where:
            diags.append(Diagnostic(Severity.WARNING, "W-NOWHERE",
                                    f"metric {m.name!r} has no data sources (from where?)",
                                    m.span))
        if not m.dimensions:
            diags.append(Diagnostic(Severity.WARNING, "W-NODIM",
                                    f"metric {m.name!r} is not placed in any dimension",
                                    m.span))
        if Dimension.DESIGN in m.dimensions and m.automation is None:
            diags.append(Diagnostic(Severity.INFO, "I-NOAUTO",
                                    f"design metric {m.name!r} has no automation level",
                                    m.span))
    return sort_diagnostics(diags)


#: Elicitation prompt shown for a dimension no metric covers.
DIMENSION_QUESTIONS = {
    Dimension.BUSINESS: "Which business outcomes (revenue, market share, customer "
                        "growth, strategic objectives) should the API move, and how "
                        "would you measure them?",
    Dimension.USAGE: "What can be measured about the software and people using the "
                     "API (user counts, calls used, stability, bug rates, "
                     "compatibility)?",
    Dimension.DESIGN: "What can be measured about the API design itself before "
                      "release (parameters per call, modularity, revisions, "
                      "documentation completeness)?",
    Dimension.IMPLEMENTATION: "What can be measured about the applications "
                              "implementing the API (conformance with conventions, "
                              "standard software metrics, compatibility)?",
}


class DimensionCoverage(TupleRecord):
    __slots__ = ()
    counts: dict[Dimension, int]
    metrics: dict[Dimension, list[str]]
    gaps: list[tuple[Dimension, str]]

    def __new__(cls, counts, metrics, gaps):
        return tuple_new(cls, (counts, metrics, gaps))


def dimension_coverage_report(metrics: list[MetricDef]) -> DimensionCoverage:
    """Count catalog metrics per dimension; empty dimensions get the
    elicitation question for finding candidates."""
    counts = {d: 0 for d in Dimension}
    names: dict[Dimension, list[str]] = {d: [] for d in Dimension}
    for m in metrics:
        for d in m.dimensions:
            counts[d] += 1
            names[d].append(m.name)
    gaps = [(d, DIMENSION_QUESTIONS[d]) for d in Dimension if counts[d] == 0]
    return DimensionCoverage(counts, names, gaps)


class AutomationReport(TupleRecord):
    __slots__ = ()
    groups: dict[AutomationLevel, list[str]]
    unclassified: list[str]
    note: str | None

    def __new__(cls, groups, unclassified, note=None):
        return tuple_new(cls, (groups, unclassified, note))


def automation_report(metrics: list[MetricDef]) -> AutomationReport:
    """Group Design-dimension metrics by automation level."""
    design = [m for m in metrics if Dimension.DESIGN in m.dimensions]
    groups: dict[AutomationLevel, list[str]] = {a: [] for a in AutomationLevel}
    unclassified: list[str] = []
    for m in design:
        if m.automation is None:
            unclassified.append(m.name)
        else:
            groups[m.automation].append(m.name)
    note = None if design else "catalog contains no Design-dimension metrics"
    return AutomationReport(groups, unclassified, note)


# ---------------------------------------------------------------------------
# Reference catalog (aspects and strategies)
# ---------------------------------------------------------------------------

def load_governance_catalog() -> dict[str, list[dict]]:
    """Read-only catalog of governance aspects and strategies."""
    return load_package_data("governance_catalog.json")


# ---------------------------------------------------------------------------
# Ordinal score parsing (for CSV input)
# ---------------------------------------------------------------------------

_ORDINAL_SCORES = {"low": 0.25, "med": 0.5, "medium": 0.5, "high": 0.75}


def parse_score(text: str) -> float:
    """Accept a number in [0, 1] or an ordinal word (low/med/high)."""
    word = text.strip().lower()
    if word in _ORDINAL_SCORES:
        return _ORDINAL_SCORES[word]
    value = float(word)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"score {text!r} outside [0, 1]")
    return value
