"""API lifecycle analysis: expected stage characteristics, descriptor linting,
value-curve mismatch detection, and transition-trigger checklists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .core import (
    ApimodError, Diagnostic, Severity, load_package_data, sort_diagnostics,
)


class LifecycleStage(Enum):
    PLAN = "plan"
    OPERATION = "operation"
    DEPRECATION = "deprecation"
    RETIRE = "retire"


#: Position of each stage in the lifecycle; a curve may not move backward.
STAGE_RANK = {s: i for i, s in enumerate(LifecycleStage)}


class Stability(Enum):
    UNSTABLE = "unstable"
    MAINLY_STABLE = "mainly_stable"
    STABLE = "stable"


class Change(Enum):
    UNCOORDINATED_EXPERIMENTAL = "uncoordinated_experimental"
    COORDINATED_WITH_COST = "coordinated_with_cost"
    MINIMAL_ERROR_CORRECTION = "minimal_error_correction"
    NONE = "none"


class Commitment(Enum):
    NONE = "none"
    COMMITTED = "committed"
    DECREASING = "decreasing"


class Governance(Enum):
    SETTING_UP = "setting_up"
    GOVERNED = "governed"
    NOT_APPLICABLE = "not_applicable"


class Compatibility(Enum):
    NONE_EITHER = "none_either"
    FORWARD_AND_BACKWARD = "forward_and_backward"
    BACKWARD_ONLY = "backward_only"
    NONE_EITHER_RETIRED = "none_either_retired"


class Support(Enum):
    INTENSE_FEW_USERS = "intense_few_users"
    MANY_USERS = "many_users"
    MINIMIZING = "minimizing"
    NONE = "none"


#: Each lifecycle characteristic, in report order, and the enum of its values.
CHARACTERISTICS: dict[str, type[Enum]] = {
    "stability": Stability, "change": Change, "commitment": Commitment,
    "governance": Governance, "compatibility": Compatibility, "support": Support,
}


@dataclass
class Characteristics:
    """One value per characteristic of `CHARACTERISTICS`; None means not
    observed."""

    stability: Optional[Stability] = None
    change: Optional[Change] = None
    commitment: Optional[Commitment] = None
    governance: Optional[Governance] = None
    compatibility: Optional[Compatibility] = None
    support: Optional[Support] = None

    def items(self) -> list[tuple[str, Optional[Enum]]]:
        return [(name, getattr(self, name)) for name in CHARACTERISTICS]


class ValueCurveSample(NamedTuple):
    t: float
    stage: LifecycleStage
    value: float


def curve_step_problems(before: Optional[ValueCurveSample],
                        sample: ValueCurveSample) -> list[tuple[str, str]]:
    """(code, message) for each rule `sample` breaks as the point after
    `before` (None for the first point): E-RANGE for a value outside [0, 1],
    then E-ORDER for a time that does not increase and for a stage that
    moves backward."""
    problems = []
    if not 0.0 <= sample.value <= 1.0:
        problems.append(("E-RANGE", f"curve value {sample.value} outside [0, 1]"))
    if before is not None:
        if sample.t <= before.t:
            problems.append(("E-ORDER", "curve samples must have increasing times"))
        if STAGE_RANK[sample.stage] < STAGE_RANK[before.stage]:
            problems.append(("E-ORDER", "curve stages may not move backward"))
    return problems


@dataclass
class ApiDescriptor:
    name: str
    declared_stage: LifecycleStage
    observed: Characteristics = field(default_factory=Characteristics)
    curve: list[ValueCurveSample] = field(default_factory=list)
    transition_rationales: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Expected characteristics per stage
# ---------------------------------------------------------------------------

# The deprecation-era compatibility cell drops forward compatibility while
# backward compatibility is still expected, hence BACKWARD_ONLY.
_EXPECTED = {
    LifecycleStage.PLAN: Characteristics(
        stability=Stability.UNSTABLE,
        change=Change.UNCOORDINATED_EXPERIMENTAL,
        commitment=Commitment.NONE,
        governance=Governance.SETTING_UP,
        compatibility=Compatibility.NONE_EITHER,
        support=Support.INTENSE_FEW_USERS,
    ),
    LifecycleStage.OPERATION: Characteristics(
        stability=Stability.MAINLY_STABLE,
        change=Change.COORDINATED_WITH_COST,
        commitment=Commitment.COMMITTED,
        governance=Governance.GOVERNED,
        compatibility=Compatibility.FORWARD_AND_BACKWARD,
        support=Support.MANY_USERS,
    ),
    LifecycleStage.DEPRECATION: Characteristics(
        stability=Stability.STABLE,
        change=Change.MINIMAL_ERROR_CORRECTION,
        commitment=Commitment.DECREASING,
        governance=Governance.GOVERNED,
        compatibility=Compatibility.BACKWARD_ONLY,
        support=Support.MINIMIZING,
    ),
    LifecycleStage.RETIRE: Characteristics(
        stability=Stability.STABLE,
        change=Change.NONE,
        commitment=Commitment.NONE,
        governance=Governance.NOT_APPLICABLE,
        compatibility=Compatibility.NONE_EITHER_RETIRED,
        support=Support.NONE,
    ),
}

def expected_characteristics(stage: LifecycleStage) -> Characteristics:
    """The full expected row for a stage; all six fields are set."""
    row = _EXPECTED[stage]
    return Characteristics(**{name: value for name, value in row.items()})


def characteristics_matrix_text() -> str:
    """Canonical rendering of the whole stage/characteristic matrix."""
    lines = []
    for stage in LifecycleStage:
        row = _EXPECTED[stage]
        for name, value in row.items():
            lines.append(f"{stage.value}.{name} = {value.value}")
    return "\n".join(lines) + "\n"


def lint_characteristics(d: ApiDescriptor) -> list[Diagnostic]:
    """Compare observed behavior against the declared stage's expected row."""
    expected = expected_characteristics(d.declared_stage)
    diags: list[Diagnostic] = []
    for (name, observed), (_, exp) in zip(d.observed.items(), expected.items()):
        if observed is None:
            diags.append(Diagnostic(
                Severity.INFO, "I-UNOBSERVED",
                f"{d.name}: {name} not observed (expected {exp.value} "
                f"in {d.declared_stage.value})"))
        elif observed is not exp:
            diags.append(Diagnostic(
                Severity.WARNING, "W-CHAR",
                f"{d.name}: {name} observed {observed.value}, expected {exp.value} "
                f"for stage {d.declared_stage.value}"))
    return sort_diagnostics(diags)


# ---------------------------------------------------------------------------
# Value-curve mismatches
# ---------------------------------------------------------------------------

#: How many final planning samples must show a rise before operation (M2).
PLAN_WINDOW = 2


class MismatchThresholds(NamedTuple):
    """`high` marks "very high" value; `drop_fraction` the in-operation decline
    considered excessive."""

    high: float = 0.7
    drop_fraction: float = 0.5


def detect_value_mismatches(d: ApiDescriptor,
                            cfg: MismatchThresholds = MismatchThresholds()
                            ) -> list[Diagnostic]:
    """Scan a value curve for the five transition-timing mismatch patterns.

    M1  value already very high while still planning
    M2  value not on the rise across the final planning window before operation
    M3  operation reached although value never got very high
    M4  value collapses from its running peak while still in operation
    M5  value still very high when deprecation or retirement begins
    """
    if not d.curve:
        raise ApimodError(f"{d.name}: value curve is empty", code="E-EMPTY")
    findings: list[Diagnostic] = []

    def add(code: str, message: str) -> None:
        if not any(f.code == code for f in findings):
            findings.append(Diagnostic(Severity.WARNING, code, f"{d.name}: {message}"))

    plan = [s for s in d.curve if s.stage is LifecycleStage.PLAN]
    first_op = next((s for s in d.curve if s.stage is LifecycleStage.OPERATION), None)

    for s in plan:
        if s.value >= cfg.high:
            add("M1", f"value {s.value:g} at t={s.t:g} is already high (>= {cfg.high:g}) "
                      "during planning")
    if first_op is not None and len(plan) >= 2:
        window = plan[-min(PLAN_WINDOW, len(plan)):]
        if window[-1].value <= window[0].value:
            add("M2", f"value is not rising across the last {len(window)} planning "
                      f"samples ({window[0].value:g} -> {window[-1].value:g}) "
                      "before operation")
    if first_op is not None:
        running_max = max(s.value for s in d.curve if s.t <= first_op.t)
        if running_max < cfg.high:
            add("M3", f"operation reached at t={first_op.t:g} but value never exceeded "
                      f"{running_max:g} (< {cfg.high:g})")
    peak = None
    for s in d.curve:
        if s.stage is LifecycleStage.OPERATION:
            peak = s.value if peak is None else max(peak, s.value)
            if s.value <= (1.0 - cfg.drop_fraction) * peak:
                add("M4", f"value fell to {s.value:g} at t={s.t:g}, from an in-operation "
                          f"peak of {peak:g}, while still operational")
    first_end = next((s for s in d.curve
                      if STAGE_RANK[s.stage] >= STAGE_RANK[LifecycleStage.DEPRECATION]),
                     None)
    if first_end is not None and first_end.value >= cfg.high:
        add("M5", f"value is still {first_end.value:g} (>= {cfg.high:g}) when "
                  f"{first_end.stage.value} begins at t={first_end.t:g}")
    return findings


# ---------------------------------------------------------------------------
# Transition triggers
# ---------------------------------------------------------------------------

#: Outgoing transition per declared stage; RETIRE has none.
_OUTGOING = {
    LifecycleStage.PLAN: "planning_to_operation",
    LifecycleStage.OPERATION: "operation_to_deprecation",
    LifecycleStage.DEPRECATION: "deprecation_to_retirement",
    LifecycleStage.RETIRE: None,
}


class TriggerEntry(NamedTuple):
    tag: str
    description: str
    matched: bool


class TransitionReport(NamedTuple):
    api: str
    stage: LifecycleStage
    transition: Optional[str]
    entries: list[TriggerEntry]
    uncatalogued: list[str]


def _normalize_tag(text: str) -> str:
    out = []
    for ch in text.lower():
        out.append(ch if ch.isalnum() else "-")
    collapsed = "-".join(p for p in "".join(out).split("-") if p)
    return collapsed


def load_trigger_catalog() -> dict[str, list[dict]]:
    return load_package_data("transition_triggers.json")


def transition_checklist(d: ApiDescriptor) -> TransitionReport:
    """Check the descriptor's transition rationales against the catalogued
    triggers for its stage's outgoing transition."""
    catalog = load_trigger_catalog()
    transition = _OUTGOING[d.declared_stage]
    entries: list[TriggerEntry] = []
    rationales = [_normalize_tag(r) for r in d.transition_rationales]
    matched: set[str] = set()
    if transition is not None:
        for item in catalog[transition]:
            hit = item["tag"] in rationales
            if hit:
                matched.add(item["tag"])
            entries.append(TriggerEntry(item["tag"], item["description"], hit))
    uncatalogued = [r for r in rationales if r not in matched]
    return TransitionReport(d.name, d.declared_stage, transition, entries, uncatalogued)
