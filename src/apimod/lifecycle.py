"""API lifecycle analysis: expected stage characteristics, descriptor linting,
value-curve mismatch detection, and transition-trigger checklists.
"""

from .core import (
    ApimodError, Diagnostic, Record, Severity, TupleRecord, ValueEnum,
    load_package_data, sort_diagnostics, tuple_new,
)


class LifecycleStage(ValueEnum):
    PLAN = "plan"
    OPERATION = "operation"
    DEPRECATION = "deprecation"
    RETIRE = "retire"


#: Position of each stage in the lifecycle; a curve may not move backward.
STAGE_RANK = {s: i for i, s in enumerate(LifecycleStage)}


class Stability(ValueEnum):
    UNSTABLE = "unstable"
    MAINLY_STABLE = "mainly_stable"
    STABLE = "stable"


class Change(ValueEnum):
    UNCOORDINATED_EXPERIMENTAL = "uncoordinated_experimental"
    COORDINATED_WITH_COST = "coordinated_with_cost"
    MINIMAL_ERROR_CORRECTION = "minimal_error_correction"
    NONE = "none"


class Commitment(ValueEnum):
    NONE = "none"
    COMMITTED = "committed"
    DECREASING = "decreasing"


class Governance(ValueEnum):
    SETTING_UP = "setting_up"
    GOVERNED = "governed"
    NOT_APPLICABLE = "not_applicable"


class Compatibility(ValueEnum):
    NONE_EITHER = "none_either"
    FORWARD_AND_BACKWARD = "forward_and_backward"
    BACKWARD_ONLY = "backward_only"
    NONE_EITHER_RETIRED = "none_either_retired"


class Support(ValueEnum):
    INTENSE_FEW_USERS = "intense_few_users"
    MANY_USERS = "many_users"
    MINIMIZING = "minimizing"
    NONE = "none"


#: Each lifecycle characteristic, in report order, and the enum of its values.
CHARACTERISTICS: dict[str, type[ValueEnum]] = {
    "stability": Stability, "change": Change, "commitment": Commitment,
    "governance": Governance, "compatibility": Compatibility, "support": Support,
}


class Characteristics(Record):
    """One value per characteristic of `CHARACTERISTICS`, in its order; None
    means not observed."""

    __slots__ = ("stability", "change", "commitment", "governance", "compatibility",
                 "support")

    def __init__(self, stability: Stability | None = None,
                 change: Change | None = None,
                 commitment: Commitment | None = None,
                 governance: Governance | None = None,
                 compatibility: Compatibility | None = None,
                 support: Support | None = None):
        self.stability = stability
        self.change = change
        self.commitment = commitment
        self.governance = governance
        self.compatibility = compatibility
        self.support = support

    def items(self) -> list[tuple[str, ValueEnum | None]]:
        return [(name, getattr(self, name)) for name in CHARACTERISTICS]


class ValueCurveSample(TupleRecord):
    __slots__ = ()
    t: float
    stage: LifecycleStage
    value: float

    def __new__(cls, t, stage, value):
        return tuple_new(cls, (t, stage, value))


def curve_step_problems(before: ValueCurveSample | None,
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


def curve_number_problems(sample: ValueCurveSample) -> list[tuple[str, str, str]]:
    """(field, code, message), `field` "time" or "value": E-RANGE for a time,
    or a value in [0, 1], that the `.api` NUMBER token cannot write. Apart from
    `curve_step_problems`, which judges the curve: one built in Python may start before 0."""
    from .dsl.lexer import format_number  # `apimod.dsl` loads every parser
    problems = []
    for field, x in (("time", sample.t), ("value", sample.value)):
        try:
            if field == "time" or 0.0 <= x <= 1.0:  # else `curve_step_problems` refuses it
                format_number(x)
        except ApimodError:
            problems.append((field, "E-RANGE", f"curve {field} {x} cannot be written as a number"))
    return problems


class ApiDescriptor(Record):
    __slots__ = ("name", "declared_stage", "observed", "curve", "transition_rationales")

    def __init__(self, name: str, declared_stage: LifecycleStage,
                 observed: Characteristics | None = None,
                 curve: list[ValueCurveSample] | None = None,
                 transition_rationales: list[str] | None = None):
        self.name = name
        self.declared_stage = declared_stage
        self.observed = Characteristics() if observed is None else observed
        self.curve = [] if curve is None else curve
        self.transition_rationales = ([] if transition_rationales is None
                                      else transition_rationales)


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


class MismatchThresholds(TupleRecord):
    """`high` marks "very high" value; `drop_fraction` the in-operation decline
    considered excessive."""

    __slots__ = ()
    high: float
    drop_fraction: float

    def __new__(cls, high=0.7, drop_fraction=0.5):
        return tuple_new(cls, (high, drop_fraction))


def detect_value_mismatches(d: ApiDescriptor,
                            cfg: MismatchThresholds = MismatchThresholds()
                            ) -> list[Diagnostic]:
    """Scan a value curve for the five transition-timing mismatch patterns.

    M1  value already very high while still planning
    M2  value not on the rise across the final planning window before operation
    M3  operation reached although value never got very high
    M4  value falls by at least `drop_fraction` from its in-operation peak
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
            if s.value < peak and s.value <= (1.0 - cfg.drop_fraction) * peak:
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


class TriggerEntry(TupleRecord):
    __slots__ = ()
    tag: str
    description: str
    matched: bool

    def __new__(cls, tag, description, matched):
        return tuple_new(cls, (tag, description, matched))


class TransitionReport(TupleRecord):
    __slots__ = ()
    api: str
    stage: LifecycleStage
    transition: str | None
    entries: list[TriggerEntry]
    uncatalogued: list[str]

    def __new__(cls, api, stage, transition, entries, uncatalogued):
        return tuple_new(cls, (api, stage, transition, entries, uncatalogued))


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
