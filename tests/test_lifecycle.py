"""Stage characteristics, value-curve mismatches, transition checklists."""

import random
from pathlib import Path

import pytest

from apimod.core import ApimodError, Severity
from apimod.lifecycle import (
    CHARACTERISTICS, ApiDescriptor, Change, Characteristics, Compatibility, Governance,
    LifecycleStage, MismatchThresholds, Stability, Support,
    ValueCurveSample, characteristics_matrix_text, curve_number_problems, curve_step_problems,
    detect_value_mismatches, expected_characteristics, lint_characteristics,
    load_trigger_catalog, transition_checklist,
)

DATA = Path(__file__).resolve().parent / "data"
P, O, DEP, R = (LifecycleStage.PLAN, LifecycleStage.OPERATION,
                LifecycleStage.DEPRECATION, LifecycleStage.RETIRE)


# ---------------------------------------------------------------------------
# Expected characteristics
# ---------------------------------------------------------------------------

def test_plan_row():
    row = expected_characteristics(P)
    assert row.stability is Stability.UNSTABLE
    assert row.support is Support.INTENSE_FEW_USERS


def test_operation_row():
    assert expected_characteristics(O).compatibility \
        is Compatibility.FORWARD_AND_BACKWARD


def test_retire_row():
    row = expected_characteristics(R)
    assert row.change is Change.NONE
    assert row.governance is Governance.NOT_APPLICABLE


def test_matrix_is_total_and_matches_reviewed_snapshot():
    for stage in LifecycleStage:
        row = expected_characteristics(stage)
        assert all(value is not None for _, value in row.items())
    snapshot = (DATA / "lifecycle_matrix.txt").read_text(encoding="utf-8")
    assert characteristics_matrix_text() == snapshot


def test_characteristics_table_names_every_field_with_its_enum():
    assert list(Characteristics.__slots__) == list(CHARACTERISTICS)
    for name, values in CHARACTERISTICS.items():
        assert isinstance(getattr(expected_characteristics(P), name), values)


def test_expected_rows_are_fresh_copies():
    row = expected_characteristics(P)
    row.stability = Stability.STABLE
    assert expected_characteristics(P).stability is Stability.UNSTABLE


# ---------------------------------------------------------------------------
# Characteristic linting
# ---------------------------------------------------------------------------

def full_descriptor(stage) -> ApiDescriptor:
    return ApiDescriptor(name="X", declared_stage=stage,
                         observed=expected_characteristics(stage))


def test_unstable_in_operation_is_flagged():
    d = full_descriptor(O)
    d.observed.stability = Stability.UNSTABLE
    diags = lint_characteristics(d)
    assert [x.code for x in diags] == ["W-CHAR"]
    assert "stability" in diags[0].message
    assert "mainly_stable" in diags[0].message


def test_exact_row_produces_no_warnings():
    for stage in LifecycleStage:
        assert lint_characteristics(full_descriptor(stage)) == []


def test_all_24_single_field_mutations_are_flagged():
    fields = {
        "stability": Stability, "change": Change, "commitment": __import__(
            "apimod.lifecycle", fromlist=["Commitment"]).Commitment,
        "governance": Governance, "compatibility": Compatibility,
        "support": Support,
    }
    flagged = 0
    for stage in LifecycleStage:
        for field_name, enum_cls in fields.items():
            d = full_descriptor(stage)
            expected = getattr(d.observed, field_name)
            mutated = next(v for v in enum_cls if v is not expected)
            setattr(d.observed, field_name, mutated)
            diags = [x for x in lint_characteristics(d) if x.code == "W-CHAR"]
            assert len(diags) == 1, (stage, field_name)
            assert field_name in diags[0].message
            flagged += 1
    assert flagged == 24


def test_unobserved_fields_are_informational():
    d = ApiDescriptor(name="X", declared_stage=P,
                      observed=Characteristics(stability=Stability.UNSTABLE))
    diags = lint_characteristics(d)
    infos = [x for x in diags if x.code == "I-UNOBSERVED"]
    assert len(infos) == 5
    assert all(x.severity is Severity.INFO for x in infos)
    assert not [x for x in diags if x.code == "W-CHAR"]


# ---------------------------------------------------------------------------
# Curve rules
# ---------------------------------------------------------------------------

def test_curve_step_problems_reports_range_before_order():
    before = ValueCurveSample(2.0, O, 0.5)
    assert curve_step_problems(before, ValueCurveSample(3.0, P, 1.5)) == [
        ("E-RANGE", "curve value 1.5 outside [0, 1]"),
        ("E-ORDER", "curve stages may not move backward"),
    ]
    assert curve_step_problems(before, ValueCurveSample(1.0, P, 0.5)) == [
        ("E-ORDER", "curve samples must have increasing times"),
        ("E-ORDER", "curve stages may not move backward"),
    ]


def test_curve_step_problems_first_sample_checks_only_range():
    assert curve_step_problems(None, ValueCurveSample(-5.0, R, 0.0)) == []
    assert [code for code, _ in curve_step_problems(
        None, ValueCurveSample(0.0, P, -0.1))] == ["E-RANGE"]


def test_curve_number_problems_refuse_what_the_api_format_cannot_write():
    assert curve_number_problems(ValueCurveSample(-1.0, P, 1e-05)) == [
        ("time", "E-RANGE", "curve time -1.0 cannot be written as a number"),
        ("value", "E-RANGE", "curve value 1e-05 cannot be written as a number"),
    ]
    assert curve_number_problems(ValueCurveSample(1e20, P, 0.1234567891)) == [
        ("time", "E-RANGE", "curve time 1e+20 cannot be written as a number")]
    # A round time of 1e6 or more is written without an exponent.
    assert curve_number_problems(ValueCurveSample(1e6, P, 0.5)) == []
    # A value outside [0, 1] is left to the range rule of `curve_step_problems`.
    assert curve_number_problems(ValueCurveSample(0.0, P, -1.0)) == []


# ---------------------------------------------------------------------------
# Value-curve mismatches
# ---------------------------------------------------------------------------

def curve(*samples) -> list[ValueCurveSample]:
    return [ValueCurveSample(float(i), stage, value)
            for i, (stage, value) in enumerate(samples)]


def detect(samples, **kw):
    d = ApiDescriptor(name="X", declared_stage=O, curve=samples)
    return [x.code for x in detect_value_mismatches(d, MismatchThresholds(**kw))]


IDEAL = curve((P, 0.1), (P, 0.35), (P, 0.6), (O, 0.75), (O, 0.8), (O, 0.7),
              (DEP, 0.45), (R, 0.1))


def test_m1_high_value_while_planning():
    assert detect(curve((P, 0.9)), high=0.7) == ["M1"]


def test_m2_flat_before_operation():
    assert detect(curve((P, 0.5), (P, 0.5), (O, 0.75), (O, 0.8))) == ["M2"]
    assert detect(curve((P, 0.6), (P, 0.4), (O, 0.75), (O, 0.8))) == ["M2"]
    d = ApiDescriptor(name="X", declared_stage=O,
                      curve=curve((P, 0.6), (P, 0.4), (O, 0.75), (O, 0.8)))
    assert [m.message for m in detect_value_mismatches(d, MismatchThresholds())] == [
        "X: value is not rising across the last 2 planning samples (0.6 -> 0.4) "
        "before operation"]


def test_m3_operation_reached_without_high_value():
    assert detect(curve((P, 0.2), (P, 0.4), (O, 0.5), (O, 0.6))) == ["M3"]


def test_m4_collapse_during_operation():
    assert detect(curve((P, 0.3), (P, 0.6), (O, 0.9), (O, 0.3)),
                  drop_fraction=0.5) == ["M4"]
    # 0.5 > (1 - 0.5) * 0.9, so a shallower dip is fine
    assert detect(curve((P, 0.3), (P, 0.6), (O, 0.9), (O, 0.5)),
                  drop_fraction=0.5) == []


def test_m4_needs_a_fall_below_the_peak():
    # A curve that enters operation at 0 has a peak of 0 and never falls.
    assert "M4" not in detect(curve((P, 0.0), (O, 0.0), (O, 0.0)))
    # With no drop required, a flat curve still has not fallen.
    assert detect(curve((O, 0.8), (O, 0.8)), high=0.7, drop_fraction=0.0) == []


def test_m4_with_no_drop_required_reports_any_fall():
    assert detect(curve((O, 0.8), (O, 0.79)), high=0.7, drop_fraction=0.0) == ["M4"]


def test_m5_still_high_at_deprecation():
    assert detect(curve((P, 0.3), (P, 0.6), (O, 0.9), (O, 0.85), (DEP, 0.8))) \
        == ["M5"]
    assert detect(curve((P, 0.3), (P, 0.6), (O, 0.9), (O, 0.85), (R, 0.9))) \
        == ["M5"]


def test_ideal_curve_is_clean():
    assert detect(IDEAL) == []


def test_each_pattern_raises_exactly_its_own_code():
    cases = {
        "M1": curve((P, 0.9), (P, 0.95), (O, 0.96), (O, 0.9), (DEP, 0.2)),
        "M2": curve((P, 0.5), (P, 0.4), (O, 0.75), (O, 0.8), (DEP, 0.3)),
        "M3": curve((P, 0.1), (P, 0.3), (O, 0.5), (O, 0.65), (DEP, 0.3)),
        "M4": curve((P, 0.2), (P, 0.5), (O, 0.9), (O, 0.2), (DEP, 0.1)),
        "M5": curve((P, 0.2), (P, 0.5), (O, 0.9), (O, 0.85), (DEP, 0.8)),
    }
    for code, samples in cases.items():
        assert detect(samples) == [code], code


def test_empty_curve_raises():
    d = ApiDescriptor(name="X", declared_stage=P, curve=[])
    with pytest.raises(ApimodError) as exc:
        detect_value_mismatches(d)
    assert exc.value.code == "E-EMPTY"


def random_curve(rng: random.Random) -> list[ValueCurveSample]:
    n = rng.randint(1, 10)
    stages = sorted(rng.choices(list(LifecycleStage), k=n),
                    key=list(LifecycleStage).index)
    return [ValueCurveSample(float(i), stage, round(rng.random(), 3))
            for i, stage in enumerate(stages)]


def test_threshold_monotonicity_on_random_curves():
    # Raising `high` never adds an M1/M5 finding and never removes an M3.
    rng = random.Random(4242)
    for _ in range(100):
        samples = random_curve(rng)
        lo = detect(samples, high=0.5)
        hi = detect(samples, high=0.8)
        for code in ("M1", "M5"):
            assert not (code in hi and code not in lo)
        assert not ("M3" in lo and "M3" not in hi)


# ---------------------------------------------------------------------------
# Transition checklist
# ---------------------------------------------------------------------------

def test_technical_debt_rationale_matches_catalog():
    d = ApiDescriptor(name="X", declared_stage=O,
                      transition_rationales=["technical-debt"])
    report = transition_checklist(d)
    assert report.transition == "operation_to_deprecation"
    matched = [e.tag for e in report.entries if e.matched]
    assert matched == ["technical-debt"]
    assert report.uncatalogued == []


def test_rationale_text_is_normalized_before_matching():
    d = ApiDescriptor(name="X", declared_stage=O,
                      transition_rationales=["Technical debt"])
    assert [e.tag for e in transition_checklist(d).entries if e.matched] \
        == ["technical-debt"]


def test_no_rationales_lists_full_catalog_unmatched():
    d = ApiDescriptor(name="X", declared_stage=P)
    report = transition_checklist(d)
    catalog = load_trigger_catalog()["planning_to_operation"]
    assert len(report.entries) == len(catalog)
    assert not any(e.matched for e in report.entries)


def test_unknown_rationale_is_uncatalogued():
    d = ApiDescriptor(name="X", declared_stage=DEP,
                      transition_rationales=["alien-reason"])
    report = transition_checklist(d)
    assert report.uncatalogued == ["alien-reason"]


def test_retire_has_no_outgoing_transition():
    d = ApiDescriptor(name="X", declared_stage=R)
    report = transition_checklist(d)
    assert report.transition is None and report.entries == []


def test_catalog_covers_all_four_transitions():
    catalog = load_trigger_catalog()
    assert set(catalog) == {"to_planning", "planning_to_operation",
                            "operation_to_deprecation",
                            "deprecation_to_retirement"}
    for entries in catalog.values():
        assert entries
        tags = [e["tag"] for e in entries]
        assert len(tags) == len(set(tags))
