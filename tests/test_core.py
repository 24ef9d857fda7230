"""Label lattice and evidence-pair semantics."""

import itertools

import pytest

from apimod.core import (
    Contribution, ContributionStrength, DependencyEnd, Dependum, Diagnostic, ElementKind,
    Evidence, EvidencePair, Label, Refinement, RefinementKind, Severity,
    SourceSpan, ValueObject, evidence_to_label, label_max, label_min, label_to_evidence,
)
from apimod.dsl.parser import ParseResult
from apimod.evaluate import ComparisonRow, ComparisonTable, EvaluationResult, Rules
from apimod.govern import AutomationReport, DimensionCoverage
from apimod.lifecycle import (
    LifecycleStage, MismatchThresholds, TransitionReport, TriggerEntry, ValueCurveSample,
)
from apimod.link import WhoRow

ORDERED = [Label.DENIED, Label.PARTIALLY_DENIED, Label.UNKNOWN,
           Label.PARTIALLY_SATISFIED, Label.SATISFIED]
ALL = ORDERED + [Label.CONFLICT]


def test_min_of_satisfied_pair_is_satisfied():
    assert label_min(Label.SATISFIED, Label.SATISFIED) is Label.SATISFIED


def test_min_follows_order():
    assert label_min(Label.SATISFIED, Label.PARTIALLY_DENIED) is Label.PARTIALLY_DENIED
    assert label_max(Label.SATISFIED, Label.PARTIALLY_DENIED) is Label.SATISFIED


def test_conflict_absorbs():
    assert label_max(Label.DENIED, Label.CONFLICT) is Label.CONFLICT
    assert label_min(Label.SATISFIED, Label.CONFLICT) is Label.CONFLICT


@pytest.mark.parametrize("op", [label_min, label_max])
def test_commutative_and_associative(op):
    for a, b in itertools.product(ALL, repeat=2):
        assert op(a, b) is op(b, a)
    for a, b, c in itertools.product(ALL, repeat=3):
        assert op(op(a, b), c) is op(a, op(b, c))


@pytest.mark.parametrize("op", [label_min, label_max])
def test_idempotent(op):
    for a in ALL:
        assert op(a, a) is a


def test_min_max_are_bounds_on_regular_labels():
    for a, b in itertools.product(ORDERED, repeat=2):
        lo, hi = label_min(a, b), label_max(a, b)
        assert {lo, hi} <= {a, b}
        assert ORDERED.index(lo) <= ORDERED.index(hi)


def test_projection_is_total_over_all_nine_states():
    seen = []
    for pos, neg in itertools.product(Evidence, repeat=2):
        seen.append(evidence_to_label(EvidencePair(pos, neg)))
    assert len(seen) == 9
    assert all(isinstance(label, Label) for label in seen)


def test_projection_table():
    assert evidence_to_label(EvidencePair()) is Label.UNKNOWN
    assert evidence_to_label(EvidencePair(Evidence.FULL, Evidence.NONE)) is Label.SATISFIED
    assert evidence_to_label(EvidencePair(Evidence.PARTIAL, Evidence.NONE)) \
        is Label.PARTIALLY_SATISFIED
    assert evidence_to_label(EvidencePair(Evidence.NONE, Evidence.PARTIAL)) \
        is Label.PARTIALLY_DENIED
    assert evidence_to_label(EvidencePair(Evidence.NONE, Evidence.FULL)) is Label.DENIED
    assert evidence_to_label(EvidencePair(Evidence.PARTIAL, Evidence.PARTIAL)) \
        is Label.CONFLICT
    assert evidence_to_label(EvidencePair(Evidence.FULL, Evidence.PARTIAL)) \
        is Label.CONFLICT


def test_label_evidence_round_trip_on_pure_labels():
    for label in ALL:
        assert evidence_to_label(label_to_evidence(label)) is label


def test_merge_is_monotone_and_commutative():
    pairs = [EvidencePair(p, n) for p, n in itertools.product(Evidence, repeat=2)]
    for x, y in itertools.product(pairs, repeat=2):
        merged = x.merge(y)
        assert merged == y.merge(x)
        assert merged.positive >= x.positive and merged.negative >= x.negative
        assert merged.merge(y) == merged


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

#: Each record nothing changes, with field values for one instance. Container
#: fields hold tuples so that the instance is hashable; a list field would
#: make hash() fail on the list, not on the record.
RECORDS = [
    (EvidencePair, (Evidence.FULL, Evidence.NONE)),
    (Diagnostic, (Severity.ERROR, "E-X", "m", SourceSpan("f", 1, 1, 1, 2))),
    (Contribution, ("q", ContributionStrength.HELPS)),
    (Refinement, (RefinementKind.AND, ("a", "b"))),
    (DependencyEnd, ("A", "g")),
    (Dependum, (ElementKind.GOAL, "d", Label.SATISFIED)),
    (ValueObject, ("money", ElementKind.RESOURCE)),
    (ValueCurveSample, (0.0, LifecycleStage.PLAN, 0.5)),
    (MismatchThresholds, (0.7, 0.5)),
    (TriggerEntry, ("tag", "description", True)),
    (TransitionReport, ("X", LifecycleStage.PLAN, "planning_to_operation", (), ("t",))),
    (EvaluationResult, ((), frozenset({"a"}), 1, (), "s")),
    (Rules, ("model", ("a",), (), (), (), (0,))),
    (ComparisonRow, ("a", (Label.SATISFIED,))),
    (ComparisonTable, (("s",), (), (), (("s", 1),), "A")),
    (DimensionCoverage, ((), (), ())),
    (AutomationReport, ((), ("m",), "note")),
    (WhoRow, ("m", "why", ("who",), ("where",), ("A",))),
    (ParseResult, (None, ())),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_and_hash_by_value(cls, values):
    record = cls(*values)
    for name in cls.__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record)
