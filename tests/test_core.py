"""Label lattice, evidence-pair semantics, and the record types."""

import copy
import importlib
import inspect
import itertools
import pickle
import pkgutil
from enum import Enum

import pytest

import apimod
from apimod.core import (
    Activity, AssociationKind, AssociationLink, Contribution, ContributionStrength,
    Dependency, DependencyEnd, Dependum, Diagnostic, ElementKind, Evidence, EvidencePair,
    GActor, GElement, GoalModel, Label, MetricDef, Record, Refinement, RefinementKind,
    Scenario, Severity, SourceSpan, Stimulus, TupleRecord, VActor, ValueEnum, ValueFlow,
    ValueModel, ValueObject, evidence_to_label, label_max, label_min, label_to_evidence,
)
from apimod.cli import _Outcome
from apimod.dsl import parse_goal_model
from apimod.dsl.lexer import Token, TokKind
from apimod.dsl.parser import ParseResult
from apimod.evaluate import ComparisonRow, ComparisonTable, EvaluationResult, Rules
from apimod.govern import AutomationReport, DecisionItem, DimensionCoverage
from apimod.lifecycle import (
    ApiDescriptor, Characteristics, LifecycleStage, MismatchThresholds, Stability,
    TransitionReport, TriggerEntry, ValueCurveSample,
)
from apimod.link import WhoRow
from apimod.validate import Names

from helpers import CORPUS

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
    (Rules, ("model", ("a",), (), (), (0,), (0,), ())),
    (ComparisonRow, ("a", (Label.SATISFIED,))),
    (ComparisonTable, (("s",), (), (), (("s", 1),), "A")),
    (DecisionItem, ("x", 0.25, 0.75)),
    (DimensionCoverage, ((), (), ())),
    (AutomationReport, ((), ("m",), "note")),
    (WhoRow, ("m", "why", ("who",), ("where",), ("A",))),
    (Names, (("a",), ("A",), (1,), ("a",), ("A",))),
    (ParseResult, (None, ())),
    (SourceSpan, ("f", 1, 2, 3, 4)),
    (Token, (TokKind.IDENT, "goal", SourceSpan("f", 1, 1, 1, 4))),
    (_Outcome, (("f",), (), (), ("line",), "artifact")),
]

#: The trailing field defaults of each record that has any, as its
#: `NamedTuple` declared them.
DEFAULTS = {
    EvidencePair: (Evidence.NONE, Evidence.NONE),
    Diagnostic: (None,),
    DependencyEnd: (None,),
    Dependum: (None,),
    ValueObject: (ElementKind.RESOURCE,),
    MismatchThresholds: (0.7, 0.5),
    EvaluationResult: ("",),
    ComparisonTable: (None,),
    AutomationReport: (None,),
    _Outcome: ((), None),
}

_RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


def test_records_cover_every_tuple_record():
    for info in pkgutil.walk_packages(apimod.__path__, "apimod."):
        importlib.import_module(info.name)
    assert set(TupleRecord.__subclasses__()) == {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, values", RECORDS, ids=_RECORD_IDS)
def test_records_are_immutable_and_hash_by_value(cls, values):
    assert cls.__annotations__, "a record without annotated fields has none to check"
    record = cls(*values)
    for name in cls.__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("cls, values", RECORDS, ids=_RECORD_IDS)
def test_records_read_build_print_and_copy_as_named_tuples(cls, values):
    fields = list(cls.__annotations__)
    record = cls(*values)
    assert [getattr(record, name) for name in fields] == list(values) == list(record)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    assert list(inspect.signature(cls).parameters) == fields
    assert cls(**dict(zip(fields, values))) == record
    defaults = DEFAULTS.get(cls, ())
    required = values[:len(values) - len(defaults)]
    assert cls(*required) == cls(*required, *defaults)
    assert type(cls(*required)) is cls
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


#: One instance of each record that code changes in place.
SPAN = SourceSpan("f", 1, 1, 1, 2)
MUTABLE = [
    GElement("G", ElementKind.GOAL, "G", span=SPAN),
    GActor("A", "A", span=SPAN),
    Dependency("d1", DependencyEnd("A", "G"), Dependum(ElementKind.GOAL, "D"),
               DependencyEnd("B"), span=SPAN),
    AssociationLink(AssociationKind.PART_OF, "A", "B", span=SPAN),
    GoalModel("M"),
    Activity("a", "a", span=SPAN),
    VActor("A", "A", span=SPAN),
    ValueFlow("f1", "A", "B", span=SPAN),
    Stimulus("s", "s", "A", span=SPAN),
    ValueModel("M"),
    Scenario("s"),
    MetricDef("m", span=SPAN),
    Characteristics(),
    ApiDescriptor("X", LifecycleStage.PLAN),
]


@pytest.mark.parametrize("record", MUTABLE, ids=[type(r).__name__ for r in MUTABLE])
def test_changeable_records_are_unhashable_slotted_and_equal_by_value(record):
    with pytest.raises(TypeError):
        hash(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    twin = copy.deepcopy(record)
    assert twin == record and not twin != record
    assert record != object() and record != tuple(getattr(record, f) for f in record.__slots__)
    assert repr(twin) == repr(record)
    assert repr(record).startswith(type(record).__name__ + "(")


def test_span_is_left_out_of_equality():
    def element(span, name="G"):
        return GElement("G", ElementKind.GOAL, name, span=span)

    assert element(SPAN) == element(SourceSpan("g", 9, 9, 9, 9)) == element(None)
    assert element(SPAN) != element(SPAN, name="H")
    parsed = [parse_goal_model(text).model for text in (
        "goalmodel M { actor A { goal G } }", "goalmodel M {\n  actor A {\n    goal G\n  }\n}")]
    assert parsed[0] == parsed[1]
    assert parsed[0].actors[0].span != parsed[1].actors[0].span


def test_decision_items_are_frozen_hash_by_value_and_check_scores():
    item = DecisionItem("x", 0.25, 0.75)
    with pytest.raises(AttributeError):
        item.a = 0.5
    with pytest.raises(AttributeError):
        del item.name
    twin = DecisionItem("x", 0.25, 0.75)
    assert twin == item and hash(twin) == hash(item) and len({item, twin}) == 1
    assert item != DecisionItem("x", 0.25, 0.5)
    assert copy.deepcopy(item) == item and not hasattr(item, "__dict__")
    with pytest.raises(ValueError, match="score 1.5 outside"):
        DecisionItem("x", 1.5, 0.5)
    with pytest.raises(ValueError, match="score nan outside"):
        DecisionItem("x", 0.5, float("nan"))


def _containers(value, found: list) -> list:
    """Every list, dict and set reachable from `value` through records,
    tuples and containers."""
    if isinstance(value, Record):
        for name in value.__slots__:
            _containers(getattr(value, name), found)
    elif isinstance(value, (list, dict, set, tuple)):
        if not isinstance(value, tuple):
            found.append(value)
        for item in value.items() if isinstance(value, dict) else value:
            _containers(item, found)
    return found


def test_deep_copy_of_a_parsed_goal_model_is_equal_and_shares_no_container():
    model = parse_goal_model((CORPUS / "device_api.gm").read_text(encoding="utf-8"),
                             "device_api.gm").model
    twin = copy.deepcopy(model)  # what `link.link_metrics` starts from
    assert twin == model
    ours, theirs = _containers(model, []), _containers(twin, [])
    assert len(ours) == len(theirs) > 10
    assert not {id(c) for c in ours} & {id(c) for c in theirs}
    twin.actors[0].elements[0].contributions.append(
        Contribution("q", ContributionStrength.HELPS))
    assert twin != model


def test_characteristics_keep_their_field_order():
    row = Characteristics(Stability.STABLE)
    assert row.stability is Stability.STABLE and row.change is None
    assert [name for name, _ in row.items()] == list(Characteristics.__slots__)


def test_every_exported_name_resolves():
    for name in apimod.__all__:
        assert getattr(apimod, name) is not None
    assert set(apimod.__all__) <= set(dir(apimod))
    assert {"core", "evaluate", "govern", "lifecycle", "link", "transform",
            "validate"} <= set(dir(apimod))
    assert apimod.Scenario is Scenario and apimod.MetricDef is MetricDef
    assert apimod.validate.validate_goal_model is apimod.validate_goal_model
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        apimod.nothing


def test_every_apimod_enum_reads_its_value_through_the_shared_property():
    """A new `Enum` that is no `ValueEnum` would read `.value` through the
    slower `Enum` descriptor; `Evidence` is an `IntEnum` and counts as an int."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(apimod.__path__, "apimod.")]
    enums = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, Enum)
             and obj.__module__.startswith("apimod.")} - {ValueEnum, Evidence}
    assert len(enums) == 23  # core 11, the lexer's TokKind, lifecycle 7, govern 4
    value = ValueEnum.__dict__["value"]
    for cls in enums:
        assert issubclass(cls, ValueEnum) and inspect.getattr_static(cls, "value") is value
        member = next(iter(cls))
        assert cls(member.value) is member and member.value is member._value_
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member and copy.copy(member) is member
