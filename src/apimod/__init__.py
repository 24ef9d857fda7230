"""apimod: modeling and analysis toolkit for strategic API ecosystems."""

__version__ = "0.1.0"

#: Each submodule and the names the package re-exports from it. A submodule
#: loads when one of its names is first read (PEP 562), so a command imports
#: only the analyses it runs.
_EXPORTS = {
    "core": (
        "BapoTag", "Diagnostic", "EvidencePair", "GoalModel", "Label", "Layer",
        "Severity", "SourceSpan", "ValueModel", "evidence_to_label", "label_max",
        "label_min"),
    "evaluate": (
        "EvaluationResult", "Scenario", "compare_scenarios", "propagate",
        "propagate_metric_hierarchy"),
    "govern": (
        "DecisionItem", "GoodsClass", "MetricDef", "Quadrant", "classify_change",
        "classify_implementation", "classify_openness", "prioritize_items"),
    "lifecycle": (
        "ApiDescriptor", "LifecycleStage", "detect_value_mismatches",
        "expected_characteristics", "lint_characteristics", "transition_checklist"),
    "link": ("link_metrics", "who_report"),
    "transform": ("transform_value_to_goal",),
    "validate": (
        "check_bapo_coverage", "check_layer_coverage", "validate_goal_model",
        "validate_value_model"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A re-exported name or a submodule, imported on first use."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # What dir() listed when this module imported every submodule up front.
    return sorted({*globals(), *_EXPORTS, *__all__}
                  - {"_EXPORTS", "_HOME", "__getattr__", "__dir__"})
