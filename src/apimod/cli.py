"""Command-line entry point.

Exit codes follow linter practice: 0 clean, 1 warnings only (2 with
--strict), 2 errors, 64 for usage mistakes, 141 when stdout's reader closes early.
"""

import argparse
import math
import os
import sys
from collections.abc import Iterator, Sequence

# Every command reports through these two; each handler imports the rest of
# what it calls when it runs, so a call loads only the modules it uses.
from .core import (
    ApimodError, AutomationLevel, Diagnostic, GoalModel, Scenario, TupleRecord, ValueModel,
    sort_diagnostics, tuple_new,
)
from .report import exit_code_for, make_report, report_json

USAGE_EXIT = 64


def _unit_interval(text: str) -> float:
    """argparse type for a finite number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


class _Cli(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _common(p):
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report instead of text")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors for the exit code")


def _check_arguments(p):
    p.add_argument("file")
    p.add_argument("--focus", action="append", default=[],
                   help="API of focus for layer-coverage checking (repeatable)")
    p.add_argument("--strict-reciprocity", action="store_true",
                   help="require a backflow for every actor pair")
    _common(p)


def _transform_arguments(p):
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the goal model here instead of stdout")
    _common(p)


def _evaluate_arguments(p):
    p.add_argument("file")
    p.add_argument("--scenario", required=True)
    _common(p)


def _compare_arguments(p):
    p.add_argument("file")
    p.add_argument("--scenarios", required=True,
                   help="comma-separated scenario files")
    p.add_argument("--actor", help="restrict rows and scoring to this actor")
    _common(p)


def _lifecycle_arguments(p):
    p.add_argument("file")
    p.add_argument("--curve", help="CSV (t,stage,value) replacing the inline curve")
    p.add_argument("--high", type=_unit_interval, default=0.7,
                   help="value considered 'very high' (default 0.7)")
    p.add_argument("--drop", type=_unit_interval, default=0.5,
                   help="in-operation drop fraction considered excessive (default 0.5)")
    _common(p)


def _govern_arguments(p):
    gsub = p.add_subparsers(dest="govern_command", required=True, parser_class=_Cli)
    g = gsub.add_parser("classify", help="quadrant-classify decision items from CSV")
    g.add_argument("file", help="CSV with columns name,a,b")
    g.add_argument("--mode", choices=["impl", "change"], required=True)
    g.add_argument("--threshold", type=_unit_interval, default=0.5)
    _common(g)
    g = gsub.add_parser("openness", help="classify an API on the openness grid")
    g.add_argument("exclusion", choices=["difficult", "easy"])
    g.add_argument("subtractability", choices=["low", "high"])
    _common(g)
    g = gsub.add_parser("catalog", help="print the governance aspect/strategy catalog")
    _common(g)


def _metrics_arguments(p):
    msub = p.add_subparsers(dest="metrics_command", required=True, parser_class=_Cli)
    m = msub.add_parser("link", help="attach catalog metrics to a goal model")
    m.add_argument("model")
    m.add_argument("catalog")
    m.add_argument("-o", "--output")
    _common(m)
    m = msub.add_parser("check", help="lint a metric catalog")
    m.add_argument("catalog")
    _common(m)
    m = msub.add_parser("who", help="why/who/where table for a catalog")
    m.add_argument("model")
    m.add_argument("catalog")
    _common(m)
    m = msub.add_parser("dimensions", help="dimension coverage report")
    m.add_argument("catalog")
    _common(m)
    m = msub.add_parser("automation", help="automation grouping of design metrics")
    m.add_argument("catalog")
    _common(m)


def _export_arguments(p):
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--focus", help="group actors into layer bands for this focus")
    p.add_argument("--flat", action="store_true", help="do not cluster by actor")
    _common(p)


#: Each command, in help order: its help line and the function that adds its
#: arguments to its subparser.
_SUBPARSERS = {
    "check": ("parse and validate a model file", _check_arguments),
    "transform": ("derive a draft goal model from a value model", _transform_arguments),
    "evaluate": ("propagate scenario labels through a goal model", _evaluate_arguments),
    "compare": ("evaluate scenarios side by side", _compare_arguments),
    "lifecycle": ("lint an API descriptor against its stage", _lifecycle_arguments),
    "govern": ("governance classifiers and reference catalog", _govern_arguments),
    "metrics": ("metric catalog checks and goal-model linking", _metrics_arguments),
    "export": ("render a model as DOT", _export_arguments),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for a call whose first argument is `command`. A command
    gets only its own subparser: building the others costs about ten times
    as long, and that call never reads them. Anything else (no argument,
    `--help`, a mistake) gets every subparser, since the help and the error
    list them all. A subparser's help and errors do not depend on the
    others, and the usage line still names every command."""
    parser = _Cli(prog="apimod",
                  description="Analysis toolkit for strategic API ecosystem models")
    every = command not in _SUBPARSERS
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Cli,
        metavar=None if every else "{" + ",".join(_SUBPARSERS) + "}")
    for name, (help_text, arguments) in _SUBPARSERS.items():
        if every or name == command:
            arguments(sub.add_parser(name, help=help_text))
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class _Failure(Exception):
    """A clean error: its message goes to stderr and the exit code is 2."""


class _ParseFailure(Exception):
    def __init__(self, path: str, diagnostics: list[Diagnostic]):
        super().__init__(f"{path}: parse failed")
        self.path = path
        self.diagnostics = diagnostics


class _Outcome(TupleRecord):
    """What a command found. `artifact` is the text `-o` writes; `lines` is
    the text report after the diagnostics."""

    __slots__ = ()
    files: list[str]
    diagnostics: list[Diagnostic]
    analysis: dict
    lines: Sequence[str]
    artifact: str | None

    def __new__(cls, files, diagnostics, analysis, lines=(), artifact=None):
        return tuple_new(cls, (files, diagnostics, analysis, lines, artifact))


def _render(args, command: str, outcome: _Outcome) -> int:
    """Write a command's result and return its exit code.

    With --json the report envelope goes to stdout. An artifact goes to -o
    or stdout, and its diagnostics to whichever of stdout and stderr it left
    free. Otherwise the diagnostics and then the text lines go to stdout.
    """
    diagnostics = sort_diagnostics(outcome.diagnostics)
    if args.json:
        sys.stdout.write(report_json(make_report(
            command, outcome.files, diagnostics, outcome.analysis)))
    else:
        stream = sys.stdout
        if outcome.artifact is not None:
            if args.output is None:
                sys.stdout.write(outcome.artifact)
                stream = sys.stderr
            else:
                try:
                    with open(args.output, "w", encoding="utf-8") as out:
                        out.write(outcome.artifact)
                except OSError as exc:
                    raise _Failure(f"cannot write {args.output}: "
                                   f"{exc.strerror or exc}") from exc
        for line in [d.render() for d in diagnostics] + list(outcome.lines):
            print(line, file=stream)
    sys.stdout.flush()  # a reader that closed early fails in `main`, not at exit
    return exit_code_for(diagnostics, args.strict)


def _read(path: str) -> str:
    """The text of an input file, without a leading UTF-8 byte-order mark
    (spreadsheet "CSV UTF-8" exports and some editors write one)."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(f"cannot read {path}: not valid UTF-8 "
                       f"(byte offset {exc.start})") from exc


def _csv_rows(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) for each row of a CSV file that has data.

    Blank rows and a first non-blank row equal to `header` are skipped; a
    row with fewer cells than `header` is an error."""
    import csv
    try:
        rows = list(csv.reader(_read(path).splitlines()))
    except csv.Error as exc:
        raise _Failure(f"{path}: {exc}") from exc
    first = next((i for i, row in enumerate(rows) if row), None)
    for i, row in enumerate(rows):
        if not row or (i == first and [c.strip().lower() for c in row[:len(header)]]
                       == header):
            continue
        if len(row) < len(header):
            raise _Failure(f"{path}: row {i + 1}: expected {','.join(header)}")
        yield i + 1, row


def _parse_file(parse, path: str):
    """Parse a file; on errors raise a _ParseFailure with its diagnostics."""
    result = parse(_read(path), path)
    if not result.ok:
        raise _ParseFailure(path, result.diagnostics)
    return result


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> _Outcome:
    from .dsl import parse_model
    from .validate import (
        check_bapo_coverage, check_layer_coverage, validate_goal_model,
        validate_value_model,
    )
    text = _read(args.file)
    result = parse_model(text, args.file)
    diagnostics = list(result.diagnostics)
    analysis: dict = {"modelKind": None}
    if result.ok:
        model = result.model
        if isinstance(model, ValueModel):
            analysis["modelKind"] = "valuemodel"
            diagnostics += validate_value_model(
                model, strict_reciprocity=args.strict_reciprocity)
        elif isinstance(model, GoalModel):
            analysis["modelKind"] = "goalmodel"
            diagnostics += validate_goal_model(model)
        elif isinstance(model, list):
            from .govern import check_metric_catalog
            analysis["modelKind"] = "metrics"
            diagnostics += check_metric_catalog(model)
        elif isinstance(model, Scenario):
            analysis["modelKind"] = "scenario"
        else:  # an API descriptor, the one kind that needs `lifecycle`
            from .lifecycle import lint_characteristics
            analysis["modelKind"] = "api"
            diagnostics += lint_characteristics(model)
        if isinstance(model, (ValueModel, GoalModel)):
            focuses = args.focus or sorted(
                {f for a in model.actors for f in a.layer_assignments})
            for focus in focuses:
                diagnostics += check_layer_coverage(model, focus)
            diagnostics += check_bapo_coverage(model)
            analysis["focuses"] = focuses
    return _Outcome([args.file], diagnostics, analysis)


def _cmd_transform(args) -> _Outcome:
    from .dsl import parse_value_model, print_goal_model
    from .transform import transform_value_to_goal
    result = _parse_file(parse_value_model, args.file)
    goal, diagnostics = transform_value_to_goal(result.model)
    text = print_goal_model(goal)
    return _Outcome([args.file], diagnostics, {"goalModel": text}, artifact=text)


def _cmd_evaluate(args) -> _Outcome:
    from .dsl import parse_goal_model, parse_scenario
    from .evaluate import RULE_SET, evaluation_nodes, propagate
    model = _parse_file(parse_goal_model, args.file).model
    scenario = _parse_file(parse_scenario, args.scenario).model
    result = propagate(model, scenario)
    dependums = {d.id: d.dependum for d in model.dependencies}
    lines = [f"scenario: {result.scenario}", f"rule set: {RULE_SET}",
             f"iterations: {result.iterations}"]
    labels = {}
    for node in evaluation_nodes(model):
        labels[node] = result.labels[node].value
        dep = dependums.get(node)
        kind = f" [{dep.kind.value} {dep.name}]" if dep is not None else ""
        mark = " (overridden)" if node in result.overridden else ""
        lines.append(f"  {node}{kind} = {labels[node]}{mark}")
    analysis = {
        "scenario": result.scenario,
        "ruleSet": RULE_SET,
        "iterations": result.iterations,
        "labels": labels,
        "overridden": sorted(result.overridden),
    }
    return _Outcome([args.file, args.scenario], result.diagnostics, analysis, lines)


def _cmd_compare(args) -> _Outcome:
    from .dsl import parse_goal_model, parse_scenario
    from .evaluate import RULE_SET, compare_scenarios
    model = _parse_file(parse_goal_model, args.file).model
    paths = [p for p in args.scenarios.split(",") if p]
    scenarios = [_parse_file(parse_scenario, p).model for p in paths]
    table = compare_scenarios(model, scenarios, args.actor)
    lines = [f"rule set: {RULE_SET}",
             "scenarios: " + ", ".join(table.scenarios)]
    for row in table.rows:
        cells = ", ".join(f"{name}={label.value}"
                          for name, label in zip(table.scenarios, row.labels))
        lines.append(f"  {row.node}: {cells}")
    for name in table.scenarios:
        lines.append(f"score {name}: {table.scores[name]:g}")
    lines.append("ranking: " + ", ".join(f"{name} (#{rank})"
                                         for name, rank in table.ranking))
    analysis = {
        "ruleSet": RULE_SET,
        "scenarios": table.scenarios,
        "focusActor": table.focus_actor,
        "rows": [{"node": row.node,
                  "labels": [label.value for label in row.labels]}
                 for row in table.rows],
        "scores": {name: table.scores[name] for name in table.scenarios},
        "ranking": [{"scenario": name, "rank": rank}
                    for name, rank in table.ranking],
    }
    return _Outcome([args.file] + paths, [], analysis, lines)


def _load_curve_csv(path: str) -> list:
    from .lifecycle import (
        LifecycleStage, ValueCurveSample, curve_number_problems, curve_step_problems,
    )
    stages = {s.value: s for s in LifecycleStage}
    samples = []
    for n, row in _csv_rows(path, ["t", "stage", "value"]):
        try:
            t, value = float(row[0]), float(row[2])
        except ValueError as exc:
            raise _Failure(f"{path}: row {n}: {exc}") from exc
        if not math.isfinite(t):  # nan would pass the forward-in-time check
            raise _Failure(f"{path}: row {n}: time {t} is not finite")
        stage = stages.get(row[1].strip().lower())
        if stage is None:
            raise _Failure(f"{path}: row {n}: unknown stage {row[1]!r}")
        sample = ValueCurveSample(t, stage, value)
        problems = (curve_step_problems(samples[-1] if samples else None, sample)
                    + [p[1:] for p in curve_number_problems(sample)])
        if problems:
            raise _Failure(f"{path}: row {n}: {problems[0][1]}")
        samples.append(sample)
    return samples


def _cmd_lifecycle(args) -> _Outcome:
    from .dsl import parse_api_descriptor
    from .lifecycle import (
        MismatchThresholds, detect_value_mismatches, lint_characteristics,
        transition_checklist,
    )
    descriptor = _parse_file(parse_api_descriptor, args.file).model
    if args.curve:
        descriptor.curve = _load_curve_csv(args.curve)
    diagnostics = lint_characteristics(descriptor)
    thresholds = MismatchThresholds(high=args.high, drop_fraction=args.drop)
    if descriptor.curve:
        diagnostics = diagnostics + detect_value_mismatches(descriptor, thresholds)
    checklist = transition_checklist(descriptor)
    lines = [f"api: {descriptor.name}", f"stage: {descriptor.declared_stage.value}"]
    if checklist.transition is None:
        lines.append("no outgoing transition from the retire stage")
    else:
        lines.append(f"transition: {checklist.transition}")
        for entry in checklist.entries:
            mark = "matched" if entry.matched else "open"
            lines.append(f"  [{mark}] {entry.tag}: {entry.description}")
    for tag in checklist.uncatalogued:
        lines.append(f"  uncatalogued rationale: {tag}")
    analysis = {
        "api": descriptor.name,
        "stage": descriptor.declared_stage.value,
        "transition": checklist.transition,
        "triggers": [{"tag": e.tag, "description": e.description,
                      "matched": e.matched} for e in checklist.entries],
        "uncatalogued": checklist.uncatalogued,
        "thresholds": {"high": args.high, "drop": args.drop},
    }
    return _Outcome([args.file], diagnostics, analysis, lines)


def _cmd_govern(args) -> _Outcome:
    from .govern import (
        DecisionItem, Exclusion, Subtractability, classify_openness,
        load_governance_catalog, parse_score, prioritize_items,
    )
    if args.govern_command == "openness":
        goods = classify_openness(Exclusion(args.exclusion),
                                  Subtractability(args.subtractability))
        lines = [f"{args.exclusion} exclusion + {args.subtractability} "
                 f"subtractability -> {goods.value}"]
        analysis = {"exclusion": args.exclusion,
                    "subtractability": args.subtractability,
                    "goodsClass": goods.value}
        return _Outcome([], [], analysis, lines)
    if args.govern_command == "catalog":
        catalog = load_governance_catalog()
        lines = ["aspects:"]
        lines += [f"  {item['name']}: {item['description']}"
                  for item in catalog["aspects"]]
        lines.append("strategies:")
        lines += [f"  {item['name']}: {item['description']}"
                  for item in catalog["strategies"]]
        return _Outcome([], [], catalog, lines)
    items = []
    for n, row in _csv_rows(args.file, ["name", "a", "b"]):
        try:
            items.append(DecisionItem(row[0].strip(), parse_score(row[1]),
                                      parse_score(row[2])))
        except ValueError as exc:
            raise _Failure(f"{args.file}: row {n}: {exc}") from exc
    ranked = prioritize_items(items, args.mode, args.threshold)
    lines = [f"mode: {args.mode} (threshold {args.threshold:g})"]
    lines += [f"  {quadrant.value} {item.name} (a={item.a:g}, b={item.b:g})"
              for item, quadrant in ranked]
    analysis = {
        "mode": args.mode,
        "threshold": args.threshold,
        "items": [{"name": item.name, "a": item.a, "b": item.b,
                   "quadrant": quadrant.value} for item, quadrant in ranked],
    }
    return _Outcome([args.file], [], analysis, lines)


def _cmd_metrics(args) -> _Outcome:
    from .dsl import parse_goal_model, parse_metric_catalog
    if args.metrics_command in ("who", "link"):
        model = _parse_file(parse_goal_model, args.model).model
    catalog = _parse_file(parse_metric_catalog, args.catalog).model
    if args.metrics_command == "check":
        from .govern import check_metric_catalog
        diagnostics = check_metric_catalog(catalog)
        return _Outcome([args.catalog], diagnostics,
                        {"metrics": [m.name for m in catalog]})
    if args.metrics_command == "dimensions":
        from .govern import dimension_coverage_report
        coverage = dimension_coverage_report(catalog)
        lines = []
        for dim, count in coverage.counts.items():
            names = ", ".join(coverage.metrics[dim])
            lines.append(f"{dim.value}: {count}" + (f" ({names})" if names else ""))
        for dim, question in coverage.gaps:
            lines.append(f"gap {dim.value}: {question}")
        analysis = {
            "counts": {d.value: n for d, n in coverage.counts.items()},
            "metrics": {d.value: names for d, names in coverage.metrics.items()},
            "gaps": [{"dimension": d.value, "question": qn}
                     for d, qn in coverage.gaps],
        }
        return _Outcome([args.catalog], [], analysis, lines)
    if args.metrics_command == "automation":
        from .govern import automation_report
        rep = automation_report(catalog)
        lines = []
        if rep.note:
            lines.append(rep.note)
        for level in AutomationLevel:
            if rep.groups[level]:
                lines.append(f"{level.value}: " + ", ".join(rep.groups[level]))
        if rep.unclassified:
            lines.append("unclassified: " + ", ".join(rep.unclassified))
        analysis = {
            "groups": {level.value: rep.groups[level] for level in AutomationLevel},
            "unclassified": rep.unclassified,
            "note": rep.note,
        }
        return _Outcome([args.catalog], [], analysis, lines)
    if args.metrics_command == "who":
        from .link import who_report
        rows = who_report(model, catalog)
        lines = [
            f"{r.metric}: why={r.why or '?'} who={', '.join(r.who) or '?'} "
            f"where={', '.join(r.where) or '?'} actors={', '.join(r.actors) or '-'}"
            for r in rows
        ]
        analysis = {"rows": [{"metric": r.metric, "why": r.why, "who": r.who,
                              "where": r.where, "actors": r.actors}
                             for r in rows]}
        return _Outcome([args.model, args.catalog], [], analysis, lines)
    from .dsl import print_goal_model
    from .link import link_metrics
    linked, diagnostics = link_metrics(model, catalog)
    text = print_goal_model(linked)
    return _Outcome([args.model, args.catalog], diagnostics, {"goalModel": text},
                    artifact=text)


def _cmd_export(args) -> _Outcome:
    from .dsl import parse_model
    from .report import export_dot
    result = _parse_file(parse_model, args.file)
    if not isinstance(result.model, (ValueModel, GoalModel)):
        raise _Failure(f"{args.file}: only value and goal models can be exported")
    dot = export_dot(result.model, cluster_by_actor=not args.flat,
                     layer_bands=args.focus)
    return _Outcome([args.file], [], {"dot": dot}, artifact=dot)


_HANDLERS = {
    "check": _cmd_check,
    "transform": _cmd_transform,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "lifecycle": _cmd_lifecycle,
    "govern": _cmd_govern,
    "metrics": _cmd_metrics,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    sub = getattr(args, f"{args.command}_command", None)  # govern and metrics
    command = f"{args.command} {sub}" if sub else args.command
    try:
        try:
            outcome = _HANDLERS[args.command](args)
        except _ParseFailure as exc:
            outcome = _Outcome([exc.path], exc.diagnostics, {})
        return _render(args, command, outcome)
    except BrokenPipeError:  # the `signal` docs' "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _Failure as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ApimodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: never end in a traceback
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
