"""The three benchmark workloads: their inputs, pipelines and output checks.

Each workload builds a pool of requests from the seed during set-up, then
the harness cycles through the pool. ``run`` is the timed pipeline of one
request; ``check`` verifies its output and returns an error message or None.
Pipelines call the layers through module attributes (``dsl.parse_model``),
so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from apimod import dsl, evaluate, report, transform, validate
from apimod.cli import main as cli_main
from apimod.core import Label
from apimod.dsl import parse_model as _parse_model_untraced
from apimod.dsl import print_model as _print_model_untraced
from apimod.dsl import tokenize as _tokenize_untraced

import gen
from helpers import oracle_propagate, parse_dot
from spans import model_nodes

ROOT = Path(__file__).resolve().parent.parent


def _words(labels: dict[str, Label]) -> dict[str, str]:
    return {node: label.value for node, label in labels.items()}


def _text_stats(texts: list[str]) -> dict[str, int]:
    return {"bytes": sum(len(t.encode()) for t in texts),
            "tokens": sum(len(_tokenize_untraced(t)) for t in texts)}


class _Request:
    __slots__ = ("label", "nodes", "data")

    def __init__(self, label: str, nodes: int, data: dict):
        self.label = label
        self.nodes = nodes
        self.data = data


# ---------------------------------------------------------------------------
# deep-eval
# ---------------------------------------------------------------------------

#: One round of the deep-eval pool; the pool is DEEP_ROUNDS rounds, each
#: with its own models, cycled in this order so every window of 20 requests
#: has the same mix. Chains are capped at 70 nodes: the engine
#: is quadratic today and a request runs five propagations, so one 400-node
#: chain would take several seconds and a run would hold too few samples
#: for a p95. The two 70-node chains are 10% of the requests, so p95 sits
#: inside them.
DEEP_ROUND = [
    ("chain", 70), ("fan", 100), ("chain", 20), ("mesh", 40), ("cycle", 8),
    ("chain", 50), ("fan", 200), ("chain", 30), ("mesh", 70), ("cycle", 12),
    ("chain", 70), ("fan", 300), ("chain", 60), ("mesh", 100), ("cycle", 16),
    ("chain", 40), ("fan", 400), ("chain", 45), ("mesh", 130), ("cycle", 20),
]
DEEP_ROUNDS = 2
SMOKE_DEEP_ROUND = [("chain", 12), ("fan", 12), ("cycle", 4), ("mesh", 12)]
_BUILDERS = {"chain": gen.chain_case, "fan": gen.fan_case,
             "cycle": gen.cycle_case, "mesh": gen.mesh_case}


class DeepEval:
    """Goal models built for propagation depth; propagate dominates."""

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.pool: list[_Request] = []
        stats = {"models": 0, "nodes": 0, "edges": 0, "bytes": 0, "tokens": 0,
                 "depth": 0, "oracle_checked": 0}
        shapes = SMOKE_DEEP_ROUND if smoke else DEEP_ROUND * DEEP_ROUNDS
        # Half of the meshes, chosen by the seed, are checked against the
        # oracle; a fixed count keeps set-up work the same for every seed.
        meshes = [i for i, (shape, _) in enumerate(shapes) if shape == "mesh"]
        oracle_checked = set(rng.sample(meshes, max(1, len(meshes) // 2)))
        for i, (shape, size) in enumerate(shapes):
            case = _BUILDERS[shape](rng, size)
            text = dsl.print_goal_model(case.model)
            scenario_texts = [dsl.print_scenario(s) for s in case.scenarios]
            expected = case.expected
            if i in oracle_checked:
                oracle_rng = random.Random(rng.random())
                expected = [{node: Label(word) for node, word in oracle_propagate(
                    case.model, evaluate.resolve_scenario(case.model, s),
                    oracle_rng).items()} for s in case.scenarios]
                stats["oracle_checked"] += 1
            self.pool.append(_Request(f"{shape}{size}", case.nodes, {
                "shape": shape, "text": text, "scenarios": scenario_texts,
                "expected": expected}))
            stats["models"] += 1
            stats["nodes"] += case.nodes
            stats["edges"] += case.edges
            stats["depth"] += case.depth
            stats.update({k: stats[k] + v for k, v in
                          _text_stats([text] + scenario_texts).items()})
        self.stats = stats

    def warm(self) -> None:
        """Run the smallest request of each shape once, untimed."""
        smallest: dict[str, _Request] = {}
        for req in self.pool:
            shape = req.data["shape"]
            if shape not in smallest or req.nodes < smallest[shape].nodes:
                smallest[shape] = req
        for req in smallest.values():
            self.run(req)

    def run(self, req: _Request):
        parsed = dsl.parse_model(req.data["text"], "deep.gm")
        model = parsed.model
        diagnostics = validate.validate_goal_model(model)
        scenarios = [dsl.parse_scenario(t, "deep.scn").model
                     for t in req.data["scenarios"]]
        result = evaluate.propagate(model, scenarios[0])
        table = evaluate.compare_scenarios(model, scenarios)
        analysis = {
            "scenario": result.scenario,
            "iterations": result.iterations,
            "labels": _words(result.labels),
            "scenarios": table.scenarios,
            "rows": [{"node": row.node, "labels": [l.value for l in row.labels]}
                     for row in table.rows],
            "ranking": [{"scenario": s, "rank": r} for s, r in table.ranking],
        }
        text = report.report_json(report.make_report(
            "compare", ["deep.gm"], diagnostics + result.diagnostics, analysis))
        return result, table, text

    def check(self, req: _Request, out) -> str | None:
        result, table, text = out
        if result.iterations > 4 * req.nodes:
            return f"{result.iterations} sweeps exceed 4 x {req.nodes} nodes"
        for column, expected in enumerate(req.data["expected"]):
            if expected is None:
                continue
            got = {row.node: row.labels[column] for row in table.rows}
            if column == 0:
                got = result.labels
            else:
                # compare_scenarios rows cover elements only; dependums are
                # checked through the propagate call of column 0.
                expected = {n: l for n, l in expected.items() if n in got}
            wrong = [n for n, l in expected.items() if got.get(n) is not l]
            if wrong:
                return f"scenario {column}: {len(wrong)} wrong labels, e.g. {wrong[0]!r}"
        first = [row.labels[0] for row in table.rows]
        if first != [result.labels[row.node] for row in table.rows]:
            return "compare_scenarios disagrees with propagate on scenario 0"
        if json.loads(text)["analysis"]["labels"] != _words(result.labels):
            return "JSON report does not round-trip the labels"
        return None


# ---------------------------------------------------------------------------
# wide-ingest
# ---------------------------------------------------------------------------

#: Element counts per request, cycled; goal and value models alternate.
INGEST_ROUND = [(kind, lo, lo + 20) for lo in (20, 40, 60) for kind in ("gm", "vm")]
INGEST_POOL = 240
SMOKE_INGEST_ROUND = [("gm", 4, 10), ("vm", 4, 10)]


class WideIngest:
    """Many small-to-mid random models through the reader and the writer."""

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        shapes = SMOKE_INGEST_ROUND if smoke else INGEST_ROUND
        count = len(shapes) if smoke else INGEST_POOL
        self.pool = []
        stats = {"models": 0, "nodes": 0, "edges": 0, "bytes": 0, "tokens": 0}
        for i in range(count):
            kind, lo, hi = shapes[i % len(shapes)]
            case = gen.ingest_case(rng, kind, lo, hi)
            text = dsl.print_model(case.model)
            scenario_text = dsl.print_scenario(case.scenario)
            self.pool.append(_Request(f"{kind}{lo}-{hi}", case.nodes, {
                "kind": kind, "text": text, "scenario": scenario_text,
                "focus": case.focus, "file": f"m{i}.{kind}"}))
            stats["models"] += 1
            stats["nodes"] += case.nodes
            stats["edges"] += case.edges
            stats.update({k: stats[k] + v for k, v in
                          _text_stats([text, scenario_text]).items()})
        self.stats = stats

    def warm(self) -> None:
        """Run one goal-model and one value-model request, untimed."""
        for req in self.pool[:2]:
            self.run(req)

    def run(self, req: _Request):
        data = req.data
        model = dsl.parse_model(data["text"], data["file"]).model
        if data["kind"] == "vm":
            diagnostics = validate.validate_value_model(model)
            goal, more = transform.transform_value_to_goal(model)
            diagnostics += more
            printed = dsl.print_value_model(model)
            goal_text = dsl.print_goal_model(goal)
            goal_again = dsl.parse_goal_model(goal_text, data["file"]).model
        else:
            diagnostics = validate.validate_goal_model(model)
            goal = model
            printed = dsl.print_goal_model(model)
            goal_text = goal_again = None
        again = dsl.parse_model(printed, data["file"]).model
        dots = [report.export_dot(again),
                report.export_dot(again, cluster_by_actor=False,
                                  layer_bands=data["focus"])]
        scenario = dsl.parse_scenario(data["scenario"], "wide.scn").model
        result = evaluate.propagate(goal, scenario)
        text = report.report_json(report.make_report(
            "check", [data["file"]], diagnostics,
            {"labels": _words(result.labels), "iterations": result.iterations}))
        return printed, again, goal_text, goal_again, dots, result, text

    def check(self, req: _Request, out) -> str | None:
        printed, again, goal_text, goal_again, dots, result, text = out
        if again is None or _print_model_untraced(again) != printed:
            return "print -> parse -> print is not a fixpoint"
        if goal_text is not None and (
                goal_again is None or _print_model_untraced(goal_again) != goal_text):
            return "transformed goal model: print -> parse -> print is not a fixpoint"
        for dot in dots:
            try:
                parse_dot(dot)
            except (ValueError, IndexError) as exc:
                return f"DOT rejected: {exc}"
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return f"JSON rejected: {exc}"
        if payload["analysis"]["labels"] != _words(result.labels):
            return "JSON report does not round-trip the labels"
        return None


# ---------------------------------------------------------------------------
# cli-ci
# ---------------------------------------------------------------------------

#: (argv, documented exit code). Exit codes: 0 clean, 1 warnings only,
#: 2 errors. The corpus warnings are W-CHAR (device_settings.api), W-NOWHY
#: (metric catalogs) and the lifecycle curve findings.
CLI_COMMANDS = [
    (["check", "corpus/device_api.vm"], 0),
    (["check", "corpus/device_api.gm", "--json"], 0),
    (["check", "corpus/device_settings.api"], 1),
    (["check", "corpus/sample_catalog.metrics"], 1),
    (["check", "corpus/device_ok.scn"], 0),
    (["transform", "corpus/device_api.vm"], 0),
    (["evaluate", "corpus/device_api.gm", "--scenario", "corpus/device_gap.scn",
      "--json"], 0),
    (["compare", "corpus/device_api.gm", "--scenarios",
      "corpus/device_gap.scn,corpus/device_ok.scn", "--json"], 0),
    (["evaluate", "corpus/ecosystem.gm", "--scenario", "corpus/option_direct.scn",
      "--json"], 0),
    (["compare", "corpus/ecosystem.gm", "--scenarios",
      "corpus/option_direct.scn,corpus/option_platform.scn", "--json"], 0),
    (["lifecycle", "corpus/device_settings.api", "--curve", "corpus/curve.csv"], 1),
    (["lifecycle", "corpus/device_settings.api", "--curve", "corpus/curve.csv",
      "--json"], 1),
    (["govern", "classify", "corpus/items.csv", "--mode", "impl"], 0),
    (["metrics", "check", "corpus/sample_catalog.metrics"], 1),
    (["metrics", "link", "corpus/device_api.gm", "corpus/device_metrics.metrics"], 1),
    (["export", "corpus/device_api.vm", "--focus", "Device API"], 0),
    (["export", "corpus/cloud_api_layers.gm", "--focus", "Cloud API", "--json"], 0),
]
SMOKE_CLI_COMMANDS = [CLI_COMMANDS[0], CLI_COMMANDS[6], CLI_COMMANDS[10]]
#: The console-script entry point, run by the interpreter.
ENTRY = "import sys; from apimod.cli import main; sys.exit(main())"
WARM = "import json, sys; from apimod.cli import main; [main(a) for a in json.load(sys.stdin)]"


def cli_env(pycache: Path) -> dict[str, str]:
    """The pinned child environment: sources from ``src``, bytecode read
    from the benchmark's own warmed cache, UTF-8 output."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(pycache),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONUTF8": "1",
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def _in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main(list(argv))
    return out.getvalue()


def _corpus_nodes(argv: list[str]) -> int:
    nodes = 0
    for arg in argv:
        for part in arg.split(","):
            path = ROOT / part
            if path.suffix in (".gm", ".vm") and path.is_file():
                nodes += model_nodes(_parse_model_untraced(
                    path.read_text(encoding="utf-8"), part).model)
    return nodes


class CliCi:
    """One closed-loop client running the ``apimod`` CLI over ``corpus/``."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        commands = list(SMOKE_CLI_COMMANDS if smoke else CLI_COMMANDS)
        rng.shuffle(commands)
        self.env = cli_env(workdir / "pycache")
        self.pool = []
        stats = {"commands": len(commands), "nodes": 0, "bytes": 0, "tokens": 0}
        files = sorted({p for argv, _ in commands for a in argv for p in a.split(",")
                        if p.startswith("corpus/")})
        texts = [(ROOT / p).read_text(encoding="utf-8") for p in files
                 if not p.endswith(".csv")]
        stats.update(_text_stats(texts))
        for argv, code in commands:
            # The subprocess must match the documented exit code and the
            # in-process run's output; a mismatch is a counted failure.
            expected = {"code": code, "stdout": _in_process(argv)}
            if "--json" in argv:
                expected["library"] = _library_analysis(argv)
            nodes = _corpus_nodes(argv)
            stats["nodes"] += nodes
            self.pool.append(_Request(argv[0], nodes, {"argv": argv,
                                                       "expected": expected}))
        self.stats = stats

    def warm(self) -> None:
        """Compile the stdlib and apimod into the benchmark's bytecode cache:
        one interpreter, bytecode writing on, runs every command in-process."""
        env = dict(self.env)
        del env["PYTHONDONTWRITEBYTECODE"]
        subprocess.run([sys.executable, "-c", WARM],
                       input=json.dumps([r.data["argv"] for r in self.pool]),
                       cwd=ROOT, env=env, capture_output=True, text=True, check=True)

    def run(self, req: _Request, entry: list[str] | None = None, env=None):
        """One invocation; `entry` and `env` replace the console-script entry
        point and the pinned environment (the traced run uses both)."""
        return subprocess.run([sys.executable, *(entry or ["-c", ENTRY]), *req.data["argv"]],
                              cwd=ROOT, env=env or self.env, capture_output=True,
                              check=False)

    def check(self, req: _Request, out) -> str | None:
        expected = req.data["expected"]
        if out.returncode != expected["code"]:
            return (f"exit {out.returncode}, documented {expected['code']}: "
                    f"{out.stderr.decode(errors='replace').strip()[-200:]}")
        stdout = out.stdout.decode("utf-8")
        if stdout != expected["stdout"]:
            return "stdout differs from the in-process run"
        if "library" in expected:
            try:
                payload = json.loads(stdout)
            except ValueError as exc:
                return f"--json output is not JSON: {exc}"
            library = expected["library"]
            if library is not None and any(payload["analysis"][k] != v
                                           for k, v in library.items()):
                return "--json analysis differs from the library result"
        return None


def _library_analysis(argv: list[str]) -> dict | None:
    """The analysis fields of evaluate/compare, computed by the library
    directly rather than through the CLI."""
    if argv[0] not in ("evaluate", "compare"):
        return None

    def load(parse, path):
        return parse((ROOT / path).read_text(encoding="utf-8"), path).model

    model = load(dsl.parse_goal_model, argv[1])
    if argv[0] == "evaluate":
        result = evaluate.propagate(model, load(dsl.parse_scenario, argv[3]))
        return {"labels": {n: result.labels[n].value
                           for n in evaluate.evaluation_nodes(model)},
                "iterations": result.iterations}
    scenarios = [load(dsl.parse_scenario, p) for p in argv[3].split(",")]
    table = evaluate.compare_scenarios(model, scenarios)
    return {"rows": [{"node": row.node, "labels": [l.value for l in row.labels]}
                     for row in table.rows]}


WORKLOADS = {"deep-eval": DeepEval, "wide-ingest": WideIngest, "cli-ci": CliCi}
