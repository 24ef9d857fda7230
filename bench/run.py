"""apimod benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py                      # every workload, one table
    python3 bench/run.py --workload deep-eval --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --smoke              # tiny sizes, every check

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every request both untraced and
traced (alternating which goes first) and reports the per-layer metrics and
the tracing overhead. Each workload runs in its own child process, so its
peak memory is its own. One closed-loop client, no threads: each request
starts when the previous one has finished and been checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("deep-eval", "wide-ingest", "cli-ci")
#: Set-up runs SETUP_REPEATS times and its median is reported: once before
#: the measurement and then at even intervals inside it, so the repeats
#: sample different stretches of a run on a machine whose speed drifts.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "throughput_rps": "1/s", "nodes_per_s": "nodes/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lexer.tokenize.calls": "count", "lexer.tokenize.self_s": "s",
    "lexer.tokens_per_s": "tokens/s", "lexer.tokenize_per_parse": "ratio",
    "parser.parse_goal_model.self_s": "s", "parser.parse_value_model.self_s": "s",
    "parser.parse_scenario.self_s": "s", "parser.parse_model.self_s": "s",
    "parser.nodes_per_s": "nodes/s",
    "printer.print_goal_model.self_s": "s", "printer.print_value_model.self_s": "s",
    "printer.bytes_per_s": "B/s",
    "validate.validate_goal_model.calls": "count",
    "validate.validate_goal_model.self_s": "s",
    "validate.validate_value_model.self_s": "s",
    "validate.calls_per_request": "ratio",
    "transform.transform_value_to_goal.self_s": "s",
    "evaluate.propagate.calls": "count", "evaluate.propagate.self_s": "s",
    "evaluate.compare_scenarios.self_s": "s", "evaluate.sweeps": "count",
    "evaluate.sweeps_per_node": "ratio",
    "report.export_dot.self_s": "s", "report.report_json.self_s": "s",
    "report.bytes_per_s": "B/s",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.command_ms": "ms",
    "request.calls": "count", "request.self_s": "s", "request.total_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# Child: one workload in this process
# ---------------------------------------------------------------------------

def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


class _Tally:
    """Outcome of the requests of one run.

    Every distinct request of the pool runs many times in a run, and its
    latency is the fastest of those runs: neighbours on a shared machine
    slow whole stretches of a run (on a shared 2-vCPU x86-64 VM, one fixed
    Python loop took 0.32-0.62 s), and the minimum over repetitions spread
    across the run is the estimate that load moves least. Percentiles are taken over the distinct requests.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.best: dict[int, float] = {}
        self.errors: list[str] = []

    def record(self, wl, index: int, call) -> float:
        """Run `call` as one execution of pool request `index`, time it and
        check its output."""
        req = wl.pool[index]
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a request that raises is a counted failure
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = perf_counter() - t0
        self.busy += elapsed
        self.best[index] = min(elapsed, self.best.get(index, elapsed))
        if error is None:
            try:
                error = wl.check(req, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{req.label}: {error}")
        return elapsed

    def end_to_end(self, pool) -> dict[str, float]:
        best = list(self.best.values())
        nodes = sum(pool[i].nodes for i in self.best)
        return {
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p95_ms": _p95(best) * 1e3,
            "throughput_rps": len(best) / sum(best),
            "nodes_per_s": nodes / sum(best),
        }


def _setup(workload: str, seed: int, smoke: bool, workdir: Path):
    import workloads

    cls = workloads.WORKLOADS[workload]
    wl = cls(seed, smoke, workdir) if cls is workloads.CliCi else cls(seed, smoke)
    wl.warm()
    return wl


def _untraced(wl, seconds: float, smoke: bool, setup) -> _Tally:
    """The measured loop; `setup(n)` repeats set-up n = 1.. at even
    intervals (after the single pass in smoke mode)."""
    tally = _Tally()
    start = perf_counter()
    marks = [start + seconds * n / SETUP_REPEATS for n in range(1, SETUP_REPEATS)]
    i = 0
    while (i < len(wl.pool)) if smoke else (perf_counter() < start + seconds):
        if marks and perf_counter() >= marks[0]:
            setup(SETUP_REPEATS - len(marks))
            marks.pop(0)
        index = i % len(wl.pool)
        tally.record(wl, index, lambda: wl.run(wl.pool[index]))
        i += 1
    while marks:
        setup(SETUP_REPEATS - len(marks))
        marks.pop(0)
    return tally


def _traced(wl, seconds: float, smoke: bool, workdir: Path) -> tuple[list[_Tally], dict]:
    """Each request twice, untraced and traced, alternating the order."""
    import spans
    import workloads

    tracer = spans.Tracer()
    plain, traced = _Tally(), _Tally()
    cli = isinstance(wl, workloads.CliCi)
    probes: dict[str, list[float]] = {"pass": [], "import": [], "command": []}
    span_file = workdir / "spans.json"
    trace_env = dict(wl.env, BENCH_SPANS=str(span_file)) if cli else None

    def run_traced(req, i):
        if cli:
            out = wl.run(req, [str(BENCH / "cli_trace.py")], trace_env)
            with open(span_file, encoding="utf-8") as f:
                child = json.load(f)
            base = len(tracer.spans)
            for s in child:
                s[3] = s[3] + base if s[3] >= 0 else -1
                s[4] = i
            tracer.spans.extend(child)
            return out
        tracer.request = i
        tracer.install()
        try:
            with tracer.span("request"):
                return wl.run(req)
        finally:
            tracer.uninstall()

    deadline = perf_counter() + seconds
    i = 0
    while (i < len(wl.pool)) if smoke else (perf_counter() < deadline):
        index = i % len(wl.pool)
        req = wl.pool[index]
        for traced_first in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_first:
                traced.record(wl, index, lambda: run_traced(req, i))
            else:
                probes["command"].append(plain.record(wl, index, lambda: wl.run(req)))
        if cli:
            for probe, code in (("pass", "pass"), ("import", "import apimod.cli")):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.env,
                               capture_output=True, check=True)
                probes[probe].append(perf_counter() - t0)
        i += 1

    metrics = spans.layer_metrics(tracer.spans, traced.attempted)
    if cli:
        interpreter = statistics.median(probes["pass"])
        imported = statistics.median(probes["import"])
        metrics["cli.interpreter_ms"] = interpreter * 1e3
        metrics["cli.import_ms"] = (imported - interpreter) * 1e3
        metrics["cli.command_ms"] = (statistics.median(probes["command"]) - imported) * 1e3
        # A traced invocation's time outside every layer span: interpreter
        # start, imports, argument parsing and output.
        metrics["request.calls"] = traced.attempted
        metrics["request.total_s"] = traced.busy
        metrics["request.self_s"] = traced.busy - sum(
            s[2] - s[1] for s in tracer.spans if s[3] < 0)
    else:
        metrics.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                        "cli.command_ms": 0.0})
    metrics["trace.overhead_pct"] = (traced.busy / plain.busy - 1) * 100
    return [plain, traced], metrics


def _environment(wl) -> dict:
    env = {"interpreter": sys.executable, "python": platform.python_version(),
           "nproc": os.cpu_count(), "platform": platform.platform()}
    if hasattr(wl, "env"):
        env["cli_env"] = {k: v for k, v in wl.env.items() if k != "PATH"}
    return env


def child(args) -> int:
    if not (ROOT / "src" / "apimod").is_dir():
        sys.exit(f"{ROOT}: no apimod sources under src/")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    cache = ROOT / ".bench_cache"
    cache.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=cache))
    try:
        setup_times = []

        def timed_setup(n: int):
            t0 = perf_counter()
            wl = _setup(args.workload, args.seed, args.smoke, workdir / f"setup{n}")
            setup_times.append(perf_counter() - t0)
            return wl

        wl = timed_setup(0)
        result = {"info": {"workload": args.workload, "seed": args.seed,
                           "environment": _environment(wl), "inputs": wl.stats,
                           "pool": len(wl.pool)}}
        metrics: dict[str, float] = {}
        tallies = []
        if args.smoke or not args.trace:
            tally = _untraced(wl, args.seconds, args.smoke, timed_setup)
            tallies.append(tally)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics.update(tally.end_to_end(wl.pool))
            result["info"]["latency_samples"] = len(tally.best)
            result["info"]["executions"] = tally.attempted
        if args.smoke or args.trace:
            halves, layer = _traced(wl, args.seconds, args.smoke, workdir)
            tallies += halves
            metrics.update(layer)
            result["info"]["traced_requests"] = layer["request.calls"]
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = rss / 1024
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        result["info"]["failed_ratio"] = failed / attempted
        result["info"]["errors"] = [e for t in tallies for e in t.errors][:5]
        result.update({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: one child per workload
# ---------------------------------------------------------------------------

def _run_child(workload: str, args) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _selected(metrics: dict, trace: int, smoke: bool) -> dict:
    wanted = {**END_TO_END, **PER_LAYER} if smoke else (PER_LAYER if trace else END_TO_END)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, untraced and traced")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args)

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = {}
    for workload in names:
        result = _run_child(workload, args)
        if result is None:
            return 1
        results[workload] = result
    if args.workload:
        result = results[args.workload]
        print(json.dumps(result.pop("info"), sort_keys=True))
        result["metrics"] = _selected(result["metrics"], args.trace, args.smoke)
        print(json.dumps(result))
        return 0
    for workload, result in results.items():
        info = result["info"]
        print(f"# {workload}: seed {args.seed}, {result['attempted']} attempted, "
              f"{result['failed']} failed, failed_ratio {info['failed_ratio']:g}, "
              f"{info.get('latency_samples', 0)} latency samples (distinct requests) "
              f"from {info.get('executions', 0)} executions, inputs {info['inputs']}")
        for error in info["errors"]:
            print(f"#   error: {error}")
        for name, m in _selected(result["metrics"], args.trace, args.smoke).items():
            print(f"{workload:12} {name:42} {m['value']:>16.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
