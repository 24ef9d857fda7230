"""Golden CLI behaviour: every subcommand in text, `--json`, `--strict`
and `-o` mode, plus parse failures and other clean errors, compared with
hashes recorded in `tests/data/cli_golden.json`.

Each run happens in a scratch directory that holds a copy of `corpus/` and
the bad inputs below, so every path in the output is relative and stable.
An outcome is the exit code and the first 16 hex digits of the sha256 of
stdout, of stderr and of the `-o` file (or `None` when none was written).
Usage mistakes (exit 64) are left out, because argparse words those.

Regenerate the file only for an intended change of CLI output:

    PYTHONPATH=src python tests/test_cli_golden.py

To see what a regeneration changed, decode both sides and diff them. The
`--decode` mode prints one JSON line per case, in the golden file's order:
the command line, the exit code, stdout, stderr and the `-o` file's text
(or null).

    PYTHONPATH=src python tests/test_cli_golden.py --decode > decoded.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from apimod.cli import main

from helpers import CORPUS

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
OUT = "out.artifact"

BAD_INPUTS = {
    "bad.gm": "goalmodel M { actor A { goal G task T G and T T and G }\n",
    "bad.vm": "valuemodel M {\n  actor A\n  flow X from A to Ghost\n}\n",
    "bad.scn": "scenario s { label T = maybe }\n",
    "bad.metrics": "metric M { what \"x\" dimensions nowhere }\n}\n",
    "bad.api": "api X { observed stability unstable }\n",
    "cyclic.gm": "goalmodel M { actor A { goal G task T G and T T and G } }\n",
    "warn.gm": "goalmodel M { actor A { task T } }\n",
    "conflict.gm": "goalmodel M { actor A { task T1 task T2 quality Q "
                   "T1 helps Q T2 hurts Q } }\n",
    "conflict.scn": "scenario s { label T1 = satisfied label T2 = satisfied }\n",
    "short.csv": "t,stage,value\n0,plan,0.1\n1,plan\n",
    "nan.csv": "0,plan,0.1\nnan,plan,0.2\n",
    "stage.csv": "0,plan,0.1\n1,launch,0.2\n",
    "word.csv": "0,plan,zero\n",
    "items_short.csv": "name,a,b\nx,0.1\n",
    "items_bad.csv": "x,0.1,huge\n",
    "latin1.gm": b"goalmodel M { actor \xff }",
}

TEXT_MODES = ([], ["--json"], ["--strict"])
ARTIFACT_MODES = TEXT_MODES + (["-o", OUT], ["-o", OUT, "--strict"],
                               ["-o", OUT, "--json"])

_MODELS = ["corpus/" + p.name for p in sorted(CORPUS.iterdir())
           if p.suffix in (".gm", ".vm", ".api", ".metrics", ".scn")]

_RUNS = (
    [(["check", m], TEXT_MODES) for m in _MODELS]
    + [(["check", m], TEXT_MODES) for m in (
        "bad.gm", "bad.vm", "bad.scn", "bad.metrics", "bad.api", "cyclic.gm",
        "warn.gm", "latin1.gm", "missing.gm")]
    + [(["check", "corpus/device_api.vm", "--strict-reciprocity"], TEXT_MODES),
       (["check", "corpus/device_api_layers.gm", "--focus", "Device API"],
        TEXT_MODES)]
    + [(["transform", m], ARTIFACT_MODES)
       for m in ("corpus/device_api.vm", "bad.vm", "missing.vm")]
    + [(["evaluate", m, "--scenario", s], TEXT_MODES) for m, s in (
        ("corpus/device_api.gm", "corpus/device_ok.scn"),
        ("corpus/device_api.gm", "corpus/device_gap.scn"),
        ("conflict.gm", "conflict.scn"),
        ("bad.gm", "corpus/device_ok.scn"),
        ("corpus/device_api.gm", "bad.scn"))]
    + [(["compare", m, "--scenarios", s] + actor, TEXT_MODES)
       for m, s in (
           ("corpus/ecosystem.gm",
            "corpus/option_platform.scn,corpus/option_direct.scn"),
           ("bad.gm", "corpus/option_platform.scn"),
           ("corpus/ecosystem.gm", "corpus/option_platform.scn,bad.scn"))
       for actor in ([], ["--actor", "Company A"])]
    + [(["lifecycle", a] + extra, TEXT_MODES) for a, extra in (
        ("corpus/device_settings.api", []),
        ("corpus/device_settings.api", ["--curve", "corpus/curve.csv"]),
        ("corpus/device_settings.api", ["--curve", "corpus/curve.csv",
                                        "--high", "0.9", "--drop", "0.1"]),
        ("corpus/device_settings.api", ["--curve", "short.csv"]),
        ("corpus/device_settings.api", ["--curve", "nan.csv"]),
        ("corpus/device_settings.api", ["--curve", "stage.csv"]),
        ("corpus/device_settings.api", ["--curve", "word.csv"]),
        ("corpus/device_settings.api", ["--curve", "missing.csv"]),
        ("bad.api", []))]
    + [(["govern", "classify", "--mode", mode, f] + extra, TEXT_MODES)
       for mode in ("impl", "change")
       for f, extra in (("corpus/items.csv", []),
                        ("corpus/items.csv", ["--threshold", "0.8"]),
                        ("items_short.csv", []), ("items_bad.csv", []))]
    + [(["govern", "openness", e, s], TEXT_MODES)
       for e in ("difficult", "easy") for s in ("low", "high")]
    + [(["govern", "catalog"], TEXT_MODES)]
    + [(["metrics", sub, c], TEXT_MODES)
       for sub in ("check", "dimensions", "automation")
       for c in ("corpus/sample_catalog.metrics",
                 "corpus/device_metrics.metrics", "bad.metrics")]
    + [(["metrics", "who", m, c], TEXT_MODES) for m, c in (
        ("corpus/device_api.gm", "corpus/device_metrics.metrics"),
        ("bad.gm", "corpus/device_metrics.metrics"))]
    + [(["metrics", "link", m, c], ARTIFACT_MODES) for m, c in (
        ("corpus/device_api.gm", "corpus/device_metrics.metrics"),
        ("corpus/device_api.gm", "corpus/sample_catalog.metrics"),
        ("corpus/device_api.gm", "bad.metrics"))]
    + [(["export", m] + extra, ARTIFACT_MODES) for m, extra in (
        ("corpus/device_api.gm", []),
        ("corpus/device_api.vm", []),
        ("corpus/device_api.gm", ["--flat"]),
        ("corpus/device_api_layers.gm", ["--focus", "Device API"]),
        ("corpus/device_settings.api", []),
        ("bad.gm", []),
        ("bad.vm", []))]
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cases() -> list[list[str]]:
    return [argv + mode for argv, modes in _RUNS for mode in modes]


def run(argv: list[str]) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the `-o` file (or None) of one case."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    artifact = Path(OUT)
    written = artifact.read_bytes() if artifact.exists() else None
    artifact.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), written


def outcome(argv: list[str]) -> list:
    code, out, err, written = run(argv)
    return [code, _digest(out.encode("utf-8")), _digest(err.encode("utf-8")),
            None if written is None else _digest(written)]


def decode(argv: list[str]) -> str:
    code, out, err, written = run(argv)
    return json.dumps({"argv": " ".join(argv), "exit": code, "stdout": out, "stderr": err,
                       "artifact": None if written is None else written.decode("utf-8")})


def record(workdir: Path, each=outcome) -> dict[str, object]:
    """' '.join(argv) -> `each(argv)` per case, by default [exit code,
    stdout, stderr, -o file]."""
    shutil.copytree(CORPUS, workdir / "corpus")
    for name, content in BAD_INPUTS.items():
        path = workdir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): each(argv) for argv in cases()}
    finally:
        os.chdir(previous)


def dump(golden: dict[str, list]) -> str:
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_cli_behaviour_matches_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = record(tmp_path)
    assert list(now) == list(golden)
    changed = [argv for argv, result in now.items() if result != golden[argv]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        if sys.argv[1:] == ["--decode"]:
            for line in record(Path(scratch), decode).values():
                print(line)
        else:
            GOLDEN.write_text(dump(record(Path(scratch))), encoding="utf-8")
