"""The CLI's usage surface, byte for byte: `apimod --help`, every command's
and subcommand's `--help`, and the usage mistakes that exit 64. Each case
records the exit code, stdout and stderr in `tests/data/cli_usage.json`;
`tests/test_cli_golden.py` leaves these runs out because argparse words
them. Help is wrapped at 80 columns, set through COLUMNS.

Regenerate the file only for an intended change of the usage surface:

    PYTHONPATH=src python tests/test_cli_usage.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from apimod.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_usage.json"
COLUMNS = "80"

COMMANDS = ["check", "transform", "evaluate", "compare", "lifecycle", "govern",
            "metrics", "export"]
SUBCOMMANDS = [["govern", s] for s in ("classify", "openness", "catalog")] + [
    ["metrics", s] for s in ("link", "check", "who", "dimensions", "automation")]

CASES = (
    [["--help"], ["-h"]]
    + [[c, "--help"] for c in COMMANDS]
    + [s + ["--help"] for s in SUBCOMMANDS]
    + [[],                                            # no command
       ["frobnicate"],                                # unknown command
       ["--json", "check", "m.gm"],                   # an option before the command
       ["govern", "frobnicate"],                      # unknown govern subcommand
       ["govern"],                                    # missing govern subcommand
       ["evaluate", "m.gm"],                          # --scenario missing
       ["check", "m.gm", "--bogus"],                  # unrecognized, after the command
       ["govern", "classify", "f.csv", "--mode", "impl", "--bogus"],
       ["check", "m.gm", "--str"],                    # ambiguous abbreviation
       ["lifecycle", "x.api", "--high", "2"]]         # a type check's message
)


def outcome(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def record() -> dict[str, list]:
    return {" ".join(argv): outcome(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) or "<none>" for a in CASES])
def test_usage_surface_matches_golden_file(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outcome(argv) == golden[" ".join(argv)]


def test_golden_file_holds_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == [" ".join(argv) for argv in CASES]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
