"""End-to-end command-line behavior: output, files, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from apimod.cli import main
from apimod.report import report_schema

from helpers import CORPUS, parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cyclic_model(tmp_path):
    path = tmp_path / "bad.gm"
    path.write_text("goalmodel M { actor A { goal G task T G and T T and G } }",
                    encoding="utf-8")
    return str(path)


def test_check_clean_model_exits_zero(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "device_api.vm"))
    assert code == 0
    assert out == ""


def test_check_cycle_exits_two(capsys, cyclic_model):
    code, out, _ = run(capsys, "check", cyclic_model)
    assert code == 2
    assert "E-CYCLE" in out


def test_check_warnings_exit_one_and_strict_two(capsys, tmp_path):
    path = tmp_path / "warn.gm"
    path.write_text("goalmodel M { actor A { task T } }", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and "W-FLOAT" in out
    code, _, _ = run(capsys, "check", str(path), "--strict")
    assert code == 2


def test_check_json_report_validates(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "device_api.vm"), "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    assert report["command"] == "check"
    assert report["diagnostics"] == []


def test_check_parse_errors_are_reported_with_spans(capsys, tmp_path):
    path = tmp_path / "broken.vm"
    path.write_text("valuemodel M {\n  actor A\n  flow X from A to Ghost\n}",
                    encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "E-REF" in out and f"{path}:3:" in out


def test_check_refuses_input_after_the_closing_brace(capsys, tmp_path):
    path = tmp_path / "tail.gm"
    path.write_text("goalmodel M { actor A { goal G } } actor B { goal H }", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert f"{path}:1:36: error E-SYNTAX expected end of input, found 'actor'" in out


def test_parse_failure_respects_json_mode(capsys, tmp_path):
    path = tmp_path / "broken.gm"
    path.write_text("goalmodel M { actor", encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", str(path), "--scenario",
                       str(CORPUS / "device_ok.scn"), "--json")
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    assert report["command"] == "evaluate"
    assert report["diagnostics"][0]["severity"] == "error"


def test_check_dispatches_other_formats(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "device_settings.api"))
    assert code == 1 and "W-CHAR" in out
    code, out, _ = run(capsys, "check", str(CORPUS / "sample_catalog.metrics"))
    assert code == 1 and "W-NOWHY" in out
    code, out, _ = run(capsys, "check", str(CORPUS / "device_ok.scn"))
    assert code == 0 and out == ""


def test_evaluate_marks_overridden_nodes(capsys, tmp_path):
    model = tmp_path / "m.gm"
    model.write_text("goalmodel M { actor A { goal G task T G and T } }",
                     encoding="utf-8")
    scn = tmp_path / "s.scn"
    scn.write_text("scenario s { label T = denied label G = satisfied }",
                   encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", str(model), "--scenario", str(scn))
    assert code == 0
    assert "G = satisfied (overridden)" in out


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == 64


def test_missing_required_argument_exits_64(capsys):
    assert main(["evaluate", str(CORPUS / "device_api.gm")]) == 64


def test_unreadable_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "no/such/file.gm")
    assert code == 2
    assert "cannot read" in err


def test_transform_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "draft.gm"
    code, out, _ = run(capsys, "transform", str(CORPUS / "device_api.vm"),
                       "-o", str(out_path))
    assert code == 0
    assert "W-EXPAND" in out  # reminders go to stdout when -o is used
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith('goalmodel "Device API Ecosystem" draft {')


def test_transform_refusing_a_dependency_id_clash_exits_two(capsys, tmp_path):
    model = tmp_path / "m.vm"
    model.write_text("valuemodel M { actor A { api activity d1 } actor B "
                     "flow X from B to A.d1 flow Y from A to B stimulus S in B }\n",
                     encoding="utf-8")
    code, out, err = run(capsys, "transform", str(model))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'d1'" in err


def test_transform_to_stdout_keeps_model_clean(capsys):
    code, out, err = run(capsys, "transform", str(CORPUS / "device_api.vm"))
    assert code == 0
    assert out.startswith('goalmodel "Device API Ecosystem" draft {')
    assert "W-EXPAND" in err


def test_evaluate_prints_labels(capsys):
    code, out, _ = run(capsys, "evaluate", str(CORPUS / "device_api.gm"),
                       "--scenario", str(CORPUS / "device_ok.scn"))
    assert code == 0
    assert "rule set: symmetric-closure" in out
    assert "Expand Ecosystem = satisfied" in out
    assert "Generate Revenue = satisfied" in out


def test_evaluate_json_payload(capsys):
    code, out, _ = run(capsys, "evaluate", str(CORPUS / "device_api.gm"),
                       "--scenario", str(CORPUS / "device_gap.scn"), "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    analysis = report["analysis"]
    assert analysis["ruleSet"] == "symmetric-closure"
    assert analysis["labels"]["Easy Integration"] == "denied"


def test_evaluate_conflict_warns_and_exits_one(capsys, tmp_path):
    model = tmp_path / "c.gm"
    model.write_text("goalmodel M { actor A { task T1 task T2 quality Q "
                     "T1 helps Q T2 hurts Q } }", encoding="utf-8")
    scn = tmp_path / "c.scn"
    scn.write_text("scenario s { label T1 = satisfied label T2 = satisfied }",
                   encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", str(model), "--scenario", str(scn))
    assert code == 1
    assert "W-CONFLICT" in out and "Q = conflict" in out


def test_element_named_like_a_dependency_id_exits_two(capsys, tmp_path):
    model = tmp_path / "m.gm"
    model.write_text("goalmodel M {\n"
                     "  actor A { quality d1  task X  task T  X helps d1 }\n"
                     "  actor B { goal G }\n"
                     "  depend A.T -> B.G : resource R\n"
                     "}\n", encoding="utf-8")
    scn = tmp_path / "s.scn"
    scn.write_text("scenario s { label X = satisfied label G = denied }",
                   encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", str(model), "--scenario", str(scn))
    assert code == 2
    assert out == f"{model}:4:3: error E-DUP duplicate identifier 'd1'\n"


def test_compare_ranks_scenarios(capsys):
    code, out, _ = run(capsys, "compare", str(CORPUS / "ecosystem.gm"),
                       "--scenarios",
                       f"{CORPUS / 'option_platform.scn'},{CORPUS / 'option_direct.scn'}",
                       "--actor", "Company A")
    assert code == 0
    assert "score platform: 2.5" in out
    assert "ranking: platform (#1), direct (#2)" in out


def test_compare_refuses_a_repeated_scenario_name(capsys, tmp_path):
    twin = tmp_path / "twin.scn"
    twin.write_text('scenario direct {\n  label "Use Platform" = denied\n'
                    '  label "Sell Direct" = denied\n  label "Host Apps" = denied\n}\n',
                    encoding="utf-8")
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "compare", str(CORPUS / "ecosystem.gm"), "--scenarios",
                             f"{CORPUS / 'option_direct.scn'},{twin}", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: scenario name 'direct' is repeated; "
                       "compared scenarios need distinct names\n")


def test_lifecycle_with_curve_csv(capsys):
    code, out, _ = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                       "--curve", str(CORPUS / "curve.csv"))
    assert code == 1  # the known compatibility deviation
    assert "W-CHAR" in out
    assert "technical-debt" in out
    assert "M1" not in out


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_lifecycle_curve_csv_rejects_non_finite_time(capsys, tmp_path, time):
    curve = tmp_path / "curve.csv"
    curve.write_text(f"2,plan,0.2\n{time},plan,0.5\n1,plan,0.9\n", encoding="utf-8")
    code, out, err = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                         "--curve", str(curve))
    assert code == 2
    assert out == ""
    assert err == f"{curve}: row 2: time {float(time)} is not finite\n"


@pytest.mark.parametrize("rows, message", [
    ("0,plan,0.1\n1,plan,1.5\n", "curve value 1.5 outside [0, 1]"),
    ("0,plan,0.1\n2,plan,0.2\n1,plan,0.3\n",
     "curve samples must have increasing times"),
    ("0,operation,0.1\n1,plan,0.2\n", "curve stages may not move backward"),
], ids=["value-range", "time-order", "stage-order"])
def test_lifecycle_curve_csv_breaking_a_curve_rule_exits_two(capsys, tmp_path,
                                                             rows, message):
    curve = tmp_path / "curve.csv"
    curve.write_text("t,stage,value\n" + rows, encoding="utf-8")
    code, out, err = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                         "--curve", str(curve))
    assert code == 2
    assert out == ""
    row = rows.count("\n") + 1
    assert err == f"{curve}: row {row}: {message}\n"


@pytest.mark.parametrize("rows, message", [
    ("-1,plan,1e-05\n0,plan,0.2\n", "curve time -1.0 cannot be written as a number"),
    ("0,plan,0.00001\n", "curve value 1e-05 cannot be written as a number"),
    ("100000000000000000000,plan,0.5\n", "curve time 1e+20 cannot be written as a number"),
], ids=["sign", "small-value", "large-time"])
def test_lifecycle_curve_csv_refuses_a_number_the_api_format_cannot_write(
        capsys, tmp_path, rows, message):
    curve = tmp_path / "curve.csv"
    curve.write_text(rows, encoding="utf-8")
    code, out, err = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                         "--curve", str(curve))
    assert (code, out, err) == (2, "", f"{curve}: row 1: {message}\n")


def test_lifecycle_curve_csv_accepts_a_round_time_of_a_million(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("0,plan,0.1\n1000000,plan,0.5\n", encoding="utf-8")
    code, _, err = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                       "--curve", str(curve))
    assert (code, err) == (1, "")  # the known compatibility deviation only


@pytest.mark.parametrize("argv, csv_name", [
    (["lifecycle", str(CORPUS / "device_settings.api"), "--curve"], "curve.csv"),
    (["govern", "classify", "--mode", "impl"], "items.csv"),
], ids=["curve", "items"])
def test_csv_with_a_byte_order_mark_reads_like_without(capsys, tmp_path, argv, csv_name):
    marked = tmp_path / csv_name
    marked.write_bytes(b"\xef\xbb\xbf" + (CORPUS / csv_name).read_bytes())
    plain = run(capsys, *argv, str(CORPUS / csv_name))
    assert run(capsys, *argv, str(marked)) == plain
    assert plain[0] in (0, 1) and plain[2] == ""


def test_lifecycle_curve_csv_header_after_a_blank_line_is_skipped(capsys, tmp_path):
    api = tmp_path / "x.api"
    api.write_text("api X { stage plan }", encoding="utf-8")
    curve = tmp_path / "curve.csv"
    curve.write_text("\nt,stage,value\n0,plan,0.1\n", encoding="utf-8")
    code, _, err = run(capsys, "lifecycle", str(api), "--curve", str(curve))
    assert (code, err) == (0, "")


def test_govern_classify_oversized_csv_field_is_a_clean_error(capsys, tmp_path):
    items = tmp_path / "items.csv"
    items.write_text("name,a,b\n" + "x" * 140_000 + ",0.1,0.2\n", encoding="utf-8")
    code, out, err = run(capsys, "govern", "classify", "--mode", "impl", str(items))
    assert code == 2
    assert out == ""
    assert err == f"{items}: field larger than field limit (131072)\n"


def test_output_into_a_missing_directory_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "missing" / "dir" / "x.gm"
    code, out, err = run(capsys, "transform", str(CORPUS / "device_api.vm"),
                         "-o", str(target))
    assert code == 2
    assert out == ""
    assert err == f"cannot write {target}: No such file or directory\n"


def test_output_onto_a_directory_is_a_clean_error(capsys, tmp_path):
    code, out, err = run(capsys, "export", str(CORPUS / "device_api.gm"),
                         "-o", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"cannot write {tmp_path}: Is a directory\n"


def test_lifecycle_flags_value_mismatch(capsys, tmp_path):
    api = tmp_path / "hot.api"
    api.write_text('api Hot { stage plan curve 0 plan 0.9 }', encoding="utf-8")
    code, out, _ = run(capsys, "lifecycle", str(api), "--high", "0.7")
    assert code == 1
    assert "M1" in out


def test_govern_classify_modes(capsys):
    code, out, _ = run(capsys, "govern", "classify", "--mode", "impl",
                       str(CORPUS / "items.csv"))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert lines[0].startswith("  A Pre-study")
    code, out, _ = run(capsys, "govern", "classify", "--mode", "change",
                       str(CORPUS / "items.csv"))
    assert code == 0


def test_govern_openness(capsys):
    code, out, _ = run(capsys, "govern", "openness", "easy", "high")
    assert code == 0
    assert "private-goods" in out


def test_govern_catalog(capsys):
    code, out, _ = run(capsys, "govern", "catalog")
    assert code == 0
    assert "Change Control" in out and "Pre-study" in out


def test_metrics_subcommands(capsys, tmp_path):
    catalog = str(CORPUS / "sample_catalog.metrics")
    code, out, _ = run(capsys, "metrics", "check", catalog)
    assert code == 1  # checklist rows lack why/who/where
    assert "W-NOWHY" in out

    code, out, _ = run(capsys, "metrics", "dimensions", catalog)
    assert code == 0
    assert out.splitlines()[0].startswith("business:")

    code, out, _ = run(capsys, "metrics", "automation", catalog)
    assert code == 0
    assert "automatable: Documentation" in out

    code, out, _ = run(capsys, "metrics", "who", str(CORPUS / "device_api.gm"),
                       str(CORPUS / "device_metrics.metrics"))
    assert code == 0
    assert "Sales Volume" in out

    out_path = tmp_path / "linked.gm"
    code, _, _ = run(capsys, "metrics", "link", str(CORPUS / "device_api.gm"),
                     str(CORPUS / "device_metrics.metrics"), "-o", str(out_path))
    assert code == 1  # W-UNLINKED for the Update Latency metric
    assert "metric:Sales Volume" in out_path.read_text(encoding="utf-8")


def test_export_writes_valid_dot(capsys, tmp_path):
    out_path = tmp_path / "m.dot"
    code, _, _ = run(capsys, "export", str(CORPUS / "device_api.gm"),
                     "-o", str(out_path))
    assert code == 0
    parse_dot(out_path.read_text(encoding="utf-8"))


def test_export_layered_to_stdout(capsys):
    code, out, _ = run(capsys, "export", str(CORPUS / "device_api_layers.gm"),
                       "--focus", "Device API")
    assert code == 0
    info = parse_dot(out)
    assert '"band_asset"' in info.subgraphs


def test_export_of_a_dependency_on_a_closed_actor_element_exits_two(capsys, tmp_path):
    # the parser accepts the end; exporting it would make DOT invent node X
    model = tmp_path / "m.gm"
    model.write_text("goalmodel M { actor A { goal G } actor B "
                     "depend A.G -> B.X : resource R }\n", encoding="utf-8")
    code, out, err = run(capsys, "export", str(model))
    assert code == 2
    assert out == ""
    assert err == ("error: cannot export 'M': dependency 'd1' references element "
                   "'X' of closed actor 'B'\n")


def test_outputs_are_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "check", str(CORPUS / "device_api.gm"), "--json")
    _, out2, _ = run(capsys, "check", str(CORPUS / "device_api.gm"), "--json")
    assert out1 == out2
    _, dot1, _ = run(capsys, "export", str(CORPUS / "device_api.gm"))
    _, dot2, _ = run(capsys, "export", str(CORPUS / "device_api.gm"))
    assert dot1 == dot2


def test_non_utf8_input_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "bad.gm"
    path.write_bytes(b"goalmodel M { actor \xff }")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == f"cannot read {path}: not valid UTF-8 (byte offset 20)\n"


def test_unexpected_exception_exits_two_with_one_line(capsys, monkeypatch):
    import apimod.cli as cli

    def boom(args):
        raise RuntimeError("something broke")

    monkeypatch.setitem(cli._HANDLERS, "check", boom)
    code, out, err = run(capsys, "check", str(CORPUS / "device_api.vm"))
    assert code == 2
    assert out == ""
    assert err == "error: unexpected RuntimeError: something broke\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1", "1.5", "x"])
@pytest.mark.parametrize("flag", ["--high", "--drop"])
def test_lifecycle_rejects_thresholds_outside_unit_interval(capsys, flag, value):
    code, out, err = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                         flag, value, "--json")
    assert code == 64
    assert out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "7"])
def test_govern_classify_rejects_threshold_outside_unit_interval(capsys, value):
    code, out, err = run(capsys, "govern", "classify", "--mode", "impl",
                         "--threshold", value, str(CORPUS / "items.csv"))
    assert code == 64
    assert out == ""
    assert "argument --threshold" in err


def test_unit_interval_bounds_are_accepted(capsys):
    for value in ("0", "1"):
        code, out, _ = run(capsys, "lifecycle", str(CORPUS / "device_settings.api"),
                           "--high", value, "--drop", value, "--json")
        assert code in (0, 1)
        assert json.loads(out)["analysis"]["thresholds"] == {
            "high": float(value), "drop": float(value)}
        code, _, _ = run(capsys, "govern", "classify", "--mode", "change",
                         "--threshold", value, str(CORPUS / "items.csv"))
        assert code == 0


# ---------------------------------------------------------------------------
# The CLI as a process
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_a_reader_that_closes_early_gives_exit_141_and_no_error():
    # As `apimod ... | head -1` does once head has what it wants.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from apimod.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "metrics", "check",
             str(CORPUS / "sample_catalog.metrics")],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_the_cli_imports_without_pathlib():
    code = "import sys; import apimod.cli; print('pathlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_printing_a_metric_catalog_does_not_import_govern():
    catalog = str(CORPUS / "sample_catalog.metrics")
    code = ("import sys; from apimod.dsl import parse_metric_catalog, print_metric_catalog; "
            f"text = open({catalog!r}, encoding='utf-8').read(); "
            "assert print_metric_catalog(parse_metric_catalog(text).model); "
            "print('apimod.govern' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


#: The modules a call loads only where its command needs them.
_HEAVY = ("typing", "json", "apimod.lifecycle")


def _isolated_runs(runs: list[list[str]]) -> tuple[list, list[str]]:
    """Run `runs` through `main`, at the top of the repository, in one
    `python -I -S` process: each run's [exit code, stdout digest, stderr
    digest, None] as `cli_golden.json` writes an outcome, and which
    `_HEAVY` modules were loaded after the last run."""
    code = (
        "import contextlib, hashlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from apimod.cli import main\n"
        "digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]\n"
        "outcomes = []\n"
        f"for argv in {runs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    outcomes.append([code, digest(out.getvalue()), digest(err.getvalue()), None])\n"
        f"print(repr((outcomes, [m for m in {_HEAVY!r} if m in sys.modules])))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=CORPUS.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_goal_and_value_model_commands_load_neither_lifecycle_nor_json():
    runs = [
        ["check", "corpus/device_api.gm", "--json"],
        ["evaluate", "corpus/device_api.gm", "--scenario", "corpus/device_gap.scn", "--json"],
        ["compare", "corpus/ecosystem.gm", "--scenarios",
         "corpus/option_direct.scn,corpus/option_platform.scn", "--json"],
        ["export", "corpus/cloud_api_layers.gm", "--focus", "Cloud API", "--json"],
        ["transform", "corpus/device_api.vm"],
    ]
    outcomes, loaded = _isolated_runs(runs)
    assert [outcome[0] for outcome in outcomes] == [0] * len(runs)
    assert loaded == []


def test_api_descriptor_commands_still_load_lifecycle_and_keep_their_bytes():
    runs = [["check", "corpus/device_settings.api"],
            ["lifecycle", "corpus/device_settings.api", "--curve", "corpus/curve.csv"]]
    golden = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json")
                        .read_text(encoding="utf-8"))
    outcomes, loaded = _isolated_runs(runs)
    assert outcomes == [golden[" ".join(argv)] for argv in runs]
    assert "apimod.lifecycle" in loaded


_BAD_SCENARIO ="scenario s {\n  label goal = satisfied\n}\n"


@pytest.mark.parametrize("argv", [
    ["check", "device_api.gm"], ["check", "device_api.gm", "--json"],
    ["check", "device_settings.api"], ["check", "device_settings.api", "--json"],
    ["check", "bad.scn"], ["check", "bad.scn", "--json"],
    ["evaluate", "device_api.gm", "--scenario", "device_gap.scn"],
    ["evaluate", "device_api.gm", "--scenario", "bad.scn"],
    ["compare", "ecosystem.gm", "--scenarios", "option_direct.scn,option_platform.scn"],
    ["export", "device_api.vm", "--flat"],
    ["lifecycle", "device_settings.api", "--curve", "curve.csv"],
    ["govern", "classify", "items.csv", "--mode", "impl"],
])
def test_byte_order_mark_is_ignored_in_every_input_file(capsys, monkeypatch, tmp_path, argv):
    """A BOM-prefixed copy of each input gives the output of a plain copy of
    the same name, diagnostic columns included."""
    outputs = []
    for prefix in ("", "\ufeff"):
        folder = tmp_path / f"bom{len(prefix)}"
        folder.mkdir()
        for name in argv[1:]:
            for part in name.split(","):
                if part.endswith((".gm", ".vm", ".api", ".scn", ".csv")):
                    text = (_BAD_SCENARIO if part == "bad.scn"
                            else (CORPUS / part).read_text(encoding="utf-8"))
                    (folder / part).write_text(prefix + text, encoding="utf-8")
        monkeypatch.chdir(folder)
        outputs.append(run(capsys, *argv)[:2])
    assert outputs[0] == outputs[1]
    if "bad.scn" in argv:  # the column of `goal`
        assert ('"startCol": 9' if "--json" in argv else "2:9: error E-SYNTAX") in outputs[1][1]


_STRAY_GOAL = "goalmodel M {\n  actor A { goal @ }\n}\n"


@pytest.mark.parametrize("command, text", [
    (["evaluate", "{}", "--scenario", str(CORPUS / "device_gap.scn")], _STRAY_GOAL),
    (["compare", "{}", "--scenarios", str(CORPUS / "device_gap.scn")], _STRAY_GOAL),
    (["metrics", "link", "{}", str(CORPUS / "device_metrics.metrics")], _STRAY_GOAL),
    (["metrics", "who", "{}", str(CORPUS / "device_metrics.metrics")], _STRAY_GOAL),
    (["transform", "{}"], "valuemodel M {\n  actor A { activity @ }\n}\n"),
    (["lifecycle", "{}"], "api X {\n  stage @\n}\n"),
], ids=["evaluate", "compare", "metrics-link", "metrics-who", "transform", "lifecycle"])
def test_a_stray_character_is_one_syntax_error_in_every_command(capsys, tmp_path, command, text):
    """Each command reports a lex error as `check` does: one E-SYNTAX line."""
    path = tmp_path / "stray.txt"
    path.write_text(text, encoding="utf-8")
    col = text.splitlines()[1].index("@") + 1
    line = f"{path}:2:{col}: error E-SYNTAX unexpected character '@'\n"
    assert run(capsys, "check", str(path)) == (2, line, "")
    code, out, err = run(capsys, *[str(path) if arg == "{}" else arg for arg in command])
    assert code == 2
    assert out + err == line


_AMBIGUOUS_DEPENDUM = """goalmodel M {
  actor A { goal G }
  actor B { goal H }
  depend A.G -> B.H : resource R
  depend B.H -> A.G : resource R
}
"""


@pytest.mark.parametrize("command", [["evaluate", "--scenario", "s.scn"],
                                     ["compare", "--scenarios", "s.scn,t.scn"]])
def test_a_scenario_naming_an_ambiguous_dependum_exits_two(capsys, monkeypatch, tmp_path,
                                                           command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.gm").write_text(_AMBIGUOUS_DEPENDUM, encoding="utf-8")
    (tmp_path / "s.scn").write_text("scenario s { label R = satisfied }", encoding="utf-8")
    (tmp_path / "t.scn").write_text("scenario t { label G = denied }", encoding="utf-8")
    assert run(capsys, command[0], "m.gm", *command[1:]) == (
        2, "", "error: scenario 's': dependum name 'R' is ambiguous (d1, d2)\n")


def test_compare_refuses_an_unknown_focus_actor(capsys):
    scenarios = f"{CORPUS / 'option_direct.scn'},{CORPUS / 'option_platform.scn'}"
    assert run(capsys, "compare", str(CORPUS / "ecosystem.gm"), "--scenarios", scenarios,
               "--actor", "Nobody") == (2, "", "error: unknown focus actor 'Nobody'\n")


def test_lifecycle_of_a_retired_api_has_no_transition(capsys, tmp_path):
    path = tmp_path / "r.api"
    path.write_text('api X {\n  stage retire\n  rationale "Whatever Reason"\n}\n',
                    encoding="utf-8")
    code, out, _ = run(capsys, "lifecycle", str(path))
    assert code == 0
    assert out.splitlines()[-4:] == [
        "api: X", "stage: retire", "no outgoing transition from the retire stage",
        "  uncatalogued rationale: whatever-reason"]


def test_metrics_commands_on_a_catalog_without_business_or_design_metrics(capsys, tmp_path):
    path = tmp_path / "u.metrics"
    path.write_text('metric M {\n  what "w"\n  dimensions usage\n}\n', encoding="utf-8")
    code, out, _ = run(capsys, "metrics", "dimensions", str(path))
    assert code == 0
    assert out.splitlines()[4] == (
        "gap business: Which business outcomes (revenue, market share, customer growth, "
        "strategic objectives) should the API move, and how would you measure them?")
    assert run(capsys, "metrics", "automation", str(path)) == (
        0, "catalog contains no Design-dimension metrics\n", "")
