"""The master-regex lexer against the reference scanner, its edge cases, and
the parser's single pass over each input."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from apimod.core import Severity, SourceSpan
from apimod.dsl import (
    parse_api_descriptor, parse_goal_model, parse_metric_catalog, parse_model,
    parse_scenario, parse_value_model, print_model,
)
from apimod.dsl import parser as parser_module
from apimod.dsl.lexer import KEYWORDS, LexError, TokKind, is_bare_name, tokenize

from helpers import CORPUS, oracle_tokenize


def lexed(text: str, filename: str = "f"):
    """`tokenize` as (kind, value, span) triples, or its error."""
    try:
        return [(t.kind, t.value, t.span) for t in tokenize(text, filename)]
    except LexError as exc:
        return ("error", exc.message, exc.span)


def oracle(text: str, filename: str = "f"):
    try:
        return oracle_tokenize(text, filename)
    except LexError as exc:
        return ("error", exc.message, exc.span)


def span(l0, c0, l1, c1):
    return SourceSpan("f", l0, c0, l1, c1)


# Fragments that steer generated text into strings, escapes, comments,
# arrows and numbers; single characters cover the rest, non-ASCII and
# control characters included.
_FRAGMENTS = list('"\\\n\r\t /->.0123456789{}():=,_aZé\x00\x0b\x85') + [
    "//", '\\"', "\\\\", "->", "1.5", "goalmodel", "ü", " "]
_TEXT = st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.characters()),
                 max_size=40).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_TEXT)
def test_tokenize_matches_reference_scanner(text):
    assert lexed(text) == oracle(text)


def test_tokenize_matches_reference_scanner_on_corpus():
    for path in sorted(CORPUS.iterdir()):
        if path.suffix in (".vm", ".gm", ".api", ".metrics", ".scn"):
            text = path.read_text(encoding="utf-8")
            assert lexed(text, str(path)) == oracle(text, str(path))


def test_unterminated_string_span_ends_at_newline():
    assert lexed('a "bc\nd"') == ("error", "unterminated string", span(1, 3, 1, 6))


def test_unterminated_string_span_ends_at_eof():
    assert lexed('x\n  "ab\\"') == ("error", "unterminated string", span(2, 3, 2, 8))


def test_unknown_escape_is_kept_literally():
    assert lexed('"a\\x\\"\\\\"')[0] == (TokKind.STRING, 'a\\x"\\', span(1, 1, 1, 9))


def test_number_then_identifier_without_space():
    assert lexed("1abc") == [
        (TokKind.NUMBER, "1", span(1, 1, 1, 1)),
        (TokKind.IDENT, "abc", span(1, 2, 1, 4)),
        (TokKind.EOF, "", span(1, 5, 1, 5)),
    ]


def test_lone_minus_is_an_unexpected_character():
    assert lexed("a -b") == ("error", "unexpected character '-'", span(1, 3, 1, 3))


def test_eof_span_of_empty_file():
    assert lexed("") == [(TokKind.EOF, "", span(1, 1, 1, 1))]


def test_eof_span_after_trailing_newline():
    assert lexed("a // note\n") == [
        (TokKind.IDENT, "a", span(1, 1, 1, 1)),
        (TokKind.EOF, "", span(2, 1, 2, 1)),
    ]


def test_token_span_is_built_once():
    token = tokenize("actor")[0]
    assert token.span is token.span


# ---------------------------------------------------------------------------
# The parser's single pass
# ---------------------------------------------------------------------------

def test_parse_model_lexes_once(monkeypatch):
    calls = []

    def counting(text, filename="<input>"):
        calls.append(filename)
        return tokenize(text, filename)

    monkeypatch.setattr(parser_module, "tokenize", counting)
    for path in sorted(CORPUS.iterdir()):
        if path.suffix in (".vm", ".gm", ".api", ".metrics", ".scn"):
            calls.clear()
            assert parse_model(path.read_text(encoding="utf-8"), str(path)).ok
            assert calls == [str(path)]


_LEX_ERROR = ("E-SYNTAX", "unexpected character '@'", SourceSpan("m", 1, 22, 1, 22))


def diag_tuples(result):
    return [(d.code, d.message, d.span) for d in result.diagnostics]


def test_lex_error_through_parse_model_is_one_diagnostic():
    result = parse_model("valuemodel M { actor @ }", "m")
    assert result.model is None
    assert diag_tuples(result) == [_LEX_ERROR]


@pytest.mark.parametrize("parse, keyword", [
    (parse_value_model, "valuemodel"), (parse_goal_model, "goalmodel"),
    (parse_api_descriptor, "api"), (parse_scenario, "scenario"),
])
def test_lex_error_through_each_parser_reports_what_was_expected(parse, keyword):
    result = parse("valuemodel M { actor @ }", "m")
    assert result.model is None
    assert diag_tuples(result) == [(
        "E-SYNTAX", f"expected {keyword!r}, found 'end of input'", _LEX_ERROR[2]),
        _LEX_ERROR]


def test_lex_error_through_metric_catalog_parser():
    result = parse_metric_catalog("valuemodel M { actor @ }", "m")
    assert diag_tuples(result) == [_LEX_ERROR]


def test_stray_brace_in_metric_catalog_ends_parsing():
    result = parse_metric_catalog('} metric M { what "w" } }', "m")
    assert [d.code for d in result.diagnostics] == ["E-SYNTAX", "E-SYNTAX"]
    assert result.model is None


_MODEL_TEXT = st.lists(st.one_of(
    st.sampled_from(["valuemodel", "goalmodel", "api", "metric", "scenario",
                     "actor", "flow", "what", "stage", "label", "{", "}", "(",
                     ")", "=", ":", ",", ".", "->", '"n"', "x", "1", " ", "\n"]),
    st.sampled_from(_FRAGMENTS)), max_size=40).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_MODEL_TEXT)
def test_parsers_never_raise(text):
    for parse in (parse_model, parse_value_model, parse_goal_model,
                  parse_api_descriptor, parse_metric_catalog, parse_scenario):
        result = parse(text, "m")
        assert (result.model is None) == any(
            d.severity is Severity.ERROR for d in result.diagnostics)


def test_parse_model_gives_each_dialect_its_tokens():
    for path in sorted(CORPUS.iterdir()):
        if path.suffix in (".vm", ".gm", ".api", ".metrics", ".scn"):
            text = path.read_text(encoding="utf-8")
            direct = {".vm": parse_value_model, ".gm": parse_goal_model,
                      ".api": parse_api_descriptor, ".metrics": parse_metric_catalog,
                      ".scn": parse_scenario}[path.suffix](text, str(path))
            via = parse_model(text, str(path))
            assert diag_tuples(via) == diag_tuples(direct)
            assert print_model(via.model) == print_model(direct.model)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=st.one_of(
    st.text(st.sampled_from("aZ_09éüａℌ١ -"), max_size=6),
    st.sampled_from(sorted(KEYWORDS) + ["", "_", "9a", "a9"])))
def test_a_bare_name_is_an_ascii_identifier_that_is_no_keyword(s):
    """Non-ASCII letters and digits (`é`, `ü`, a fullwidth `ａ`, `ℌ`, an
    Arabic-Indic `١`) are identifiers to Python but not to the lexer."""
    ident = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", s) is not None
    assert is_bare_name(s) == (ident and s not in KEYWORDS)
