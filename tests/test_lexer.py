"""The master-regex lexer against the reference scanner, its edge cases, the
parser's single pass over each input, and the clean-scenario reader against
the token parser."""

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apimod.core import Severity, SourceSpan
from apimod.dsl import (
    parse_api_descriptor, parse_goal_model, parse_metric_catalog, parse_model,
    parse_scenario, parse_value_model, print_model,
)
from apimod.dsl import parser as parser_module
from apimod.dsl.lexer import LexError, TokKind, tokenize
from apimod.dsl.parser import KEYWORDS, is_bare_name

from helpers import CORPUS, gen_goal_model, gen_scenario, oracle_tokenize
from test_parse_golden import golden_texts


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


def diag_tuples(result):
    return [(d.code, d.message, d.span) for d in result.diagnostics]


#: Each entry point with a dialect of its own and another dialect.
_ENTRY_POINTS = [
    (parse_model, "valuemodel", "scenario"), (parse_value_model, "valuemodel", "goalmodel"),
    (parse_goal_model, "goalmodel", "valuemodel"), (parse_api_descriptor, "api", "metric"),
    (parse_metric_catalog, "metric", "api"), (parse_scenario, "scenario", "goalmodel")]


@pytest.mark.parametrize("parse, keyword", [
    (parse, keyword) for parse, *keywords in _ENTRY_POINTS for keyword in keywords])
def test_lex_error_through_each_entry_point_is_its_only_diagnostic(parse, keyword):
    text = f"{keyword} M {{ actor @ }}"
    at = text.index("@") + 1
    result = parse(text, "m")
    assert result.model is None
    assert diag_tuples(result) == [
        ("E-SYNTAX", "unexpected character '@'", SourceSpan("m", 1, at, 1, at))]


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


def test_every_word_a_handler_reads_is_a_keyword():
    """Each identifier a parser passes to `self.eat` or `self.expect` is a
    keyword, so a name spelled like it is printed quoted. The tables'
    keywords are `KEYWORDS` by construction; a word a handler spells out
    must be listed there by hand."""
    tree = ast.parse(Path(parser_module.__file__).read_text(encoding="utf-8"))
    read = {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
            and node.func.attr in ("eat", "expect") and node.args
            and isinstance(node.args[0], ast.Constant)}
    words = {word for word in read if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", word)}
    assert {"in", "from", "to", "status", "group", "draft", "metric"} <= words
    assert sorted(words - KEYWORDS) == []


# ---------------------------------------------------------------------------
# The clean-scenario reader against the token parser
# ---------------------------------------------------------------------------

def token_parse(text: str):
    """`_ScenarioParser` on `text`, with no reader in front of it."""
    return parser_module._parse(parser_module._ScenarioParser, text, "m")


def read_both(text: str):
    """The reader's scenario, after checking that it is None or is the token
    parser's model, read with no diagnostic, in the same assignment order."""
    clean = parser_module._read_clean_scenario(text)
    if clean is not None:
        parsed = token_parse(text)
        assert parsed.diagnostics == []
        assert parsed.model == clean
        assert list(parsed.model.assignments.items()) == list(clean.assignments.items())
    return clean


def test_reader_agrees_with_token_parser_on_golden_texts():
    """The reader reads exactly the golden texts that the token parser reads
    with no diagnostic."""
    accepted, clean = [], []
    for label, text in golden_texts():
        if read_both(text) is not None:
            accepted.append(label)
        if (parsed := token_parse(text)).ok and not parsed.diagnostics:
            clean.append(label)
    assert accepted == clean and len(clean) == 17


# Scenario-shaped text: a clean scenario as a list of tokens and gaps, in
# which one piece may be replaced by, or preceded by, an odd one. Clean gaps
# hold blanks, CRLF and comments; names hold escapes, quoted keywords and
# non-ASCII letters, and a few repeat. Odd pieces are an empty gap, which
# joins two identifiers, a comment that swallows the rest of its line, bare
# keywords, label words that are not writable or carry a suffix, a stray
# `@`, a byte-order mark, an unterminated quote and misplaced punctuation.
_GAP = st.sampled_from(["", " ", "\n", "\r\n", "\t", "// note\n", "// a // b\r\n", "\n\n  "])
_NAME = st.sampled_from(["x", "T", "x1", '"x"', '"x y"', '"label"', '"goal"', '"a\\"b"',
                         '"a\\\\b"', '"a\\b"', '"a\\\\"', '"\\\\\\""', '"ü"', '"a//b"'])
_STATEMENT = st.tuples(st.just("label"), _GAP, _NAME, _GAP, st.just("="), _GAP,
                       st.sampled_from(["satisfied", "denied", "unknown", "partsat", "partden"]),
                       _GAP)
_PIECES = st.tuples(
    st.tuples(_GAP, st.just("scenario"), _GAP, _NAME, _GAP, st.just("{"), _GAP),
    st.lists(_STATEMENT, max_size=4),
    st.tuples(st.just("}"), st.sampled_from(["", "\n", "// end", " // end\n"])),
).map(lambda parts: [*parts[0], *[p for statement in parts[1] for p in statement], *parts[2]])
_ODD = st.sampled_from([
    "", "//", " // end", "\ufeff", "@", "label", "goal", "scenario", "ü", "x@", '"unterminated',
    '"a\\"', "conflict", "satisfied1", '"satisfied"', "labelx", '"label"', "==", ":", "{{", "}}",
    "} x", "("])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(pieces=_PIECES, edit=st.one_of(st.none(), st.tuples(st.integers(0, 60), _ODD,
                                                           st.booleans())))
def test_reader_agrees_with_token_parser_on_scenario_shaped_texts(pieces, edit):
    """The reader refuses exactly the texts the token parser reads with a
    diagnostic, and reads the others as the parser does."""
    if edit is not None:
        at, odd, insert = edit
        at %= len(pieces)
        pieces[at:at + (not insert)] = [odd]
    text = "".join(pieces)
    parsed = token_parse(text)
    assert (read_both(text) is None) == (not parsed.ok or parsed.diagnostics != [])


_GAPS = [" ", "\n", "\r\n\t", "  // note // more\n", "//\n", "\t//\r\n  "]


def test_reader_reads_generated_scenarios_with_blanks_and_comments():
    rng = random.Random(7)
    for _ in range(200):
        model = gen_goal_model(rng)
        text = print_model(gen_scenario(rng, model, max_assignments=8))
        tokens = tokenize(text)
        pieces = [text[tokens.starts[i]:tokens.ends[i]] for i in range(len(tokens) - 1)]
        tail = rng.choice(["", "\n", "// end", "// end\n"])
        spaced = "".join(rng.choice(_GAPS) + piece for piece in pieces) + tail
        assert read_both(spaced) == read_both(text) is not None


def test_parse_scenario_reads_a_clean_scenario_without_the_lexer(monkeypatch):
    calls = []

    def counting(text, filename="<input>"):
        calls.append(filename)
        return tokenize(text, filename)

    monkeypatch.setattr(parser_module, "tokenize", counting)
    for path in sorted(CORPUS.glob("*.scn")):
        assert parse_scenario(path.read_text(encoding="utf-8"), str(path)).ok
    assert calls == []
    for text in ("scenario s { label x = conflict }",
                 "scenario s { label x = satisfied label x = denied }",
                 "scenario s {\n  label goal = satisfied\n}"):
        calls.clear()
        result = parse_scenario(text, "m")
        assert calls == ["m"]
        assert result.model is None
        assert diag_tuples(result) == diag_tuples(parse_model(text, "m"))
