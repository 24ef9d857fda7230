"""Shared lexer for all textual model formats.

Produces a flat token stream with 1-based spans. `//` comments run to end of
line. Names containing spaces (or clashing with a keyword) are double-quoted.
"""

from __future__ import annotations

import re
from enum import Enum

from ..core import ApimodError, SourceSpan


class TokKind(Enum):
    IDENT = "identifier"
    STRING = "string"
    NUMBER = "number"
    PUNCT = "punctuation"
    EOF = "end of input"


class Token:
    """One lexeme. Its span is built on first use and kept: most tokens are
    never stored in a model or reported, and a span costs more to build
    than the token itself."""

    __slots__ = ("kind", "value", "file", "line", "col", "end_col", "_span")

    def __init__(self, kind: TokKind, value: str, file: str, line: int,
                 col: int, end_col: int):
        self.kind = kind
        self.value = value  # decoded text for STRING, lexeme otherwise
        self.file = file
        self.line = line
        self.col = col
        self.end_col = end_col
        self._span = None

    @property
    def span(self) -> SourceSpan:
        span = self._span
        if span is None:
            span = self._span = SourceSpan(self.file, self.line, self.col,
                                           self.line, self.end_col)
        return span

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.span})"


#: Reserved words across all dialects; a model name equal to one of these
#: must be written quoted.
KEYWORDS = frozenset({
    "valuemodel", "goalmodel", "scenario", "metric", "api",
    "actor", "activity", "flow", "stimulus", "depend", "partof",
    "goal", "task", "quality", "resource",
    "and", "or", "makes", "helps", "hurts", "breaks",
    "layer", "bapo", "status", "in", "from", "to", "group", "market",
    "draft", "label",
    "stage", "observed", "curve", "rationale",
    "what", "why", "who", "where", "dimensions", "automation", "links",
})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: One alternation for the whole lexer, matched row by row. Each match
#: absorbs the blanks before it; blanks at the end of a row match nothing,
#: and `finditer` passes over them. The string rule is an unrolled loop: a
#: backslash escapes a following quote or backslash and is kept literally
#: otherwise, and every position has one way to match, so a string with
#: no closing quote fails without backtracking into its escapes. A quote
#: that does not start a whole string is an unterminated string, and BAD is
#: any other character that is not a blank.
_MASTER = re.compile(r"""[ \t\r]*(?:
     (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<PUNCT>->|[{}()=:,.])
    |(?P<STRING>"[^"\\\n]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n]*)*")
    |(?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    |(?P<SKIP>//.*)
    |(?P<OPEN>")
    |(?P<BAD>[^ \t\r])
)""", re.VERBOSE)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_KINDS = {"IDENT": TokKind.IDENT, "PUNCT": TokKind.PUNCT,
          "NUMBER": TokKind.NUMBER, "STRING": TokKind.STRING}


class LexError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS
    string = TokKind.STRING
    for line, row in enumerate(text.split("\n"), 1):
        for m in _MASTER.finditer(row):
            group = m.lastgroup
            kind = kinds.get(group)
            if kind is None:
                if group == "SKIP":
                    continue
                col = m.start(group) + 1
                if group == "OPEN":
                    raise LexError("unterminated string",
                                   SourceSpan(filename, line, col, line, len(row) + 1))
                raise LexError(f"unexpected character {m[group]!r}",
                               SourceSpan(filename, line, col, line, col))
            lexeme = m[group]
            end = m.end()
            value = lexeme
            if kind is string:
                value = lexeme[1:-1]
                if "\\" in value:
                    value = _ESCAPE_RE.sub(lambda m: m[1], value)
            append(Token(kind, value, filename, line, end - len(lexeme) + 1, end))
    col = len(row) + 1
    append(Token(TokKind.EOF, "", filename, line, col, col))
    return tokens


def is_bare_name(s: str) -> bool:
    """True if `s` can be printed unquoted."""
    return bool(_IDENT_RE.fullmatch(s)) and s not in KEYWORDS


def quote_name(s: str) -> str:
    """`s` as the text formats write a name; a line break cannot be written."""
    if is_bare_name(s):
        return s
    if "\n" in s:
        raise ApimodError(f"name {s!r} contains a line break and cannot be printed")
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_number(x: float) -> str:
    """`x` as the text formats write a number: `:g` if that reads back exactly
    with no exponent, else `repr`; a sign, an exponent, nan or inf cannot be written."""
    text = f"{x:g}"
    if "e" in text or float(text) != x:  # 1000000.0 is `:g` 1e+06
        text = repr(x)
    m = _MASTER.fullmatch(text)
    if m is None or m.lastgroup != "NUMBER":
        raise ApimodError(f"number {text} cannot be printed as a NUMBER token")
    return text
