"""Shared lexer for all textual model formats.

Produces a token stream as parallel lists, with 1-based spans on demand.
`//` comments run to end of line. The lexer reserves no word; the parser's
tables decide which identifiers are keywords.
"""

import re
from functools import partial

from ..core import ApimodError, SourceSpan, TupleRecord, ValueEnum, tuple_new


class TokKind(ValueEnum):
    IDENT = "identifier"
    STRING = "string"
    NUMBER = "number"
    PUNCT = "punctuation"
    EOF = "end of input"


class Token(TupleRecord):
    """One token of a `Tokens` stream, as indexing or iterating it gives."""

    __slots__ = ()
    kind: TokKind
    value: str  # decoded text for STRING, lexeme otherwise
    span: SourceSpan

    def __new__(cls, kind, value, span):
        return tuple_new(cls, (kind, value, span))


#: `SourceSpan(*fields)` without the Python-level `__new__` frame.
_span = partial(tuple.__new__, SourceSpan)


class Tokens:
    """The tokens of one text as parallel lists, read by position: each
    token's kind, value and start and end offsets in the text. The stream
    ends with one EOF token at offset `len(text)`. A span is built only when
    asked for. Its line is found by counting line breaks from the offset
    located before it, so a parser that asks in text order reads the text
    once."""

    __slots__ = ("text", "file", "kinds", "values", "starts", "ends", "_mark", "_line")

    def __init__(self, text: str, file: str, kinds: list[TokKind], values: list[str],
                 starts: list[int], ends: list[int]):
        self.text, self.file = text, file
        self.kinds, self.values, self.starts, self.ends = kinds, values, starts, ends
        self._mark, self._line = 0, 1  # an offset and its line

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, pos: int) -> Token:
        """Token `pos`; `for token in stream` indexes up to the IndexError."""
        return Token(self.kinds[pos], self.values[pos], self.span(pos))

    def span(self, first: int, last: int | None = None) -> SourceSpan:
        """From the start of token `first` to the end of token `last`
        (default `first`), 1-based and inclusive."""
        start = self.starts[first]
        end = self.ends[first if last is None else last] - 1
        text, mark, line = self.text, self._mark, self._line
        if start >= mark:
            line += text.count("\n", mark, start)
        else:
            line -= text.count("\n", start, mark)
        self._mark, self._line = start, line
        col = start - text.rfind("\n", 0, start)
        if last is None:  # a token lies on one line
            return _span((self.file, line, col, line, col + end - start))
        return _span((self.file, line, col, line + text.count("\n", start, end),
                      end - text.rfind("\n", 0, end)))


#: The token rules, as pattern fragments: the blank characters, an
#: identifier, the body of a string (between its quotes) and a comment. The
#: string body is an unrolled loop: a backslash escapes a following quote or
#: backslash and is kept literally otherwise, and every position has one way
#: to match, so a string with no closing quote fails without backtracking
#: into its escapes. The scenario parser builds its reader from them too.
BLANK = r" \t\r\n"
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
STRING_BODY = r'[^"\\\n]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n]*)*'
COMMENT = r"//.*"

#: One alternation for the whole lexer, matched once over the whole text.
#: Each match absorbs the blanks and line breaks before it; blanks at the
#: end of the text match nothing, and `finditer` passes over them. A quote
#: that does not start a whole string is an unterminated string, and BAD is
#: any other character that is not a blank.
_MASTER = re.compile(rf"""[{BLANK}]*(?:
     (?P<IDENT>{IDENT})
    |(?P<PUNCT>->|[{{}}()=:,.])
    |(?P<STRING>"{STRING_BODY}")
    |(?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    |(?P<SKIP>{COMMENT})
    |(?P<OPEN>")
    |(?P<BAD>[^{BLANK}])
)""", re.VERBOSE)
#: Group number -> token kind, None for SKIP, OPEN and BAD. `tokenize` reads
#: a match by the number of its group, which is cheaper than by its name.
_KIND_OF_GROUP = {i: TokKind.__members__.get(name) for name, i in _MASTER.groupindex.items()}


class LexError(Exception):
    """A text the lexer cannot read, and where."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


def tokenize(text: str, filename: str = "<input>") -> Tokens:
    """`text` as a `Tokens` stream, in one pass of the master regex. Raises
    `LexError` at the first bad character or unterminated string."""
    kinds, values, starts, ends = [], [], [], []
    add_kind, add_value, add_start, add_end = (
        kinds.append, values.append, starts.append, ends.append)
    kind_of = _KIND_OF_GROUP
    string = TokKind.STRING
    for m in _MASTER.finditer(text):
        group = m.lastindex
        kind = kind_of[group]
        if kind is None:
            if m.lastgroup == "SKIP":
                continue
            start = end = m.start(group)
            message = f"unexpected character {m[group]!r}"
            if m.lastgroup == "OPEN":  # the span runs to the end of the line
                message, end = "unterminated string", text.find("\n", start)
                if end < 0:
                    end = len(text)
            line, col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
            raise LexError(message, _span((filename, line, col, line, col + end - start)))
        value = m[group]
        if kind is string:
            value = value[1:-1]
            if "\\" in value:
                value = unescape(value)
        add_kind(kind)
        add_value(value)
        add_start(m.start(group))
        add_end(m.end())
    kinds.append(TokKind.EOF)
    values.append("")
    starts.append(len(text))
    ends.append(len(text) + 1)
    return Tokens(text, filename, kinds, values, starts, ends)


def unescape(body: str) -> str:
    """A string token's value from its body, which holds a backslash: `\\\\`
    stands for `\\` and `\\"` for `"`, read left to right, and any other
    backslash is kept."""
    if "\\\\" in body:
        return "\\".join([part.replace('\\"', '"') for part in body.split("\\\\")])
    return body.replace('\\"', '"')


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
