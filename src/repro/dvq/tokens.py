"""Tokenizer for the DVQ (Vega-Zero) language.

The DVQ surface syntax is whitespace-friendly SQL-like text.  The tokenizer
splits a query string into typed tokens while preserving the original lexeme so
the serializer can round-trip identifiers with their exact casing (casing is
significant for schema-linking evaluation).
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, List, NamedTuple

from repro.dvq.errors import DVQTokenizeError


class TokenType(enum.Enum):
    """Kinds of lexical tokens recognised in a DVQ string."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    DOT = "dot"
    STAR = "star"
    EOF = "eof"


#: Reserved words of the DVQ language (upper-cased for comparison).
KEYWORDS = frozenset(
    {
        "VISUALIZE",
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "ORDER",
        "BY",
        "BIN",
        "AND",
        "OR",
        "NOT",
        "IN",
        "LIKE",
        "BETWEEN",
        "IS",
        "NULL",
        "ASC",
        "DESC",
        "JOIN",
        "ON",
        "AS",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "DISTINCT",
        "BAR",
        "PIE",
        "LINE",
        "SCATTER",
        "STACKED",
        "GROUPING",
        "YEAR",
        "MONTH",
        "WEEKDAY",
        "INTERVAL",
        "LIMIT",
        "HAVING",
    }
)

#: Aggregate function keywords.
AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Token(NamedTuple):
    """A single lexical token.

    Attributes:
        type: the :class:`TokenType` of the token.
        value: the normalised value (keywords upper-cased, others verbatim).
        lexeme: the original text of the token.
        position: character offset of the token start in the source string.
    """

    type: TokenType
    value: str
    lexeme: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Return True when the token is a keyword with one of ``names``."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.type.value}({self.lexeme!r}@{self.position})"


#: One token (after any whitespace), matched at the cursor.  In a ``str``
#: pattern ``\s``, ``\d`` and ``\w`` are exactly ``str.isspace``,
#: ``str.isdecimal`` and ``str.isalnum``-or-``_``, code point by code point.
#: The groups: a word; punctuation; an operator (a ``-`` before a decimal
#: digit starts a number instead); a number of decimal digits, which
#: ``int()``/``float()`` accept (a superscript ``²`` passes ``isdigit()`` but
#: not ``int()``), and dots; a quoted string.  No two groups can match at the
#: same character, so their order (most frequent first) changes only speed.
#: A word may start with any ``\w`` that is not a digit, so
#: :func:`_iter_tokens` still requires ``isalpha()`` or ``_`` of its first
#: character.  The groups are optional, so the pattern always matches, and
#: ``lastindex`` is ``None`` at the end of the text or before a character no
#: group takes.
_TOKEN_PATTERN = re.compile(
    r"""\s*(?:
        ([^\W\d]\w*)
      | ([,()*.])
      | (<>|!=|>=|<=|[=><+/%]|-(?!\d))
      | (-?\d[\d.]*)
      | ("[^"]*"|'[^']*')
    )?""",
    re.VERBOSE,
)
_WORD, _PUNCTUATION, _OPERATOR, _NUMBER, _STRING = range(1, 6)
_PUNCTUATION_TYPES = {
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "*": TokenType.STAR,
    ".": TokenType.DOT,
}


def _iter_tokens(text: str) -> Iterator[Token]:
    match_at = _TOKEN_PATTERN.match
    length = len(text)
    index = 0
    while True:
        match = match_at(text, index)
        group = match.lastindex
        index = match.end()
        if group is None:
            break
        lexeme = match[group]
        start = index - len(lexeme)
        if group == _WORD:
            first = lexeme[0]
            if not (first.isalpha() or first == "_"):
                index = start
                break
            upper = lexeme.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, lexeme, start)
            else:
                yield Token(TokenType.IDENTIFIER, lexeme, lexeme, start)
        elif group == _PUNCTUATION:
            yield Token(_PUNCTUATION_TYPES[lexeme], lexeme, lexeme, start)
        elif group == _NUMBER:
            if lexeme.count(".") > 1:
                raise DVQTokenizeError(
                    f"Malformed number {lexeme!r} at position {start}", position=start, text=text
                )
            yield Token(TokenType.NUMBER, lexeme, lexeme, start)
        elif group == _OPERATOR:
            yield Token(TokenType.OPERATOR, lexeme, lexeme, start)
        else:
            yield Token(TokenType.STRING, lexeme[1:-1], lexeme, start)
    if index < length:
        char = text[index]
        if char in "\"'":
            raise DVQTokenizeError(
                f"Unterminated string literal starting at {index}", position=index, text=text
            )
        raise DVQTokenizeError(
            f"Unexpected character {char!r} at position {index}", position=index, text=text
        )
    yield Token(TokenType.EOF, "", "", length)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list of :class:`Token`, ending with an EOF token.

    Raises:
        DVQTokenizeError: if the text contains characters outside the DVQ
            alphabet, an unterminated string literal or a number with more
            than one ``.``.
    """
    if text is None:
        raise DVQTokenizeError("Cannot tokenize None")
    return list(_iter_tokens(text))
