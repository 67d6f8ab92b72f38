"""Tokenizer for the DVQ (Vega-Zero) language.

The DVQ surface syntax is whitespace-friendly SQL-like text.  The tokenizer
splits a query string into typed tokens while preserving the original lexeme so
the serializer can round-trip identifiers with their exact casing (casing is
significant for schema-linking evaluation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

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

#: Multi-character comparison operators, checked before single-char ones.
_MULTI_OPERATORS = ("<>", "!=", ">=", "<=")
_SINGLE_OPERATORS = ("=", ">", "<", "+", "-", "/", "%")


@dataclass(frozen=True)
class Token:
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


def _is_identifier_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_identifier_part(char: str) -> bool:
    return char.isalnum() or char == "_"


def _iter_tokens(text: str) -> Iterator[Token]:
    length = len(text)
    index = 0
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char == ",":
            yield Token(TokenType.COMMA, ",", ",", index)
            index += 1
            continue
        if char == "(":
            yield Token(TokenType.LPAREN, "(", "(", index)
            index += 1
            continue
        if char == ")":
            yield Token(TokenType.RPAREN, ")", ")", index)
            index += 1
            continue
        if char == "*":
            yield Token(TokenType.STAR, "*", "*", index)
            index += 1
            continue
        if char == ".":
            yield Token(TokenType.DOT, ".", ".", index)
            index += 1
            continue
        if char in "\"'":
            end = text.find(char, index + 1)
            if end < 0:
                raise DVQTokenizeError(
                    f"Unterminated string literal starting at {index}",
                    position=index,
                    text=text,
                )
            literal = text[index + 1 : end]
            yield Token(TokenType.STRING, literal, text[index : end + 1], index)
            index = end + 1
            continue
        matched_operator = None
        for operator in _MULTI_OPERATORS:
            if text.startswith(operator, index):
                matched_operator = operator
                break
        if matched_operator is None and char in _SINGLE_OPERATORS:
            # a leading minus can start a negative number literal
            if char == "-" and index + 1 < length and text[index + 1].isdecimal():
                matched_operator = None
            else:
                matched_operator = char
        if matched_operator is not None:
            yield Token(TokenType.OPERATOR, matched_operator, matched_operator, index)
            index += len(matched_operator)
            continue
        # a number is decimal digits, which int()/float() accept (a superscript
        # "²" passes isdigit() but not int()), with at most one "."
        if char.isdecimal() or (char == "-" and index + 1 < length and text[index + 1].isdecimal()):
            start = index
            index += 1
            while index < length and (text[index].isdecimal() or text[index] == "."):
                index += 1
            lexeme = text[start:index]
            if lexeme.count(".") > 1:
                raise DVQTokenizeError(
                    f"Malformed number {lexeme!r} at position {start}", position=start, text=text
                )
            yield Token(TokenType.NUMBER, lexeme, lexeme, start)
            continue
        if _is_identifier_start(char):
            start = index
            while index < length and _is_identifier_part(text[index]):
                index += 1
            lexeme = text[start:index]
            upper = lexeme.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, lexeme, start)
            else:
                yield Token(TokenType.IDENTIFIER, lexeme, lexeme, start)
            continue
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
