"""Tokenization utilities shared by the embedder and the baseline models."""

from __future__ import annotations

import re
from typing import List

_WORD_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?")
_CAMEL_PATTERN = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")

#: A small English stop-word list; schema words are never stop words.
STOP_WORDS = frozenset(
    {
        "a", "an", "the", "of", "for", "and", "or", "in", "on", "by", "to",
        "with", "is", "are", "please", "me", "give", "show", "that", "whose",
        "their", "each", "all", "as", "at", "be", "it", "its",
    }
)


def word_tokens(text: str, lowercase: bool = True, split_identifiers: bool = True) -> List[str]:
    """Split ``text`` into word tokens.

    Identifiers written in snake_case or CamelCase are additionally split into
    their parts (``HIRE_DATE`` -> ``hire date``), which lets lexical embeddings
    relate questions to schema tokens the same way sub-word models do.
    """
    tokens: List[str] = []
    for token in _WORD_PATTERN.findall(text):
        tokens.append(token.lower() if lowercase else token)
        # a token of letters in one case or capitalised is one camel part
        # (``salary``, ``SALARY``, ``Salary``), so it has nothing to split
        if split_identifiers and not (
            token.isalpha() and (token.islower() or token.isupper() or token.istitle())
        ):
            parts = split_identifier(token)
            if len(parts) > 1:
                tokens.extend(part.lower() if lowercase else part for part in parts)
    return tokens


def split_identifier(identifier: str) -> List[str]:
    """Split a snake_case / CamelCase identifier into its constituent words."""
    pieces: List[str] = []
    for chunk in identifier.split("_"):
        if not chunk:
            continue
        pieces.extend(_split_camel(chunk))
    return [piece for piece in pieces if piece]


def _split_camel(chunk: str) -> List[str]:
    parts = _CAMEL_PATTERN.findall(chunk)
    return parts if parts else [chunk]


def content_words(text: str) -> List[str]:
    """Word tokens with stop words removed (used for schema linking)."""
    return [token for token in word_tokens(text) if token not in STOP_WORDS]


def char_ngrams(text: str, n: int = 3) -> List[str]:
    """Character n-grams of the lower-cased text with boundary markers."""
    cleaned = f"#{text.lower().strip()}#"
    if len(cleaned) <= n:
        return [cleaned]
    return [cleaned[i : i + n] for i in range(len(cleaned) - n + 1)]
