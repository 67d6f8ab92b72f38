"""A hashed word/character n-gram TF-IDF text embedder.

This is the offline stand-in for ``text-embedding-3-large``: it maps arbitrary
text to a fixed-size dense vector such that lexically and morphologically
similar sentences are close in cosine space.  The embedder can optionally be
fitted on a corpus to learn IDF weights; without fitting it falls back to
uniform term weights, so it is usable both for the preparatory phase (fit on
the training NLQs/DVQs) and for ad-hoc similarity scoring.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.embeddings.tokenization import char_ngrams, word_tokens


@dataclass(frozen=True)
class EmbedderConfig:
    """Configuration of the :class:`TextEmbedder`.

    Attributes:
        dimensions: size of the output vector.
        char_n: character n-gram length (0 disables character features).
        use_words: include word-level features.
        seed: hashing seed, giving different but deterministic projections.
    """

    dimensions: int = 512
    char_n: int = 3
    use_words: bool = True
    seed: int = 13


#: term -> (vector slot, signed IDF weight), keyed by the raw word or gram.
_TermTable = Dict[str, Tuple[int, float]]

#: The two feature kinds in vector order: the prefix of their IDF keys
#: (``w:salary``, ``c:sal``) and the term frequency one occurrence adds.
_PREFIXES = ("w", "c")
_UNITS = (1.0, 0.5)


def _slot(prefixed: "hashlib._Hash", term: str, dimensions: int) -> Tuple[int, float]:
    """Vector index and sign of ``term`` from a hasher already fed its kind's prefix."""
    hasher = prefixed.copy()
    hasher.update(term.encode("utf-8"))
    hashed = int.from_bytes(hasher.digest(), "little")
    return hashed % dimensions, (1.0 if (hashed >> 62) & 1 == 0 else -1.0)


class TextEmbedder:
    """Deterministic lexical embedder with optional IDF fitting."""

    def __init__(self, config: EmbedderConfig = EmbedderConfig()):
        self.config = config
        self._idf: Dict[str, float] = {}
        self._fitted = False
        # (words, grams) built from ``_idf`` and read-only afterwards: a
        # re-fit builds new tables and swaps them in with one assignment, so
        # an ``embed`` on another thread sees the old pair or the new one
        self._terms: Tuple[_TermTable, _TermTable] = ({}, {})
        # a term's slot is blake2b("{seed}:{kind}:{term}"); each kind's hasher
        # is fed its prefix once and copied per term, never updated in place
        self._hashers = tuple(
            hashlib.blake2b(f"{config.seed}:{prefix}:".encode("utf-8"), digest_size=8)
            for prefix in _PREFIXES
        )
        #: Number of texts embedded so far (one per ``embed`` call, the batch
        #: size per ``embed_batch`` call).
        self.texts_embedded = 0
        # embeds may run concurrently from a caller's threads; the
        # read-modify-write must not lose increments
        self._counter_lock = threading.Lock()

    # -- feature extraction ------------------------------------------------

    def _counts(self, text: str) -> Tuple["Counter[str]", "Counter[str]"]:
        """Word and character n-gram counts of ``text``, each in first-seen order."""
        words = Counter(word_tokens(text)) if self.config.use_words else Counter()
        grams = Counter(char_ngrams(text, self.config.char_n)) if self.config.char_n else Counter()
        return words, grams

    def features(self, text: str) -> Dict[str, float]:
        """Raw term-frequency features of ``text`` (a word counts 1, a gram 0.5)."""
        counts: Dict[str, float] = {}
        for prefix, unit, kind_counts in zip(_PREFIXES, _UNITS, self._counts(text)):
            counts.update((f"{prefix}:{term}", count * unit) for term, count in kind_counts.items())
        return counts

    # -- fitting -----------------------------------------------------------

    def fit(self, corpus: Iterable[str]) -> "TextEmbedder":
        """Learn IDF weights from a corpus of documents."""
        document_frequency: Dict[str, int] = {}
        total_documents = 0
        for document in corpus:
            total_documents += 1
            for term in set(self.features(document)):
                document_frequency[term] = document_frequency.get(term, 0) + 1
        self._idf = {
            term: math.log((1 + total_documents) / (1 + frequency)) + 1.0
            for term, frequency in document_frequency.items()
        }
        self._terms = self._term_tables(self._idf)
        self._fitted = True
        return self

    def _term_tables(self, idf: Dict[str, float]) -> Tuple[_TermTable, _TermTable]:
        """Slot and signed weight of every fitted term, split into words and grams."""
        tables: Tuple[_TermTable, _TermTable] = ({}, {})
        for term, weight in idf.items():
            prefix, _, raw = term.partition(":")
            if prefix in _PREFIXES:
                kind = _PREFIXES.index(prefix)
                slot, sign = _slot(self._hashers[kind], raw, self.config.dimensions)
                tables[kind][raw] = (slot, sign * weight)
        return tables

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # -- embedding ---------------------------------------------------------

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm vector of ``config.dimensions``."""
        with self._counter_lock:
            self.texts_embedded += 1
        dimensions = self.config.dimensions
        slots: List[int] = []
        values: List[float] = []
        for table, hasher, unit, counts in zip(
            self._terms, self._hashers, _UNITS, self._counts(text)
        ):
            for term, count in counts.items():
                entry = table.get(term)
                if entry is None:
                    # a term the fit never saw weighs 1: hashed on every
                    # call and never stored, so nothing grows with traffic
                    entry = _slot(hasher, term, dimensions)
                slots.append(entry[0])
                # count x unit is the exact term frequency, and times +-idf
                # it is bit-equal to sign x (frequency x idf)
                values.append(count * unit * entry[1])
        # bincount adds in input order from +0.0, like a per-term loop
        vector = np.bincount(
            np.array(slots, dtype=np.intp), np.array(values, dtype=np.float64),
            minlength=dimensions,
        )
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into a ``(len(texts), dimensions)`` matrix."""
        if not texts:
            return np.zeros((0, self.config.dimensions), dtype=np.float64)
        return np.vstack([self.embed(text) for text in texts])

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two texts in [-1, 1]."""
        return float(np.dot(self.embed(left), self.embed(right)))
