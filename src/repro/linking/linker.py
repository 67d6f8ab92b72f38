"""The schema linker used by baselines (lexical mode) and GRED (semantic mode)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence

from repro.database.schema import DatabaseSchema
from repro.embeddings.tokenization import char_ngrams, content_words, split_identifier
from repro.robustness.synonyms import SynonymLexicon, default_lexicon


@dataclass(frozen=True)
class LinkCandidate:
    """A scored (table, column) candidate for a phrase or foreign column name."""

    table: str
    column: str
    score: float


def _jaccard(left: AbstractSet[str], right: AbstractSet[str]) -> float:
    if not left or not right:
        return 0.0
    return len(left & right) / len(left | right)


@dataclass(frozen=True)
class _Features:
    """What a score needs from one side alone: a phrase or an identifier."""

    name: str  # a phrase's words joined by "_", or an identifier's lower-cased name
    words: FrozenSet[str]  # the lower-cased words
    expanded: FrozenSet[str]  # the words plus, in semantic mode, their related words
    trigrams: FrozenSet[str]  # character trigrams of the words joined by spaces


class SchemaLinker:
    """Scores how well a phrase refers to each column of a schema.

    Args:
        lexicon: synonym lexicon used in semantic mode.
        use_synonyms: enable synonym-aware matching (semantic mode).
        use_char_similarity: enable character n-gram similarity.
        min_score: candidates scoring below this are discarded.
    """

    def __init__(
        self,
        lexicon: Optional[SynonymLexicon] = None,
        use_synonyms: bool = True,
        use_char_similarity: bool = True,
        min_score: float = 0.2,
    ):
        self.lexicon = lexicon or default_lexicon()
        self.use_synonyms = use_synonyms
        self.use_char_similarity = use_char_similarity
        self.min_score = min_score
        # identifier name -> its features.  Keyed by name, not by schema:
        # the generation behaviour rebuilds its schema from prompt text on
        # every call, while the names come from the catalog's finite set.
        self._identifiers: Dict[str, _Features] = {}

    # -- scoring -------------------------------------------------------------

    def _expand(self, words: Sequence[str]) -> List[str]:
        if not self.use_synonyms:
            return [word.lower() for word in words]
        expanded: List[str] = []
        for word in words:
            expanded.extend(self.lexicon.related_words(word))
        return expanded

    def column_words(self, column_name: str) -> List[str]:
        return [word.lower() for word in split_identifier(column_name)] or [column_name.lower()]

    def _features(self, name: str, words: List[str]) -> _Features:
        trigrams = char_ngrams(" ".join(words)) if self.use_char_similarity else ()
        return _Features(name, frozenset(words), frozenset(self._expand(words)), frozenset(trigrams))

    def _phrase(self, phrase_words: Sequence[str]) -> _Features:
        words = [word.lower() for word in phrase_words]
        return self._features("_".join(words), words)

    def _identifier(self, name: str) -> _Features:
        features = self._identifiers.get(name)
        if features is None:
            # two threads may both compute a missing entry; setdefault keeps
            # the first and the two are equal anyway
            features = self._identifiers.setdefault(
                name, self._features(name.lower(), self.column_words(name))
            )
        return features

    def _score(self, phrase: _Features, column: _Features) -> float:
        if not phrase.words:
            return 0.0
        # exact identifier mention (the nvBench shortcut)
        if column.name == phrase.name or column.name in phrase.words:
            return 1.0
        word_score = _jaccard(phrase.expanded, column.expanded)
        char_score = 0.0
        if self.use_char_similarity:
            char_score = _jaccard(phrase.trigrams, column.trigrams)
        return max(word_score, 0.9 * char_score)

    def score_phrase(self, phrase_words: Sequence[str], column_name: str) -> float:
        """Similarity in [0, 1] between a phrase (already tokenised) and a column."""
        return self._score(self._phrase(phrase_words), self._identifier(column_name))

    # -- public linking APIs ---------------------------------------------------

    def link_phrase(
        self,
        phrase: str,
        schema: DatabaseSchema,
        preferred_table: Optional[str] = None,
        top_k: int = 3,
    ) -> List[LinkCandidate]:
        """Rank schema columns by how well they match ``phrase``."""
        features = self._phrase(content_words(phrase) or [phrase.lower()])
        candidates: List[LinkCandidate] = []
        for table_name, column in schema.all_columns():
            score = self._score(features, self._identifier(column.name))
            if preferred_table and table_name.lower() == preferred_table.lower():
                score += 0.05
            if score >= self.min_score:
                candidates.append(LinkCandidate(table=table_name, column=column.name, score=score))
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]

    def best_column(
        self, phrase: str, schema: DatabaseSchema, preferred_table: Optional[str] = None
    ) -> Optional[LinkCandidate]:
        """The single best column for ``phrase`` (None when nothing clears the threshold)."""
        candidates = self.link_phrase(phrase, schema, preferred_table=preferred_table, top_k=1)
        return candidates[0] if candidates else None

    def map_foreign_column(
        self,
        column_name: str,
        schema: DatabaseSchema,
        preferred_tables: Sequence[str] = (),
    ) -> Optional[LinkCandidate]:
        """Map a column name from *another* schema onto this schema.

        This is the operation behind GRED's annotation-based debugger: the
        generated DVQ mentions ``SALARY`` but the (renamed) schema only has
        ``wage``; semantic linking recovers the correspondence.
        """
        if any(
            column.name.lower() == column_name.lower()
            for _, column in schema.all_columns()
        ):
            for table_name, column in schema.all_columns():
                if column.name.lower() == column_name.lower():
                    return LinkCandidate(table=table_name, column=column.name, score=1.0)
        features = self._phrase(self.column_words(column_name))
        best: Optional[LinkCandidate] = None
        preferred = {table.lower() for table in preferred_tables}
        for table_name, column in schema.all_columns():
            score = self._score(features, self._identifier(column.name))
            if table_name.lower() in preferred:
                score += 0.1
            if score >= self.min_score and (best is None or score > best.score):
                best = LinkCandidate(table=table_name, column=column.name, score=score)
        return best

    def question_links(
        self, nlq: str, schema: DatabaseSchema, top_k: int = 6
    ) -> List[LinkCandidate]:
        """Columns mentioned (explicitly or semantically) anywhere in a question."""
        words = content_words(nlq)
        columns = [
            (table_name, column.name, self._identifier(column.name))
            for table_name, column in schema.all_columns()
        ]
        scored: dict = {}
        window_sizes = (1, 2, 3)
        for size in window_sizes:
            for start in range(0, max(0, len(words) - size + 1)):
                window = self._phrase(words[start : start + size])
                for table_name, column_name, column in columns:
                    score = self._score(window, column)
                    key = (table_name, column_name)
                    if score > scored.get(key, 0.0):
                        scored[key] = score
        candidates = [
            LinkCandidate(table=table, column=column, score=score)
            for (table, column), score in scored.items()
            if score >= self.min_score
        ]
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]
