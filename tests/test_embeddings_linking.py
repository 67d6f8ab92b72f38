"""Tests for the embedding substrate and the schema linker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import EmbedderConfig, TextEmbedder, VectorStore
from repro.embeddings.tokenization import char_ngrams, content_words, split_identifier, word_tokens
from repro.linking import LinkCandidate, SchemaLinker
from repro.robustness.variants import VariantKind


class TestTokenization:
    def test_split_snake_case(self):
        assert split_identifier("HIRE_DATE") == ["HIRE", "DATE"]

    def test_split_camel_case(self):
        assert split_identifier("DeptName") == ["Dept", "Name"]

    def test_word_tokens_include_identifier_parts(self):
        tokens = word_tokens("show HIRE_DATE please")
        assert "hire" in tokens and "date" in tokens

    def test_content_words_drop_stopwords(self):
        assert "the" not in content_words("show the salary of the staff")

    def test_char_ngrams_have_boundaries(self):
        assert char_ngrams("a", n=3) == ["#a#"]
        grams = char_ngrams("salary", n=3)
        assert grams[0].startswith("#") and grams[-1].endswith("#")


class TestTextEmbedder:
    def test_embeddings_are_unit_norm(self):
        embedder = TextEmbedder()
        vector = embedder.embed("show the average salary per department")
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_similar_texts_score_higher_than_dissimilar(self):
        embedder = TextEmbedder()
        base = "show the average salary for each department"
        close = "display the average salary for every department"
        far = "list all airports located in Tokyo"
        assert embedder.similarity(base, close) > embedder.similarity(base, far)

    def test_embedding_is_deterministic(self):
        embedder = TextEmbedder()
        text = "bar chart of wages"
        assert np.allclose(embedder.embed(text), embedder.embed(text))

    def test_fit_changes_weights(self):
        corpus = ["salary by department", "salary by job", "capacity of cinemas"]
        unfitted = TextEmbedder().embed("salary by department")
        fitted = TextEmbedder().fit(corpus).embed("salary by department")
        assert not np.allclose(unfitted, fitted)

    def test_batch_shape(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=64))
        matrix = embedder.embed_batch(["a", "b", "c"])
        assert matrix.shape == (3, 64)

    def test_empty_batch(self):
        assert TextEmbedder().embed_batch([]).shape[0] == 0

    @settings(max_examples=30, deadline=None)
    @given(st.text(min_size=1, max_size=60))
    def test_any_text_embeds_without_error(self, text):
        vector = TextEmbedder(EmbedderConfig(dimensions=32)).embed(text)
        assert vector.shape == (32,)
        assert np.all(np.isfinite(vector))


class TestVectorStore:
    def _store(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=128))
        store = VectorStore(embedder)
        store.add("1", "average salary per department", {"id": 1})
        store.add("2", "number of pets per student", {"id": 2})
        store.add("3", "capacity of each cinema by year", {"id": 3})
        return store

    def test_search_returns_most_relevant_first(self):
        hits = self._store().search("mean salary for every department", top_k=2)
        assert hits[0].payload["id"] == 1

    def test_search_scores_are_descending(self):
        hits = self._store().search("pets owned by students", top_k=3)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_caps_results(self):
        assert len(self._store().search("salary", top_k=2)) == 2

    def test_empty_store_returns_nothing(self):
        store = VectorStore(TextEmbedder())
        assert store.search("anything", top_k=5) == []

    def test_add_many(self):
        store = VectorStore(TextEmbedder())
        store.add_many([("a", "text one", 1), ("b", "text two", 2)])
        assert len(store) == 2


class TestSchemaLinker:
    def test_exact_column_mention_scores_one(self, hr_database):
        linker = SchemaLinker()
        candidate = linker.best_column("HIRE_DATE", hr_database.schema)
        assert candidate.column == "HIRE_DATE"
        assert candidate.score == pytest.approx(1.0, abs=0.1)

    def test_semantic_linker_resolves_synonyms(self, hr_database):
        linker = SchemaLinker(use_synonyms=True)
        candidate = linker.best_column("wage", hr_database.schema)
        assert candidate is not None and candidate.column == "SALARY"

    def test_lexical_linker_fails_on_synonyms(self, hr_database):
        linker = SchemaLinker(use_synonyms=False, use_char_similarity=False, min_score=0.5)
        candidate = linker.best_column("wage", hr_database.schema)
        assert candidate is None or candidate.column != "SALARY"

    def test_map_foreign_column_recovers_rename(self, hr_database):
        linker = SchemaLinker(use_synonyms=True)
        renamed = hr_database.schema.renamed(column_renames={("employees", "SALARY"): "wage"})
        candidate = linker.map_foreign_column("SALARY", renamed, preferred_tables=["employees"])
        assert candidate is not None and candidate.column == "wage"

    def test_map_foreign_column_keeps_existing(self, hr_database):
        linker = SchemaLinker()
        candidate = linker.map_foreign_column("SALARY", hr_database.schema)
        assert candidate.column == "SALARY" and candidate.score == 1.0

    def test_question_links_find_mentioned_columns(self, hr_database):
        linker = SchemaLinker()
        links = linker.question_links(
            "Show the average SALARY for each LAST_NAME in a bar chart", hr_database.schema
        )
        linked = {link.column for link in links}
        assert "SALARY" in linked and "LAST_NAME" in linked


def _list_jaccard(left, right):
    left_set, right_set = set(left), set(right)
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


class PerPairLinker(SchemaLinker):
    """Reference: the linker that scores every (phrase, column) pair from scratch."""

    def score_phrase(self, phrase_words, column_name):
        column_parts = self.column_words(column_name)
        phrase_lower = [word.lower() for word in phrase_words]
        if not phrase_lower:
            return 0.0
        joined = "_".join(phrase_lower)
        if column_name.lower() == joined or column_name.lower() in phrase_lower:
            return 1.0
        word_score = _list_jaccard(self._expand(phrase_lower), self._expand(column_parts))
        char_score = 0.0
        if self.use_char_similarity:
            char_score = _list_jaccard(
                char_ngrams(" ".join(phrase_lower)), char_ngrams(" ".join(column_parts))
            )
        return max(word_score, 0.9 * char_score)

    def link_phrase(self, phrase, schema, preferred_table=None, top_k=3):
        words = content_words(phrase) or [phrase.lower()]
        candidates = []
        for table_name, column in schema.all_columns():
            score = self.score_phrase(words, column.name)
            if preferred_table and table_name.lower() == preferred_table.lower():
                score += 0.05
            if score >= self.min_score:
                candidates.append(LinkCandidate(table=table_name, column=column.name, score=score))
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]

    def map_foreign_column(self, column_name, schema, preferred_tables=()):
        for table_name, column in schema.all_columns():
            if column.name.lower() == column_name.lower():
                return LinkCandidate(table=table_name, column=column.name, score=1.0)
        words = self.column_words(column_name)
        best = None
        preferred = {table.lower() for table in preferred_tables}
        for table_name, column in schema.all_columns():
            score = self.score_phrase(words, column.name)
            if table_name.lower() in preferred:
                score += 0.1
            if score >= self.min_score and (best is None or score > best.score):
                best = LinkCandidate(table=table_name, column=column.name, score=score)
        return best

    def question_links(self, nlq, schema, top_k=6):
        words = content_words(nlq)
        scored = {}
        for size in (1, 2, 3):
            for start in range(0, max(0, len(words) - size + 1)):
                window = words[start : start + size]
                for table_name, column in schema.all_columns():
                    score = self.score_phrase(window, column.name)
                    key = (table_name, column.name)
                    if score > scored.get(key, 0.0):
                        scored[key] = score
        candidates = [
            LinkCandidate(table=table, column=column, score=score)
            for (table, column), score in scored.items()
            if score >= self.min_score
        ]
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]


#: The GRED behaviours' semantic linkers and the baselines' lexical ones.
LINKER_CONFIGS = {
    "generation": dict(use_synonyms=True, use_char_similarity=True, min_score=0.5),
    "debug": dict(use_synonyms=True, use_char_similarity=True, min_score=0.15),
    "repair": dict(use_synonyms=True, use_char_similarity=True, min_score=0.0),
    "seq2vis": dict(use_synonyms=False, use_char_similarity=False, min_score=0.5),
    "transformer": dict(use_synonyms=False, use_char_similarity=True, min_score=0.4),
}


class TestSchemaLinkerMatchesPerPairScoring:
    @pytest.fixture(scope="class")
    def cases(self, small_dataset, robustness_suite):
        """(schema, questions, foreign identifiers) for every database, renamed twins included."""
        questions = {}
        examples = list(small_dataset.train)
        for kind in VariantKind:
            examples.extend(robustness_suite.variant(kind).examples)
        for example in examples:
            questions.setdefault(example.db_id, []).append(example.nlq)
        twins = {}
        for db_id, plan in robustness_suite.rename_plans.items():
            twins[db_id] = plan.new_db_id
            twins[plan.new_db_id] = db_id
        cases = []
        for database in robustness_suite.catalog:
            twin = robustness_suite.catalog.get(twins[database.name]) if database.name in twins else None
            foreign = [
                (name, table.name)
                for table in (twin or database).schema.tables
                for name in [table.name] + table.column_names()
            ]
            cases.append((database.schema, questions.get(database.name, [])[:2], foreign))
        assert len(twins) >= 4 and len(cases) > len(twins) // 2
        return cases

    @pytest.mark.parametrize("config", LINKER_CONFIGS.values(), ids=list(LINKER_CONFIGS))
    def test_every_api_matches_the_reference(self, cases, config):
        linker, reference = SchemaLinker(**config), PerPairLinker(**config)
        for schema, questions, foreign in cases:
            tables = schema.table_names()
            phrases = ["the", "", "wage per division"] + [name.replace("_", " ") for name, _ in foreign]
            for question in questions:
                assert linker.question_links(question, schema, top_k=50) == reference.question_links(
                    question, schema, top_k=50
                )
            if questions:
                words = content_words(questions[0])
                phrases.extend(" ".join(words[start : start + 3]) for start in range(len(words)))
            for phrase in phrases:
                assert linker.best_column(phrase, schema) == reference.best_column(phrase, schema)
                assert linker.link_phrase(phrase, schema, tables[-1], top_k=50) == (
                    reference.link_phrase(phrase, schema, tables[-1], top_k=50)
                )
            for name, table in foreign:
                for preferred in ((), [table]):
                    assert linker.map_foreign_column(name, schema, preferred) == (
                        reference.map_foreign_column(name, schema, preferred)
                    )
                words = linker.column_words(name)
                for candidate in tables + [name, ""]:
                    assert linker.score_phrase(words, candidate) == reference.score_phrase(
                        words, candidate
                    )
            assert linker.score_phrase([], tables[0]) == reference.score_phrase([], tables[0]) == 0.0
