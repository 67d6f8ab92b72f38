"""Tests for the embedding substrate and the schema linker."""

import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GRED, GREDConfig
from repro.embeddings import EmbedderConfig, TextEmbedder, VectorStore
from repro.embeddings.tokenization import (
    STOP_WORDS,
    char_ngrams,
    content_words,
    split_identifier,
    word_tokens,
)
from repro.linking import LinkCandidate, SchemaLinker
from repro.robustness.variants import VariantKind

# -- the per-term embedder, kept as the oracle ------------------------------

_REFERENCE_WORD_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?")


def reference_word_tokens(text, lowercase=True, split_identifiers=True):
    """``word_tokens`` with every token passed through ``split_identifier``."""
    tokens = []
    for match in _REFERENCE_WORD_PATTERN.finditer(text):
        token = match.group(0)
        if lowercase:
            token = token.lower()
        tokens.append(token)
        if split_identifiers:
            parts = split_identifier(match.group(0))
            if len(parts) > 1:
                tokens.extend(part.lower() if lowercase else part for part in parts)
    return tokens


def reference_features(config, text):
    """Prefixed term frequencies, summed one occurrence at a time."""
    counts = {}
    if config.use_words:
        for token in reference_word_tokens(text):
            key = f"w:{token}"
            counts[key] = counts.get(key, 0.0) + 1.0
    if config.char_n:
        for gram in char_ngrams(text, config.char_n):
            key = f"c:{gram}"
            counts[key] = counts.get(key, 0.0) + 0.5
    return counts


def _reference_hash(term, seed):
    digest = hashlib.blake2b(f"{seed}:{term}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def reference_embed(config, idf, text):
    """Hash every term with blake2b and add ``sign x frequency x idf`` into its slot."""
    vector = np.zeros(config.dimensions, dtype=np.float64)
    for term, frequency in reference_features(config, text).items():
        weight = frequency * idf.get(term, 1.0)
        slot = _reference_hash(term, config.seed)
        index = slot % config.dimensions
        sign = 1.0 if (slot >> 62) & 1 == 0 else -1.0
        vector[index] += sign * weight
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


class ReferenceEmbedder(TextEmbedder):
    """A ``TextEmbedder`` that fits as usual but embeds with :func:`reference_embed`."""

    def embed(self, text):
        with self._counter_lock:
            self.texts_embedded += 1
        return reference_embed(self.config, self._idf, text)


def assert_matches_reference(embedder, texts):
    idf = embedder._idf
    for text in texts:
        vector = embedder.embed(text)
        assert vector.tobytes() == reference_embed(embedder.config, idf, text).tobytes(), text
        features, expected = embedder.features(text), reference_features(embedder.config, text)
        assert list(features.items()) == list(expected.items()), text
        assert [type(value) for value in features.values()] == [float] * len(expected), text


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


#: Letters of both cases, ASCII and Arabic-Indic digits, a superscript digit
#: (``\d`` does not match it), a non-ASCII letter and the separators
#: ``_``, ``.`` and space, so decimals such as ``1.5`` and ``١.٢`` occur.
IDENTIFIER_ALPHABET = "abzABZ0159_. ١٢٣²é"


class TestWordTokensShortcut:
    """``word_tokens`` skips ``split_identifier`` for tokens that cannot split."""

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True))
    def test_only_one_case_or_capitalised_letters_stay_whole(self, token):
        one_part = token.islower() or token.isupper() or token.istitle()
        assert (split_identifier(token) == [token]) == one_part

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=IDENTIFIER_ALPHABET, max_size=24) | st.text(max_size=40))
    def test_tokens_match_splitting_every_token(self, text):
        for lowercase in (True, False):
            for split_identifiers in (True, False):
                assert word_tokens(text, lowercase, split_identifiers) == reference_word_tokens(
                    text, lowercase, split_identifiers
                )


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

    def test_counter_counts_every_embedded_text(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=32))
        embedder.fit(["alpha beta", "gamma delta"])
        assert embedder.texts_embedded == 0  # fitting embeds nothing
        embedder.embed("alpha")
        embedder.embed_batch(["beta", "gamma", "delta"])
        embedder.embed_batch([])
        assert embedder.texts_embedded == 4

    @settings(max_examples=30, deadline=None)
    @given(st.text(min_size=1, max_size=60))
    def test_any_text_embeds_without_error(self, text):
        vector = TextEmbedder(EmbedderConfig(dimensions=32)).embed(text)
        assert vector.shape == (32,)
        assert np.all(np.isfinite(vector))


#: Both widths, words off, grams off and unigrams (with another seed).
ORACLE_CONFIGS = [
    EmbedderConfig(),
    EmbedderConfig(dimensions=16),
    EmbedderConfig(dimensions=16, use_words=False),
    EmbedderConfig(char_n=0),
    EmbedderConfig(dimensions=512, char_n=1, seed=5),
]


@pytest.fixture(scope="module")
def corpus_texts(small_dataset, robustness_suite):
    """(training texts, query texts): the perturbed questions bring unseen terms."""
    train = [example.nlq for example in small_dataset.train]
    train += [example.dvq for example in small_dataset.train]
    queries = [
        text
        for kind in VariantKind
        for example in robustness_suite.variant(kind).examples
        for text in (example.nlq, example.dvq)
    ]
    return train, queries


@pytest.fixture(scope="module")
def oracle_embedders(corpus_texts):
    """A fitted and an unfitted embedder for every oracle config."""
    train, _ = corpus_texts
    embedders = []
    for config in ORACLE_CONFIGS:
        embedders.extend([TextEmbedder(config).fit(train), TextEmbedder(config)])
    return embedders


class TestEmbedderMatchesReference:
    """The term table and one-pass counting leave every vector bit-identical."""

    def test_corpus_texts(self, oracle_embedders, corpus_texts):
        train, queries = corpus_texts
        for embedder in oracle_embedders:
            assert_matches_reference(embedder, train[::4] + queries)

    def test_corpus_word_tokens(self, corpus_texts):
        for text in corpus_texts[0] + corpus_texts[1]:
            assert word_tokens(text) == reference_word_tokens(text)
            assert content_words(text) == [
                token for token in reference_word_tokens(text) if token not in STOP_WORDS
            ]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60))
    def test_any_text(self, oracle_embedders, text):
        for embedder in oracle_embedders:
            assert_matches_reference(embedder, [text])

    def test_refit_replaces_the_table(self, corpus_texts):
        train, queries = corpus_texts
        embedder = TextEmbedder().fit(train[::2])
        first = [embedder.embed(text) for text in queries[:60]]
        embedder.fit(train[1::2])
        assert_matches_reference(embedder, queries[:60])
        assert any(
            not np.array_equal(before, embedder.embed(text))
            for before, text in zip(first, queries[:60])
        )

    def test_concurrent_refits_swap_whole_tables(self, corpus_texts):
        train, queries = corpus_texts
        # small fits, so that many swaps land while the workers embed
        halves, texts = (train[:24:2], train[1:24:2]), queries[:12]
        embedder = TextEmbedder(EmbedderConfig(dimensions=64))
        expected = []
        for half in halves:
            embedder.fit(half)
            expected.append({text: embedder.embed(text).tobytes() for text in texts})
        torn, stop, rounds, workers = [], threading.Event(), 20, 4

        def refit():
            for fits in range(10_000):
                if stop.is_set():
                    return
                embedder.fit(halves[fits % 2])

        def embed():
            for _ in range(rounds):
                for text in texts:
                    if embedder.embed(text).tobytes() not in (expected[0][text], expected[1][text]):
                        torn.append(text)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            refitter = threading.Thread(target=refit)
            embedders = [threading.Thread(target=embed) for _ in range(workers)]
            refitter.start()
            for thread in embedders:
                thread.start()
            for thread in embedders:
                thread.join(timeout=120)
            stop.set()
            refitter.join(timeout=120)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not refitter.is_alive() and not any(thread.is_alive() for thread in embedders)
        assert torn == []
        assert embedder.texts_embedded == len(texts) * (len(halves) + rounds * workers)


class TestGREDTracesMatchReferenceEmbedder:
    """GRED with the production embedder traces exactly like one on the oracle."""

    def test_traces_and_hits(self, small_dataset, robustness_suite):
        config = GREDConfig(verify_execution=True, max_repair_rounds=2)
        production, reference = GRED(config), GRED(config)
        reference.retriever.embedder = ReferenceEmbedder(reference.retriever.embedder.config)
        for gred in (production, reference):
            gred.fit(small_dataset.train, small_dataset.catalog)
        catalog = robustness_suite.catalog
        questions, dvqs = [], []
        for kind in VariantKind:
            for example in robustness_suite.variant(kind).examples:
                database = catalog.get(example.db_id)
                got = production.trace(example.nlq, database)
                want = reference.trace(example.nlq, database)
                assert got.records == want.records
                assert (got.final, got.executes) == (want.final, want.executes)
                questions.append(example.nlq)
                dvqs.extend([example.dvq] + [record.dvq for record in got.records])
        assert production.retriever.embedder.texts_embedded == (
            reference.retriever.embedder.texts_embedded
        )

        def hits(gred, store, query):
            found = getattr(gred.retriever, store).search(query, top_k=10)
            return [(hit.key, hit.score) for hit in found]

        for store, queries in (("nlq_store", questions), ("dvq_store", dvqs)):
            for query in queries:
                assert hits(production, store, query) == hits(reference, store, query)


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
