"""Tests for the pluggable vector-index subsystem (`repro.index`).

Covers the backend contract (exact == brute force, partitioned == exact at
full probe), the deterministic top-K tie-break, concurrent add/search
consistency through a shared store, and the in-memory libraries that
``GREDRetriever.prepare`` builds.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.errors import NotFittedError
from repro.core.retriever import GREDRetriever
from repro.embeddings import EmbedderConfig, TextEmbedder, VectorStore
from repro.index import ExactIndex, IndexConfig, PartitionedIndex, build_index, select_top_k


def unit_rows(rng, count, dims):
    rows = rng.normal(size=(count, dims))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def clustered_rows(rng, count, dims, clusters, noise=0.3):
    centers = unit_rows(rng, clusters, dims)
    assignment = rng.integers(0, clusters, size=count)
    rows = centers[assignment] + noise * rng.normal(size=(count, dims))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True), centers


class TestSelectTopK:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=200)
        keys = [f"k{i:03d}" for i in range(200)]
        expected = sorted(range(200), key=lambda i: (-scores[i], keys[i]))[:10]
        assert select_top_k(scores, keys, 10) == expected

    def test_ties_break_by_key_ascending(self):
        scores = np.array([0.5, 0.9, 0.9, 0.1, 0.9])
        keys = ["e", "d", "b", "a", "c"]
        picks = select_top_k(scores, keys, 3)
        # three-way tie at 0.9 resolved alphabetically: b, c, d
        assert [keys[i] for i in picks] == ["b", "c", "d"]

    def test_tie_at_the_partition_boundary_is_deterministic(self):
        scores = np.array([1.0, 0.5, 0.5, 0.5, 0.2])
        keys = ["a", "z", "m", "b", "q"]
        picks = select_top_k(scores, keys, 2)
        assert [keys[i] for i in picks] == ["a", "b"]

    def test_k_larger_than_library(self):
        scores = np.array([0.2, 0.8])
        assert select_top_k(scores, ["a", "b"], 10) == [1, 0]

    def test_empty_and_zero_k(self):
        assert select_top_k(np.array([]), [], 5) == []
        assert select_top_k(np.array([1.0]), ["a"], 0) == []

    def test_mass_tie_returns_smallest_keys(self):
        # e.g. a zero query vector scores the whole library identically; the
        # winners must still be deterministic (smallest keys) and cheap to pick
        scores = np.zeros(5000)
        keys = [f"k{(i * 379) % 5000:04d}" for i in range(5000)]  # shuffled
        picks = select_top_k(scores, keys, 3)
        assert [keys[i] for i in picks] == ["k0000", "k0001", "k0002"]


class TestExactIndex:
    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(11)
        rows = unit_rows(rng, 300, 32)
        keys = [f"k{i:04d}" for i in range(300)]
        index = ExactIndex()
        index.add(keys, rows, list(range(300)))
        queries = unit_rows(rng, 7, 32)
        results = index.search_matrix(queries, 5)
        for query, hits in zip(queries, results):
            scores = rows @ query
            expected = sorted(range(300), key=lambda i: (-scores[i], keys[i]))[:5]
            assert [hit.key for hit in hits] == [keys[i] for i in expected]
            assert [hit.payload for hit in hits] == expected
            assert all(np.isclose(hit.score, scores[i]) for hit, i in zip(hits, expected))

    def test_add_rejects_mismatched_batches(self):
        index = ExactIndex()
        with pytest.raises(ValueError, match="Mismatched batch"):
            index.add(["a"], np.zeros((2, 4)), [1, 2])

    def test_incremental_adds_extend_the_library(self):
        rng = np.random.default_rng(5)
        rows = unit_rows(rng, 20, 16)
        index = ExactIndex()
        index.add([f"a{i}" for i in range(10)], rows[:10], list(range(10)))
        index.search_matrix(rows[:1], 3)
        index.add([f"b{i}" for i in range(10)], rows[10:], list(range(10, 20)))
        assert len(index) == 20
        hits = index.search_matrix(rows[15:16], 1)[0]
        assert hits[0].key == "b5" and hits[0].payload == 15


    def test_snapshot_is_not_changed_by_later_adds(self):
        rng = np.random.default_rng(89)
        rows = unit_rows(rng, 5, 8)
        index = ExactIndex()
        index.add(["a", "b", "c"], rows[:3], [1, 2, 3])
        matrix, keys, payloads = index.snapshot()
        index.add(["d", "e"], rows[3:], [4, 5])
        assert keys == ("a", "b", "c") and payloads == (1, 2, 3)
        assert np.array_equal(matrix, rows[:3])
        matrix, keys, payloads = index.snapshot()
        assert keys == ("a", "b", "c", "d", "e") and payloads == (1, 2, 3, 4, 5)
        assert np.array_equal(matrix, rows)


class TestPartitionedIndex:
    def _filled(self, rng, count=600, dims=24, **kwargs):
        rows, _ = clustered_rows(rng, count, dims, clusters=12)
        keys = [f"k{i:05d}" for i in range(count)]
        index = PartitionedIndex(**kwargs)
        index.add(keys, rows, list(range(count)))
        return index, rows, keys

    def test_training_waits_for_the_first_search(self):
        rng = np.random.default_rng(97)
        index, rows, keys = self._filled(rng, count=300, num_partitions=6, nprobe=2)
        assert not index.is_trained and index.partition_sizes() == []
        index.search_matrix(rows[:1], 1)
        assert index.is_trained
        assert sum(index.partition_sizes()) == 300
        matrix, snapshot_keys, _ = index.snapshot()
        assert snapshot_keys == tuple(keys) and np.array_equal(matrix, rows)

    def test_same_library_and_seed_give_identical_hits(self):
        rng = np.random.default_rng(67)
        rows, _ = clustered_rows(rng, 400, 32, clusters=8)
        queries = unit_rows(rng, 6, 32)
        runs = []
        for _ in range(2):
            index = PartitionedIndex(num_partitions=8, nprobe=3)
            index.add([f"k{i:04d}" for i in range(400)], rows, list(range(400)))
            runs.append(
                [
                    [(hit.key, hit.payload, hit.score) for hit in hits]
                    for hits in index.search_matrix(queries, 4)
                ]
            )
        assert runs[0] == runs[1]

    def test_full_probe_equals_exact(self):
        rng = np.random.default_rng(23)
        index, rows, keys = self._filled(rng, num_partitions=8, nprobe=8)
        exact = ExactIndex()
        exact.add(keys, rows, list(range(len(rows))))
        queries = unit_rows(rng, 9, rows.shape[1])
        expected = exact.search_matrix(queries, 7)
        actual = index.search_matrix(queries, 7)
        assert index.is_trained
        for left, right in zip(expected, actual):
            assert [(h.key, h.payload) for h in left] == [(h.key, h.payload) for h in right]
            assert np.allclose([h.score for h in left], [h.score for h in right])

    def test_small_library_falls_back_to_exact_scan(self):
        rng = np.random.default_rng(7)
        rows = unit_rows(rng, 6, 16)
        index = PartitionedIndex(num_partitions=8, nprobe=2)
        index.add([f"k{i}" for i in range(6)], rows, list(range(6)))
        hits = index.search_matrix(rows[:1], 6)[0]
        assert not index.is_trained
        assert len(hits) == 6  # every entry reachable despite nprobe=2

    def test_recall_on_clustered_data(self):
        rng = np.random.default_rng(41)
        rows, centers = clustered_rows(rng, 2000, 32, clusters=40, noise=0.25)
        keys = [f"k{i:05d}" for i in range(2000)]
        exact = ExactIndex()
        exact.add(keys, rows, list(range(2000)))
        index = PartitionedIndex(num_partitions=40, nprobe=8)
        index.add(keys, rows, list(range(2000)))
        queries = centers[:25] + 0.25 * rng.normal(size=(25, 32))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        truth = exact.search_matrix(queries, 5)
        approx = index.search_matrix(queries, 5)
        recalls = [
            len({h.key for h in t} & {h.key for h in a}) / 5 for t, a in zip(truth, approx)
        ]
        assert sum(recalls) / len(recalls) >= 0.9

    def test_tail_entries_are_found_before_retraining(self):
        rng = np.random.default_rng(53)
        index, rows, _ = self._filled(rng, count=500, num_partitions=10, nprobe=2)
        index.search_matrix(rows[:1], 1)  # train on the initial 500
        trained_before = index._trained_rows
        tail = unit_rows(rng, 3, rows.shape[1])
        index.add(["tail0", "tail1", "tail2"], tail, ["t0", "t1", "t2"])
        hits = index.search_matrix(tail[1:2], 1)[0]
        assert hits[0].key == "tail1" and hits[0].payload == "t1"
        assert index._trained_rows == trained_before  # small tail: no retrain

    def test_retrains_after_substantial_growth(self):
        rng = np.random.default_rng(59)
        index, rows, _ = self._filled(rng, count=300, num_partitions=6, nprobe=2)
        index.search_matrix(rows[:1], 1)
        first_training = index._trained_rows
        more = unit_rows(rng, 400, rows.shape[1])
        index.add([f"m{i}" for i in range(400)], more, list(range(400)))
        index.search_matrix(rows[:1], 1)
        assert index._trained_rows > first_training

    def test_rejects_invalid_nprobe(self):
        with pytest.raises(ValueError, match="nprobe"):
            PartitionedIndex(nprobe=0)

    def test_empty_partitions_never_probed(self):
        # two tight clusters but eight requested partitions: k-means leaves
        # empties, which must not eat nprobe slots (nprobe=1 still finds hits)
        rng = np.random.default_rng(83)
        rows, _ = clustered_rows(rng, 40, 16, clusters=2, noise=0.01)
        index = PartitionedIndex(num_partitions=8, nprobe=1)
        index.add([f"k{i:02d}" for i in range(40)], rows, list(range(40)))
        hits = index.search_matrix(rows[:3], 5)
        assert index.is_trained
        # probing one partition may return fewer than top_k (IVF semantics),
        # but never zero: empty partitions are dropped at train time
        assert all(len(query_hits) >= 1 for query_hits in hits)
        assert all(size > 0 for size in index.partition_sizes())


class TestBuildIndex:
    def test_builds_both_backends(self):
        assert isinstance(build_index(IndexConfig()), ExactIndex)
        partitioned = build_index(IndexConfig(backend="partitioned", num_partitions=4, nprobe=2))
        assert isinstance(partitioned, PartitionedIndex)
        assert partitioned.num_partitions == 4 and partitioned.nprobe == 2

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="Unknown index backend"):
            build_index(IndexConfig(backend="faiss"))


class TestConcurrentRetrieval:
    """Satellite: interleaved add/search on one shared store stays consistent."""

    def test_interleaved_add_and_search_yield_consistent_triples(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=48))
        store: VectorStore = VectorStore(embedder)
        store.add_many(
            (f"seed{i:03d}", f"seed document {i} about topic {i % 7}", {"key": f"seed{i:03d}"})
            for i in range(40)
        )
        queries = [f"document about topic {i % 7}" for i in range(30)]
        stop_adding = threading.Event()

        def writer():
            batch = 0
            while not stop_adding.is_set() and batch < 40:
                store.add_many(
                    (
                        f"w{batch:02d}_{i}",
                        f"added document {batch} {i} topic {i % 5}",
                        {"key": f"w{batch:02d}_{i}"},
                    )
                    for i in range(5)
                )
                batch += 1

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                batched = list(
                    pool.map(lambda query: (query, store.search(query, top_k=8)), queries)
                )
            many = store.search_many(queries[:8], top_k=8)
        finally:
            stop_adding.set()
            writer_thread.join()

        results = list(batched) + list(zip(queries[:8], many))
        checked = 0
        for query, hits in results:
            assert hits, f"no hits for {query!r}"
            query_vector = embedder.embed(query)
            scores = [hit.score for hit in hits]
            assert scores == sorted(scores, reverse=True)
            for hit in hits:
                # the triple is internally consistent: payload belongs to the
                # key, and the score is the similarity of that key's own text
                assert hit.payload["key"] == hit.key
                checked += 1
                if hit.key.startswith("seed"):
                    seed_index = int(hit.key[4:])
                    text = f"seed document {seed_index} about topic {seed_index % 7}"
                else:
                    batch, item = hit.key[1:].split("_")
                    text = f"added document {int(batch)} {item} topic {int(item) % 5}"
                assert np.isclose(hit.score, float(embedder.embed(text) @ query_vector))
        assert checked >= len(results) * 8

    def test_embed_counter_is_exact_under_concurrency(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=16))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(embedder.embed, [f"text {i}" for i in range(200)]))
        assert embedder.texts_embedded == 200


def hit_rows(results):
    return [[(hit.key, hit.score) for hit in hits] for hits in results]


class TestInMemoryRetriever:
    """``GREDRetriever.prepare`` rebuilds both libraries in memory."""

    def test_library_is_embedded_once_then_reused(self, small_dataset):
        train = small_dataset.train[:40]
        retriever = GREDRetriever(dimensions=64).prepare(train)
        embedder = retriever.embedder
        assert embedder.texts_embedded == 0  # prepare only queues the entries
        retriever.retrieve_by_nlq(train[0].nlq, top_k=3)
        assert embedder.texts_embedded == 40 + 1
        retriever.retrieve_by_dvq(train[0].dvq, top_k=3)
        assert embedder.texts_embedded == 2 * 40 + 2
        retriever.retrieve_by_nlq_many([example.nlq for example in train[:5]], top_k=3)
        assert embedder.texts_embedded == 2 * 40 + 7

    def test_prepare_replaces_the_previous_libraries(self, small_dataset):
        first, second = small_dataset.train[:30], small_dataset.train[30:60]
        retriever = GREDRetriever(dimensions=64).prepare(first)
        retriever.retrieve_by_nlq(first[0].nlq, top_k=1)
        retriever.prepare(second)
        assert len(retriever.nlq_store) == len(retriever.dvq_store) == 30
        wanted = {example.example_id for example in second}
        results = retriever.retrieve_by_nlq_many(
            [example.nlq for example in first[:5]], top_k=30
        ) + retriever.retrieve_by_dvq_many([example.dvq for example in first[:5]], top_k=30)
        assert all({hit.key for hit in hits} == wanted for hits in results)

    def test_hits_carry_the_training_examples(self, small_dataset):
        renamed = [
            example.with_variant(db_id=f"{example.db_id}_rob")
            for example in small_dataset.train[:30]
        ]
        retriever = GREDRetriever(dimensions=64).prepare(renamed)
        for example in renamed[:5]:
            hits = retriever.retrieve_by_nlq(example.nlq, top_k=5)
            assert hits[0].payload.nlq == example.nlq
            assert np.isclose(hits[0].score, 1.0)
            for hit in hits:
                assert any(hit.payload is entry for entry in renamed)
                assert hit.key == hit.payload.example_id
                assert hit.payload.db_id.endswith("_rob")

    def test_two_preparations_of_one_corpus_agree_bit_for_bit(self, small_dataset):
        nlqs = [example.nlq for example in small_dataset.test[:12]]
        dvqs = [example.dvq for example in small_dataset.test[:12]]
        runs = []
        for _ in range(2):
            retriever = GREDRetriever().prepare(small_dataset.train)
            runs.append(
                hit_rows(retriever.retrieve_by_nlq_many(nlqs, top_k=10))
                + hit_rows(retriever.retrieve_by_dvq_many(dvqs, top_k=10))
            )
        assert runs[0] == runs[1]

    def test_max_examples_caps_both_libraries(self, small_dataset):
        retriever = GREDRetriever(dimensions=64).prepare(small_dataset.train, max_examples=12)
        assert len(retriever.nlq_store) == len(retriever.dvq_store) == 12
        kept = {example.example_id for example in small_dataset.train[:12]}
        query = small_dataset.train[20]
        assert {hit.key for hit in retriever.retrieve_by_nlq(query.nlq, top_k=50)} == kept
        assert {hit.key for hit in retriever.retrieve_by_dvq(query.dvq, top_k=50)} == kept

    def test_partitioned_libraries_at_full_probe_match_exact(self, small_dataset):
        config = IndexConfig(backend="partitioned", num_partitions=4, nprobe=4)
        exact = GREDRetriever(dimensions=64).prepare(small_dataset.train)
        partitioned = GREDRetriever(dimensions=64, index_config=config).prepare(
            small_dataset.train
        )
        queries = [example.nlq for example in small_dataset.test[:10]]
        expected = exact.retrieve_by_nlq_many(queries, top_k=8)
        actual = partitioned.retrieve_by_nlq_many(queries, top_k=8)
        index = partitioned.nlq_store.index
        assert isinstance(index, PartitionedIndex) and index.is_trained
        for left, right in zip(expected, actual):
            assert [hit.key for hit in left] == [hit.key for hit in right]
            assert np.allclose([hit.score for hit in left], [hit.score for hit in right])

    @pytest.mark.parametrize(
        "method, query",
        [
            ("retrieve_by_nlq", "Show the salary"),
            ("retrieve_by_nlq_many", ["Show the salary"]),
            ("retrieve_by_dvq_many", ["Visualize BAR"]),
        ],
    )
    def test_retrieval_before_prepare_names_the_caller(self, method, query):
        with pytest.raises(NotFittedError, match=rf"GREDRetriever\.{method} called before prepare"):
            getattr(GREDRetriever(), method)(query, top_k=1)
