"""Tests for the pluggable vector-index subsystem (`repro.index`).

Covers the backend contract (exact == brute force, partitioned == exact at
full probe), the deterministic top-K
tie-break, concurrent add/search consistency through a shared store, and
snapshot persistence round-trips at both the store and the retriever level.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.retriever import GREDRetriever
from repro.embeddings import EmbedderConfig, TextEmbedder, VectorStore
from repro.index import (
    ExactIndex,
    IndexConfig,
    PartitionedIndex,
    SnapshotError,
    build_index,
    load_index,
    save_index,
    select_top_k,
)
from repro.nvbench.generator import build_corpus
from repro.runtime import BatchRunner


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


class TestPartitionedIndex:
    def _filled(self, rng, count=600, dims=24, **kwargs):
        rows, _ = clustered_rows(rng, count, dims, clusters=12)
        keys = [f"k{i:05d}" for i in range(count)]
        index = PartitionedIndex(**kwargs)
        index.add(keys, rows, list(range(count)))
        return index, rows, keys

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
            runner = BatchRunner(max_workers=6)
            batched = runner.map(queries, lambda query: (query, store.search(query, top_k=8)))
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


class TestSnapshotPersistence:
    def test_store_round_trip_is_bit_identical(self, tmp_path):
        embedder = TextEmbedder(EmbedderConfig(dimensions=64))
        store: VectorStore = VectorStore(embedder)
        store.add_many((f"k{i}", f"entry {i} about {i % 9}", {"n": i}) for i in range(60))
        expected = store.search_many(["entry about 4", "entry about 7"], top_k=6)

        path = store.save(str(tmp_path / "lib"))
        fresh_embedder = TextEmbedder(EmbedderConfig(dimensions=64))
        loaded: VectorStore = VectorStore.load(path, fresh_embedder)
        actual = loaded.search_many(["entry about 4", "entry about 7"], top_k=6)

        assert [[(h.key, h.payload, h.score) for h in hits] for hits in actual] == [
            [(h.key, h.payload, h.score) for h in hits] for hits in expected
        ]
        assert loaded.texts() == store.texts()
        # only the two queries were embedded; the library came from disk
        assert fresh_embedder.texts_embedded == 2

    def test_partitioned_store_round_trip_keeps_training(self, tmp_path):
        rng = np.random.default_rng(67)
        rows, _ = clustered_rows(rng, 400, 32, clusters=8)
        index = PartitionedIndex(num_partitions=8, nprobe=3)
        index.add([f"k{i:04d}" for i in range(400)], rows, list(range(400)))
        index.search_matrix(rows[:1], 1)  # train
        expected = index.search_matrix(rows[:5], 4)

        path = save_index(index, str(tmp_path / "part"))
        loaded, _, _ = load_index(path)
        assert isinstance(loaded, PartitionedIndex) and loaded.is_trained
        actual = loaded.search_matrix(rows[:5], 4)
        assert [[(h.key, h.score) for h in hits] for hits in actual] == [
            [(h.key, h.score) for h in hits] for hits in expected
        ]

    def test_retriever_round_trip_with_fresh_embedder(self, tmp_path):
        """Satellite: save a prepared retriever, reload into a fresh object,
        and get bit-identical top-K on a seeded query set without re-embedding."""
        dataset = build_corpus(scale=0.05, seed=17)
        retriever = GREDRetriever().prepare(dataset.train)
        queries = [example.nlq for example in dataset.test[:12]]
        dvq_queries = [example.dvq for example in dataset.test[:12]]
        expected_nlq = retriever.retrieve_by_nlq_many(queries, top_k=10)
        expected_dvq = retriever.retrieve_by_dvq_many(dvq_queries, top_k=10)

        directory = retriever.save(str(tmp_path / "retriever"))
        restored = GREDRetriever(embedder=TextEmbedder(EmbedderConfig(dimensions=16)))
        restored.load(directory)
        assert restored.embedder.texts_embedded == 0  # nothing re-embedded on load

        actual_nlq = restored.retrieve_by_nlq_many(queries, top_k=10)
        actual_dvq = restored.retrieve_by_dvq_many(dvq_queries, top_k=10)
        for expected, actual in ((expected_nlq, actual_nlq), (expected_dvq, actual_dvq)):
            assert [[(h.key, h.score) for h in hits] for hits in actual] == [
                [(h.key, h.score) for h in hits] for hits in expected
            ]
        # payloads survive the JSON codec as real examples
        assert actual_nlq[0][0].payload == expected_nlq[0][0].payload

    def test_partitioned_snapshot_is_saved_trained(self, tmp_path):
        # prepare() saves before any search runs; the snapshot must still
        # carry the k-means structures so warm starts skip training too
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(
            backend="partitioned", num_partitions=8, nprobe=3,
            snapshot_path=str(tmp_path / "plib"),
        )
        GREDRetriever(index_config=config).prepare(dataset.train)
        restored = GREDRetriever(index_config=config)
        restored.prepare(dataset.train)
        assert restored.embedder.texts_embedded == 0
        assert isinstance(restored.nlq_store.index, PartitionedIndex)
        assert restored.nlq_store.index.is_trained  # no first-query k-means

    def test_retuning_nprobe_keeps_the_snapshot(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        path = str(tmp_path / "plib")
        GREDRetriever(
            index_config=IndexConfig(backend="partitioned", nprobe=4, snapshot_path=path)
        ).prepare(dataset.train)
        retuned = GREDRetriever(
            index_config=IndexConfig(backend="partitioned", nprobe=8, snapshot_path=path)
        )
        retuned.prepare(dataset.train)
        assert retuned.embedder.texts_embedded == 0  # search knob: no rebuild
        assert retuned.nlq_store.index.nprobe == 8  # current setting wins

    def test_embed_counter_is_exact_under_concurrency(self):
        embedder = TextEmbedder(EmbedderConfig(dimensions=16))
        BatchRunner(max_workers=8).map(
            [f"text {i}" for i in range(200)], embedder.embed
        )
        assert embedder.texts_embedded == 200

    def test_prepare_uses_snapshot_and_skips_embedding(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(snapshot_path=str(tmp_path / "lib"))
        GREDRetriever(index_config=config).prepare(dataset.train)

        fresh = GREDRetriever(index_config=config)
        fresh.prepare(dataset.train)
        assert fresh.embedder.texts_embedded == 0
        assert fresh.retrieve_by_nlq(dataset.test[0].nlq, top_k=5)

    def test_prepare_rebuilds_on_stale_snapshot(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(snapshot_path=str(tmp_path / "lib"))
        GREDRetriever(index_config=config).prepare(dataset.train[:30])

        fresh = GREDRetriever(index_config=config)
        fresh.prepare(dataset.train[:40])  # different corpus -> digest mismatch
        assert fresh.embedder.texts_embedded >= 80  # re-embedded both libraries

    def test_load_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="No retriever snapshot"):
            GREDRetriever().load(str(tmp_path / "nowhere"))
        with pytest.raises(SnapshotError, match="No index snapshot"):
            load_index(str(tmp_path / "nothing.npz"))

    def test_prepare_recovers_from_malformed_meta(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(snapshot_path=str(tmp_path / "lib"))
        retriever = GREDRetriever(index_config=config)
        retriever.prepare(dataset.train[:30])
        digest = retriever._corpus_digest(list(dataset.train[:30]))
        # valid JSON, matching digest, but a broken embedder block
        (tmp_path / "lib" / "meta.json").write_text(
            f'{{"digest": "{digest}", "embedder": null}}'
        )
        fresh = GREDRetriever(index_config=config)
        fresh.prepare(dataset.train[:30])  # must rebuild, not crash
        assert fresh.retrieve_by_nlq(dataset.test[0].nlq, top_k=3)

    def test_corrupt_snapshot_raises_snapshot_error(self, tmp_path):
        target = tmp_path / "broken.npz"
        target.write_bytes(b"not an npz archive")
        with pytest.raises(SnapshotError, match="Corrupt index snapshot"):
            load_index(str(target))

    def test_prepare_recovers_from_truncated_snapshot(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(snapshot_path=str(tmp_path / "lib"))
        GREDRetriever(index_config=config).prepare(dataset.train[:30])
        # simulate a crash mid-write: the archive exists but is garbage
        (tmp_path / "lib" / "nlq.npz").write_bytes(b"partial write")
        fresh = GREDRetriever(index_config=config)
        fresh.prepare(dataset.train[:30])  # must rebuild, not crash
        assert fresh.retrieve_by_nlq(dataset.test[0].nlq, top_k=3)

    def test_partitioned_round_trip_keeps_tuning_knobs(self, tmp_path):
        index = PartitionedIndex(
            num_partitions=6, nprobe=2, seed=99, kmeans_iterations=5, retrain_growth=0.1
        )
        rng = np.random.default_rng(71)
        rows = unit_rows(rng, 40, 16)
        index.add([f"k{i}" for i in range(40)], rows, list(range(40)))
        loaded, _, _ = load_index(save_index(index, str(tmp_path / "tuned")))
        assert isinstance(loaded, PartitionedIndex)
        assert loaded.seed == 99
        assert loaded.kmeans_iterations == 5
        assert loaded.retrain_growth == 0.1

    def test_payload_field_change_invalidates_snapshot(self, tmp_path):
        dataset = build_corpus(scale=0.05, seed=17)
        config = IndexConfig(snapshot_path=str(tmp_path / "lib"))
        GREDRetriever(index_config=config).prepare(dataset.train[:30])
        # same ids/nlqs/dvqs, different payload field (the nvBench-Rob path)
        renamed = [example.with_variant(db_id=f"{example.db_id}_rob")
                   for example in dataset.train[:30]]
        fresh = GREDRetriever(index_config=config)
        fresh.prepare(renamed)
        assert fresh.embedder.texts_embedded >= 60  # digest mismatch -> rebuilt
        hit = fresh.retrieve_by_nlq(renamed[0].nlq, top_k=1)[0]
        assert hit.payload.db_id.endswith("_rob")
