"""Choosing a retrieval backend: exact vs partitioned search.

Demonstrates the pluggable vector-index subsystem added in `repro.index`:

1. build the same library on both backends (`ExactIndex` is the brute-force
   oracle, `PartitionedIndex` probes a few k-means partitions) and compare
   their answers;
2. measure the recall/latency trade-off as `nprobe` varies on a larger
   library.

Run with:  PYTHONPATH=src python examples/index_backends.py
"""

import time

import numpy as np

from repro.embeddings import EmbedderConfig, TextEmbedder, VectorStore
from repro.index import ExactIndex, IndexConfig, PartitionedIndex


def clustered_library(count, dims=64, clusters=128, noise=0.15, seed=42):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dims))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = centers[rng.integers(0, clusters, size=count)] + noise * rng.normal(size=(count, dims))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    queries = centers[rng.integers(0, clusters, size=200)] + noise * rng.normal(size=(200, dims))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return rows, queries


def main():
    # 1. both backends answer the same question on a small text library
    store = VectorStore(TextEmbedder(EmbedderConfig(dimensions=128)))
    partitioned_store = VectorStore(
        TextEmbedder(EmbedderConfig(dimensions=128)),
        config=IndexConfig(backend="partitioned", num_partitions=4, nprobe=4),
    )
    entries = [
        (f"q{i}", text, i)
        for i, text in enumerate(
            [
                "average salary per department",
                "number of pets per student",
                "capacity of each cinema by year",
                "total budget for every project",
                "mean wage of the staff by city",
                "count of flights per airline",
            ]
        )
    ]
    store.add_many(entries)
    partitioned_store.add_many(entries)
    for name, s in (("exact", store), ("partitioned", partitioned_store)):
        hits = s.search("mean salary for every department", top_k=2)
        print(f"{name:<12} top-2: {[(hit.key, round(hit.score, 3)) for hit in hits]}")

    # 2. why the partitioned backend exists: the recall/latency trade-off
    rows, queries = clustered_library(count=20_000)
    keys = [f"e{i:06d}" for i in range(len(rows))]
    exact = ExactIndex()
    exact.add(keys, rows, list(range(len(rows))))
    started = time.perf_counter()
    truth = exact.search_matrix(queries, 5)
    exact_seconds = time.perf_counter() - started
    print(f"\n20k-entry library, 200 queries — exact scan: {exact_seconds * 1e3:.0f} ms")
    for nprobe in (4, 8, 16):
        index = PartitionedIndex(num_partitions=64, nprobe=nprobe)
        index.add(keys, rows, list(range(len(rows))))
        index.search_matrix(queries[:1], 5)  # train the partitions
        started = time.perf_counter()
        approx = index.search_matrix(queries, 5)
        seconds = time.perf_counter() - started
        recall = np.mean(
            [len({h.key for h in t} & {h.key for h in a}) / 5 for t, a in zip(truth, approx)]
        )
        print(
            f"  nprobe={nprobe:>2}/64: {seconds * 1e3:5.0f} ms "
            f"({exact_seconds / seconds:4.1f}x) recall@5 {recall:.3f}"
        )


if __name__ == "__main__":
    main()
