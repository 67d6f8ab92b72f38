"""Index throughput — partitioned (IVF-style) vs exact search at scale.

This benchmark is the perf gate for the :mod:`repro.index` subsystem, on a
~50k-entry clustered library (synthetic unit vectors; text embeddings cluster
the same way by domain):

1. **Recall** — probing ``nprobe`` of the k-means partitions must find at
   least 95% of the exact top-5 neighbours;
2. **Throughput** — batched partitioned search must answer queries at >=
   ``MIN_SPEEDUP`` x the exact backend's rate (measured ~6x with
   ``nprobe/num_partitions`` = 16/128, partitions scored serially);
3. **Real corpus** — the recall/latency trade-off is reported on the
   nvBench corpus via the workbench ablation.

CI runs the correctness half only (``make bench-index-check``, which skips
the timing test); the timing bar stays local / ``make bench-index`` where the
hardware is not shared.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.index import ExactIndex, PartitionedIndex

pytestmark = pytest.mark.index

LIBRARY_SIZE = 50_000
DIMENSIONS = 64
CLUSTERS = 256
QUERY_COUNT = 256
TOP_K = 5
NUM_PARTITIONS = 128
NPROBE = 16

#: Measured ~6-7x on a quiet multi-core machine; a throttled single-core CI
#: box reaches 2.6-3.0x (sustained load lowers the clock), so the asserted
#: bar sits below the knife edge while still requiring a substantial win over
#: brute force.
MIN_SPEEDUP = 2.5
MIN_RECALL = 0.95


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def library():
    """A clustered ~50k vector library, its queries, and both backends."""
    rng = np.random.default_rng(97)
    centers = _unit(rng.normal(size=(CLUSTERS, DIMENSIONS)))
    assignment = rng.integers(0, CLUSTERS, size=LIBRARY_SIZE)
    rows = _unit(centers[assignment] + 0.15 * rng.normal(size=(LIBRARY_SIZE, DIMENSIONS)))
    queries = _unit(
        centers[rng.integers(0, CLUSTERS, size=QUERY_COUNT)]
        + 0.15 * rng.normal(size=(QUERY_COUNT, DIMENSIONS))
    )
    keys = [f"e{i:06d}" for i in range(LIBRARY_SIZE)]
    payloads = list(range(LIBRARY_SIZE))

    exact = ExactIndex()
    exact.add(keys, rows, payloads)
    partitioned = PartitionedIndex(num_partitions=NUM_PARTITIONS, nprobe=NPROBE)
    partitioned.add(keys, rows, payloads)
    partitioned.search_matrix(queries[:1], TOP_K)  # pay k-means training up front
    return exact, partitioned, queries


def _recall(truth, approx) -> float:
    overlaps = [
        len({hit.key for hit in t} & {hit.key for hit in a}) / max(1, len(t))
        for t, a in zip(truth, approx)
    ]
    return sum(overlaps) / len(overlaps)


def test_partitioned_recall_at_5(library):
    exact, partitioned, queries = library
    recall = _recall(
        exact.search_matrix(queries, TOP_K), partitioned.search_matrix(queries, TOP_K)
    )
    print(
        f"\nrecall@{TOP_K} of partitioned ({NPROBE}/{NUM_PARTITIONS} partitions probed) "
        f"vs exact over {QUERY_COUNT} queries: {recall:.3f}"
    )
    assert recall >= MIN_RECALL, f"recall@{TOP_K} {recall:.3f} below {MIN_RECALL}"


def test_partitioned_throughput_vs_exact(library, bench_report):
    exact, partitioned, queries = library
    exact.search_matrix(queries[:8], TOP_K)  # warm both paths
    partitioned.search_matrix(queries[:8], TOP_K)

    # best-of-3 per side: one slow pass (a GC pause, a frequency dip on a
    # shared box) must not decide the bar
    exact_seconds = float("inf")
    partitioned_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        truth = exact.search_matrix(queries, TOP_K)
        exact_seconds = min(exact_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        approx = partitioned.search_matrix(queries, TOP_K)
        partitioned_seconds = min(partitioned_seconds, time.perf_counter() - started)

    speedup = exact_seconds / partitioned_seconds
    recall = _recall(truth, approx)
    print(
        f"\nindex throughput over a {LIBRARY_SIZE:,}-entry library, {QUERY_COUNT} queries:\n"
        f"  exact:       {exact_seconds:.3f}s ({QUERY_COUNT / exact_seconds:,.0f} q/s)\n"
        f"  partitioned: {partitioned_seconds:.3f}s "
        f"({QUERY_COUNT / partitioned_seconds:,.0f} q/s)\n"
        f"  speedup: {speedup:.1f}x at recall@{TOP_K} {recall:.3f}"
    )
    bench_report(
        speedup=speedup,
        rows=LIBRARY_SIZE,
        queries=QUERY_COUNT,
        recall=recall,
        timings={"exact": exact_seconds, "partitioned": partitioned_seconds},
    )
    # the acceptance bar: a solid throughput win without giving up recall
    assert recall >= MIN_RECALL
    assert speedup >= MIN_SPEEDUP, f"partitioned only {speedup:.2f}x faster than exact"


def test_workbench_index_ablation_on_real_corpus(workbench):
    """Exact vs partitioned on the actual nvBench corpus: recall holds."""
    report = workbench.index_ablation(nprobe=4, query_limit=100)
    print(
        f"\nworkbench index ablation ({report['library_size']} entries, "
        f"{report['query_count']} queries, nprobe={report['nprobe']}):\n"
        f"  recall@{report['top_k']}: {report['recall']:.3f}\n"
        f"  exact {report['exact_seconds'] * 1e3:.1f} ms vs partitioned "
        f"{report['partitioned_seconds'] * 1e3:.1f} ms"
    )
    assert report["recall"] >= 0.9
