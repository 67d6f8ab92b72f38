"""Pluggable vector indexes behind GRED's retrieval libraries.

The subsystem splits retrieval into an embedding boundary (owned by
:class:`~repro.embeddings.store.VectorStore`) and a storage/search layer — the
:class:`VectorIndex` protocol — with two backends:

* :class:`ExactIndex` — brute-force cosine top-K over the full library in one
  matrix multiplication (the historical behaviour);
* :class:`PartitionedIndex` — IVF-style coarse quantisation: seeded k-means
  centroids partition the library and each query probes only the ``nprobe``
  most similar partitions.

:class:`IndexConfig` selects and tunes the backend (:func:`build_index` is the
factory).  Libraries live in memory only: they are rebuilt from the
training split on every run.
"""

from repro.index.base import (
    EXACT,
    PARTITIONED,
    IndexConfig,
    SearchHit,
    VectorIndex,
    resolve_partition_count,
    select_top_k,
)
from repro.index.exact import ExactIndex
from repro.index.partitioned import PartitionedIndex


def build_index(config: IndexConfig) -> VectorIndex:
    """Instantiate the backend named by ``config``."""
    if config.backend == EXACT:
        return ExactIndex()
    if config.backend == PARTITIONED:
        return PartitionedIndex(
            num_partitions=config.num_partitions,
            nprobe=config.nprobe,
        )
    raise ValueError(
        f"Unknown index backend {config.backend!r} (expected {EXACT!r} or {PARTITIONED!r})"
    )


__all__ = [
    "EXACT",
    "PARTITIONED",
    "ExactIndex",
    "IndexConfig",
    "PartitionedIndex",
    "SearchHit",
    "VectorIndex",
    "build_index",
    "resolve_partition_count",
    "select_top_k",
]
