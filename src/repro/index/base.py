"""The vector-index contract shared by every retrieval backend.

A :class:`VectorIndex` is the storage-and-search half of a vector library: it
holds ``(key, vector, payload)`` triples and answers batched cosine top-K
queries.  Embedding text into vectors is *not* its job — that stays with
:class:`~repro.embeddings.store.VectorStore`, which owns the embedder and
delegates everything below the embedding boundary to a configured index.

Two backends implement the protocol (see :mod:`repro.index.exact` and
:mod:`repro.index.partitioned`); :func:`build_index` maps an
:class:`IndexConfig` to an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generic, List, Protocol, Sequence, TypeVar, runtime_checkable

import numpy as np

PayloadT = TypeVar("PayloadT")

#: Known backend names, in the order the docs present them.
EXACT, PARTITIONED = "exact", "partitioned"


@dataclass(frozen=True)
class IndexConfig:
    """Which retrieval backend to use and how to tune it.

    Attributes:
        backend: ``"exact"`` (brute-force matmul over the full library, the
            historical behaviour) or ``"partitioned"`` (IVF-style coarse
            quantisation: queries probe only the ``nprobe`` partitions whose
            centroids are most similar).
        num_partitions: partition count for the partitioned backend;
            ``0`` picks ``round(sqrt(n))`` from the library size at train
            time.
        nprobe: how many partitions each query scans.  Larger values trade
            throughput for recall; ``nprobe == num_partitions`` degenerates
            to exact search.
    """

    backend: str = EXACT
    num_partitions: int = 0
    nprobe: int = 8


@dataclass
class SearchHit(Generic[PayloadT]):
    """One retrieval result: the stored payload plus its similarity score."""

    key: str
    payload: PayloadT
    score: float


@runtime_checkable
class VectorIndex(Protocol):
    """Storage plus batched cosine top-K search over ``(key, vector, payload)``.

    Implementations must be append-only and thread-safe: concurrent ``add``
    and ``search_matrix`` calls may interleave, and every hit an in-flight
    search returns must be an internally consistent triple (the score pairs
    with the key's own vector and payload, never a neighbour's).
    """

    backend_name: str

    def __len__(self) -> int:
        ...  # pragma: no cover - protocol stub

    def add(self, keys: Sequence[str], vectors: np.ndarray, payloads: Sequence[Any]) -> None:
        ...  # pragma: no cover - protocol stub

    def search_matrix(self, queries: np.ndarray, top_k: int) -> List[List[SearchHit]]:
        ...  # pragma: no cover - protocol stub

    def snapshot(self) -> Any:
        """A consistent ``(matrix, keys, payloads)`` view of the library."""
        ...  # pragma: no cover - protocol stub


def select_top_k(scores: np.ndarray, keys: Sequence[str], top_k: int) -> List[int]:
    """Indices of the ``top_k`` best scores, with a deterministic tie-break.

    Uses ``np.partition`` to find the K-th score in O(n) and only sorts the
    survivors, instead of fully sorting the library on every query.  Equal
    scores are broken by ascending key, so the returned order does not depend
    on the platform's (unstable) sort or on how entries are sharded across
    partitions.
    """
    count = int(scores.shape[0])
    if top_k <= 0 or count == 0:
        return []
    top_k = min(top_k, count)
    if top_k == count:
        return sorted(range(count), key=lambda index: (-scores[index], keys[index]))
    kth = np.partition(scores, count - top_k)[count - top_k]
    above = np.flatnonzero(scores > kth)  # at most top_k - 1 entries
    ties = np.flatnonzero(scores == kth)
    needed = top_k - len(above)
    if len(ties) > needed:
        # a mass tie (e.g. a zero query vector scoring the whole library
        # equally) must not trigger a Python sort of every tied entry:
        # partition the tie block by key and keep only the smallest keys
        tie_keys = np.array([keys[index] for index in ties.tolist()])
        ties = ties[np.argpartition(tie_keys, needed - 1)[:needed]]
    candidates = np.concatenate([above, ties])
    return sorted(candidates.tolist(), key=lambda index: (-scores[index], keys[index]))


def resolve_partition_count(num_partitions: int, library_size: int) -> int:
    """The effective partition count: explicit, or ``round(sqrt(n))`` when 0."""
    if num_partitions > 0:
        return min(num_partitions, max(1, library_size))
    return int(np.clip(round(np.sqrt(max(1, library_size))), 1, 1024))
