"""The partitioned (IVF-style) backend: probe a few k-means partitions.

The library is coarsely quantised with spherical k-means: every vector is
assigned to its most similar centroid, and a query only scores the
``nprobe`` partitions whose centroids it is closest to — a scan of roughly
``nprobe / num_partitions`` of the library instead of all of it.  Partitions
are scored one after another on the calling thread (partition scoring is
GIL-bound Python, so a thread fan-out measured slower than this loop), and
per-partition candidates are merged with the same deterministic tie-break as
the exact backend.

Entries added after the last training round land in an *unpartitioned tail*
that every query scans exactly; the index retrains (one seeded k-means over
the grown library) once the tail outgrows ``retrain_growth`` of the trained
rows, keeping incremental adds cheap without letting recall decay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.index.base import PARTITIONED, SearchHit, resolve_partition_count, select_top_k
from repro.index.exact import ExactIndex


class PartitionedIndex(ExactIndex):
    """IVF-style index: k-means coarse centroids plus an exact tail.

    Args:
        num_partitions: partition count (``0`` = ``round(sqrt(n))`` at train
            time).
        nprobe: partitions scanned per query; clamped to the partition count.
        seed: k-means seed (centroid init is deterministic given the library).
        kmeans_iterations: Lloyd iteration cap (stops early on convergence).
        retrain_growth: retrain when the unpartitioned tail exceeds this
            fraction of the trained rows.
    """

    backend_name = PARTITIONED

    def __init__(
        self,
        num_partitions: int = 0,
        nprobe: int = 8,
        seed: int = 13,
        kmeans_iterations: int = 8,
        retrain_growth: float = 0.5,
    ) -> None:
        super().__init__()
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.num_partitions = num_partitions
        self.nprobe = nprobe
        self.seed = seed
        self.kmeans_iterations = kmeans_iterations
        self.retrain_growth = retrain_growth
        self._centroids: Optional[np.ndarray] = None
        self._partition_rows: List[np.ndarray] = []  # global row ids per partition
        self._partition_matrices: List[np.ndarray] = []
        self._partition_keys: List[Tuple[str, ...]] = []
        self._trained_rows = 0

    # -- training ----------------------------------------------------------

    def _needs_training(self, total: int) -> bool:
        partitions = resolve_partition_count(self.num_partitions, total)
        if total < 2 * partitions:
            return False  # too small to be worth partitioning; scan exactly
        if self._centroids is None:
            return True
        tail = total - self._trained_rows
        return tail > max(1.0, self._trained_rows * self.retrain_growth)

    def _kmeans(self, matrix: np.ndarray, partitions: int) -> np.ndarray:
        """Seeded spherical k-means; returns the ``(partitions, dims)`` centroids."""
        rng = np.random.default_rng(self.seed)
        initial = rng.choice(len(matrix), size=partitions, replace=False)
        centroids = matrix[np.sort(initial)].copy()
        assignment = np.full(len(matrix), -1)
        for _ in range(self.kmeans_iterations):
            new_assignment = np.argmax(matrix @ centroids.T, axis=1)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignment, matrix)
            norms = np.linalg.norm(sums, axis=1)
            populated = norms > 0
            centroids[populated] = sums[populated] / norms[populated, None]
            # empty partitions keep their previous centroid (deterministic)
        return centroids

    def _train_locked(self) -> None:
        """(Re)build centroids and partition slices; caller holds the lock.

        Only *populated* partitions are kept: k-means can leave a centroid
        with no members (its stale position is retained during iteration),
        and probing such a partition would waste one of the query's
        ``nprobe`` slots — or return zero hits at ``nprobe=1``.
        """
        matrix, keys, _ = self._matrix, self._keys, self._payloads
        partitions = resolve_partition_count(self.num_partitions, len(matrix))
        centroids = self._kmeans(matrix, partitions)
        assignment = np.argmax(matrix @ centroids.T, axis=1)
        self._partition_rows = []
        self._partition_matrices = []
        self._partition_keys = []
        populated = []
        for partition in range(partitions):
            rows = np.flatnonzero(assignment == partition)
            if not len(rows):
                continue
            populated.append(partition)
            self._partition_rows.append(rows)
            self._partition_matrices.append(matrix[rows])
            self._partition_keys.append(tuple(keys[row] for row in rows))
        self._centroids = centroids[populated]
        self._trained_rows = len(matrix)

    def _search_snapshot(self):
        """A consistent search-time view, retraining first when stale."""
        with self._lock:
            if self._needs_training(len(self._keys)):
                self._train_locked()
            return (
                self._matrix,
                self._keys,
                self._payloads,
                self._centroids,
                list(self._partition_rows),
                list(self._partition_matrices),
                list(self._partition_keys),
                self._trained_rows,
            )

    # -- search ------------------------------------------------------------

    def search_matrix(self, queries: np.ndarray, top_k: int) -> List[List[SearchHit]]:
        matrix, keys, payloads, centroids, rows, mats, part_keys, trained = self._search_snapshot()
        queries = np.asarray(queries)
        if not len(keys) or top_k <= 0:
            return [[] for _ in range(len(queries))]
        if centroids is None:
            return ExactIndex.search_matrix(self, queries, top_k)

        nprobe = min(self.nprobe, len(centroids))
        centroid_scores = queries @ centroids.T  # (queries, partitions)
        # stable sort: equal centroid scores probe the lower partition id
        probed = np.argsort(-centroid_scores, axis=1, kind="stable")[:, :nprobe]

        by_partition: Dict[int, List[int]] = {}
        for query_index, partitions in enumerate(probed):
            for partition in partitions:
                by_partition.setdefault(int(partition), []).append(query_index)

        candidates: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(len(queries))]
        # local top-K candidates of each probed partition, in partition order
        for partition in sorted(by_partition):
            query_indices = by_partition[partition]
            local = mats[partition] @ queries[query_indices].T  # (rows, queries)
            for column, query_index in enumerate(query_indices):
                scores = local[:, column]
                picks = select_top_k(scores, part_keys[partition], top_k)
                candidates[query_index].append((rows[partition][picks], scores[picks]))
        if trained < len(keys):  # the unpartitioned tail, scanned exactly
            tail_rows = np.arange(trained, len(keys))
            tail_keys = keys[trained:]
            tail_scores = matrix[trained:] @ queries.T
            for query_index in range(len(queries)):
                scores = tail_scores[:, query_index]
                # pre-reduce like the partitions do: the tail can hold up to
                # retrain_growth of the library, too big to merge wholesale
                picks = select_top_k(scores, tail_keys, top_k)
                candidates[query_index].append((tail_rows[picks], scores[picks]))

        results: List[List[SearchHit]] = []
        for query_index in range(len(queries)):
            merged = candidates[query_index]
            global_rows = np.concatenate([rows_ for rows_, _ in merged])
            scores = np.concatenate([scores_ for _, scores_ in merged])
            merged_keys = [keys[row] for row in global_rows]
            results.append(
                [
                    SearchHit(
                        key=keys[global_rows[pick]],
                        payload=payloads[global_rows[pick]],
                        score=float(scores[pick]),
                    )
                    for pick in select_top_k(scores, merged_keys, top_k)
                ]
            )
        return results

    # -- introspection ------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def partition_sizes(self) -> List[int]:
        with self._lock:
            return [len(rows) for rows in self._partition_rows]
