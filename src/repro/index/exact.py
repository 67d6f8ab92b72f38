"""The exact (brute-force) backend: one matmul over the whole library.

This is the historical :class:`~repro.embeddings.store.VectorStore` search,
lifted below the embedding boundary.  The matrix grows incrementally —
:meth:`ExactIndex.add` appends pre-embedded rows — and a search scores every
row in a single ``(library, queries)`` matrix multiplication.
"""

from __future__ import annotations

import threading
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.index.base import EXACT, SearchHit, select_top_k


class ExactIndex:
    """Append-only flat index with exact cosine top-K.

    Storage is immutable-snapshot style: ``add`` swaps in extended tuples and
    a new matrix under the lock, and a search grabs one consistent
    ``(matrix, keys, payloads)`` triple before scoring.  Readers therefore
    never observe a half-updated library — the race where scores computed
    against an older matrix were paired with keys/payloads appended by a
    concurrent ``add`` cannot occur.
    """

    backend_name = EXACT

    def __init__(self) -> None:
        self._keys: Tuple[str, ...] = ()
        self._payloads: Tuple[Any, ...] = ()
        self._matrix: np.ndarray = np.zeros((0, 0))
        # re-entrant so subclasses can snapshot while holding the lock
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, keys: Sequence[str], vectors: np.ndarray, payloads: Sequence[Any]) -> None:
        """Append pre-embedded rows; ``vectors`` is ``(len(keys), dims)``."""
        if len(keys) != len(vectors) or len(keys) != len(payloads):
            raise ValueError(
                f"Mismatched batch: {len(keys)} keys, {len(vectors)} vectors, "
                f"{len(payloads)} payloads"
            )
        if not len(keys):
            return
        vectors = np.asarray(vectors)
        with self._lock:
            self._keys = self._keys + tuple(keys)
            self._payloads = self._payloads + tuple(payloads)
            matrix = self._matrix if self._matrix.size else None
            self._matrix = vectors if matrix is None else np.vstack([matrix, vectors])

    def snapshot(self) -> Tuple[np.ndarray, Tuple[str, ...], Tuple[Any, ...]]:
        """A consistent ``(matrix, keys, payloads)`` view of the library."""
        with self._lock:
            return self._matrix, self._keys, self._payloads

    def search_matrix(self, queries: np.ndarray, top_k: int) -> List[List[SearchHit]]:
        """Top-K hits for each row of ``queries``, scored in one matmul."""
        matrix, keys, payloads = self.snapshot()
        if not len(keys) or top_k <= 0:
            return [[] for _ in range(len(queries))]
        scores = matrix @ np.asarray(queries).T  # (library, queries)
        results: List[List[SearchHit]] = []
        for column in range(scores.shape[1]):
            column_scores = scores[:, column]
            results.append(
                [
                    SearchHit(key=keys[index], payload=payloads[index], score=float(column_scores[index]))
                    for index in select_top_k(column_scores, keys, top_k)
                ]
            )
        return results
