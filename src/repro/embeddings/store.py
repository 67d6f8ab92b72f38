"""The vector library facade: lazy batch embedding over a pluggable index.

This is GRED's "embedding vector library": during the preparatory phase every
training NLQ and DVQ is embedded and inserted with its payload (the full
training example); at inference time the generator and retuner issue top-K
queries against it.

:class:`VectorStore` owns the *embedding boundary* — entries added since the
last search are embedded in one ``embed_batch`` call — and delegates storage
and search to a :class:`~repro.index.VectorIndex` backend selected by an
:class:`~repro.index.IndexConfig`: exact brute-force search (the default, and
the historical behaviour) or IVF-style partitioned search for large
libraries.
"""

from __future__ import annotations

import threading
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.embeddings.embedder import TextEmbedder
from repro.index import IndexConfig, SearchHit, build_index

PayloadT = TypeVar("PayloadT")

__all__ = ["SearchHit", "VectorStore"]


class VectorStore(Generic[PayloadT]):
    """An append-only store of ``(key, text, payload)`` triples with cosine search.

    Embedding is lazy and incremental: :meth:`add` and :meth:`add_many` only
    record the entry; the next search embeds every not-yet-indexed text in one
    ``embed_batch`` call and hands the rows to the index backend.  Adding N
    entries therefore costs one batch embedding, not N rebuilds of the full
    library.  Searches are thread-safe — the index backends snapshot their
    storage under a lock, so a search interleaved with concurrent ``add``
    calls always pairs every score with that entry's own key and payload —
    which lets a caller's threads issue queries against one shared store.

    Args:
        embedder: the text embedder shared with the caller (queries and
            library entries must embed in the same space).
        config: backend selection and tuning; ``None`` means exact search.
    """

    def __init__(self, embedder: TextEmbedder, config: Optional[IndexConfig] = None):
        self.embedder = embedder
        self.index = build_index(config or IndexConfig())
        self._pending: List[Tuple[str, str, PayloadT]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self.index) + len(self._pending)

    @property
    def pending(self) -> int:
        """Entries added since the last (re)index, awaiting batch embedding."""
        with self._lock:
            return len(self._pending)

    def add(self, key: str, text: str, payload: PayloadT) -> None:
        """Add one entry; it is embedded lazily on the next search."""
        with self._lock:
            self._pending.append((key, text, payload))

    def add_many(self, entries: Iterable[Tuple[str, str, PayloadT]]) -> None:
        """Add ``(key, text, payload)`` triples in bulk from any iterable.

        All new texts are embedded together in a single batch call on the next
        search, so bulk-loading a library costs one ``embed_batch`` instead of
        per-entry work.
        """
        with self._lock:
            for key, text, payload in entries:
                self._pending.append((key, text, payload))

    def flush(self) -> None:
        """Embed pending entries (one batch) and push them into the index."""
        with self._lock:
            if not self._pending:
                return
            keys = [key for key, _, _ in self._pending]
            texts = [text for _, text, _ in self._pending]
            payloads = [payload for _, _, payload in self._pending]
            self.index.add(keys, self.embedder.embed_batch(texts), payloads)
            self._pending = []

    def search(self, query: str, top_k: int = 10) -> List[SearchHit[PayloadT]]:
        """Return the ``top_k`` most similar entries to ``query`` (descending score)."""
        if not len(self) or top_k <= 0:
            return []
        self.flush()
        return self.index.search_matrix(self.embedder.embed(query)[None, :], top_k)[0]

    def search_many(
        self, queries: Sequence[str], top_k: int = 10
    ) -> List[List[SearchHit[PayloadT]]]:
        """Top-K results for every query, scored as one batch.

        Equivalent to ``[store.search(q, top_k) for q in queries]`` but embeds
        the queries in one batch and scores them together (for the exact
        backend a single ``(library, queries)`` matmul; for the partitioned
        backend one fan-out over the probed partitions).
        """
        if not queries:
            return []
        if not len(self) or top_k <= 0:
            return [[] for _ in queries]
        self.flush()
        return self.index.search_matrix(self.embedder.embed_batch(list(queries)), top_k)
