"""The embedding vector library and top-K retriever used by GRED."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.errors import not_fitted
from repro.embeddings.embedder import EmbedderConfig, TextEmbedder
from repro.embeddings.store import SearchHit, VectorStore
from repro.index import IndexConfig
from repro.nvbench.example import NVBenchExample


class GREDRetriever:
    """Holds two vector stores: one over training NLQs, one over training DVQs.

    :meth:`prepare` fits the shared embedder on the training corpus and
    bulk-loads both libraries (one batch embedding per store, performed lazily
    on first search).  At inference time :meth:`retrieve_by_nlq` serves the
    NLQ-Retrieval Generator and :meth:`retrieve_by_dvq` the DVQ-Retrieval
    Retuner; the ``*_many`` variants score a whole batch of queries in a
    single matrix multiplication for callers that collect their queries up
    front (the per-example pipeline stages issue single searches).

    The search backend is configurable through ``index_config`` (see
    :class:`~repro.index.IndexConfig`): exact brute-force scoring by default,
    or IVF-style partitioned search for large libraries.
    """

    def __init__(
        self,
        embedder: Optional[TextEmbedder] = None,
        dimensions: int = 512,
        index_config: Optional[IndexConfig] = None,
    ):
        self.embedder = embedder or TextEmbedder(EmbedderConfig(dimensions=dimensions))
        self.index_config = index_config or IndexConfig()
        self.nlq_store: Optional[VectorStore] = None
        self.dvq_store: Optional[VectorStore] = None

    def prepare(self, examples: Sequence[NVBenchExample], max_examples: Optional[int] = None) -> "GREDRetriever":
        """Embed the training examples into the NLQ and DVQ libraries."""
        examples = list(examples)
        if max_examples is not None:
            examples = examples[:max_examples]
        self.embedder.fit(
            [example.nlq for example in examples] + [example.dvq for example in examples]
        )
        self.nlq_store = VectorStore(self.embedder, config=self.index_config)
        self.dvq_store = VectorStore(self.embedder, config=self.index_config)
        self.nlq_store.add_many(
            (example.example_id, example.nlq, example) for example in examples
        )
        self.dvq_store.add_many(
            (example.example_id, example.dvq, example) for example in examples
        )
        return self

    # -- retrieval ---------------------------------------------------------

    def retrieve_by_nlq(self, nlq: str, top_k: int) -> List[SearchHit]:
        """Top-K training examples by question similarity (descending score)."""
        if self.nlq_store is None:
            raise not_fitted("GREDRetriever", "retrieve_by_nlq", preparer="prepare")
        return self.nlq_store.search(nlq, top_k=top_k)

    def retrieve_by_dvq(self, dvq: str, top_k: int) -> List[SearchHit]:
        """Top-K training examples by DVQ similarity (descending score)."""
        if self.dvq_store is None:
            raise not_fitted("GREDRetriever", "retrieve_by_dvq", preparer="prepare")
        return self.dvq_store.search(dvq, top_k=top_k)

    def retrieve_by_nlq_many(self, nlqs: Sequence[str], top_k: int) -> List[List[SearchHit]]:
        """Batched :meth:`retrieve_by_nlq`: one matmul scores every question."""
        if self.nlq_store is None:
            raise not_fitted("GREDRetriever", "retrieve_by_nlq_many", preparer="prepare")
        return self.nlq_store.search_many(nlqs, top_k=top_k)

    def retrieve_by_dvq_many(self, dvqs: Sequence[str], top_k: int) -> List[List[SearchHit]]:
        """Batched :meth:`retrieve_by_dvq`: one matmul scores every DVQ."""
        if self.dvq_store is None:
            raise not_fitted("GREDRetriever", "retrieve_by_dvq_many", preparer="prepare")
        return self.dvq_store.search_many(dvqs, top_k=top_k)
