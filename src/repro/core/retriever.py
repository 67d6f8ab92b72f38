"""The embedding vector library and top-K retriever used by GRED."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro.core.errors import not_fitted
from repro.embeddings.embedder import EmbedderConfig, TextEmbedder
from repro.embeddings.store import SearchHit, VectorStore
from repro.index import IndexConfig
from repro.index.snapshot import SnapshotError
from repro.nvbench.example import NVBenchExample

#: File names inside a retriever snapshot directory.
_META_FILE, _NLQ_FILE, _DVQ_FILE = "meta.json", "nlq.npz", "dvq.npz"


class NVBenchExampleCodec:
    """Payload codec crossing the snapshot boundary without pickling."""

    def encode(self, payload: NVBenchExample) -> Dict[str, object]:
        return payload.to_dict()

    def decode(self, data: Dict[str, object]) -> NVBenchExample:
        return NVBenchExample.from_dict(data)


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
    or IVF-style partitioned search for large libraries.  With
    ``index_config.snapshot_path`` set, :meth:`prepare` persists both
    libraries (plus the fitted embedder) after building them and — on the
    next run against the same corpus — restores everything from disk instead
    of re-embedding, verified by a corpus digest.
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

    def _corpus_digest(self, examples: Sequence[NVBenchExample]) -> str:
        """Fingerprint of everything that shapes the libraries' contents."""
        hasher = hashlib.sha1()
        config = self.embedder.config
        # nprobe is deliberately absent: it is a pure search-time knob,
        # overridden on load, so retuning it must not re-embed the corpus
        header = (
            f"v1|{config.dimensions}|{config.char_n}|{config.use_words}|{config.seed}"
            f"|{self.index_config.backend}|{self.index_config.num_partitions}"
        )
        hasher.update(header.encode("utf-8"))
        for example in examples:
            # the full record: payloads (db_id, chart_type, hardness, meta)
            # are served back from the snapshot, so any field change must
            # invalidate it, not just the embedded texts
            hasher.update(b"\x1e")
            hasher.update(json.dumps(example.to_dict(), sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()

    def prepare(self, examples: Sequence[NVBenchExample], max_examples: Optional[int] = None) -> "GREDRetriever":
        """Embed the training examples into the NLQ and DVQ libraries.

        With a configured ``snapshot_path`` this first tries to restore a
        snapshot of the same corpus (skipping embedding entirely) and, when
        none matches, persists the freshly built libraries for the next run.
        """
        examples = list(examples)
        if max_examples is not None:
            examples = examples[:max_examples]
        snapshot_path = self.index_config.snapshot_path
        digest = self._corpus_digest(examples) if snapshot_path else None
        if snapshot_path and self.try_load(snapshot_path, expected_digest=digest):
            return self
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
        if snapshot_path:
            self.save(snapshot_path, digest=digest)
        return self

    # -- persistence -------------------------------------------------------

    def save(self, directory: str, digest: Optional[str] = None) -> str:
        """Persist both libraries and the fitted embedder under ``directory``."""
        if self.nlq_store is None or self.dvq_store is None:
            raise not_fitted("GREDRetriever", "save", preparer="prepare")
        os.makedirs(directory, exist_ok=True)
        codec = NVBenchExampleCodec()
        self.nlq_store.save(os.path.join(directory, _NLQ_FILE), codec=codec)
        self.dvq_store.save(os.path.join(directory, _DVQ_FILE), codec=codec)
        meta = {"digest": digest, "embedder": self.embedder.to_state()}
        with open(os.path.join(directory, _META_FILE), "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        return directory

    def _read_meta(self, directory: str) -> Dict[str, object]:
        """Parse the snapshot's ``meta.json`` (raises ``SnapshotError``)."""
        meta_path = os.path.join(directory, _META_FILE)
        if not os.path.exists(meta_path):
            raise SnapshotError(f"No retriever snapshot at {directory}")
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise SnapshotError(f"Corrupt retriever snapshot at {directory}: {error}") from error
        if not isinstance(meta, dict):
            raise SnapshotError(f"Corrupt retriever snapshot at {directory}: meta is not an object")
        return meta

    def _load_with_meta(self, directory: str, meta: Dict[str, object]) -> "GREDRetriever":
        """Restore libraries and embedder from an already-parsed ``meta``."""
        state = meta.get("embedder")
        if not isinstance(state, dict):
            raise SnapshotError(
                f"Corrupt retriever snapshot at {directory}: missing embedder state"
            )
        try:
            embedder = TextEmbedder.from_state(state)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            # malformed-but-parseable meta must stay a snapshot problem, so
            # best-effort loaders rebuild instead of crashing
            raise SnapshotError(f"Corrupt retriever snapshot at {directory}: {error}") from error
        codec = NVBenchExampleCodec()
        nlq_store = VectorStore.load(os.path.join(directory, _NLQ_FILE), embedder, codec=codec)
        dvq_store = VectorStore.load(os.path.join(directory, _DVQ_FILE), embedder, codec=codec)
        for store in (nlq_store, dvq_store):
            if hasattr(store.index, "nprobe"):
                # search-time knob: the caller's current setting wins over
                # whatever the snapshot was written with
                store.index.nprobe = self.index_config.nprobe
        self.embedder = embedder
        self.nlq_store = nlq_store
        self.dvq_store = dvq_store
        return self

    def load(self, directory: str) -> "GREDRetriever":
        """Restore libraries and embedder from :meth:`save` output.

        The restored embedder replaces :attr:`embedder` (carrying the fitted
        IDF weights), so query-time scores are bit-identical to the run that
        wrote the snapshot.  Raises :class:`~repro.index.SnapshotError` when
        the directory is missing or malformed.
        """
        return self._load_with_meta(directory, self._read_meta(directory))

    def try_load(self, directory: str, expected_digest: Optional[str] = None) -> bool:
        """Best-effort :meth:`load`: False on a missing, corrupt or stale snapshot."""
        try:
            meta = self._read_meta(directory)
            if expected_digest is not None and meta.get("digest") != expected_digest:
                return False
            self._load_with_meta(directory, meta)
        except SnapshotError:
            return False
        return True

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
