"""Text embeddings and vector retrieval.

GRED's preparatory phase converts every training NLQ and DVQ into an embedding
vector with OpenAI's ``text-embedding-3-large`` and retrieves the top-K most
similar examples by cosine similarity.  This package provides the offline
substitute: a deterministic hashed word/character n-gram TF-IDF embedder and a
:class:`VectorStore` facade that embeds lazily in batches and searches through
a pluggable :mod:`repro.index` backend (exact or IVF-style partitioned).
"""

from repro.embeddings.tokenization import char_ngrams, word_tokens
from repro.embeddings.embedder import EmbedderConfig, TextEmbedder
from repro.embeddings.store import SearchHit, VectorStore
from repro.index import IndexConfig

__all__ = [
    "EmbedderConfig",
    "IndexConfig",
    "SearchHit",
    "TextEmbedder",
    "VectorStore",
    "char_ngrams",
    "word_tokens",
]
