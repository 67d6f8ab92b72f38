"""Database annotation: the preparatory step feeding the debugger."""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.database.catalog import Catalog
from repro.database.database import Database
from repro.core.prompts import ANNOTATION_SYSTEM, make_annotation_prompt
from repro.llm.interface import ChatModel, CompletionParams


class DatabaseAnnotator:
    """Generates and caches natural-language annotations for databases.

    The cache is thread-safe so a caller's threads can share one annotator;
    the completion call runs outside the lock, so two threads racing on the
    same uncached database may both annotate it, but the result is
    deterministic and the second write is a no-op.
    """

    def __init__(self, llm: ChatModel, params: Optional[CompletionParams] = None):
        self.llm = llm
        self.params = params or CompletionParams()
        self._cache: Dict[str, str] = {}
        self._lock = threading.Lock()

    def annotate(self, database: Database) -> str:
        """The annotation text for ``database`` (computed once, then cached)."""
        key = database.name.lower()
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        prompt = make_annotation_prompt(database.schema)
        annotation = self.llm.complete_text(ANNOTATION_SYSTEM, prompt, params=self.params)
        with self._lock:
            return self._cache.setdefault(key, annotation)

    def annotate_catalog(self, catalog: Catalog) -> Dict[str, str]:
        """Annotate every database in a catalog, returning name -> annotation."""
        return {database.name: self.annotate(database) for database in catalog}

    def cached(self, database_name: str) -> Optional[str]:
        return self._cache.get(database_name.lower())

    def __len__(self) -> int:
        return len(self._cache)
