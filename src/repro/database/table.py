"""Row-oriented in-memory table storage."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.database.schema import TableSchema
from repro.database.statistics import (
    ColumnStatistics,
    TableStatistics,
    fast_column_statistics,
)
from repro.database.typed import TypedColumn, build_typed_column

if TYPE_CHECKING:  # pragma: no cover - sampling imports Table for hints only
    from repro.database.sampling import TableSample


class Table:
    """A table: a schema plus a list of rows (dicts keyed by column name).

    Row dictionaries always use the schema's exact column names as keys; the
    accessors are case-insensitive so DVQs written with different casing still
    execute.
    """

    def __init__(self, schema: TableSchema, rows: Optional[Iterable[Dict[str, object]]] = None):
        self.schema = schema
        self._rows: List[Dict[str, object]] = []
        self._name_map = schema.lower_map()
        self._column_store: Optional[Dict[str, List[object]]] = None
        self._typed_store: Optional[Dict[str, TypedColumn]] = None
        self._column_statistics: Dict[str, ColumnStatistics] = {}
        self._statistics: Optional[TableStatistics] = None
        self._samples: Dict[
            Tuple[str, Optional[str], float, int], Optional["TableSample"]
        ] = {}
        # Guards cache build/invalidate: evaluation and fuzz threads sharing one
        # Table can otherwise race a half-built store against
        # refresh_columns()/insert().
        # Reentrant because typed_store() builds from column_store() under it.
        self._store_lock = threading.RLock()
        if rows is not None:
            for row in rows:
                self.insert(row)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> List[Dict[str, object]]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self._rows)

    def canonical_column(self, name: str) -> str:
        """Resolve ``name`` (any casing) to the schema's exact column name."""
        key = name.lower()
        if key not in self._name_map:
            raise KeyError(f"Table {self.name!r} has no column named {name!r}")
        return self._name_map[key]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._name_map

    def insert(self, row: Dict[str, object]) -> None:
        """Insert a row, normalising keys to schema column names.

        Missing columns are stored as ``None``; unknown keys raise ``KeyError``.
        """
        normalized: Dict[str, object] = {column.name: None for column in self.schema.columns}
        for key, value in row.items():
            normalized[self.canonical_column(key)] = value
        self._rows.append(normalized)
        with self._store_lock:
            self._column_store = None
            self._typed_store = None
            self._column_statistics.clear()
            self._statistics = None
            self._samples.clear()

    def extend(self, rows: Iterable[Dict[str, object]]) -> None:
        for row in rows:
            self.insert(row)

    def column_values(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        canonical = self.canonical_column(name)
        return [row[canonical] for row in self._rows]

    def column_store(self) -> Dict[str, List[object]]:
        """Columnar view of the table: ``{exact column name: values in row order}``.

        Built lazily on first use and cached; :meth:`insert` invalidates it.
        The columnar execution engine (:mod:`repro.executor.columnar`) scans
        these lists instead of iterating row dicts.  After mutating row values
        in place (rather than through :meth:`insert`), call
        :meth:`refresh_columns` — the same contract as
        :meth:`repro.sql.SQLiteBackend.refresh`.

        Build and invalidate are serialised by a lock so concurrent readers
        (evaluation and fuzz threads on a :class:`BatchRunner` sharing the
        table) never observe a half-built store; the returned dict is
        immutable by convention.
        """
        store = self._column_store
        if store is None:
            with self._store_lock:
                store = self._column_store
                if store is None:
                    store = {
                        column.name: [row[column.name] for row in self._rows]
                        for column in self.schema.columns
                    }
                    self._column_store = store
        return store

    def typed_store(self) -> Dict[str, TypedColumn]:
        """Typed NumPy view of the table: ``{exact column name: TypedColumn}``.

        The vectorized columnar kernels scan these arrays; per-column dtype
        inference (number / text / object fallback) happens once here and is
        cached under the same lock discipline as :meth:`column_store`.
        :meth:`insert` and :meth:`refresh_columns` invalidate it.
        """
        store = self._typed_store
        if store is None:
            with self._store_lock:
                store = self._typed_store
                if store is None:
                    lists = self.column_store()
                    store = {name: build_typed_column(values) for name, values in lists.items()}
                    self._typed_store = store
        return store

    def column_statistics(self, name: str) -> ColumnStatistics:
        """Optimizer statistics for one column, computed lazily and cached.

        Backed by :func:`repro.database.statistics.fast_column_statistics`
        (NumPy path for clean number columns, exact path otherwise), under
        the same lock discipline as :meth:`column_store`; :meth:`insert` and
        :meth:`refresh_columns` invalidate the cache.  Laziness matters: a
        query plan only pays for statistics on the columns it references.
        """
        canonical = self.canonical_column(name)
        cached = self._column_statistics.get(canonical)
        if cached is None:
            with self._store_lock:
                cached = self._column_statistics.get(canonical)
                if cached is None:
                    cached = fast_column_statistics(self, canonical)
                    self._column_statistics[canonical] = cached
        return cached

    def statistics(self) -> TableStatistics:
        """Full :class:`TableStatistics` (all columns), cached and
        insert-invalidated next to :meth:`column_store` / :meth:`typed_store`.

        Prefer :meth:`column_statistics` inside the optimizer — it only pays
        for referenced columns; this accessor summarises every column (each
        per-column summary lands in the shared cache either way).
        """
        stats = self._statistics
        if stats is None:
            with self._store_lock:
                stats = self._statistics
                if stats is None:
                    columns = {
                        column.name.lower(): self.column_statistics(column.name)
                        for column in self.schema.columns
                    }
                    stats = TableStatistics(
                        name=self.name, row_count=len(self._rows), columns=columns
                    )
                    self._statistics = stats
        return stats

    def sample(
        self,
        kind: str = "uniform",
        key: Optional[str] = None,
        fraction: float = 0.05,
        seed: int = 0,
    ) -> Optional["TableSample"]:
        """A precomputed seeded row sample (see :mod:`repro.database.sampling`).

        Cached by ``(kind, key, fraction, seed)`` under the store lock and
        invalidated by :meth:`insert` / :meth:`refresh_columns`, so the AQP
        path pays the permutation cost once per table per sample shape.
        Returns ``None`` when a keyed sample declines (too many strata); the
        decline is cached too.
        """
        from repro.database.sampling import build_table_sample

        canonical = self.canonical_column(key) if key is not None else None
        cache_key = (kind, canonical, fraction, seed)
        if cache_key not in self._samples:
            with self._store_lock:
                if cache_key not in self._samples:
                    self._samples[cache_key] = build_table_sample(
                        self, kind=kind, key=canonical, fraction=fraction, seed=seed
                    )
        return self._samples[cache_key]

    def refresh_columns(self) -> None:
        """Drop the cached columnar views (call after in-place row mutation)."""
        with self._store_lock:
            self._column_store = None
            self._typed_store = None
            self._column_statistics.clear()
            self._statistics = None
            self._samples.clear()

    def distinct_values(self, name: str) -> List[object]:
        """Distinct non-null values of a column, preserving first-seen order."""
        seen = set()
        values: List[object] = []
        for value in self.column_values(name):
            if value is None or value in seen:
                continue
            seen.add(value)
            values.append(value)
        return values

    def select_rows(self, columns: Sequence[str]) -> List[Dict[str, object]]:
        """Project rows onto ``columns`` (canonical names preserved)."""
        canonical = [self.canonical_column(column) for column in columns]
        return [{name: row[name] for name in canonical} for row in self._rows]

    def rename_columns(self, renames: Dict[str, str]) -> "Table":
        """Return a new table whose schema and rows use the renamed columns."""
        new_schema = self.schema.renamed(self.schema.name, renames)
        new_rows = []
        for row in self._rows:
            new_rows.append({renames.get(key, key): value for key, value in row.items()})
        return Table(new_schema, new_rows)
