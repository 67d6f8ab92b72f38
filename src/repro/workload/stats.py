"""Re-export shim: the statistics collectors moved into the engine.

The workload generator was the first consumer of per-column statistics; the
cost model is the second, so the dataclasses and collectors now
live in :mod:`repro.database.statistics` (next to the column stores they
summarise) and this module keeps the historical import path working.

The generator keeps using the *exact* collectors re-exported here: they
preserve Python value types (an int MCV stays an int), and generated
predicate literals are serialised into query text, so value types affect
corpus determinism.  The engine-side cached variant is
:meth:`repro.database.table.Table.statistics`.
"""

from __future__ import annotations

from repro.database.statistics import (
    DEFAULT_BINS,
    DEFAULT_MCV,
    ColumnStatistics,
    TableStatistics,
    collect_column_statistics,
    collect_database_statistics,
    collect_table_statistics,
)

__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_MCV",
    "ColumnStatistics",
    "TableStatistics",
    "collect_column_statistics",
    "collect_database_statistics",
    "collect_table_statistics",
]
