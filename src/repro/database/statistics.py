"""Table statistics: row/null counts, NDV, histograms and MCVs per column.

These are the classic summaries cardinality estimation needs — row and null
counts, number of distinct values (NDV), min/max, an equi-depth histogram and
a small most-common-values (MCV) list per column.  They started life in
:mod:`repro.workload.stats` driving the workload generator; the cost model
(:mod:`repro.plan.cost`) now consumes the same summaries, so the collectors
live here in the engine and the workload module re-exports them.

Two collectors share the :class:`ColumnStatistics` shape:

* :func:`collect_column_statistics` — the exact object-path collector.  It
  preserves Python value types (an int MCV stays an int), which the workload
  generator depends on: generated predicate literals are serialised into
  query text, so ``5`` vs ``5.0`` would change corpus determinism.
* :func:`fast_column_statistics` — the engine-side collector behind
  :meth:`repro.database.table.Table.statistics`.  Clean number columns take a
  NumPy path over the typed store (values surface as floats — fine for
  estimation, never for query text); everything else falls back to the exact
  collector.

Statistics are plain frozen dataclasses so they serialise cleanly into fuzz
reports and test fixtures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.database.schema import ColumnType
from repro.database.typed import KIND_NUMBER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table imports us)
    from repro.database.database import Database
    from repro.database.table import Table

#: Histogram / MCV sizing defaults: small enough to be negligible to compute
#: at the 1M-row tier, rich enough to drive selective predicates.
DEFAULT_BINS = 8
DEFAULT_MCV = 5


@dataclass(frozen=True)
class ColumnStatistics:
    """Summaries of one column's value distribution.

    Attributes:
        name: canonical column name.
        ctype: the column's logical type.
        row_count: number of rows (including nulls).
        null_count: number of NULL values.
        ndv: number of distinct non-null values.
        minimum / maximum: extrema over non-null values (None when empty).
        histogram: equi-depth bin edges over the sorted non-null values —
            ``len(histogram)`` is ``bins + 1`` when enough values exist.
            Quantile edges make good range-predicate endpoints: a BETWEEN
            over two adjacent edges selects ~1/bins of the rows.
        most_common: up to ``mcv`` ``(value, count)`` pairs, descending by
            count — equality predicates on these have predictable, non-empty
            selectivity.
    """

    name: str
    ctype: ColumnType
    row_count: int
    null_count: int
    ndv: int
    minimum: Optional[object] = None
    maximum: Optional[object] = None
    histogram: Tuple[object, ...] = ()
    most_common: Tuple[Tuple[object, int], ...] = ()

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    @property
    def value_range(self) -> Optional[float]:
        """max - min for numeric columns (None otherwise / when empty)."""
        if self.ctype is not ColumnType.NUMBER:
            return None
        if self.minimum is None or self.maximum is None:
            return None
        return float(self.maximum) - float(self.minimum)


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics for one table."""

    name: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name.lower()]


def collect_column_statistics(
    table: "Table",
    column_name: str,
    bins: int = DEFAULT_BINS,
    mcv: int = DEFAULT_MCV,
) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for one column with a single scan."""
    canonical = table.canonical_column(column_name)
    ctype = next(c.ctype for c in table.schema.columns if c.name == canonical)
    values = table.column_values(canonical)
    non_null = [value for value in values if value is not None]
    counts = Counter(non_null)
    ordered = sorted(counts)
    histogram: Tuple[object, ...] = ()
    if len(ordered) >= 2:
        # equi-depth edges over the sorted multiset: walk the distinct values
        # in order, cutting every len/bins occurrences
        sorted_values = sorted(non_null)
        step = max(len(sorted_values) // bins, 1)
        edges = [sorted_values[0]]
        for position in range(step, len(sorted_values), step):
            edge = sorted_values[position]
            if edge != edges[-1]:
                edges.append(edge)
        if sorted_values[-1] != edges[-1]:
            edges.append(sorted_values[-1])
        histogram = tuple(edges)
    return ColumnStatistics(
        name=canonical,
        ctype=ctype,
        row_count=len(values),
        null_count=len(values) - len(non_null),
        ndv=len(counts),
        minimum=ordered[0] if ordered else None,
        maximum=ordered[-1] if ordered else None,
        histogram=histogram,
        most_common=tuple(counts.most_common(mcv)),
    )


def fast_column_statistics(
    table: "Table",
    column_name: str,
    bins: int = DEFAULT_BINS,
    mcv: int = DEFAULT_MCV,
) -> ColumnStatistics:
    """Engine-side collector: NumPy fast path over the typed store.

    Clean number columns (no NaN) are summarised from the float64 shadow
    array — sort + ``np.unique`` instead of a Python ``Counter`` — which is
    what makes per-column statistics affordable at the 1M-row tier.  Values
    surface as Python floats; that is fine for cardinality *estimation* (the
    only consumer) but is exactly why the workload generator keeps the exact
    collector above.  Text/object/NaN columns fall back to the exact path.
    """
    canonical = table.canonical_column(column_name)
    column = table.typed_store()[canonical]
    if column.kind != KIND_NUMBER or column.has_nan:
        return collect_column_statistics(table, column_name, bins, mcv)
    ctype = next(c.ctype for c in table.schema.columns if c.name == canonical)
    row_count = len(column)
    null_count = int(column.mask.sum())
    values = np.sort(column.data[~column.mask]) if null_count else np.sort(column.data)
    if values.size == 0:
        return ColumnStatistics(canonical, ctype, row_count, null_count, 0)
    distinct, counts = np.unique(values, return_counts=True)
    histogram: Tuple[object, ...] = ()
    if distinct.size >= 2:
        step = max(values.size // bins, 1)
        edges = [float(values[0])]
        for position in range(step, values.size, step):
            edge = float(values[position])
            if edge != edges[-1]:
                edges.append(edge)
        if float(values[-1]) != edges[-1]:
            edges.append(float(values[-1]))
        histogram = tuple(edges)
    # top-k by count descending; the stable sort keeps ties in ascending
    # value order, a deterministic (if different from Counter's first-seen)
    # tie-break — MCVs here only feed selectivity estimates
    order = np.argsort(-counts, kind="stable")[:mcv]
    most_common = tuple((float(distinct[i]), int(counts[i])) for i in order)
    return ColumnStatistics(
        name=canonical,
        ctype=ctype,
        row_count=row_count,
        null_count=null_count,
        ndv=int(distinct.size),
        minimum=float(values[0]),
        maximum=float(values[-1]),
        histogram=histogram,
        most_common=most_common,
    )


def collect_table_statistics(
    table: "Table", bins: int = DEFAULT_BINS, mcv: int = DEFAULT_MCV
) -> TableStatistics:
    columns = {
        column.name.lower(): collect_column_statistics(table, column.name, bins, mcv)
        for column in table.schema.columns
    }
    return TableStatistics(name=table.name, row_count=len(table.rows), columns=columns)


def collect_database_statistics(
    database: "Database", bins: int = DEFAULT_BINS, mcv: int = DEFAULT_MCV
) -> Dict[str, TableStatistics]:
    """Per-table statistics keyed by lower-cased table name."""
    return {
        table.name.lower(): collect_table_statistics(table, bins, mcv)
        for table in database.tables()
    }
