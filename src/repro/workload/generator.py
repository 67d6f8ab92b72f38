"""Statistics-driven DVQ generation over synthetic schema graphs.

:class:`WorkloadGenerator` extends the portable-subset
:class:`~repro.dvq.generate.RandomDVQGenerator` with the choices a fuzzer at
scale needs:

* **join-subgraph walks** — instead of a single foreign-key hop, the
  generator walks the schema's join graph up to ``max_joins`` edges, in
  either FK direction, rejecting steps whose estimated row-pair count
  (``|intermediate| x |new table|``) exceeds ``max_join_cost`` — the knob
  that fixes which joins a seed may draw, and so bounds the joined rows the
  per-row engines (the interpreter oracle, ``columnar-python``) pay for;
* **histogram-driven literals** — predicate literals come from each column's
  equi-depth histogram edges and most-common values
  (:mod:`repro.workload.stats`) instead of a full column scan per condition,
  which is what makes generation O(1) in table size;
* **cardinality-aware grouping** — grouping keys and bin targets are
  filtered by NDV and value range so charts stay plausible (and result sets
  stay bounded) even over million-row tables.

All of the base generator's portable-subset guarantees carry over: the
overrides only change *which* columns and literals are picked, never the
query shapes.  Ambiguous column references in multi-table scopes are always
qualified (``qualify_probability=1.0`` on joins).
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.dvq.generate import RandomDVQGenerator, _ScopedColumn
from repro.dvq.nodes import ColumnRef, JoinClause
from repro.workload.stats import (
    ColumnStatistics,
    TableStatistics,
    collect_database_statistics,
)


class WorkloadGenerator(RandomDVQGenerator):
    """Sample portable DVQs using collected table statistics.

    Args:
        seed: RNG seed (the query stream is a pure function of
            (seed, database), like the base class).
        max_joins: maximum join-walk length in edges.
        max_join_cost: reject a join step when
            ``estimated_intermediate_rows * new_table_rows`` exceeds this —
            an upper bound on the rows the step can produce, and on the row
            pairs a nested-loop plan (which SQLite may choose) examines.
        group_key_ndv_limit: text/boolean columns with more distinct values
            than this are not used as grouping keys.
        in_list_limit: maximum number of distinct literals offered to IN.
        stats_cache: optional mapping ``database -> statistics`` shared
            between generators.  The fuzzer creates a fresh generator per
            query seed; sharing the cache makes that O(1) instead of
            re-scanning the database each time.
        **kwargs: forwarded to :class:`RandomDVQGenerator` (probabilities,
            ``portable_subset``, ...).
    """

    def __init__(
        self,
        seed: int = 0,
        max_joins: int = 2,
        max_join_cost: int = 2_000_000,
        group_key_ndv_limit: int = 24,
        in_list_limit: int = 12,
        stats_cache: Optional[
            "weakref.WeakKeyDictionary[Database, Dict[str, TableStatistics]]"
        ] = None,
        **kwargs,
    ):
        super().__init__(seed=seed, **kwargs)
        self.max_joins = max_joins
        self.max_join_cost = max_join_cost
        self.group_key_ndv_limit = group_key_ndv_limit
        self.in_list_limit = in_list_limit
        self._stats_cache = (
            stats_cache if stats_cache is not None else weakref.WeakKeyDictionary()
        )

    # -- statistics ----------------------------------------------------------

    def statistics(self, database: Database) -> Dict[str, TableStatistics]:
        """Per-table statistics, computed once per database and cached."""
        stats = self._stats_cache.get(database)
        if stats is None:
            stats = collect_database_statistics(database)
            self._stats_cache[database] = stats
        return stats

    def _column_stats(
        self, database: Database, scoped: _ScopedColumn
    ) -> ColumnStatistics:
        return self.statistics(database)[scoped.table_name.lower()].column(
            scoped.column.name
        )

    # -- join-subgraph walks -------------------------------------------------

    def _choose_tables(self, database: Database):
        rng = self._rng
        schema = database.schema
        stats = self.statistics(database)
        rows = {name: table.row_count for name, table in stats.items()}
        start = rng.choice(schema.tables).name
        scope = [start]
        joins: List[JoinClause] = []
        estimate = max(rows.get(start.lower(), 1), 1)
        for _ in range(self.max_joins):
            if not (schema.foreign_keys and rng.random() < self.join_probability):
                break
            step = self._pick_join_step(rng, schema, scope, rows, estimate)
            if step is None:
                break
            join, new_table, estimate = step
            joins.append(join)
            scope.append(new_table)
        columns: List[_ScopedColumn] = []
        for name in scope:
            columns += self._scope_columns(schema, name, None)
        # multi-table scopes always qualify (by table name) so shared column
        # names — FK columns mirror the referenced PK's name by construction —
        # never resolve ambiguously
        qualify_probability = 1.0 if joins else 0.3
        return start, None, joins, columns, qualify_probability

    def _pick_join_step(self, rng, schema, scope, rows, estimate):
        """One admissible join edge out of the current scope, or None.

        Returns ``(JoinClause, new_table, new_estimate)`` where the estimate
        models FK semantics: following a foreign key to its (unique) target
        keeps the intermediate cardinality, walking a key backwards fans out
        by the referencing table's rows per key.
        """
        in_scope = {name.lower() for name in scope}
        candidates = []
        for fk in schema.joinable_pairs():
            source, target = fk.table.lower(), fk.ref_table.lower()
            if source in in_scope and target not in in_scope:
                new_rows = max(rows.get(target, 1), 1)
                new_estimate = estimate  # each source row matches one target pk
                candidates.append((fk.ref_table, fk, True, new_rows, new_estimate))
            elif target in in_scope and source not in in_scope:
                new_rows = max(rows.get(source, 1), 1)
                fanout = new_rows / max(rows.get(target, 1), 1)
                new_estimate = int(estimate * max(fanout, 1.0))
                candidates.append((fk.table, fk, False, new_rows, new_estimate))
        rng.shuffle(candidates)
        for new_table, fk, forward, new_rows, new_estimate in candidates:
            if estimate * new_rows > self.max_join_cost:
                continue
            if forward:
                existing, existing_col = fk.table, fk.column
                joined_col = fk.ref_column
            else:
                existing, existing_col = fk.ref_table, fk.ref_column
                joined_col = fk.column
            join = JoinClause(
                table=new_table,
                left=ColumnRef(column=existing_col, table=existing),
                right=ColumnRef(column=joined_col, table=new_table),
            )
            return join, new_table, max(new_estimate, 1)
        return None

    # -- statistics-driven hooks --------------------------------------------

    def _literal_pool(self, database: Database, scoped: _ScopedColumn) -> List[object]:
        """Histogram edges + MCVs instead of a full column scan.

        Equality/IN literals drawn from the MCV list have guaranteed hits;
        range endpoints drawn from equi-depth edges select predictable
        fractions of the table.  The pool is a few dozen values regardless of
        table size.
        """
        stats = self._column_stats(database, scoped)
        pool: List[object] = [value for value, _ in stats.most_common]
        pool += [edge for edge in stats.histogram if edge not in pool]
        # NaN has no DVQ text form (same round-trip rationale as the base
        # generator's pool), so statistics over NaN-bearing columns must not
        # leak it into predicate literals
        pool = [
            value
            for value in pool
            if not (isinstance(value, float) and math.isnan(value))
        ]
        return pool[: self.in_list_limit]

    def _group_key_pool(
        self, database: Database, columns: Sequence[_ScopedColumn]
    ) -> List[_ScopedColumn]:
        """Low-NDV text/boolean columns; falls back to the type-only rule."""
        typed = super()._group_key_pool(database, columns)
        low_cardinality = [
            scoped
            for scoped in typed
            if self._column_stats(database, scoped).ndv <= self.group_key_ndv_limit
        ]
        return low_cardinality or typed

    def _bin_candidates(
        self, database: Database, columns: Sequence[_ScopedColumn]
    ) -> Tuple[List[_ScopedColumn], List[_ScopedColumn]]:
        """Date columns as-is; number columns only when INTERVAL bins make sense.

        A numeric BIN uses fixed-width intervals (default width 100): columns
        whose range spans less than one interval degenerate to a single
        bucket and columns spanning thousands of intervals explode the
        result, so both are filtered out.
        """
        date_cols, number_cols = super()._bin_candidates(database, columns)
        realistic = []
        for scoped in number_cols:
            value_range = self._column_stats(database, scoped).value_range
            if value_range is not None and 100 <= value_range <= 100 * 1000:
                realistic.append(scoped)
        return date_cols, realistic
