"""The DVQ executor: turns a parsed DVQ plus a database into chart data rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.dvq.nodes import (
    AggregateExpr,
    ColumnRef,
    DVQuery,
    SortDirection,
)
from repro.executor.binning import bin_value
from repro.executor.errors import ExecutionError
from repro.executor.functions import apply_aggregate
from repro.executor.ordering import (
    canonical_top_k,
    legacy_order_key,
    order_index,
)
from repro.executor.predicates import evaluate_where


@dataclass
class ExecutionResult:
    """The materialised data series behind a chart.

    Attributes:
        columns: output column labels (x label first, then y, then colour).
        rows: list of tuples aligned with ``columns``.
        chart_type: the chart type of the executed query.
    """

    columns: List[str]
    rows: List[Tuple[object, ...]] = field(default_factory=list)
    chart_type: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def x_values(self) -> List[object]:
        return [row[0] for row in self.rows]

    def y_values(self) -> List[object]:
        """Values of the y column (the second output column).

        Raises:
            ValueError: when the result has fewer than two columns — a
                single-channel result has no y series, and silently yielding
                ``None`` hid axis mistakes from callers.
        """
        if len(self.columns) < 2:
            raise ValueError(
                f"Result has no y column (columns: {self.columns!r}); "
                "y_values requires at least two output columns"
            )
        return [row[1] for row in self.rows]


class _RowContext:
    """A joined row with per-source-table sub-rows for qualified lookups.

    ``parts`` is keyed by each table's *lowercase* effective name (its alias,
    else its table name), so the two sides of an aliased self-join stay
    apart.  ``aliases`` maps every lowercase qualifier — alias or table name
    — to the effective name of the first table it names, like
    :meth:`repro.plan.planner.Scope.resolve`.  ``maps`` carries each part's
    cached lowercase -> exact-casing column map
    (:meth:`~repro.database.schema.TableSchema.lower_map`), so a lookup is two
    dict probes instead of an O(columns) scan with repeated ``.lower()`` calls.
    """

    __slots__ = ("parts", "aliases", "maps")

    def __init__(
        self,
        parts: Dict[str, Dict[str, object]],
        aliases: Dict[str, str],
        maps: Dict[str, Dict[str, str]],
    ):
        self.parts = parts
        self.aliases = aliases
        self.maps = maps

    def lookup(self, column: ColumnRef) -> object:
        if column.table:
            part_name = self.aliases.get(column.table.lower())
            part = self.parts.get(part_name)
            if part is None:
                raise ExecutionError(f"Unknown table or alias {column.table!r}")
            return _lookup_in_row(part, column.column, self.maps[part_name])
        key = column.column.lower()
        for part_name, part in self.parts.items():
            canonical = self.maps[part_name].get(key)
            if canonical is not None:
                return part[canonical]
        raise ExecutionError(f"Unknown column {column.column!r}")


def _qualify(aliases: Dict[str, str], table: str, alias: Optional[str]) -> str:
    """Register a table's qualifiers and return its lowercase effective name.

    A qualifier keeps the first table it named (``setdefault``), so in
    ``FROM emp AS T1 JOIN emp AS T2`` the bare table name ``emp`` reads T1.
    """
    effective = (alias or table).lower()
    aliases.setdefault(effective, effective)
    aliases.setdefault(table.lower(), effective)
    return effective


def _lookup_in_row(
    row: Dict[str, object], column_name: str, lower_map: Dict[str, str]
) -> object:
    canonical = lower_map.get(column_name.lower())
    if canonical is None:
        raise KeyError(column_name)
    return row[canonical]


class DVQExecutor:
    """Execute DVQs against in-memory databases."""

    def __init__(self, bin_interval: int = 100):
        self.bin_interval = bin_interval

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        """Execute ``query`` against ``database``.

        Raises:
            ExecutionError: when the query references missing tables or columns
                — the "no chart" failure mode of non-robust models.
        """
        contexts = self._build_contexts(query, database)
        contexts = self._apply_where(query, contexts)
        if self._needs_grouping(query):
            rows = self._execute_grouped(query, contexts)
        else:
            rows = self._execute_flat(query, contexts)
        if query.limit is not None:
            # a top-k cut must be engine-independent: the bounded selection
            # returns canonical_order(rows, query)[:limit] without paying a
            # full O(n log n) sort for a LIMIT 10 (see repro.executor.ordering)
            if query.order_by is None:
                rows = canonical_top_k(rows, query.limit)
            else:
                rows = canonical_top_k(
                    rows,
                    query.limit,
                    index=order_index(query),
                    descending=query.order_by.direction is SortDirection.DESC,
                )
        else:
            rows = self._apply_order(query, rows)
        columns = [item.render() for item in query.select]
        return ExecutionResult(columns=columns, rows=rows, chart_type=query.chart_type.value)

    def can_execute(self, query: DVQuery, database: Database) -> bool:
        """True when the query executes without error (used by benches)."""
        try:
            self.execute(query, database)
        except ExecutionError:
            return False
        return True

    # -- pipeline stages -------------------------------------------------

    def _build_contexts(self, query: DVQuery, database: Database) -> List[_RowContext]:
        if not database.has_table(query.table):
            raise ExecutionError(
                f"Database {database.name!r} has no table {query.table!r}",
                query=query,
                database=database.name,
            )
        aliases: Dict[str, str] = {}
        primary = database.table(query.table)
        primary_name = _qualify(aliases, primary.name, query.table_alias)
        maps = {primary_name: primary.schema.lower_map()}
        contexts = [_RowContext({primary_name: row}, aliases, maps) for row in primary.rows]
        for join in query.joins:
            if not database.has_table(join.table):
                raise ExecutionError(
                    f"Database {database.name!r} has no table {join.table!r}",
                    query=query,
                    database=database.name,
                )
            joined = database.table(join.table)
            joined_name = _qualify(aliases, joined.name, join.alias)
            maps = dict(maps)
            maps[joined_name] = joined.schema.lower_map()
            contexts = self._join(
                contexts, joined.rows, joined_name, join.left, join.right, aliases, maps
            )
        self._validate_columns(query, contexts, database)
        return contexts

    def _join(
        self,
        contexts: List[_RowContext],
        right_rows: Sequence[Dict[str, object]],
        right_name: str,
        left_key: ColumnRef,
        right_key: ColumnRef,
        aliases: Dict[str, str],
        maps: Dict[str, Dict[str, str]],
    ) -> List[_RowContext]:
        """Hash-based equi-join of the accumulated contexts with a new table.

        Key resolution mirrors the historical nested-loop join: the probe key
        is whichever ON side resolves against the already-joined relation, the
        build key is matched by bare column name in the new table (falling
        back to the probe key's own name), and when neither resolves the join
        is empty.  Resolution is structural — identical for every context — so
        it is decided once, the new table is hashed on its key, and each
        context probes the hash; output order (context order, then right-row
        order) and match semantics (``==`` with NULL keys never matching, per
        SQL) are exactly those of the nested loop, which :meth:`_join_nested`
        preserves as the fallback for unhashable key values.
        """
        right_map = maps[right_name]
        if not contexts:
            return []
        for context in contexts:
            context.aliases = aliases
        probe = contexts[0]
        try:
            probe.lookup(left_key)
            use_left_on_context = True
        except ExecutionError:
            use_left_on_context = False
        if use_left_on_context:
            build_name = right_map.get(right_key.column.lower()) or right_map.get(
                left_key.column.lower()
            )
            probe_key = left_key
        else:
            # the "left" side of the ON clause actually names the new table
            build_name = right_map.get(left_key.column.lower())
            probe_key = right_key
        if build_name is None:
            return []
        try:
            buckets: Dict[object, List[Dict[str, object]]] = {}
            for row in right_rows:
                value = row[build_name]
                if value is None:  # SQL semantics: NULL keys never join
                    continue
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [row]
                else:
                    bucket.append(row)
        except TypeError:  # unhashable key value: fall back to the O(n*m) scan
            return self._join_nested(
                contexts, right_rows, right_name, left_key, right_key, aliases, maps
            )
        joined: List[_RowContext] = []
        for context in contexts:
            try:
                left_value = context.lookup(probe_key)
            except ExecutionError:
                continue
            if left_value is None:  # a NULL probe key matches nothing
                continue
            try:
                matches = buckets.get(left_value)
            except TypeError:
                matches = [
                    row
                    for row in right_rows
                    if row[build_name] is not None and left_value == row[build_name]
                ]
            for row in matches or ():
                parts = dict(context.parts)
                parts[right_name] = row
                joined.append(_RowContext(parts, aliases, maps))
        return joined

    def _join_nested(
        self,
        contexts: List[_RowContext],
        right_rows: Sequence[Dict[str, object]],
        right_name: str,
        left_key: ColumnRef,
        right_key: ColumnRef,
        aliases: Dict[str, str],
        maps: Dict[str, Dict[str, str]],
    ) -> List[_RowContext]:
        """The historical nested-loop join (kept for unhashable key values)."""
        right_map = maps[right_name]
        joined: List[_RowContext] = []
        for context in contexts:
            context.aliases = aliases
            try:
                left_value = context.lookup(left_key)
                use_left_on_context = True
            except ExecutionError:
                use_left_on_context = False
            for row in right_rows:
                if use_left_on_context:
                    try:
                        right_value = _lookup_in_row(row, right_key.column, right_map)
                    except KeyError:
                        try:
                            right_value = _lookup_in_row(row, left_key.column, right_map)
                        except KeyError:
                            continue
                else:
                    try:
                        right_value = _lookup_in_row(row, left_key.column, right_map)
                        left_value = context.lookup(right_key)
                    except (KeyError, ExecutionError):
                        continue
                # SQL semantics: a NULL key on either side never matches
                if left_value is not None and right_value is not None and left_value == right_value:
                    parts = dict(context.parts)
                    parts[right_name] = row
                    joined.append(_RowContext(parts, aliases, maps))
        return joined

    def _validate_columns(
        self, query: DVQuery, contexts: List[_RowContext], database: Database
    ) -> None:
        available: List[str] = []
        for table_name in query.referenced_tables():
            if database.has_table(table_name):
                available.extend(
                    column.lower() for column in database.table(table_name).schema.column_names()
                )
        for column in query.referenced_columns():
            if column.column == "*":
                continue
            if column.column.lower() not in available:
                raise ExecutionError(
                    f"Column {column.column!r} does not exist in tables {query.referenced_tables()}",
                    query=query,
                    database=database.name,
                )

    def _apply_where(self, query: DVQuery, contexts: List[_RowContext]) -> List[_RowContext]:
        if query.where is None or not query.where.conditions:
            return contexts
        filtered = []
        for context in contexts:
            values = [context.lookup(condition.column) for condition in query.where.conditions]
            if evaluate_where(query.where, {}, values):
                filtered.append(context)
        return filtered

    def _needs_grouping(self, query: DVQuery) -> bool:
        return query.needs_grouping()

    def _group_key(self, query: DVQuery, context: _RowContext) -> Tuple[object, ...]:
        keys: List[object] = []
        if query.bin is not None:
            keys.append(
                bin_value(context.lookup(query.bin.column), query.bin.unit, self.bin_interval)
            )
        for column in query.group_by:
            keys.append(context.lookup(column))
        if not keys:
            # implicit grouping by the non-aggregated select columns
            for item in query.select:
                if not item.is_aggregate and item.column.column != "*":
                    keys.append(context.lookup(item.column))
        if not keys:
            keys.append("__all__")
        return tuple(keys)

    def _execute_grouped(self, query: DVQuery, contexts: List[_RowContext]) -> List[Tuple[object, ...]]:
        groups: Dict[Tuple[object, ...], List[_RowContext]] = {}
        order: List[Tuple[object, ...]] = []
        for context in contexts:
            key = self._group_key(query, context)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(context)
        rows: List[Tuple[object, ...]] = []
        for key in order:
            members = groups[key]
            row = tuple(
                self._evaluate_select_item(item, members, query, key) for item in query.select
            )
            rows.append(row)
        return rows

    def _evaluate_select_item(
        self,
        item,
        members: List[_RowContext],
        query: DVQuery,
        group_key: Tuple[object, ...],
    ) -> object:
        if isinstance(item.expr, AggregateExpr):
            argument = item.expr.argument
            if argument.column == "*":
                values: List[object] = [1] * len(members)
            else:
                values = [member.lookup(argument) for member in members]
            return apply_aggregate(item.expr.function.value, values, distinct=item.expr.distinct)
        # non-aggregated column: binned x axis takes the bin label
        if query.bin is not None and item.column.lower_key() == query.bin.column.lower_key():
            return group_key[0]
        return members[0].lookup(item.expr)

    def _execute_flat(self, query: DVQuery, contexts: List[_RowContext]) -> List[Tuple[object, ...]]:
        rows = []
        for context in contexts:
            rows.append(tuple(context.lookup(item.column) for item in query.select))
        return rows

    def _apply_order(self, query: DVQuery, rows: List[Tuple[object, ...]]) -> List[Tuple[object, ...]]:
        if query.order_by is None:
            return rows
        order = query.order_by
        index = self._order_index(query)

        def sort_key(row: Tuple[object, ...]):
            # Nones last, mixed types by string form (shared with the
            # columnar engine's Sort node)
            return legacy_order_key(row[index] if index < len(row) else None)

        reverse = order.direction is SortDirection.DESC
        return sorted(rows, key=sort_key, reverse=reverse)

    def _order_index(self, query: DVQuery) -> int:
        return order_index(query)
