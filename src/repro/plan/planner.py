"""Lowering of DVQ ASTs to the logical-plan IR.

:func:`plan_query` resolves a parsed :class:`~repro.dvq.nodes.DVQuery`
against a database schema and emits the canonical plan spine (see
:mod:`repro.plan.nodes`).  This is the single place where the
interpreter-compatibility rules of name resolution live:

* unknown tables and columns raise :class:`~repro.executor.errors.ExecutionError`
  with the exact message shapes
  :func:`repro.executor.backend.classify_failure` maps to failure
  categories, keeping the "no chart" verdict identical on every engine;
* qualified references match the alias *or* the underlying table name (the
  interpreter tolerates both), unqualified references search the tables in
  join order;
* references are resolved in the AST's reference order (SELECT, JOIN keys,
  WHERE, GROUP BY, ORDER BY, BIN) so a query with several broken identifiers
  reports the same one on every engine;
* the ORDER BY target is resolved to an output-column index via
  :func:`repro.executor.ordering.order_index`, and a select item naming the
  binned column becomes a :class:`~repro.plan.nodes.BinOutput`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.database.database import Database
from repro.database.schema import DatabaseSchema, TableSchema
from repro.dvq.nodes import (
    AggregateExpr,
    ColumnRef,
    DVQuery,
    SelectItem,
    SortDirection,
)
from repro.executor.errors import ExecutionError
from repro.executor.ordering import order_index
from repro.plan.nodes import (
    Aggregate,
    Bin,
    BinKey,
    BinOutput,
    ColumnOutput,
    Comparison,
    Connective,
    Filter,
    GroupKey,
    Join,
    Limit,
    OutputExpr,
    PlanNode,
    Predicate,
    Project,
    ResolvedColumn,
    Scan,
    Sort,
    AggregateOutput,
)


class _ScopeEntry:
    """One table visible to the query: its schema plus its effective name."""

    __slots__ = ("schema", "effective")

    def __init__(self, schema: TableSchema, effective: str):
        self.schema = schema
        self.effective = effective


class Scope:
    """Column resolution over the tables a query references."""

    def __init__(self) -> None:
        self.entries: List[_ScopeEntry] = []

    def add(self, schema: TableSchema, alias: Optional[str]) -> None:
        self.entries.append(_ScopeEntry(schema, alias or schema.name))

    def resolve(self, ref: ColumnRef, query: DVQuery) -> ResolvedColumn:
        """Resolve ``ref`` to a :class:`ResolvedColumn` or raise.

        Qualified references match the alias or the underlying table name;
        unqualified references search the tables in join order, mirroring the
        interpreter's lookup.
        """
        if ref.table:
            wanted = ref.table.lower()
            for entry in self.entries:
                if wanted in (entry.effective.lower(), entry.schema.name.lower()):
                    if entry.schema.has_column(ref.column):
                        return self._resolved(entry, ref.column)
                    raise ExecutionError(
                        f"Table {ref.table!r} has no column {ref.column!r}", query=query
                    )
            raise ExecutionError(f"Unknown table or alias {ref.table!r}", query=query)
        for entry in self.entries:
            if entry.schema.has_column(ref.column):
                return self._resolved(entry, ref.column)
        raise ExecutionError(f"Unknown column {ref.column!r}", query=query)

    @staticmethod
    def _resolved(entry: _ScopeEntry, column_name: str) -> ResolvedColumn:
        column = entry.schema.column(column_name)
        return ResolvedColumn(
            table=entry.schema.name,
            effective=entry.effective,
            column=column.name,
            ctype=column.ctype,
        )


def _is_bin_item(item: SelectItem, query: DVQuery) -> bool:
    return (
        query.bin is not None
        and not item.is_aggregate
        and item.column.lower_key() == query.bin.column.lower_key()
    )


def plan_query(query: DVQuery, schema: Union[Database, DatabaseSchema]) -> PlanNode:
    """Lower ``query`` to its canonical logical plan against ``schema``.

    Raises:
        ExecutionError: when the query references missing tables or columns —
            the same failure mode (and failure categories) as every engine.
    """
    if isinstance(schema, Database):
        schema = schema.schema
    scope = _build_scope(query, schema)

    # resolution in the AST's reference order, so multi-error queries surface
    # the same identifier on every engine
    outputs = tuple(_resolve_output(item, query, scope) for item in query.select)
    join_keys: List[Tuple[ResolvedColumn, ResolvedColumn]] = [
        (scope.resolve(join.left, query), scope.resolve(join.right, query))
        for join in query.joins
    ]
    predicate: Optional[Predicate] = None
    if query.where is not None and query.where.conditions:
        predicate = _where_predicate(query, scope)
    group_columns = tuple(scope.resolve(column, query) for column in query.group_by)
    if query.order_by is not None:
        order_argument = (
            query.order_by.expr.argument
            if isinstance(query.order_by.expr, AggregateExpr)
            else query.order_by.expr
        )
        if order_argument.column != "*":
            scope.resolve(order_argument, query)
    bin_column: Optional[ResolvedColumn] = None
    if query.bin is not None:
        bin_column = scope.resolve(query.bin.column, query)

    # -- relational spine ----------------------------------------------------
    primary = schema.table(query.table)
    root: PlanNode = Scan(
        table=primary.name,
        effective=query.table_alias or primary.name,
        columns=tuple(primary.column_names()),
    )
    for join, (left_key, right_key) in zip(query.joins, join_keys):
        joined = schema.table(join.table)
        root = Join(
            left=root,
            right=Scan(
                table=joined.name,
                effective=join.alias or joined.name,
                columns=tuple(joined.column_names()),
            ),
            left_key=left_key,
            right_key=right_key,
        )
    if predicate is not None:
        root = Filter(child=root, predicate=predicate)
    if bin_column is not None:
        assert query.bin is not None
        root = Bin(child=root, column=bin_column, unit=query.bin.unit)

    if query.needs_grouping():
        root = Aggregate(child=root, keys=_group_keys(query, scope, outputs), outputs=outputs)
    else:
        root = Project(child=root, outputs=outputs)  # type: ignore[arg-type]

    if query.order_by is not None:
        root = Sort(
            child=root,
            index=order_index(query),
            descending=query.order_by.direction is SortDirection.DESC,
        )
    if query.limit is not None:
        root = Limit(child=root, count=query.limit)
    return root


# -- pieces ------------------------------------------------------------------


def _build_scope(query: DVQuery, schema: DatabaseSchema) -> Scope:
    scope = Scope()
    if not schema.has_table(query.table):
        raise ExecutionError(
            f"Database {schema.name!r} has no table {query.table!r}",
            query=query,
            database=schema.name,
        )
    scope.add(schema.table(query.table), query.table_alias)
    for join in query.joins:
        if not schema.has_table(join.table):
            raise ExecutionError(
                f"Database {schema.name!r} has no table {join.table!r}",
                query=query,
                database=schema.name,
            )
        scope.add(schema.table(join.table), join.alias)
    return scope


def _resolve_output(item: SelectItem, query: DVQuery, scope: Scope) -> OutputExpr:
    label = item.render()
    if isinstance(item.expr, AggregateExpr):
        aggregate = item.expr
        argument: Optional[ResolvedColumn] = None
        if aggregate.argument.column != "*":
            argument = scope.resolve(aggregate.argument, query)
        return AggregateOutput(
            function=aggregate.function.value,
            argument=argument,
            distinct=aggregate.distinct,
            label=label,
        )
    resolved = scope.resolve(item.expr, query)
    if _is_bin_item(item, query):
        return BinOutput(label=label)
    return ColumnOutput(column=resolved, label=label)


def _where_predicate(query: DVQuery, scope: Scope) -> Predicate:
    where = query.where
    assert where is not None
    leaves = [
        Comparison(column=scope.resolve(condition.column, query), condition=condition)
        for condition in where.conditions
    ]
    predicate: Predicate = leaves[0]
    for index, connector in enumerate(where.connectors):
        # strict left-to-right association, no AND-over-OR precedence
        predicate = Connective(op=connector.upper(), left=predicate, right=leaves[index + 1])
    return predicate


def _group_keys(
    query: DVQuery, scope: Scope, outputs: Tuple[OutputExpr, ...]
) -> Tuple[GroupKey, ...]:
    keys: List[GroupKey] = []
    if query.bin is not None:
        keys.append(BinKey())
    for column in query.group_by:
        keys.append(scope.resolve(column, query))
    if not keys:
        # implicit grouping by the non-aggregated select columns
        for output in outputs:
            if isinstance(output, ColumnOutput):
                keys.append(output.column)
    return tuple(keys)
