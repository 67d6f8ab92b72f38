"""Lowering of logical plans to parameterised SQL for the SQLite backend.

:class:`DVQToSQLCompiler` turns a parsed :class:`~repro.dvq.nodes.DVQuery`
into a :class:`CompiledQuery` — one SQL string plus an ordered tuple of bound
parameters.  Since the unified-IR refactor, the compiler no longer walks the
raw AST: it lowers the *canonical logical plan* produced by
:func:`repro.plan.planner.plan_query`, the same plan the columnar engine
executes.  All schema resolution — table existence, alias handling (including
the interpreter's tolerance for qualifying by the underlying table name even
when aliased), exact column casing, column types, the ORDER BY output index —
happens once in the planner; unknown tables or columns raise
:class:`~repro.executor.errors.ExecutionError` there, keeping the "no chart"
failure mode identical across backends.

The rendered SQL reproduces the *interpreter's* value semantics, which differ
from vanilla SQL in a few deliberate ways:

* ``=`` / ``!=`` / ``IN`` compare strings case-insensitively
  (``COLLATE NOCASE``), matching the interpreter's loose equality.
* ``x = 'null'`` also matches rows where ``x`` IS NULL (and ``!=`` excludes
  them), mirroring the interpreter's null-sentinel convention for model
  outputs that write ``= "null"``.
* ``NOT IN`` and ``NOT LIKE`` keep NULL rows — the interpreter evaluates the
  inner match to False and negates it, where SQL three-valued logic would
  drop the row.
* WHERE connectors associate strictly left-to-right with no AND-over-OR
  precedence (``a OR b AND c`` compiles to ``((a OR b) AND c)``) — encoded
  structurally in the plan's left-associative predicate tree.
* ORDER BY sorts NULLs last ascending / first descending, and text
  case-insensitively, matching the interpreter's sort key; when the plan
  carries a :class:`~repro.plan.nodes.Limit`, every output column is appended
  as a canonical tiebreak so the top-k cut is deterministic across engines.
* ``BIN ... BY ...`` lowers to a scalar expression chosen from the binned
  column's declared type: ``substr``/``strftime`` arithmetic for dates, a
  floor-division interval label for numbers.

The compiler expects the canonical plan spine (predicate pushdown targets
the columnar engine; SQLite plans its own joins) —
:meth:`DVQToSQLCompiler.compile` always lowers the unoptimized plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.database.database import Database
from repro.database.schema import ColumnType, DatabaseSchema
from repro.dvq.nodes import Condition, DVQuery
from repro.executor.errors import ExecutionError
from repro.plan.nodes import (
    Aggregate,
    AggregateOutput,
    Bin,
    BinKey,
    BinOutput,
    Comparison,
    Filter,
    Join,
    Limit,
    OutputExpr,
    PlanNode,
    Predicate,
    Project,
    ResolvedColumn,
    Scan,
    Sort,
)
from repro.plan.planner import plan_query

_WEEKDAY_CASES = (
    "CASE strftime('%w', {x}) "
    "WHEN '0' THEN 'Sunday' WHEN '1' THEN 'Monday' WHEN '2' THEN 'Tuesday' "
    "WHEN '3' THEN 'Wednesday' WHEN '4' THEN 'Thursday' WHEN '5' THEN 'Friday' "
    "WHEN '6' THEN 'Saturday' ELSE {x} END"
)


def quote_identifier(name: str) -> str:
    """Double-quote ``name`` as a SQL identifier (embedded quotes doubled)."""
    return '"' + name.replace('"', '""') + '"'


def _column_sql(column: ResolvedColumn) -> str:
    return f"{quote_identifier(column.effective)}.{quote_identifier(column.column)}"


@dataclass(frozen=True)
class CompiledQuery:
    """One executable SQL statement lowered from a DVQ.

    Attributes:
        sql: the SQL text with ``?`` placeholders.
        params: bound parameter values, in placeholder order.
        columns: output column labels (the DVQ select renderings, not SQL
            aliases — every backend labels results identically).
    """

    sql: str
    params: Tuple[object, ...]
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class _Spine:
    """The canonical plan unpacked into its clause-shaped pieces."""

    scan: Scan
    joins: Tuple[Join, ...]
    filter: Optional[Filter]
    bin: Optional[Bin]
    output: Union[Aggregate, Project]
    sort: Optional[Sort]
    limit: Optional[Limit]


def _unpack_spine(plan: PlanNode) -> _Spine:
    limit = None
    sort = None
    node = plan
    if isinstance(node, Limit):
        limit = node
        node = node.child
    if isinstance(node, Sort):
        sort = node
        node = node.child
    if not isinstance(node, (Aggregate, Project)):
        raise ValueError(
            f"Not a canonical plan (found {type(node).__name__} at the output "
            "position); the SQL compiler lowers unoptimized plans only"
        )
    output = node
    node = node.child
    bin_node = None
    if isinstance(node, Bin):
        bin_node = node
        node = node.child
    filter_node = None
    if isinstance(node, Filter):
        filter_node = node
        node = node.child
    joins: List[Join] = []
    while isinstance(node, Join):
        if not isinstance(node.right, Scan):
            raise ValueError(
                f"Not a canonical plan (found {type(node.right).__name__} as a "
                "join input); the SQL compiler lowers unoptimized plans only"
            )
        joins.append(node)
        node = node.left
    if not isinstance(node, Scan):
        raise ValueError(
            f"Not a canonical plan (found {type(node).__name__} below the join chain); "
            "the SQL compiler lowers unoptimized plans only"
        )
    joins.reverse()
    return _Spine(
        scan=node,
        joins=tuple(joins),
        filter=filter_node,
        bin=bin_node,
        output=output,
        sort=sort,
        limit=limit,
    )


class DVQToSQLCompiler:
    """Compile DVQs into parameterised SQL with interpreter semantics.

    Lowers via the shared logical plan (:func:`repro.plan.planner.plan_query`).
    ``bin_interval`` is the fixed width of ``BIN ... BY INTERVAL`` buckets,
    matching the interpreter's and the columnar engine's parameter.
    """

    def __init__(self, bin_interval: int = 100):
        self.bin_interval = max(int(bin_interval), 1)

    def compile(
        self, query: DVQuery, schema: Union[Database, DatabaseSchema]
    ) -> CompiledQuery:
        """Lower ``query`` to SQL against ``schema``.

        Raises:
            ExecutionError: when the query references tables or columns that
                do not exist — raised by the planner, the same failure mode
                as every engine.
        """
        return self.compile_plan(plan_query(query, schema))

    def compile_plan(self, plan: PlanNode) -> CompiledQuery:
        """Render a *canonical* logical plan as one SQL statement.

        Raises:
            ValueError: when the plan is not in canonical shape (e.g. it was
                rewritten by the optimizer's predicate pushdown).
        """
        spine = _unpack_spine(plan)
        params: List[object] = []
        select_sql = [self._output_sql(output, spine.bin) for output in spine.output.outputs]
        sql_parts = ["SELECT", " , ".join(select_sql), "FROM", self._scan_sql(spine.scan)]
        for join in spine.joins:
            sql_parts.append(self._join_sql(join))
        if spine.filter is not None:
            sql_parts.append("WHERE")
            sql_parts.append(self._predicate_sql(spine.filter.predicate, params))
        if isinstance(spine.output, Aggregate):
            sql_parts.append("GROUP BY")
            sql_parts.append(" , ".join(self._group_exprs(spine.output, spine.bin)))
        order_sql = self._order_sql(spine.sort, spine.limit, select_sql)
        if order_sql:
            sql_parts.append(order_sql)
        if spine.limit is not None:
            sql_parts.append("LIMIT ?")
            params.append(int(spine.limit.count))
        columns = tuple(output.label for output in spine.output.outputs)
        return CompiledQuery(
            sql=" ".join(sql_parts), params=tuple(params), columns=columns
        )

    # -- FROM / JOIN ---------------------------------------------------------

    def _scan_sql(self, scan: Scan) -> str:
        table = quote_identifier(scan.table)
        if scan.effective != scan.table:
            return f"{table} AS {quote_identifier(scan.effective)}"
        return table

    def _join_sql(self, join: Join) -> str:
        scan = join.right  # a Scan — _unpack_spine validated the join inputs
        joined = quote_identifier(scan.table)
        if scan.effective != scan.table:
            joined = f"{joined} AS {quote_identifier(scan.effective)}"
        left = _column_sql(join.left_key)
        right = _column_sql(join.right_key)
        return f"JOIN {joined} ON {left} = {right}"

    # -- SELECT --------------------------------------------------------------

    def _output_sql(self, output: OutputExpr, bin_node: Optional[Bin]) -> str:
        if isinstance(output, AggregateOutput):
            inner = "*" if output.argument is None else _column_sql(output.argument)
            if output.distinct:
                inner = f"DISTINCT {inner}"
            # interpreter aggregates are float-valued (SUM of ints gives 6.0);
            # value coercion in normalize_result re-canonicalises both sides,
            # so the raw SQLite integer is fine here
            return f"{output.function}({inner})"
        if isinstance(output, BinOutput):
            assert bin_node is not None
            return self._bin_sql(bin_node)
        return _column_sql(output.column)

    # -- BIN -----------------------------------------------------------------

    def _bin_sql(self, bin_node: Bin) -> str:
        column_sql = _column_sql(bin_node.column)
        ctype = bin_node.column.ctype
        unit = bin_node.unit.value
        if unit == "YEAR":
            if ctype is ColumnType.DATE:
                return f"CAST(substr({column_sql}, 1, 4) AS INTEGER)"
            if ctype in (ColumnType.NUMBER, ColumnType.BOOLEAN):
                return f"CAST({column_sql} AS INTEGER)"
            return column_sql
        if unit == "MONTH":
            if ctype is ColumnType.DATE:
                return f"CAST(substr({column_sql}, 6, 2) AS INTEGER)"
            return column_sql
        if unit == "WEEKDAY":
            if ctype is ColumnType.DATE:
                return _WEEKDAY_CASES.format(x=column_sql)
            return column_sql
        # INTERVAL
        if ctype in (ColumnType.NUMBER, ColumnType.BOOLEAN):
            width = self.bin_interval
            ratio = f"{column_sql} * 1.0 / {width}"
            # floor() without the floor() function (needs SQLite >= 3.35):
            # truncate toward zero, then subtract 1 when truncation rounded
            # a negative ratio up
            floor = (
                f"( CAST({ratio} AS INTEGER) - "
                f"( {ratio} < CAST({ratio} AS INTEGER) ) )"
            )
            low = f"{floor} * {width}"
            return f"('[' || ({low}) || ', ' || (({low}) + {width}) || ')')"
        return column_sql

    # -- WHERE ---------------------------------------------------------------

    def _predicate_sql(self, predicate: Predicate, params: List[object]) -> str:
        if isinstance(predicate, Comparison):
            return self._condition_sql(predicate.column, predicate.condition, params)
        left = self._predicate_sql(predicate.left, params)
        right = self._predicate_sql(predicate.right, params)
        # the plan's predicate tree is left-associative by construction
        return f"( {left} {predicate.op} {right} )"

    def _condition_sql(
        self, resolved: ResolvedColumn, condition: Condition, params: List[object]
    ) -> str:
        column = _column_sql(resolved)
        operator = condition.operator.upper()
        if operator == "IS NULL":
            return f"{column} IS NOT NULL" if condition.negated else f"{column} IS NULL"
        if operator == "BETWEEN":
            params.extend([condition.value, condition.value2])
            return f"{column} BETWEEN ? AND ?"
        if operator == "IN":
            disjuncts = []
            has_null_item = False
            for item in condition.value:
                if item is None:
                    has_null_item = True
                    disjuncts.append(f"{column} IS NULL")
                else:
                    params.append(item)
                    disjuncts.append(f"{column} = ? COLLATE NOCASE")
            inner = " OR ".join(disjuncts) if disjuncts else "0"
            if condition.negated:
                if has_null_item:
                    # a NULL list item matches NULL rows in the interpreter,
                    # so their negation drops them — plain NOT suffices (the
                    # IS NULL disjunct keeps the inner expression two-valued)
                    return f"NOT ( {inner} )"
                # interpreter NOT IN keeps NULL rows (inner match is False)
                return f"( {column} IS NULL OR NOT ( {inner} ) )"
            return f"( {inner} )"
        if operator == "LIKE":
            params.append(condition.value)
            if condition.negated:
                # interpreter NOT LIKE keeps NULL rows
                return f"( {column} IS NULL OR {column} NOT LIKE ? )"
            return f"{column} LIKE ?"
        if operator in ("=", "!="):
            sentinel = isinstance(condition.value, str) and condition.value.lower() == "null"
            params.append(condition.value)
            if operator == "=":
                if sentinel:
                    # x = 'null' doubles as an IS NULL test in the interpreter
                    return f"( {column} IS NULL OR {column} = ? COLLATE NOCASE )"
                return f"{column} = ? COLLATE NOCASE"
            if sentinel:
                return f"( {column} IS NOT NULL AND {column} <> ? COLLATE NOCASE )"
            return f"{column} <> ? COLLATE NOCASE"
        if operator in (">", ">=", "<", "<="):
            params.append(condition.value)
            return f"{column} {operator} ?"
        raise ExecutionError(f"Unsupported comparison operator {condition.operator!r}")

    # -- GROUP BY ------------------------------------------------------------

    def _group_exprs(self, aggregate: Aggregate, bin_node: Optional[Bin]) -> List[str]:
        exprs: List[str] = []
        for key in aggregate.keys:
            if isinstance(key, BinKey):
                assert bin_node is not None
                exprs.append(self._bin_sql(bin_node))
            else:
                exprs.append(_column_sql(key))
        if not exprs:
            # aggregates-only query: a constant group collapses to one row on
            # data and — unlike a bare aggregate SELECT — to zero rows on
            # empty input, matching the interpreter and the columnar engine
            exprs.append("'__all__'")
        return exprs

    # -- ORDER BY / LIMIT ----------------------------------------------------

    def _order_sql(
        self, sort: Optional[Sort], limit: Optional[Limit], select_sql: List[str]
    ) -> str:
        terms: List[str] = []
        if sort is not None:
            expr = select_sql[sort.index] if sort.index < len(select_sql) else select_sql[0]
            terms.extend(self._order_terms(expr, sort.descending))
        if limit is not None:
            # deterministic top-k: canonical ascending tiebreak over every
            # output column, mirroring executor.ordering.canonical_order
            for expr in select_sql:
                terms.extend(self._order_terms(expr, descending=False))
        if not terms:
            return ""
        return "ORDER BY " + " , ".join(terms)

    def _order_terms(self, expr: str, descending: bool) -> List[str]:
        """One sort key as SQL terms matching the interpreter's value key.

        The interpreter key is ``(type rank, lowered text / number, exact
        text)`` with NULL ranked last: the ``IS NULL`` term reproduces the
        NULL rank portably (no ``NULLS LAST`` syntax, which needs SQLite >=
        3.30), NOCASE the case-insensitive comparison, and a final BINARY
        term the exact-text tiebreak between case-variant strings.
        """
        direction = "DESC" if descending else "ASC"
        return [
            f"( {expr} IS NULL ) {direction}",
            f"{expr} COLLATE NOCASE {direction}",
            f"{expr} COLLATE BINARY {direction}",
        ]
