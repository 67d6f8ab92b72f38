"""Typed AST nodes for DVQ queries.

The AST mirrors the three logical parts of a Data Visualization Query used by
the evaluation metrics in the paper:

* the *Vis* part — the chart type (``Visualize BAR`` ...),
* the *Axis* part — the two (or three) encoded channels (the SELECT list),
* the *Data* part — the data transformation (FROM / JOIN / WHERE / GROUP BY /
  ORDER BY / BIN).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import List, Optional, Sequence, Union


class ChartType(enum.Enum):
    """Supported chart families, matching Figure 2 in the paper."""

    BAR = "BAR"
    PIE = "PIE"
    LINE = "LINE"
    SCATTER = "SCATTER"
    STACKED_BAR = "STACKED BAR"
    GROUPING_LINE = "GROUPING LINE"
    GROUPING_SCATTER = "GROUPING SCATTER"

    @property
    def mark(self) -> str:
        """Return the underlying Vega-Lite mark for the chart type."""
        if self in (ChartType.BAR, ChartType.STACKED_BAR):
            return "bar"
        if self in (ChartType.LINE, ChartType.GROUPING_LINE):
            return "line"
        if self in (ChartType.SCATTER, ChartType.GROUPING_SCATTER):
            return "point"
        return "arc"

    @property
    def is_grouped(self) -> bool:
        """True for chart types that use a colour/grouping channel."""
        return self in (
            ChartType.STACKED_BAR,
            ChartType.GROUPING_LINE,
            ChartType.GROUPING_SCATTER,
        )

    @classmethod
    def from_text(cls, text: str) -> "ChartType":
        normalized = " ".join(text.upper().split())
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"Unknown chart type: {text!r}")


class SortDirection(enum.Enum):
    """Sort direction for ORDER BY clauses."""

    ASC = "ASC"
    DESC = "DESC"


class AggregateFunction(enum.Enum):
    """Aggregate functions permitted in a SELECT item."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) reference to a column.

    ``table`` may be a table name or an alias such as ``T1``; ``column`` may be
    ``*`` only inside ``COUNT(*)``.
    """

    column: str
    table: Optional[str] = None

    def qualified(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column

    def lower_key(self) -> str:
        """Case-insensitive comparison key (unqualified)."""
        return self.column.lower()


@dataclass(frozen=True)
class AggregateExpr:
    """An aggregate application such as ``AVG(salary)`` or ``COUNT(DISTINCT id)``."""

    function: AggregateFunction
    argument: ColumnRef
    distinct: bool = False

    def render(self) -> str:
        inner = self.argument.qualified()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.function.value}({inner})"


#: A SELECT item is either a bare column or an aggregate over a column.
SelectExpr = Union[ColumnRef, AggregateExpr]


@dataclass(frozen=True)
class SelectItem:
    """One entry of the SELECT list (i.e. one encoded axis)."""

    expr: SelectExpr

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expr, AggregateExpr)

    @property
    def column(self) -> ColumnRef:
        if isinstance(self.expr, AggregateExpr):
            return self.expr.argument
        return self.expr

    def render(self) -> str:
        if isinstance(self.expr, AggregateExpr):
            return self.expr.render()
        return self.expr.qualified()


@dataclass(frozen=True)
class Condition:
    """A single predicate in the WHERE clause.

    Supported operators: ``=``, ``!=``, ``<>``, ``>``, ``>=``, ``<``, ``<=``,
    ``LIKE``, ``IN``, ``BETWEEN``, ``IS NULL`` / ``IS NOT NULL``.  For BETWEEN,
    ``value`` holds the lower bound and ``value2`` the upper bound.  For IN,
    ``value`` holds a tuple of literals.
    """

    column: ColumnRef
    operator: str
    value: object = None
    value2: object = None
    negated: bool = False

    def render(self) -> str:
        op = self.operator.upper()
        col = self.column.qualified()
        if op == "BETWEEN":
            return f"{col} BETWEEN {_render_literal(self.value)} AND {_render_literal(self.value2)}"
        if op == "IN":
            values = " , ".join(_render_literal(v) for v in self.value)
            prefix = "NOT IN" if self.negated else "IN"
            return f"{col} {prefix} ( {values} )"
        if op == "IS NULL":
            return f"{col} IS NOT NULL" if self.negated else f"{col} IS NULL"
        if op == "LIKE":
            prefix = "NOT LIKE" if self.negated else "LIKE"
            return f"{col} {prefix} {_render_literal(self.value)}"
        return f"{col} {op} {_render_literal(self.value)}"


def _render_literal(value: object) -> str:
    """The DVQ spelling of a literal, which the tokenizer reads back as ``value``.

    A string is single-quoted unless it holds a ``'``, then double-quoted.  The
    tokenizer has no escapes, so a string holding both quote kinds has no DVQ
    spelling; it is rendered single-quoted and does not parse back.  A finite
    float is written positionally with its shortest round-trip digits
    (``str()`` would write ``1e-05``, which the tokenizer rejects).
    """
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f'"{value}"' if "'" in value else f"'{value}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and math.isfinite(value):
        if value.is_integer():
            return str(int(value))
        # float() first: a subclass such as numpy.float64 has its own repr
        return format(Decimal(repr(float(value))), "f")
    return str(value)


@dataclass(frozen=True)
class WhereClause:
    """A flat list of conditions joined by connectors (``AND`` / ``OR``).

    ``connectors[i]`` joins ``conditions[i]`` and ``conditions[i + 1]``, so the
    list of connectors is always one element shorter than the conditions.
    """

    conditions: Sequence[Condition]
    connectors: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.conditions and len(self.connectors) != len(self.conditions) - 1:
            raise ValueError(
                "WhereClause needs exactly len(conditions) - 1 connectors; "
                f"got {len(self.conditions)} conditions and {len(self.connectors)} connectors"
            )

    def render(self) -> str:
        parts: List[str] = []
        for index, condition in enumerate(self.conditions):
            if index > 0:
                parts.append(self.connectors[index - 1].upper())
            parts.append(condition.render())
        return " ".join(parts)


@dataclass(frozen=True)
class JoinClause:
    """An equi-join between the primary table and another table."""

    table: str
    left: ColumnRef
    right: ColumnRef
    alias: Optional[str] = None

    def render(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return (
            f"JOIN {self.table}{alias} ON "
            f"{self.left.qualified()} = {self.right.qualified()}"
        )


@dataclass(frozen=True)
class OrderClause:
    """ORDER BY over a column or an aggregate of a column."""

    expr: SelectExpr
    direction: SortDirection = SortDirection.ASC

    def render(self) -> str:
        if isinstance(self.expr, AggregateExpr):
            rendered = self.expr.render()
        else:
            rendered = self.expr.qualified()
        return f"ORDER BY {rendered} {self.direction.value}"


class BinUnit(enum.Enum):
    """Temporal/numeric binning units supported by the BIN clause."""

    YEAR = "YEAR"
    MONTH = "MONTH"
    WEEKDAY = "WEEKDAY"
    INTERVAL = "INTERVAL"


@dataclass(frozen=True)
class BinClause:
    """``BIN <column> BY <unit>`` — temporal or interval binning of the x axis."""

    column: ColumnRef
    unit: BinUnit

    def render(self) -> str:
        return f"BIN {self.column.qualified()} BY {self.unit.value}"


@dataclass(frozen=True)
class DVQuery:
    """A complete Data Visualization Query.

    ``limit`` is the optional top-k clause (``LIMIT n``): after ordering, only
    the first ``n`` rows are materialised.  Because a top-k cut must pick the
    same rows on every execution engine, executors apply a deterministic
    canonical ordering (see :mod:`repro.executor.ordering`) before slicing.
    """

    chart_type: ChartType
    select: Sequence[SelectItem]
    table: str
    table_alias: Optional[str] = None
    joins: Sequence[JoinClause] = field(default_factory=tuple)
    where: Optional[WhereClause] = None
    group_by: Sequence[ColumnRef] = field(default_factory=tuple)
    order_by: Optional[OrderClause] = None
    bin: Optional[BinClause] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.select:
            raise ValueError("A DVQuery must select at least one expression")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"LIMIT must be non-negative, got {self.limit}")

    @property
    def x(self) -> SelectItem:
        """The first SELECT item, conventionally the x axis."""
        return self.select[0]

    @property
    def y(self) -> SelectItem:
        """The second SELECT item, conventionally the y axis."""
        if len(self.select) < 2:
            return self.select[0]
        return self.select[1]

    @property
    def color(self) -> Optional[SelectItem]:
        """The optional third channel used by grouped chart types."""
        if len(self.select) >= 3:
            return self.select[2]
        return None

    def needs_grouping(self) -> bool:
        """True when execution groups rows: GROUP BY, BIN, or any aggregate.

        The single source of this rule — the row interpreter, the planner and
        the compiled SQL all derive their grouping decision from it.
        """
        if self.group_by or self.bin is not None:
            return True
        return any(item.is_aggregate for item in self.select)

    def referenced_columns(self) -> List[ColumnRef]:
        """All column references appearing anywhere in the query."""
        columns: List[ColumnRef] = []
        for item in self.select:
            if not (isinstance(item.expr, ColumnRef) and item.expr.column == "*"):
                columns.append(item.column)
        for join in self.joins:
            columns.extend([join.left, join.right])
        if self.where is not None:
            columns.extend(condition.column for condition in self.where.conditions)
        columns.extend(self.group_by)
        if self.order_by is not None:
            if isinstance(self.order_by.expr, AggregateExpr):
                columns.append(self.order_by.expr.argument)
            else:
                columns.append(self.order_by.expr)
        if self.bin is not None:
            columns.append(self.bin.column)
        return columns

    def referenced_tables(self) -> List[str]:
        """All table names referenced by the query (primary first)."""
        tables = [self.table]
        tables.extend(join.table for join in self.joins)
        return tables

    def replace(self, **changes) -> "DVQuery":
        """Return a copy with the given fields replaced (dataclass semantics)."""
        return replace(self, **changes)
