"""Cardinality estimation and the cost model behind the cost-based rules.

:class:`CostModel` turns per-table statistics
(:meth:`repro.database.table.Table.column_statistics` — row counts, NDV,
equi-depth histograms, MCVs) into the classic textbook estimates:

* **selectivity** of a predicate — equality selects an MCV's exact frequency
  when the literal is one, ``1/NDV`` otherwise; range predicates interpolate
  over the equi-depth histogram edges (each adjacent pair of edges holds
  ``~1/bins`` of the rows); AND multiplies, OR adds-minus-product; every
  estimate is scaled by the non-null fraction since NULL never satisfies a
  comparison.
* **cardinality** of a plan node — scans produce the table's row count,
  filters multiply by selectivity, equi-joins use the containment assumption
  ``|L| * |R| / max(ndv(L.key), ndv(R.key))``, aggregates produce the product
  of group-key NDVs capped by their input.
* **cost** of a plan node — a unitless row-touch count: linear passes for
  scans/filters/aggregates, ``build + probe + output`` for hash joins,
  ``|L| * |R|`` for nested loops, ``n log n`` for sorts.

The optimizer's cost-based rules (:mod:`repro.plan.optimizer` — join-order
enumeration, hash-build-side selection, filter-cascade ordering) and the AQP
rewrite (:mod:`repro.plan.sampling`) consume these estimates;
``plan.explain(statistics=...)`` annotates each node with them.  Statistics
are fetched lazily through the :class:`~repro.database.table.Table` cache, so
a query only pays for the columns its plan references.

Estimates never have to be *right* — every cost-based rewrite is
semantics-preserving and the differential suite holds the engine to
bit-identical results regardless — they only have to be deterministic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Union

from repro.plan.nodes import (
    HASH,
    Aggregate,
    Bin,
    BinKey,
    Comparison,
    Connective,
    ConstPredicate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Predicate,
    Project,
    ResolvedColumn,
    Sample,
    Scan,
    Sort,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.database.database import Database
    from repro.database.statistics import ColumnStatistics

#: Fallbacks when a table or column has no statistics (never the case for
#: planned queries, but the model must stay total and deterministic).
DEFAULT_ROW_COUNT = 1000.0
DEFAULT_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_LIKE_SELECTIVITY = 0.25

#: Guessed group count of a derived bin column (a chart axis: months, years,
#: interval buckets — small by construction).
BIN_GROUP_ESTIMATE = 50.0

#: Guessed NDV of a group key with no statistics.
DEFAULT_GROUP_NDV = 25.0


def _clamp(value: float, low: float = 0.0, high: float = 1.0) -> float:
    return min(max(value, low), high)


class CostModel:
    """Selectivity / cardinality / cost estimates over logical plans.

    Thin and stateless: statistics live in the per-:class:`Table` cache, so
    one model per database is cheap to build and safe to share across
    queries.  Every estimate method is total — missing statistics degrade to
    the documented defaults, never to an exception.
    """

    def __init__(self, database: "Database"):
        self._database = database

    # -- statistics access ---------------------------------------------------

    def table_row_count(self, table: str) -> Optional[float]:
        try:
            return float(len(self._database.table(table).rows))
        except Exception:
            return None

    def column_stats(self, column: ResolvedColumn) -> Optional["ColumnStatistics"]:
        try:
            return self._database.table(column.table).column_statistics(column.column)
        except Exception:
            return None

    # -- selectivity ---------------------------------------------------------

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of input rows satisfying ``predicate``."""
        if isinstance(predicate, ConstPredicate):
            return 1.0 if predicate.value else 0.0
        if isinstance(predicate, Connective):
            left = self.selectivity(predicate.left)
            right = self.selectivity(predicate.right)
            if predicate.op == "AND":
                return left * right
            return _clamp(left + right - left * right)
        return self._comparison_selectivity(predicate)

    def _comparison_selectivity(self, comparison: Comparison) -> float:
        stats = self.column_stats(comparison.column)
        condition = comparison.condition
        operator = condition.operator.upper()
        if stats is None or stats.row_count == 0:
            if operator == "=":
                return DEFAULT_EQUALITY_SELECTIVITY
            if operator in ("!=", "<>"):
                return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
            if operator == "LIKE":
                return DEFAULT_LIKE_SELECTIVITY
            return DEFAULT_SELECTIVITY
        non_null = 1.0 - stats.null_fraction
        if operator == "IS NULL":
            return non_null if condition.negated else stats.null_fraction
        if operator == "=":
            return non_null * self._equality_fraction(stats, condition.value)
        if operator in ("!=", "<>"):
            return non_null * (1.0 - self._equality_fraction(stats, condition.value))
        if operator == "IN":
            values = condition.value if isinstance(condition.value, (tuple, list)) else ()
            fraction = _clamp(
                sum(self._equality_fraction(stats, value) for value in values)
            )
            return non_null * ((1.0 - fraction) if condition.negated else fraction)
        if operator in (">", ">=", "<", "<="):
            below = self._fraction_below(stats, condition.value)
            if below is None:
                return non_null * DEFAULT_SELECTIVITY
            return non_null * _clamp(below if operator in ("<", "<=") else 1.0 - below)
        if operator == "BETWEEN":
            low = self._fraction_below(stats, condition.value)
            high = self._fraction_below(stats, condition.value2)
            if low is None or high is None:
                return non_null * DEFAULT_SELECTIVITY / 2.0
            return non_null * _clamp(high - low)
        if operator == "LIKE":
            return non_null * DEFAULT_LIKE_SELECTIVITY
        return DEFAULT_SELECTIVITY

    @staticmethod
    def _equality_fraction(stats: "ColumnStatistics", value: object) -> float:
        """P(column = value | column not null): MCV frequency, else 1/NDV."""
        if value is None:
            return 0.0  # x = NULL never holds
        non_null = max(stats.row_count - stats.null_count, 1)
        for common, count in stats.most_common:
            try:
                if common == value:
                    return count / non_null
            except TypeError:  # pragma: no cover - exotic __eq__ only
                continue
        return 1.0 / stats.ndv if stats.ndv else 0.0

    @staticmethod
    def _fraction_below(stats: "ColumnStatistics", value: object) -> Optional[float]:
        """P(column <= value | not null) off the equi-depth histogram edges.

        Each adjacent edge pair holds ~1/bins of the rows, so the fraction of
        edges at or below the literal approximates the CDF.  ``None`` when
        the literal is not comparable to the edges (e.g. a string literal
        against a numeric column).
        """
        edges = stats.histogram
        if len(edges) < 2:
            return None
        try:
            at_or_below = sum(1 for edge in edges if edge <= value)
        except TypeError:
            return None
        return _clamp((at_or_below - 0.5) / (len(edges) - 1))

    # -- cardinality ---------------------------------------------------------

    def join_cardinality(
        self,
        left_rows: float,
        right_rows: float,
        left_key: ResolvedColumn,
        right_key: ResolvedColumn,
    ) -> float:
        """Containment estimate: ``|L| * |R| / max(ndv(l), ndv(r), 1)``."""
        denominator = 1.0
        for key in (left_key, right_key):
            stats = self.column_stats(key)
            if stats is not None and stats.ndv:
                denominator = max(denominator, float(stats.ndv))
        return left_rows * right_rows / denominator

    def cardinality(self, node: PlanNode) -> float:
        """Estimated output row count of ``node``."""
        if isinstance(node, Scan):
            rows = self.table_row_count(node.table)
            return rows if rows is not None else DEFAULT_ROW_COUNT
        if isinstance(node, Sample):
            return max(self.cardinality(node.child) * node.fraction, 1.0)
        if isinstance(node, Filter):
            return self.cardinality(node.child) * self.selectivity(node.predicate)
        if isinstance(node, Join):
            return self.join_cardinality(
                self.cardinality(node.left),
                self.cardinality(node.right),
                node.left_key,
                node.right_key,
            )
        if isinstance(node, Aggregate):
            child = self.cardinality(node.child)
            if not node.keys:
                return 1.0 if child >= 1.0 else child
            groups = 1.0
            for key in node.keys:
                if isinstance(key, BinKey):
                    groups *= BIN_GROUP_ESTIMATE
                else:
                    stats = self.column_stats(key)
                    if stats is None:
                        groups *= DEFAULT_GROUP_NDV
                    else:
                        groups *= stats.ndv + (1 if stats.null_count else 0)
            return min(child, groups)
        if isinstance(node, Limit):
            return min(self.cardinality(node.child), float(node.count))
        if isinstance(node, (Bin, Project, Sort)):
            return self.cardinality(node.child)
        return DEFAULT_ROW_COUNT  # pragma: no cover - exhaustive above

    # -- cost ----------------------------------------------------------------

    def cost(self, node: PlanNode) -> float:
        """Cumulative unitless cost (row touches) of executing ``node``."""
        if isinstance(node, Scan):
            return self.cardinality(node)
        if isinstance(node, Sample):
            return self.cost(node.child) + self.cardinality(node)
        if isinstance(node, (Filter, Bin, Project, Aggregate)):
            return self.cost(node.child) + self.cardinality(node.child)
        if isinstance(node, Join):
            left_rows = self.cardinality(node.left)
            right_rows = self.cardinality(node.right)
            children = self.cost(node.left) + self.cost(node.right)
            if node.strategy == HASH:
                return children + left_rows + right_rows + self.cardinality(node)
            return children + left_rows * right_rows
        if isinstance(node, (Sort, Limit)):
            rows = self.cardinality(node.child)
            return self.cost(node.child) + rows * math.log2(rows + 2.0)
        return self.cardinality(node)  # pragma: no cover - exhaustive above

    def annotate(self, node: PlanNode) -> str:
        """The ``explain`` annotation for one node."""
        return f"rows~{self.cardinality(node):.0f} cost~{self.cost(node):.0f}"


def as_cost_model(statistics: Union[CostModel, "Database"]) -> CostModel:
    """Accept a prebuilt :class:`CostModel` or a database to wrap one around."""
    if isinstance(statistics, CostModel):
        return statistics
    return CostModel(statistics)
