"""Composition of a DVQ from question signals, schema links and a structure prior.

The composer is shared by the baseline models and by the simulated LLM's
generation behaviour.  Callers control the two ingredients the paper identifies
as the robustness bottleneck:

* the :class:`~repro.linking.SchemaLinker` used to ground phrases (lexical for
  the baselines, semantic for GRED), and
* the fallback vocabulary used when grounding fails (training-set column names
  for the baselines — reproducing their "memorised schema" failure mode — or a
  retrieved template's columns for GRED, which the debugger later repairs).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.database.schema import DatabaseSchema
from repro.dvq.nodes import (
    AggregateExpr,
    AggregateFunction,
    BinClause,
    BinUnit,
    ChartType,
    ColumnRef,
    Condition,
    DVQuery,
    OrderClause,
    SelectItem,
    SortDirection,
    WhereClause,
)
from repro.linking.linker import SchemaLinker
from repro.nlu.conditions import ConditionExtractor, ExtractedCondition
from repro.nlu.question import QuestionInterpreter, QuestionSignals

_X_MARKERS = ["for each", "for every", "per", "over the", "over", "by"]
_AGG_MARKERS = [
    "average of", "mean", "sum of", "total of", "combined", "number of",
    "how many", "tally of", "minimum", "maximum", "smallest", "largest",
    "lowest", "highest", "average", "sum",
]
_ORDER_MARKERS = ["sort by", "arrange by", "organize by", "order by", "rank by"]
_GROUP_MARKERS = [
    "group by attribute", "grouped by", "broken down by",
    "aggregated for every", "aggregated for each",
]
_COLOR_MARKERS = ["colored by", "coloured by"]
_BIN_MARKERS = ["bin", "bucket", "split"]


@dataclass
class StructurePrior:
    """Fallback structure used when the question under-specifies the query."""

    chart_type: Optional[ChartType] = None
    aggregate: Optional[AggregateFunction] = None
    table: Optional[str] = None
    x_column: Optional[str] = None
    y_column: Optional[str] = None
    group_columns: Sequence[str] = ()
    order_direction: Optional[SortDirection] = None
    bin_unit: Optional[BinUnit] = None

    @classmethod
    def from_query(cls, query: DVQuery) -> "StructurePrior":
        """Extract a prior from an existing DVQ (a retrieved prototype)."""
        aggregate = None
        y_column = None
        if isinstance(query.y.expr, AggregateExpr):
            aggregate = query.y.expr.function
            y_column = query.y.expr.argument.column
        else:
            y_column = query.y.expr.column
        return cls(
            chart_type=query.chart_type,
            aggregate=aggregate,
            table=query.table,
            x_column=query.x.column.column if query.x.column.column != "*" else None,
            y_column=y_column,
            group_columns=[column.column for column in query.group_by],
            order_direction=query.order_by.direction if query.order_by else None,
            bin_unit=query.bin.unit if query.bin else None,
        )


class QueryComposer:
    """Builds a DVQ from a question, a schema, and an optional structure prior."""

    def __init__(
        self,
        linker: SchemaLinker,
        interpreter: Optional[QuestionInterpreter] = None,
        extractor: Optional[ConditionExtractor] = None,
        allowed_columns: Optional[Sequence[str]] = None,
    ):
        self.linker = linker
        self.interpreter = interpreter or QuestionInterpreter()
        self.extractor = extractor or ConditionExtractor()
        self.allowed_columns = (
            {column.lower() for column in allowed_columns} if allowed_columns else None
        )

    # -- phrase extraction --------------------------------------------------

    def _phrase_after(self, text: str, marker: str, max_words: int = 4) -> Optional[str]:
        index = text.find(marker)
        if index < 0:
            return None
        tail = text[index + len(marker):]
        tail = re.split(
            r"[,.!?]| in | using | from | with | by | over | for each | for every | per | — ",
            tail,
        )[0]
        words = tail.strip().split()
        filtered = [word for word in words if word not in ("the", "a", "an", "of", "attribute")]
        return " ".join(filtered[:max_words]) if filtered else None

    def _link(self, phrase: Optional[str], schema: DatabaseSchema,
              preferred_table: Optional[str], fallback: Optional[str]) -> Optional[str]:
        """Ground a phrase to a column name, honouring the allowed vocabulary."""
        if phrase:
            candidate = self.linker.best_column(phrase, schema, preferred_table=preferred_table)
            if candidate is not None and self._allowed(candidate.column):
                return candidate.column
        if fallback:
            return fallback
        if phrase:
            candidate = self.linker.best_column(phrase, schema, preferred_table=preferred_table)
            if candidate is not None:
                return candidate.column
        return None

    def _allowed(self, column: str) -> bool:
        if self.allowed_columns is None:
            return True
        return column.lower() in self.allowed_columns

    # -- composition ----------------------------------------------------------

    def compose(
        self,
        question: str,
        schema: DatabaseSchema,
        prior: Optional[StructurePrior] = None,
        signals: Optional[QuestionSignals] = None,
    ) -> DVQuery:
        """Compose a DVQ for ``question`` against ``schema``."""
        prior = prior or StructurePrior()
        text = " ".join(question.lower().split())
        signals = signals or self.interpreter.interpret(question)

        chart_type = signals.chart_type or prior.chart_type or ChartType.BAR
        aggregate = signals.aggregate or prior.aggregate

        table = self._choose_table(text, schema, prior)
        x_column = self._choose_x(text, schema, table, prior)
        y_column, aggregate = self._choose_y(text, schema, table, prior, aggregate, x_column)
        if x_column is None:
            x_column = prior.x_column or (schema.table(table).columns[0].name if schema.has_table(table) else "unknown")
        if y_column is None:
            y_column = prior.y_column or x_column

        select: List[SelectItem] = [SelectItem(ColumnRef(column=x_column))]
        if aggregate is not None:
            select.append(
                SelectItem(AggregateExpr(function=aggregate, argument=ColumnRef(column=y_column)))
            )
        else:
            select.append(SelectItem(ColumnRef(column=y_column)))

        group_columns = self._choose_groups(text, schema, table, prior, chart_type, x_column,
                                            aggregate)
        color_column = self._choose_color(text, schema, table)
        if color_column and chart_type.is_grouped:
            select.append(SelectItem(ColumnRef(column=color_column)))
            if color_column.lower() not in [column.lower() for column in group_columns]:
                group_columns.append(color_column)

        where = self._choose_where(question, schema, table, prior)
        order = self._choose_order(text, schema, table, signals, prior, x_column, y_column, aggregate)
        bin_clause = self._choose_bin(text, signals, prior, x_column)
        if bin_clause is not None:
            group_columns = [column for column in group_columns if column.lower() != x_column.lower()]

        return DVQuery(
            chart_type=chart_type,
            select=tuple(select),
            table=table,
            where=where,
            group_by=tuple(ColumnRef(column=column) for column in group_columns),
            order_by=order,
            bin=bin_clause,
        )

    # -- slot choosers ----------------------------------------------------------

    def _choose_table(self, text: str, schema: DatabaseSchema, prior: StructurePrior) -> str:
        if prior.table and schema.has_table(prior.table):
            return schema.table(prior.table).name
        for marker in ("from table ", "based on the ", "using the records of the ", "records of the "):
            phrase = self._phrase_after(text, marker, max_words=2)
            if phrase:
                for table in schema.tables:
                    if self.linker.score_phrase(phrase.split(), table.name) >= 0.5:
                        return table.name
        # the table whose columns best match the question
        links = self.linker.question_links(text, schema, top_k=6)
        best_table = None
        best_score = -1.0
        for table in schema.tables:
            score = 0.0
            for candidate in links:
                if candidate.table.lower() == table.name.lower():
                    score += candidate.score
            if score > best_score:
                best_score = score
                best_table = table.name
        if best_table is not None:
            return best_table
        return prior.table or schema.tables[0].name

    def _choose_x(self, text: str, schema: DatabaseSchema, table: str,
                  prior: StructurePrior) -> Optional[str]:
        for marker in _X_MARKERS:
            phrase = self._phrase_after(text, f"{marker} ", max_words=3)
            if phrase:
                column = self._link(phrase, schema, table, None)
                if column:
                    return column
        return self._link(None, schema, table, prior.x_column)

    def _choose_y(self, text: str, schema: DatabaseSchema, table: str, prior: StructurePrior,
                  aggregate: Optional[AggregateFunction], x_column: Optional[str]):
        phrase = None
        for marker in _AGG_MARKERS:
            phrase = self._phrase_after(text, f"{marker} ", max_words=3)
            if phrase:
                break
        column = self._link(phrase, schema, table, prior.y_column)
        if aggregate is AggregateFunction.COUNT and column is None:
            column = x_column
        if column is None and phrase is None:
            # non-aggregated y (scatter): second best linked column
            links = self.linker.question_links(text, schema, top_k=4)
            for candidate in links:
                if x_column is None or candidate.column.lower() != x_column.lower():
                    if self._allowed(candidate.column):
                        column = candidate.column
                        break
        return column, aggregate

    def _choose_groups(self, text: str, schema: DatabaseSchema, table: str, prior: StructurePrior,
                       chart_type: ChartType, x_column: str,
                       aggregate: Optional[AggregateFunction]) -> List[str]:
        groups: List[str] = []
        for marker in _GROUP_MARKERS:
            phrase = self._phrase_after(text, f"{marker} ", max_words=4)
            if not phrase:
                continue
            for part in re.split(r"\s+and\s+", phrase):
                column = self._link(part.strip(), schema, table, None)
                if column and column.lower() not in [existing.lower() for existing in groups]:
                    groups.append(column)
            break
        if not groups and (aggregate is not None):
            if prior.group_columns:
                groups = [
                    self._link(column, schema, table, column) or column
                    for column in prior.group_columns
                ]
            elif aggregate is not None and x_column:
                groups = [x_column]
        if aggregate is not None and x_column and not groups:
            groups = [x_column]
        return groups

    def _choose_color(self, text: str, schema: DatabaseSchema, table: str) -> Optional[str]:
        for marker in _COLOR_MARKERS:
            phrase = self._phrase_after(text, f"{marker} ", max_words=3)
            if phrase:
                return self._link(phrase, schema, table, None)
        return None

    def _choose_where(self, question: str, schema: DatabaseSchema, table: str,
                      prior: StructurePrior) -> Optional[WhereClause]:
        extracted = self.extractor.extract(question)
        if not extracted:
            return None
        conditions: List[Condition] = []
        connectors: List[str] = []
        for index, item in enumerate(extracted):
            column = self._link(item.column_phrase, schema, table, None)
            if column is None:
                column = item.column_phrase.replace(" ", "_")
            conditions.append(self._to_condition(item, column))
            if index > 0:
                connectors.append(item.connector)
        return WhereClause(conditions=tuple(conditions), connectors=tuple(connectors))

    def _to_condition(self, item: ExtractedCondition, column: str) -> Condition:
        operator = item.operator
        negated = False
        if operator == "IS NOT NULL":
            operator = "IS NULL"
            negated = True
        value = self._coerce_value(item.value)
        value2 = self._coerce_value(item.value2)
        return Condition(
            column=ColumnRef(column=column),
            operator=operator,
            value=value,
            value2=value2,
            negated=negated,
        )

    @staticmethod
    def _coerce_value(value: Optional[str]):
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return value.strip("'\"")

    def _choose_order(self, text: str, schema: DatabaseSchema, table: str,
                      signals: QuestionSignals, prior: StructurePrior,
                      x_column: str, y_column: str,
                      aggregate: Optional[AggregateFunction]) -> Optional[OrderClause]:
        direction = signals.order_direction
        if direction is None and signals.has_order:
            direction = prior.order_direction
        if direction is None and not signals.has_order:
            return None
        direction = direction or SortDirection.ASC
        target_phrase = None
        for marker in _ORDER_MARKERS:
            target_phrase = self._phrase_after(text, f"{marker} ", max_words=4)
            if target_phrase:
                break
        target_is_aggregate = False
        if target_phrase:
            if any(cue in target_phrase for cue in ("average", "avg", "sum", "count", "number",
                                                    "minimum", "maximum", "min", "max",
                                                    "mean", "total", "tally", "combined",
                                                    "smallest", "largest", "lowest", "highest")):
                target_is_aggregate = True
            column = self._link(target_phrase, schema, table, None)
        else:
            column = None
        if column is None:
            column = x_column
        if target_is_aggregate and aggregate is not None:
            expr = AggregateExpr(function=aggregate, argument=ColumnRef(column=y_column))
            return OrderClause(expr=expr, direction=direction)
        return OrderClause(expr=ColumnRef(column=column), direction=direction)

    def _choose_bin(self, text: str, signals: QuestionSignals, prior: StructurePrior,
                    x_column: str) -> Optional[BinClause]:
        unit = signals.bin_unit or prior.bin_unit
        if unit is None:
            return None
        if signals.bin_unit is None and prior.bin_unit is not None:
            # only honour the prior's bin when the question actually asks for binning
            if not any(marker in text for marker in _BIN_MARKERS):
                return None
        return BinClause(column=ColumnRef(column=x_column), unit=unit)
