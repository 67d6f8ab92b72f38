"""Programming-style retuning behaviour (the DVQ-Retrieval Retuner's LLM call).

Given a set of reference DVQs drawn from the training corpus and an "original"
DVQ, imitate the references' programming style *without* changing column names:
COUNT(*) becomes COUNT(<x column>) when the corpus counts a column, null checks
follow the corpus convention, and aggregate spellings are normalised.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.dvq.nodes import (
    AggregateExpr,
    AggregateFunction,
    ColumnRef,
    Condition,
    DVQuery,
    SelectItem,
)
from repro.dvq.normalize import try_parse
from repro.dvq.serializer import serialize_dvq
from repro.llm.parsing import parse_retune_prompt


class _StyleVotes(NamedTuple):
    """How one reference DVQ writes COUNT and not-null checks."""

    count_column: int
    count_star: int
    not_null_keyword: int
    not_null_literal: int


def _style_votes(reference: str) -> _StyleVotes:
    parsed = try_parse(reference)
    if parsed is None:
        return _StyleVotes(0, 0, 0, 0)
    count_column = count_star = not_null_keyword = not_null_literal = 0
    for item in parsed.select:
        if isinstance(item.expr, AggregateExpr) and item.expr.function is AggregateFunction.COUNT:
            if item.expr.argument.column == "*":
                count_star += 1
            else:
                count_column += 1
    if parsed.where is not None:
        for condition in parsed.where.conditions:
            if condition.operator.upper() == "IS NULL" and condition.negated:
                not_null_keyword += 1
            if condition.operator == "!=" and isinstance(condition.value, str):
                if condition.value.lower() == "null":
                    not_null_literal += 1
    return _StyleVotes(count_column, count_star, not_null_keyword, not_null_literal)


class RetuneBehaviour:
    """Rewrites a DVQ to follow the reference style."""

    name = "retune"

    def __init__(self) -> None:
        # reference DVQ text -> its style votes; the references are retrieved
        # from the training library, so the texts come from a finite set
        self._votes: Dict[str, _StyleVotes] = {}

    def run(self, prompt: str) -> str:
        references, original = parse_retune_prompt(prompt)
        if not original:
            return ""
        query = try_parse(original)
        if query is None:
            return original
        style = self._reference_style(references)
        retuned = self.retune_query(query, style)
        return serialize_dvq(retuned)

    # -- style inference -----------------------------------------------------

    def _reference_style(self, references: List[str]) -> dict:
        """Summarise the stylistic conventions of the reference DVQs."""
        count_column = count_star = not_null_keyword = not_null_literal = 0
        for reference in references:
            votes = self._votes.get(reference)
            if votes is None:
                votes = self._votes.setdefault(reference, _style_votes(reference))
            count_column += votes.count_column
            count_star += votes.count_star
            not_null_keyword += votes.not_null_keyword
            not_null_literal += votes.not_null_literal
        return {
            "count_uses_column": count_column >= count_star,
            "not_null_uses_keyword": not_null_keyword >= not_null_literal,
        }

    # -- rewriting -------------------------------------------------------------

    def retune_query(self, query: DVQuery, style: dict) -> DVQuery:
        """Apply the inferred style to ``query`` without touching column names."""
        new_select: List[SelectItem] = []
        x_column = query.x.column.column if query.x.column.column != "*" else None
        for item in query.select:
            expr = item.expr
            if (
                isinstance(expr, AggregateExpr)
                and expr.function is AggregateFunction.COUNT
                and expr.argument.column == "*"
                and style.get("count_uses_column", True)
                and x_column is not None
            ):
                expr = AggregateExpr(
                    function=AggregateFunction.COUNT, argument=ColumnRef(column=x_column)
                )
            new_select.append(SelectItem(expr))
        new_where = query.where
        if query.where is not None:
            new_conditions: List[Condition] = []
            for condition in query.where.conditions:
                new_conditions.append(self._retune_condition(condition, style))
            new_where = query.where.__class__(
                conditions=tuple(new_conditions), connectors=query.where.connectors
            )
        new_order = query.order_by
        if query.order_by is not None and isinstance(query.order_by.expr, AggregateExpr):
            order_expr = query.order_by.expr
            if order_expr.argument.column == "*" and x_column is not None:
                new_order = query.order_by.__class__(
                    expr=AggregateExpr(function=order_expr.function, argument=ColumnRef(column=x_column)),
                    direction=query.order_by.direction,
                )
        return query.replace(select=tuple(new_select), where=new_where, order_by=new_order)

    def _retune_condition(self, condition: Condition, style: dict) -> Condition:
        uses_keyword = style.get("not_null_uses_keyword", True)
        if condition.operator == "!=" and isinstance(condition.value, str) and condition.value.lower() == "null":
            if uses_keyword:
                return Condition(column=condition.column, operator="IS NULL", negated=True)
        if condition.operator.upper() == "IS NULL" and condition.negated and not uses_keyword:
            return Condition(column=condition.column, operator="!=", value="null")
        return condition
