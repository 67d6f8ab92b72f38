"""Shared interface and sketch utilities for the baseline models."""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence

from repro.database.catalog import Catalog
from repro.database.database import Database
from repro.dvq.nodes import (
    AggregateExpr,
    AggregateFunction,
    BinUnit,
    ChartType,
    DVQuery,
    SortDirection,
)
from repro.dvq.normalize import try_parse
from repro.nvbench.example import NVBenchExample
from repro.nlu.question import QuestionSignals

#: Head names used by the sketch classifiers.
HEAD_CHART = "chart_type"
HEAD_AGGREGATE = "aggregate"
HEAD_ORDER = "order_direction"
HEAD_GROUP = "has_group"
HEAD_BIN = "bin_unit"

NONE_LABEL = "NONE"


def sketch_targets(dvq_text: str) -> Optional[Dict[str, str]]:
    """Extract the sketch labels of a gold DVQ (training targets for the heads)."""
    query = try_parse(dvq_text)
    return None if query is None else query_sketch(query)


def query_sketch(query: DVQuery) -> Dict[str, str]:
    """The sketch labels of a parsed gold DVQ."""
    aggregate = NONE_LABEL
    if isinstance(query.y.expr, AggregateExpr):
        aggregate = query.y.expr.function.value
    order = NONE_LABEL
    if query.order_by is not None:
        order = query.order_by.direction.value
    bin_label = NONE_LABEL
    if query.bin is not None:
        bin_label = query.bin.unit.value
    return {
        HEAD_CHART: query.chart_type.value,
        HEAD_AGGREGATE: aggregate,
        HEAD_ORDER: order,
        HEAD_GROUP: "YES" if query.group_by else "NO",
        HEAD_BIN: bin_label,
    }


def signals_from_sketch(sketch: Dict[str, str]) -> QuestionSignals:
    """Convert predicted sketch labels into :class:`QuestionSignals`."""
    chart = sketch.get(HEAD_CHART)
    aggregate = sketch.get(HEAD_AGGREGATE, NONE_LABEL)
    order = sketch.get(HEAD_ORDER, NONE_LABEL)
    bin_label = sketch.get(HEAD_BIN, NONE_LABEL)
    return QuestionSignals(
        chart_type=ChartType.from_text(chart) if chart else None,
        aggregate=AggregateFunction(aggregate) if aggregate != NONE_LABEL else None,
        has_order=order != NONE_LABEL,
        order_direction=SortDirection(order) if order != NONE_LABEL else None,
        has_group=sketch.get(HEAD_GROUP, "NO") == "YES",
        bin_unit=BinUnit(bin_label) if bin_label != NONE_LABEL else None,
        mentions_count_of_rows=aggregate == AggregateFunction.COUNT.value,
    )


class TextToVisModel(abc.ABC):
    """The interface every model (baseline or GRED) implements."""

    name: str = "text-to-vis"

    @abc.abstractmethod
    def fit(self, examples: Sequence[NVBenchExample], catalog: Catalog) -> "TextToVisModel":
        """Train / prepare the model on the nvBench training split."""

    @abc.abstractmethod
    def predict(self, nlq: str, database: Database) -> str:
        """Translate a question over ``database`` into a DVQ string."""


def collect_training_columns(queries: Iterable[Optional[DVQuery]]) -> List[str]:
    """Every column name appearing in the parsed training DVQs (a decoder
    vocabulary); ``None`` stands for a training DVQ that does not parse."""
    columns: Dict[str, None] = {}
    for query in queries:
        if query is None:
            continue
        for column in query.referenced_columns():
            if column.column != "*":
                columns.setdefault(column.column, None)
    return list(columns)
