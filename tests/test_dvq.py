"""Tests for the DVQ language toolchain (tokenizer, parser, serializer, components)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dvq import (
    ChartType,
    DVQParseError,
    DVQTokenizeError,
    extract_components,
    normalize_dvq_text,
    parse_dvq,
    queries_match,
    serialize_dvq,
    tokenize,
)
from repro.dvq.nodes import (
    AggregateExpr,
    AggregateFunction,
    BinClause,
    BinUnit,
    ColumnRef,
    Condition,
    DVQuery,
    OrderClause,
    SelectItem,
    SortDirection,
    WhereClause,
)
from repro.dvq.tokens import TokenType
from repro.evaluation.metrics import evaluate_predictions

SIMPLE = "Visualize BAR SELECT JOB_ID , AVG(MANAGER_ID) FROM employees GROUP BY JOB_ID"
COMPLEX = (
    "Visualize BAR SELECT JOB_ID , AVG(MANAGER_ID) FROM employees "
    "WHERE salary BETWEEN 8000 AND 12000 AND commission_pct != 'null' OR department_id != 40 "
    "GROUP BY JOB_ID ORDER BY JOB_ID ASC"
)


class TestTokenizer:
    def test_simple_token_stream_ends_with_eof(self):
        tokens = tokenize(SIMPLE)
        assert tokens[-1].type is TokenType.EOF

    def test_keywords_are_uppercased(self):
        tokens = tokenize("visualize bar select a from t")
        assert tokens[0].value == "VISUALIZE"
        assert tokens[0].lexeme == "visualize"

    def test_identifiers_preserve_case(self):
        tokens = tokenize("Visualize BAR SELECT Dept_ID FROM employees")
        identifiers = [t for t in tokens if t.type is TokenType.IDENTIFIER]
        assert identifiers[0].lexeme == "Dept_ID"

    def test_string_literal(self):
        tokens = tokenize("WHERE name = 'Finance'")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert strings[0].value == "Finance"

    def test_unterminated_string_raises(self):
        with pytest.raises(DVQTokenizeError):
            tokenize("WHERE name = 'Finance")

    def test_unexpected_character_raises(self):
        with pytest.raises(DVQTokenizeError):
            tokenize("SELECT a ; b")

    def test_numbers_and_operators(self):
        tokens = tokenize("WHERE x >= 12.5")
        assert any(t.type is TokenType.NUMBER and t.value == "12.5" for t in tokens)
        assert any(t.type is TokenType.OPERATOR and t.value == ">=" for t in tokens)

    def test_none_input_raises(self):
        with pytest.raises(DVQTokenizeError):
            tokenize(None)


class TestParser:
    def test_parses_chart_type(self):
        assert parse_dvq(SIMPLE).chart_type is ChartType.BAR

    def test_parses_two_word_chart_type(self):
        query = parse_dvq("Visualize STACKED BAR SELECT a , SUM(b) FROM t GROUP BY a")
        assert query.chart_type is ChartType.STACKED_BAR

    def test_parses_aggregate(self):
        query = parse_dvq(SIMPLE)
        assert isinstance(query.y.expr, AggregateExpr)
        assert query.y.expr.function is AggregateFunction.AVG

    def test_parses_where_connectors(self):
        query = parse_dvq(COMPLEX)
        assert len(query.where.conditions) == 3
        assert list(query.where.connectors) == ["AND", "OR"]

    def test_parses_between(self):
        query = parse_dvq(COMPLEX)
        condition = query.where.conditions[0]
        assert condition.operator == "BETWEEN"
        assert (condition.value, condition.value2) == (8000, 12000)

    def test_parses_order_direction(self):
        query = parse_dvq(COMPLEX)
        assert query.order_by.direction is SortDirection.ASC

    def test_parses_bin_clause(self):
        query = parse_dvq("Visualize LINE SELECT d , AVG(v) FROM t BIN d BY YEAR")
        assert query.bin.unit is BinUnit.YEAR

    def test_parses_join(self):
        query = parse_dvq(
            "Visualize BAR SELECT a , COUNT(a) FROM t1 JOIN t2 ON t1.id = t2.id GROUP BY a"
        )
        assert query.joins[0].table == "t2"

    def test_parses_count_star(self):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(*) FROM t GROUP BY a")
        assert query.y.expr.argument.column == "*"

    def test_parses_count_distinct(self):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(DISTINCT b) FROM t GROUP BY a")
        assert query.y.expr.distinct is True

    def test_parses_is_not_null(self):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t WHERE b IS NOT NULL GROUP BY a")
        condition = query.where.conditions[0]
        assert condition.operator == "IS NULL" and condition.negated

    def test_parses_in_list(self):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t WHERE b IN ( 1 , 2 ) GROUP BY a")
        assert query.where.conditions[0].value == (1, 2)

    def test_missing_select_raises(self):
        with pytest.raises(DVQParseError):
            parse_dvq("Visualize BAR FROM t")

    def test_trailing_garbage_raises(self):
        with pytest.raises(DVQParseError):
            parse_dvq(SIMPLE + " EXTRA TOKENS HERE")

    def test_unknown_bin_unit_raises(self):
        with pytest.raises(DVQParseError):
            parse_dvq("Visualize LINE SELECT d , AVG(v) FROM t BIN d BY DECADE")

    @pytest.mark.parametrize(
        "text",
        [
            "Visualize SELECT a FROM t",
            "Visualize STACKED SELECT a FROM t",
            "Visualize STACKED",
        ],
    )
    def test_missing_chart_type_raises_parse_error(self, text):
        # a keyword that is not a chart type must fail typed, so evaluation
        # (which catches DVQError) scores the prediction as wrong
        with pytest.raises(DVQParseError):
            parse_dvq(text)
        result = evaluate_predictions([(text, "Visualize BAR SELECT a FROM t")])
        assert result.total == 1
        assert result.overall_accuracy == 0.0


class TestSerializer:
    @pytest.mark.parametrize("text", [SIMPLE, COMPLEX])
    def test_round_trip_is_stable(self, text):
        once = serialize_dvq(parse_dvq(text))
        twice = serialize_dvq(parse_dvq(once))
        assert once == twice

    def test_round_trip_preserves_components(self):
        original = parse_dvq(COMPLEX)
        reparsed = parse_dvq(serialize_dvq(original))
        assert extract_components(original) == extract_components(reparsed)

    def test_serialize_string_literal_quoted(self):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t WHERE b = 'Finance' GROUP BY a")
        assert "'Finance'" in serialize_dvq(query)


class TestComponents:
    def test_vis_component(self):
        assert extract_components(parse_dvq(SIMPLE)).vis.chart_type == "BAR"

    def test_axis_component_is_case_insensitive(self):
        left = extract_components(parse_dvq(SIMPLE))
        right = extract_components(parse_dvq(SIMPLE.replace("JOB_ID", "job_id")))
        assert left.axis == right.axis

    def test_data_component_detects_filter_difference(self):
        left = extract_components(parse_dvq(COMPLEX))
        right = extract_components(parse_dvq(COMPLEX.replace("8000", "9000")))
        assert left.data != right.data

    def test_queries_match_tolerates_whitespace(self):
        assert queries_match(SIMPLE, "  ".join(SIMPLE.split()))

    def test_queries_match_rejects_chart_change(self):
        assert not queries_match(SIMPLE, SIMPLE.replace("BAR", "PIE"))

    def test_unparseable_prediction_only_matches_identical_text(self):
        assert not queries_match("not a query", SIMPLE)
        assert queries_match("not a query", "NOT A QUERY")

    def test_normalize_falls_back_for_garbage(self):
        assert normalize_dvq_text("  garbage   text ") == "GARBAGE TEXT"


# -- property-based tests -----------------------------------------------------

_identifier = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)
_chart = st.sampled_from(list(ChartType))
_aggregate = st.sampled_from(list(AggregateFunction))
_direction = st.sampled_from(list(SortDirection))


@st.composite
def dvq_queries(draw):
    x_column = draw(_identifier)
    y_column = draw(_identifier)
    table = draw(_identifier)
    chart = draw(_chart)
    select = [SelectItem(ColumnRef(column=x_column))]
    if draw(st.booleans()):
        select.append(
            SelectItem(AggregateExpr(function=draw(_aggregate), argument=ColumnRef(column=y_column)))
        )
    else:
        select.append(SelectItem(ColumnRef(column=y_column)))
    where = None
    if draw(st.booleans()):
        where = WhereClause(
            conditions=(
                Condition(
                    column=ColumnRef(column=draw(_identifier)),
                    operator=draw(st.sampled_from(["=", "!=", ">", "<", ">=", "<="])),
                    value=draw(st.integers(min_value=0, max_value=10000)),
                ),
            ),
            connectors=(),
        )
    order = None
    if draw(st.booleans()):
        order = OrderClause(expr=ColumnRef(column=x_column), direction=draw(_direction))
    bin_clause = None
    if draw(st.booleans()):
        bin_clause = BinClause(column=ColumnRef(column=x_column), unit=draw(st.sampled_from(list(BinUnit))))
    group = (ColumnRef(column=x_column),) if draw(st.booleans()) else ()
    return DVQuery(
        chart_type=chart,
        select=tuple(select),
        table=table,
        where=where,
        group_by=group,
        order_by=order,
        bin=bin_clause,
    )


class TestDVQProperties:
    @settings(max_examples=60, deadline=None)
    @given(dvq_queries())
    def test_serialize_parse_round_trip(self, query):
        text = serialize_dvq(query)
        reparsed = parse_dvq(text)
        assert extract_components(reparsed) == extract_components(query)

    @settings(max_examples=60, deadline=None)
    @given(dvq_queries())
    def test_every_query_matches_itself(self, query):
        text = serialize_dvq(query)
        assert queries_match(text, text)

    @settings(max_examples=40, deadline=None)
    @given(dvq_queries())
    def test_referenced_columns_include_select_columns(self, query):
        referenced = {column.column.lower() for column in query.referenced_columns()}
        assert query.x.column.column.lower() in referenced or query.x.column.column == "*"
