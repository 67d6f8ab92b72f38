"""Recursive-descent parser turning DVQ text into a :class:`~repro.dvq.nodes.DVQuery`."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dvq.errors import DVQParseError
from repro.dvq.nodes import (
    AggregateExpr,
    AggregateFunction,
    BinClause,
    BinUnit,
    ChartType,
    ColumnRef,
    Condition,
    DVQuery,
    JoinClause,
    OrderClause,
    SelectExpr,
    SelectItem,
    SortDirection,
    WhereClause,
)
from repro.dvq.tokens import AGGREGATES, Token, TokenType, tokenize


class _TokenStream:
    """A cursor over a token list with convenience accessors."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def expect_keyword(self, *names: str) -> Token:
        token = self.current
        if token.is_keyword(*names):
            return self.advance()
        raise DVQParseError(
            f"Expected keyword {' or '.join(names)}, found {token.lexeme!r}", token=token
        )

    def expect(self, token_type: TokenType) -> Token:
        token = self.current
        if token.type is token_type:
            return self.advance()
        raise DVQParseError(
            f"Expected {token_type.value}, found {token.lexeme!r}", token=token
        )

    def match_keyword(self, *names: str) -> Optional[Token]:
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def at_end(self) -> bool:
        return self.current.type is TokenType.EOF


def parse_dvq(text: str) -> DVQuery:
    """Parse a DVQ string into an AST.

    Raises:
        DVQParseError: when the text does not conform to the DVQ grammar.
    """
    stream = _TokenStream(tokenize(text))
    stream.expect_keyword("VISUALIZE")
    chart_type = _parse_chart_type(stream)
    stream.expect_keyword("SELECT")
    select = _parse_select_list(stream)
    stream.expect_keyword("FROM")
    table, table_alias = _parse_table_reference(stream)
    joins = _parse_joins(stream)
    where = _parse_where(stream)
    group_by = _parse_group_by(stream)
    order_by = _parse_order_by(stream)
    bin_clause = _parse_bin(stream)
    limit = _parse_limit(stream)
    # clauses may legitimately appear in either order in nvBench-style queries
    if where is None and stream.current.is_keyword("WHERE"):
        where = _parse_where(stream)
    if order_by is None and stream.current.is_keyword("ORDER"):
        order_by = _parse_order_by(stream)
    if bin_clause is None and stream.current.is_keyword("BIN"):
        bin_clause = _parse_bin(stream)
    if not group_by and stream.current.is_keyword("GROUP"):
        group_by = _parse_group_by(stream)
    if limit is None and stream.current.is_keyword("LIMIT"):
        limit = _parse_limit(stream)
    if not stream.at_end():
        raise DVQParseError(
            f"Unexpected trailing input starting at {stream.current.lexeme!r}",
            token=stream.current,
        )
    return DVQuery(
        chart_type=chart_type,
        select=tuple(select),
        table=table,
        table_alias=table_alias,
        joins=tuple(joins),
        where=where,
        group_by=tuple(group_by),
        order_by=order_by,
        bin=bin_clause,
        limit=limit,
    )


def _parse_chart_type(stream: _TokenStream) -> ChartType:
    first = stream.advance()
    if first.type is not TokenType.KEYWORD:
        raise DVQParseError(f"Expected a chart type, found {first.lexeme!r}", token=first)
    text = first.lexeme
    if first.value in ("STACKED", "GROUPING"):
        text = f"{text} {stream.advance().lexeme}".rstrip()
    try:
        return ChartType.from_text(text)
    except ValueError:
        # any keyword that is not a chart type (SELECT, a bare STACKED, ...)
        raise DVQParseError(f"Expected a chart type, found {text!r}", token=first) from None


def _parse_select_list(stream: _TokenStream) -> List[SelectItem]:
    items = [SelectItem(_parse_select_expr(stream))]
    while stream.current.type is TokenType.COMMA:
        stream.advance()
        items.append(SelectItem(_parse_select_expr(stream)))
    return items


def _parse_select_expr(stream: _TokenStream) -> SelectExpr:
    token = stream.current
    if token.type is TokenType.KEYWORD and token.value in AGGREGATES:
        stream.advance()
        stream.expect(TokenType.LPAREN)
        distinct = stream.match_keyword("DISTINCT") is not None
        argument = _parse_column_ref(stream, allow_star=True)
        stream.expect(TokenType.RPAREN)
        return AggregateExpr(
            function=AggregateFunction(token.value), argument=argument, distinct=distinct
        )
    return _parse_column_ref(stream, allow_star=True)


def _parse_column_ref(stream: _TokenStream, allow_star: bool = False) -> ColumnRef:
    token = stream.current
    if token.type is TokenType.STAR and allow_star:
        stream.advance()
        return ColumnRef(column="*")
    if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
        raise DVQParseError(f"Expected a column name, found {token.lexeme!r}", token=token)
    stream.advance()
    name = token.lexeme
    if stream.current.type is TokenType.DOT:
        stream.advance()
        column_token = stream.current
        if column_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise DVQParseError(
                f"Expected a column name after '.', found {column_token.lexeme!r}",
                token=column_token,
            )
        stream.advance()
        return ColumnRef(column=column_token.lexeme, table=name)
    return ColumnRef(column=name)


def _parse_table_reference(stream: _TokenStream) -> Tuple[str, Optional[str]]:
    token = stream.current
    if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
        raise DVQParseError(f"Expected a table name, found {token.lexeme!r}", token=token)
    stream.advance()
    alias = None
    if stream.match_keyword("AS"):
        alias_token = stream.expect(TokenType.IDENTIFIER)
        alias = alias_token.lexeme
    return token.lexeme, alias


def _parse_joins(stream: _TokenStream) -> List[JoinClause]:
    joins: List[JoinClause] = []
    while stream.current.is_keyword("JOIN"):
        stream.advance()
        table, alias = _parse_table_reference(stream)
        stream.expect_keyword("ON")
        left = _parse_column_ref(stream)
        operator = stream.expect(TokenType.OPERATOR)
        if operator.value != "=":
            raise DVQParseError("Joins must be equi-joins", token=operator)
        right = _parse_column_ref(stream)
        joins.append(JoinClause(table=table, left=left, right=right, alias=alias))
    return joins


def _parse_where(stream: _TokenStream) -> Optional[WhereClause]:
    if not stream.match_keyword("WHERE"):
        return None
    conditions = [_parse_condition(stream)]
    connectors: List[str] = []
    while stream.current.is_keyword("AND", "OR"):
        # `BETWEEN x AND y` consumes its own AND inside _parse_condition, so an
        # AND seen here is always a connector.
        connectors.append(stream.advance().value)
        conditions.append(_parse_condition(stream))
    return WhereClause(conditions=tuple(conditions), connectors=tuple(connectors))


def _parse_condition(stream: _TokenStream) -> Condition:
    column = _parse_column_ref(stream)
    token = stream.current
    if token.is_keyword("NOT"):
        stream.advance()
        follow = stream.current
        if follow.is_keyword("IN"):
            stream.advance()
            values = _parse_value_list(stream)
            return Condition(column=column, operator="IN", value=tuple(values), negated=True)
        if follow.is_keyword("LIKE"):
            stream.advance()
            value = _parse_literal(stream)
            return Condition(column=column, operator="LIKE", value=value, negated=True)
        raise DVQParseError(f"Unsupported NOT {follow.lexeme!r} condition", token=follow)
    if token.is_keyword("IS"):
        stream.advance()
        negated = stream.match_keyword("NOT") is not None
        stream.expect_keyword("NULL")
        return Condition(column=column, operator="IS NULL", negated=negated)
    if token.is_keyword("BETWEEN"):
        stream.advance()
        low = _parse_literal(stream)
        stream.expect_keyword("AND")
        high = _parse_literal(stream)
        return Condition(column=column, operator="BETWEEN", value=low, value2=high)
    if token.is_keyword("IN"):
        stream.advance()
        values = _parse_value_list(stream)
        return Condition(column=column, operator="IN", value=tuple(values))
    if token.is_keyword("LIKE"):
        stream.advance()
        value = _parse_literal(stream)
        return Condition(column=column, operator="LIKE", value=value)
    if token.type is TokenType.OPERATOR:
        stream.advance()
        value = _parse_literal(stream)
        operator = "!=" if token.value == "<>" else token.value
        return Condition(column=column, operator=operator, value=value)
    raise DVQParseError(f"Expected a comparison operator, found {token.lexeme!r}", token=token)


def _parse_value_list(stream: _TokenStream) -> List[object]:
    stream.expect(TokenType.LPAREN)
    values = [_parse_literal(stream)]
    while stream.current.type is TokenType.COMMA:
        stream.advance()
        values.append(_parse_literal(stream))
    stream.expect(TokenType.RPAREN)
    return values


def _parse_literal(stream: _TokenStream) -> object:
    token = stream.current
    if token.type is TokenType.NUMBER:
        stream.advance()
        if "." in token.value:
            return float(token.value)
        return int(token.value)
    if token.type is TokenType.STRING:
        stream.advance()
        return token.value
    if token.is_keyword("NULL"):
        stream.advance()
        return None
    if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
        # bare-word literals occur in nvBench-style queries (e.g. = Finance)
        stream.advance()
        return token.lexeme
    raise DVQParseError(f"Expected a literal value, found {token.lexeme!r}", token=token)


def _parse_group_by(stream: _TokenStream) -> List[ColumnRef]:
    if not stream.current.is_keyword("GROUP"):
        return []
    stream.advance()
    stream.expect_keyword("BY")
    columns = [_parse_column_ref(stream)]
    while stream.current.type is TokenType.COMMA:
        stream.advance()
        columns.append(_parse_column_ref(stream))
    return columns


def _parse_order_by(stream: _TokenStream) -> Optional[OrderClause]:
    if not stream.current.is_keyword("ORDER"):
        return None
    stream.advance()
    stream.expect_keyword("BY")
    expr = _parse_select_expr(stream)
    direction = SortDirection.ASC
    if stream.current.is_keyword("ASC", "DESC"):
        direction = SortDirection(stream.advance().value)
    return OrderClause(expr=expr, direction=direction)


def _parse_limit(stream: _TokenStream) -> Optional[int]:
    if not stream.current.is_keyword("LIMIT"):
        return None
    keyword = stream.advance()
    token = stream.expect(TokenType.NUMBER)
    if "." in token.value or token.value.startswith("-"):
        raise DVQParseError(
            f"LIMIT expects a non-negative integer, found {token.lexeme!r}", token=keyword
        )
    return int(token.value)


def _parse_bin(stream: _TokenStream) -> Optional[BinClause]:
    if not stream.current.is_keyword("BIN"):
        return None
    stream.advance()
    column = _parse_column_ref(stream)
    stream.expect_keyword("BY")
    unit_token = stream.advance()
    try:
        unit = BinUnit(unit_token.value.upper())
    except ValueError as exc:
        raise DVQParseError(f"Unknown bin unit {unit_token.lexeme!r}", token=unit_token) from exc
    return BinClause(column=column, unit=unit)
