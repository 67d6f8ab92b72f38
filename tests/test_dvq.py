"""Tests for the DVQ language toolchain (tokenizer, parser, serializer, components)."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.dvq import (
    ChartType,
    DVQError,
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
from repro.dvq.tokens import KEYWORDS, Token, TokenType
from repro.evaluation.metrics import evaluate_predictions
from repro.robustness.variants import VariantKind

#: A query head that number-literal tests complete with a WHERE / LIMIT tail.
_NUMBER_QUERY = "Visualize BAR SELECT a , COUNT(a) FROM t"

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


def reference_tokenize(text):
    """The per-character tokenizer the compiled pattern replaced: the oracle.

    It reads one character at a time with the ``str`` predicates themselves
    (``isspace``, ``isdecimal``, ``isalpha``, ``isalnum``), so the tests can
    hold ``tokenize`` to the same tokens and the same errors.
    """
    tokens = []
    length = len(text)
    index = 0
    punctuation = {",": TokenType.COMMA, "(": TokenType.LPAREN, ")": TokenType.RPAREN,
                   "*": TokenType.STAR, ".": TokenType.DOT}
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in punctuation:
            tokens.append(Token(punctuation[char], char, char, index))
            index += 1
            continue
        if char in "\"'":
            end = text.find(char, index + 1)
            if end < 0:
                raise DVQTokenizeError(
                    f"Unterminated string literal starting at {index}", position=index, text=text
                )
            tokens.append(Token(TokenType.STRING, text[index + 1:end], text[index:end + 1], index))
            index = end + 1
            continue
        operator = next((op for op in ("<>", "!=", ">=", "<=") if text.startswith(op, index)), None)
        if operator is None and char in "=><+-/%":
            # a leading minus can start a negative number literal
            if not (char == "-" and index + 1 < length and text[index + 1].isdecimal()):
                operator = char
        if operator is not None:
            tokens.append(Token(TokenType.OPERATOR, operator, operator, index))
            index += len(operator)
            continue
        if char.isdecimal() or (char == "-" and index + 1 < length and text[index + 1].isdecimal()):
            start = index
            index += 1
            while index < length and (text[index].isdecimal() or text[index] == "."):
                index += 1
            lexeme = text[start:index]
            if lexeme.count(".") > 1:
                raise DVQTokenizeError(
                    f"Malformed number {lexeme!r} at position {start}", position=start, text=text
                )
            tokens.append(Token(TokenType.NUMBER, lexeme, lexeme, start))
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            lexeme = text[start:index]
            upper = lexeme.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, lexeme, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, lexeme, lexeme, start))
            continue
        raise DVQTokenizeError(
            f"Unexpected character {char!r} at position {index}", position=index, text=text
        )
    tokens.append(Token(TokenType.EOF, "", "", length))
    return tokens


def _lexed(tokenizer, text):
    """The tokens of ``text``, or the error's type, message and position."""
    try:
        return [tuple(token) for token in tokenizer(text)]
    except DVQTokenizeError as error:
        return (type(error), str(error), error.position)


def _assert_lexes_like_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text), repr(text)


#: Characters whose Unicode properties the lexer's classes must get right:
#: dotless i (upper() is "I", so "ın" is the keyword IN), long s (upper()
#: "S"), the Kelvin sign, a superscript two (isdigit, not isdecimal), an
#: Arabic-Indic one (isdecimal) and a no-break space (isspace).
_TRICKY_CHARACTERS = ["\u0131", "\u017f", "\u212a", "\u00b2", "\u0661", "\u00a0"]
#: Each character is lexed alone, after a letter, before a letter, after a
#: digit and after a minus sign.
_CONTEXTS = ["{}", "a{}", "{}a", "1{}", "-{}"]
_ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))


def _class_representatives():
    """The first code point of every (isspace, isdecimal, isdigit, isalpha,
    isalnum, upper() changes) combination that occurs."""
    found = {}
    for char in _ALL_CODE_POINTS:
        key = (char.isspace(), char.isdecimal(), char.isdigit(), char.isalpha(),
               char.isalnum(), char.upper() != char)
        found.setdefault(key, char)
    return sorted(found.values())


class TestLexerOracle:
    def test_every_corpus_dvq_lexes_like_the_reference(self, small_dataset, robustness_suite):
        texts = {example.dvq for example in small_dataset.examples}
        for kind in VariantKind:
            texts.update(example.dvq for example in robustness_suite.variant(kind).examples)
        assert len(texts) > 100
        for text in sorted(texts):
            _assert_lexes_like_reference(text)

    def test_class_patterns_equal_the_str_predicates_on_every_code_point(self):
        # the lexer rests on these three equalities; an ASCII-only class (or a
        # Python whose re disagrees with str) would lex some text differently
        everything = _ALL_CODE_POINTS
        assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]
        assert re.findall(r"\d", everything) == [c for c in everything if c.isdecimal()]
        assert re.findall(r"\w", everything) == [c for c in everything
                                                 if c.isalnum() or c == "_"]

    def test_every_character_class_lexes_like_the_reference(self):
        characters = _class_representatives() + _TRICKY_CHARACTERS
        assert len(characters) >= 10
        for char in characters:
            for context in _CONTEXTS:
                _assert_lexes_like_reference(context.format(char))

    def test_dotless_i_spells_a_keyword(self):
        tokens = tokenize("a \u0131n ( 1 )")
        assert tokens[1] == Token(TokenType.KEYWORD, "IN", "\u0131n", 2)

    def test_token_is_a_value(self):
        token = tokenize("select")[0]
        assert token == Token(TokenType.KEYWORD, "SELECT", "select", 0)
        assert token.is_keyword("FROM", "SELECT") and not token.is_keyword("FROM")

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        list(",()*.\"' <>=!+-/%_\t\naZ09") + _TRICKY_CHARACTERS + ["\u00bd", "\u00e9"]),
        max_size=14))
    def test_random_text_lexes_like_the_reference(self, text):
        _assert_lexes_like_reference(text)


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

    @pytest.mark.parametrize(
        "text",
        [
            _NUMBER_QUERY + " WHERE b = 1.2.3 GROUP BY a",
            _NUMBER_QUERY + " WHERE b = 1.. GROUP BY a",
            _NUMBER_QUERY + " WHERE b = \u00b2 GROUP BY a",
            _NUMBER_QUERY + " WHERE b = -\u00b2 GROUP BY a",
            _NUMBER_QUERY + " WHERE b = \u2078.1 GROUP BY a",
            _NUMBER_QUERY + " WHERE b = 1\u00b2 GROUP BY a",
            _NUMBER_QUERY + " WHERE b BETWEEN 1 AND 2.3.4 GROUP BY a",
            _NUMBER_QUERY + " WHERE b IN ( 1 , \u00b3 ) GROUP BY a",
            _NUMBER_QUERY + " GROUP BY a LIMIT \u00b2",
        ],
    )
    def test_malformed_number_raises_dvq_error(self, text):
        # int()/float() reject these lexemes; the tokenizer must too, so a
        # malformed prediction scores 0 instead of aborting the evaluation
        with pytest.raises(DVQError):
            parse_dvq(text)
        result = evaluate_predictions([(text, "Visualize BAR SELECT a FROM t")])
        assert result.total == 1
        assert result.overall_accuracy == 0.0

    @pytest.mark.parametrize("tail", ["WHERE b = {} GROUP BY a", "GROUP BY a LIMIT {}"])
    def test_overlong_integer_literal_fails_typed(self, tail):
        # int() refuses more than sys.get_int_max_str_digits() digits (4,300
        # by default); where it does, parsing must raise a DVQError
        text = f"{_NUMBER_QUERY} {tail.format('1' * 5000)}"
        try:
            parse_dvq(text)
        except DVQError:
            pass
        result = evaluate_predictions([(text, "Visualize BAR SELECT a FROM t")])
        assert result.total == 1
        assert result.overall_accuracy == 0.0

    @pytest.mark.parametrize(
        "literal, value", [("\u0661\u0662", 12), ("5.", 5.0), ("-7", -7), ("-0.5", -0.5)]
    )
    def test_decimal_number_forms_parse(self, literal, value):
        query = parse_dvq(f"{_NUMBER_QUERY} WHERE b = {literal} GROUP BY a")
        parsed = query.where.conditions[0].value
        assert parsed == value and type(parsed) is type(value)


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

    def test_small_float_serializes_positionally(self):
        # str(0.00001) is "1e-05", which the parser rejected as trailing input
        text = f"{_NUMBER_QUERY} WHERE c = 0.00001 GROUP BY a"
        query = parse_dvq(text)
        assert serialize_dvq(query) == text
        assert normalize_dvq_text(text) == text

    def test_string_holding_a_single_quote_serializes_double_quoted(self):
        # 'O'Brien' would read as an unterminated string
        text = f'{_NUMBER_QUERY} WHERE c = "O\'Brien" GROUP BY a'
        query = parse_dvq(text)
        assert query.where.conditions[0].value == "O'Brien"
        assert serialize_dvq(query) == text
        assert parse_dvq(serialize_dvq(query)) == query


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


#: Characters that ``str.isdigit`` accepts but ``int()`` / ``float()`` reject
#: (superscripts, circled digits, ...): the number lexer must not take them.
_NON_DECIMAL_DIGITS = [
    chr(code) for code in range(sys.maxunicode + 1)
    if chr(code).isdigit() and not chr(code).isdecimal()
]

_number_like = st.text(
    alphabet=st.one_of(
        st.sampled_from("0123456789"),
        st.sampled_from([chr(code) for code in range(0x0660, 0x066A)]),  # Arabic-Indic
        st.sampled_from(_NON_DECIMAL_DIGITS),
        st.sampled_from(".-"),
    ),
    min_size=1,
    max_size=6,
)

#: Every literal position a number can take, filled from ``_number_like``.
_NUMBER_POSITIONS = [
    _NUMBER_QUERY + " WHERE b = {} GROUP BY a",
    _NUMBER_QUERY + " WHERE b BETWEEN {} AND {} GROUP BY a",
    _NUMBER_QUERY + " WHERE b IN ( {} , {} ) GROUP BY a",
    _NUMBER_QUERY + " GROUP BY a LIMIT {}",
]


#: What a corrupted DVQ can gain: the lexer's tricky code points and the
#: grammar's punctuation.
_INSERTED_CHARACTERS = _TRICKY_CHARACTERS + list("'\"()<>=!,.*-")


def _corrupt_dvq(draw, text):
    """``text`` truncated, with a range spliced out, with one character
    inserted, or with its whitespace-separated tokens shuffled."""
    mutation = draw(st.sampled_from(("truncate", "splice", "insert", "shuffle")))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    if mutation == "truncate":
        return text[:at]
    if mutation == "splice":
        return text[:at] + text[draw(st.integers(min_value=at, max_value=len(text))):]
    if mutation == "insert":
        return text[:at] + draw(st.sampled_from(_INSERTED_CHARACTERS)) + text[at:]
    return " ".join(draw(st.permutations(text.split())))


class TestDVQProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupted_dvq_text_parses_or_raises_dvq_error(self, small_dataset, data):
        corpus = sorted({example.dvq for example in small_dataset.examples})
        text = data.draw(st.one_of(dvq_queries().map(serialize_dvq), st.sampled_from(corpus)))
        corrupted = _corrupt_dvq(data.draw, text)
        try:
            parse_dvq(corrupted)
        except DVQError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        template=st.sampled_from(_NUMBER_POSITIONS),
        first=_number_like,
        second=_number_like,
    )
    def test_number_like_literals_parse_or_raise_dvq_error(self, template, first, second):
        text = template.format(first, second)
        try:
            parse_dvq(text)
        except DVQError:
            pass

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
