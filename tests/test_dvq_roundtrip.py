"""Property-based round-trip tests for the DVQ layer.

For randomly generated queries (seeded through Hypothesis), serialization and
parsing are mutual inverses up to canonical form — ``parse(serialize(q))``
re-serialises to the same string — and text normalisation is idempotent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.database import DataGenerator
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq, serialize_dvq
from repro.dvq.generate import RandomDVQGenerator
from repro.dvq.nodes import ChartType, ColumnRef, Condition, DVQuery, SelectItem, WhereClause
from repro.dvq.components import extract_components
from repro.dvq.normalize import normalize_dvq_text


@pytest.fixture(scope="module")
def roundtrip_database():
    schema = build_schema(
        "roundtrip_db",
        [
            (
                "staff",
                [
                    ("STAFF_ID", ColumnType.NUMBER, "id"),
                    ("NAME", ColumnType.TEXT, "name"),
                    ("CITY", ColumnType.TEXT, "city"),
                    ("WAGE", ColumnType.NUMBER, "salary"),
                    ("JOINED", ColumnType.DATE, "date"),
                    ("REMOTE", ColumnType.BOOLEAN, "flag"),
                    ("TEAM_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "teams",
                [
                    ("TEAM_ID", ColumnType.NUMBER, "id"),
                    ("TEAM_NAME", ColumnType.TEXT, "name"),
                    ("BUDGET", ColumnType.NUMBER, "budget"),
                ],
            ),
        ],
        foreign_keys=[("staff", "TEAM_ID", "teams", "TEAM_ID")],
    )
    return DataGenerator(seed=9, rows_per_table=25).populate(schema)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parse_serialize_roundtrip(seed, roundtrip_database):
    """serialize -> parse -> serialize is a fixed point for generated queries."""
    query = RandomDVQGenerator(seed=seed).generate(roundtrip_database)
    text = serialize_dvq(query)
    reparsed = parse_dvq(text)
    assert serialize_dvq(reparsed) == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_roundtrip_preserves_components(seed, roundtrip_database):
    """Parsing the serialized form loses no Vis/Axis/Data information."""
    query = RandomDVQGenerator(seed=seed).generate(roundtrip_database)
    reparsed = parse_dvq(serialize_dvq(query))
    assert extract_components(reparsed) == extract_components(query)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_normalize_is_idempotent(seed, roundtrip_database):
    """normalize(normalize(text)) == normalize(text) for generated queries."""
    text = serialize_dvq(RandomDVQGenerator(seed=seed).generate(roundtrip_database))
    normalized = normalize_dvq_text(text)
    assert normalize_dvq_text(normalized) == normalized


@pytest.mark.parametrize(
    "text",
    [
        "visualize bar select a , count(a) from t group by a",
        "Visualize   BAR SELECT a,COUNT(a) FROM t GROUP BY a",
        "this is not a DVQ at all",
        "",
    ],
)
def test_normalize_is_idempotent_on_arbitrary_text(text):
    normalized = normalize_dvq_text(text)
    assert normalize_dvq_text(normalized) == normalized


def _float_query(value):
    condition = Condition(column=ColumnRef(column="c"), operator="=", value=value)
    return DVQuery(
        chart_type=ChartType.BAR,
        select=(SelectItem(ColumnRef(column="a")),),
        table="t",
        where=WhereClause(conditions=(condition,)),
    )


def _assert_float_roundtrips(value):
    text = serialize_dvq(_float_query(value))
    reparsed = parse_dvq(text)
    assert reparsed.where.conditions[0].value == value, text
    assert serialize_dvq(reparsed) == text
    assert normalize_dvq_text(text) == text


def test_float_literals_of_every_magnitude_roundtrip():
    """A float renders positionally (never ``1e-05``) and parses back equal."""
    for exponent in range(-323, 308):
        for mantissa in ("1", "1.2345", "-9.87654321"):
            _assert_float_roundtrips(float(f"{mantissa}e{exponent}"))
    for value in (5e-324, 2.2250738585072014e-308, 1e15 + 0.5, 1.7976931348623157e308, -0.0):
        _assert_float_roundtrips(value)


@settings(max_examples=300, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_float_literal_roundtrips(value):
    _assert_float_roundtrips(value)


def test_numpy_float_literal_renders_like_the_equal_float():
    # numpy.float64 subclasses float, but its repr is "np.float64(1e-05)"
    for value in (1e-05, 0.5, 3.0, 1.2345e-10):
        assert serialize_dvq(_float_query(np.float64(value))) == serialize_dvq(_float_query(value))


# -- fuzzer-generated queries (statistics-driven WorkloadGenerator) ----------


@pytest.fixture(scope="module")
def workload_database():
    from repro.workload import SchemaGraphConfig, build_workload_database

    return build_workload_database(
        SchemaGraphConfig(seed=31, table_count=6, topology="snowflake",
                          name="roundtrip_workload"),
        total_rows=1_200,
    )


def _workload_generator(seed):
    from repro.workload import WorkloadGenerator

    return WorkloadGenerator(seed=seed, max_joins=3, join_probability=0.7)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_workload_queries_roundtrip(seed, workload_database):
    """serialize -> parse is a fixed point for fuzzer-generated queries too."""
    query = _workload_generator(seed).generate(workload_database)
    text = serialize_dvq(query)
    assert serialize_dvq(parse_dvq(text)) == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_workload_normalize_is_idempotent(seed, workload_database):
    """serialize -> parse -> normalize idempotence on fuzzer-generated queries."""
    text = serialize_dvq(_workload_generator(seed).generate(workload_database))
    normalized = normalize_dvq_text(serialize_dvq(parse_dvq(text)))
    assert normalize_dvq_text(normalized) == normalized


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_non_portable_queries_still_roundtrip(seed, workload_database):
    """Corrupted (known-rejected) fuzz queries remain parse/serialize clean."""
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(
        seed=seed, portable_subset=False, corruption_probability=0.6
    )
    text = serialize_dvq(generator.generate(workload_database))
    reparsed = parse_dvq(text)
    assert serialize_dvq(reparsed) == text
    assert extract_components(reparsed) == extract_components(parse_dvq(text))


def test_generator_surface_covers_limit_bins_and_three_channels(workload_database):
    """The strategies genuinely exercise LIMIT, every bin unit family and
    3-channel charts — the surface the fuzzer leans on."""
    queries = [
        _workload_generator(seed).generate(workload_database) for seed in range(400)
    ]
    assert sum(1 for q in queries if q.limit is not None) >= 25
    assert sum(1 for q in queries if len(q.select) == 3) >= 10
    units = {q.bin.unit for q in queries if q.bin is not None}
    assert len(units) >= 3
    charts = {q.chart_type for q in queries}
    assert len(charts) >= 6


class TestLimitClause:
    """Parsing and serialization of the new LIMIT (top-k) clause."""

    def test_limit_roundtrip(self):
        text = "Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a ORDER BY COUNT(a) DESC LIMIT 5"
        query = parse_dvq(text)
        assert query.limit == 5
        assert serialize_dvq(query) == text

    def test_limit_before_bin_is_reordered_canonically(self):
        query = parse_dvq(
            "Visualize LINE SELECT d , COUNT(d) FROM t LIMIT 3 BIN d BY YEAR"
        )
        assert query.limit == 3
        assert query.bin is not None
        assert serialize_dvq(query).endswith("BIN d BY YEAR LIMIT 3")

    def test_limit_appears_in_components(self):
        with_limit = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a LIMIT 2")
        without = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a")
        assert extract_components(with_limit) != extract_components(without)
        assert extract_components(with_limit).data.limit == 2

    def test_negative_limit_rejected(self):
        from repro.dvq import DVQError

        with pytest.raises(DVQError):
            parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a LIMIT -1")

    def test_fractional_limit_rejected(self):
        from repro.dvq import DVQError

        with pytest.raises(DVQError):
            parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a LIMIT 2.5")
