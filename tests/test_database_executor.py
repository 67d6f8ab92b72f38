"""Tests for the relational substrate and the DVQ executor."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.database.typed as typed_module
from repro.database import Catalog, Database, DataGenerator, Table
from repro.database.schema import Column, ColumnType, TableSchema, build_schema
from repro.database.typed import build_typed_column
from repro.dvq import parse_dvq
from repro.dvq.nodes import BinUnit, ColumnRef, Condition
from repro.executor import (
    ColumnarBackend,
    DVQExecutor,
    ExecutionError,
    ExecutionResult,
    InterpreterBackend,
)
from repro.executor.binning import bin_value
from repro.executor.functions import apply_aggregate
from repro.executor.predicates import evaluate_condition


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                name="t",
                columns=(
                    Column("a", ColumnType.TEXT),
                    Column("A", ColumnType.NUMBER),
                ),
            )

    def test_column_lookup_is_case_insensitive(self, hr_database):
        table = hr_database.schema.table("employees")
        assert table.column("salary").name == "SALARY"

    def test_describe_lists_tables_and_foreign_keys(self, hr_database):
        description = hr_database.schema.describe()
        assert "# Table employees" in description
        assert "Foreign_keys" in description

    def test_renamed_schema_rewrites_foreign_keys(self, hr_database):
        renamed = hr_database.schema.renamed(
            new_name="hr_renamed",
            column_renames={("employees", "DEPARTMENT_ID"): "Dept_ID"},
        )
        fk = renamed.foreign_keys[0]
        assert fk.column == "Dept_ID"

    def test_join_graph_connects_tables(self, hr_database):
        graph = hr_database.schema.join_graph()
        assert graph.has_edge("employees", "departments")


class TestTableAndCatalog:
    def test_insert_normalises_keys(self):
        schema = TableSchema("t", (Column("A", ColumnType.NUMBER), Column("B", ColumnType.TEXT)))
        table = Table(schema)
        table.insert({"a": 1, "b": "x"})
        assert table.rows[0]["A"] == 1

    def test_insert_unknown_column_raises(self):
        schema = TableSchema("t", (Column("A", ColumnType.NUMBER),))
        with pytest.raises(KeyError):
            Table(schema).insert({"nope": 1})

    def test_distinct_values_skip_nones(self):
        schema = TableSchema("t", (Column("A", ColumnType.NUMBER),))
        table = Table(schema, [{"A": 1}, {"A": None}, {"A": 1}, {"A": 2}])
        assert table.distinct_values("A") == [1, 2]

    def test_catalog_rejects_duplicates(self, hr_database):
        catalog = Catalog([hr_database])
        with pytest.raises(KeyError):
            catalog.add(hr_database)

    def test_catalog_statistics(self, hr_database):
        stats = Catalog([hr_database]).statistics()
        assert stats["databases"] == 1
        assert stats["tables"] == 2
        assert stats["avg_columns_per_table"] > 0


class TestColumnStoreThreadSafety:
    """The lazy column/typed stores build exactly once under concurrency.

    Regression for a race where two threads could observe a half-built
    column store (one invalidating, one building) — every concurrent reader
    must get the *same* fully built store object with values matching the
    row data.
    """

    def test_concurrent_store_builds_are_consistent(self, hr_database):
        table = hr_database.table("employees")
        column = table.canonical_column("SALARY")
        expected = [row[column] for row in table.rows]
        for _ in range(25):
            table.refresh_columns()
            with ThreadPoolExecutor(max_workers=8) as pool:
                stores = list(
                    pool.map(lambda _: (table.column_store(), table.typed_store()), range(8))
                )
            first_lists, first_typed = stores[0]
            for lists, typed in stores[1:]:
                # one build per invalidation: everyone sees the same object
                assert lists is first_lists
                assert typed is first_typed
            assert first_lists[column] == expected
            assert list(first_typed[column].objects) == expected
            assert len(first_typed[column].mask) == len(expected)

    def test_insert_invalidates_both_stores(self):
        schema = TableSchema(
            "t", (Column("A", ColumnType.NUMBER), Column("B", ColumnType.TEXT))
        )
        table = Table(schema)
        table.insert({"a": 1, "b": "x"})
        assert table.column_store()["A"] == [1]
        assert list(table.typed_store()["A"].objects) == [1]
        table.insert({"a": 2, "b": None})
        assert table.column_store()["A"] == [1, 2]
        typed = table.typed_store()["B"]
        assert list(typed.objects) == ["x", None]
        assert list(typed.mask) == [False, True]


class TestTypedColumnTake:
    def test_objects_are_gathered_on_first_read(self):
        column = build_typed_column(["a", None, "b", 1.5])
        taken = column.take(np.array([3, 1, 3], dtype=np.intp))
        # the kernels' arrays are gathered at once, the objects only when read
        assert taken._objects is None
        assert taken.mask.tolist() == [False, True, False]
        assert len(taken) == 3
        assert taken.objects.tolist() == [1.5, None, 1.5]
        assert taken.objects is taken.objects

    def test_a_take_of_a_take_reads_the_composed_rows(self):
        column = build_typed_column([10, 20, None, 40])
        taken = column.take(np.array([3, 2, 0], dtype=np.intp))
        again = taken.take(np.array([2, 0], dtype=np.intp))
        assert again.data.tolist() == [10.0, 40.0]
        assert again.objects.tolist() == [10, 40]
        assert taken.objects.tolist() == [40, None, 10]


class TestGroupCodeCache:
    """A grouped column's codes live as long as its table's typed store.

    Built by ``build_group_codes`` at the first GROUP BY over the column,
    read by every later one, dropped by ``insert`` with the store.
    """

    QUERY = parse_dvq(
        "Visualize BAR SELECT REGION , SUM(UNITS) FROM sales "
        "WHERE UNITS > 1 GROUP BY REGION"
    )

    @staticmethod
    def sales_database():
        schema = build_schema(
            "shop",
            [
                (
                    "sales",
                    [
                        ("SALE_ID", ColumnType.NUMBER, "id"),
                        ("REGION", ColumnType.TEXT, "city"),
                        ("UNITS", ColumnType.NUMBER, "count"),
                    ],
                )
            ],
        )
        regions = ["north", "South", "east", None, "west", "north"]
        rows = [
            {"SALE_ID": index, "REGION": regions[index % 6], "UNITS": index % 5}
            for index in range(60)
        ]
        return Database.from_rows(schema, {"sales": rows})

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        real = typed_module.build_group_codes

        def spy(column):
            built.append(column)
            return real(column)

        monkeypatch.setattr(typed_module, "build_group_codes", spy)
        return built

    def test_codes_are_built_once_across_group_by_runs(self, builds):
        database = self.sales_database()
        expected = InterpreterBackend().execute(self.QUERY, database).rows
        engine = ColumnarBackend()
        for _ in range(3):
            assert engine.execute(self.QUERY, database).rows == expected
        region = database.table("sales").typed_store()["REGION"]
        assert builds == [region]
        assert region.group_codes is not None

    def test_insert_drops_the_codes_with_the_typed_store(self, builds):
        database = self.sales_database()
        engine = ColumnarBackend()
        before = engine.execute(self.QUERY, database).rows
        assert "middle" not in [row[0] for row in before]
        table = database.table("sales")
        old_region = table.typed_store()["REGION"]
        table.insert({"SALE_ID": 60, "REGION": "middle", "UNITS": 4})
        after = engine.execute(self.QUERY, database).rows
        assert after == InterpreterBackend().execute(self.QUERY, database).rows
        assert ("middle", 4) in after
        new_region = table.typed_store()["REGION"]
        assert new_region is not old_region
        assert builds == [old_region, new_region]

    def test_threaded_double_builds_agree(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT FIRST_NAME , COUNT(FIRST_NAME) FROM employees "
            "JOIN departments ON employees.DEPARTMENT_ID = departments.DEPARTMENT_ID "
            "WHERE SALARY > 4000 GROUP BY FIRST_NAME"
        )
        expected = InterpreterBackend().execute(query, hr_database).rows
        assert expected
        engine = ColumnarBackend()
        table = hr_database.table("employees")
        interval = sys.getswitchinterval()
        # switch threads often, so two of them build one column's codes at once
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                table.refresh_columns()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(
                        pool.map(lambda _: engine.execute(query, hr_database).rows, range(8))
                    )
                assert all(rows == expected for rows in results)
                first_name = table.typed_store()["FIRST_NAME"]
                codes, count = first_name.group_codes
                reference, reference_count = typed_module.build_group_codes(first_name)
                assert codes.tolist() == reference.tolist()
                assert count == reference_count
        finally:
            sys.setswitchinterval(interval)


class TestDataGenerator:
    def test_generation_is_deterministic(self):
        schema = build_schema(
            "gen_test",
            [("t", [("ID", ColumnType.NUMBER, "id"), ("City", ColumnType.TEXT, "city")])],
        )
        first = DataGenerator(seed=5).populate(schema)
        second = DataGenerator(seed=5).populate(schema)
        assert first.table("t").rows == second.table("t").rows

    def test_foreign_keys_reference_existing_rows(self, hr_database):
        departments = set(hr_database.table("departments").column_values("DEPARTMENT_ID"))
        employees = hr_database.table("employees").column_values("DEPARTMENT_ID")
        assert all(value in departments for value in employees)

    def test_primary_keys_are_sequential(self, hr_database):
        ids = hr_database.table("employees").column_values("EMPLOYEE_ID")
        assert ids == list(range(1, len(ids) + 1))


class TestAggregates:
    @pytest.mark.parametrize(
        "name,values,expected",
        [
            ("COUNT", [1, None, 2], 2),
            ("SUM", [1, 2, 3], 6),
            ("AVG", [2, 4], 3),
            ("MIN", [5, 1, 3], 1),
            ("MAX", [5, 1, 3], 5),
        ],
    )
    def test_aggregates(self, name, values, expected):
        assert apply_aggregate(name, values) == expected

    def test_empty_sum_is_none(self):
        assert apply_aggregate("SUM", []) is None

    def test_count_distinct(self):
        assert apply_aggregate("COUNT", [1, 1, 2], distinct=True) == 2


class TestBinning:
    def test_year_from_date(self):
        assert bin_value("2015-06-01", BinUnit.YEAR) == 2015

    def test_month_from_date(self):
        assert bin_value("2015-06-01", BinUnit.MONTH) == 6

    def test_weekday_from_date(self):
        assert bin_value("2024-01-01", BinUnit.WEEKDAY) == "Monday"

    def test_interval_bins_numbers(self):
        assert bin_value(250, BinUnit.INTERVAL, interval=100) == "[200, 300)"

    def test_none_stays_none(self):
        assert bin_value(None, BinUnit.YEAR) is None

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1995, max_value=2030), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=28))
    def test_weekday_is_always_a_day_name(self, year, month, day):
        value = bin_value(f"{year:04d}-{month:02d}-{day:02d}", BinUnit.WEEKDAY)
        assert value in {"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}


class TestExecutor:
    def test_group_by_counts(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME"
        )
        result = DVQExecutor().execute(query, hr_database)
        total = sum(row[1] for row in result.rows)
        assert total == len(hr_database.table("employees"))

    def test_where_filters_rows(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , SALARY FROM employees WHERE SALARY > 10000"
        )
        result = DVQExecutor().execute(query, hr_database)
        assert all(row[1] > 10000 for row in result.rows)

    def test_order_by_desc(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees GROUP BY LAST_NAME "
            "ORDER BY AVG(SALARY) DESC"
        )
        result = DVQExecutor().execute(query, hr_database)
        values = [row[1] for row in result.rows]
        assert values == sorted(values, reverse=True)

    def test_bin_by_year_groups_dates(self, hr_database):
        query = parse_dvq(
            "Visualize LINE SELECT HIRE_DATE , AVG(SALARY) FROM employees BIN HIRE_DATE BY YEAR"
        )
        result = DVQExecutor().execute(query, hr_database)
        assert all(isinstance(row[0], int) for row in result.rows)

    def test_join_execution(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT DEPARTMENT_NAME , AVG(SALARY) FROM employees "
            "JOIN departments ON employees.DEPARTMENT_ID = departments.DEPARTMENT_ID "
            "GROUP BY DEPARTMENT_NAME"
        )
        result = DVQExecutor().execute(query, hr_database)
        assert len(result) >= 1

    def test_missing_column_raises(self, hr_database):
        query = parse_dvq("Visualize BAR SELECT wage , COUNT(wage) FROM employees GROUP BY wage")
        with pytest.raises(ExecutionError):
            DVQExecutor().execute(query, hr_database)

    def test_missing_table_raises(self, hr_database):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM missing GROUP BY a")
        with pytest.raises(ExecutionError):
            DVQExecutor().execute(query, hr_database)

    def test_can_execute_flag(self, hr_database):
        executor = DVQExecutor()
        good = parse_dvq("Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME")
        bad = parse_dvq("Visualize BAR SELECT wage , COUNT(wage) FROM employees GROUP BY wage")
        assert executor.can_execute(good, hr_database)
        assert not executor.can_execute(bad, hr_database)

    def test_gold_corpus_queries_all_execute(self, small_dataset):
        executor = DVQExecutor()
        for example in small_dataset.examples[:150]:
            query = parse_dvq(example.dvq)
            database = small_dataset.catalog.get(example.db_id)
            executor.execute(query, database)

    def test_limit_caps_rows_deterministically(self, hr_database):
        full = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT LAST_NAME , COUNT(*) FROM employees "
                "GROUP BY LAST_NAME ORDER BY COUNT(*) DESC"
            ),
            hr_database,
        )
        limited = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT LAST_NAME , COUNT(*) FROM employees "
                "GROUP BY LAST_NAME ORDER BY COUNT(*) DESC LIMIT 3"
            ),
            hr_database,
        )
        assert len(limited) == 3
        # top-k rows carry the k highest counts of the full result
        top_counts = sorted((row[1] for row in full.rows), reverse=True)[:3]
        assert sorted((row[1] for row in limited.rows), reverse=True) == top_counts


def _null_db():
    """A table exercising NULLs in every predicate-relevant position."""
    schema = build_schema(
        "nullable",
        [
            (
                "readings",
                [
                    ("READING_ID", ColumnType.NUMBER, "id"),
                    ("SENSOR", ColumnType.TEXT, "name"),
                    ("VALUE", ColumnType.NUMBER, "count"),
                ],
            )
        ],
    )
    from repro.database import Database

    return Database.from_rows(
        schema,
        {
            "readings": [
                {"READING_ID": 1, "SENSOR": "Alpha", "VALUE": 10},
                {"READING_ID": 2, "SENSOR": None, "VALUE": 20},
                {"READING_ID": 3, "SENSOR": "Beta", "VALUE": None},
                {"READING_ID": 4, "SENSOR": "alpha", "VALUE": 30},
            ]
        },
    )


class TestNullPredicates:
    """NULL semantics the differential harness relies on (satellite checks)."""

    def test_comparisons_with_null_value_are_false(self):
        condition = Condition(column=ColumnRef("VALUE"), operator=">", value=5)
        assert not evaluate_condition(condition, None)
        condition = Condition(column=ColumnRef("VALUE"), operator="=", value=5)
        assert not evaluate_condition(condition, None)

    def test_null_literal_never_matches_equality(self):
        condition = Condition(column=ColumnRef("VALUE"), operator="=", value=None)
        assert not evaluate_condition(condition, 5)
        assert not evaluate_condition(condition, None)

    def test_null_sentinel_string_matches_null_values(self):
        condition = Condition(column=ColumnRef("SENSOR"), operator="=", value="null")
        assert evaluate_condition(condition, None)
        assert not evaluate_condition(condition, "Alpha")
        negated = Condition(column=ColumnRef("SENSOR"), operator="!=", value="null")
        assert not evaluate_condition(negated, None)
        assert evaluate_condition(negated, "Alpha")

    def test_is_null_and_is_not_null(self):
        executor = DVQExecutor()
        result = executor.execute(
            parse_dvq("Visualize BAR SELECT READING_ID , VALUE FROM readings WHERE VALUE IS NULL"),
            _null_db(),
        )
        assert result.x_values() == [3]
        result = executor.execute(
            parse_dvq("Visualize BAR SELECT READING_ID , VALUE FROM readings WHERE SENSOR IS NOT NULL"),
            _null_db(),
        )
        assert result.x_values() == [1, 3, 4]

    def test_not_in_keeps_null_rows(self):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT READING_ID , SENSOR FROM readings "
                "WHERE SENSOR NOT IN ( 'Beta' )"
            ),
            _null_db(),
        )
        # row 2 (NULL sensor) passes, row 3 ('Beta') is excluded
        assert result.x_values() == [1, 2, 4]

    def test_not_like_keeps_null_rows(self):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT READING_ID , SENSOR FROM readings "
                "WHERE SENSOR NOT LIKE 'Al%'"
            ),
            _null_db(),
        )
        assert result.x_values() == [2, 3]

    def test_string_equality_is_case_insensitive(self):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT READING_ID , SENSOR FROM readings WHERE SENSOR = 'ALPHA'"
            ),
            _null_db(),
        )
        assert result.x_values() == [1, 4]


class TestEmptyGroupAggregates:
    """Aggregates over empty inputs (satellite checks)."""

    def test_all_aggregates_on_empty_sequences(self):
        assert apply_aggregate("COUNT", []) == 0
        assert apply_aggregate("SUM", []) is None
        assert apply_aggregate("AVG", []) is None
        assert apply_aggregate("MIN", []) is None
        assert apply_aggregate("MAX", []) is None

    def test_aggregates_over_all_null_values(self):
        values = [None, None]
        assert apply_aggregate("COUNT", values) == 0
        assert apply_aggregate("SUM", values) is None
        assert apply_aggregate("AVG", values) is None
        assert apply_aggregate("MIN", values) is None
        assert apply_aggregate("MAX", values) is None

    def test_aggregate_only_query_on_empty_input_yields_no_rows(self, hr_database):
        result = DVQExecutor().execute(
            parse_dvq("Visualize BAR SELECT COUNT(*) FROM employees WHERE SALARY > 99999999"),
            hr_database,
        )
        assert result.rows == []

    def test_aggregate_over_group_of_nulls_yields_none(self):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT SENSOR , SUM(VALUE) FROM readings "
                "WHERE SENSOR = 'Beta' GROUP BY SENSOR"
            ),
            _null_db(),
        )
        assert result.rows == [("Beta", None)]


class TestQualifiedLookup:
    """Case-insensitive qualified column lookup with table aliases."""

    def test_alias_qualified_lookup_is_case_insensitive(self, hr_database):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT T1.last_name , COUNT(T1.LAST_NAME) "
                "FROM employees AS T1 GROUP BY T1.last_name"
            ),
            hr_database,
        )
        assert sum(row[1] for row in result.rows) == len(hr_database.table("employees"))

    def test_table_name_still_resolves_when_aliased(self, hr_database):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT employees.LAST_NAME , COUNT(employees.LAST_NAME) "
                "FROM employees AS T1 GROUP BY employees.LAST_NAME"
            ),
            hr_database,
        )
        assert len(result) >= 1

    def test_join_with_aliases_on_both_sides(self, hr_database):
        result = DVQExecutor().execute(
            parse_dvq(
                "Visualize BAR SELECT T2.DEPARTMENT_NAME , AVG(T1.SALARY) FROM employees AS T1 "
                "JOIN departments AS T2 ON T1.DEPARTMENT_ID = T2.DEPARTMENT_ID "
                "GROUP BY T2.DEPARTMENT_NAME"
            ),
            hr_database,
        )
        assert len(result) >= 1

    def test_unknown_alias_raises(self, hr_database):
        query = parse_dvq(
            "Visualize BAR SELECT T9.LAST_NAME , COUNT(T9.LAST_NAME) "
            "FROM employees AS T1 GROUP BY T9.LAST_NAME"
        )
        with pytest.raises(ExecutionError):
            DVQExecutor().execute(query, hr_database)


class TestExecutionResultAccessors:
    def test_y_values_returns_second_column(self):
        result = ExecutionResult(columns=["x", "y"], rows=[(1, 2), (3, 4)])
        assert result.y_values() == [2, 4]

    def test_y_values_raises_on_single_column_results(self):
        result = ExecutionResult(columns=["x"], rows=[(1,), (2,)])
        with pytest.raises(ValueError, match="no y column"):
            result.y_values()

    def test_x_values_on_single_column_results(self):
        result = ExecutionResult(columns=["x"], rows=[(1,), (2,)])
        assert result.x_values() == [1, 2]
