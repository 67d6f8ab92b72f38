"""Unit tests for the DVQ->SQL compiler, the SQLite backend and the wiring."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import GRED, GREDConfig
from repro.database import DataGenerator
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.evaluation.evaluator import ModelEvaluator
from repro.executor import (
    ExecutionError,
    InterpreterBackend,
    canonical_value,
    resolve_backend,
)
from repro.sql import DVQToSQLCompiler, SQLiteBackend
from repro.vegalite.renderer import ChartRenderer


def _tiny_text_db(rows):
    """A two-column table for targeted NULL / case-tie regression tests."""
    from repro.database import Database

    schema = build_schema(
        "tiny_text",
        [("items", [("VAL", ColumnType.NUMBER, "id"), ("NAME", ColumnType.TEXT, "name")])],
    )
    return Database.from_rows(
        schema, {"items": [{"NAME": name, "VAL": val} for name, val in rows]}
    )


@pytest.fixture(scope="module")
def sql_database():
    schema = build_schema(
        "sql_unit",
        [
            (
                "employees",
                [
                    ("EMPLOYEE_ID", ColumnType.NUMBER, "id"),
                    ("FIRST_NAME", ColumnType.TEXT, "first_name"),
                    ("LAST_NAME", ColumnType.TEXT, "last_name"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("HIRE_DATE", ColumnType.DATE, "date"),
                    ("DEPARTMENT_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "departments",
                [
                    ("DEPARTMENT_ID", ColumnType.NUMBER, "id"),
                    ("DEPARTMENT_NAME", ColumnType.TEXT, "department"),
                    ("BUDGET", ColumnType.NUMBER, "budget"),
                ],
            ),
        ],
        foreign_keys=[("employees", "DEPARTMENT_ID", "departments", "DEPARTMENT_ID")],
    )
    return DataGenerator(seed=3, rows_per_table=30).populate(schema)


class TestCompiler:
    def test_compiles_group_by_aggregate(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME"
        )
        compiled = DVQToSQLCompiler().compile(query, sql_database.schema)
        assert compiled.sql.startswith("SELECT ")
        assert '"employees"."LAST_NAME"' in compiled.sql
        assert "GROUP BY" in compiled.sql
        assert compiled.columns == ("LAST_NAME", "COUNT(LAST_NAME)")

    def test_parameters_are_bound_not_inlined(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , SALARY FROM employees WHERE SALARY > 10000"
        )
        compiled = DVQToSQLCompiler().compile(query, sql_database.schema)
        assert "10000" not in compiled.sql
        assert compiled.params == (10000,)

    def test_where_connectors_associate_left_to_right(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , SALARY FROM employees "
            "WHERE SALARY > 1 OR SALARY < 5 AND SALARY != 3"
        )
        compiled = DVQToSQLCompiler().compile(query, sql_database.schema)
        where = compiled.sql.split("WHERE", 1)[1]
        # ((a OR b) AND c), not a OR (b AND c)
        assert where.index("OR") < where.index("AND")
        assert where.count("(") == 2

    def test_alias_resolution_tolerates_table_name(self, sql_database):
        # qualifying by the real table name while aliased must compile to the alias
        query = parse_dvq(
            "Visualize BAR SELECT employees.LAST_NAME , COUNT(employees.LAST_NAME) "
            "FROM employees AS T1 GROUP BY employees.LAST_NAME"
        )
        compiled = DVQToSQLCompiler().compile(query, sql_database.schema)
        assert '"T1"."LAST_NAME"' in compiled.sql

    def test_unknown_table_raises_execution_error(self, sql_database):
        query = parse_dvq("Visualize BAR SELECT a , COUNT(a) FROM missing GROUP BY a")
        with pytest.raises(ExecutionError):
            DVQToSQLCompiler().compile(query, sql_database.schema)

    def test_unknown_column_raises_execution_error(self, sql_database):
        query = parse_dvq("Visualize BAR SELECT wage , COUNT(wage) FROM employees GROUP BY wage")
        with pytest.raises(ExecutionError):
            DVQToSQLCompiler().compile(query, sql_database.schema)

    def test_limit_compiles_to_bound_limit_with_tiebreak(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees "
            "GROUP BY LAST_NAME ORDER BY COUNT(LAST_NAME) DESC LIMIT 3"
        )
        compiled = DVQToSQLCompiler().compile(query, sql_database.schema)
        assert compiled.sql.endswith("LIMIT ?")
        assert compiled.params[-1] == 3
        # DESC sorts NULLs first like the interpreter, via a portable IS NULL
        # term rather than the NULLS FIRST syntax (SQLite >= 3.30 only)
        assert "IS NULL ) DESC" in compiled.sql
        assert "COLLATE BINARY" in compiled.sql  # exact-text tiebreak for the top-k cut


class TestSQLiteBackend:
    def test_matches_interpreter_on_basic_aggregate(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees "
            "GROUP BY LAST_NAME ORDER BY AVG(SALARY) DESC"
        )
        expected = InterpreterBackend().execute(query, sql_database)
        actual = SQLiteBackend().execute(query, sql_database)
        assert actual.columns == expected.columns
        assert actual.rows == expected.rows

    def test_aggregate_only_query_returns_no_rows_on_empty_input(self, sql_database):
        # the interpreter yields zero rows when no row survives the filter;
        # the compiled SQL must not fall back to SQL's single NULL row
        query = parse_dvq("Visualize BAR SELECT COUNT(*) FROM employees WHERE SALARY > 999999")
        assert SQLiteBackend().execute(query, sql_database).rows == []
        assert InterpreterBackend().execute(query, sql_database).rows == []

    def test_missing_column_raises(self, sql_database):
        query = parse_dvq("Visualize BAR SELECT wage , COUNT(wage) FROM employees GROUP BY wage")
        backend = SQLiteBackend()
        with pytest.raises(ExecutionError):
            backend.execute(query, sql_database)
        assert not backend.can_execute(query, sql_database)

    def test_connection_is_cached_and_refreshable(self, sql_database):
        backend = SQLiteBackend()
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME"
        )
        backend.execute(query, sql_database)
        first = backend._connections[sql_database]
        backend.execute(query, sql_database)
        assert backend._connections[sql_database] is first
        backend.refresh(sql_database)
        assert sql_database not in backend._connections

    def test_on_disk_storage(self, sql_database, tmp_path):
        backend = SQLiteBackend(directory=str(tmp_path))
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME"
        )
        result = backend.execute(query, sql_database)
        assert (tmp_path / "sql_unit.sqlite3").exists()
        assert result.rows == InterpreterBackend().execute(query, sql_database).rows
        backend.close()

    def test_limit_cut_is_identical_across_backends(self, sql_database):
        query = parse_dvq(
            "Visualize BAR SELECT FIRST_NAME , COUNT(*) FROM employees "
            "GROUP BY FIRST_NAME ORDER BY COUNT(*) DESC LIMIT 4"
        )
        expected = InterpreterBackend().execute(query, sql_database)
        actual = SQLiteBackend().execute(query, sql_database)
        assert len(actual) == 4
        assert actual.rows == expected.rows

    def test_not_in_with_null_literal_drops_null_rows_on_both_backends(self):
        # a NULL list item matches NULL rows in the interpreter's IN, so the
        # negation must drop them — SQL's three-valued NOT would keep them
        database = _tiny_text_db(
            [("Alpha", 1), (None, 2), ("Beta", 3)]
        )
        query = parse_dvq(
            "Visualize BAR SELECT VAL , NAME FROM items WHERE NAME NOT IN ( NULL , 'Beta' )"
        )
        expected = InterpreterBackend().execute(query, database)
        actual = SQLiteBackend().execute(query, database)
        assert expected.x_values() == [1]
        assert actual.rows == expected.rows

    def test_in_with_null_literal_matches_null_rows_on_both_backends(self):
        database = _tiny_text_db([("Alpha", 1), (None, 2), ("Beta", 3)])
        query = parse_dvq(
            "Visualize BAR SELECT VAL , NAME FROM items WHERE NAME IN ( NULL , 'Beta' )"
        )
        expected = InterpreterBackend().execute(query, database)
        actual = SQLiteBackend().execute(query, database)
        assert sorted(expected.x_values()) == [2, 3]
        assert actual.rows == expected.rows

    def test_limit_cut_agrees_on_case_variant_ties(self):
        # 'abc' and 'ABC' tie under NOCASE; the top-k cut must break the tie
        # by exact text on both engines (BINARY tiebreak term)
        database = _tiny_text_db([("abc", 1), ("ABC", 2), ("zzz", 3)])
        query = parse_dvq("Visualize BAR SELECT NAME , VAL FROM items ORDER BY NAME ASC LIMIT 1")
        expected = InterpreterBackend().execute(query, database)
        actual = SQLiteBackend().execute(query, database)
        assert actual.rows == expected.rows
        query = parse_dvq("Visualize BAR SELECT NAME , VAL FROM items ORDER BY NAME DESC LIMIT 2")
        expected = InterpreterBackend().execute(query, database)
        actual = SQLiteBackend().execute(query, database)
        assert actual.rows == expected.rows

    def test_threads_share_one_load_per_database(self, sql_database, hr_database, monkeypatch):
        # 8 threads race one fresh backend through the first execution on two
        # databases, switching every microsecond: the backend's lock must let
        # exactly one of them load each database
        query = parse_dvq(
            "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees "
            "GROUP BY LAST_NAME ORDER BY LAST_NAME ASC"
        )
        databases = (sql_database, hr_database)
        serial = SQLiteBackend()
        expected = [serial.execute(query, database).rows for database in databases]
        loads = []
        real_load = SQLiteBackend._load

        def spy_load(backend, connection, database):
            loads.append(database.name)
            real_load(backend, connection, database)

        monkeypatch.setattr(SQLiteBackend, "_load", spy_load)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                backend = SQLiteBackend()
                loads.clear()
                start = threading.Barrier(8, timeout=60)

                def run(_):
                    start.wait()
                    return [backend.execute(query, database).rows for database in databases]

                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(run, range(8)))
                assert results == [expected] * 8
                assert sorted(loads) == sorted(database.name for database in databases)
        finally:
            sys.setswitchinterval(interval)


class TestNormalisation:
    def test_canonical_value_coercions(self):
        assert canonical_value(True) == 1 and isinstance(canonical_value(True), int)
        assert canonical_value(6.0) == 6 and isinstance(canonical_value(6.0), int)
        assert canonical_value(2.5) == 2.5
        assert canonical_value("x") == "x"
        assert canonical_value(None) is None

    def test_sum_of_integers_is_integral_on_both_backends(self, sql_database):
        query = parse_dvq("Visualize BAR SELECT SUM(SALARY) FROM employees")
        for backend in (InterpreterBackend(), SQLiteBackend()):
            (row,) = backend.execute(query, sql_database).rows
            assert isinstance(row[0], int)


class TestBackendFactory:
    def test_resolve_names(self):
        assert resolve_backend("interpreter").name == "interpreter"
        assert resolve_backend("sqlite").name == "sqlite"

    def test_resolve_passes_instances_through(self):
        backend = SQLiteBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("postgres")


class TestWiring:
    def test_renderer_with_sqlite_backend(self, sql_database):
        text = (
            "Visualize BAR SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME"
        )
        default_chart = ChartRenderer().render_text(text, sql_database)
        sqlite_chart = ChartRenderer(backend=SQLiteBackend()).render_text(text, sql_database)
        assert sorted(sqlite_chart.result.rows) == sorted(default_chart.result.rows)

    def test_evaluator_execution_rate(self, small_dataset):
        class GoldModel:
            def predict(self, nlq, database):
                return next(
                    example.dvq for example in small_dataset.examples if example.nlq == nlq
                )

        evaluator = ModelEvaluator(limit=20, execution_backend="sqlite")
        run = evaluator.evaluate(GoldModel(), small_dataset)
        assert run.execution_rate == 1.0
        assert all(record.executes for record in run.records)

    def test_evaluator_execution_rate_default_off(self, small_dataset):
        class EmptyModel:
            def predict(self, nlq, database):
                return ""

        run = ModelEvaluator(limit=5).evaluate(EmptyModel(), small_dataset)
        assert run.execution_rate is None
        assert all(record.executes is None for record in run.records)

    def test_gred_verify_execution_flags_traces(self, small_dataset):
        config = GREDConfig(top_k=3, verify_execution=True, execution_backend="sqlite")
        model = GRED(config).fit(small_dataset.train, small_dataset.catalog)
        example = small_dataset.test[0]
        trace = model.trace(example.nlq, small_dataset.catalog.get(example.db_id))
        assert trace.executes in (True, False)
        assert "verify" in trace.timings

    def test_gred_verification_off_by_default(self, small_dataset):
        model = GRED(GREDConfig(top_k=3)).fit(small_dataset.train, small_dataset.catalog)
        example = small_dataset.test[0]
        trace = model.trace(example.nlq, small_dataset.catalog.get(example.db_id))
        assert trace.executes is None
