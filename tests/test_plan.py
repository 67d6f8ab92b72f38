"""Unit tests for the logical-plan IR, planner, pushdown and columnar engine."""

from __future__ import annotations

import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import (
    ColumnarBackend,
    ColumnarEngine,
    InterpreterBackend,
    resolve_backend,
)
from repro.plan import (
    Filter,
    Join,
    Project,
    Scan,
    iter_nodes,
    optimize,
    output_labels,
    plan_query,
)
from repro.sql import SQLiteBackend


def _schema():
    return build_schema(
        "plan_unit",
        [
            (
                "employees",
                [
                    ("EMP_ID", ColumnType.NUMBER, "id"),
                    ("NAME", ColumnType.TEXT, "name"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("HIRE_DATE", ColumnType.DATE, "date"),
                    ("ACTIVE", ColumnType.BOOLEAN, "flag"),
                    ("DEPT_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "departments",
                [
                    ("DEPT_ID", ColumnType.NUMBER, "id"),
                    ("DEPT_NAME", ColumnType.TEXT, "department"),
                    ("CITY", ColumnType.TEXT, "city"),
                ],
            ),
        ],
        foreign_keys=[("employees", "DEPT_ID", "departments", "DEPT_ID")],
    )


@pytest.fixture()
def database():
    db = Database.from_rows(
        _schema(),
        {
            "employees": [
                {"EMP_ID": 1, "NAME": "Ada", "SALARY": 120, "HIRE_DATE": "2020-02-03",
                 "ACTIVE": True, "DEPT_ID": 1},
                {"EMP_ID": 2, "NAME": "Bob", "SALARY": 80, "HIRE_DATE": "2021-07-15",
                 "ACTIVE": False, "DEPT_ID": 2},
                {"EMP_ID": 3, "NAME": "ada", "SALARY": None, "HIRE_DATE": None,
                 "ACTIVE": True, "DEPT_ID": 1},
                {"EMP_ID": 4, "NAME": None, "SALARY": 200, "HIRE_DATE": "2020-11-30",
                 "ACTIVE": None, "DEPT_ID": 2},
                {"EMP_ID": 5, "NAME": "Eve", "SALARY": 80, "HIRE_DATE": "2019-01-01",
                 "ACTIVE": False, "DEPT_ID": 1},
            ],
            "departments": [
                {"DEPT_ID": 1, "DEPT_NAME": "Engineering", "CITY": "Zurich"},
                {"DEPT_ID": 2, "DEPT_NAME": "Sales", "CITY": None},
            ],
        },
    )
    return db


JOIN_QUERY = (
    "Visualize BAR SELECT DEPT_NAME , AVG(SALARY) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE SALARY > 50 GROUP BY DEPT_NAME ORDER BY AVG(SALARY) DESC LIMIT 2"
)


class TestPlanner:
    def test_canonical_spine_shape(self, database):
        plan = plan_query(parse_dvq(JOIN_QUERY), database.schema)
        kinds = [type(node).__name__ for node in iter_nodes(plan)]
        assert kinds == [
            "Limit", "Sort", "Aggregate", "Filter", "Join", "Scan", "Scan",
        ]

    def test_explain_renders_operator_tree(self, database):
        plan = plan_query(parse_dvq(JOIN_QUERY), database.schema)
        text = plan.explain()
        assert "Limit(2)" in text
        assert "Sort(#1 DESC)" in text
        assert "Aggregate(keys=[T2.DEPT_NAME]" in text
        assert "Join(T1.DEPT_ID = T2.DEPT_ID)" in text
        assert "Scan(employees AS T1" in text

    def test_resolution_is_case_insensitive_and_alias_aware(self, database):
        plan = plan_query(
            parse_dvq("Visualize BAR SELECT t1.name , salary FROM employees AS T1"),
            database.schema,
        )
        project = next(node for node in iter_nodes(plan) if isinstance(node, Project))
        assert [o.column.column for o in project.outputs] == ["NAME", "SALARY"]
        assert {o.column.effective for o in project.outputs} == {"T1"}

    def test_qualifying_by_underlying_table_name_despite_alias(self, database):
        plan = plan_query(
            parse_dvq("Visualize BAR SELECT employees.NAME , SALARY FROM employees AS T1"),
            database.schema,
        )
        project = next(node for node in iter_nodes(plan) if isinstance(node, Project))
        # the effective (SQL-visible) qualifier is still the alias
        assert project.outputs[0].column.effective == "T1"

    def test_output_labels_match_select_renderings(self, database):
        plan = plan_query(parse_dvq(JOIN_QUERY), database.schema)
        assert output_labels(plan) == ("DEPT_NAME", "AVG(SALARY)")

    def test_missing_identifiers_fail_with_engine_categories(self, database):
        backend = ColumnarBackend()
        missing_table = backend.explain_failure(
            parse_dvq("Visualize BAR SELECT * FROM nowhere"), database
        )
        assert missing_table.category == "missing_table"
        assert missing_table.missing == ("nowhere",)
        missing_column = backend.explain_failure(
            parse_dvq("Visualize BAR SELECT NOPE , COUNT(*) FROM employees GROUP BY NOPE"),
            database,
        )
        assert missing_column.category == "missing_column"
        assert missing_column.missing == ("NOPE",)


class TestOptimizer:
    def test_pushdown_moves_single_table_conjuncts_below_join(self, database):
        plan = plan_query(parse_dvq(JOIN_QUERY), database.schema)
        optimized = optimize(plan)
        join = next(node for node in iter_nodes(optimized) if isinstance(node, Join))
        assert isinstance(join.left, Filter), optimized.explain()
        assert "SALARY > 50" in join.left.predicate.render()
        # no residual filter remains above the join
        assert not any(
            isinstance(node, Filter) and isinstance(node.child, Join)
            for node in iter_nodes(optimized)
        )

    def test_or_across_tables_is_not_pushed(self, database):
        query = parse_dvq(
            "Visualize BAR SELECT DEPT_NAME , COUNT(*) FROM employees AS T1 "
            "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
            "WHERE SALARY > 50 OR CITY = 'Zurich' GROUP BY DEPT_NAME"
        )
        plan = plan_query(query, database.schema)
        optimized = optimize(plan)
        filter_above_join = next(
            node
            for node in iter_nodes(optimized)
            if isinstance(node, Filter) and isinstance(node.child, Join)
        )
        assert "OR" in filter_above_join.predicate.render()

    def test_pushdown_keeps_self_join_aliases_apart(self, database):
        # both scans read ``employees``: a WHERE on T2 lands on T2's scan only
        query = parse_dvq(
            "Visualize BAR SELECT T1.NAME , T1.SALARY FROM employees AS T1 "
            "JOIN employees AS T2 ON T1.DEPT_ID = T2.EMP_ID WHERE T2.SALARY > 100"
        )
        optimized = optimize(plan_query(query, database.schema))
        join = next(node for node in iter_nodes(optimized) if isinstance(node, Join))
        assert isinstance(join.left, Scan), optimized.explain()
        assert isinstance(join.right, Filter), optimized.explain()
        assert join.right.child.effective == "T2"
        assert "T2.SALARY > 100" in join.right.predicate.render()


#: Edge-case queries the engines must agree on beyond the random corpus.
EDGE_QUERIES = [
    "Visualize BAR SELECT NAME , SALARY FROM employees",
    "Visualize BAR SELECT NAME , COUNT(*) FROM employees GROUP BY NAME",
    "Visualize PIE SELECT ACTIVE , COUNT(DISTINCT SALARY) FROM employees GROUP BY ACTIVE",
    "Visualize BAR SELECT COUNT(*) , SUM(SALARY) FROM employees",
    "Visualize BAR SELECT COUNT(*) , SUM(SALARY) FROM employees WHERE SALARY > 100000",
    "Visualize LINE SELECT HIRE_DATE , AVG(SALARY) FROM employees BIN HIRE_DATE BY YEAR",
    "Visualize LINE SELECT HIRE_DATE , COUNT(*) FROM employees BIN HIRE_DATE BY WEEKDAY",
    "Visualize BAR SELECT SALARY , COUNT(SALARY) FROM employees BIN SALARY BY INTERVAL",
    "Visualize BAR SELECT NAME , SALARY FROM employees WHERE NAME = 'null'",
    "Visualize BAR SELECT NAME , SALARY FROM employees WHERE NAME != 'null'",
    # a NULL literal never compares true; the engines evaluate it natively
    "Visualize BAR SELECT NAME , SALARY FROM employees WHERE SALARY > null OR NAME = 'Bob'",
    "Visualize BAR SELECT NAME , SALARY FROM employees WHERE NAME = 'ADA'",
    "Visualize BAR SELECT NAME , SALARY FROM employees "
    "WHERE NAME IN ( 'Ada' , 'eve' ) OR SALARY BETWEEN 70 AND 90",
    "Visualize BAR SELECT NAME , SALARY FROM employees WHERE NAME NOT LIKE 'A%'",
    "Visualize BAR SELECT NAME , SALARY FROM employees "
    "WHERE SALARY IS NOT NULL AND NAME NOT IN ( 'Bob' )",
    "Visualize BAR SELECT NAME , SALARY FROM employees ORDER BY SALARY DESC",
    "Visualize BAR SELECT NAME , SALARY FROM employees ORDER BY NAME ASC LIMIT 3",
    "Visualize BAR SELECT DEPT_NAME , COUNT(*) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID GROUP BY DEPT_NAME",
    "Visualize STACKED BAR SELECT DEPT_NAME , SUM(SALARY) , CITY FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "GROUP BY DEPT_NAME , CITY ORDER BY DEPT_NAME ASC",
    "Visualize BAR SELECT DEPT_NAME , MAX(SALARY) FROM employees "
    "JOIN departments ON departments.DEPT_ID = employees.DEPT_ID "
    "WHERE CITY = 'Zurich' GROUP BY DEPT_NAME LIMIT 1",
    # aliased self-joins: each alias reads its own row of ``employees``
    "Visualize BAR SELECT T1.NAME , T2.SALARY FROM employees AS T1 "
    "JOIN employees AS T2 ON T1.DEPT_ID = T2.EMP_ID",
    "Visualize BAR SELECT T2.NAME , COUNT(*) FROM employees AS T1 "
    "JOIN employees AS T2 ON T1.DEPT_ID = T2.EMP_ID WHERE T1.SALARY > 90 GROUP BY T2.NAME",
]

#: The fuzz matrix's engines (``repro.workload.fuzz.default_engine_matrix``);
#: fresh instances per test keep SQLite connection caches isolated.
ENGINE_FACTORIES = {
    "columnar": ColumnarBackend,
    "columnar-python": lambda: ColumnarBackend(vectorize=False),
    "sqlite": SQLiteBackend,
}


class TestPushdownOnEdgeCases:
    @pytest.mark.parametrize("query_text", EDGE_QUERIES)
    def test_pushdown_is_idempotent_and_keeps_the_outputs(self, database, query_text):
        plan = plan_query(parse_dvq(query_text), database.schema)
        optimized = optimize(plan)
        assert optimize(optimized) == optimized
        assert output_labels(optimized) == output_labels(plan)
        if not any(isinstance(node, Join) for node in iter_nodes(plan)):
            assert optimized == plan  # nothing to push below
        # a filter sitting on a scan reads that scan's table alone
        for node in iter_nodes(optimized):
            if isinstance(node, Filter) and isinstance(node.child, Scan):
                effectives = {column.effective for column in node.predicate.columns()}
                assert effectives <= {node.child.effective}, optimized.explain()


class TestColumnarEngine:
    @pytest.mark.parametrize("query_text", EDGE_QUERIES)
    @pytest.mark.parametrize(
        "engine_factory", ENGINE_FACTORIES.values(), ids=ENGINE_FACTORIES.keys()
    )
    def test_matches_interpreter_on_edge_cases(self, database, query_text, engine_factory):
        query = parse_dvq(query_text)
        expected = InterpreterBackend().execute(query, database)
        actual = engine_factory().execute(query, database)
        assert actual.columns == expected.columns
        assert actual.rows == expected.rows, query_text

    @pytest.mark.parametrize("query_text", EDGE_QUERIES)
    @pytest.mark.parametrize("vectorize", [True, False], ids=["vectorized", "scalar"])
    def test_matches_interpreter_without_optimizer(self, database, query_text, vectorize):
        # the canonical plan, without pushdown, straight through the engine,
        # whose rows are already normalised
        query = parse_dvq(query_text)
        expected = InterpreterBackend().execute(query, database)
        plan = plan_query(query, database.schema)
        assert ColumnarEngine(vectorize=vectorize).run(plan, database) == expected.rows

    def test_empty_filter_result_keeps_columns(self, database):
        query = parse_dvq("Visualize BAR SELECT NAME , SALARY FROM employees WHERE SALARY > 9999")
        result = ColumnarBackend().execute(query, database)
        assert result.columns == ["NAME", "SALARY"]
        assert result.rows == []

    def test_aggregates_only_query_is_empty_on_empty_input(self):
        database = Database(_schema())  # no rows inserted
        query = parse_dvq("Visualize BAR SELECT COUNT(*) , SUM(SALARY) FROM employees")
        assert ColumnarBackend().execute(query, database).rows == []
        assert InterpreterBackend().execute(query, database).rows == []

    @pytest.mark.parametrize("vectorize", [True, False], ids=["vectorized", "scalar"])
    def test_degenerate_join_keys_on_the_new_table_match_interpreter(
        self, database, vectorize
    ):
        # both ON keys name the newly joined table: the interpreter skips
        # every row pair (empty join); the engine must not crash
        query = parse_dvq(
            "Visualize BAR SELECT NAME , COUNT(*) FROM employees "
            "JOIN departments ON departments.DEPT_ID = departments.DEPT_ID "
            "GROUP BY NAME"
        )
        backend = ColumnarBackend(vectorize=vectorize)
        expected = InterpreterBackend().execute(query, database)
        assert backend.execute(query, database).rows == expected.rows == []
        assert backend.explain_failure(query, database).ok

    @pytest.mark.parametrize("vectorize", [True, False], ids=["vectorized", "scalar"])
    def test_join_keys_on_the_old_table_use_name_based_fallback(self, database, vectorize):
        # both ON keys resolve into the already-joined table; the interpreter
        # matches the right key by bare column name in the NEW table
        # (employees.DEPT_ID = departments.DEPT_ID here, despite the
        # qualifier) — the engine must reproduce that
        query = parse_dvq(
            "Visualize BAR SELECT DEPT_NAME , COUNT(*) FROM employees "
            "JOIN departments ON employees.DEPT_ID = employees.DEPT_ID "
            "GROUP BY DEPT_NAME ORDER BY DEPT_NAME ASC"
        )
        expected = InterpreterBackend().execute(query, database)
        actual = ColumnarBackend(vectorize=vectorize).execute(query, database)
        assert actual.rows == expected.rows
        assert len(actual.rows) > 0

    def test_column_store_invalidated_by_insert(self, database):
        table = database.table("employees")
        store = table.column_store()
        assert len(store["NAME"]) == 5
        table.insert({"EMP_ID": 6, "NAME": "Fay", "SALARY": 10, "DEPT_ID": 1})
        assert len(table.column_store()["NAME"]) == 6
        query = parse_dvq("Visualize BAR SELECT NAME , COUNT(*) FROM employees GROUP BY NAME")
        expected = InterpreterBackend().execute(query, database)
        assert ColumnarBackend().execute(query, database).rows == expected.rows


class TestBackendRegistration:
    def test_resolve_backend_knows_columnar(self):
        backend = resolve_backend("columnar")
        assert backend.name == "columnar"
        assert isinstance(backend, ColumnarBackend)

    def test_unknown_backend_names_all_engines(self):
        # columnar setups are ColumnarBackend arguments (vectorize=False),
        # not backend names; the removed variants stay rejected
        for name in ("postgres", "columnar-parallel", "columnar-cbo",
                     "columnar-rules", "columnar-python", "columnar-approx"):
            with pytest.raises(ValueError, match="'columnar', 'interpreter' or 'sqlite'"):
                resolve_backend(name)

    def test_instances_pass_through(self):
        backend = ColumnarBackend(vectorize=False)
        assert resolve_backend(backend) is backend


class TestSQLLoweringFromPlan:
    @pytest.mark.parametrize(
        "query_text",
        [
            JOIN_QUERY,  # pushdown lands on the join's LEFT scan
            # a dimension-side predicate: pushdown lands on the RIGHT scan
            "Visualize BAR SELECT DEPT_NAME , COUNT(*) FROM employees AS T1 "
            "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
            "WHERE CITY = 'Zurich' GROUP BY DEPT_NAME",
        ],
        ids=["left-filter", "right-filter"],
    )
    def test_compiler_rejects_non_canonical_plans(self, database, query_text):
        from repro.sql import DVQToSQLCompiler

        plan = optimize(plan_query(parse_dvq(query_text), database.schema))
        with pytest.raises(ValueError, match="canonical"):
            DVQToSQLCompiler().compile_plan(plan)

    def test_compiler_accepts_canonical_plans(self, database):
        from repro.sql import DVQToSQLCompiler

        query = parse_dvq(JOIN_QUERY)
        compiled_from_query = DVQToSQLCompiler().compile(query, database.schema)
        compiled_from_plan = DVQToSQLCompiler().compile_plan(
            plan_query(query, database.schema)
        )
        assert compiled_from_plan == compiled_from_query
        assert compiled_from_query.columns == ("DEPT_NAME", "AVG(SALARY)")
