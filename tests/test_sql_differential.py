"""Differential test harness: every execution engine vs the row interpreter.

A seeded :class:`~repro.dvq.generate.RandomDVQGenerator` produces hundreds of
queries from the portable DVQ subset — across chart types, aggregates,
binning, joins, predicates and top-k — over randomly generated databases
(with NULLs injected into every non-primary-key column — including foreign
keys, since all engines share SQL's NULL-join semantics).  Every query must
execute to an *identical* :class:`~repro.executor.executor.ExecutionResult`
(columns, rows and row order after normalisation) on every engine, with the
legacy row-at-a-time interpreter as the reference oracle.  The engine axis
is the fuzz matrix: the SQLite backend and the columnar plan engine with the
NumPy kernels on (``columnar``) and off (``columnar-python``); the canonical
(un-pushed-down) plan is checked against the interpreter in
``tests/test_plan.py``.

Run this suite alone with ``make test-diff`` (it is marked
``differential``).
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.database import DataGenerator
from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq, serialize_dvq
from repro.dvq.generate import RandomDVQGenerator
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.sql import DVQToSQLCompiler, SQLiteBackend

pytestmark = pytest.mark.differential

#: The engine axis: every non-reference engine must match the interpreter
#: row-for-row.  Fresh instances per test keep engine state (SQLite
#: connection caches) isolated.
ENGINE_FACTORIES = {
    "sqlite": SQLiteBackend,
    "columnar": ColumnarBackend,
    "columnar-python": lambda: ColumnarBackend(vectorize=False),
}


def test_matrix_covers_the_vectorized_engine():
    """The default columnar engine runs the NumPy kernels; the ``-python``
    entry pins the scalar fallback path so both halves of every kernel's
    decline contract stay under differential test."""
    assert ColumnarBackend().vectorize
    engines = {name: factory() for name, factory in ENGINE_FACTORIES.items()}
    assert engines["columnar"].vectorize
    assert not engines["columnar-python"].vectorize


def _engine_params():
    return [pytest.param(factory, id=name) for name, factory in ENGINE_FACTORIES.items()]


def _hr_schema():
    return build_schema(
        "hr_diff",
        [
            (
                "employees",
                [
                    ("EMPLOYEE_ID", ColumnType.NUMBER, "id"),
                    ("FIRST_NAME", ColumnType.TEXT, "first_name"),
                    ("LAST_NAME", ColumnType.TEXT, "last_name"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("HIRE_DATE", ColumnType.DATE, "date"),
                    ("ACTIVE", ColumnType.BOOLEAN, "flag"),
                    ("DEPARTMENT_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "departments",
                [
                    ("DEPARTMENT_ID", ColumnType.NUMBER, "id"),
                    ("DEPARTMENT_NAME", ColumnType.TEXT, "department"),
                    ("CITY", ColumnType.TEXT, "city"),
                    ("BUDGET", ColumnType.NUMBER, "budget"),
                ],
            ),
        ],
        foreign_keys=[("employees", "DEPARTMENT_ID", "departments", "DEPARTMENT_ID")],
    )


def _store_schema():
    return build_schema(
        "store_diff",
        [
            (
                "products",
                [
                    ("PRODUCT_ID", ColumnType.NUMBER, "id"),
                    ("PRODUCT_NAME", ColumnType.TEXT, "product"),
                    ("CATEGORY", ColumnType.TEXT, "category"),
                    ("PRICE", ColumnType.NUMBER, "price"),
                    ("IN_STOCK", ColumnType.BOOLEAN, "flag"),
                ],
            ),
            (
                "orders",
                [
                    ("ORDER_ID", ColumnType.NUMBER, "id"),
                    ("PRODUCT_ID", ColumnType.NUMBER, "id"),
                    ("ORDER_DATE", ColumnType.DATE, "date"),
                    ("QUANTITY", ColumnType.NUMBER, "count"),
                    ("STATUS", ColumnType.TEXT, "status"),
                ],
            ),
        ],
        foreign_keys=[("orders", "PRODUCT_ID", "products", "PRODUCT_ID")],
    )


def _events_schema():
    return build_schema(
        "events_diff",
        [
            (
                "events",
                [
                    ("EVENT_ID", ColumnType.NUMBER, "id"),
                    ("THEME", ColumnType.TEXT, "theme"),
                    ("CITY", ColumnType.TEXT, "city"),
                    ("EVENT_DATE", ColumnType.DATE, "date"),
                    ("ATTENDANCE", ColumnType.NUMBER, "capacity"),
                    ("RATING", ColumnType.NUMBER, "rating"),
                ],
            ),
        ],
    )


def inject_nulls(database: Database, seed: int, fraction: float = 0.12) -> None:
    """Null out a fraction of non-primary-key values, seeded.

    Foreign-key columns are deliberately *included*: every engine now
    implements SQL join semantics where a NULL key never matches (not even
    another NULL), so NULL join keys are inside the portable subset and the
    corpus must exercise them.  Primary keys stay intact so FK references
    remain resolvable.
    """
    rng = random.Random(seed)
    for table in database.tables():
        for column in table.schema.columns:
            if column.is_primary:
                continue
            for row in table.rows:
                if rng.random() < fraction:
                    row[column.name] = None


#: (schema builder, datagen seed, generator seed, query count) per case.
_CASES = [
    pytest.param(_hr_schema, 11, 42, 80, id="hr"),
    pytest.param(_store_schema, 21, 7, 70, id="store"),
    pytest.param(_events_schema, 22, 3, 70, id="events"),
]

#: Queries generated over the synthetic workload schema graph (statistics
#: driven, multi-join) on top of the fixed-schema cases above.
_WORKLOAD_QUERIES = 780

#: Total queries across the suite — the acceptance bar is >= 1000.
TOTAL_QUERIES = 80 + 70 + 70 + _WORKLOAD_QUERIES


# built once per pytest run: the agreement tests and the coverage test share
# the same databases and query corpus
@functools.lru_cache(maxsize=None)
def _build_database(schema_builder, data_seed: int) -> Database:
    database = DataGenerator(seed=data_seed, rows_per_table=40).populate(schema_builder())
    inject_nulls(database, seed=data_seed)
    return database


@functools.lru_cache(maxsize=None)
def _generate_corpus(database: Database, generator_seed: int, count: int):
    generator = RandomDVQGenerator(seed=generator_seed)
    return generator.generate_many(database, count)


@pytest.mark.parametrize("engine_factory", _engine_params())
@pytest.mark.parametrize("schema_builder,data_seed,generator_seed,count", _CASES)
def test_backends_agree_on_generated_queries(
    schema_builder, data_seed, generator_seed, count, engine_factory
):
    database = _build_database(schema_builder, data_seed)
    interpreter = InterpreterBackend()
    engine = engine_factory()
    compiler = DVQToSQLCompiler()
    for query in _generate_corpus(database, generator_seed, count):
        # the harness compares through the text form: generated queries must
        # survive serialize -> parse unchanged
        text = serialize_dvq(query)
        parsed = parse_dvq(text)
        assert serialize_dvq(parsed) == text
        expected = interpreter.execute(parsed, database)
        actual = engine.execute(parsed, database)
        detail = (
            f"SQL: {compiler.compile(parsed, database.schema).sql}"
            if engine.name == "sqlite"
            else f"plan:\n{engine.plan(parsed, database).explain()}"
        )
        assert actual.columns == expected.columns, f"columns differ for {text!r}"
        assert actual.chart_type == expected.chart_type
        assert actual.rows == expected.rows, (
            f"rows differ for {text!r}\n  {detail}\n"
            f"  interpreter: {expected.rows[:8]}\n  {engine.name}: {actual.rows[:8]}"
        )


def test_suite_meets_query_budget():
    assert TOTAL_QUERIES >= 1000


# -- workload-generator corpus: synthetic schema graph, multi-join walks -----


@functools.lru_cache(maxsize=None)
def _workload_database():
    from repro.workload import SchemaGraphConfig, build_workload_database

    return build_workload_database(
        SchemaGraphConfig(seed=29, table_count=7, topology="snowflake",
                          name="workload_diff"),
        total_rows=900,
    )


@functools.lru_cache(maxsize=None)
def _workload_corpus():
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(seed=17, max_joins=3, join_probability=0.5,
                                  max_join_cost=400_000)
    return tuple(generator.generate_many(_workload_database(), _WORKLOAD_QUERIES))


@pytest.mark.parametrize("engine_factory", _engine_params())
def test_backends_agree_on_workload_corpus(engine_factory):
    """The statistics-driven corpus: 780 queries per engine via ``run_batch``,
    which collects every disagreement instead of stopping at the first."""
    from repro.runtime.runner import run_batch

    database = _workload_database()
    interpreter = InterpreterBackend()
    engine = engine_factory()

    def check(query):
        text = serialize_dvq(query)
        parsed = parse_dvq(text)
        assert serialize_dvq(parsed) == text
        expected = interpreter.execute(parsed, database)
        actual = engine.execute(parsed, database)
        assert actual.columns == expected.columns, f"columns differ for {text!r}"
        assert actual.chart_type == expected.chart_type
        assert actual.rows == expected.rows, (
            f"rows differ for {text!r}\n"
            f"  interpreter: {expected.rows[:8]}\n  {engine.name}: {actual.rows[:8]}"
        )

    report = run_batch(_workload_corpus(), check)
    failures = report.failures()
    assert not failures, f"{len(failures)} disagreements; first: {failures[0].error}"


def test_workload_corpus_covers_multi_joins_and_scale():
    queries = _workload_corpus()
    assert len(queries) == _WORKLOAD_QUERIES
    assert sum(1 for q in queries if len(q.joins) >= 2) >= 20
    assert sum(1 for q in queries if q.joins) >= 150
    assert sum(1 for q in queries if q.where is not None) >= 300
    # every reference in a multi-table scope is qualified (no ambiguity)
    for query in queries:
        if query.joins:
            for ref in query.referenced_columns():
                assert ref.table or ref.column == "*", serialize_dvq(query)


def test_generated_corpus_covers_the_feature_matrix():
    """The differential corpus genuinely exercises every DVQ feature."""
    queries = []
    for param in _CASES:
        schema_builder, data_seed, generator_seed, count = param.values
        database = _build_database(schema_builder, data_seed)
        queries.extend(_generate_corpus(database, generator_seed, count))
    queries.extend(_workload_corpus())
    assert len(queries) == TOTAL_QUERIES
    chart_types = {query.chart_type for query in queries}
    assert len(chart_types) >= 5
    assert sum(1 for query in queries if query.joins) >= 10
    assert sum(1 for query in queries if query.bin is not None) >= 10
    assert sum(1 for query in queries if query.where is not None) >= 40
    assert sum(1 for query in queries if query.order_by is not None) >= 40
    assert sum(1 for query in queries if query.limit is not None) >= 10
    assert sum(1 for query in queries if any(i.is_aggregate for i in query.select)) >= 80
    operators = {
        condition.operator.upper()
        for query in queries
        if query.where is not None
        for condition in query.where.conditions
    }
    assert {"=", "BETWEEN", "IN", "LIKE", "IS NULL"} <= operators


#: Broken DVQs per failure category, instantiated over each case's main table.
_BROKEN_TEMPLATES = [
    (
        "missing_table",
        "Visualize BAR SELECT * FROM no_such_table_xyz",
    ),
    (
        "missing_column",
        "Visualize BAR SELECT NO_SUCH_COL_XYZ , COUNT(*) FROM {table} GROUP BY NO_SUCH_COL_XYZ",
    ),
]


@pytest.mark.parametrize("engine_factory", _engine_params())
@pytest.mark.parametrize("schema_builder,data_seed,generator_seed,count", _CASES)
def test_backends_agree_on_failure_categories(
    schema_builder, data_seed, generator_seed, count, engine_factory
):
    """`explain_failure` parity: same category and missing identifiers per engine.

    Covers hand-made failures per category plus a sweep mutating every
    generated query's FROM table — the structured outcome feeding the repair
    loop must not depend on which engine ran the candidate.
    """
    database = _build_database(schema_builder, data_seed)
    interpreter = InterpreterBackend()
    engine = engine_factory()
    main_table = database.schema.tables[0].name
    for category, template in _BROKEN_TEMPLATES:
        query = parse_dvq(template.format(table=main_table))
        left = interpreter.explain_failure(query, database)
        right = engine.explain_failure(query, database)
        assert left.category == category, template
        assert right.category == category, template
        assert left.missing == right.missing
        assert not left.ok and not right.ok
    # sweep: break the FROM table of every generated query
    for query in _generate_corpus(database, generator_seed, count)[:30]:
        broken = query.replace(table="no_such_table_xyz")
        left = interpreter.explain_failure(broken, database)
        right = engine.explain_failure(broken, database)
        assert left.category == right.category == "missing_table", serialize_dvq(broken)
        assert left.missing == right.missing == ("no_such_table_xyz",)


def test_unsupported_category_carries_no_missing_identifiers():
    """`missing` names schema identifiers only — never functions or units."""
    from repro.executor import classify_failure
    from repro.executor.errors import ExecutionError

    outcome = classify_failure(ExecutionError("Unsupported bin unit 'WEEKZ'"))
    assert outcome.category == "unsupported"
    assert outcome.missing == ()


@pytest.mark.parametrize("engine_factory", _engine_params())
def test_backends_agree_on_cross_table_column_category(engine_factory):
    """A column that exists elsewhere in the database but not in the read tables."""
    database = _build_database(_hr_schema, 11)
    query = parse_dvq(
        "Visualize BAR SELECT DEPARTMENT_NAME , AVG(SALARY) "
        "FROM departments GROUP BY DEPARTMENT_NAME"
    )
    left = InterpreterBackend().explain_failure(query, database)
    right = engine_factory().explain_failure(query, database)
    assert left.category == right.category == "missing_column"
    assert left.missing == right.missing == ("SALARY",)


@pytest.mark.parametrize("engine_factory", _engine_params())
@pytest.mark.parametrize("schema_builder,data_seed,generator_seed,count", _CASES)
def test_explain_failure_is_ok_for_the_whole_portable_corpus(
    schema_builder, data_seed, generator_seed, count, engine_factory
):
    database = _build_database(schema_builder, data_seed)
    interpreter = InterpreterBackend()
    engine = engine_factory()
    for query in _generate_corpus(database, generator_seed, count)[:20]:
        assert interpreter.explain_failure(query, database).ok
        assert engine.explain_failure(query, database).ok


def test_databases_contain_nulls():
    """The null injection actually produced NULLs for the suite to chew on."""
    database = _build_database(_hr_schema, 11)
    nulls = sum(
        1
        for table in database.tables()
        for row in table.rows
        for value in row.values()
        if value is None
    )
    assert nulls > 20


# -- aliased self-joins ------------------------------------------------------


def _org_database() -> Database:
    """Ten employees, each reporting to a boss in the same table."""
    schema = build_schema(
        "org_diff",
        [
            (
                "emp",
                [
                    ("ID", ColumnType.NUMBER, "id"),
                    ("NAME", ColumnType.TEXT, "name"),
                    ("DEPT", ColumnType.TEXT, "department"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("BOSS", ColumnType.NUMBER, "id"),
                ],
            )
        ],
    )
    rows = [
        {
            "ID": i,
            "NAME": f"n{i}",
            "DEPT": "ab"[i % 2],
            "SALARY": 10 * i,
            "BOSS": None if i == 1 else (i - 1) // 3 + 1,
        }
        for i in range(1, 11)
    ]
    return Database.from_rows(schema, {"emp": rows})


_SELF_JOIN = "FROM emp AS T1 JOIN emp AS T2 ON T1.BOSS = T2.ID"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"Visualize BAR SELECT T1.NAME , T1.SALARY {_SELF_JOIN}", id="left-side"),
        pytest.param(f"Visualize BAR SELECT T2.NAME , T2.SALARY {_SELF_JOIN}", id="right-side"),
        pytest.param(
            f"Visualize STACKED BAR SELECT T1.DEPT , COUNT(*) , T2.NAME {_SELF_JOIN} "
            "GROUP BY T1.DEPT , T2.NAME",
            id="stacked-both-sides",
        ),
        pytest.param(
            f"Visualize BAR SELECT T1.NAME , T1.SALARY {_SELF_JOIN} WHERE T2.SALARY > 10",
            id="where-other-side",
        ),
        pytest.param(
            f"Visualize BAR SELECT T2.NAME , T1.SALARY {_SELF_JOIN} ORDER BY T1.SALARY DESC",
            id="order-by-other-side",
        ),
        pytest.param(
            "Visualize BAR SELECT NAME , SALARY FROM emp AS T1 JOIN emp AS T2 "
            "ON T2.ID = T1.BOSS",
            id="bare-columns-swapped-on",
        ),
    ],
)
@pytest.mark.parametrize("engine_factory", _engine_params())
def test_aliased_self_join_keeps_both_sides_apart(engine_factory, text):
    """Each alias of a self-joined table reads its own row on every engine.

    The interpreter keys a joined row's parts by effective name, so T2's row
    never overwrites T1's even though both name the table ``emp``.
    """
    database = _org_database()
    query = parse_dvq(text)
    expected = InterpreterBackend().execute(query, database).rows
    assert expected
    assert engine_factory().execute(query, database).rows == expected
