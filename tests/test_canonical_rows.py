"""The columnar engine's canonical rows, pinned to ``normalize_result``.

:meth:`ColumnarEngine.run` emits canonical values in canonical order itself:
a ``Project`` root (under an optional ``Sort``) through one sort over the
output columns' codes (``_canonical_project``), every other root and every
decline through :func:`~repro.executor.backend.canonical_rows`.  These tests
hold that output to :func:`~repro.executor.backend.normalize_result` over the
engine's own raw rows — NaN-aware row equality plus each cell's type — on the
workload corpus and on hand-built columns of every value kind the kernel must
either order exactly or decline.
"""

from __future__ import annotations

import itertools
import random
import weakref

import pytest

import repro.executor.columnar as columnar_module
from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, ColumnarEngine, ExecutionResult, InterpreterBackend
from repro.executor.backend import normalize_result
from repro.executor.errors import ExecutionError
from repro.workload import (
    SchemaGraphConfig,
    WorkloadGenerator,
    build_workload_database,
    rows_agree,
)

NAN = float("nan")


@pytest.fixture
def kernel_answers(monkeypatch):
    """Record, per fused-kernel call, whether it answered (``False`` = declined)."""
    answers = []
    real = columnar_module.ColumnarEngine._canonical_project

    def spy(*args, **kwargs):
        rows = real(*args, **kwargs)
        answers.append(rows is not None)
        return rows

    monkeypatch.setattr(columnar_module.ColumnarEngine, "_canonical_project", spy)
    return answers


def assert_pinned(query, database):
    """The engine's rows equal ``normalize_result`` over its raw rows, cell
    types included, on both the vectorized and the scalar engine."""
    plan = ColumnarBackend().plan(query, database)
    raw = ColumnarEngine()._rows(plan, database)
    expected = normalize_result(
        ExecutionResult(columns=[], rows=raw, chart_type=query.chart_type.value), query
    ).rows
    for engine in (ColumnarEngine(), ColumnarEngine(vectorize=False)):
        actual = engine.run(plan, database)
        assert rows_agree(actual, expected), (query, actual, expected)
        assert [[type(value) for value in row] for row in actual] == [
            [type(value) for value in row] for row in expected
        ], query


# -- the workload corpus -----------------------------------------------------


def _sweep_databases():
    yield build_workload_database(
        SchemaGraphConfig(seed=7, table_count=6, topology="star", name="pin_db"),
        total_rows=1_500,
    )
    yield build_workload_database(
        SchemaGraphConfig(seed=13, table_count=5, topology="snowflake", name="pin_null_db"),
        total_rows=1_200,
        null_fraction=0.3,
        fk_null_fraction=0.25,
    )
    yield build_workload_database(
        SchemaGraphConfig(seed=29, table_count=5, topology="star", name="pin_nan_db"),
        total_rows=1_200,
        nan_fraction=0.15,
    )


@pytest.mark.parametrize("database", list(_sweep_databases()), ids=lambda db: db.name)
def test_workload_corpus_matches_normalize_result(database, kernel_answers):
    cache = weakref.WeakKeyDictionary()
    checked = 0
    for seed in range(150):
        # ORDER BY / LIMIT-weighted, so Sort roots are common
        generator = WorkloadGenerator(
            seed=seed, order_probability=0.6, limit_probability=0.2, stats_cache=cache
        )
        query = generator.generate(database)
        try:
            assert_pinned(query, database)
        except ExecutionError:
            continue
        checked += 1
    assert checked > 100
    assert any(kernel_answers), "the fused kernel never answered a corpus query"


# -- hand-built columns ------------------------------------------------------

#: One column per value kind.  INT and TEXT (and the all-NULL column, whose
#: values are trivially canonical) are what the kernel orders itself; FLOAT,
#: BOOL and MIXED hold values ``canonical_value`` rewrites, so it declines.
_COLUMNS = {
    "INT": [3, None, -7, 3, 0, 2**53, -(2**53), 12, None, 3, 0, 41],
    "TEXT": [
        "Apple", "apple", None, "İİİ", "İİiж", "i̇i̇", "b", "", "APPLE", "apple",
        "Ωmega", "b",
    ],
    "FLOAT": [
        NAN, 0.1 + 0.2, 0.3, -0.0, 0.0, float("inf"), -float("inf"), 2.5, 1.0,
        None, 1e-12, 7.0,
    ],
    "BOOL": [True, False, None, True, True, False, None, False, True, False, True, None],
    "MIXED": [1, "two", 3.0, None, True, "Two", 1, 2.5, "two", None, 0, "x"],
    "NULLS": [None] * 12,
}
_ANSWERS = {"INT", "TEXT", "NULLS"}


@pytest.fixture(scope="module")
def kinds_database():
    ctypes = {"TEXT": ColumnType.TEXT, "MIXED": ColumnType.TEXT, "BOOL": ColumnType.BOOLEAN}
    schema = build_schema(
        "kinds",
        [("t", [(name, ctypes.get(name, ColumnType.NUMBER), "value") for name in _COLUMNS])],
    )
    order = list(range(12))
    random.Random(5).shuffle(order)
    rows = [{name: values[index] for name, values in _COLUMNS.items()} for index in order]
    return Database.from_rows(schema, {"t": rows})


def _kind_queries():
    for first, second in itertools.product(_COLUMNS, repeat=2):
        select = f"Visualize SCATTER SELECT {first} , {second} FROM t"
        yield select, {first, second}
        for column, direction in itertools.product((first, second), ("ASC", "DESC")):
            yield f"{select} ORDER BY {column} {direction}", {first, second}


@pytest.mark.parametrize("text,columns", list(_kind_queries()))
def test_every_value_kind_matches_normalize_result(kinds_database, kernel_answers, text, columns):
    query = parse_dvq(text)
    assert_pinned(query, kinds_database)
    # one call per vectorized run: the kernel answers exactly the int/text cases
    assert kernel_answers == [columns <= _ANSWERS]


@pytest.mark.parametrize("columns", [("INT", "TEXT"), ("FLOAT", "TEXT")])
def test_empty_results_are_empty(kinds_database, kernel_answers, columns):
    query = parse_dvq(
        f"Visualize SCATTER SELECT {columns[0]} , {columns[1]} FROM t "
        f"WHERE INT = 99 ORDER BY {columns[0]} DESC"
    )
    assert_pinned(query, kinds_database)
    assert ColumnarBackend().execute(query, kinds_database).rows == []
    assert kernel_answers == [columns[0] == "INT"] * 2


def test_rounding_ties_keep_the_canonical_order(kinds_database):
    # 0.1 + 0.2 and 0.3 are distinct floats but one canonical value: the
    # ORDER BY tie must fall back to the next column exactly as normalize_result
    # (codes on the raw floats would put 0.3's row, TEXT NULL, first)
    query = parse_dvq("Visualize SCATTER SELECT FLOAT , TEXT FROM t ORDER BY FLOAT ASC")
    rows = ColumnarBackend().execute(query, kinds_database).rows
    assert [row for row in rows if row[0] == 0.3] == [(0.3, "apple"), (0.3, None)]
    assert_pinned(query, kinds_database)


# -- the lowered text shadow -------------------------------------------------


@pytest.fixture(scope="module")
def dotted_i_database():
    """``"İ".lower()`` is two code points, so lowering can lengthen a string."""
    schema = build_schema(
        "dotted",
        [("people", [("ID", ColumnType.NUMBER, "id"), ("NAME", ColumnType.TEXT, "name")])],
    )
    rows = [{"ID": 1, "NAME": "İİİ"}, {"ID": 2, "NAME": "İİiж"}, {"ID": 3, "NAME": "b"}]
    return Database.from_rows(schema, {"people": rows})


@pytest.mark.parametrize(
    "clause,expected",
    [
        ("WHERE NAME = 'i̇i̇'", []),
        ("WHERE NAME LIKE 'i̇i̇'", []),
        ("WHERE NAME LIKE '%ж'", [("İİiж", 2)]),
        ("ORDER BY NAME DESC LIMIT 1", [("İİiж", 2)]),
    ],
)
def test_lowered_shadow_keeps_lengthened_lower_case_forms(dotted_i_database, clause, expected):
    # SQLite folds only ASCII case, so it is not a reference here
    query = parse_dvq(f"Visualize BAR SELECT NAME , ID FROM people {clause}")
    engines = (InterpreterBackend(), ColumnarBackend(), ColumnarBackend(vectorize=False))
    for engine in engines:
        assert engine.execute(query, dotted_i_database).rows == expected, engine
