"""Vectorized-kernel throughput — NumPy columnar kernels vs the scalar engine.

This benchmark is the perf acceptance bar for the typed column store
(:mod:`repro.database.typed`) and the vectorized kernels behind
:class:`~repro.executor.ColumnarBackend`.  A 1M-row fact table joined to a
50-row dimension table is built deterministically (with NULLs sprinkled into
both the measure and the join-key columns, so the masked paths are on the
hot path); a join + filter + group + top-k workload is then executed with
the NumPy kernels on and off, and the wall-clock speed-up recorded.  The
acceptance bar is a >= 10x end-to-end speed-up of the vectorized engine over
the per-value scalar engine, which must return identical rows.

Timing protocol: one untimed warm-up pass per engine builds the lazy caches
(the typed store's lowered-text shadow), then the vectorized engine takes
the best of three passes while the scalar engine — too slow to repeat —
takes a single pass.

Every engine variant must also return identical (normalised) results for
every benchmark query — throughput without equivalence would be meaningless.
The correctness half additionally checks all variants against the row
interpreter oracle at a smaller scale.

Run alone with ``make bench-vector`` (marker: ``vector``); CI runs the
correctness half via ``make bench-vector-check``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend

pytestmark = pytest.mark.vector

FACT_ROWS = 1_000_000
DIM_ROWS = 50
#: Scale of the interpreter-oracle correctness half (the oracle is orders of
#: magnitude slower than the kernels, so it gets a smaller but structurally
#: identical database).
CHECK_ROWS = 60_000

QUERIES = [
    # the headline shape: join + filter + group + aggregate + top-k
    "Visualize BAR SELECT DEPT_NAME , AVG(SALARY) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE SALARY > 2000 AND ROLE LIKE '%eng%' "
    "GROUP BY DEPT_NAME ORDER BY AVG(SALARY) DESC LIMIT 5",
    "Visualize PIE SELECT CITY , COUNT(*) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE SALARY BETWEEN 1000 AND 8000 "
    "AND ROLE IN ('Engineer', 'Manager', 'Analyst') "
    "GROUP BY CITY ORDER BY COUNT(*) DESC LIMIT 4",
    "Visualize BAR SELECT DEPT_NAME , SUM(SALARY) FROM employees AS T1 "
    "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
    "WHERE ROLE = 'Manager' OR SALARY > 9000 "
    "GROUP BY DEPT_NAME ORDER BY SUM(SALARY) DESC LIMIT 8",
    "Visualize BAR SELECT ROLE , SUM(SALARY) FROM employees "
    "WHERE ROLE LIKE '%e%' AND ROLE NOT LIKE '%con%' AND SALARY > 300 "
    "GROUP BY ROLE ORDER BY SUM(SALARY) DESC LIMIT 6",
]

_CITIES = ["Zurich", "Tokyo", "Lisbon", "Austin", "Oslo", "Seoul", "Quito"]
_ROLES = [
    "Engineer", "Senior Engineer", "Manager", "Analyst", "Designer",
    "Director", "Intern", "Consultant",
]


def _bench_database(fact_rows: int) -> Database:
    schema = build_schema(
        "vector_bench",
        [
            (
                "employees",
                [
                    ("EMP_ID", ColumnType.NUMBER, "id"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("ROLE", ColumnType.TEXT, "job_title"),
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
    rng = random.Random(47)
    departments = [
        {
            "DEPT_ID": index + 1,
            "DEPT_NAME": f"Dept {index + 1:02d}",
            "CITY": rng.choice(_CITIES),
        }
        for index in range(DIM_ROWS)
    ]
    # ~3% NULL salaries and ~3% NULL join keys: the mask and the NULL-join
    # semantics stay on the measured path
    employees = [
        {
            "EMP_ID": index + 1,
            "SALARY": None if rng.random() < 0.03 else rng.randint(100, 10_000),
            "ROLE": rng.choice(_ROLES),
            "DEPT_ID": None if rng.random() < 0.03 else rng.randint(1, DIM_ROWS),
        }
        for index in range(fact_rows)
    ]
    database = Database.from_rows(
        schema, {"departments": departments, "employees": employees}
    )
    # pre-build the typed stores so the timing below measures kernels, not
    # the one-time column materialisation every engine shares
    for table in database.tables():
        table.typed_store()
    return database


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


def test_vector_engine_matches_the_interpreter_on_the_bench_workload(canonical_plan_backend):
    """Correctness half (CI-safe): every kernel variant, identical results."""
    database = _bench_database(CHECK_ROWS)
    queries = [parse_dvq(text) for text in QUERIES]
    expected = [InterpreterBackend().execute(query, database) for query in queries]
    variants = {
        "vectorized": ColumnarBackend(),
        "vectorized unoptimized": canonical_plan_backend,
        "scalar": ColumnarBackend(vectorize=False),
    }
    for label, backend in variants.items():
        actual = [backend.execute(query, database) for query in queries]
        _assert_identical(expected, actual, label)


def test_vector_engine_throughput_is_at_least_10x_on_1m_row_join(bench_report):
    """Timing half: >= 10x over the scalar columnar engine at 1M rows."""
    database = _bench_database(FACT_ROWS)
    queries = [parse_dvq(text) for text in QUERIES]

    vectorized = ColumnarBackend()
    scalar = ColumnarBackend(vectorize=False)

    _, expected = _timed(vectorized, queries, database)  # warm-up, kept as oracle
    vector_seconds = min(_timed(vectorized, queries, database)[0] for _ in range(3))
    scalar_seconds, scalar_results = _timed(scalar, queries, database)
    _assert_identical(expected, scalar_results, "scalar")

    speedup = scalar_seconds / vector_seconds
    print(
        f"\nvector-kernel throughput over {len(queries)} queries "
        f"({FACT_ROWS:,}-row fact join {DIM_ROWS}-row dim):"
    )
    for label, seconds in [
        ("columnar scalar (vectorize=False)", scalar_seconds),
        ("columnar vectorized", vector_seconds),
    ]:
        print(
            f"  {label}:".ljust(40)
            + f"{seconds:.2f}s  ({scalar_seconds / seconds:.1f}x)"
        )

    bench_report(
        speedup=speedup,
        rows=FACT_ROWS,
        queries=len(queries),
        timings={"scalar": scalar_seconds, "vectorized": vector_seconds},
    )

    assert speedup >= 10.0, (
        f"vectorized kernels only {speedup:.2f}x faster than the scalar engine"
    )
