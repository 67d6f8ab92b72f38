"""ORDER BY / top-k throughput — vectorized sort keys vs the scalar path.

This benchmark is the perf acceptance bar for the vectorized ordering layer
(:mod:`repro.executor.ordering`): a 1M-row orders table sorted and
top-k-cut through the same columnar engine two ways — scalar
(``vectorize=False``, the per-row ``sorted()`` / bounded-heap path) and
vectorized (uint64 sort codes + ``argsort`` / ``argpartition``).  The bar:
vectorized >= 5x over the scalar path.

Every timed query carries a LIMIT on purpose: result normalisation re-sorts
all *output* rows in Python, so an un-limited 1M-row ORDER BY would measure
that scalar re-sort, not the engine's kernels.

The correctness half always runs and is the half CI gates on
(``make bench-sort-check``): the vectorized and scalar engines must return
*bit-identical* rows on the full workload — at a smaller scale, over
NULL- and NaN-bearing sort columns — and match the row-interpreter oracle.

Run alone with ``make bench-sort`` (marker: ``sort``).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.workload import rows_agree

pytestmark = pytest.mark.sort

FACT_ROWS = 1_000_000
#: Scale of the always-on correctness half (the interpreter oracle is orders
#: of magnitude slower, so it gets a smaller but structurally identical db).
CHECK_ROWS = 40_000
VECTOR_SPEEDUP_BAR = 5.0

QUERIES = [
    # the headline shape: deep top-k cut on a NULL/NaN-bearing number column
    "Visualize BAR SELECT STATUS , AMOUNT FROM orders "
    "ORDER BY AMOUNT DESC LIMIT 100",
    "Visualize BAR SELECT ORDER_ID , AMOUNT FROM orders "
    "ORDER BY AMOUNT LIMIT 100",
    # text sort key: dictionary codes + case-insensitive rank
    "Visualize BAR SELECT STATUS , QUANTITY FROM orders "
    "ORDER BY STATUS LIMIT 500",
    # filtered top-k: the cut runs over the scan's surviving rows
    "Visualize BAR SELECT ORDER_ID , QUANTITY FROM orders "
    "WHERE QUANTITY BETWEEN 10 AND 90 ORDER BY QUANTITY DESC LIMIT 50",
]

_STATUSES = ["placed", "shipped", "Delivered", "returned", "cancelled", "HELD"]


def _bench_database(fact_rows: int) -> Database:
    schema = build_schema(
        "sort_bench",
        [
            (
                "orders",
                [
                    ("ORDER_ID", ColumnType.NUMBER, "id"),
                    ("AMOUNT", ColumnType.NUMBER, "price"),
                    ("QUANTITY", ColumnType.NUMBER, "quantity"),
                    ("STATUS", ColumnType.TEXT, "status"),
                ],
            ),
        ],
    )
    rng = random.Random(71)

    def amount():
        # ~2% NULL and ~1% NaN keep the full NUMBER < NaN < NULL rank on the
        # measured path; heavy duplicates put ties on every pivot boundary
        roll = rng.random()
        if roll < 0.02:
            return None
        if roll < 0.03:
            return float("nan")
        return float(rng.randint(1, 5_000))

    orders = [
        {
            "ORDER_ID": index + 1,
            "AMOUNT": amount(),
            "QUANTITY": rng.randint(1, 100),
            "STATUS": rng.choice(_STATUSES),
        }
        for index in range(fact_rows)
    ]
    database = Database.from_rows(schema, {"orders": orders})
    # pre-build the typed stores so the timings measure kernels, not the
    # one-time column materialisation every engine shares
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
        # NaN-aware row equality: NaN cells must match NaN cells exactly
        assert rows_agree(left.rows, right.rows), f"{label}: {query_text}"


def test_sorted_rows_match_the_interpreter_oracle():
    """Correctness half (CI-gated): vectorized and scalar rows, bit-identical."""
    database = _bench_database(CHECK_ROWS)
    queries = [parse_dvq(text) for text in QUERIES]
    oracle = [InterpreterBackend().execute(query, database) for query in queries]
    for label, backend in [
        ("vectorize=False", ColumnarBackend(vectorize=False)),
        ("vectorized", ColumnarBackend()),
    ]:
        actual = [backend.execute(query, database) for query in queries]
        _assert_identical(oracle, actual, label)


def test_sort_throughput_is_at_least_5x_on_1m_rows(bench_report):
    """Timing half: vectorized >= 5x over the scalar path."""
    database = _bench_database(FACT_ROWS)
    queries = [parse_dvq(text) for text in QUERIES]

    scalar = ColumnarBackend(vectorize=False)
    vectorized = ColumnarBackend()

    _, expected = _timed(scalar, queries, database)  # warm-up, kept as oracle
    scalar_seconds = min(_timed(scalar, queries, database)[0] for _ in range(2))
    _timed(vectorized, queries, database)
    vector_seconds, vector_results = min(
        (_timed(vectorized, queries, database) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    _assert_identical(expected, vector_results, "vectorized")

    vector_speedup = scalar_seconds / vector_seconds
    print(f"\nsort/top-k throughput over {len(queries)} queries ({FACT_ROWS:,} rows):")
    for label, seconds in [
        ("columnar scalar (vectorize=False)", scalar_seconds),
        ("columnar vectorized", vector_seconds),
    ]:
        print(
            f"  {label}:".ljust(44)
            + f"{seconds:.2f}s  ({scalar_seconds / seconds:.1f}x)"
        )

    bench_report(
        speedup=vector_speedup,
        rows=FACT_ROWS,
        queries=len(queries),
        timings={"scalar": scalar_seconds, "vectorized": vector_seconds},
    )

    assert vector_speedup >= VECTOR_SPEEDUP_BAR, (
        f"vectorized sort only {vector_speedup:.2f}x faster than the scalar path"
    )
