"""Scaled differential fuzzing over the full engine matrix.

A seeded schema graph is built, populated with correlated data at a tiered
scale, and thousands of statistics-driven DVQs are streamed through the
interpreter (reference), SQLite, and the vectorized and scalar columnar
engines.  Every engine must return identical rows and identical failure
categories; any mismatch is delta-debugged down to a minimal, paste-ready,
seeded reproducer and printed via the report summary.

The sweep is scaled through environment variables so the same test serves as
a fast tier-1 smoke and as the at-scale acceptance run:

    REPRO_FUZZ_QUERIES    number of portable queries to sweep   (default 200)
    REPRO_FUZZ_ROWS       total rows across the schema graph    (default 8000)
    REPRO_FUZZ_TABLES     table count in the schema graph       (default 8)
    REPRO_FUZZ_TOPOLOGY   star | snowflake | chain              (default star)
    REPRO_FUZZ_SEED       base seed (query i uses seed base+i)  (default 0)
    REPRO_FUZZ_JOIN_COST  row-pair bound per drawn join         (default 300000)

``make fuzz-check`` runs a CI-sized smoke (2k queries, 30k rows);
``make fuzz`` runs the acceptance sweep (10k queries, 12-table snowflake,
120k rows).  Marker: ``fuzz``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.workload import SchemaGraphConfig, build_workload_database, fuzz_database

pytestmark = pytest.mark.fuzz


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


QUERIES = _env_int("REPRO_FUZZ_QUERIES", 200)
ROWS = _env_int("REPRO_FUZZ_ROWS", 8_000)
TABLES = _env_int("REPRO_FUZZ_TABLES", 8)
TOPOLOGY = os.environ.get("REPRO_FUZZ_TOPOLOGY", "star")
BASE_SEED = _env_int("REPRO_FUZZ_SEED", 0)
JOIN_COST = _env_int("REPRO_FUZZ_JOIN_COST", 300_000)


@pytest.fixture(scope="module")
def fuzz_db():
    config = SchemaGraphConfig(
        seed=BASE_SEED + 1, table_count=TABLES, topology=TOPOLOGY, name="fuzz_bench"
    )
    started = time.perf_counter()
    database = build_workload_database(config, total_rows=ROWS)
    print(
        f"\nfuzz database: {len(database.tables())} tables ({TOPOLOGY}), "
        f"{database.row_count():,} rows, built in {time.perf_counter() - started:.1f}s"
    )
    return database


def test_portable_sweep_is_mismatch_free(fuzz_db):
    """The headline sweep: N portable DVQs, one comparison per engine, 0 mismatches."""
    report = fuzz_database(
        fuzz_db,
        count=QUERIES,
        base_seed=BASE_SEED,
        max_join_cost=JOIN_COST,
    )
    print(report.summary())
    rate = report.total / report.wall_seconds if report.wall_seconds else 0.0
    print(f"throughput: {rate:.1f} queries/s over {len(report.engines)} engines")
    assert report.total == QUERIES
    assert report.comparisons == QUERIES * len(report.engines)
    # every failing seed and its minimized reproducer is in the summary above
    assert report.ok, report.summary()
    assert report.category_counts.get("ok", 0) == QUERIES


def test_non_portable_sweep_agrees_on_failure_categories(fuzz_db):
    """A smaller corrupted sweep: engines must classify rejections identically."""
    count = max(QUERIES // 10, 50)
    report = fuzz_database(
        fuzz_db,
        count=count,
        base_seed=BASE_SEED + 10_000,
        portable_subset=False,
        max_join_cost=JOIN_COST,
    )
    print(report.summary())
    assert report.ok, report.summary()
    broken = {
        category: n
        for category, n in report.category_counts.items()
        if category != "ok"
    }
    assert broken, "corruption produced no rejected queries"
    assert set(broken) <= {"missing_table", "missing_column"}
