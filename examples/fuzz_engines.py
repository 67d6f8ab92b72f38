"""Differential fuzzing walkthrough: schema graph -> fuzz sweep -> minimized repro.

Builds a seeded snowflake schema graph with correlated data, sweeps a few
hundred statistics-driven DVQs through the engine matrix (interpreter
reference vs SQLite vs vectorized and scalar columnar), then injects a
deliberate comparison bug into the columnar engine and shows the fuzzer
catching it and delta-debugging the failure down to a paste-ready reproducer.

Run with::

    python examples/fuzz_engines.py
"""

from __future__ import annotations

import repro.executor.columnar as columnar_module
from repro.dvq.nodes import Condition
from repro.workload import SchemaGraphConfig, build_workload_database, fuzz_database


def main() -> None:
    print("Building a seeded 8-table snowflake schema graph (12k rows) ...")
    database = build_workload_database(
        SchemaGraphConfig(seed=3, table_count=8, topology="snowflake", name="demo"),
        total_rows=12_000,
    )
    for table in database.tables():
        print(
            f"  {table.name}: {len(table.rows)} rows, "
            f"{len(table.schema.columns)} columns"
        )

    print("\nSweeping 300 statistics-driven DVQs through the engine matrix ...")
    report = fuzz_database(database, count=300, base_seed=0)
    print(report.summary())

    print("\nInjecting a bug into the columnar engine ('<' behaves as '<=') ...")
    real = columnar_module.evaluate_condition

    def buggy(condition, value, *args, **kwargs):
        if condition.operator == "<":
            condition = Condition(
                column=condition.column,
                operator="<=",
                value=condition.value,
                value2=condition.value2,
                negated=condition.negated,
            )
        return real(condition, value, *args, **kwargs)

    columnar_module.evaluate_condition = buggy
    try:
        report = fuzz_database(database, count=300, base_seed=0)
    finally:
        columnar_module.evaluate_condition = real

    print(report.summary())
    if report.mismatches:
        print("\nFirst minimized reproducer:\n")
        print(report.mismatches[0].repro_snippet())


if __name__ == "__main__":
    main()
