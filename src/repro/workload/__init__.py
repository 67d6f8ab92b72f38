"""Synthetic workload generation and differential fuzzing at scale.

The subsystem has four layers, composable but usable alone:

* :mod:`repro.workload.schema_graph` — seeded star/snowflake/chain schema
  graphs with tiered (fact >> dimension) correlated data;
* :mod:`repro.workload.stats` — per-column histograms, NDV and MCV
  summaries computed once per database;
* :mod:`repro.workload.generator` — :class:`WorkloadGenerator`, a
  statistics-driven extension of the portable-subset DVQ generator;
* :mod:`repro.workload.fuzz` / :mod:`repro.workload.minimize` — the
  differential fuzzing harness over the engine matrix with
  automatic delta-debugging of failing queries.
"""

from repro.workload.fuzz import (
    DifferentialFuzzer,
    FuzzMismatch,
    FuzzReport,
    default_engine_matrix,
    fuzz_database,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.minimize import (
    MismatchOracle,
    clause_count,
    execution_mismatch,
    minimize_query,
    rows_agree,
)
from repro.workload.schema_graph import (
    SchemaGraphConfig,
    build_schema_graph,
    build_workload_database,
    fact_tables,
    tiered_row_counts,
)
from repro.workload.stats import (
    ColumnStatistics,
    TableStatistics,
    collect_column_statistics,
    collect_database_statistics,
    collect_table_statistics,
)

__all__ = [
    "ColumnStatistics",
    "DifferentialFuzzer",
    "FuzzMismatch",
    "FuzzReport",
    "MismatchOracle",
    "SchemaGraphConfig",
    "TableStatistics",
    "WorkloadGenerator",
    "build_schema_graph",
    "build_workload_database",
    "clause_count",
    "collect_column_statistics",
    "collect_database_statistics",
    "collect_table_statistics",
    "default_engine_matrix",
    "execution_mismatch",
    "fact_tables",
    "fuzz_database",
    "minimize_query",
    "rows_agree",
    "tiered_row_counts",
]
