"""Execution engines for DVQs over the in-memory relational substrate.

The executor materialises the data series behind a chart: it evaluates the
FROM/JOIN/WHERE/GROUP BY/ORDER BY/BIN/LIMIT parts of a DVQ against a
:class:`repro.database.Database` and returns the projected rows.  It is the
substrate behind chart rendering (Table 5 / Figure 5 case study), the
execution-guided repair loop and the evaluation harness's execution checks.

Execution is pluggable: :class:`ExecutionBackend` is the engine contract,
implemented three times —

* :class:`ColumnarBackend` (``"columnar"``), the default: lowers the DVQ to a
  logical plan (:mod:`repro.plan`), optimizes it, and executes it over
  column batches with hash joins and hash grouping;
* :class:`InterpreterBackend` (``"interpreter"``): the legacy row-at-a-time
  reference engine, kept as the differential-testing oracle;
* :class:`repro.sql.SQLiteBackend` (``"sqlite"``): compiles the same logical
  plan to SQL and runs it on SQLite.

``resolve_backend("columnar" | "interpreter" | "sqlite")`` is the factory
used by the configuration knobs; :func:`normalize_result` is the
cross-engine normalisation making every backend return identical results
(the columnar engine emits the same normalised rows itself).
"""

from repro.executor.backend import (
    ExecutionBackend,
    ExecutionOutcome,
    InterpreterBackend,
    canonical_value,
    classify_failure,
    explain_execution,
    normalize_result,
    parse_failure_outcome,
    resolve_backend,
)
from repro.executor.errors import ExecutionError
from repro.executor.executor import DVQExecutor, ExecutionResult
from repro.executor.functions import AGGREGATE_FUNCTIONS, apply_aggregate
from repro.executor.ordering import canonical_order, order_index

# imported last: repro.executor.columnar pulls in repro.plan, which imports
# the submodules above while this package is still initialising
from repro.executor.columnar import ColumnarBackend, ColumnarEngine

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "ColumnarBackend",
    "ColumnarEngine",
    "DVQExecutor",
    "ExecutionBackend",
    "ExecutionError",
    "ExecutionOutcome",
    "ExecutionResult",
    "InterpreterBackend",
    "apply_aggregate",
    "canonical_order",
    "canonical_value",
    "classify_failure",
    "explain_execution",
    "normalize_result",
    "order_index",
    "parse_failure_outcome",
    "resolve_backend",
]
