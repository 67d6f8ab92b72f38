"""Pluggable execution backends and cross-engine result normalisation.

A DVQ can be materialised by more than one engine: the pure-Python
row-at-a-time interpreter (:class:`~repro.executor.executor.DVQExecutor`) or
the SQL compiler + SQLite engine in :mod:`repro.sql`.  This module defines the
contract they share (:class:`ExecutionBackend`), the normalisation that makes
their results comparable value-for-value (:func:`normalize_result`), and a
small factory (:func:`resolve_backend`) that configuration layers use to turn
a backend name into an instance.

Two normalised results from different engines are identical for every query in
the *portable* DVQ subset — the differential suite
(``tests/test_sql_differential.py``) enforces this.  The subset excludes only
constructs whose semantics SQL itself leaves unspecified (bare select columns
outside the grouping key, ORDER BY expressions absent from the select list)
or that compare values across incompatible types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

from repro.database.database import Database
from repro.dvq.nodes import DVQuery, SortDirection
from repro.executor.errors import ExecutionError
from repro.executor.executor import DVQExecutor, ExecutionResult
from repro.executor.ordering import canonical_sorted, order_index


#: Stable failure categories shared by every backend.  The differential suite
#: asserts that the interpreter and SQLite classify the same broken query into
#: the same category (``tests/test_sql_differential.py``).
CATEGORY_OK = "ok"
CATEGORY_PARSE_ERROR = "parse_error"
CATEGORY_MISSING_TABLE = "missing_table"
CATEGORY_MISSING_COLUMN = "missing_column"
CATEGORY_UNSUPPORTED = "unsupported"
CATEGORY_ENGINE_ERROR = "engine_error"


@dataclass(frozen=True)
class ExecutionOutcome:
    """The structured verdict of one execution attempt.

    Replaces the bare ``can_execute`` boolean wherever the *cause* of a
    failure matters — most importantly the execution-guided repair loop
    (:class:`repro.pipeline.stages.ExecutionGuidedRepairStage`), which feeds
    ``category`` and ``missing`` back into the debugging LLM.

    Attributes:
        category: one of the ``CATEGORY_*`` constants above.
        message: the human-readable error (empty on success).
        missing: identifiers (tables or columns) the error names as absent
            from the target database, when the category is
            ``missing_table`` / ``missing_column``.
    """

    category: str = CATEGORY_OK
    message: str = ""
    missing: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.category == CATEGORY_OK

    def diagnosis(self) -> str:
        """One line suitable for a repair prompt or a log."""
        if self.ok:
            return "the query executed and produced a chart"
        parts = [self.category.replace("_", " ")]
        if self.missing:
            parts.append("missing: " + ", ".join(self.missing))
        if self.message:
            parts.append(self.message)
        return " — ".join(parts)


#: ``(regex, category)`` in match priority order; the first group of each
#: pattern captures the missing identifier.  The messages are raised by both
#: the interpreter (``executor/executor.py``) and the SQL compiler
#: (``sql/compiler.py``), which is what keeps the categories engine-agnostic.
_FAILURE_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"has no column '([^']+)'"), CATEGORY_MISSING_COLUMN),
    (re.compile(r"Unknown column '([^']+)'"), CATEGORY_MISSING_COLUMN),
    (re.compile(r"Column '([^']+)' does not exist"), CATEGORY_MISSING_COLUMN),
    (re.compile(r"has no table '([^']+)'"), CATEGORY_MISSING_TABLE),
    (re.compile(r"Unknown table or alias '([^']+)'"), CATEGORY_MISSING_TABLE),
    (re.compile(r"Unsupported \w+ '?([^']*)'?"), CATEGORY_UNSUPPORTED),
]


def classify_failure(error: ExecutionError) -> ExecutionOutcome:
    """Map an :class:`~repro.executor.errors.ExecutionError` to an outcome.

    Classification is by message shape, so the two engines — which raise
    their own errors at different points (the compiler at compile time, the
    interpreter mid-execution) — land in the same category for the same
    broken query.
    """
    message = str(error)
    for pattern, category in _FAILURE_PATTERNS:
        match = pattern.search(message)
        if match:
            missing: Tuple[str, ...] = ()
            if category in (CATEGORY_MISSING_TABLE, CATEGORY_MISSING_COLUMN):
                missing = tuple(name for name in (match.group(1),) if name)
            return ExecutionOutcome(category=category, message=message, missing=missing)
    return ExecutionOutcome(category=CATEGORY_ENGINE_ERROR, message=message)


def parse_failure_outcome(text: str) -> ExecutionOutcome:
    """The outcome for a candidate that does not even parse as a DVQ."""
    snippet = " ".join(text.split())[:120]
    return ExecutionOutcome(
        category=CATEGORY_PARSE_ERROR,
        message=f"not a parseable DVQ: {snippet!r}" if snippet else "empty candidate",
    )


def explain_execution(
    backend: "ExecutionBackend", query: DVQuery, database: Database
) -> ExecutionOutcome:
    """Run ``query`` on ``backend`` and classify the result.

    The shared implementation behind ``explain_failure`` on both backends —
    kept module-level so any object satisfying the protocol gets structured
    outcomes for free.
    """
    try:
        backend.execute(query, database)
    except ExecutionError as error:
        return classify_failure(error)
    return ExecutionOutcome()


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution-engine contract shared by the interpreter and SQLite.

    Implementations materialise a parsed :class:`~repro.dvq.nodes.DVQuery`
    against a :class:`~repro.database.database.Database` into a normalised
    :class:`~repro.executor.executor.ExecutionResult`, raising
    :class:`~repro.executor.errors.ExecutionError` for queries that reference
    missing tables or columns (the paper's "no chart" failure mode).
    """

    name: str

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        ...  # pragma: no cover - protocol stub

    def can_execute(self, query: DVQuery, database: Database) -> bool:
        ...  # pragma: no cover - protocol stub

    def explain_failure(self, query: DVQuery, database: Database) -> ExecutionOutcome:
        ...  # pragma: no cover - protocol stub


def canonical_value(value: object) -> object:
    """Coerce ``value`` to its canonical cross-engine form.

    SQLite has no boolean storage class (``True`` comes back as ``1``) and
    keeps integer sums integral where the interpreter's float-based aggregates
    produce ``6.0``; rounding to 9 decimal places absorbs any accumulation
    order difference in float aggregates.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 9)
    return value


def canonical_rows(
    rows: Sequence[Tuple[object, ...]],
    index: Optional[int] = None,
    descending: bool = False,
) -> List[Tuple[object, ...]]:
    """``rows`` with canonical values, in canonical order.

    :func:`canonical_value` on every cell, then
    :func:`~repro.executor.ordering.canonical_sorted` (ORDER BY output column
    ``index``, ties in ascending canonical row order).  The one scalar
    definition behind :func:`normalize_result` and the columnar engine's
    fallback for the roots and columns its fused kernel declines.
    """
    return canonical_sorted(
        [tuple(canonical_value(value) for value in row) for row in rows],
        index=index,
        descending=descending,
    )


def normalize_result(result: ExecutionResult, query: DVQuery) -> ExecutionResult:
    """Return ``result`` with canonical values and canonical row order.

    The interpreter and SQLite backends funnel their raw output through this
    function (the columnar engine emits the same rows itself), so results
    compare equal across engines: values are coerced via
    :func:`canonical_value` and rows are re-sorted into the deterministic
    order of :func:`repro.executor.ordering.canonical_sorted`, which respects
    the query's ORDER BY while fixing tie order.
    """
    order = query.order_by
    rows = canonical_rows(
        result.rows,
        index=None if order is None else order_index(query),
        descending=order is not None and order.direction is SortDirection.DESC,
    )
    return ExecutionResult(
        columns=list(result.columns),
        rows=rows,
        chart_type=result.chart_type,
    )


class InterpreterBackend:
    """The seed row-at-a-time interpreter behind the backend protocol.

    Wraps a :class:`~repro.executor.executor.DVQExecutor` and normalises its
    output; it is the reference oracle the SQLite backend is differentially
    tested against.
    """

    name = "interpreter"

    def __init__(self, bin_interval: int = 100):
        self._executor = DVQExecutor(bin_interval=bin_interval)

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        return normalize_result(self._executor.execute(query, database), query)

    def can_execute(self, query: DVQuery, database: Database) -> bool:
        try:
            self.execute(query, database)
        except ExecutionError:
            return False
        return True

    def explain_failure(self, query: DVQuery, database: Database) -> ExecutionOutcome:
        """Like :meth:`can_execute`, but keeping the failure cause structured."""
        return explain_execution(self, query, database)


#: Accepted by every ``execution_backend`` knob: a backend name or an instance.
BackendSpec = Union[str, ExecutionBackend]


def resolve_backend(spec: BackendSpec) -> ExecutionBackend:
    """Turn a backend name into an instance.

    Accepted names: ``"columnar"`` (the plan-driven columnar engine with
    predicate pushdown — the default everywhere), ``"interpreter"`` (the
    legacy row-at-a-time reference engine) and ``"sqlite"`` (the DVQ->SQL
    compiler over SQLite).  Other columnar setups are built directly
    (``ColumnarBackend(vectorize=False)``), and backend instances pass
    through unchanged, so callers can hand in a pre-configured (and
    pre-warmed) backend.  The SQLite and columnar backends are imported
    lazily to keep this module light.
    """
    if not isinstance(spec, str):
        return spec
    name = spec.strip().lower()
    if name == "columnar":
        from repro.executor.columnar import ColumnarBackend

        return ColumnarBackend()
    if name == "interpreter":
        return InterpreterBackend()
    if name == "sqlite":
        from repro.sql.backend import SQLiteBackend

        return SQLiteBackend()
    raise ValueError(
        f"Unknown execution backend {spec!r}; expected 'columnar', "
        "'interpreter' or 'sqlite'"
    )
