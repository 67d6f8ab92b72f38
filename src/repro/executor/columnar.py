"""The columnar physical engine: vectorized logical plans over column batches.

This is the fast execution path of the reproduction.  Where the legacy row
interpreter (:class:`~repro.executor.executor.DVQExecutor`) builds a dict
``_RowContext`` per joined row, :class:`ColumnarEngine` executes a logical
plan (:mod:`repro.plan`) over :class:`_Batch`\\ es — aligned
:class:`~repro.database.typed.TypedColumn` arrays pulled from
:meth:`repro.database.table.Table.typed_store` — with sort-based equi-joins
and code-based grouping computed as NumPy kernels.

Value semantics are shared with the interpreter by construction.  Every
vector kernel either reproduces its scalar counterpart bit-for-bit or
*declines*, dropping that one operator to the per-value path:

* predicates: :func:`repro.executor.predicates.evaluate_condition_vector`,
  falling back to :func:`~repro.executor.predicates.evaluate_condition`;
* binning: :func:`repro.executor.binning.bin_encode`, falling back to
  :func:`~repro.executor.binning.bin_value`;
* aggregates: :func:`repro.executor.functions.grouped_aggregate_vector`,
  falling back to :func:`~repro.executor.functions.apply_aggregate`;
* joins: a sort/searchsorted kernel (NULL keys never match, per SQL),
  falling back to the scalar hash/nested loop;
* the top-k cut: the canonical value order of :mod:`repro.executor.ordering`.

That decline-don't-approximate contract is what keeps the engine row-for-row
identical to the interpreter, SQLite, and its own unvectorized mode
(``vectorize=False``) in the differential suite.  The engine runs every
operator on the calling thread: one serial vectorized path, with its
per-operator scalar fallback.

:class:`ColumnarBackend` wraps the engine behind the
:class:`~repro.executor.backend.ExecutionBackend` protocol: plan, optimize
(toggleable), execute, normalise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.database.database import Database
from repro.database.typed import (
    KIND_NUMBER,
    KIND_TEXT,
    TypedColumn,
    as_object_column,
    object_array,
)
from repro.dvq.nodes import DVQuery
from repro.executor.backend import (
    ExecutionOutcome,
    explain_execution,
    normalize_result,
)
from repro.executor.binning import bin_encode, bin_value
from repro.executor.errors import ExecutionError
from repro.executor.executor import ExecutionResult
from repro.executor.functions import apply_aggregate, grouped_aggregate_vector
from repro.executor.ordering import (
    canonical_top_k,
    encode_sort_key,
    legacy_order_key,
    topk_order,
)
from repro.executor.predicates import evaluate_condition, evaluate_condition_vector
from repro.plan.nodes import (
    HASH,
    Aggregate,
    AggregateOutput,
    Bin,
    BinKey,
    BinOutput,
    Comparison,
    ConstPredicate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Predicate,
    Project,
    Sample,
    Scan,
    Sort,
    output_labels,
)
from repro.plan.optimizer import OptimizerConfig, optimize

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.plan.sampling import SamplingConfig

#: Batch key of the derived bin-label column (cannot collide with a scan key,
#: whose first element is a table's effective name).
BIN_COLUMN = ("", "__bin__")

_EMPTY_INDICES = np.empty(0, dtype=np.intp)


class _LazyColumn:
    """A batch column that may not have been gathered yet.

    ``base`` is the source :class:`TypedColumn` and ``indices`` the row
    indices selecting from it (``None`` = identity).  :meth:`get` gathers on
    first read and caches, so a column that no operator ever reads — e.g. a
    join key after the join, or every non-aggregated column under
    ``COUNT(*)`` — is never materialised at all.
    """

    __slots__ = ("base", "indices", "_value")

    def __init__(
        self,
        base: TypedColumn,
        indices: Optional[np.ndarray] = None,
    ):
        self.base = base
        self.indices = indices
        self._value: Optional[TypedColumn] = base if indices is None else None

    def get(self) -> TypedColumn:
        value = self._value
        if value is None:
            value = self.base.take(self.indices)
            self._value = value
        return value


class _Batch:
    """Aligned typed columns: the unit of data flowing between plan operators.

    Columns are held as :class:`_LazyColumn` selections over the scan-level
    base columns: :meth:`take` only composes index arrays
    (once per distinct selection, not once per column), deferring the
    expensive object/typed/mask gathers until an operator reads the column
    through :meth:`column`.

    ``bin_codes`` dictionary-encodes the ``BIN_COLUMN`` labels when the Bin
    node was vectorized (code 0 = NULL), letting Aggregate group on codes
    without re-encoding the label objects.
    """

    __slots__ = ("length", "columns", "bin_codes")

    def __init__(
        self,
        length: int,
        columns: Dict[Tuple[str, str], _LazyColumn],
        bin_codes: Optional[np.ndarray] = None,
    ):
        self.length = length
        self.columns = columns
        self.bin_codes = bin_codes

    def column(self, key: Tuple[str, str]) -> TypedColumn:
        """Materialise and return the column ``key`` (cached per batch)."""
        return self.columns[key].get()

    def take(self, indices: np.ndarray) -> "_Batch":
        # columns from one join side share one indices array; compose it once
        composed: Dict[int, np.ndarray] = {}
        columns: Dict[Tuple[str, str], _LazyColumn] = {}
        for key, holder in self.columns.items():
            if holder.indices is None:
                columns[key] = _LazyColumn(holder.base, indices)
            else:
                selection = composed.get(id(holder.indices))
                if selection is None:
                    selection = holder.indices[indices]
                    composed[id(holder.indices)] = selection
                columns[key] = _LazyColumn(holder.base, selection)
        return _Batch(
            len(indices),
            columns,
            None if self.bin_codes is None else self.bin_codes[indices],
        )


def _scan_of(node: PlanNode) -> Scan:
    """The base scan under a join input (skipping filters and samples)."""
    while isinstance(node, (Filter, Sample)):
        node = node.child
    assert isinstance(node, Scan), f"join input is not a scan: {type(node).__name__}"
    return node


class ColumnarEngine:
    """Execute logical plans over typed column batches.

    Args:
        bin_interval: the fixed width of ``BIN ... BY INTERVAL`` buckets,
            matching the interpreter's parameter.
        vectorize: run the NumPy kernels (with per-value fallback).  Off, the
            engine evaluates every value through the scalar functions — the
            reference mode the differential suite compares against.
    """

    def __init__(self, bin_interval: int = 100, vectorize: bool = True):
        self.bin_interval = bin_interval
        self.vectorize = vectorize

    # -- row-producing nodes -------------------------------------------------

    def run(self, plan: PlanNode, database: Database) -> List[Tuple[object, ...]]:
        """Materialise ``plan`` against ``database`` into output rows."""
        return self._rows(plan, database)

    def _rows(self, node: PlanNode, database: Database) -> List[Tuple[object, ...]]:
        if isinstance(node, Limit):
            return self._limit(node, database)
        if isinstance(node, Sort):
            if self.vectorize and isinstance(node.child, Project):
                rows = self._sort_project(node, node.child, database)
                if rows is not None:
                    return rows
            rows = self._rows(node.child, database)
            index = node.index

            def sort_key(row: Tuple[object, ...]):
                return legacy_order_key(row[index] if index < len(row) else None)

            return sorted(rows, key=sort_key, reverse=node.descending)
        if isinstance(node, Aggregate):
            return self._aggregate(node, database)
        if isinstance(node, Project):
            batch = self._batch(node.child, database)
            return self._gather_project(batch, node)
        raise ExecutionError(f"Unsupported plan root {type(node).__name__}")

    def _limit(self, node: Limit, database: Database) -> List[Tuple[object, ...]]:
        child = node.child
        sort = child if isinstance(child, Sort) else None
        producer = sort.child if sort is not None else child
        if self.vectorize and isinstance(producer, Project):
            rows = self._topk_project(node, sort, producer, database)
            if rows is not None:
                return rows
        rows = self._rows(producer, database)
        # the deterministic cross-engine top-k cut, shared with
        # normalize_result via executor.ordering (bounded selection)
        return canonical_top_k(
            rows,
            node.count,
            index=sort.index if sort is not None else None,
            descending=sort.descending if sort is not None else False,
        )

    # -- vectorized ordering -------------------------------------------------

    @staticmethod
    def _gather_project(batch: _Batch, project: Project) -> List[Tuple[object, ...]]:
        columns = [
            batch.column(output.column.key()).objects for output in project.outputs
        ]
        return [
            tuple(column[index] for column in columns) for index in range(batch.length)
        ]

    def _sort_project(
        self, node: Sort, project: Project, database: Database
    ) -> Optional[List[Tuple[object, ...]]]:
        """ORDER BY as an index permutation over the batch, or ``None``.

        Encodes the sort column's legacy order into ``uint64`` codes
        (:func:`~repro.executor.ordering.encode_sort_key`), argsorts stably —
        ``~codes`` for DESC is the exact reversed key, so ties keep input
        order just like ``sorted(reverse=True)`` — and only then gathers the
        output columns through the permuted batch: late materialization now
        covers the ordering stage.  Declines (to the scalar sort) when the
        sort column cannot be encoded exactly.
        """
        if node.index >= len(project.outputs):
            return None
        batch = self._batch(project.child, database)
        if batch.length == 0:
            return []
        column = batch.column(project.outputs[node.index].column.key())
        codes = encode_sort_key(column, legacy=True)
        if codes is None:
            return None
        if node.descending:
            codes = ~codes
        permutation = np.argsort(codes, kind="stable")
        return self._gather_project(batch.take(permutation), project)

    def _topk_project(
        self,
        node: Limit,
        sort: Optional[Sort],
        project: Project,
        database: Database,
    ) -> Optional[List[Tuple[object, ...]]]:
        """The canonical top-k cut as an index selection, or ``None``.

        The composite key of :func:`~repro.executor.ordering.canonical_sorted`
        — direction-adjusted primary first, then every output column's
        canonical code (stable, so full ties keep input order) — feeds
        :func:`~repro.executor.ordering.topk_order`: an ``argpartition``
        pivot cut on the primary, then the exact multi-key sort over the
        pivot-tied candidates only.  Output columns are gathered after the
        cut, so a ``LIMIT 10`` touches 10 rows of objects, not a million.
        Declines when any output column cannot be encoded exactly.
        """
        batch = self._batch(project.child, database)
        if batch.length == 0:
            return []
        encoded: Dict[Tuple[str, str], np.ndarray] = {}
        keys: List[np.ndarray] = []
        for output in project.outputs:
            key = output.column.key()
            codes = encoded.get(key)
            if codes is None:
                codes = encode_sort_key(batch.column(key))
                if codes is None:
                    return None
                encoded[key] = codes
            keys.append(codes)
        if not keys:
            return None
        if sort is not None:
            if sort.index >= len(keys):
                return None
            primary = ~keys[sort.index] if sort.descending else keys[sort.index]
            secondaries = keys
        else:
            primary = keys[0]
            secondaries = keys[1:]
        indices = topk_order(primary, secondaries, min(node.count, batch.length))
        return self._gather_project(batch.take(indices), project)

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, node: Aggregate, database: Database) -> List[Tuple[object, ...]]:
        batch = self._batch(node.child, database)
        if self.vectorize:
            return self._aggregate_grouped(node, batch, *self._group_ids(node, batch))
        return self._aggregate_scalar(node, batch)

    def _group_ids(
        self, node: Aggregate, batch: _Batch
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Group rows: ``(gid, first_rows, group_count)`` in first-seen order.

        An unhashable key value raises TypeError — the same exception the
        scalar path's dict group keys would raise.
        """
        if not node.keys:
            # aggregates-only query: one implicit group, absent on empty input
            if batch.length == 0:
                return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), 0
            gid = np.zeros(batch.length, dtype=np.intp)
            return gid, np.zeros(1, dtype=np.intp), 1
        if batch.length == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), 0
        combined: Optional[np.ndarray] = None
        for key in node.keys:
            if isinstance(key, BinKey):
                codes = batch.bin_codes
                if codes is None:
                    codes = _encode_objects(batch.column(BIN_COLUMN).objects)
            else:
                codes = _encode_key(batch.column(key.key()))
            if combined is None:
                combined = codes.astype(np.int64)
            else:
                # pairwise re-encode keeps the combined code < row count, so
                # the product below never overflows int64
                combined = combined * (np.int64(codes.max()) + 1) + codes
                _, combined = np.unique(combined, return_inverse=True)
        assert combined is not None
        _, first_idx, inverse = np.unique(combined, return_index=True, return_inverse=True)
        order = np.argsort(first_idx, kind="stable")
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.arange(order.size)
        return rank[inverse], first_idx[order], order.size

    def _aggregate_grouped(
        self,
        node: Aggregate,
        batch: _Batch,
        gid: np.ndarray,
        first_rows: np.ndarray,
        group_count: int,
    ) -> List[Tuple[object, ...]]:
        members_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None

        def members(group: int) -> List[int]:
            # lazy: row indices per group, only built when a kernel declines
            nonlocal members_bounds
            if members_bounds is None:
                order = np.argsort(gid, kind="stable")
                bounds = np.searchsorted(gid[order], np.arange(group_count + 1))
                members_bounds = (order, bounds)
            order, bounds = members_bounds
            return order[bounds[group] : bounds[group + 1]].tolist()

        columns_out: List[List[object]] = []
        for output in node.outputs:
            if isinstance(output, AggregateOutput):
                if output.argument is None:  # COUNT(*)
                    counts = np.bincount(gid, minlength=group_count)
                    columns_out.append([int(count) for count in counts])
                    continue
                column = batch.column(output.argument.key())
                values = grouped_aggregate_vector(
                    output.function, column, gid, group_count, distinct=output.distinct
                )
                if values is None:
                    objects = column.objects
                    values = [
                        apply_aggregate(
                            output.function,
                            [objects[index] for index in members(group)],
                            distinct=output.distinct,
                        )
                        for group in range(group_count)
                    ]
                columns_out.append(values)
            elif isinstance(output, BinOutput):
                labels = batch.column(BIN_COLUMN).objects
                columns_out.append([labels[row] for row in first_rows])
            else:
                objects = batch.column(output.column.key()).objects
                columns_out.append([objects[row] for row in first_rows])
        return [
            tuple(column[group] for column in columns_out) for group in range(group_count)
        ]

    def _aggregate_scalar(self, node: Aggregate, batch: _Batch) -> List[Tuple[object, ...]]:
        key_columns: List[np.ndarray] = []
        for key in node.keys:
            if isinstance(key, BinKey):
                key_columns.append(batch.column(BIN_COLUMN).objects)
            else:
                key_columns.append(batch.column(key.key()).objects)
        groups: Dict[Tuple[object, ...], List[int]] = {}
        if key_columns:
            for index in range(batch.length):
                group = tuple(column[index] for column in key_columns)
                members = groups.get(group)
                if members is None:
                    groups[group] = [index]
                else:
                    members.append(index)
        elif batch.length:
            # aggregates-only query: one implicit group, absent on empty input
            groups[()] = list(range(batch.length))
        rows: List[Tuple[object, ...]] = []
        for members in groups.values():  # dict order == first-seen group order
            row: List[object] = []
            for output in node.outputs:
                if isinstance(output, AggregateOutput):
                    if output.argument is None:  # COUNT(*)
                        values: List[object] = [1] * len(members)
                    else:
                        column = batch.column(output.argument.key()).objects
                        values = [column[index] for index in members]
                    row.append(
                        apply_aggregate(output.function, values, distinct=output.distinct)
                    )
                elif isinstance(output, BinOutput):
                    row.append(batch.column(BIN_COLUMN).objects[members[0]])
                else:
                    row.append(batch.column(output.column.key()).objects[members[0]])
            rows.append(tuple(row))
        return rows

    # -- batch-producing nodes -----------------------------------------------

    def _batch(self, node: PlanNode, database: Database) -> _Batch:
        if isinstance(node, Scan):
            return self._scan(node, database)
        if isinstance(node, Sample):
            return self._sample(node, database)
        if isinstance(node, Filter):
            return self._filter(node, database)
        if isinstance(node, Join):
            return self._join(node, database)
        if isinstance(node, Bin):
            return self._bin(node, database)
        raise ExecutionError(f"Unsupported plan node {type(node).__name__}")

    def _scan(self, node: Scan, database: Database) -> _Batch:
        table = database.table(node.table)
        store = table.typed_store()
        effective = node.effective.lower()
        columns = {
            (effective, name.lower()): _LazyColumn(store[name])
            for name in node.columns
        }
        return _Batch(len(table), columns)

    def _sample(self, node: Sample, database: Database) -> _Batch:
        """Restrict the child scan to the table's precomputed row sample.

        The sorted sample row ids become the batch's (lazy) selection, so no
        column is gathered until an operator reads it.  A keyed sample that
        declined at build time degrades to the full scan — the AQP rewriter
        checks buildability up front, so this is a correctness backstop, not
        an expected path.
        """
        batch = self._batch(node.child, database)
        sample = database.table(node.table).sample(
            kind=node.kind, key=node.key, fraction=node.fraction, seed=node.seed
        )
        if sample is None:
            return batch
        return batch.take(sample.indices)

    def _bin(self, node: Bin, database: Database) -> _Batch:
        batch = self._batch(node.child, database)
        column = batch.column(node.column.key())
        columns = dict(batch.columns)
        if self.vectorize:
            encoded = bin_encode(column, node.unit, self.bin_interval)
            if encoded is not None:
                labels, codes = encoded
                columns[BIN_COLUMN] = _LazyColumn(as_object_column(labels[codes]))
                return _Batch(batch.length, columns, bin_codes=codes)
        labels = object_array(
            [bin_value(value, node.unit, self.bin_interval) for value in column.objects]
        )
        columns[BIN_COLUMN] = _LazyColumn(as_object_column(labels))
        return _Batch(batch.length, columns)

    # -- filtering -----------------------------------------------------------

    def _filter(self, node: Filter, database: Database) -> _Batch:
        batch = self._batch(node.child, database)
        indices = np.flatnonzero(self._mask(node.predicate, batch))
        if indices.size == batch.length:
            return batch
        return batch.take(indices)

    def _mask(self, predicate: Predicate, batch: _Batch) -> np.ndarray:
        if isinstance(predicate, Comparison):
            column = batch.column(predicate.column.key())
            if self.vectorize:
                mask = evaluate_condition_vector(predicate.condition, column)
                if mask is not None:
                    return mask
            condition = predicate.condition
            return np.fromiter(
                (evaluate_condition(condition, value) for value in column.objects),
                np.bool_,
                count=len(column),
            )
        if isinstance(predicate, ConstPredicate):
            return np.full(batch.length, predicate.value, dtype=bool)
        left = self._mask(predicate.left, batch)
        right = self._mask(predicate.right, batch)
        if predicate.op == "AND":
            return left & right
        return left | right

    # -- joins ---------------------------------------------------------------

    def _join(self, node: Join, database: Database) -> _Batch:
        left = self._batch(node.left, database)
        right = self._batch(node.right, database)
        # mirror the interpreter's side resolution: probe with whichever ON
        # key lives in the already-joined relation, then match it by *bare
        # column name* in the new table (falling back to the probe key's own
        # name); when neither step resolves, the interpreter skips every row
        # pair, i.e. the join is empty
        if node.left_key.key() in left.columns:
            probe_column = left.column(node.left_key.key())
            candidates = (node.right_key.column, node.left_key.column)
        elif node.right_key.key() in left.columns:
            probe_column = left.column(node.right_key.key())
            candidates = (node.left_key.column,)
        else:
            return self._empty_join(left, right)
        right_effective = _scan_of(node.right).effective.lower()
        build_holder: Optional[_LazyColumn] = None
        for name in candidates:
            build_holder = right.columns.get((right_effective, name.lower()))
            if build_holder is not None:
                break
        if build_holder is None:
            return self._empty_join(left, right)
        build_column = build_holder.get()
        indices: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if node.build_side == "left":
            # cost-based flip: build on the (estimated smaller) left input and
            # probe with the right.  The kernels emit probe-major pairs, so a
            # flipped build comes back right-major; the stable argsort below
            # restores the canonical order — left-major with build rows
            # ascending within each probe row — making the flip invisible in
            # results (each probe row's matches were already ascending).
            if self.vectorize:
                indices = _vector_join_indices(build_column, probe_column)
            if indices is None:
                indices = _scalar_join_indices(
                    build_column.objects, probe_column.objects, node.strategy == HASH
                )
            right_indices, left_indices = indices
            order = np.argsort(left_indices, kind="stable")
            indices = (left_indices[order], right_indices[order])
        else:
            if self.vectorize:
                indices = _vector_join_indices(probe_column, build_column)
            if indices is None:
                indices = _scalar_join_indices(
                    probe_column.objects, build_column.objects, node.strategy == HASH
                )
        left_indices, right_indices = indices
        left = left.take(left_indices)
        right = right.take(right_indices)
        columns = dict(left.columns)
        columns.update(right.columns)
        return _Batch(len(left_indices), columns)

    @staticmethod
    def _empty_join(left: _Batch, right: _Batch) -> _Batch:
        columns = dict(left.take(_EMPTY_INDICES).columns)
        columns.update(right.take(_EMPTY_INDICES).columns)
        return _Batch(0, columns)


# -- grouping / join kernels (module level so they are unit-testable) --------


def _encode_key(column: TypedColumn) -> np.ndarray:
    """Dictionary-encode one grouping column; NULL rows get code 0.

    Number columns encode through ``np.unique`` on the float64 shadow
    (equality there — ``5 == 5.0 == True`` — matches dict key equality in
    the scalar path).  Text and mixed/NaN columns go through a Python dict,
    whose identity-or-equality semantics are exactly the interpreter's tuple
    group keys: for strings, ``np.unique``'s O(n log n) comparison sort
    dominates the whole group-by, while the dict scan is several times
    faster with identical (exact, case-sensitive) equality.
    """
    if column.kind == KIND_NUMBER and not column.has_nan:
        codes = np.zeros(len(column), dtype=np.intp)
        valid = np.flatnonzero(~column.mask)
        if valid.size:
            _, inverse = np.unique(column.data[valid], return_inverse=True)
            codes[valid] = inverse + 1
        return codes
    return _encode_objects(column.objects)


def _encode_objects(objects: np.ndarray) -> np.ndarray:
    """Dict-encode arbitrary objects (raises TypeError on unhashable values,
    like the scalar path's tuple group keys)."""
    values = objects.tolist()
    # dict.fromkeys is a C-level, insertion-ordered dedup with exactly dict
    # key equality; only the (few) distinct values loop in Python
    codes = dict.fromkeys(values)
    for code, value in enumerate(codes):
        codes[value] = code
    return np.fromiter(
        map(codes.__getitem__, values), dtype=np.intp, count=len(values)
    )


def _vector_join_indices(
    probe: TypedColumn, build: TypedColumn
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Matching (probe_row, build_row) pairs of an equi-join, vectorized.

    NULL keys never match (SQL semantics, shared with the scalar path).
    Pairs come back probe-major with build rows ascending within a probe row
    — the exact emit order of both the scalar hash join and the nested loop.
    Returns ``None`` for mixed-type or NaN key columns.
    """
    for column in (probe, build):
        if column.kind not in (KIND_NUMBER, KIND_TEXT):
            return None
        if column.kind == KIND_NUMBER and column.has_nan:
            return None
    if probe.kind != build.kind:
        # a number never ``==`` a string: every pair misses
        return _EMPTY_INDICES, _EMPTY_INDICES
    build_rows = np.flatnonzero(~build.mask)
    probe_rows = np.flatnonzero(~probe.mask)
    if build_rows.size == 0 or probe_rows.size == 0:
        return _EMPTY_INDICES, _EMPTY_INDICES
    build_values = build.data[build_rows]
    sorter = np.argsort(build_values, kind="stable")
    sorted_values = build_values[sorter]
    probe_values = probe.data[probe_rows]
    lo = np.searchsorted(sorted_values, probe_values, side="left")
    hi = np.searchsorted(sorted_values, probe_values, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_INDICES, _EMPTY_INDICES
    left_indices = np.repeat(probe_rows, counts)
    # per probe row, enumerate its run [lo, hi) of the sorted build side
    segment_starts = np.repeat(np.cumsum(counts) - counts, counts)
    positions = np.arange(total) - segment_starts + np.repeat(lo, counts)
    # the stable sorter keeps equal build keys in row order, so this is
    # ascending build-row order within each probe row
    right_indices = build_rows[sorter[positions]]
    return left_indices, right_indices


def _scalar_join_indices(
    probe_column: np.ndarray, build_column: np.ndarray, hashed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-value join fallback; NULL keys never match (SQL semantics)."""
    left_indices: List[int] = []
    right_indices: List[int] = []
    if hashed:
        buckets: Dict[object, List[int]] = {}
        for index, value in enumerate(build_column):
            if value is None:
                continue
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = [index]
            else:
                bucket.append(index)
        for index, value in enumerate(probe_column):
            if value is None:
                continue
            matches = buckets.get(value)
            if matches:
                left_indices.extend([index] * len(matches))
                right_indices.extend(matches)
    else:
        for index, probe_value in enumerate(probe_column):
            if probe_value is None:
                continue
            for build_index, build_value in enumerate(build_column):
                if build_value is not None and probe_value == build_value:
                    left_indices.append(index)
                    right_indices.append(build_index)
    return (
        np.asarray(left_indices, dtype=np.intp),
        np.asarray(right_indices, dtype=np.intp),
    )


class ColumnarBackend:
    """Plan-driven execution backend: the default engine of the repo.

    Args:
        bin_interval: width of ``BIN ... BY INTERVAL`` buckets.
        normalize: apply the cross-engine result normalisation (on by
            default, like every backend).
        optimize: run the plan optimizer before execution.  Turning it off
            executes the canonical plan (nested-loop joins, unpruned scans) —
            useful for optimizer ablations and differential testing; results
            are identical either way.
        optimizer_config: which optimizer rules apply when ``optimize`` is on.
        vectorize: run the NumPy kernels; off = the per-value reference mode
            (the ``"columnar-python"`` entry of the differential matrix).
        cost_based: feed table statistics into the optimizer so the
            cost-based rules (join-order enumeration, build-side selection,
            filter-cascade ordering) apply.  Off =
            the rule-based-only rewrites of the pre-statistics engine;
            results are identical either way.
        approximate: try the sampling-based AQP rewrite
            (:mod:`repro.plan.sampling`) first for eligible aggregate
            queries, answering from a precomputed sample with scale-up and
            error bounds; ineligible queries silently run exact.
        sampling_config: AQP knobs (sample fraction, seed, decline
            thresholds) when ``approximate`` is on.
    """

    name = "columnar"

    def __init__(
        self,
        bin_interval: int = 100,
        normalize: bool = True,
        optimize: bool = True,
        optimizer_config: Optional[OptimizerConfig] = None,
        vectorize: bool = True,
        cost_based: bool = True,
        approximate: bool = False,
        sampling_config: Optional["SamplingConfig"] = None,
    ):
        self._engine = ColumnarEngine(bin_interval=bin_interval, vectorize=vectorize)
        self.normalize = normalize
        self.optimize = optimize
        self.optimizer_config = optimizer_config or OptimizerConfig()
        self.cost_based = cost_based
        self.approximate = approximate
        self.sampling_config = sampling_config

    @property
    def vectorize(self) -> bool:
        return self._engine.vectorize

    def plan(self, query: DVQuery, database: Database) -> PlanNode:
        """The plan this backend would execute (optimized when enabled)."""
        # deferred: repro.plan.planner transitively initialises repro.executor,
        # so a module-level import would be circular
        from repro.plan.planner import plan_query

        plan = plan_query(query, database.schema)
        if self.optimize:
            statistics = None
            if self.cost_based:
                from repro.plan.cost import CostModel

                statistics = CostModel(database)
            plan = optimize(plan, self.optimizer_config, statistics=statistics)
        return plan

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        """Execute ``query`` against ``database`` on the columnar engine.

        Raises:
            ExecutionError: when the query references missing tables or
                columns (raised at plan time) — the same failure mode and
                categories as every backend.
        """
        plan = self.plan(query, database)
        if self.approximate:
            result = self._execute_approximate(plan, query, database)
            if result is not None:
                return result
        rows = self._engine.run(plan, database)
        result = ExecutionResult(
            columns=list(output_labels(plan)),
            rows=rows,
            chart_type=query.chart_type.value,
        )
        if self.normalize:
            result = normalize_result(result, query)
        return result

    def _execute_approximate(
        self, plan: PlanNode, query: DVQuery, database: Database
    ) -> Optional[ExecutionResult]:
        """Run the AQP path, or ``None`` when the rewrite declines to exact."""
        from repro.plan.sampling import DEFAULT_SAMPLING, rewrite_with_sampling

        rewrite = rewrite_with_sampling(
            plan, database, self.sampling_config or DEFAULT_SAMPLING
        )
        if rewrite is None:
            return None
        raw = self._engine.run(rewrite.plan, database)
        rows, approximation = rewrite.finish(raw)
        result = ExecutionResult(
            columns=list(rewrite.labels),
            rows=rows,
            chart_type=query.chart_type.value,
            approximation=approximation,
        )
        if self.normalize:
            result = normalize_result(result, query)
        return result

    def can_execute(self, query: DVQuery, database: Database) -> bool:
        """True when the query executes without error (used by benches)."""
        try:
            self.execute(query, database)
        except ExecutionError:
            return False
        return True

    def explain_failure(self, query: DVQuery, database: Database) -> ExecutionOutcome:
        """Execute and classify: same categories as the other backends."""
        return explain_execution(self, query, database)
