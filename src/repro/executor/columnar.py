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
  falling back to a scalar hash join;
* the top-k cut and the canonical row order: the sort codes of
  :mod:`repro.executor.ordering`, falling back to the scalar value keys.

That decline-don't-approximate contract is what keeps the engine row-for-row
identical to the interpreter, SQLite, and its own unvectorized mode
(``vectorize=False``) in the differential suite.  The engine runs every
operator on the calling thread: one serial vectorized path, with its
per-operator scalar fallback.

The engine's output is already normalised: :meth:`ColumnarEngine.run` emits
canonical values in canonical order, a ``Project`` root through one sort
over the columns' codes (the fused kernel), every other root through
:func:`~repro.executor.backend.canonical_rows`.  :class:`ColumnarBackend`
wraps the engine behind the :class:`~repro.executor.backend.ExecutionBackend`
protocol: plan, push predicates down, execute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.database.database import Database
from repro.database.typed import (
    KIND_NUMBER,
    KIND_OBJECT,
    KIND_TEXT,
    TypedColumn,
    as_object_column,
    encode_objects,
    object_array,
)
from repro.dvq.nodes import DVQuery
from repro.executor.backend import ExecutionOutcome, canonical_rows, explain_execution
from repro.executor.binning import bin_encode, bin_value
from repro.executor.errors import ExecutionError
from repro.executor.executor import ExecutionResult
from repro.executor.functions import apply_aggregate, grouped_aggregate_vector
from repro.executor.ordering import (
    canonical_keys,
    canonical_top_k,
    encode_sort_key,
    sort_order,
    topk_order,
)
from repro.executor.predicates import evaluate_condition, evaluate_condition_vector
from repro.plan.nodes import (
    Aggregate,
    AggregateOutput,
    Bin,
    BinKey,
    BinOutput,
    Comparison,
    Filter,
    GroupKey,
    Join,
    Limit,
    PlanNode,
    Predicate,
    Project,
    Scan,
    Sort,
    output_labels,
)
from repro.plan.optimizer import optimize

#: Batch key of the derived bin-label column (cannot collide with a scan key,
#: whose first element is a table's effective name).
BIN_COLUMN = ("", "__bin__")

_EMPTY_INDICES = np.empty(0, dtype=np.intp)

#: How far a GROUP BY code range may outgrow the batch before
#: :meth:`ColumnarEngine._group_ids` renumbers the codes densely: the
#: first-occurrence pass allocates one slot per code value.
_CODE_SLOTS_PER_ROW = 4


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

    def objects_at(self, rows: np.ndarray) -> List[object]:
        """The objects at batch rows ``rows``, read through the selection
        without gathering the column."""
        if self.indices is not None:
            rows = self.indices[rows]
        return self.base.objects[rows].tolist()


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


def _zip_rows(columns: List[np.ndarray]) -> List[Tuple[object, ...]]:
    """Row tuples of aligned object columns, holding the columns' own objects."""
    return list(zip(*[column.tolist() for column in columns]))


def _scan_of(node: PlanNode) -> Scan:
    """The base scan under a join input (skipping filters)."""
    while isinstance(node, Filter):
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
        """Materialise ``plan`` into canonical rows in canonical order.

        The rows are exactly what
        :func:`~repro.executor.backend.normalize_result` would leave.  A
        ``Project`` or ``Sort(Project)`` root runs the fused kernel
        (:meth:`_canonical_project`); every other root, and every decline,
        canonicalises the raw rows with
        :func:`~repro.executor.backend.canonical_rows`.
        """
        below_limit = plan.child if isinstance(plan, Limit) else plan
        sort = below_limit if isinstance(below_limit, Sort) else None
        index = None if sort is None else sort.index
        descending = sort is not None and sort.descending
        project = plan.child if isinstance(plan, Sort) else plan
        if self.vectorize and isinstance(project, Project):
            rows = self._canonical_project(project, index, descending, database)
            if rows is not None:
                return rows
        return canonical_rows(self._rows(plan, database), index, descending)

    def _rows(self, node: PlanNode, database: Database) -> List[Tuple[object, ...]]:
        """Raw output rows; a ``Sort`` root is left to the caller's canonical pass."""
        if isinstance(node, Limit):
            return self._limit(node, database)
        if isinstance(node, Sort):
            return self._rows(node.child, database)
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
        return _zip_rows(
            [batch.column(output.column.key()).objects for output in project.outputs]
        )

    @staticmethod
    def _output_codes(batch: _Batch, project: Project) -> Optional[List[np.ndarray]]:
        """Sort codes of each output column (a repeated column encodes once),
        or ``None`` when a column cannot be encoded exactly."""
        encoded: Dict[Tuple[str, str], Optional[np.ndarray]] = {}
        codes: List[np.ndarray] = []
        for output in project.outputs:
            key = output.column.key()
            if key not in encoded:
                encoded[key] = encode_sort_key(batch.column(key))
            column_codes = encoded[key]
            if column_codes is None:
                return None
            codes.append(column_codes)
        return codes or None

    def _canonical_project(
        self,
        project: Project,
        index: Optional[int],
        descending: bool,
        database: Database,
    ) -> Optional[List[Tuple[object, ...]]]:
        """Canonical rows of a projection as one index permutation, or ``None``.

        One :func:`~repro.executor.ordering.sort_order` over the output
        columns' sort codes (:func:`~repro.executor.ordering.canonical_keys`)
        is the permutation of :func:`~repro.executor.ordering.canonical_sorted`,
        and each output column is gathered once through it — no per-cell key
        tuple or ``canonical_value`` call.  The codes must order *canonical*
        values, so the kernel takes only columns whose objects already are
        canonical: text, and number columns of Python ints
        (:attr:`TypedColumn.ints_only`).  A float (``canonical_value`` rounds,
        which can tie distinct floats), bool or object-kind column declines to
        :func:`~repro.executor.backend.canonical_rows`.
        """
        if index is not None and index >= len(project.outputs):
            return None
        batch = self._batch(project.child, database)
        columns = [batch.column(output.column.key()) for output in project.outputs]
        if not all(column.kind == KIND_TEXT or column.ints_only for column in columns):
            return None
        codes = self._output_codes(batch, project)
        if codes is None:
            return None
        permutation = sort_order(*canonical_keys(codes, index, descending))
        return _zip_rows([column.objects[permutation] for column in columns])

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
        codes = self._output_codes(batch, project)
        if codes is None:
            return None
        if sort is not None and sort.index >= len(codes):
            return None
        primary, secondaries = (
            canonical_keys(codes)
            if sort is None
            else canonical_keys(codes, sort.index, sort.descending)
        )
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

        Each key contributes integer codes (:meth:`_key_codes`).  Several
        keys combine mixed-radix; whenever the combined code range outgrows
        the batch by more than ``_CODE_SLOTS_PER_ROW``, ``np.unique``
        renumbers it densely, which keeps the first-occurrence table O(n)
        and the next product far from int64 overflow.
        :func:`_first_seen_groups` then numbers the groups in one O(n + K)
        pass over the K code values, with no sort of the n rows.

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
        slots = _CODE_SLOTS_PER_ROW * batch.length
        combined: Optional[np.ndarray] = None
        span = 1
        for key in node.keys:
            codes, count = self._key_codes(key, batch)
            if combined is None:
                combined = codes
            else:
                combined = combined * count + codes
            span *= count
            if span > slots:
                distinct, combined = np.unique(combined, return_inverse=True)
                span = distinct.size
        assert combined is not None
        return _first_seen_groups(combined, span)

    @staticmethod
    def _key_codes(key: GroupKey, batch: _Batch) -> Tuple[np.ndarray, int]:
        """One group key's ``(codes, code_count)`` over the batch rows.

        A text or NaN-free number column reads its base column's cached
        :attr:`~repro.database.typed.TypedColumn.group_codes` through the
        batch's selection, so the column is never gathered; a vectorized BIN
        reads its label codes.  An object-kind or NaN-bearing column, and a
        BIN whose encoding declined, dict-encode their objects per batch.
        """
        if isinstance(key, BinKey):
            codes = batch.bin_codes
            if codes is None:
                return encode_objects(batch.column(BIN_COLUMN).objects)
            return codes, int(codes.max()) + 1
        holder = batch.columns[key.key()]
        cached = holder.base.group_codes
        if cached is None:
            return encode_objects(holder.get().objects)
        codes, count = cached
        if holder.indices is not None:
            codes = codes[holder.indices]
        return codes, count

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
                columns_out.append(batch.columns[BIN_COLUMN].objects_at(first_rows))
            else:
                holder = batch.columns[output.column.key()]
                columns_out.append(holder.objects_at(first_rows))
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

    def _bin(self, node: Bin, database: Database) -> _Batch:
        batch = self._batch(node.child, database)
        column = batch.column(node.column.key())
        columns = dict(batch.columns)
        if self.vectorize:
            encoded = bin_encode(column, node.unit, self.bin_interval)
            if encoded is not None:
                labels, codes = encoded
                # code 0 is the NULL label: the codes are the null mask
                bins = TypedColumn(KIND_OBJECT, labels[codes], None, codes == 0)
                columns[BIN_COLUMN] = _LazyColumn(bins)
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
        if self.vectorize:
            indices = _vector_join_indices(probe_column, build_column)
        if indices is None:
            indices = _scalar_join_indices(probe_column.objects, build_column.objects)
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


def _first_seen_groups(
    codes: np.ndarray, code_count: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Number the distinct ``codes`` (each in ``[0, code_count)``) first-seen.

    ``np.minimum.at`` fills a one-slot-per-code table with each code's first
    row — plain fancy assignment would leave the winner among repeated
    indices undefined — and sorting the <= K first rows numbers the groups.
    Returns ``(gid, first_rows, group_count)``.
    """
    length = codes.size
    first = np.full(code_count, length, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(length))
    first_rows = np.sort(first[first < length])
    # only present codes get a rank, and only present codes are read back
    rank = np.empty(code_count, dtype=np.intp)
    rank[codes[first_rows]] = np.arange(first_rows.size)
    return rank[codes], first_rows, first_rows.size


def _vector_join_indices(
    probe: TypedColumn, build: TypedColumn
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Matching (probe_row, build_row) pairs of an equi-join, vectorized.

    NULL keys never match (SQL semantics, shared with the scalar path).
    Pairs come back probe-major with build rows ascending within a probe row
    — the exact emit order of the scalar hash join.
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
    probe_column: np.ndarray, build_column: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-value hash-join fallback; NULL keys never match (SQL semantics).

    Pairs come back probe-major with build rows ascending within a probe row.
    """
    left_indices: List[int] = []
    right_indices: List[int] = []
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
    return (
        np.asarray(left_indices, dtype=np.intp),
        np.asarray(right_indices, dtype=np.intp),
    )


class ColumnarBackend:
    """Plan-driven execution backend: the default engine of the repo.

    Every query is planned (:func:`~repro.plan.planner.plan_query`), has its
    predicates pushed below the joins (:func:`~repro.plan.optimizer.optimize`)
    and runs on a :class:`ColumnarEngine`, whose rows are already normalised.

    Args:
        bin_interval: width of ``BIN ... BY INTERVAL`` buckets.
        vectorize: run the NumPy kernels; off = the per-value reference mode
            (the ``"columnar-python"`` entry of the differential matrix).
    """

    name = "columnar"

    def __init__(self, bin_interval: int = 100, vectorize: bool = True):
        self._engine = ColumnarEngine(bin_interval=bin_interval, vectorize=vectorize)

    @property
    def vectorize(self) -> bool:
        return self._engine.vectorize

    def plan(self, query: DVQuery, database: Database) -> PlanNode:
        """The plan this backend executes: the canonical plan, pushed down."""
        # deferred: repro.plan.planner transitively initialises repro.executor,
        # so a module-level import would be circular
        from repro.plan.planner import plan_query

        return optimize(plan_query(query, database.schema))

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        """Execute ``query`` against ``database`` on the columnar engine.

        Raises:
            ExecutionError: when the query references missing tables or
                columns (raised at plan time) — the same failure mode and
                categories as every backend.
        """
        plan = self.plan(query, database)
        return ExecutionResult(
            columns=list(output_labels(plan)),
            rows=self._engine.run(plan, database),
            chart_type=query.chart_type.value,
        )

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
