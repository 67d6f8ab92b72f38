"""Aggregate functions used by the executor, per group and vectorized.

The scalar functions define the semantics; :func:`grouped_aggregate_vector`
computes one aggregate for *every* group at once from a typed column plus a
group-id array, or returns ``None`` to decline when array arithmetic cannot
reproduce the scalar path (mixed-type columns, text columns whose values
coerce through ``float`` individually).  Every vectorized aggregate is
bit-for-bit identical to its scalar counterpart except DISTINCT SUM/AVG,
which accumulates the same distinct-float multiset in ascending rather than
set-iteration order — identical after the cross-engine 9-decimal
normalisation every backend applies.

NaN-valued number columns stay on the vectorized path.  The scalar
semantics the kernels reproduce:

* SUM/AVG: one NaN poisons the whole group's accumulation — exactly what
  ``np.bincount`` computes, in any order.
* MIN/MAX: Python's fold keeps the current extreme unless the next value
  wins a ``<``/``>`` comparison, and every comparison involving NaN is
  False.  A group's result is therefore its *first* value when that value
  is NaN, and the extreme over the non-NaN values otherwise.
* COUNT DISTINCT: ``set()`` deduplicates NaN by object *identity* (NaN
  never equals anything, including itself), so the kernel counts distinct
  non-NaN values vectorized and adds the per-group identity-distinct NaN
  objects in one pass over only the NaN rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.database.typed import KIND_NUMBER, KIND_TEXT, TypedColumn


def _numeric(values: Sequence[object]) -> List[float]:
    numbers = []
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            numbers.append(1.0 if value else 0.0)
        elif isinstance(value, (int, float)):
            numbers.append(float(value))
        else:
            try:
                numbers.append(float(value))
            except (TypeError, ValueError):
                continue
    return numbers


def agg_count(values: Sequence[object], distinct: bool = False) -> int:
    present = [value for value in values if value is not None]
    if distinct:
        return len(set(present))
    return len(present)


def agg_sum(values: Sequence[object], distinct: bool = False) -> Optional[float]:
    numbers = _numeric(set(values) if distinct else values)
    if not numbers:
        return None
    return sum(numbers)


def agg_avg(values: Sequence[object], distinct: bool = False) -> Optional[float]:
    numbers = _numeric(set(values) if distinct else values)
    if not numbers:
        return None
    return sum(numbers) / len(numbers)


def agg_min(values: Sequence[object], distinct: bool = False) -> Optional[object]:
    present = [value for value in values if value is not None]
    if not present:
        return None
    return min(present)


def agg_max(values: Sequence[object], distinct: bool = False) -> Optional[object]:
    present = [value for value in values if value is not None]
    if not present:
        return None
    return max(present)


AGGREGATE_FUNCTIONS: Dict[str, Callable] = {
    "COUNT": agg_count,
    "SUM": agg_sum,
    "AVG": agg_avg,
    "MIN": agg_min,
    "MAX": agg_max,
}


def apply_aggregate(name: str, values: Sequence[object], distinct: bool = False) -> object:
    """Apply the aggregate ``name`` to ``values``.

    Raises:
        KeyError: for unknown aggregate names.
    """
    return AGGREGATE_FUNCTIONS[name.upper()](values, distinct=distinct)


def _identity_distinct_nan_counts(
    objects: np.ndarray, nan_rows: np.ndarray, gid: np.ndarray, group_count: int
) -> np.ndarray:
    """Per-group count of identity-distinct NaN objects, ``set()``-style.

    ``set`` membership short-circuits on identity before trying ``==``, and
    NaN equals nothing — so the scalar COUNT DISTINCT counts one per distinct
    NaN *object*.  Only the (rare) NaN rows take this Python loop.
    """
    seen: Dict[int, set] = {}
    for row in nan_rows.tolist():
        seen.setdefault(int(gid[row]), set()).add(id(objects[row]))
    counts = np.zeros(group_count, dtype=np.intp)
    for group, idents in seen.items():
        counts[group] = len(idents)
    return counts


def _grouped_count(
    column: TypedColumn, gid: np.ndarray, group_count: int, distinct: bool
) -> List[int]:
    valid = ~column.mask
    if not distinct:
        counts = np.bincount(gid[valid], minlength=group_count)
        return [int(count) for count in counts]
    groups = gid[valid]
    if groups.size == 0:
        return [0] * group_count
    values = column.data[valid]
    nan_counts = None
    if column.kind == KIND_NUMBER and column.has_nan:
        nan_mask = np.isnan(values)
        if nan_mask.any():
            nan_counts = _identity_distinct_nan_counts(
                column.objects, np.flatnonzero(valid)[nan_mask], gid, group_count
            )
            groups = groups[~nan_mask]
            values = values[~nan_mask]
    if groups.size == 0:
        counts = np.zeros(group_count, dtype=np.intp)
    else:
        # count distinct (group, value) pairs: sort, keep the first of each
        # run.  float64 / exact-text equality here matches the scalar path's
        # set(): 5 == 5.0 == True dedupe together, text stays case-sensitive.
        order = np.lexsort((values, groups))
        sorted_groups = groups[order]
        sorted_values = values[order]
        keep = np.ones(sorted_groups.size, dtype=bool)
        keep[1:] = (sorted_groups[1:] != sorted_groups[:-1]) | (
            sorted_values[1:] != sorted_values[:-1]
        )
        counts = np.bincount(sorted_groups[keep], minlength=group_count)
    if nan_counts is not None:
        counts = counts + nan_counts
    return [int(count) for count in counts]


def _grouped_sum_avg(
    name: str, column: TypedColumn, gid: np.ndarray, group_count: int
) -> List[Optional[float]]:
    # np.bincount accumulates weights in input order, so each group's float
    # sum is added in exactly the scalar path's (row) order; NULL slots hold
    # the 0.0 placeholder, which is accumulation-neutral
    sums = np.bincount(gid, weights=column.data, minlength=group_count)
    counts = np.bincount(gid[~column.mask], minlength=group_count)
    if name == "SUM":
        return [float(sums[g]) if counts[g] else None for g in range(group_count)]
    return [
        float(sums[g]) / int(counts[g]) if counts[g] else None
        for g in range(group_count)
    ]


def _grouped_distinct_sum_avg(
    name: str, column: TypedColumn, gid: np.ndarray, group_count: int
) -> List[Optional[float]]:
    # dedupe (group, value) pairs exactly like _grouped_count's distinct
    # branch, then accumulate the survivors.  The scalar path sums a Python
    # set in iteration order; here unique values add in ascending order —
    # the same float multiset, so the results agree after the cross-engine
    # 9-decimal normalisation (the one aggregate where "identical" is
    # post-normalisation rather than bit-for-bit)
    result: List[Optional[float]] = [None] * group_count
    valid = ~column.mask
    groups = gid[valid]
    if groups.size == 0:
        return result
    values = column.data[valid]
    order = np.lexsort((values, groups))
    sorted_groups = groups[order]
    sorted_values = values[order]
    keep = np.ones(sorted_groups.size, dtype=bool)
    keep[1:] = (sorted_groups[1:] != sorted_groups[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    distinct_groups = sorted_groups[keep]
    distinct_values = sorted_values[keep]
    sums = np.bincount(distinct_groups, weights=distinct_values, minlength=group_count)
    counts = np.bincount(distinct_groups, minlength=group_count)
    if name == "SUM":
        return [float(sums[g]) if counts[g] else None for g in range(group_count)]
    return [
        float(sums[g]) / int(counts[g]) if counts[g] else None
        for g in range(group_count)
    ]


def grouped_extreme_rows(
    name: str,
    data: np.ndarray,
    mask: np.ndarray,
    gid: np.ndarray,
    group_count: int,
) -> np.ndarray:
    """Per-group row index of the scalar min()/max() winner (``-1``: empty).

    Reproduces Python's fold over each group's values in row order: the
    running extreme is replaced only when a candidate wins a strict ``<`` /
    ``>`` comparison, so equal values keep the earliest row and NaN — which
    loses every comparison — wins only as a group's *first* value.
    """
    result = np.full(group_count, -1, dtype=np.intp)
    valid_rows = np.flatnonzero(~mask)
    if valid_rows.size == 0:
        return result
    groups = gid[valid_rows]
    values = data[valid_rows]
    # a stable sort on the group ids alone keeps each group's rows in row
    # order; reduceat then computes the per-group extreme in O(n), and the
    # first row whose value == its group's extreme is the exact row
    # Python's min()/max() would return (both keep the first of equals)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    sorted_values = values[order]
    boundary = np.ones(sorted_groups.size, dtype=bool)
    boundary[1:] = sorted_groups[1:] != sorted_groups[:-1]
    starts = np.flatnonzero(boundary)
    nan_slots = None
    if sorted_values.dtype.kind == "U":
        # the minimum/maximum ufuncs have no string loop; rank values inside
        # each segment instead (groups stay primary, so segment boundaries
        # are unchanged) and read each extreme off the segment edge
        ranked = sorted_values[np.lexsort((sorted_values, sorted_groups))]
        if name == "MIN":
            extremes = ranked[starts]
        else:
            extremes = ranked[np.append(starts[1:], sorted_groups.size) - 1]
        masked_values = sorted_values
    else:
        nan_mask = np.isnan(sorted_values)
        if nan_mask.any():
            # NaN loses every fold comparison, so it can never be the reduced
            # extreme; substituting the identity element keeps reduceat exact
            nan_slots = nan_mask
            masked_values = np.where(
                nan_slots, np.inf if name == "MIN" else -np.inf, sorted_values
            )
        else:
            masked_values = sorted_values
        reducer = np.minimum if name == "MIN" else np.maximum
        extremes = reducer.reduceat(masked_values, starts)
    lengths = np.diff(np.append(starts, sorted_groups.size))
    hit_mask = masked_values == np.repeat(extremes, lengths)
    if nan_slots is not None:
        hit_mask &= ~nan_slots
    hits = np.flatnonzero(hit_mask)
    if hits.size:
        segment_ids = np.cumsum(boundary) - 1
        # segment ids ascend, so np.unique's return_index is the first hit
        # per segment
        first_hits = hits[np.unique(segment_ids[hits], return_index=True)[1]]
        result[sorted_groups[first_hits]] = valid_rows[order[first_hits]]
    if nan_slots is not None:
        # a group whose first value is NaN keeps it: the fold starts there
        # and no later comparison can dethrone it
        nan_led = np.flatnonzero(nan_slots[starts])
        if nan_led.size:
            led_starts = starts[nan_led]
            result[sorted_groups[led_starts]] = valid_rows[order[led_starts]]
    return result


def _grouped_min_max(
    name: str, column: TypedColumn, gid: np.ndarray, group_count: int
) -> List[Optional[object]]:
    rows = grouped_extreme_rows(name, column.data, column.mask, gid, group_count)
    return [column.objects[row] if row >= 0 else None for row in rows.tolist()]


def grouped_aggregate_vector(
    name: str,
    column: TypedColumn,
    gid: np.ndarray,
    group_count: int,
    distinct: bool = False,
) -> Optional[List[object]]:
    """One aggregate value per group, vectorized; ``None`` declines.

    ``gid[i]`` is row ``i``'s group id in ``[0, group_count)``.  A returned
    list is element-for-element identical (by object, not merely ``==``) to
    applying the scalar aggregate to each group's member values in row
    order — except DISTINCT SUM/AVG, whose float accumulation order differs
    (see the module docstring) and matches after 9-decimal normalisation,
    and NaN-poisoned SUM/AVG results, which match the scalar NaN by value
    (``isnan``) rather than object identity.
    """
    name = name.upper()
    if name == "COUNT" and not distinct:
        # plain COUNT only consults the null mask — works for every kind
        counts = np.bincount(gid[~column.mask], minlength=group_count)
        return [int(count) for count in counts]
    if column.kind not in (KIND_NUMBER, KIND_TEXT):
        return None
    if name == "COUNT":
        return _grouped_count(column, gid, group_count, distinct)
    if name in ("SUM", "AVG"):
        if column.kind != KIND_NUMBER:
            # text values coerce through float() one by one — scalar-path
            # territory
            return None
        if distinct:
            return _grouped_distinct_sum_avg(name, column, gid, group_count)
        return _grouped_sum_avg(name, column, gid, group_count)
    if name in ("MIN", "MAX"):
        return _grouped_min_max(name, column, gid, group_count)
    return None
