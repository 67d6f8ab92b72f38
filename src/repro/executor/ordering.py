"""Canonical row ordering shared by every execution backend.

Two engines that compute the same result set can still disagree on row order:
the interpreter's stable sort preserves first-seen group order on ties while
SQLite's ORDER BY leaves tie order unspecified, and rows without any ORDER BY
come back in engine-dependent order.  This module defines one total order over
output rows so that

* :func:`repro.executor.backend.normalize_result` can bring both engines to an
  identical row sequence, and
* a ``LIMIT`` cut selects the same top-k rows on every engine.

The per-value key mirrors the interpreter's historical sort semantics: numbers
sort before strings (case-insensitively) before ``NULL``, so ``NULL`` lands
last ascending and first descending.  ``NaN`` gets its own rank between the
finite numbers and the strings: a NaN inside a sort-key tuple would otherwise
break the total order (every ``<`` involving NaN is False), making
``canonical_sorted`` and the LIMIT cut depend on input order.

The same contract exists twice, deliberately:

* **scalar** — :func:`value_sort_key` tuples (and the interpreter's
  :func:`legacy_order_key`), used by the interpreter and as the universal
  fallback, with :func:`canonical_top_k` as the bounded O(n log k) LIMIT cut;
* **vectorized** — :func:`encode_sort_key` folds each column's
  *(rank, value, text)* key into one order-isomorphic ``uint64`` code over
  the typed shadows of :mod:`repro.database.typed` (kind rank + IEEE-754
  bit-flipped float64, or ranks of the ``(lowered, exact)`` text pairs), so
  the columnar engine can sort and cut as index permutations
  (:func:`sort_order` / :func:`topk_order`).  A column the codes cannot
  represent exactly (object kind) declines to the scalar key — never
  approximates it.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.database.typed import KIND_NUMBER, KIND_TEXT, TypedColumn
from repro.dvq.nodes import AggregateExpr, DVQuery, SortDirection

#: Type ranks of the canonical value order: numbers < NaN < strings < NULL.
_RANK_NUMBER = 0
_RANK_NAN = 1
_RANK_TEXT = 2
_RANK_NULL = 3


def value_sort_key(value: object) -> Tuple[int, object, str]:
    """Total-order key for a single output value.

    Numbers (including bools) compare numerically, NaN ranks after every
    finite number, strings compare case-insensitively with the exact text as
    a tiebreak, and ``None`` sorts after everything.  Values of other types
    fall back to their string form.
    """
    if value is None:
        return (_RANK_NULL, 0.0, "")
    if isinstance(value, bool):
        return (_RANK_NUMBER, float(value), "")
    if isinstance(value, (int, float)):
        number = float(value)
        if math.isnan(number):
            return (_RANK_NAN, 0.0, "")
        return (_RANK_NUMBER, number, "")
    text = value if isinstance(value, str) else str(value)
    return (_RANK_TEXT, text.lower(), text)


def row_sort_key(row: Sequence[object]) -> Tuple[Tuple[int, object, str], ...]:
    """Canonical key for a whole output row (left-to-right value keys)."""
    return tuple(value_sort_key(value) for value in row)


def legacy_order_key(value: object) -> Tuple[int, float, str]:
    """The interpreter's historical ORDER BY key (pre-normalisation order).

    Like :func:`value_sort_key` — Nones last, numbers before NaN before
    strings, strings case-insensitively — but without the exact-text tiebreak,
    preserving the seed interpreter's exact sort for the un-normalised output
    of :class:`~repro.executor.executor.DVQExecutor`.
    """
    if value is None:
        return (3, 0.0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
        if math.isnan(number):
            return (1, 0.0, "")
        return (0, number, "")
    return (2, 0.0, str(value).lower())


def order_index(query: DVQuery) -> int:
    """The output-column index an ORDER BY clause refers to.

    An aggregate ORDER BY matches the select item aggregating the same column
    (falling back to the y column); a bare column matches the select item with
    the same case-insensitive column name (falling back to x).
    """
    order = query.order_by
    assert order is not None
    if isinstance(order.expr, AggregateExpr):
        target_column = order.expr.argument.column.lower()
        for index, item in enumerate(query.select):
            if (
                isinstance(item.expr, AggregateExpr)
                and item.expr.argument.column.lower() == target_column
            ):
                return index
        return 1 if len(query.select) > 1 else 0
    target = order.expr.column.lower()
    for index, item in enumerate(query.select):
        if item.column.column.lower() == target:
            return index
    return 0


def canonical_sorted(
    rows: Sequence[Tuple[object, ...]],
    index: Optional[int] = None,
    descending: bool = False,
) -> List[Tuple[object, ...]]:
    """Rows in canonical deterministic order, optionally ORDER-BY-aware.

    Rows are first sorted by their full canonical key; when ``index`` names a
    sort column, a stable second pass sorts by it so that ties keep the
    ascending canonical order regardless of direction.  This is the single
    definition of the cross-engine order: :func:`canonical_order` feeds it
    from a query's ORDER BY clause, the columnar engine from a plan's
    :class:`~repro.plan.nodes.Sort` node (its vectorized kernel,
    ``sort_order`` over :func:`encode_sort_key` codes, is pinned to it).
    """
    ordered = sorted(rows, key=row_sort_key)
    if index is not None:

        def primary_key(row: Tuple[object, ...]):
            return value_sort_key(row[index] if index < len(row) else None)

        ordered.sort(key=primary_key, reverse=descending)
    return ordered


def canonical_order(
    rows: Sequence[Tuple[object, ...]], query: DVQuery
) -> List[Tuple[object, ...]]:
    """Return ``rows`` in the canonical deterministic order for ``query``."""
    if query.order_by is None:
        return canonical_sorted(rows)
    return canonical_sorted(
        rows,
        index=order_index(query),
        descending=query.order_by.direction is SortDirection.DESC,
    )


# -- bounded top-k selection (scalar) ----------------------------------------


class _ReversedKey:
    """Wrap a sort key so ``<`` means the key's ``>`` (for DESC primaries).

    ``heapq.nsmallest`` only needs ``<`` and ``==`` on key-tuple elements, so
    this is enough to express "primary descending, everything else ascending"
    as a single smallest-first key.
    """

    __slots__ = ("key",)

    def __init__(self, key: Tuple[int, object, str]):
        self.key = key

    def __lt__(self, other: "_ReversedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReversedKey) and other.key == self.key


def canonical_top_k(
    rows: Sequence[Tuple[object, ...]],
    count: int,
    index: Optional[int] = None,
    descending: bool = False,
) -> List[Tuple[object, ...]]:
    """``canonical_sorted(rows, index, descending)[:count]`` without the sort.

    The two-pass stable sort of :func:`canonical_sorted` is equivalent to one
    stable sort by the composite key *(direction-adjusted primary, full row
    key)* — ties of the primary keep ascending canonical order either way —
    and ``heapq.nsmallest`` is documented equivalent to
    ``sorted(iterable, key=key)[:n]``, so this bounded selection returns the
    identical cut at O(n log k) instead of O(n log n).
    """
    if count >= len(rows):
        return canonical_sorted(rows, index=index, descending=descending)
    if count <= 0:
        return []
    if index is None:
        return heapq.nsmallest(count, rows, key=row_sort_key)

    def cut_key(row: Tuple[object, ...]):
        primary = value_sort_key(row[index] if index < len(row) else None)
        if descending:
            return (_ReversedKey(primary), row_sort_key(row))
        return (primary, row_sort_key(row))

    return heapq.nsmallest(count, rows, key=cut_key)


# -- vectorized sort-key encoding --------------------------------------------
#
# The columnar engine sorts index permutations, not rows, so it needs the
# canonical value order above as something NumPy can sort.  Per column,
# :func:`encode_sort_key` folds the (rank, value, text) key into a single
# ``uint64`` code that is *order-isomorphic* to the scalar key — code(a) <
# code(b) exactly when key(a) < key(b), equal exactly when the keys tie.
# Exact isomorphism (not mere monotonicity) is what makes the downstream
# kernels correct: a stable argsort over codes equals the stable scalar sort,
# ``~code`` is the exact descending key (stable argsort over it equals
# ``sorted(..., reverse=True)``), and the top-k cut's pivot-tie candidate set
# ``code <= pivot`` contains exactly the rows the scalar cut would consider.

#: IEEE-754 float64 sign bit; flipping it (non-negatives) or the whole word
#: (negatives) makes float bit patterns sort as the floats do.
_SIGN_BIT = np.uint64(0x8000000000000000)
#: Codes of the two ranks above every finite number and every text: NaN sorts
#: after all numbers (rank 1), NULL after everything (rank 3).  ``+inf``
#: encodes to 0xFFF0... < _NAN_CODE, so no finite/infinite value collides.
_NAN_CODE = np.uint64(0xFFFFFFFFFFFFFFFE)
_NULL_CODE = np.uint64(0xFFFFFFFFFFFFFFFF)


def _encode_number(column: TypedColumn) -> np.ndarray:
    # +0.0 collapses -0.0 onto 0.0 first: the scalar key ties them, so their
    # codes must too (the raw bit patterns would order them strictly)
    values = column.data + 0.0
    bits = values.view(np.uint64)
    negative = (bits & _SIGN_BIT) != 0
    codes = np.where(negative, ~bits, bits | _SIGN_BIT)
    nan_mask = np.isnan(values)
    if nan_mask.any():
        # every NaN payload (and sign) collapses to the one rank-1 code,
        # mirroring the scalar key's single (1, 0.0, "") bucket
        codes[nan_mask] = _NAN_CODE
    codes[column.mask] = _NULL_CODE
    return codes


def _encode_text(column: TypedColumn) -> np.ndarray:
    # (lowered, exact) pairs: rank them lexicographically by stable lexsort,
    # then assign consecutive codes wherever a pair differs
    lowered = column.lowered
    exact = column.data
    order = np.lexsort((exact, lowered))
    sorted_lowered = lowered[order]
    sorted_exact = exact[order]
    new_pair = np.empty(order.size, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (sorted_lowered[1:] != sorted_lowered[:-1]) | (
        sorted_exact[1:] != sorted_exact[:-1]
    )
    ranks = np.cumsum(new_pair) - 1
    codes = np.empty(order.size, dtype=np.uint64)
    codes[order] = ranks
    codes[column.mask] = np.uint64(ranks[-1] + 1)
    return codes


def encode_sort_key(column: TypedColumn) -> Optional[np.ndarray]:
    """Ascending ``uint64`` sort codes for one column, or ``None`` to decline.

    Codes are order-isomorphic to :func:`value_sort_key` per value; ``~codes``
    is the exact descending key.  Declines on object-kind columns, which the
    typed shadows cannot represent.
    """
    if len(column) == 0:
        return np.empty(0, dtype=np.uint64)
    if column.kind == KIND_NUMBER:
        return _encode_number(column)
    if column.kind == KIND_TEXT:
        return _encode_text(column)
    return None


def canonical_keys(
    codes: Sequence[np.ndarray], index: Optional[int] = None, descending: bool = False
) -> Tuple[np.ndarray, Sequence[np.ndarray]]:
    """``(primary, secondaries)`` codes of :func:`canonical_sorted`'s order.

    ``codes`` holds one column's codes per output column.  The two-pass sort
    is one stable sort by *(direction-adjusted ORDER BY column, every
    column)*; without an ORDER BY it is the row order, column by column.
    """
    if index is None:
        return codes[0], codes[1:]
    return (~codes[index] if descending else codes[index]), codes


def sort_order(primary: np.ndarray, secondaries: Sequence[np.ndarray]) -> np.ndarray:
    """Stable ascending permutation by *(primary, secondaries...)* codes.

    ``np.lexsort`` is stable and keys from its *last* argument first, so ties
    across every key column keep input order — exactly the scalar stable
    sort's tiebreak.
    """
    keys = tuple(reversed(list(secondaries))) + (primary,)
    return np.lexsort(keys)


def topk_order(
    primary: np.ndarray, secondaries: Sequence[np.ndarray], count: int
) -> np.ndarray:
    """Positions of the ``count`` smallest rows, in final sorted order.

    Equals ``sort_order(primary, secondaries)[:count]`` by construction: the
    ``np.argpartition`` pivot is the ``count``-th smallest primary code, and
    because codes are order-isomorphic to the scalar keys, the candidate set
    ``primary <= pivot`` is a superset of every row the full sort would place
    in the cut (fewer than ``count`` rows compare strictly below any cut row).
    Only the candidates pay the exact multi-key sort.
    """
    if count <= 0:
        return np.empty(0, dtype=np.intp)
    if count >= primary.size:
        return sort_order(primary, secondaries)
    partition = np.argpartition(primary, count - 1)[:count]
    pivot = primary[partition].max()
    candidates = np.flatnonzero(primary <= pivot)
    keys = tuple(key[candidates] for key in reversed(list(secondaries))) + (
        primary[candidates],
    )
    return candidates[np.lexsort(keys)][:count]
