"""Typed NumPy column storage with null masks.

The columnar engine's vectorized kernels (:mod:`repro.executor.columnar` and
the vector variants in :mod:`repro.executor.predicates` /
:mod:`repro.executor.binning` / :mod:`repro.executor.functions`) need columns
as homogeneous NumPy arrays, but DVQ databases store heterogeneous Python
objects with ``None`` for SQL NULL.  :func:`build_typed_column` bridges the
two: one classification pass infers a *kind* for the column and materialises

* ``objects`` — the original Python values as an object-dtype array (the
  source of truth: every output row is gathered from here, so results stay
  bit-identical to the per-value interpreter),
* ``data`` — a typed shadow array the kernels compute on (``float64`` for
  number columns, ``<U`` for text columns, absent for mixed columns), and
* ``mask`` — a boolean null mask (``True`` where the value is ``None``).

Two derived arrays are built on first use and cached on the column, so they
live exactly as long as the table's typed store: the lower-cased shadow of a
text column (:attr:`TypedColumn.lowered`) and the GROUP BY codes of a text or
NaN-free number column (:attr:`TypedColumn.group_codes`).

Inference is conservative: any column a typed array cannot represent
*exactly* (mixed types, integers beyond the float64-exact range, strings
with NUL bytes) falls back to ``KIND_OBJECT``, for which every kernel
declines and the engine evaluates per value — the correctness-first escape
hatch the differential suite leans on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Column kinds inferred by :func:`build_typed_column`.
KIND_NUMBER = "number"
KIND_TEXT = "text"
KIND_OBJECT = "object"

#: Integers with magnitude beyond 2**53 are not exactly representable in
#: float64; such columns stay object-kind rather than silently losing bits.
_FLOAT_EXACT_INT = 2**53


class TypedColumn:
    """One column as aligned object / typed / mask arrays.

    Attributes:
        kind: ``"number"`` (data is float64), ``"text"`` (data is ``<U``) or
            ``"object"`` (no typed shadow; kernels must decline).
        objects: object-dtype array of the original Python values (``None``
            for NULL) — outputs are always gathered from here.  After
            :meth:`take` it is gathered on first read: most kernels read
            only ``data`` and ``mask``, and gathering objects touches every
            selected value's reference count.
        data: the typed shadow array, or ``None`` for object kind.  Masked
            slots hold a placeholder (``0.0`` / ``""``); kernels must never
            let a placeholder escape — consult :attr:`mask`.
        mask: boolean array, ``True`` where the value is NULL.
        ints_only: ``True`` when every non-null value of a number column is
            a Python ``int`` (no bool, no float) — objects that are their own
            canonical values, held exactly by the float64 shadow.  Exact after
            :meth:`take`; ``False`` is always safe (kernels that need it
            decline).
    """

    __slots__ = (
        "kind", "data", "mask", "ints_only",
        "_objects", "_selection", "_lowered", "_has_nan", "_group_codes",
    )

    def __init__(
        self,
        kind: str,
        objects: Optional[np.ndarray],
        data: Optional[np.ndarray],
        mask: np.ndarray,
        lowered: Optional[np.ndarray] = None,
        has_nan: Optional[bool] = None,
        ints_only: bool = False,
    ):
        self.kind = kind
        self._objects = objects
        #: ``(source column, indices)`` of a :meth:`take` whose objects are
        #: not gathered yet
        self._selection: Optional[Tuple["TypedColumn", np.ndarray]] = None
        self.data = data
        self.mask = mask
        self.ints_only = ints_only
        self._lowered = lowered
        self._has_nan = has_nan
        self._group_codes: Optional[Tuple[np.ndarray, int]] = None

    def __len__(self) -> int:
        return len(self.mask)

    @property
    def objects(self) -> np.ndarray:
        objects = self._objects
        if objects is None:
            # a concurrent double gather is benign: both read the same rows
            source, indices = self._selection
            objects = source.objects[indices]
            self._objects = objects
        return objects

    @property
    def lowered(self) -> np.ndarray:
        """Lower-cased shadow of a text column (NOCASE equality / LIKE).

        Built on first use with ``str.lower`` per value and cached; a
        concurrent double build is benign (both threads compute the same
        array).  NumPy sizes the array from the lowered strings, which may be
        longer than their sources (``"İ".lower()`` is two code points);
        :func:`np.char.lower` would keep the source width and truncate them.
        """
        assert self.kind == KIND_TEXT, "lowered is only defined for text columns"
        lowered = self._lowered
        if lowered is None:
            lowered = np.array([text.lower() for text in self.data.tolist()], dtype=np.str_)
            self._lowered = lowered
        return lowered

    @property
    def group_codes(self) -> Optional[Tuple[np.ndarray, int]]:
        """GROUP BY codes ``(codes, code_count)``, or ``None`` to decline.

        Two rows share a code exactly when their values would share a dict
        key in the scalar path's group tuples, and every code lies in
        ``[0, code_count)``.  Built by :func:`build_group_codes` on first use
        and cached for the column's lifetime, so a table's typed store pays
        for them once per grouped column (``insert`` drops them with the
        store); a concurrent double build is benign, as for :attr:`lowered`.
        Object-kind and NaN-bearing columns decline: their keys are encoded
        per batch (NaN groups by identity, which no float code reproduces).
        """
        if self.kind == KIND_OBJECT or self.has_nan:
            return None
        codes = self._group_codes
        if codes is None:
            codes = build_group_codes(self)
            self._group_codes = codes
        return codes

    @property
    def has_nan(self) -> bool:
        """True when a number column may contain NaN values.

        NaN breaks the equivalences the vector kernels rely on (``==`` under
        hashing, a total ``min``/``max``), so kernels consult this flag and
        fall back to per-value evaluation.  The flag is a safe
        over-approximation after :meth:`take` / :meth:`slice`.
        """
        if self._has_nan is None:
            if self.kind == KIND_NUMBER:
                self._has_nan = bool(np.isnan(self.data).any())
            else:
                self._has_nan = False
        return self._has_nan

    def take(self, indices: np.ndarray) -> "TypedColumn":
        """Gather rows by index into a new, aligned :class:`TypedColumn`
        (its :attr:`objects` on first read)."""
        column = TypedColumn(
            self.kind,
            None,
            None if self.data is None else self.data[indices],
            self.mask[indices],
            lowered=None if self._lowered is None else self._lowered[indices],
            has_nan=self._has_nan,
            ints_only=self.ints_only,
        )
        column._selection = (self, indices)
        return column


def as_object_column(values: np.ndarray) -> TypedColumn:
    """Wrap an object array as an object-kind column (no inference pass).

    The non-vectorized engine path uses this: it needs aligned object arrays
    for gathering but never consults ``data``; the null mask is computed
    lazily only if a kernel asks (it will not).
    """
    mask = np.fromiter((value is None for value in values), np.bool_, count=len(values))
    return TypedColumn(KIND_OBJECT, values, None, mask)


def object_array(values: List[object]) -> np.ndarray:
    """A 1-D object array of ``values`` (never collapsing nested sequences)."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def encode_objects(objects: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dict-encode arbitrary objects: ``(codes, code_count)``, first-seen.

    Equal codes mean equal dict keys (exact, case-sensitive ``str``
    equality; ``1 == 1.0 == True``; a NaN object only matches itself).
    Raises TypeError on unhashable values, like the scalar path's tuple
    group keys.
    """
    values = objects.tolist()
    # dict.fromkeys is a C-level, insertion-ordered dedup with exactly dict
    # key equality; only the (few) distinct values loop in Python
    codes = dict.fromkeys(values)
    for code, value in enumerate(codes):
        codes[value] = code
    encoded = np.fromiter(map(codes.__getitem__, values), dtype=np.intp, count=len(values))
    return encoded, len(codes)


def build_group_codes(column: TypedColumn) -> Tuple[np.ndarray, int]:
    """The group codes of a text or NaN-free number column (see
    :attr:`TypedColumn.group_codes`).

    Text columns dict-encode their objects (NULL is one more key): the dict
    scan is several times faster than ``np.unique``'s comparison sort over
    strings, with the same exact, case-sensitive equality.  Number columns
    take ``np.unique``'s inverse over the float64 shadow of the non-null
    rows, shifted past code 0 = NULL: float64 equality merges ``1``, ``1.0``
    and ``True``, and ``-0.0`` and ``0.0``, as dict keys do.
    """
    if column.kind == KIND_TEXT:
        return encode_objects(column.objects)
    codes = np.zeros(len(column), dtype=np.intp)
    valid = np.flatnonzero(~column.mask)
    if not valid.size:
        return codes, 1
    distinct, inverse = np.unique(column.data[valid], return_inverse=True)
    codes[valid] = inverse + 1
    return codes, distinct.size + 1


def build_typed_column(values: List[object]) -> TypedColumn:
    """Infer the kind of ``values`` and build its :class:`TypedColumn`.

    A column is *number* when every non-null value is ``bool``/``int``/
    ``float`` (ints within the float64-exact range), *text* when every
    non-null value is a ``str`` free of NUL bytes, and *object* otherwise.
    An all-null column is number kind by convention (all kernels see only
    masked slots either way).
    """
    objects = object_array(values)
    mask = np.fromiter((value is None for value in values), np.bool_, count=len(values))
    number = True
    text = True
    ints_only = True
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            text = False
            ints_only = False
        elif isinstance(value, (int, float)):
            text = False
            if isinstance(value, float):
                ints_only = False
            elif not -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT:
                number = False
                break
        elif isinstance(value, str):
            number = False
            if "\x00" in value:
                text = False
                break
        else:
            number = False
            text = False
            break
    if number:
        shadow = objects.copy()
        shadow[mask] = 0.0
        data = shadow.astype(np.float64)
        return TypedColumn(KIND_NUMBER, objects, data, mask, ints_only=ints_only)
    if text:
        shadow = objects.copy()
        shadow[mask] = ""
        data = shadow.astype(np.str_)
        return TypedColumn(KIND_TEXT, objects, data, mask)
    return TypedColumn(KIND_OBJECT, objects, None, mask, has_nan=False)
