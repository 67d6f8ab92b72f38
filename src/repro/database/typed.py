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

Inference is conservative: any column a typed array cannot represent
*exactly* (mixed types, integers beyond the float64-exact range, strings
with NUL bytes) falls back to ``KIND_OBJECT``, for which every kernel
declines and the engine evaluates per value — the correctness-first escape
hatch the differential suite leans on.
"""

from __future__ import annotations

from typing import List, Optional

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
            for NULL) — outputs are always gathered from here.
        data: the typed shadow array, or ``None`` for object kind.  Masked
            slots hold a placeholder (``0.0`` / ``""``); kernels must never
            let a placeholder escape — consult :attr:`mask`.
        mask: boolean array, ``True`` where the value is NULL.
    """

    __slots__ = ("kind", "objects", "data", "mask", "_lowered", "_has_nan", "_has_bool")

    def __init__(
        self,
        kind: str,
        objects: np.ndarray,
        data: Optional[np.ndarray],
        mask: np.ndarray,
        lowered: Optional[np.ndarray] = None,
        has_nan: Optional[bool] = None,
        has_bool: Optional[bool] = None,
    ):
        self.kind = kind
        self.objects = objects
        self.data = data
        self.mask = mask
        self._lowered = lowered
        self._has_nan = has_nan
        self._has_bool = has_bool

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def lowered(self) -> np.ndarray:
        """Lower-cased shadow of a text column (NOCASE equality / LIKE).

        Built on first use via :func:`np.char.lower` and cached; a concurrent
        double build is benign (both threads compute the same array).
        """
        assert self.kind == KIND_TEXT, "lowered is only defined for text columns"
        lowered = self._lowered
        if lowered is None:
            lowered = np.char.lower(self.data)
            self._lowered = lowered
        return lowered

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

    @property
    def has_bool(self) -> bool:
        """True when a number column may contain ``bool`` values.

        The float64 shadow stores ``True``/``False`` as ``1.0``/``0.0``, so
        any kernel whose scalar counterpart treats bools differently from
        numbers (the legacy ORDER BY key sorts them as text) must consult
        this flag and decline.  Like :attr:`has_nan`, a safe
        over-approximation after :meth:`take` / :meth:`slice`.
        """
        if self._has_bool is None:
            if self.kind == KIND_NUMBER:
                self._has_bool = any(
                    isinstance(value, bool) for value in self.objects.tolist()
                )
            else:
                self._has_bool = False
        return self._has_bool

    def take(self, indices: np.ndarray) -> "TypedColumn":
        """Gather rows by index into a new, aligned :class:`TypedColumn`."""
        return TypedColumn(
            self.kind,
            self.objects[indices],
            None if self.data is None else self.data[indices],
            self.mask[indices],
            lowered=None if self._lowered is None else self._lowered[indices],
            has_nan=self._has_nan,
            has_bool=self._has_bool,
        )


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
    has_bool = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            text = False
            has_bool = True
        elif isinstance(value, (int, float)):
            text = False
            if isinstance(value, int) and not -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT:
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
        return TypedColumn(KIND_NUMBER, objects, data, mask, has_bool=has_bool)
    if text:
        shadow = objects.copy()
        shadow[mask] = ""
        data = shadow.astype(np.str_)
        return TypedColumn(KIND_TEXT, objects, data, mask, has_bool=False)
    return TypedColumn(KIND_OBJECT, objects, None, mask, has_nan=False, has_bool=False)
