"""Binning of temporal and numeric values for the DVQ ``BIN ... BY ...`` clause.

:func:`bin_value` is the per-value definition; :func:`bin_encode` is the
vectorized kernel the columnar engine uses on typed columns.  It exploits
that binning is a pure function of the value: compute :func:`bin_value` once
per *distinct* value and broadcast the labels back through the unique-inverse
— O(distinct) scalar work instead of O(rows).  A text column whose values
are all strict ``YYYY-MM-DD`` dates skips even that: NumPy parses their code
points (:func:`_parse_dates`) and numbers the bins.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.database.typed import KIND_NUMBER, KIND_TEXT, TypedColumn, object_array
from repro.dvq.nodes import BinUnit

_WEEKDAY_NAMES = [
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
]


def _parse_date(value: object) -> Optional[tuple]:
    """Parse a YYYY-MM-DD string into (year, month, day); None if not a date."""
    if not isinstance(value, str):
        return None
    parts = value.split("-")
    if len(parts) != 3:
        return None
    try:
        year, month, day = (int(part) for part in parts)
    except ValueError:
        return None
    if not (1 <= month <= 12 and 1 <= day <= 31):
        return None
    return year, month, day


def _parse_dates(texts: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(year, month, day)`` int arrays of ``<U`` strings, or ``None``.

    Answers only when *every* string is ASCII ``DDDD-DD-DD`` with month 1-12
    and day 1-31.  :func:`_parse_date` parses those to the same numbers, but
    it also accepts what ``int()`` does (signs, spaces, underscores, other
    scripts' digits, fewer digits), so any other string declines the whole
    array to the per-value parse.
    """
    width = texts.dtype.itemsize // 4
    if texts.size == 0 or width < 10:
        return None
    # one row of UCS-4 code points per string, NUL-padded to the array width
    points = texts.view(np.uint32).reshape(texts.size, width)
    if width > 10 and points[:, 10:].any():
        return None
    digits = points[:, [0, 1, 2, 3, 5, 6, 8, 9]].astype(np.int64) - ord("0")
    if (points[:, [4, 7]] != ord("-")).any() or ((digits < 0) | (digits > 9)).any():
        return None
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    if ((month < 1) | (month > 12) | (day < 1) | (day > 31)).any():
        return None
    return year, month, day


def _day_of_week(year, month, day):
    """Zeller's congruence, returning 0=Monday ... 6=Sunday.

    Takes ints or int arrays alike (January and February count as months 13
    and 14 of the previous year).
    """
    early = month < 3
    month = month + 12 * early
    year = year - early
    century, year_of_century = divmod(year, 100)
    weekday = (
        day
        + (13 * (month + 1)) // 5
        + year_of_century
        + year_of_century // 4
        + century // 4
        + 5 * century
    ) % 7
    # Zeller: 0=Saturday ... convert to 0=Monday
    return (weekday + 5) % 7


def bin_value(value: object, unit: BinUnit, interval: int = 100) -> object:
    """Assign ``value`` to a bin according to ``unit``.

    * ``YEAR`` / ``MONTH`` / ``WEEKDAY`` apply to date strings (``YYYY-MM-DD``)
      and to plain integer years for the YEAR unit.
    * ``INTERVAL`` buckets numeric values into fixed-width ranges.
    * ``None`` values map to ``None`` so they can be filtered by callers.
    * NaN maps to the text label ``"NaN"`` for every unit: no year or
      interval contains it, and a stable label keeps grouping (and the
      canonical text-rank sort position) deterministic across engines.
      ``±inf`` likewise map to ``"Infinity"`` / ``"-Infinity"`` (Vega-Lite's
      JavaScript spelling), where ``int()`` would raise.
    """
    if value is None:
        return None
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
    parsed = _parse_date(value)
    if unit is BinUnit.YEAR:
        if parsed is not None:
            return parsed[0]
        if isinstance(value, (int, float)):
            return int(value)
        return value
    if unit is BinUnit.MONTH:
        if parsed is not None:
            return parsed[1]
        return value
    if unit is BinUnit.WEEKDAY:
        if parsed is not None:
            return _WEEKDAY_NAMES[_day_of_week(*parsed)]
        return value
    if unit is BinUnit.INTERVAL:
        if isinstance(value, (int, float)):
            width = max(int(interval), 1)
            low = int(value // width) * width
            return f"[{low}, {low + width})"
        return value
    raise ValueError(f"Unsupported bin unit {unit!r}")


def _date_bins(texts: np.ndarray, unit: BinUnit) -> Optional[np.ndarray]:
    """The YEAR / MONTH / weekday number of each string, or ``None`` unless
    every string is a strict date (:func:`_parse_dates`)."""
    parsed = None if unit is BinUnit.INTERVAL else _parse_dates(texts)
    if parsed is None:
        return None
    if unit is BinUnit.YEAR:
        return parsed[0]
    if unit is BinUnit.MONTH:
        return parsed[1]
    return _day_of_week(*parsed)


def bin_encode(
    column: TypedColumn, unit: BinUnit, interval: int = 100
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Dictionary-encode the bins of a typed column: ``(labels, codes)``.

    ``codes[i]`` indexes ``labels`` (an object array); code 0 is reserved for
    NULL rows (``labels[0] is None``), matching ``bin_value(None) -> None``.
    Distinct column values whose bins coincide (e.g. two dates in the same
    year) share one code, and that code's label object is the one
    :func:`bin_value` produces for the group's *first* row — exactly the
    label the per-row scalar path would emit for the group.  Codes number
    the labels in first-seen order.

    Returns ``None`` to decline (mixed-type columns, NaN) — the caller then
    maps :func:`bin_value` per value.
    """
    if column.kind not in (KIND_NUMBER, KIND_TEXT):
        return None
    if column.kind == KIND_NUMBER and column.has_nan:
        # NaN needs its dedicated scalar label and np.unique's NaN handling
        # is version-sensitive; decline so the caller maps bin_value per row
        return None
    codes = np.zeros(len(column), dtype=np.intp)
    labels: list = [None]
    valid_rows = np.flatnonzero(~column.mask)
    if not valid_rows.size:
        return object_array(labels), codes
    values = column.data[valid_rows]
    keys = _date_bins(values, unit) if column.kind == KIND_TEXT else None
    if keys is not None:
        # every row a strict date: its bin is a number, so NumPy numbers the
        # distinct bins in first-seen order (codes 1, 2, ...) directly
        _, first, key_codes = np.unique(keys, return_index=True, return_inverse=True)
        seen = np.argsort(first, kind="stable")
        rank = np.empty(seen.size, dtype=np.intp)
        rank[seen] = np.arange(1, seen.size + 1)
        codes[valid_rows] = rank[key_codes]
        label_keys = keys[first[seen]].tolist()
        if unit is BinUnit.WEEKDAY:
            label_keys = [_WEEKDAY_NAMES[key] for key in label_keys]
        labels.extend(label_keys)
        return object_array(labels), codes
    uniques, first_sub, inverse = np.unique(values, return_index=True, return_inverse=True)
    first_rows = valid_rows[first_sub]
    unique_codes = np.empty(len(uniques), dtype=np.intp)
    label_codes: dict = {}
    # walk uniques by first occurrence so equal-label collisions keep the
    # earliest row's label object (what the scalar path emits for a group)
    for position in np.argsort(first_rows, kind="stable"):
        label = bin_value(column.objects[first_rows[position]], unit, interval)
        code = label_codes.get(label)
        if code is None:
            code = len(labels)
            label_codes[label] = code
            labels.append(label)
        unique_codes[position] = code
    codes[valid_rows] = unique_codes[inverse]
    return object_array(labels), codes
