"""Precomputed row samples for approximate query processing (Verdict-style).

The AQP rewrite (:mod:`repro.plan.sampling`) answers aggregate/bin DVQs from
a small, precomputed subset of a table's rows instead of the full scan.  Two
sample kinds cover the chart workload:

* **uniform** — a seeded simple random sample of ``fraction`` of the rows.
  Every surviving row represents ``n / k`` population rows, so COUNT/SUM
  outputs scale by that single global factor.
* **keyed** — stratified by a group-by column: every distinct key value
  (including NULL) contributes ``max(1, round(fraction * g))`` of its ``g``
  rows, with a per-stratum scale ``g / k_g``.  This guarantees no group
  disappears from the chart (a uniform sample can miss rare groups entirely)
  and makes per-group COUNTs exact for single-table group-bys.

Samples are deterministic in ``(seed, fraction, key)`` — the row permutation
comes from :func:`numpy.random.default_rng` — and are built once per table
via :meth:`repro.database.table.Table.sample`, cached and insert-invalidated
next to the column stores.  Sampled row ids are kept **sorted** so the
engine's late-materialising batches stay in row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.database.typed import KIND_NUMBER, KIND_TEXT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table imports us)
    from repro.database.table import Table

#: Sample kinds understood by the plan IR's ``Sample`` node.
UNIFORM = "uniform"
KEYED = "keyed"

#: Default sampling fraction: 5% keeps 1M-row scans ~20x smaller while the
#: CLT bound at ~50k sampled rows stays well under the 5% error budget.
DEFAULT_FRACTION = 0.05

#: Keyed samples decline beyond this many strata: per-stratum draws would
#: dominate build time and the sample would approach the full table anyway.
MAX_STRATA = 4096


@dataclass(frozen=True)
class Stratum:
    """Population and sample size of one keyed-sample stratum."""

    population: int
    sampled: int

    @property
    def scale(self) -> float:
        return self.population / self.sampled if self.sampled else 0.0


@dataclass(frozen=True)
class TableSample:
    """One materialised row sample of a table.

    Attributes:
        kind: :data:`UNIFORM` or :data:`KEYED`.
        key: canonical stratification column (keyed samples only).
        fraction: requested sampling fraction.
        seed: RNG seed the permutation was drawn with.
        indices: **sorted** sampled row ids into the base table.
        row_count: population row count ``n`` at build time.
        strata: per-key-value :class:`Stratum` (keyed samples only), keyed by
            the group value exactly as group-by surfaces it (``None`` for the
            NULL stratum).
    """

    kind: str
    key: Optional[str]
    fraction: float
    seed: int
    indices: np.ndarray
    row_count: int
    strata: Dict[object, Stratum] = field(default_factory=dict)

    @property
    def sampled_rows(self) -> int:
        return int(self.indices.size)

    @property
    def scale(self) -> float:
        """Global scale-up factor ``n / k`` (uniform samples)."""
        return self.row_count / self.sampled_rows if self.sampled_rows else 0.0


def _sample_size(population: int, fraction: float) -> int:
    """At least one row per (non-empty) population, at most all of them."""
    return min(population, max(1, round(population * fraction)))


def _stratum_codes(table: "Table", key: str) -> Optional[Tuple[np.ndarray, List[object]]]:
    """Label every row with a stratum code; return per-code representatives.

    Codes group rows exactly as GROUP BY would (``5`` and ``5.0`` share a
    stratum, NULLs form their own).  Returns ``None`` when the column has too
    many strata for a keyed sample to be worthwhile.
    """
    column = table.typed_store()[key]
    mask = column.mask
    if len(column) == 0:
        return np.empty(0, dtype=np.int64), [None]
    if column.kind in (KIND_NUMBER, KIND_TEXT) and not column.has_nan:
        # vectorized: distinct shadow values index the strata; masked slots
        # hold placeholders, so carve the NULL stratum out afterwards
        _, inverse = np.unique(column.data, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
        codes[mask] = 0
    else:
        # object fallback: dict-keyed labelling, same equality as group-by
        seen: Dict[object, int] = {}
        codes = np.zeros(len(column), dtype=np.int64)
        for position, value in enumerate(column.objects):
            if value is None:
                continue
            code = seen.get(value)
            if code is None:
                if len(seen) >= MAX_STRATA:
                    return None
                code = len(seen) + 1
                seen[value] = code
            codes[position] = code
    representatives: List[object] = [None] * (int(codes.max()) + 1 if codes.size else 1)
    first = np.full(len(representatives), -1, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    for start in starts:
        first[sorted_codes[start]] = order[start]
    for code, position in enumerate(first):
        if position >= 0:
            representatives[code] = column.objects[position]
    if len(representatives) - 1 > MAX_STRATA:
        return None
    return codes, representatives


def build_table_sample(
    table: "Table",
    kind: str = UNIFORM,
    key: Optional[str] = None,
    fraction: float = DEFAULT_FRACTION,
    seed: int = 0,
) -> Optional[TableSample]:
    """Draw a seeded sample of ``table``; ``None`` when a keyed build declines.

    Prefer :meth:`repro.database.table.Table.sample`, which caches the result
    under the store lock and invalidates it on insert.
    """
    population = len(table.rows)
    rng = np.random.default_rng(seed)
    if kind == UNIFORM:
        size = _sample_size(population, fraction)
        indices = np.sort(rng.permutation(population)[:size]) if population else (
            np.empty(0, dtype=np.int64)
        )
        return TableSample(
            kind=UNIFORM,
            key=None,
            fraction=fraction,
            seed=seed,
            indices=indices.astype(np.int64),
            row_count=population,
        )
    if kind != KEYED:
        raise ValueError(f"unknown sample kind {kind!r}")
    if key is None:
        raise ValueError("keyed samples require a stratification column")
    canonical = table.canonical_column(key)
    labelled = _stratum_codes(table, canonical)
    if labelled is None:
        return None
    codes, representatives = labelled
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries)) if codes.size else np.empty(0, np.int64)
    stops = np.concatenate((boundaries, [codes.size])) if codes.size else starts
    picked: List[np.ndarray] = []
    strata: Dict[object, Stratum] = {}
    for start, stop in zip(starts, stops):
        group = order[start:stop]
        size = _sample_size(group.size, fraction)
        picked.append(group[rng.permutation(group.size)[:size]])
        value = representatives[sorted_codes[start]]
        strata[value] = Stratum(population=int(group.size), sampled=size)
    indices = np.sort(np.concatenate(picked)) if picked else np.empty(0, np.int64)
    return TableSample(
        kind=KEYED,
        key=canonical,
        fraction=fraction,
        seed=seed,
        indices=indices.astype(np.int64),
        row_count=population,
        strata=strata,
    )
