"""Batched execution over a dataset with timing and failure isolation.

:func:`run_batch` is the loop behind ``GRED.trace_batch``,
:class:`~repro.evaluation.evaluator.ModelEvaluator` and the differential
fuzzer.  It maps a callable over a sequence of items, one after another on
the calling thread, and returns a :class:`BatchReport` that preserves input
order, isolates failures (one bad example records an error instead of
aborting the run) and carries per-item wall-clock timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, List, Optional, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class BatchFailure(RuntimeError):
    """Raised by strict accessors when a batch contains failed items."""


@dataclass
class BatchItemResult(Generic[ResultT]):
    """Outcome of one item: either a value or an error string, plus timing."""

    index: int
    value: Optional[ResultT] = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchReport(Generic[ResultT]):
    """Ordered results of one batch run plus aggregate throughput numbers."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ok_count(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def failure_count(self) -> int:
        return len(self.items) - self.ok_count

    def failures(self) -> List[BatchItemResult]:
        return [item for item in self.items if not item.ok]

    def values(self, strict: bool = True) -> List[Optional[ResultT]]:
        """The per-item values in input order.

        With ``strict=True`` (default) a batch containing failures raises
        :class:`BatchFailure`; with ``strict=False`` failed slots hold ``None``.
        """
        if strict and self.failure_count:
            first = self.failures()[0]
            raise BatchFailure(
                f"{self.failure_count}/{len(self.items)} items failed; "
                f"first failure at index {first.index}: {first.error}"
            )
        return [item.value for item in self.items]

    @property
    def items_per_second(self) -> float:
        return len(self.items) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def busy_seconds(self) -> float:
        """Summed per-item compute time."""
        return sum(item.seconds for item in self.items)

    def summary(self) -> str:
        return (
            f"{self.ok_count}/{len(self.items)} ok in {self.wall_seconds:.2f}s "
            f"({self.items_per_second:.1f} items/s)"
        )


def run_batch(items: Iterable[ItemT], fn: Callable[[ItemT], ResultT]) -> BatchReport:
    """Apply ``fn`` to every item in order, recording each value or error."""
    report: BatchReport = BatchReport()
    started = time.perf_counter()
    for index, item in enumerate(items):
        item_started = time.perf_counter()
        try:
            value, error = fn(item), None
        except Exception as exc:  # noqa: BLE001 - failure isolation is the point
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - item_started
        report.items.append(BatchItemResult(index, value, error, seconds))
    report.wall_seconds = time.perf_counter() - started
    return report
