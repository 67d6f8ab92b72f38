"""Measurement primitives: drift-corrected clock, percentiles, environment stamp.

The benchmark runs on small shared virtual machines whose speed moves by up
to 2x within a tenth of a second (other tenants on the same cores).
:class:`DriftClock` times a tiny fixed pure-Python reference loop after every
op and reports each interval of work at a fixed nominal machine speed::

    corrected = raw * NOMINAL_REF_MS / local_ref_ms

where ``local_ref_ms`` is the mean of the reference timings within
``WINDOW`` marks of the interval.  On a 2-vCPU VM this took the spread of
the total time of repeated identical passes from 17-38% raw to 3-5%
corrected; references taken only every half second left 6-13%.  Raw
durations and every ``ref_ms`` sample are kept next to the corrected values.
``calibrate.py`` checks that work added inside an op, pure-Python or BLAS,
shows in the corrected times at its own corrected cost.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Reference-loop duration, in ms, of the nominal machine every timing is
#: scaled to.  A constant, so corrected numbers compare across runs.
NOMINAL_REF_MS = 0.5
#: Iterations of :func:`reference_loop`: 0.35-0.9 ms on a 2-core x86 VM.
REF_ROUNDS = 1000
#: Reference timings on each side of an interval that its correction averages.
#: Four was the steadiest for totals and tails alike in a sweep of 0-32 over
#: repeated passes of every workload.
WINDOW = 4


def reference_loop(rounds: int = REF_ROUNDS) -> int:
    """Fixed interpreter-bound work: dict, string and list operations."""
    words = ("plan", "scan", "join", "group", "sort", "limit", "chart")
    table: Dict[str, int] = {}
    total = 0
    for index in range(rounds):
        key = words[index % 7] + str(index & 63)
        table[key] = table.get(key, 0) + index
        total += len(key.upper())
    return total + len(sorted(table.items()))


@dataclass
class DriftClock:
    """Splits a run into intervals of work, each followed by a reference timing.

    A reference timing is the second of two back-to-back runs of the loop.

    Call :meth:`start` once, then :meth:`mark` after every op (it closes the
    interval and times the reference loop) and :meth:`split` at phase ends
    (a mark that also returns the corrected seconds since the previous
    split).  Interval ``i`` lies between reference timings ``i`` and ``i + 1``.
    """

    timer: Callable[[], float] = time.perf_counter
    reference: Callable[[], object] = reference_loop
    refs_ms: List[float] = field(default_factory=list)
    intervals: List[float] = field(default_factory=list)
    _open_since: Optional[float] = None
    _split_at: int = 0

    def _time_reference(self) -> None:
        # a collection of the program's heap triggered by the loop's own
        # allocations would read as a 10-20 ms slow machine
        collecting = gc.isenabled()
        gc.disable()
        try:
            # the op before leaves the loop's code and data out of cache: run
            # cold, it read 10% slower after chart_render ops than between
            # pure-Python pads, so ops were scaled by what they left behind
            self.reference()
            started = self.timer()
            self.reference()
            self.refs_ms.append((self.timer() - started) * 1000.0)
        finally:
            if collecting:
                gc.enable()
        self._open_since = self.timer()

    def start(self) -> None:
        self._time_reference()
        self._split_at = len(self.intervals)

    @property
    def current_interval(self) -> int:
        """Index the open interval will have once closed."""
        return len(self.intervals)

    def mark(self) -> None:
        """Close the open interval and time the reference loop."""
        if self._open_since is None:
            raise RuntimeError("DriftClock.start() was not called")
        self.intervals.append(self.timer() - self._open_since)
        self._time_reference()

    def split(self) -> float:
        """:meth:`mark`, then the corrected seconds since the previous split."""
        self.mark()
        seconds = self.corrected_seconds(range(self._split_at, len(self.intervals)))
        self._split_at = len(self.intervals)
        return seconds

    def factor(self, interval: int) -> float:
        """Scale from raw seconds in ``interval`` to nominal-machine seconds."""
        nearby = self.refs_ms[max(0, interval - WINDOW): interval + 2 + WINDOW]
        return NOMINAL_REF_MS / statistics.fmean(nearby)

    def corrected_seconds(self, intervals: Sequence[int]) -> float:
        return sum(self.intervals[i] * self.factor(i) for i in intervals)

    def raw_seconds(self, intervals: Sequence[int]) -> float:
        return sum(self.intervals[i] for i in intervals)


def percentile(values: Sequence[float], pct: float, min_beyond: int = 10) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile, refusing a thin tail.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie above
    the percentile's nearest rank, so a p99 needs at least 1,000 samples.
    The estimate is a Beta-weighted mean of the order statistics around that
    rank.  A run's p99 sits where a dozen slow ops meet the body of the
    distribution, so one order statistic moves with the noise in a single
    op's timing; the weighted mean moved about half as much between repeats.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(values)
    rank = max(1, math.ceil(pct / 100.0 * count))
    if count - rank < min_beyond:
        raise ValueError(
            f"p{pct:g} of {count} samples leaves {count - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    ordered = sorted(values)
    q = pct / 100.0
    a, b = q * (count + 1), (1.0 - q) * (count + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    first = max(0, int((q - 12 * sd) * count))
    stop = min(count, int((q + 12 * sd) * count) + 1)
    steps = 16
    total = weights = 0.0
    for index in range(first, stop):
        # midpoint rule for the Beta(a, b) mass on [index / n, (index + 1) / n]
        weight = 0.0
        for step in range(steps):
            x = (index + (step + 0.5) / steps) / count
            weight += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += weight * ordered[index]
        weights += weight
    return total / weights


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (stands in for a commit id)."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def blas_info() -> Dict[str, object]:
    """BLAS library name/version (as NumPy reports them) and its thread count."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    # OpenBLAS sizes its pool to nproc unless the environment caps it
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": int(env) if env else os.cpu_count()}


def environment_stamp(root: Path, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Everything needed to tell two runs' machines and programs apart."""
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "nominal_ref_ms": NOMINAL_REF_MS,
        "ref_rounds": REF_ROUNDS,
        "ref_window": WINDOW,
    }
