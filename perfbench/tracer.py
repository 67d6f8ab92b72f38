"""In-memory spans and counters recorded around calls into the program.

The traced run patches public entry points of ``src/repro`` modules from
here, so the program itself carries no tracing code.  A span records its
name, start, end, parent span, the op it belongs to and the drift-clock
interval it started in; :func:`self_times` subtracts from each span the time
its direct children cover.  Hot calls (tens of thousands per op) get a
counter instead of a span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


_INHERITED = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: Optional[int]
    interval: int


class Tracer:
    """Collects spans and counts; installs and removes the patches that make them.

    ``op`` and ``interval`` are set by the benchmark loop and stamped on every
    span that starts while they hold.  Patches are undone in reverse order
    by :meth:`uninstall`.
    """

    def __init__(self, interval_of: Callable[[], int] = lambda: 0,
                 timer: Callable[[], float] = time.perf_counter):
        self.timer = timer
        self.interval_of = interval_of
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.timer(), 0.0, parent, self.op, self.interval_of()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.timer()
        self._stack.pop()
        return span

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        # an inherited method is deleted again on uninstall, not shadowed
        own = vars(owner).get(attr, _INHERITED) if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             label: Optional[Callable[[tuple, Any], str]] = None,
             observe: Optional[Callable[[Span, tuple, Any], None]] = None,
             when: Optional[Callable[[tuple], bool]] = None) -> None:
        """Record a span around ``owner.attr``.

        ``label(args, result)`` renames the span after the call (e.g. by the
        LLM behaviour that answered); ``observe(span, args, result)`` reads
        the result; ``when(args)`` limits the span to calls it accepts.
        Every recorded call is also counted under ``name``.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.end(index)
            tracer.counts[name] += 1
            if label is not None:
                span.name = label(args, result)
            if observe is not None:
                observe(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_function(self, module: str, attr: str, name: str, **options) -> None:
        """:meth:`wrap` a module-level function in every ``repro`` module that
        imported it by name, so callers see the patched version too."""
        original = getattr(sys.modules[module], attr)
        holders = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
            and getattr(mod, attr, None) is original
        ]
        for holder in holders:
            self.wrap(holder, attr, name, **options)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines (one object per span, parent by line index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def self_time_by_name(spans: List[Span], factors: Callable[[int], float],
                      first: int = 0, stop: Optional[int] = None) -> Dict[str, float]:
    """Total self seconds per span name over ``spans[first:stop]``, each scaled
    by ``factors(interval)`` of the drift-clock interval it ran in."""
    totals: Dict[str, float] = {}
    own = self_times(spans)
    for index in range(first, len(spans) if stop is None else stop):
        span = spans[index]
        totals[span.name] = totals.get(span.name, 0.0) + own[index] * factors(span.interval)
    return totals
