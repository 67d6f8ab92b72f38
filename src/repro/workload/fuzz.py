"""Scaled differential fuzzing of the engine matrix.

:class:`DifferentialFuzzer` streams seeded generated DVQs through every
execution engine and asserts the portable-subset contract: identical
normalised results where execution succeeds, identical
:class:`~repro.executor.backend.ExecutionOutcome` categories (and missing
identifiers) where it fails.  Queries are generated with a *per-query* seed
(``base_seed + index``), so any failure is reproducible from two integers —
and the harness prints exactly that as a paste-ready snippet, after
automatically shrinking the query with
:func:`~repro.workload.minimize.minimize_query`.

Queries run one after another through
:func:`~repro.runtime.runner.run_batch`, which records a query that raises
as a generator error instead of aborting the sweep.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.database.database import Database
from repro.dvq import parse_dvq, serialize_dvq
from repro.dvq.nodes import DVQuery
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.runtime.runner import run_batch
from repro.sql import SQLiteBackend
from repro.workload.generator import WorkloadGenerator
from repro.workload.minimize import (
    MismatchOracle,
    _attempt,
    compare_to_reference,
    minimize_query,
)


def default_engine_matrix() -> Dict[str, object]:
    """The engine matrix, interpreter excluded (it is the oracle).

    ``columnar`` is the default vectorized engine and ``columnar-python`` the
    same plans through the per-value scalar kernels.
    """
    return {
        "sqlite": SQLiteBackend(),
        "columnar": ColumnarBackend(),
        "columnar-python": ColumnarBackend(vectorize=False),
    }


@dataclass(frozen=True)
class FuzzMismatch:
    """One confirmed disagreement between an engine and the reference.

    ``seed`` regenerates the original query; ``minimized_text`` is the
    delta-debugged reproducer (equal to ``query_text`` when minimization is
    disabled or cannot shrink further).
    """

    index: int
    seed: int
    engine: str
    kind: str
    query_text: str
    minimized_text: str

    def repro_snippet(self) -> str:
        """A paste-ready snippet that rebuilds and re-executes the reproducer."""
        return (
            f"# mismatch vs {self.engine} ({self.kind}); "
            f"generator seed {self.seed}\n"
            f"query = parse_dvq({self.minimized_text!r})\n"
            f"# original: {self.query_text}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing sweep."""

    total: int = 0
    engines: Sequence[str] = ()
    category_counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[FuzzMismatch] = field(default_factory=list)
    generator_errors: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.generator_errors

    @property
    def comparisons(self) -> int:
        return self.total * len(self.engines)

    def summary(self) -> str:
        categories = ", ".join(
            f"{category}={count}"
            for category, count in sorted(self.category_counts.items())
        )
        lines = [
            f"fuzzed {self.total} queries x {len(self.engines)} engines "
            f"({self.comparisons} comparisons) in {self.wall_seconds:.1f}s",
            f"reference outcomes: {categories or 'none'}",
            f"mismatches: {len(self.mismatches)}",
        ]
        for mismatch in self.mismatches[:10]:
            lines.append(
                f"  seed {mismatch.seed} vs {mismatch.engine}: {mismatch.kind}\n"
                f"    {mismatch.minimized_text}"
            )
        for error in self.generator_errors[:5]:
            lines.append(f"  generator error: {error}")
        return "\n".join(lines)


class DifferentialFuzzer:
    """Sweep generated DVQs through the engine matrix, minimizing failures.

    Args:
        database: the corpus database (typically a
            :func:`~repro.workload.schema_graph.build_workload_database`
            product, but any :class:`Database` works).
        engines: name -> backend mapping to compare against the interpreter;
            defaults to :func:`default_engine_matrix`.
        generator_factory: ``seed -> generator``; defaults to a
            :class:`~repro.workload.generator.WorkloadGenerator` with that
            seed.  Each query ``i`` is generated by a *fresh*
            ``generator_factory(base_seed + i)``, so a failing index is
            reproducible in isolation.
        base_seed: offset for per-query seeds.
        minimize: shrink every mismatch to a minimal reproducer (on by
            default; turn off for raw-speed sweeps).
    """

    def __init__(
        self,
        database: Database,
        engines: Optional[Dict[str, object]] = None,
        generator_factory: Optional[Callable[[int], object]] = None,
        base_seed: int = 0,
        minimize: bool = True,
    ):
        self.database = database
        self.engines = default_engine_matrix() if engines is None else engines
        if generator_factory is None:
            # one statistics pass shared by every per-seed generator
            cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
            generator_factory = lambda seed: WorkloadGenerator(  # noqa: E731
                seed=seed, stats_cache=cache
            )
        self.generator_factory = generator_factory
        self.base_seed = base_seed
        self.minimize = minimize
        self.reference = InterpreterBackend()

    # -- generation ----------------------------------------------------------

    def query_for_seed(self, seed: int) -> DVQuery:
        """Regenerate the exact query the sweep produced for ``seed``."""
        return self.generator_factory(seed).generate(self.database)

    # -- sweeping ------------------------------------------------------------

    def run(self, count: int) -> FuzzReport:
        """Fuzz ``count`` queries; returns the aggregate report."""
        started = time.perf_counter()
        report = FuzzReport(total=count, engines=tuple(self.engines))
        batch = run_batch(range(count), self._check_one)
        for item in batch.items:
            if not item.ok:
                report.generator_errors.append(f"index {item.index}: {item.error}")
                continue
            category, mismatches = item.value
            report.category_counts[category] = (
                report.category_counts.get(category, 0) + 1
            )
            report.mismatches.extend(mismatches)
        report.wall_seconds = time.perf_counter() - started
        return report

    def _check_one(self, index: int):
        seed = self.base_seed + index
        query = self.query_for_seed(seed)
        # the differential contract is stated over the *text* form: the query
        # must survive a serialize -> parse round trip unchanged
        text = serialize_dvq(query)
        parsed = parse_dvq(text)
        reparsed = serialize_dvq(parsed)
        if reparsed != text:
            raise AssertionError(
                f"round-trip drift for seed {seed}: {text!r} -> {reparsed!r}"
            )
        mismatches: List[FuzzMismatch] = []
        # one reference execution per query, shared by every engine comparison
        reference_outcome, reference_result = _attempt(
            self.reference, parsed, self.database
        )
        for name, engine in self.engines.items():
            kind = compare_to_reference(
                reference_outcome, reference_result, parsed, self.database, engine
            )
            if kind is None:
                continue
            mismatches.append(self._build_mismatch(index, seed, name, engine, parsed, kind))
        return reference_outcome.category, mismatches

    def _build_mismatch(
        self, index: int, seed: int, name: str, engine, query: DVQuery, kind: str
    ) -> FuzzMismatch:
        text = serialize_dvq(query)
        minimized_text = text
        if self.minimize:
            oracle = MismatchOracle(self.database, self.reference, engine)
            try:
                minimized = minimize_query(query, oracle, self.database)
                minimized_text = serialize_dvq(minimized)
            except Exception:  # noqa: BLE001 - a shrink failure must not mask the bug
                pass
        return FuzzMismatch(
            index=index,
            seed=seed,
            engine=name,
            kind=kind,
            query_text=text,
            minimized_text=minimized_text,
        )


def fuzz_database(
    database: Database,
    count: int,
    base_seed: int = 0,
    portable_subset: bool = True,
    max_join_cost: int = 2_000_000,
) -> FuzzReport:
    """One-call sweep used by tests, benchmarks and ``examples/fuzz_engines.py``."""
    cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    fuzzer = DifferentialFuzzer(
        database,
        generator_factory=lambda seed: WorkloadGenerator(
            seed=seed,
            portable_subset=portable_subset,
            max_join_cost=max_join_cost,
            stats_cache=cache,
        ),
        base_seed=base_seed,
    )
    return fuzzer.run(count)
