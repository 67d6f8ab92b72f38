"""Cross-cutting stage wrappers: timing, LLM-cache accounting, retries.

Middleware composes *around* stages instead of being threaded through them:
``GRED.trace`` historically sprinkled ``time.perf_counter()`` pairs around
each stage call; the :class:`TimingMiddleware` replaces all of them with one
wrapper applied uniformly by the plan.  A middleware receives the stage and
its run callable and returns a new callable — the plan applies them
outermost-first, so ``(timing, retry)`` times the retries it wraps.
"""

from __future__ import annotations

from typing import Callable, Protocol, Tuple, Type, runtime_checkable

from repro.pipeline.context import StageContext
from repro.pipeline.stages import Stage, stage_name
from repro.runtime.cache import LLMCache
from repro.runtime.timing import Stopwatch

#: What a middleware wraps and returns: one stage execution over a context.
StageRunner = Callable[[StageContext], None]


@runtime_checkable
class Middleware(Protocol):
    """Wraps a stage's run callable with cross-cutting behaviour."""

    def wrap(self, stage: Stage, run: StageRunner) -> StageRunner:
        ...  # pragma: no cover - protocol stub


class TimingMiddleware:
    """Stamps each stage's wall-clock seconds onto ``context.timings``.

    Durations accumulate per stage name, so a stage appearing twice in a plan
    (or re-run by the retry middleware) reports its total time under one key
    — the same contract :func:`repro.runtime.timing.aggregate_stage_timings`
    consumed when the pipeline stamped timings by hand.
    """

    def wrap(self, stage: Stage, run: StageRunner) -> StageRunner:
        name = stage_name(stage)

        def timed(context: StageContext) -> None:
            with Stopwatch() as watch:
                run(context)
            context.timings[name] = context.timings.get(name, 0.0) + watch.seconds

        return timed


class CacheStatsMiddleware:
    """Attributes LLM-cache hits and misses to the stage that caused them.

    Requires the pipeline's chat model to be wrapped in an
    :class:`~repro.runtime.cache.LLMCache`; after each stage the hit/miss
    deltas are recorded under ``context.meta["llm_cache"][<stage>]``, giving
    per-stage cache effectiveness without touching any stage code.

    The counters are snapshots of the *shared* cache, so when traces run
    concurrently (on a caller's threads) a stage's delta can include
    requests issued by sibling threads — treat per-stage numbers
    as exact under serial execution and as approximate attribution under
    concurrency (the cache's own :class:`~repro.runtime.cache.CacheStats`
    stay exact either way).
    """

    def __init__(self, cache: LLMCache):
        self.cache = cache

    def wrap(self, stage: Stage, run: StageRunner) -> StageRunner:
        name = stage_name(stage)

        def counted(context: StageContext) -> None:
            hits, misses = self.cache.stats.hits, self.cache.stats.misses
            run(context)
            bucket = context.meta.setdefault("llm_cache", {})
            delta = {
                "hits": self.cache.stats.hits - hits,
                "misses": self.cache.stats.misses - misses,
            }
            previous = bucket.get(name)
            if previous is not None:
                delta = {key: previous[key] + delta[key] for key in delta}
            bucket[name] = delta

        return counted


class RetryMiddleware:
    """Re-runs a stage that raised, up to ``attempts`` total tries.

    Meant for plans running against *real* chat endpoints where transient
    failures (rate limits, network) are expected; the deterministic simulated
    model never needs it.  Before each re-run the context's pipeline state
    (candidate, records, execution verdict, repair counter) is rolled back to
    the pre-stage snapshot, so a stage that mutated the context mid-flight —
    the repair loop records each round as it happens — leaves no artifacts of
    the aborted attempt behind.
    """

    def __init__(self, attempts: int = 2, retry_on: Tuple[Type[BaseException], ...] = (Exception,)):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = attempts
        self.retry_on = retry_on

    def wrap(self, stage: Stage, run: StageRunner) -> StageRunner:
        def retried(context: StageContext) -> None:
            snapshot = (
                context.dvq,
                len(context.records),
                context.repair_rounds,
                context.executes,
                context.outcome,
                context.outcome_dvq,
            )
            for attempt in range(1, self.attempts + 1):
                try:
                    run(context)
                    return
                except self.retry_on:
                    if attempt == self.attempts:
                        raise
                    # roll back the aborted attempt's partial mutations
                    (
                        context.dvq,
                        kept,
                        context.repair_rounds,
                        context.executes,
                        context.outcome,
                        context.outcome_dvq,
                    ) = snapshot
                    del context.records[kept:]
                    context.meta[f"retry:{stage_name(stage)}"] = attempt

        return retried
