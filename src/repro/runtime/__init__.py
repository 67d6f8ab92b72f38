"""repro.runtime: the batched, cached execution engine.

This package is the single throughput layer shared by ``GRED.predict_batch``,
the :class:`~repro.evaluation.evaluator.ModelEvaluator` and the benchmark
harness:

* :class:`LLMCache` — memoizes chat completions keyed on the full request,
  with hit/miss statistics per pipeline behaviour.
* :func:`run_batch` / :class:`BatchReport` — maps a callable over a dataset
  in one serial loop with failure isolation and per-item timing.
* :mod:`repro.runtime.timing` — aggregates the per-stage durations that
  ``GRED.trace`` records.
"""

from repro.runtime.cache import CacheStats, LLMCache, behaviour_of
from repro.runtime.runner import BatchFailure, BatchItemResult, BatchReport, run_batch
from repro.runtime.timing import StageStat, aggregate_stage_timings, format_stage_table

__all__ = [
    "BatchFailure",
    "BatchItemResult",
    "BatchReport",
    "CacheStats",
    "LLMCache",
    "StageStat",
    "aggregate_stage_timings",
    "behaviour_of",
    "format_stage_table",
    "run_batch",
]
