"""Runtime throughput — the LLM-cache effect on a repeated pass.

This benchmark measures the :mod:`repro.runtime` completion cache: the hit
rate and speed-up of an :class:`~repro.runtime.cache.LLMCache` when the same
test set is traced twice.  The warm pass answers every completion from
memory, so it must be faster than the cold pass with identical traces.
"""

from __future__ import annotations

import time

from repro.core import GRED, GREDConfig
from repro.nvbench.generator import build_corpus

EXAMPLE_COUNT = 16


def test_llm_cache_hit_rate_on_repeated_pass():
    dataset = build_corpus(scale=0.05, seed=11)
    cached = GRED(GREDConfig(top_k=5, use_llm_cache=True))
    cached.fit(dataset.train, dataset.catalog)
    examples = dataset.test[:EXAMPLE_COUNT]

    started = time.perf_counter()
    first = cached.predict_batch(examples, dataset.catalog)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    second = cached.predict_batch(examples, dataset.catalog)
    warm_seconds = time.perf_counter() - started

    stats = cached.llm_cache.stats
    print(f"\n{stats.summary()}")
    print(f"  cold pass: {cold_seconds:.2f}s, warm pass: {warm_seconds:.3f}s")

    assert first == second
    # every completion of the warm pass is served from the cache
    assert stats.hits >= len(examples) * 2
    assert warm_seconds < cold_seconds
