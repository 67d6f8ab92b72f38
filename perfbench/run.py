#!/usr/bin/env python3
"""Drift-corrected end-to-end benchmark of the nvBench-Rob / GRED reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload gred_rob --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop over a fixed op list made from
``--seed`` (see ``workloads.py``).  Set-up runs ``SETUP_REPEATS`` times and
``setup_s`` is the median; ops run once, then outputs are checked outside
the timed window.  Every timing is corrected for machine-speed drift
(``harness.DriftClock``).  ``--trace 1`` runs the ops twice, untraced and
then traced, and reports per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A report with the environment stamp, raw
timings and every ``ref_ms`` sample goes to ``.bench_runs/``, and the traced
run's spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_runs"
#: The run length, in seconds, each workload's op list is sized for (the
#: ``run_seconds`` of BENCHMARK.json).  ``--seconds`` scales the list from it.
RUN_SECONDS = 20
SETUP_REPEATS = 3


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sized_ops(one_pass: List, seconds: float) -> List:
    """The op list for a run of ``seconds``: one pass cycled or cut to size."""
    from workloads import Op

    count = max(1, round(len(one_pass) * seconds / RUN_SECONDS))
    return [Op(index, one_pass[index % len(one_pass)].key) for index in range(count)]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_pass(workload, ops, clock, tracer=None):
    """Execute ``ops`` once; corrected and raw seconds plus CPU use of the pass."""
    first = clock.current_interval
    cpu_before, wall_before = os.times(), time.perf_counter()
    results = workload.execute(ops, clock, tracer)
    clock.split()
    cpu_after, wall_after = os.times(), time.perf_counter()
    intervals = range(first, len(clock.intervals))
    cpu = (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system)
    return results, {
        "seconds": clock.corrected_seconds(intervals),
        "raw_seconds": clock.raw_seconds(intervals),
        "cpu_per_wall": cpu / (wall_after - wall_before),
    }


def latency_summary(results, clock) -> Dict[str, object]:
    from harness import percentile

    raw = [result.seconds * 1000.0 for result in results]
    corrected = [ms * clock.factor(result.interval) for ms, result in zip(raw, results)]
    return {
        "p50_ms": statistics.median(corrected),
        "p99_ms": percentile(corrected, 99),
        "raw_p50_ms": statistics.median(raw),
        "raw_p99_ms": percentile(raw, 99),
    }


@contextlib.contextmanager
def frozen_gc(clock):
    """Keep set-up's objects out of the collector's way while ops run."""
    gc.freeze()
    clock.split()  # freezing is not op time
    try:
        yield
    finally:
        gc.unfreeze()


def set_up(workload_cls, seed: int, seconds: float, clock, repeats: int):
    """Set the workload up ``repeats`` times; keep the last, time them all."""
    setups: List[Dict[str, object]] = []
    workload = None
    for _ in range(repeats):
        workload = None
        gc.collect()
        clock.split()  # releasing the previous set-up is not set-up work
        first = clock.current_interval
        workload = workload_cls(seed)
        phases = workload.setup(clock)
        ops = sized_ops(workload.ops(), seconds)
        gc.collect()
        phases["gc_s"] = clock.split()
        intervals = range(first, len(clock.intervals))
        setups.append({"seconds": clock.corrected_seconds(intervals),
                       "raw_seconds": clock.raw_seconds(intervals), "phases": phases})
    return workload, ops, setups


def untraced_run(workload_cls, seed: int, seconds: float, clock) -> Dict[str, object]:
    workload, ops, setups = set_up(workload_cls, seed, seconds, clock, SETUP_REPEATS)
    with frozen_gc(clock):
        results, op_pass = run_pass(workload, ops, clock)
    # before the checks, whose reference engines and rows are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.check(ops, results)
    latency = latency_summary(results, clock)
    ok = sum(result.ok for result in results)
    metrics = {
        "ops_per_s": metric(len(ops) / op_pass["seconds"], "1/s"),
        "op_p50_ms": metric(latency["p50_ms"], "ms"),
        "op_p99_ms": metric(latency["p99_ms"], "ms"),
        "setup_s": metric(statistics.median(setup["seconds"] for setup in setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "success_ratio": metric(ok / len(results), "ratio"),
        "exact_match": metric(checks["exact_match"], "ratio"),
        "execution_rate": metric(checks["execution_rate"], "ratio"),
        "result_match": metric(checks["result_match"], "ratio"),
    }
    report = {
        "raw": {
            "ops_per_s": len(ops) / op_pass["raw_seconds"],
            "op_p50_ms": latency["raw_p50_ms"],
            "op_p99_ms": latency["raw_p99_ms"],
            "setup_s": statistics.median(setup["raw_seconds"] for setup in setups),
        },
        "samples": dict(dict.fromkeys(metrics, len(results)), setup_s=len(setups), peak_rss_mb=1),
        "setups": setups,
        "cpu_per_wall": op_pass["cpu_per_wall"],
        # every op's raw latency and drift-clock interval, and every interval's
        # raw length: with ``ref_ms`` they give back each corrected number
        "op_raw_ms": [result.seconds * 1000.0 for result in results],
        "op_interval": [result.interval for result in results],
        "interval_raw_ms": [seconds * 1000.0 for seconds in clock.intervals],
    }
    return {"metrics": metrics, "results": results, "checks": checks, "report": report}


def traced_run(workload_cls, seed: int, seconds: float, clock, spans_path: Path) -> Dict[str, object]:
    """Set up once (counting lazy set-up work), run the ops untraced, then traced."""
    from tracer import Tracer, self_time_by_name
    from workloads import FAILURE_CATEGORIES, LLM_BEHAVIOURS, PIPELINE_STAGES, instrument, instrument_setup

    tracer = Tracer(interval_of=lambda: clock.current_interval)
    instrument_setup(tracer)
    try:
        workload, ops, setups = set_up(workload_cls, seed, seconds, clock, 1)
    finally:
        tracer.uninstall()
    setup_spans, setup_counts = len(tracer.spans), dict(tracer.counts)
    with frozen_gc(clock):
        untraced, untraced_pass = run_pass(workload, ops, clock)
        workload.reset()
        repair_before = _repair_counts(workload)
        cache_before = _cache_counts(workload)
        tracer.counts.clear()
        stage_samples = instrument(tracer)
        try:
            traced, traced_pass = run_pass(workload, ops, clock, tracer)
        finally:
            tracer.uninstall()
    repair_after = _repair_counts(workload)
    cache_after = _cache_counts(workload)
    checks = workload.check(ops, traced)
    n = len(ops)

    setup_time = self_time_by_name(tracer.spans, clock.factor, stop=setup_spans)
    op_time = self_time_by_name(tracer.spans, clock.factor, first=setup_spans)

    def ms_per_op(name: str) -> float:
        return op_time.get(name, 0.0) * 1000.0 / n

    phases = setups[0]["phases"]
    counts = tracer.counts
    per_layer = {
        "nvbench.corpus_s": metric(phases.get("nvbench.corpus_s", 0.0), "s"),
        "robustness.suite_s": metric(phases.get("robustness.suite_s", 0.0), "s"),
        "core.fit_s": metric(phases.get("core.fit_s", 0.0), "s"),
        "embeddings.library_embed_s": metric(phases.get("embeddings.library_embed_s", 0.0), "s"),
        "core.annotate_calls": metric(setup_counts.get("core.annotate_calls", 0), "count"),
        "models.fit_s": metric(phases.get("models.fit_s", 0.0), "s"),
        "database.populate_s": metric(phases.get("database.populate_s", 0.0), "s"),
        "database.store_builds": metric(setup_counts.get("database.store_builds", 0), "count"),
        "database.store_build_s": metric(setup_time.get("database.store_builds", 0.0), "s"),
    }
    stage_ms = dict.fromkeys(PIPELINE_STAGES, 0.0)
    for stage, raw_seconds, interval in stage_samples:
        stage_ms[stage] = stage_ms.get(stage, 0.0) + raw_seconds * 1000.0 * clock.factor(interval)
    for stage in PIPELINE_STAGES:
        per_layer[f"pipeline.{stage}_ms"] = metric(stage_ms[stage] / n, "ms/op")
    per_layer["llm.calls"] = metric(counts["llm.calls"], "count")
    for behaviour in LLM_BEHAVIOURS:
        per_layer[f"llm.{behaviour}_ms"] = metric(ms_per_op(f"llm.{behaviour}"), "ms/op")
    for name in ("nlu.compose", "index.search", "embeddings.embed", "linking.question_links",
                 "linking.map_foreign_column", "plan.plan", "executor.run", "executor.normalize",
                 "vegalite.compile", "vegalite.data_values", "evaluation.compare",
                 "models.seq2vis.predict", "models.transformer.predict", "models.rgvisnet.predict"):
        per_layer[f"{name}_ms"] = metric(ms_per_op(name), "ms/op")
    per_layer["embeddings.texts_embedded"] = metric(counts["embeddings.embed"], "count")
    for name in ("linking.score_phrase_calls", "robustness.related_words_calls", "executor.checks"):
        per_layer[name] = metric(counts[name], "count")
    for category in FAILURE_CATEGORIES:
        name = f"executor.failed_checks.{category}"
        per_layer[name] = metric(counts[name], "count")
    attempted = repair_after[0] - repair_before[0]
    rescued = repair_after[1] - repair_before[1]
    per_layer["core.repair_attempted"] = metric(attempted, "count")
    per_layer["core.repair_rescued"] = metric(rescued, "count")
    per_layer["core.repair_rescue_ratio"] = metric(rescued / attempted if attempted else 0.0, "ratio")
    hits = cache_after[0] - cache_before[0]
    misses = cache_after[1] - cache_before[1]
    per_layer["runtime.llm_cache_hits"] = metric(hits, "count")
    per_layer["runtime.llm_cache_misses"] = metric(misses, "count")
    per_layer["runtime.llm_cache_hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    per_layer["process.cpu_per_wall"] = metric(untraced_pass["cpu_per_wall"], "ratio")
    exec_layers = sum(op_time.get(name, 0.0) for name in (
        "plan.plan", "executor.run", "executor.normalize", "vegalite.compile", "vegalite.data_values"))
    untraced_rate = n / untraced_pass["seconds"]
    traced_rate = n / traced_pass["seconds"]
    per_layer["trace.op_ms"] = metric(traced_pass["seconds"] * 1000.0 / n, "ms/op")
    per_layer["trace.exec_share"] = metric(exec_layers / traced_pass["seconds"], "ratio")
    per_layer["trace.ops_per_s_untraced"] = metric(untraced_rate, "1/s")
    per_layer["trace.ops_per_s_traced"] = metric(traced_rate, "1/s")
    per_layer["trace.overhead"] = metric(untraced_rate / traced_rate - 1.0, "ratio")

    same_outputs = [r.value for r in untraced] == [r.value for r in traced]
    checks["problems"]["traced_output_differs"] = int(not same_outputs)
    checks["problems"]["traced_op_count_differs"] = int(len(untraced) != len(traced))
    tracer.write(spans_path)
    report = {
        "raw": {"ops_per_s_untraced": n / untraced_pass["raw_seconds"],
                "ops_per_s_traced": n / traced_pass["raw_seconds"]},
        "samples": {"ops": n, "spans": len(tracer.spans), "setup": 1},
        "setup_counts": setup_counts,
        "op_counts": dict(counts),
        "setups": setups,
        "op_time_by_layer_s": op_time,
        "spans_file": spans_path.name,
    }
    return {"metrics": per_layer, "results": traced, "checks": checks, "report": report}


def _repair_counts(workload):
    stats = workload.repair_stats()
    return (stats.attempted, stats.repaired) if stats is not None else (0, 0)


def _cache_counts(workload):
    cache = workload.llm_cache()
    return (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: the program's source ({source.relative_to(ROOT)}) is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from harness import DriftClock, environment_stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    stamp = environment_stamp(ROOT, args.workload, args.seed, bool(args.trace))
    stamp["seconds"] = args.seconds
    print("stamp " + json.dumps(stamp), flush=True)
    clock = DriftClock()
    clock.start()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = traced_run(WORKLOADS[args.workload], args.seed, args.seconds, clock,
                             OUT_DIR / f"{name}-spans.jsonl")
    else:
        outcome = untraced_run(WORKLOADS[args.workload], args.seed, args.seconds, clock)
    results = outcome["results"]
    problems = outcome["checks"]["problems"]
    correct = not any(problems.values())
    failed = sum(not result.ok for result in results)
    report = dict(outcome["report"], stamp=stamp, checks=outcome["checks"], correct=correct,
                  failed=failed, errors=sorted({r.error for r in results if not r.ok})[:10],
                  ref_ms=clock.refs_ms, metrics=outcome["metrics"])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(report, indent=1))
    summary = {key: report[key] for key in ("raw", "samples", "checks")}
    summary["ref_ms"] = {"count": len(clock.refs_ms), "min": min(clock.refs_ms),
                         "max": max(clock.refs_ms)}
    print("report " + json.dumps(summary), flush=True)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
