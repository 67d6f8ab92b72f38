#!/usr/bin/env python3
"""Check that the drift correction passes added work through.

Run from the repository root::

    python3 perfbench/calibrate.py --workload gred_rob --seed 1

The workload is set up once, then its op list runs once unmeasured and then
in rounds of three passes: without a pad, with a pure-Python pad and with a
NumPy pad (matrix products, which wake the OpenBLAS pool) inside every op's
timed window.  Each pad is sized to a quarter of the base pass's mean op
time, and every call of it is timed on its own inside the op.

If the correction passes work through, the corrected mean op time
(1 / ``ops_per_s``) and ``op_p50_ms`` grow by the pad's own corrected time,
and ``passed`` (growth / pad time) reads 1.  A correction that took what an
op leaves behind (a spinning BLAS pool, cold caches) for machine drift
would scale the rest of the op down and read below 1.  ``raw_passed`` is the
same ratio on uncorrected times, which machine drift between passes makes
far noisier.  One JSON line per pad.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import run

def python_pad(rounds: int) -> Callable[[], int]:
    """Interpreter-bound work: string formatting and dict updates."""

    def pad() -> int:
        counts: Dict[str, int] = {}
        for index in range(rounds):
            word = f"w{index % 97}"
            counts[word] = counts.get(word, 0) + index
        return len(counts)

    return pad


def numpy_pad(rounds: int) -> Callable[[], float]:
    """BLAS-bound work: ``rounds`` products of a 160x160 matrix."""
    import numpy as np

    matrix = np.random.default_rng(0).random((160, 160))

    def pad() -> float:
        total = 0.0
        for _ in range(rounds):
            total += float((matrix @ matrix)[0, 0])
        return total

    return pad


PADS = {"python": (python_pad, 100), "numpy": (numpy_pad, 1)}
#: Each pad's cost as a share of the base pass's mean op time.
SHARE = 0.25
#: Rounds of (no pad, Python pad, NumPy pad) passes.
ROUNDS = 2


def unit_cost_ms(pad: Callable[[], object], clock, samples: int = 200) -> float:
    """Median corrected ms of ``pad`` run alone, marked like an op."""
    first = clock.current_interval
    for _ in range(samples):
        pad()
        clock.mark()
    return statistics.median(clock.intervals[i] * 1000.0 * clock.factor(i)
                             for i in range(first, len(clock.intervals)))


def timed_pad(pad: Callable[[], object], clock, samples: List[Tuple[float, int]]) -> Callable[[], None]:
    """``pad``, recording its raw seconds and drift-clock interval on every call."""

    def run_pad() -> None:
        started = time.perf_counter()
        pad()
        samples.append((time.perf_counter() - started, clock.current_interval))

    return run_pad


def measured_pass(workload, ops, clock, pad=None) -> Dict[str, float]:
    """Mean op time (from the pass's intervals), p50 and the pad's own time, in ms."""
    samples: List[Tuple[float, int]] = []
    workload.reset()
    workload.pad = None if pad is None else timed_pad(pad, clock, samples)
    with run.frozen_gc(clock):
        results, op_pass = run.run_pass(workload, ops, clock)
    workload.pad = None
    pad_ms = [seconds * 1000.0 * clock.factor(interval) for seconds, interval in samples]
    raw_pad_ms = [seconds * 1000.0 for seconds, _ in samples]
    return {"mean_ms": op_pass["seconds"] * 1000.0 / len(ops),
            "raw_mean_ms": op_pass["raw_seconds"] * 1000.0 / len(ops),
            "p50_ms": statistics.median(r.seconds * 1000.0 * clock.factor(r.interval) for r in results),
            "raw_p50_ms": statistics.median(r.seconds * 1000.0 for r in results),
            "pad_mean_ms": statistics.fmean(pad_ms) if pad_ms else 0.0,
            "pad_p50_ms": statistics.median(pad_ms) if pad_ms else 0.0,
            "raw_pad_mean_ms": statistics.fmean(raw_pad_ms) if raw_pad_ms else 0.0,
            "raw_pad_p50_ms": statistics.median(raw_pad_ms) if raw_pad_ms else 0.0,
            "failed": sum(not result.ok for result in results)}


def mean_of(passes: List[Dict[str, float]], key: str) -> float:
    return statistics.fmean(p[key] for p in passes)


def calibrate(workload_cls, seed: int, clock, share: float = SHARE,
              rounds: int = ROUNDS) -> List[Dict[str, object]]:
    workload, ops, _ = run.set_up(workload_cls, seed, run.RUN_SECONDS, clock, 1)
    measured_pass(workload, ops, clock)  # lazy caches the set-up's one warm-up op missed
    base_mean = measured_pass(workload, ops, clock)["mean_ms"]
    pads = {}
    for name, (make, unit_rounds) in PADS.items():
        unit = unit_cost_ms(make(unit_rounds), clock)
        pads[name] = make(max(1, round(unit_rounds * share * base_mean / unit)))
    passes: Dict[str, List[Dict[str, float]]] = {"none": [], **{name: [] for name in pads}}
    for _ in range(rounds):
        for name in passes:
            passes[name].append(measured_pass(workload, ops, clock, pads.get(name)))
    base = passes["none"]
    mean, p50 = mean_of(base, "mean_ms"), mean_of(base, "p50_ms")
    lines = []
    for name in pads:
        padded = passes[name]
        pad_mean, pad_p50 = mean_of(padded, "pad_mean_ms"), mean_of(padded, "pad_p50_ms")
        lines.append({
            "workload": workload_cls.name, "seed": seed, "pad": name, "ops": len(ops),
            "rounds": rounds, "pad_ms": pad_mean, "share_of_mean": pad_mean / mean,
            "ops_per_s_change": mean / mean_of(padded, "mean_ms") - 1.0,
            "ops_per_s_expected_change": mean / (mean + pad_mean) - 1.0,
            "p50_change": mean_of(padded, "p50_ms") / p50 - 1.0,
            "p50_expected_change": pad_p50 / p50,
            "passed_mean": (mean_of(padded, "mean_ms") - mean) / pad_mean,
            "passed_p50": (mean_of(padded, "p50_ms") - p50) / pad_p50,
            "raw_passed_mean": (mean_of(padded, "raw_mean_ms") - mean_of(base, "raw_mean_ms"))
            / mean_of(padded, "raw_pad_mean_ms"),
            "raw_passed_p50": (mean_of(padded, "raw_p50_ms") - mean_of(base, "raw_p50_ms"))
            / mean_of(padded, "raw_pad_p50_ms"),
            "failed": sum(p["failed"] for p in padded + base),
        })
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(run.ROOT / "src")]
    from harness import DriftClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    clock = DriftClock()
    clock.start()
    for line in calibrate(WORKLOADS[args.workload], args.seed, clock):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
