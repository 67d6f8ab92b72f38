"""Tests of the benchmark's own code: op lists, percentiles, drift scaling, spans.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import time

import pytest

import calibrate
import run
from harness import NOMINAL_REF_MS, WINDOW, DriftClock, percentile
from tracer import Tracer, self_time_by_name, self_times
from workloads import (ChartRender, GredRob, Op, OpTimer, PaperTables, TimedModel,
                       variant_examples)

from repro.robustness.variants import VariantKind


def quiet_clock() -> DriftClock:
    """A drift clock whose reference loop costs nothing (tests only)."""
    clock = DriftClock(reference=lambda: None)
    clock.start()
    return clock


class TinyGredRob(GredRob):
    scale = 0.02


class TinyChartRender(ChartRender):
    scale = 0.02
    rows_per_table = 40
    passes = 2


class TinyPaperTables(PaperTables):
    scale = 0.02


def op_keys(workload_cls, seed):
    workload = workload_cls(seed)
    workload.setup(quiet_clock())
    return [op.key for op in workload.ops()]


@pytest.mark.parametrize("workload_cls", [TinyGredRob, TinyChartRender])
def test_same_seed_same_ops_and_other_seed_other_ops(workload_cls):
    first = op_keys(workload_cls, 3)
    assert first and first == op_keys(workload_cls, 3)
    assert first != op_keys(workload_cls, 4)


def test_sized_ops_cycles_one_pass_and_renumbers():
    one_pass = [Op(i, (str(i),)) for i in range(3)]
    doubled = run.sized_ops(one_pass, 2 * run.RUN_SECONDS)
    assert [op.key for op in doubled] == [(str(i % 3),) for i in range(6)]
    assert [op.index for op in doubled] == list(range(6))
    assert [op.key for op in run.sized_ops(one_pass, run.RUN_SECONDS / 3)] == [("0",)]


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)
    # on evenly spaced values the Harrell-Davis estimate is the interpolated quantile
    assert percentile(list(range(1, 1001)), 99) == pytest.approx(990.5, abs=1e-6)
    assert percentile(list(range(1, 101)), 50) == pytest.approx(50.5, abs=1e-6)


def test_percentile_blends_the_order_statistics_around_its_rank():
    values = [10.0] * 990 + [100.0] * 10 + [200.0] * 10
    assert 100.0 < percentile(values, 99) < 200.0


def fake_clock(refs_ms):
    """A drift clock on a fake timer whose timed reference loops take ``refs_ms``.

    Each timing's untimed warm-up run of the loop takes 100 ms, which must
    show neither in ``refs_ms`` nor in any interval.
    """
    now = [0.0]
    refs = iter([ms for timed in refs_ms for ms in (100.0, timed)])

    def reference():
        now[0] += next(refs) / 1000.0

    return DriftClock(timer=lambda: now[0], reference=reference), now


def test_drift_clock_scales_each_interval_by_the_references_around_it():
    assert WINDOW == 4
    clock, now = fake_clock([float(ms) for ms in range(1, 13)])
    clock.start()
    for seconds in range(1, 11):
        now[0] += seconds
        clock.mark()
    now[0] += 11
    last = clock.split()
    assert clock.intervals == pytest.approx(list(range(1, 12)))
    assert clock.refs_ms == pytest.approx(list(range(1, 13)))
    # interval i lies between references i and i + 1; its window is refs[i-4 : i+6]
    assert clock.factor(0) == pytest.approx(NOMINAL_REF_MS / 3.5)   # refs 1..6
    assert clock.factor(5) == pytest.approx(NOMINAL_REF_MS / 6.5)   # refs 2..11
    assert clock.factor(10) == pytest.approx(NOMINAL_REF_MS / 9.5)  # refs 7..12
    expected = sum((i + 1) * clock.factor(i) for i in range(11))
    assert last == pytest.approx(expected)
    assert clock.corrected_seconds(range(11)) == pytest.approx(expected)
    assert clock.raw_seconds(range(11)) == pytest.approx(66.0)


def test_drift_clock_split_returns_only_the_time_since_the_previous_split():
    clock, now = fake_clock([2.0] * 4)
    clock.start()
    now[0] += 1.0
    assert clock.split() == pytest.approx(NOMINAL_REF_MS / 2.0)
    now[0] += 3.0
    clock.mark()
    assert clock.current_interval == 2
    assert clock.split() == pytest.approx(3.0 * NOMINAL_REF_MS / 2.0)


def test_op_timer_times_the_pad_with_the_op_and_records_failures():
    clock = quiet_clock()
    timer = OpTimer(clock, pad=lambda: time.sleep(0.01))
    assert timer(Op(0, ()), lambda x: x + 1, 4) == 5
    with pytest.raises(ZeroDivisionError):
        timer(Op(1, ()), lambda: 1 / 0)
    first, second = timer.results
    assert first.ok and first.value == 5 and first.seconds >= 0.01
    assert not second.ok and second.error.startswith("ZeroDivisionError")
    assert (first.interval, second.interval) == (0, 1) and len(clock.intervals) == 2


def test_paper_tables_ops_are_the_predictions_of_workbench_evaluate():
    workload = TinyPaperTables(3)
    clock = quiet_clock()
    workload.setup(clock)
    ops = workload.ops()
    results = workload.execute(ops, clock)
    assert len(results) == len(ops) and all(result.ok for result in results)
    assert workload.check(ops, results)["problems"] == {"verdict_disagreements": 0, "gold_failures": 0}
    # the predictions and verdicts of the program's own evaluation, unwrapped
    workload.reset()
    bench, expected = workload.bench, []
    models = PaperTables._models(bench)
    examples = variant_examples(bench.suite)
    for op in ops:
        model_name, kind = op.key[:2]
        dataset = bench.suite.variant(VariantKind(kind)).with_examples([examples[op.key[1:3]]])
        record = bench.evaluate(models[model_name], dataset, model_name=model_name).records[0]
        expected.append((record.predicted, record.executes))
    assert [result.value for result in results] == expected


def test_timed_model_passes_attributes_through():
    class Model:
        repair_stats = "stats"

        def predict(self, nlq, database):
            return nlq + database

    timer = OpTimer(quiet_clock())
    model = TimedModel(Model(), [Op(7, ())], timer)
    assert model.predict("a", "b") == "ab" and model.repair_stats == "stats"
    assert timer.results[0].value == "ab"


def test_calibration_runs_every_pad_through_the_workload():
    lines = calibrate.calibrate(TinyChartRender, 1, quiet_clock(), rounds=1)
    assert [line["pad"] for line in lines] == ["python", "numpy"]
    for line in lines:
        assert line["failed"] == 0 and line["pad_ms"] > 0 and line["ops"] > 0


def test_self_time_subtracts_direct_children_only():
    now = [0.0]
    tracer = Tracer(timer=lambda: now[0])
    outer = tracer.begin("outer")        # 0 .. 10
    now[0] = 1.0
    middle = tracer.begin("middle")      # 1 .. 7
    now[0] = 2.0
    inner = tracer.begin("inner")        # 2 .. 5
    now[0] = 5.0
    tracer.end(inner)
    now[0] = 7.0
    tracer.end(middle)
    now[0] = 8.0
    sibling = tracer.begin("inner")      # 8 .. 9
    now[0] = 9.0
    tracer.end(sibling)
    now[0] = 10.0
    tracer.end(outer)
    assert self_times(tracer.spans) == [10 - 6 - 1, 6 - 3, 3, 1]
    assert self_time_by_name(tracer.spans, lambda interval: 2.0) == {
        "outer": 6.0, "middle": 6.0, "inner": 8.0}
    assert self_time_by_name(tracer.spans, lambda interval: 1.0, first=2) == {"inner": 4.0}


def test_tracer_uninstall_restores_inherited_and_own_methods():
    class Base:
        def hello(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    tracer = Tracer()
    tracer.wrap(Child, "hello", "hello")
    tracer.count(Child, "own", "own")
    assert Child().hello() == "base" and Child().own() == "own"
    assert tracer.counts == {"hello": 1, "own": 1}
    tracer.uninstall()
    assert "hello" not in vars(Child)
    assert Child.own.__name__ == "own" and Child().own() == "own"


def test_traced_run_matches_untraced_op_counts_and_outputs(tmp_path):
    clock = quiet_clock()
    outcome = run.traced_run(TinyGredRob, 5, 2.0, clock, tmp_path / "spans.jsonl")
    problems = outcome["checks"]["problems"]
    assert problems["traced_op_count_differs"] == 0
    assert problems["traced_output_differs"] == 0
    metrics = outcome["metrics"]
    assert len(outcome["results"]) == outcome["report"]["samples"]["ops"]
    assert metrics["llm.calls"]["value"] > 0
    assert metrics["executor.checks"]["value"] > 0
    assert metrics["models.seq2vis.predict_ms"]["value"] == 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    # every patch is undone
    from repro import GRED
    from repro.linking.linker import SchemaLinker

    assert GRED.trace.__qualname__ == "GRED.trace"
    assert SchemaLinker.score_phrase.__qualname__ == "SchemaLinker.score_phrase"
