"""Benchmark guard for the stage-plan machinery and the repair loop.

Two promises are enforced here:

* the declarative :class:`~repro.pipeline.plan.StagePlan` (contexts, records,
  middleware closures) adds **< 10% wall-clock overhead** over the historical
  direct three-call loop it replaced;
* the execution-guided repair loop buys a **strictly higher execution rate**
  on the seeded workbench corpus than the same pipeline with the loop
  disabled.
"""

from __future__ import annotations

from repro.core import GRED, GREDConfig
from repro.robustness.variants import VariantKind
from repro.runtime.timing import Stopwatch

#: Examples per round, rounds per measurement, and the overhead budget.
N_EXAMPLES = 60
ROUNDS = 5
OVERHEAD_BUDGET = 0.10


def _direct_three_call_loop(model: GRED, pairs) -> None:
    """The pre-refactor pipeline body: generate/retune/debug called by hand."""
    for nlq, database in pairs:
        dvq_gen = model.generator.generate(nlq, database)
        dvq_rtn = model.retuner.retune(dvq_gen) if dvq_gen else dvq_gen
        if dvq_rtn:
            model.debugger.debug(dvq_rtn, database)


def _plan_loop(model: GRED, pairs) -> None:
    for nlq, database in pairs:
        model.trace(nlq, database)


def _paired_totals(model: GRED, pairs):
    """Total seconds of the direct and the planned path, example by example.

    Every example runs on both paths back to back, and which path goes first
    alternates between examples and between rounds.  Both paths thus see the
    same machine speed, however it drifts on a shared box.  The statistic is
    the total time, not a minimum, so garbage collection and other
    intermittent costs stay in the reading.
    """
    totals = {_direct_three_call_loop: 0.0, _plan_loop: 0.0}
    for round_index in range(ROUNDS):
        for index, pair in enumerate(pairs):
            order = [_direct_three_call_loop, _plan_loop]
            if (index + round_index) % 2:
                order.reverse()
            for loop in order:
                with Stopwatch() as watch:
                    loop(model, [pair])
                totals[loop] += watch.seconds
    return totals[_direct_three_call_loop], totals[_plan_loop]


def test_stage_plan_overhead_is_below_ten_percent(workbench):
    dataset = workbench.dataset
    model = GRED(GREDConfig(top_k=10, use_llm_cache=False)).fit(
        dataset.train, dataset.catalog
    )
    pairs = [
        (example.nlq, dataset.catalog.get(example.db_id))
        for example in dataset.test[:N_EXAMPLES]
    ]
    # one warm-up pass so database annotations are cached for both paths
    _plan_loop(model, pairs)
    direct, planned = _paired_totals(model, pairs)
    overhead = planned / direct - 1.0
    print(
        f"\nstage-plan overhead: direct {direct * 1e3:.1f} ms, "
        f"plan {planned * 1e3:.1f} ms over {ROUNDS} x {len(pairs)} traces "
        f"({overhead:+.1%}, budget {OVERHEAD_BUDGET:.0%})"
    )
    assert planned <= direct * (1.0 + OVERHEAD_BUDGET), (
        f"stage-plan machinery added {overhead:.1%} overhead "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_repair_loop_execution_rate_uplift(workbench):
    """Records the headline number: executability bought by repair rounds."""
    report = workbench.repair_uplift(kind=VariantKind.BOTH, max_repair_rounds=2)
    without = report["execution_rate_without_repair"]
    with_repair = report["execution_rate_with_repair"]
    print(
        f"\nexecution rate on {report['variant']}: {without:.3f} without repair, "
        f"{with_repair:.3f} with repair (uplift {report['uplift']:+.3f}); "
        f"{report['repair_summary']}"
    )
    assert without is not None and with_repair is not None
    assert with_repair > without, "repair loop must strictly raise the execution rate"
    assert report["repair_summary"].repaired >= 1
