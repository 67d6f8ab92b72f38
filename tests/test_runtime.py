"""Tests for the batched, cached execution runtime (repro.runtime)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import GRED, GREDConfig
from repro.dvq.normalize import try_parse
from repro.embeddings.embedder import EmbedderConfig, TextEmbedder
from repro.embeddings.store import VectorStore
from repro.evaluation import ModelEvaluator
from repro.llm.interface import ChatMessage, ChatModel, CompletionParams
from repro.llm.simulated import SimulatedChatModel
from repro.runtime import (
    BatchFailure,
    LLMCache,
    aggregate_stage_timings,
    format_stage_table,
    run_batch,
)
from repro.runtime import runner as runner_module


class CountingChatModel(ChatModel):
    """Echoes the last user message; counts how often it is actually called."""

    def __init__(self):
        self.calls = 0
        self.marker = "counted"

    def complete(self, messages, params=None):
        self.calls += 1
        return f"echo:{messages[-1].content}"


class TestLLMCache:
    def test_miss_then_hit(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        first = cache.complete_text("sys", "hello")
        second = cache.complete_text("sys", "hello")
        assert first == second == "echo:hello"
        assert inner.calls == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_different_params_are_different_keys(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        cache.complete_text("sys", "hello", params=CompletionParams(temperature=0.0))
        cache.complete_text("sys", "hello", params=CompletionParams(temperature=0.7))
        assert inner.calls == 2
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_different_messages_are_different_keys(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        cache.complete([ChatMessage("user", "a")])
        cache.complete([ChatMessage("user", "b")])
        cache.complete([ChatMessage("system", "a")])
        assert inner.calls == 3

    def test_clear_drops_entries_but_keeps_stats(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        cache.complete_text("sys", "hello")
        cache.clear()
        cache.complete_text("sys", "hello")
        assert inner.calls == 2
        assert cache.stats.misses == 2

    def test_max_entries_evicts_fifo(self):
        inner = CountingChatModel()
        cache = LLMCache(inner, max_entries=2)
        cache.complete_text("sys", "one")
        cache.complete_text("sys", "two")
        cache.complete_text("sys", "three")  # evicts "one"
        assert len(cache) == 2
        cache.complete_text("sys", "one")  # miss again
        assert inner.calls == 4
        assert cache.stats.evictions >= 1

    def test_rejects_non_positive_max_entries(self):
        with pytest.raises(ValueError):
            LLMCache(CountingChatModel(), max_entries=0)
        with pytest.raises(ValueError):
            LLMCache(CountingChatModel(), max_entries=-3)

    def test_delegates_unknown_attributes_to_inner(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        assert cache.marker == "counted"
        simulated = LLMCache(SimulatedChatModel())
        assert len(simulated.log) == 0  # SimulatedChatModel.log reachable

    def test_behaviour_stats_group_simulated_prompts(self):
        cache = LLMCache(SimulatedChatModel())
        from repro.llm import markers

        cache.complete_text("sys", f"{markers.TASK_ANNOTATION} for this schema")
        cache.complete_text("sys", f"{markers.TASK_ANNOTATION} for this schema")
        assert cache.stats.by_behaviour["annotation"] == {"hits": 1, "misses": 1}

    def test_summary_mentions_hits_and_misses(self):
        cache = LLMCache(CountingChatModel())
        cache.complete_text("sys", "x")
        assert "misses" in cache.stats.summary()

    def test_thread_safety_under_concurrent_identical_requests(self):
        inner = CountingChatModel()
        cache = LLMCache(inner)
        errors = []

        def worker():
            try:
                for i in range(50):
                    assert cache.complete_text("sys", f"msg{i % 5}") == f"echo:msg{i % 5}"
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == 5
        assert cache.stats.requests == 8 * 50


class TestIncrementalVectorStore:
    @pytest.fixture()
    def embedder(self):
        return TextEmbedder(EmbedderConfig(dimensions=64))

    def test_add_many_accepts_generator(self, embedder):
        store = VectorStore(embedder)
        store.add_many((f"k{i}", f"text number {i}", i) for i in range(10))
        assert len(store) == 10
        assert store.pending == 10
        assert [hit.payload for hit in store.search("text number 3", top_k=1)] == [3]
        assert store.pending == 0

    def test_incremental_add_equals_full_rebuild(self, embedder):
        corpus = [f"sentence about topic {i} with words {i * 7}" for i in range(30)]
        incremental = VectorStore(embedder)
        incremental.add_many((f"k{i}", text, i) for i, text in enumerate(corpus[:15]))
        incremental.search("topic 3", top_k=5)  # index the first half
        for i, text in enumerate(corpus[15:], start=15):
            incremental.add(f"k{i}", text, i)
        fresh = VectorStore(embedder)
        fresh.add_many((f"k{i}", text, i) for i, text in enumerate(corpus))

        for query in ("topic 3", "words 91", "sentence about"):
            left = incremental.search(query, top_k=7)
            right = fresh.search(query, top_k=7)
            assert [hit.key for hit in left] == [hit.key for hit in right]
            assert np.allclose([hit.score for hit in left], [hit.score for hit in right])

    def test_incremental_matrix_grows_not_rebuilds(self, embedder):
        store = VectorStore(embedder)
        store.add("a", "alpha", 1)
        store.search("alpha", top_k=1)
        first_matrix, _, _ = store.index.snapshot()
        store.add("b", "beta", 2)
        store.search("beta", top_k=1)
        # the first row is reused, not re-embedded
        matrix, _, _ = store.index.snapshot()
        assert np.array_equal(matrix[0], first_matrix[0])
        assert matrix.shape[0] == 2

    def test_search_many_matches_individual_searches(self, embedder):
        store = VectorStore(embedder)
        store.add_many(
            (f"k{i}", f"document {i} about {'cats' if i % 2 else 'dogs'}", i)
            for i in range(20)
        )
        queries = ["document about cats", "document about dogs", "document 7"]
        batched = store.search_many(queries, top_k=4)
        serial = [store.search(query, top_k=4) for query in queries]
        assert len(batched) == len(serial) == 3
        for batched_hits, serial_hits in zip(batched, serial):
            assert [hit.key for hit in batched_hits] == [hit.key for hit in serial_hits]
            assert np.allclose(
                [hit.score for hit in batched_hits], [hit.score for hit in serial_hits]
            )

    def test_search_many_on_empty_inputs(self, embedder):
        store = VectorStore(embedder)
        assert store.search_many([], top_k=3) == []
        assert store.search_many(["query"], top_k=3) == [[]]
        store.add("a", "alpha", 1)
        assert store.search_many(["alpha"], top_k=0) == [[]]

    def test_flush_embeds_each_pending_entry_once(self, embedder):
        store = VectorStore(embedder)
        store.add_many((f"k{i}", f"entry {i}", i) for i in range(6))
        assert (len(store), store.pending, len(store.index)) == (6, 6, 0)
        store.flush()
        assert (len(store), store.pending, len(store.index)) == (6, 0, 6)
        store.flush()  # nothing pending: embeds nothing
        assert embedder.texts_embedded == 6


class _FrozenClock:
    """Stands in for the ``time`` module: the clock moves only when a test says."""

    def __init__(self):
        self.now = 100.0

    def perf_counter(self):
        return self.now


class TestRunBatch:
    def test_preserves_input_order(self):
        report = run_batch(iter(range(40)), lambda n: n * n)
        assert report.values() == [n * n for n in range(40)]
        assert [item.index for item in report.items] == list(range(40))
        assert all(item.seconds >= 0 for item in report.items)

    def test_failure_isolation(self):
        def flaky(n):
            if n % 5 == 0:
                raise ValueError(f"bad item {n}")
            return n

        report = run_batch(list(range(10)), flaky)
        assert report.failure_count == 2
        assert report.ok_count == 8
        assert [item.index for item in report.failures()] == [0, 5]
        assert "bad item 5" in report.failures()[1].error
        values = report.values(strict=False)
        assert values[0] is None and values[5] is None and values[3] == 3

    def test_strict_values_raise_on_failure(self):
        report = run_batch([1], lambda n: 1 / 0)
        with pytest.raises(BatchFailure, match="ZeroDivisionError"):
            report.values()

    def test_report_summary_and_throughput(self):
        report = run_batch([1, 2], lambda n: n)
        assert "2/2 ok" in report.summary()
        assert report.items_per_second > 0
        assert report.busy_seconds >= 0

    def test_runs_each_item_once_in_order_on_the_calling_thread(self):
        events, threads = [], set()

        def items():
            for n in range(5):
                events.append(("next", n))
                yield n

        def fn(n):
            events.append(("call", n))
            threads.add(threading.get_ident())
            if n == 2:
                raise KeyError(n)
            return n

        report = run_batch(items(), fn)
        # one item is drawn, then run, before the next is drawn; a failure
        # does not stop the loop
        assert events == [(kind, n) for n in range(5) for kind in ("next", "call")]
        assert threads == {threading.get_ident()}
        assert report.values(strict=False) == [0, 1, None, 3, 4]

    def test_items_are_timed_by_their_own_call(self, monkeypatch):
        clock = _FrozenClock()
        monkeypatch.setattr(runner_module, "time", clock)
        costs = {"a": 0.5, "b": 2.0, "c": 0.25}

        def work(key):
            clock.now += costs[key]
            if key == "b":
                raise ValueError("slow and broken")
            return key

        report = run_batch(list(costs), work)
        # a failed item is timed like any other
        assert [item.seconds for item in report.items] == [0.5, 2.0, 0.25]
        assert report.busy_seconds == report.wall_seconds == 2.75
        assert report.items_per_second == 3 / 2.75

    def test_throughput_is_zero_when_no_time_passes(self, monkeypatch):
        monkeypatch.setattr(runner_module, "time", _FrozenClock())
        report = run_batch([1, 2, 3], lambda n: n)
        assert report.wall_seconds == 0.0 and report.items_per_second == 0.0
        assert report.summary() == "3/3 ok in 0.00s (0.0 items/s)"

    def test_empty_input_gives_an_empty_report(self):
        report = run_batch([], lambda n: n)
        assert len(report) == 0 and report.values() == []
        assert (report.ok_count, report.failure_count) == (0, 0)
        assert report.summary().startswith("0/0 ok")

    def test_none_results_count_as_successes(self):
        report = run_batch([1, 2], lambda n: None)
        assert report.ok_count == 2 and report.failures() == []
        assert report.values() == [None, None]

    def test_error_records_the_exception_type_and_message(self):
        (item,) = run_batch(["x"], int).items
        assert not item.ok and item.value is None
        assert item.error == "ValueError: invalid literal for int() with base 10: 'x'"

    def test_strict_values_name_the_count_and_first_failure(self):
        report = run_batch([1, 0, 2, 0], lambda n: 10 // n)
        with pytest.raises(
            BatchFailure, match=r"^2/4 items failed; first failure at index 1: ZeroDivisionError"
        ):
            report.values()
        assert report.values(strict=False) == [10, None, 5, None]

    def test_interrupts_are_not_isolated(self):
        calls = []

        def fn(n):
            calls.append(n)
            if n == 1:
                raise KeyboardInterrupt
            return n

        with pytest.raises(KeyboardInterrupt):
            run_batch([0, 1, 2], fn)
        assert calls == [0, 1]


class TestStageTimings:
    def test_aggregation(self):
        stats = aggregate_stage_timings(
            [{"generate": 0.5, "retune": 0.1}, {"generate": 1.5}, {"debug": 0.2}]
        )
        assert stats["generate"].count == 2
        assert stats["generate"].total_seconds == pytest.approx(2.0)
        assert stats["generate"].mean_seconds == pytest.approx(1.0)
        assert stats["generate"].max_seconds == pytest.approx(1.5)
        assert stats["debug"].count == 1
        table = format_stage_table(stats)
        assert "generate" in table and "mean ms" in table


class TestBatchedPipeline:
    @pytest.fixture(scope="class")
    def prepared(self, small_dataset):
        model = GRED(GREDConfig(top_k=5)).fit(small_dataset.train, small_dataset.catalog)
        return model, small_dataset

    def test_batched_predict_matches_serial(self, prepared):
        """Regression: predict_batch is bit-identical to a loop over trace."""
        model, dataset = prepared
        examples = dataset.test[:12]
        serial = [model.trace(example.nlq, dataset.catalog.get(example.db_id)) for example in examples]
        batched = model.predict_batch(examples, dataset.catalog)
        assert batched == serial  # GREDTrace equality ignores timings

    def test_trace_records_stage_timings(self, prepared):
        model, dataset = prepared
        example = dataset.test[0]
        trace = model.trace(example.nlq, dataset.catalog.get(example.db_id))
        assert set(trace.timings) <= {"generate", "retune", "debug"}
        assert "generate" in trace.timings
        assert all(seconds >= 0 for seconds in trace.timings.values())

    def test_trace_batch_report_carries_failures(self, prepared):
        model, dataset = prepared
        import dataclasses

        examples = list(dataset.test[:4])
        examples[2] = dataclasses.replace(examples[2], db_id="no_such_database")
        report = model.trace_batch(examples, dataset.catalog)
        assert report.failure_count == 1
        assert report.failures()[0].index == 2
        assert "no_such_database" in report.failures()[0].error
        with pytest.raises(BatchFailure):
            model.predict_batch(examples, dataset.catalog)

    def test_cached_gred_produces_identical_traces(self, small_dataset):
        plain = GRED(GREDConfig(top_k=5)).fit(small_dataset.train, small_dataset.catalog)
        cached = GRED(GREDConfig(top_k=5, use_llm_cache=True)).fit(
            small_dataset.train, small_dataset.catalog
        )
        assert cached.llm_cache is not None and plain.llm_cache is None
        examples = small_dataset.test[:8]
        for example in examples:
            database = small_dataset.catalog.get(example.db_id)
            assert cached.trace(example.nlq, database) == plain.trace(example.nlq, database)
        # a second pass over the same examples is answered from the cache
        before = cached.llm_cache.stats.hits
        for example in examples:
            cached.predict(example.nlq, small_dataset.catalog.get(example.db_id))
        assert cached.llm_cache.stats.hits > before


class TestEvaluatorRuntime:
    class _FlakyModel:
        """Predicts the gold DVQ, except for one example where it raises."""

        def __init__(self, dataset, bad_nlq):
            self._targets = {example.nlq: example.dvq for example in dataset.examples}
            self._bad_nlq = bad_nlq

        def predict(self, nlq, database):
            if nlq == self._bad_nlq:
                raise RuntimeError("prediction backend crashed")
            return self._targets[nlq]

    def test_failed_prediction_is_isolated_and_scored_wrong(self, small_dataset):
        dataset = small_dataset.with_examples(small_dataset.test[:10])
        bad_nlq = dataset.examples[4].nlq
        evaluator = ModelEvaluator()
        with pytest.warns(UserWarning, match="scored as wrong"):
            run = evaluator.evaluate(self._FlakyModel(dataset, bad_nlq), dataset)
        assert len(run.records) == 10
        assert evaluator.last_report is not None
        assert evaluator.last_report.failure_count >= 1
        assert run.failure_count == evaluator.last_report.failure_count
        failed = [record for record in run.records if record.nlq == bad_nlq]
        assert failed and failed[0].predicted == ""
        assert not failed[0].overall_correct

    def test_clean_run_has_no_failures_and_no_warning(self, small_dataset):
        import warnings as warnings_module

        from repro.models import Seq2VisModel

        model = Seq2VisModel()
        model.fit(small_dataset.train, small_dataset.catalog)
        dataset = small_dataset.with_examples(small_dataset.test)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            run = ModelEvaluator(limit=10).evaluate(model, dataset)
        assert run.failure_count == 0

    def test_predicts_each_example_in_order_against_its_own_database(self, small_dataset):
        dataset = small_dataset.with_examples(small_dataset.test[:8])
        calls = []

        class RecordingModel:
            def predict(self, nlq, database):
                calls.append((nlq, database))
                return f"prediction {len(calls)}"

        evaluator = ModelEvaluator()
        run = evaluator.evaluate(RecordingModel(), dataset)
        assert [nlq for nlq, _ in calls] == [example.nlq for example in dataset.examples]
        assert all(
            database is dataset.catalog.get(example.db_id)
            for (_, database), example in zip(calls, dataset.examples)
        )
        assert [record.example_id for record in run.records] == [
            example.example_id for example in dataset.examples
        ]
        assert [record.predicted for record in run.records] == [
            f"prediction {n}" for n in range(1, 9)
        ]
        assert len(evaluator.last_report) == 8 and evaluator.last_report.ok_count == 8

    def test_none_prediction_is_scored_as_an_empty_one(self, small_dataset):
        dataset = small_dataset.with_examples(small_dataset.test[:3])

        class SilentModel:
            def predict(self, nlq, database):
                return None

        run = ModelEvaluator().evaluate(SilentModel(), dataset)
        assert run.failure_count == 0
        assert [record.predicted for record in run.records] == ["", "", ""]
        assert run.result.overall_correct == 0

    def test_limit_zero_evaluates_no_example(self, small_dataset):
        dataset = small_dataset.with_examples(small_dataset.test[:6])
        model = self._FlakyModel(dataset, bad_nlq=None)
        assert ModelEvaluator(limit=0).evaluate(model, dataset).records == []
        assert len(ModelEvaluator(limit=2).evaluate(model, dataset).records) == 2
        assert len(ModelEvaluator(limit=None).evaluate(model, dataset).records) == 6

    def test_result_sums_record_flags_without_parsing(self, small_dataset, monkeypatch):
        """``EvaluationRun.result`` equals ``evaluate_predictions`` over the
        run's ``(predicted, target)`` pairs, and reading it parses nothing."""
        from repro.dvq import normalize as normalize_module
        from repro.evaluation import compare_queries, evaluate_predictions

        examples = list({example.nlq: example for example in small_dataset.test}.values())[:4]
        targets = [example.dvq for example in examples]
        wrong = next(
            example.dvq for example in small_dataset.test
            if not compare_queries(example.dvq, targets[1]).overall
        )
        crash = RuntimeError("prediction backend crashed")
        predictions = [targets[0], wrong, "Visualize BAR SELECT", crash]
        scripted = dict(zip((example.nlq for example in examples), predictions))

        class ScriptedModel:
            def predict(self, nlq, database):
                if scripted[nlq] is crash:
                    raise crash
                return scripted[nlq]

        dataset = small_dataset.with_examples(examples)
        with pytest.warns(UserWarning, match="scored as wrong"):
            run = ModelEvaluator().evaluate(ScriptedModel(), dataset)
        correct, parseable, unparseable, raised = run.records
        assert correct.overall_correct
        assert try_parse(parseable.predicted) is not None and not parseable.overall_correct
        assert try_parse(unparseable.predicted) is None
        assert raised.predicted == ""
        expected = evaluate_predictions(
            (record.predicted, record.target) for record in run.records
        )

        parses = []
        real_parse = normalize_module.parse_dvq
        monkeypatch.setattr(
            normalize_module, "parse_dvq", lambda text: parses.append(text) or real_parse(text)
        )
        assert run.result == expected
        assert parses == []
