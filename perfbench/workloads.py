"""The three workloads: inputs from a seed, set-up phases, the op loop, checks.

Each workload runs serially in one process (one client, closed loop) over
a fixed op list generated from ``--seed``.  Every run uses the corpus of
``CORPUS_SEED`` (the reproduction's default), and the seed shuffles the op
order: with corpora drawn per seed, which few slow questions a run happened
to contain moved p99 by 4x and accuracy by 20% between seeds, so no bound
could tell a regression from a different corpus.

* ``gred_rob`` — one op is one GRED trace (repair loop and execution check
  on, LLM cache off) over all four nvBench-Rob test sets.  LLM simulation,
  linking and retrieval do most of the work; execution is a small share.
* ``paper_tables`` — one op is one prediction of the Workbench regeneration
  of Tables 1-3 (Seq2Vis, Transformer, RGVisNet, GRED over the four sets,
  LLM cache on, columnar execution checks).  The only workload where
  ``models``, ``evaluation`` and the cache-hit path run.
* ``chart_render`` — one op renders one gold chart with ``ChartRenderer`` on
  the columnar engine over 10k-row tables.  Plan, executor, normalisation
  and Vega-Lite compilation do most of the work.

Set-up (corpus, suite, fitting, library embedding, annotation, per-table
stores and statistics, one warm-up op) happens before the first timed op, so
none of that lazy work lands in op latencies.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import DriftClock
from tracer import Span, Tracer

from repro import GRED, GREDConfig, Workbench, WorkbenchConfig, evaluate_predictions
from repro.core.annotator import DatabaseAnnotator
from repro.database.catalog import Catalog
from repro.database.datagen import DataGenerator
from repro.database.table import Table
from repro.dvq.normalize import try_parse
from repro.dvq.serializer import serialize_dvq
from repro.embeddings.embedder import TextEmbedder
from repro.executor.backend import InterpreterBackend, resolve_backend
from repro.executor.columnar import ColumnarBackend, ColumnarEngine
from repro.executor.errors import ExecutionError
from repro.executor.executor import ExecutionResult
from repro.index.exact import ExactIndex
from repro.index.partitioned import PartitionedIndex
from repro.linking.linker import SchemaLinker
from repro.llm.simulated import SimulatedChatModel
from repro.models.rgvisnet import RGVisNetModel
from repro.models.seq2vis import Seq2VisModel
from repro.models.transformer_model import TransformerModel
from repro.nlu.composer import QueryComposer
from repro.nvbench.generator import CorpusConfig, NVBenchGenerator
from repro.robustness.synonyms import SynonymLexicon
from repro.robustness.variants import RobustnessSuiteBuilder, VariantKind
from repro.sql.backend import SQLiteBackend
from repro.vegalite.renderer import ChartRenderer

#: Seed of the corpus every run measures (``CorpusConfig``'s default).
CORPUS_SEED = 7
#: Failure categories of ``ExecutionOutcome`` reported per traced run.
FAILURE_CATEGORIES = ("parse_error", "missing_table", "missing_column", "unsupported", "engine_error")
PIPELINE_STAGES = ("generate", "retune", "debug", "repair", "verify")
LLM_BEHAVIOURS = ("generation", "retune", "debug", "repair")


@dataclass(frozen=True)
class Op:
    index: int
    key: Tuple[str, ...]


@dataclass
class OpResult:
    seconds: float
    interval: int
    ok: bool
    value: object = None
    error: Optional[str] = None


class OpTimer:
    """Times ops in a closed loop with one client; keeps one :class:`OpResult` each.

    An op's latency covers the call alone (and ``pad``, when set); the drift
    clock's mark after it closes the op's interval.
    """

    def __init__(self, clock: DriftClock, tracer: Optional[Tracer] = None,
                 pad: Optional[Callable[[], object]] = None):
        self.clock, self.tracer, self.pad = clock, tracer, pad
        self.results: List[OpResult] = []

    def __call__(self, op: Op, fn: Callable, *args):
        """Run ``fn(*args)`` as ``op``, record it and pass its value or error on."""
        if self.tracer is not None:
            self.tracer.op = op.index
        interval = self.clock.current_interval
        started = time.perf_counter()
        try:
            value = fn(*args)
            if self.pad is not None:
                self.pad()
        except Exception as error:
            self.results.append(OpResult(time.perf_counter() - started, interval, False,
                                         error=f"{type(error).__name__}: {error}"))
            raise
        else:
            self.results.append(OpResult(time.perf_counter() - started, interval, True, value))
            return value
        finally:
            self.clock.mark()


def run_serial(ops: Sequence[Op], fn: Callable[[Op], object], timer: OpTimer) -> List[OpResult]:
    """Each op starts when the previous one returned; one that raises is counted, not fatal."""
    for op in ops:
        with contextlib.suppress(Exception):
            timer(op, fn, op)
    return timer.results


def warm_stores(catalog: Catalog, clock: DriftClock) -> float:
    """Build every table's column store, typed store and statistics now."""
    for database in catalog:
        for table in database.tables():
            table.typed_store()
            table.statistics()
            clock.mark()
    return clock.split()


def warm_gred(gred: GRED, catalog: Catalog, clock: DriftClock) -> Dict[str, float]:
    """Embed the retrieval libraries and annotate every database up front."""
    phases = {}
    for store in (gred.retriever.nlq_store, gred.retriever.dvq_store):
        store.flush()
        clock.mark()
    phases["embeddings.library_embed_s"] = clock.split()
    gred.annotator.annotate_catalog(catalog)
    phases["core.annotate_s"] = clock.split()
    return phases


def rows_of(backend, dvq: str, database) -> Optional[list]:
    """Normalised rows of ``dvq`` on ``backend``, or None when it does not execute."""
    query = try_parse(dvq)
    if query is None:
        return None
    try:
        return backend.execute(query, database).rows
    except ExecutionError:
        return None


def prediction_checks(triples: Sequence[Tuple[str, str, object, Optional[bool]]]) -> Dict[str, object]:
    """Accuracy and consistency of ``(predicted, gold, database, executes)`` triples.

    ``result_match`` runs the prediction and the gold DVQ on the interpreter
    (an engine independent of the columnar one the program checks with) and
    compares normalised rows.  Every ``executes`` verdict the program
    reported must agree with the interpreter.
    """
    interpreter = InterpreterBackend()
    gold_rows: Dict[Tuple[str, int], Optional[list]] = {}
    matches = executes = disagreements = 0
    for predicted, gold, database, verdict in triples:
        key = (gold, id(database))
        if key not in gold_rows:
            gold_rows[key] = rows_of(interpreter, gold, database)
        rows = rows_of(interpreter, predicted, database)
        executes += verdict is True
        disagreements += verdict is not None and verdict != (rows is not None)
        matches += rows is not None and rows == gold_rows[key]
    total = len(triples)
    return {
        "exact_match": evaluate_predictions((p, g) for p, g, _, _ in triples).overall_accuracy,
        "execution_rate": executes / total,
        "result_match": matches / total,
        "problems": {
            "verdict_disagreements": disagreements,
            "gold_failures": sum(rows is None for rows in gold_rows.values()),
        },
    }


class Workload:
    """Shared shape: ``setup`` -> ``ops`` -> ``execute`` (-> ``reset``) -> ``check``.

    ``ops`` lists one pass over the workload's inputs; ``execute`` and
    ``check`` work from each op's ``key`` alone, so any prefix or repetition
    of that list is a valid op list too.
    """

    name = ""
    scale = 1.0
    #: Extra work run inside every op's timed window; ``calibrate.py`` sets it.
    pad: Optional[Callable[[], object]] = None

    def __init__(self, seed: int):
        self.seed = seed

    def corpus(self):
        return NVBenchGenerator(CorpusConfig(scale=self.scale, seed=CORPUS_SEED)).generate()

    def shuffled(self, keys: List[Tuple[str, ...]]) -> List[Op]:
        random.Random(self.seed).shuffle(keys)
        return [Op(index, key) for index, key in enumerate(keys)]

    def setup(self, clock: DriftClock) -> Dict[str, float]:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def execute(self, ops: Sequence[Op], clock: DriftClock,
                tracer: Optional[Tracer] = None) -> List[OpResult]:
        raise NotImplementedError

    def reset(self) -> None:
        """Return mutable program state to where set-up left it."""

    def check(self, ops: Sequence[Op], results: Sequence[OpResult]) -> Dict[str, object]:
        raise NotImplementedError

    def repair_stats(self):
        return None

    def llm_cache(self):
        return None


def variant_examples(suite) -> Dict[Tuple[str, str], object]:
    """``(variant name, example id) -> example`` over the four test sets."""
    return {(kind.value, example.example_id): example
            for kind in VariantKind for example in suite.variant(kind).examples}


class GredRob(Workload):
    name = "gred_rob"
    scale = 0.25
    config = GREDConfig(verify_execution=True, max_repair_rounds=2)

    def setup(self, clock: DriftClock) -> Dict[str, float]:
        phases = {}
        dataset = self.corpus()
        phases["nvbench.corpus_s"] = clock.split()
        suite = RobustnessSuiteBuilder().build(dataset)
        phases["robustness.suite_s"] = clock.split()
        gred = GRED(self.config).fit(dataset.train, dataset.catalog)
        phases["core.fit_s"] = clock.split()
        phases.update(warm_gred(gred, suite.catalog, clock))
        phases["database.stores_s"] = warm_stores(suite.catalog, clock)
        warm = dataset.train[0]
        gred.trace(warm.nlq, dataset.catalog.get(warm.db_id))
        phases["warmup_s"] = clock.split()
        self.suite, self.gred = suite, gred
        return phases

    def ops(self) -> List[Op]:
        return self.shuffled([(kind, example_id, example.db_id, example.nlq)
                              for (kind, example_id), example in variant_examples(self.suite).items()])

    def execute(self, ops, clock, tracer=None):
        catalog = self.suite.catalog

        def trace(op: Op):
            result = self.gred.trace(op.key[3], catalog.get(op.key[2]))
            return result.final, result.executes

        return run_serial(ops, trace, OpTimer(clock, tracer, self.pad))

    def check(self, ops, results):
        catalog = self.suite.catalog
        examples = variant_examples(self.suite)
        return prediction_checks([
            (result.value[0] if result.ok else "", examples[op.key[:2]].dvq,
             catalog.get(op.key[2]), result.value[1] if result.ok else None)
            for op, result in zip(ops, results)
        ])

    def repair_stats(self):
        return self.gred.repair_stats


class TimedModel:
    """``model`` whose ``predict`` calls run as the next of ``ops`` on ``timer``."""

    def __init__(self, model, ops: Sequence[Op], timer: OpTimer):
        self._model, self._ops, self._timer = model, iter(ops), timer

    def predict(self, nlq, database):
        return self._timer(next(self._ops), self._model.predict, nlq, database)

    def __getattr__(self, name):
        return getattr(self._model, name)


class PaperTables(Workload):
    name = "paper_tables"
    scale = 0.06
    models = ("Seq2Vis", "Transformer", "RGVisNet", "GRED")

    def setup(self, clock: DriftClock) -> Dict[str, float]:
        phases = {}
        bench = Workbench(WorkbenchConfig(scale=self.scale, seed=CORPUS_SEED,
                                          execution_backend="columnar", llm_cache=True))
        dataset = bench.dataset
        phases["nvbench.corpus_s"] = clock.split()
        suite = bench.suite
        phases["robustness.suite_s"] = clock.split()
        bench.baselines()
        phases["models.fit_s"] = clock.split()
        gred = bench.gred()
        phases["core.fit_s"] = clock.split()
        phases.update(warm_gred(gred, suite.catalog, clock))
        phases["database.stores_s"] = warm_stores(suite.catalog, clock)
        warm = dataset.train[0]
        database = dataset.catalog.get(warm.db_id)
        for model in self._models(bench).values():
            model.predict(warm.nlq, database)
        gred.llm_cache.clear()  # keep the warm-up's completions out of the measured hit rate
        phases["warmup_s"] = clock.split()
        self.bench = bench
        return phases

    @staticmethod
    def _models(bench: Workbench):
        models = dict(bench.baselines())
        models["GRED"] = bench.gred()
        return models

    def ops(self) -> List[Op]:
        """Runs of ops share a model and test set (one ``evaluate`` call each);
        the seed shuffles the order of the runs and of the examples in each."""
        suite = self.bench.suite
        rng = random.Random(self.seed)
        runs = [(model, kind) for kind in VariantKind for model in self.models]
        rng.shuffle(runs)
        keys = []
        for model, kind in runs:
            examples = list(suite.variant(kind).examples)
            rng.shuffle(examples)
            keys.extend((model, kind.value, example.example_id, example.db_id, example.nlq)
                        for example in examples)
        return [Op(index, key) for index, key in enumerate(keys)]

    def execute(self, ops, clock, tracer=None):
        """One ``Workbench.evaluate`` per run of ops sharing a model and test set.

        An op is one ``predict`` call; the evaluator's scoring and execution
        checks between its runs count toward ``ops_per_s`` only.
        """
        suite = self.bench.suite
        examples = variant_examples(suite)
        models = self._models(self.bench)
        timer = OpTimer(clock, tracer, self.pad)
        for (model_name, kind), group in itertools.groupby(ops, key=lambda op: op.key[:2]):
            group = list(group)
            dataset = suite.variant(VariantKind(kind)).with_examples(
                examples[(kind, op.key[2])] for op in group)
            done = len(timer.results)
            run = self.bench.evaluate(TimedModel(models[model_name], group, timer), dataset,
                                      model_name=model_name)
            for result, record in zip(timer.results[done:], run.records):
                result.value = (record.predicted, record.executes)
        if len(timer.results) != len(ops):
            raise RuntimeError(f"{len(timer.results)} results for {len(ops)} ops")
        return timer.results

    def reset(self) -> None:
        self.bench.gred().llm_cache.clear()

    def check(self, ops, results):
        catalog = self.bench.suite.catalog
        examples = variant_examples(self.bench.suite)
        return prediction_checks([
            (result.value[0], examples[op.key[1:3]].dvq, catalog.get(op.key[3]), result.value[1])
            for op, result in zip(ops, results)
        ])

    def repair_stats(self):
        return self.bench.gred().repair_stats

    def llm_cache(self):
        return self.bench.gred().llm_cache


class ChartRender(Workload):
    name = "chart_render"
    scale = 0.05
    rows_per_table = 10_000
    passes = 3

    def setup(self, clock: DriftClock) -> Dict[str, float]:
        phases = {}
        dataset = self.corpus()
        phases["nvbench.corpus_s"] = clock.split()
        generator = DataGenerator(seed=CORPUS_SEED, rows_per_table=self.rows_per_table)
        catalog = Catalog()
        for database in dataset.catalog:
            catalog.add(generator.populate(database.schema))
            clock.mark()
        phases["database.populate_s"] = clock.split()
        phases["database.stores_s"] = warm_stores(catalog, clock)
        renderer = ChartRenderer(backend=resolve_backend("columnar"))
        warm = dataset.examples[0]
        renderer.render_text(warm.dvq, catalog.get(warm.db_id))
        phases["warmup_s"] = clock.split()
        self.examples, self.catalog, self.renderer = dataset.examples, catalog, renderer
        return phases

    def ops(self) -> List[Op]:
        return self.shuffled([(example.example_id, example.db_id, example.dvq)
                              for _ in range(self.passes) for example in self.examples])

    def execute(self, ops, clock, tracer=None):
        def render(op: Op):
            chart = self.renderer.render_text(op.key[2], self.catalog.get(op.key[1]))
            return chart.query, chart.result.rows, len(chart.spec.data_values)

        return run_serial(ops, render, OpTimer(clock, tracer, self.pad))

    def check(self, ops, results):
        sqlite = SQLiteBackend()
        try:
            reference = {example.example_id: rows_of(sqlite, example.dvq, self.catalog.get(example.db_id))
                         for example in self.examples}
        finally:
            sqlite.close()
        matches = mismatches = short_specs = 0
        for op, result in zip(ops, results):
            if not result.ok:
                continue
            _, rows, data_values = result.value
            same = reference[op.key[0]] is not None and rows == reference[op.key[0]]
            matches += same
            mismatches += not same
            short_specs += data_values != len(rows)
        return {
            # gold charts have no prediction: the rendered query against the gold DVQ
            "exact_match": evaluate_predictions(
                (serialize_dvq(result.value[0]) if result.ok else "", op.key[2])
                for op, result in zip(ops, results)).overall_accuracy,
            "execution_rate": sum(result.ok for result in results) / len(results),
            "result_match": matches / len(results),
            "problems": {"row_mismatches": mismatches, "spec_rows_differ": short_specs},
        }


WORKLOADS = {cls.name: cls for cls in (GredRob, PaperTables, ChartRender)}


def instrument(tracer: Tracer) -> List[Tuple[str, float, int]]:
    """Spans and counters at every layer boundary the per-layer metrics name.

    Returns the list that collects ``(stage, raw seconds, interval)`` from
    each ``GREDTrace.timings`` as traces complete.
    """
    stage_samples: List[Tuple[str, float, int]] = []

    def record_timings(span: Span, args, trace) -> None:
        stage_samples.extend((stage, seconds, span.interval)
                             for stage, seconds in trace.timings.items())

    def record_outcome(span: Span, args, outcome) -> None:
        if not outcome.ok:
            tracer.counts["executor.failed_checks." + outcome.category] += 1

    tracer.wrap(GRED, "trace", "core.trace", observe=record_timings)
    tracer.wrap(SimulatedChatModel, "complete", "llm.calls",
                label=lambda args, _: "llm." + args[0].log.records[-1].behaviour)
    tracer.wrap(QueryComposer, "compose", "nlu.compose")
    for index_class in (ExactIndex, PartitionedIndex):
        tracer.wrap(index_class, "search_matrix", "index.search")
    tracer.wrap(TextEmbedder, "embed", "embeddings.embed")
    tracer.wrap(SchemaLinker, "question_links", "linking.question_links")
    tracer.wrap(SchemaLinker, "map_foreign_column", "linking.map_foreign_column")
    tracer.count(SchemaLinker, "score_phrase", "linking.score_phrase_calls")
    tracer.count(SynonymLexicon, "related_words", "robustness.related_words_calls")
    tracer.wrap_function("repro.pipeline.stages", "check_execution", "executor.checks",
                         observe=record_outcome)
    tracer.wrap(ColumnarBackend, "plan", "plan.plan")
    tracer.wrap(ColumnarEngine, "run", "executor.run")
    tracer.wrap_function("repro.executor.backend", "normalize_result", "executor.normalize")
    tracer.wrap_function("repro.vegalite.compiler", "compile_to_vegalite", "vegalite.compile")
    tracer.wrap(ExecutionResult, "as_dicts", "vegalite.data_values")
    tracer.wrap_function("repro.evaluation.metrics", "compare_queries", "evaluation.compare")
    for model_class, label in ((Seq2VisModel, "seq2vis"), (TransformerModel, "transformer"),
                               (RGVisNetModel, "rgvisnet")):
        tracer.wrap(model_class, "predict", f"models.{label}.predict")
    instrument_setup(tracer)
    return stage_samples


def instrument_setup(tracer: Tracer) -> None:
    """Counters for lazy set-up work: annotations and per-table store builds."""
    tracer.wrap(DatabaseAnnotator, "annotate", "core.annotate_calls",
                when=lambda args: args[0].cached(args[1].name) is None)
    tracer.wrap(Table, "column_store", "database.store_builds",
                when=lambda args: args[0]._column_store is None)
    tracer.wrap(Table, "typed_store", "database.store_builds",
                when=lambda args: args[0]._typed_store is None)
    tracer.wrap(Table, "column_statistics", "database.store_builds",
                when=lambda args: args[0].canonical_column(args[1]) not in args[0]._column_statistics)
