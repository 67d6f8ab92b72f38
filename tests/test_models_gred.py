"""Integration tests for the baseline models, GRED and the experiment workbench.

These tests train on the small session-scoped corpus; they check behaviour and
the paper's qualitative robustness story rather than absolute accuracy values.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import GRED, GREDConfig, build_ablation_variants
from repro.core.pipeline import GREDTrace
from repro.dvq.normalize import try_parse
from repro.evaluation import ModelEvaluator
from repro.models import RGVisNetModel, Seq2VisModel, TransformerModel
from repro.models.base import collect_training_columns, sketch_targets, signals_from_sketch


@pytest.fixture(scope="module")
def trained_models(small_dataset):
    models = {
        "Seq2Vis": Seq2VisModel(),
        "Transformer": TransformerModel(),
        "RGVisNet": RGVisNetModel(),
    }
    for model in models.values():
        model.fit(small_dataset.train, small_dataset.catalog)
    return models


@pytest.fixture(scope="module")
def prepared_gred(small_dataset):
    return GRED(GREDConfig(top_k=5)).fit(small_dataset.train, small_dataset.catalog)


class TestSketchUtilities:
    def test_sketch_targets_extracts_labels(self):
        sketch = sketch_targets(
            "Visualize BAR SELECT a , AVG(b) FROM t GROUP BY a ORDER BY a DESC"
        )
        assert sketch["chart_type"] == "BAR"
        assert sketch["aggregate"] == "AVG"
        assert sketch["order_direction"] == "DESC"
        assert sketch["has_group"] == "YES"

    def test_sketch_targets_none_for_garbage(self):
        assert sketch_targets("not a query") is None

    def test_signals_round_trip(self):
        sketch = sketch_targets("Visualize LINE SELECT d , SUM(v) FROM t BIN d BY YEAR")
        signals = signals_from_sketch(sketch)
        assert signals.chart_type.value == "LINE"
        assert signals.bin_unit.value == "YEAR"
        assert not signals.has_order

    def test_collect_training_columns(self, small_dataset):
        columns = collect_training_columns(try_parse(example.dvq) for example in small_dataset.train)
        assert columns
        assert all(column != "*" for column in columns)


class TestBaselines:
    def test_predictions_are_parseable(self, trained_models, small_dataset):
        example = small_dataset.test[0]
        database = small_dataset.catalog.get(example.db_id)
        for model in trained_models.values():
            assert try_parse(model.predict(example.nlq, database)) is not None

    def test_predict_before_fit_raises(self, small_dataset):
        example = small_dataset.test[0]
        database = small_dataset.catalog.get(example.db_id)
        with pytest.raises(RuntimeError):
            Seq2VisModel().predict(example.nlq, database)
        with pytest.raises(RuntimeError):
            TransformerModel().predict(example.nlq, database)
        with pytest.raises(RuntimeError):
            RGVisNetModel().predict(example.nlq, database)

    def test_baselines_reach_reasonable_accuracy_on_original_split(self, trained_models, small_dataset):
        evaluator = ModelEvaluator(limit=40)
        for name, model in trained_models.items():
            result = evaluator.evaluate(model, small_dataset.with_examples(small_dataset.test)).result
            assert result.overall_accuracy > 0.3, name

    def test_baselines_drop_on_dual_variant(self, trained_models, robustness_suite):
        evaluator = ModelEvaluator(limit=40)
        for name, model in trained_models.items():
            original = evaluator.evaluate(model, robustness_suite.original).result.overall_accuracy
            perturbed = evaluator.evaluate(model, robustness_suite.dual_variant).result.overall_accuracy
            assert perturbed < original, name

    def test_seq2vis_vocabulary_is_restricted_to_training_columns(self, trained_models, small_dataset):
        model = trained_models["Seq2Vis"]
        assert model._vocabulary_columns
        assert set(model._vocabulary_columns) == set(collect_training_columns(
            try_parse(example.dvq) for example in small_dataset.train[: model.max_train_examples]
        ))


class TestGRED:
    def test_trace_exposes_all_stages(self, prepared_gred, robustness_suite):
        example = robustness_suite.dual_variant.examples[0]
        database = robustness_suite.catalog.get(example.db_id)
        trace = prepared_gred.trace(example.nlq, database)
        assert isinstance(trace, GREDTrace)
        assert trace.dvq_gen and trace.dvq_rtn and trace.dvq_dbg
        assert trace.final == trace.dvq_dbg

    def test_debugger_output_references_target_schema(self, prepared_gred, robustness_suite):
        hits = 0
        checked = 0
        for example in robustness_suite.dual_variant.examples[:20]:
            database = robustness_suite.catalog.get(example.db_id)
            query = try_parse(prepared_gred.predict(example.nlq, database))
            if query is None:
                continue
            checked += 1
            schema_columns = {column.name.lower() for _, column in database.schema.all_columns()}
            referenced = {c.column.lower() for c in query.referenced_columns() if c.column != "*"}
            if referenced and referenced <= schema_columns:
                hits += 1
        assert checked and hits / checked > 0.5

    def test_gred_beats_baselines_on_dual_variant(self, prepared_gred, trained_models, robustness_suite):
        evaluator = ModelEvaluator(limit=40)
        gred_accuracy = evaluator.evaluate(prepared_gred, robustness_suite.dual_variant).result.overall_accuracy
        best_baseline = max(
            evaluator.evaluate(model, robustness_suite.dual_variant).result.overall_accuracy
            for model in trained_models.values()
        )
        assert gred_accuracy > best_baseline

    def test_predict_before_fit_raises(self, small_dataset):
        example = small_dataset.test[0]
        with pytest.raises(RuntimeError):
            GRED().predict(example.nlq, small_dataset.catalog.get(example.db_id))

    def test_ablation_variants_have_expected_switches(self):
        variants = build_ablation_variants(top_k=3)
        assert set(variants) == {"GRED", "GRED w/o RTN&DBG", "GRED w/o RTN", "GRED w/o DBG"}
        assert not variants["GRED w/o DBG"].config.use_debugger
        assert not variants["GRED w/o RTN"].config.use_retuner

    def test_without_debugger_keeps_generation_column_names(self, small_dataset, robustness_suite):
        no_debug = GRED(GREDConfig(top_k=5, use_debugger=False)).fit(
            small_dataset.train, small_dataset.catalog
        )
        example = robustness_suite.dual_variant.examples[0]
        database = robustness_suite.catalog.get(example.db_id)
        trace = no_debug.trace(example.nlq, database)
        assert trace.dvq_dbg == trace.dvq_rtn

    def test_llm_log_records_behaviours(self, prepared_gred, robustness_suite):
        example = robustness_suite.dual_variant.examples[1]
        database = robustness_suite.catalog.get(example.db_id)
        before = len(prepared_gred.llm.log)
        prepared_gred.predict(example.nlq, database)
        behaviours = {record.behaviour for record in prepared_gred.llm.log.records[before:]}
        assert {"generation", "retune", "debug"} <= behaviours

    def test_threaded_traces_with_cold_memos_equal_serial_traces(
        self, small_dataset, robustness_suite
    ):
        # the behaviours' linker, template and style memos start empty and
        # are filled by 8 workers at once, switching threads every microsecond
        examples = robustness_suite.dual_variant.examples[:60]
        config = GREDConfig(top_k=5, verify_execution=True, max_repair_rounds=2)
        serial = GRED(config).fit(small_dataset.train, small_dataset.catalog).predict_batch(
            examples, robustness_suite.catalog
        )
        threaded_gred = GRED(config).fit(small_dataset.train, small_dataset.catalog)
        threaded = []

        def trace_on_eight_threads():
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded.extend(pool.map(
                    lambda example: threaded_gred.trace(
                        example.nlq, robustness_suite.catalog.get(example.db_id)
                    ),
                    examples,
                ))

        worker = threading.Thread(target=trace_on_eight_threads, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert threaded == serial
