"""The experiment workbench shared by benchmarks, examples and EXPERIMENTS.md.

A :class:`Workbench` lazily builds the synthetic nvBench corpus, derives the
nvBench-Rob robustness suite, trains the baseline models on the training split
and prepares GRED — then evaluates any subset of models on any subset of the
variant test sets.  All randomness is seeded through the corpus configuration,
so two workbenches with the same configuration produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import time

from repro.core.ablation import build_ablation_variants, build_repair_variants
from repro.core.config import GREDConfig
from repro.core.pipeline import GRED
from repro.core.retriever import GREDRetriever
from repro.index import PARTITIONED, IndexConfig
from repro.evaluation.evaluator import EvaluationRun, ModelEvaluator
from repro.evaluation.metrics import EvaluationResult, execution_rate_uplift
from repro.models.base import TextToVisModel
from repro.models.rgvisnet import RGVisNetModel
from repro.models.seq2vis import Seq2VisModel
from repro.models.transformer_model import TransformerModel
from repro.nvbench.dataset import NVBenchDataset
from repro.nvbench.generator import CorpusConfig, NVBenchGenerator
from repro.robustness.variants import RobustnessSuite, RobustnessSuiteBuilder, VariantKind


@dataclass(frozen=True)
class WorkbenchConfig:
    """Scale, seeding and runtime knobs of a workbench run.

    ``scale=1.0`` reproduces the paper-scale corpus (~7.6k pairs, ~1.2k test
    pairs); benchmarks default to a smaller scale so a full table regenerates
    in seconds rather than minutes.

    Attributes:
        scale: fraction of the paper-scale corpus to generate.
        seed: corpus seed; all downstream randomness derives from it.
        evaluation_limit: cap on examples per evaluation run (``None`` = all).
        gred_top_k: retrieval ``top_k`` used by the prepared GRED pipeline.
        llm_cache: prepare GRED with ``use_llm_cache`` so repeated completion
            requests across variant test sets are served from memory.
        execution_backend: when set (``"columnar"``, ``"interpreter"`` or
            ``"sqlite"``), every evaluation also executes the predicted DVQs
            on that engine and reports
            :attr:`~repro.evaluation.evaluator.EvaluationRun.execution_rate`;
            ``None`` (default) skips the execution check, keeping runs
            identical to the historical behaviour.
        max_repair_rounds: prepare GRED with the execution-guided repair
            loop enabled for this many rounds (``0`` keeps the historical
            pipeline).  Uses ``execution_backend`` (falling back to the
            columnar engine) for the in-loop execution checks.
        index: retrieval-index configuration handed to the prepared GRED
            (see :class:`~repro.index.IndexConfig`) — backend selection and
            partitioning knobs.
    """

    scale: float = 0.15
    seed: int = 7
    evaluation_limit: Optional[int] = None
    gred_top_k: int = 10
    llm_cache: bool = True
    execution_backend: Optional[str] = None
    max_repair_rounds: int = 0
    index: IndexConfig = field(default_factory=IndexConfig)


@dataclass
class Workbench:
    """Lazily-constructed experiment state.

    Corpus, robustness suite, trained baselines and the prepared GRED pipeline
    are each built once on first use and cached on the instance.  Every
    evaluation routes through :class:`~repro.evaluation.evaluator.ModelEvaluator`
    and therefore the :mod:`repro.runtime` batch loop — see
    :class:`WorkbenchConfig` for the ``llm_cache`` knob.
    """

    config: WorkbenchConfig = field(default_factory=WorkbenchConfig)
    _dataset: Optional[NVBenchDataset] = None
    _suite: Optional[RobustnessSuite] = None
    _baselines: Optional[Dict[str, TextToVisModel]] = None
    _gred: Optional[GRED] = None

    # -- construction ------------------------------------------------------------

    @property
    def dataset(self) -> NVBenchDataset:
        if self._dataset is None:
            generator = NVBenchGenerator(CorpusConfig(scale=self.config.scale, seed=self.config.seed))
            self._dataset = generator.generate()
        return self._dataset

    @property
    def suite(self) -> RobustnessSuite:
        if self._suite is None:
            self._suite = RobustnessSuiteBuilder().build(self.dataset)
        return self._suite

    def baselines(self) -> Dict[str, TextToVisModel]:
        """The three baseline models, trained on the training split."""
        if self._baselines is None:
            models: Dict[str, TextToVisModel] = {
                "Seq2Vis": Seq2VisModel(),
                "Transformer": TransformerModel(),
                "RGVisNet": RGVisNetModel(),
            }
            for model in models.values():
                model.fit(self.dataset.train, self.dataset.catalog)
            self._baselines = models
        return self._baselines

    def gred(self) -> GRED:
        """The full GRED pipeline, prepared on the training split.

        With ``config.llm_cache`` (default) the pipeline's chat model is
        wrapped in an :class:`~repro.runtime.cache.LLMCache`, so the four
        variant test sets — which repeat databases and many prompts — reuse
        completions instead of recomputing them.
        """
        if self._gred is None:
            model = GRED(self._gred_config())
            model.fit(self.dataset.train, self.dataset.catalog)
            self._gred = model
        return self._gred

    def _gred_config(self) -> GREDConfig:
        """The workbench's GRED configuration."""
        return GREDConfig(
            top_k=self.config.gred_top_k,
            use_llm_cache=self.config.llm_cache,
            max_repair_rounds=self.config.max_repair_rounds,
            execution_backend=self.config.execution_backend or "columnar",
            index=self.config.index,
        )

    def gred_ablations(self) -> Dict[str, GRED]:
        """The four ablation variants of Table 4, each prepared on the training split."""
        variants = build_ablation_variants(top_k=self.config.gred_top_k)
        for variant in variants.values():
            variant.fit(self.dataset.train, self.dataset.catalog)
        return variants

    def gred_repair_variants(
        self, max_repair_rounds: int = 2, use_debugger: bool = True
    ) -> Dict[str, GRED]:
        """The repair-loop ablation pair, each prepared on the training split.

        Delegates to :func:`~repro.core.ablation.build_repair_variants`: two
        otherwise-identical pipelines, repair loop off vs on, for measuring
        the execution-rate uplift of execution-guided repair.
        ``use_debugger=False`` studies the loop on the "w/o DBG" ablation,
        where execution failures are most frequent.
        """
        variants = build_repair_variants(
            top_k=self.config.gred_top_k,
            max_repair_rounds=max_repair_rounds,
            execution_backend=self.config.execution_backend or "columnar",
            use_debugger=use_debugger,
            use_llm_cache=self.config.llm_cache,
        )
        for variant in variants.values():
            variant.fit(self.dataset.train, self.dataset.catalog)
        return variants

    # -- retrieval-index study -----------------------------------------------------

    def index_ablation(
        self,
        num_partitions: int = 0,
        nprobe: int = 4,
        top_k: int = 5,
        query_limit: Optional[int] = 200,
    ) -> Dict[str, object]:
        """Exact vs partitioned retrieval on this corpus: recall and latency.

        Prepares two :class:`~repro.core.retriever.GREDRetriever` instances
        over the training split — one per backend — runs the test-split NLQs
        through both, and reports the partitioned backend's recall@``top_k``
        against the exact ground truth alongside both query latencies.  The
        recall/latency trade-off is controlled by ``nprobe`` (and
        ``num_partitions``; ``0`` = ``round(sqrt(n))``).
        """
        train = self.dataset.train
        queries = [example.nlq for example in self.dataset.test][:query_limit]
        exact = GREDRetriever(index_config=IndexConfig()).prepare(train)
        partitioned = GREDRetriever(
            index_config=IndexConfig(
                backend=PARTITIONED,
                num_partitions=num_partitions,
                nprobe=nprobe,
            )
        ).prepare(train)

        def timed_search(retriever: GREDRetriever):
            retriever.retrieve_by_nlq_many(queries[:1], top_k)  # embed / train once
            started = time.perf_counter()
            hits = retriever.retrieve_by_nlq_many(queries, top_k)
            return hits, time.perf_counter() - started

        exact_hits, exact_seconds = timed_search(exact)
        partitioned_hits, partitioned_seconds = timed_search(partitioned)
        overlaps = [
            len({hit.key for hit in truth} & {hit.key for hit in candidate}) / max(1, len(truth))
            for truth, candidate in zip(exact_hits, partitioned_hits)
        ]
        return {
            "library_size": len(train),
            "query_count": len(queries),
            "top_k": top_k,
            "nprobe": nprobe,
            "recall": sum(overlaps) / max(1, len(overlaps)),
            "exact_seconds": exact_seconds,
            "partitioned_seconds": partitioned_seconds,
            "speedup": exact_seconds / partitioned_seconds if partitioned_seconds else float("inf"),
        }

    # -- repair-loop study ---------------------------------------------------------

    def repair_uplift(
        self,
        kind: VariantKind = VariantKind.SCHEMA,
        max_repair_rounds: int = 2,
        use_debugger: bool = True,
    ) -> Dict[str, object]:
        """Execution-rate uplift of the repair loop on one variant test set.

        Evaluates the repair-off / repair-on pair of
        :meth:`gred_repair_variants` on the ``kind`` test set with execution
        checking enabled, and reports both execution rates, the absolute
        uplift and the run's
        :class:`~repro.evaluation.metrics.RepairSummary`.
        """
        variants = self.gred_repair_variants(
            max_repair_rounds=max_repair_rounds, use_debugger=use_debugger
        )
        backend = self.config.execution_backend or "columnar"
        evaluator = ModelEvaluator(
            limit=self.config.evaluation_limit,
            execution_backend=backend,
        )
        (baseline_name, baseline), (repaired_name, repaired) = variants.items()
        dataset = self.suite.variant(kind)
        baseline_run = evaluator.evaluate(baseline, dataset, model_name=baseline_name)
        repaired_run = evaluator.evaluate(repaired, dataset, model_name=repaired_name)
        return {
            "variant": kind.value,
            "execution_rate_without_repair": baseline_run.execution_rate,
            "execution_rate_with_repair": repaired_run.execution_rate,
            "uplift": execution_rate_uplift(
                baseline_run.execution_rate, repaired_run.execution_rate
            ),
            "repair_summary": repaired_run.repair_summary,
        }

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, model: TextToVisModel, dataset: NVBenchDataset,
                 model_name: Optional[str] = None) -> EvaluationRun:
        """Score ``model`` on ``dataset`` through the batched runtime."""
        evaluator = ModelEvaluator(
            limit=self.config.evaluation_limit,
            execution_backend=self.config.execution_backend,
        )
        return evaluator.evaluate(model, dataset, model_name=model_name)

    def evaluate_on_variant(self, model: TextToVisModel, kind: VariantKind,
                            model_name: Optional[str] = None) -> EvaluationRun:
        return self.evaluate(model, self.suite.variant(kind), model_name=model_name)

    def table_results(self, kind: VariantKind,
                      include_gred: bool = True) -> Dict[str, EvaluationResult]:
        """One of Tables 1-3: every model's accuracies on one variant test set."""
        results: Dict[str, EvaluationResult] = {}
        for name, model in self.baselines().items():
            results[name] = self.evaluate_on_variant(model, kind, model_name=name).result
        if include_gred:
            results["GRED (Ours)"] = self.evaluate_on_variant(self.gred(), kind, model_name="GRED").result
        return results

    def figure3_series(self, include_gred: bool = False) -> Dict[str, Dict[str, float]]:
        """Figure 3: overall accuracy of each model on nvBench vs nvBench-Rob."""
        series: Dict[str, Dict[str, float]] = {}
        kinds = [VariantKind.ORIGINAL, VariantKind.BOTH]
        models: Dict[str, TextToVisModel] = dict(self.baselines())
        if include_gred:
            models["GRED (Ours)"] = self.gred()
        for name, model in models.items():
            series[name] = {
                kind.value: self.evaluate_on_variant(model, kind, model_name=name).result.overall_accuracy
                for kind in kinds
            }
        return series

    def ablation_table(self, kinds: Sequence[VariantKind] = (
        VariantKind.NLQ, VariantKind.SCHEMA, VariantKind.BOTH,
    )) -> Dict[str, Dict[str, float]]:
        """Table 4: overall accuracy of each GRED ablation on the three variant sets."""
        table: Dict[str, Dict[str, float]] = {}
        for name, variant in self.gred_ablations().items():
            table[name] = {
                kind.value: self.evaluate_on_variant(variant, kind, model_name=name).result.overall_accuracy
                for kind in kinds
            }
        return table

    def case_study(self, index: int = 0) -> Dict[str, str]:
        """Table 5: the DVQ every model produces for one dual-variant example."""
        example = self.suite.dual_variant.examples[index]
        database = self.suite.catalog.get(example.db_id)
        predictions: Dict[str, str] = {"NLQ": example.nlq, "Target": example.dvq}
        for name, model in self.baselines().items():
            predictions[name] = model.predict(example.nlq, database)
        predictions["GRED"] = self.gred().predict(example.nlq, database)
        return predictions
