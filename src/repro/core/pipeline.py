"""The end-to-end GRED pipeline, executed as a declarative stage plan."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.annotator import DatabaseAnnotator
from repro.core.config import GREDConfig
from repro.core.debugger import AnnotationBasedDebugger
from repro.core.errors import NotFittedError, not_fitted
from repro.core.generator import NLQRetrievalGenerator
from repro.core.retriever import GREDRetriever
from repro.core.retuner import DVQRetrievalRetuner
from repro.database.catalog import Catalog
from repro.database.database import Database
from repro.executor.backend import ExecutionBackend, resolve_backend
from repro.llm.interface import ChatModel
from repro.llm.simulated import SimulatedChatModel
from repro.models.base import TextToVisModel
from repro.nvbench.example import NVBenchExample
from repro.pipeline.context import StageContext, StageRecord
from repro.pipeline.plan import StagePlan, build_stage_plan
from repro.pipeline.stages import DEBUG, GENERATE, REPAIR, RETUNE
from repro.runtime.cache import LLMCache
from repro.runtime.runner import BatchReport, BatchRunner

__all__ = ["GRED", "GREDTrace", "RepairStats", "NotFittedError"]


@dataclass
class GREDTrace:
    """Intermediate outputs of one GRED prediction (for analysis and the case study).

    Generalised from the historical fixed triple to the full per-stage
    artifact history: ``records`` holds one
    :class:`~repro.pipeline.context.StageRecord` per stage the plan ran, in
    order.  The classic accessors — :attr:`dvq_gen`, :attr:`dvq_rtn`,
    :attr:`dvq_dbg`, :attr:`final` — remain as derived properties, so code
    written against the three-stage trace keeps working against any plan.

    ``timings`` maps stage name (``generate`` / ``retune`` / ``debug`` /
    ``repair`` / ``verify``) to its wall-clock seconds; it is excluded from
    equality so that traces produced by the serial and batched paths compare
    identical.  ``executes`` is populated whenever an execution-aware stage
    ran (``verify_execution`` or ``max_repair_rounds > 0``): ``True`` when
    the final DVQ parses and materialises against the target database on the
    configured execution backend, ``False`` when it does not (the "no chart"
    outcome), ``None`` when no execution check ran.  ``repair_rounds`` counts
    the LLM repair rounds the execution-guided repair loop spent on this
    prediction.
    """

    nlq: str
    records: List[StageRecord] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict, compare=False, repr=False)
    executes: Optional[bool] = field(default=None, compare=False)
    repair_rounds: int = field(default=0, compare=False)

    @classmethod
    def from_context(cls, context: StageContext) -> "GREDTrace":
        return cls(
            nlq=context.nlq,
            records=list(context.records),
            timings=dict(context.timings),
            executes=context.executes,
            repair_rounds=context.repair_rounds,
        )

    def dvq_after(self, stage: str) -> Optional[str]:
        """The candidate left by the last run of ``stage`` (None if it never ran)."""
        for record in reversed(self.records):
            if record.stage == stage:
                return record.dvq
        return None

    @property
    def final(self) -> str:
        """The DVQ the pipeline ultimately produced (after every stage)."""
        return self.records[-1].dvq if self.records else ""

    @property
    def dvq_gen(self) -> str:
        return self.dvq_after(GENERATE) or ""

    @property
    def dvq_rtn(self) -> str:
        dvq = self.dvq_after(RETUNE)
        return dvq if dvq is not None else self.dvq_gen

    @property
    def dvq_dbg(self) -> str:
        dvq = self.dvq_after(DEBUG)
        return dvq if dvq is not None else self.dvq_rtn

    @property
    def dvq_repaired(self) -> Optional[str]:
        """The candidate after the repair loop (None when it never ran)."""
        return self.dvq_after(REPAIR)


@dataclass
class RepairStats:
    """Aggregate effect of the execution-guided repair loop across traces.

    ``attempted`` counts traces whose candidate initially failed to execute
    (i.e. the loop had something to do); ``repaired`` counts how many of
    those ended up executing; ``rounds_total`` sums the LLM repair rounds
    spent.  :class:`~repro.evaluation.evaluator.ModelEvaluator` snapshots
    these counters around a run to report per-run repair effectiveness.
    """

    attempted: int = 0
    repaired: int = 0
    rounds_total: int = 0

    @property
    def repair_rate(self) -> float:
        """Fraction of initially-failing candidates the loop rescued."""
        return self.repaired / self.attempted if self.attempted else 0.0

    def observe(self, summary: Dict[str, object]) -> None:
        """Fold one trace's ``meta["repair"]`` summary into the counters."""
        if summary.get("initially_ok"):
            return
        self.attempted += 1
        self.rounds_total += int(summary.get("rounds", 0))
        if summary.get("final_ok"):
            self.repaired += 1

    def snapshot(self) -> "RepairStats":
        return RepairStats(self.attempted, self.repaired, self.rounds_total)

    def since(self, earlier: "RepairStats") -> "RepairStats":
        return RepairStats(
            attempted=self.attempted - earlier.attempted,
            repaired=self.repaired - earlier.repaired,
            rounds_total=self.rounds_total - earlier.rounds_total,
        )


class GRED(TextToVisModel):
    """GRED as a drop-in text-to-vis model.

    The pipeline is a declarative :class:`~repro.pipeline.plan.StagePlan`
    built from the configuration in :meth:`fit`: *generate* (NLQ retrieval),
    *retune* (DVQ retrieval) and *debug* (annotation-based column repair)
    stages over an embedding library, optionally followed by the
    execution-guided repair loop (``config.max_repair_rounds``) and the
    execution check (``config.verify_execution``).  Ablations and custom
    experiments are plan edits — see :attr:`plan` — not pipeline subclasses.
    Inference is available per-question (:meth:`predict` / :meth:`trace`) or
    batched through a :class:`~repro.runtime.runner.BatchRunner`
    (:meth:`predict_batch` / :meth:`trace_batch`); with
    ``config.use_llm_cache`` the chat model is wrapped in an
    :class:`~repro.runtime.cache.LLMCache` so repeated prompts (shared
    database annotations, duplicated variant questions) are answered from
    memory.
    """

    name = "GRED"

    def __init__(self, config: GREDConfig = GREDConfig(), llm: Optional[ChatModel] = None):
        self.config = config
        self.name = config.variant_name()
        base_llm = llm or SimulatedChatModel()
        if config.use_llm_cache:
            base_llm = LLMCache(base_llm, max_entries=config.llm_cache_max_entries)
        self.llm = base_llm
        self.retriever = GREDRetriever(
            dimensions=config.embedder_dimensions, index_config=config.index
        )
        self.annotator = DatabaseAnnotator(self.llm, params=config.preparation_params)
        self.generator: Optional[NLQRetrievalGenerator] = None
        self.retuner: Optional[DVQRetrievalRetuner] = None
        self.debugger: Optional[AnnotationBasedDebugger] = None
        self.execution_backend: Optional[ExecutionBackend] = (
            resolve_backend(
                config.execution_backend,
                optimize=config.optimize_plans,
                approximate=config.approximate_execution,
            )
            if config.verify_execution or config.max_repair_rounds > 0
            else None
        )
        self.plan: Optional[StagePlan] = None
        self.repair_stats = RepairStats()
        self._stats_lock = threading.Lock()
        self._fitted = False

    @property
    def llm_cache(self) -> Optional[LLMCache]:
        """The interposed completion cache, if ``config.use_llm_cache`` is set."""
        return self.llm if isinstance(self.llm, LLMCache) else None

    # -- preparation ------------------------------------------------------------

    def fit(self, examples: Sequence[NVBenchExample], catalog: Catalog) -> "GRED":
        """Preparatory phase: build the embedding library and the stage plan."""
        self.retriever.prepare(examples, max_examples=self.config.max_library_examples)
        self.generator = NLQRetrievalGenerator(
            retriever=self.retriever,
            llm=self.llm,
            catalog=catalog,
            top_k=self.config.top_k,
            params=self.config.pipeline_params,
        )
        self.retuner = DVQRetrievalRetuner(
            retriever=self.retriever,
            llm=self.llm,
            top_k=self.config.top_k,
            params=self.config.pipeline_params,
        )
        self.debugger = AnnotationBasedDebugger(
            annotator=self.annotator,
            llm=self.llm,
            params=self.config.pipeline_params,
        )
        self.plan = self.build_plan()
        self._fitted = True
        return self

    def build_plan(self) -> StagePlan:
        """The default stage plan for this model's configuration.

        Called by :meth:`fit`; callers wanting a custom pipeline can derive
        edits from the result (``model.plan = model.build_plan().without("retune")``)
        or assign any :class:`~repro.pipeline.plan.StagePlan` to :attr:`plan`.
        """
        if self.generator is None or self.retuner is None or self.debugger is None:
            raise not_fitted("GRED", "build_plan")
        return build_stage_plan(
            self.config,
            generator=self.generator,
            retuner=self.retuner,
            debugger=self.debugger,
            execution_backend=self.execution_backend,
            llm_cache=self.llm_cache,
        )

    def _require_fitted(self, caller: str) -> StagePlan:
        if not self._fitted or self.plan is None:
            raise not_fitted("GRED", caller)
        return self.plan

    # -- inference -----------------------------------------------------------------

    def trace(self, nlq: str, database: Database) -> GREDTrace:
        """Run the stage plan and keep every intermediate DVQ plus stage timings."""
        plan = self._require_fitted("trace")
        context = plan.run(StageContext(nlq=nlq, database=database))
        repair_summary = context.meta.get(REPAIR)
        if isinstance(repair_summary, dict):
            with self._stats_lock:
                self.repair_stats.observe(repair_summary)
        return GREDTrace.from_context(context)

    def predict(self, nlq: str, database: Database) -> str:
        self._require_fitted("predict")
        return self.trace(nlq, database).final

    def trace_batch(
        self,
        examples: Sequence[NVBenchExample],
        catalog: Catalog,
        runner: Optional[BatchRunner] = None,
    ) -> BatchReport:
        """Run :meth:`trace` over a dataset through a batch runner.

        Returns the full :class:`~repro.runtime.runner.BatchReport`, which
        preserves input order, isolates per-example failures and carries
        per-example timings.  Without an explicit ``runner`` a serial
        (``max_workers=1``) runner is used, making the result bit-identical to
        looping over :meth:`trace`.
        """
        runner = runner or BatchRunner(max_workers=1)
        return runner.run(
            list(examples),
            lambda example: self.trace(example.nlq, catalog.get(example.db_id)),
        )

    def predict_batch(
        self,
        examples: Sequence[NVBenchExample],
        catalog: Catalog,
        runner: Optional[BatchRunner] = None,
    ) -> List[GREDTrace]:
        """Traces for a list of examples (used by the experiment harness).

        Routes through :meth:`trace_batch`; pass a
        :class:`~repro.runtime.runner.BatchRunner` with ``max_workers > 1`` to
        overlap LLM latency across examples.  Raises
        :class:`~repro.runtime.runner.BatchFailure` if any example fails —
        callers wanting failure isolation should use :meth:`trace_batch` and
        inspect the report.
        """
        return self.trace_batch(examples, catalog, runner=runner).values(strict=True)
