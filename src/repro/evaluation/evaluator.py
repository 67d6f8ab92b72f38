"""Running a text-to-vis model over a dataset and collecting its accuracy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dvq.normalize import try_parse
from repro.evaluation.metrics import (
    EvaluationResult,
    RepairSummary,
    compare_queries,
    evaluate_predictions,
)
from repro.executor.backend import BackendSpec, ExecutionBackend, resolve_backend
from repro.nvbench.dataset import NVBenchDataset
from repro.nvbench.example import NVBenchExample
from repro.runtime.runner import BatchReport, BatchRunner


@dataclass
class PredictionRecord:
    """One model prediction with its gold reference and component matches.

    ``executes`` is populated only when the evaluator was given an
    ``execution_backend``: ``True`` when the predicted DVQ parses and
    materialises against its database (i.e. produces a chart), ``False``
    otherwise, ``None`` when the execution check was not run.
    """

    example_id: str
    db_id: str
    nlq: str
    predicted: str
    target: str
    vis_correct: bool
    axis_correct: bool
    data_correct: bool
    executes: Optional[bool] = None

    @property
    def overall_correct(self) -> bool:
        return self.vis_correct and self.axis_correct and self.data_correct


@dataclass
class EvaluationRun:
    """A full evaluation: per-example records plus the aggregate result.

    ``failure_count`` is the number of predictions that raised instead of
    returning; those examples are scored as empty (always wrong) predictions,
    so a nonzero value means the accuracies underestimate the model.
    """

    model_name: str
    dataset_name: str
    records: List[PredictionRecord] = field(default_factory=list)
    failure_count: int = 0
    repair_summary: Optional[RepairSummary] = None

    @property
    def result(self) -> EvaluationResult:
        return evaluate_predictions((record.predicted, record.target) for record in self.records)

    @property
    def execution_rate(self) -> Optional[float]:
        """Fraction of checked predictions that execute (``None`` if unchecked).

        Only meaningful when the evaluator ran with an ``execution_backend``;
        this is the executability counterpart of exact-match accuracy — the
        share of predictions that produce *a* chart rather than the "no
        chart" failure mode.
        """
        checked = [record for record in self.records if record.executes is not None]
        if not checked:
            return None
        return sum(1 for record in checked if record.executes) / len(checked)

    def errors(self) -> List[PredictionRecord]:
        return [record for record in self.records if not record.overall_correct]

    def accuracy_by_hardness(self, examples: Sequence[NVBenchExample]) -> Dict[str, EvaluationResult]:
        hardness_by_id = {example.example_id: example.hardness for example in examples}
        grouped: Dict[str, List] = {}
        for record in self.records:
            hardness = hardness_by_id.get(record.example_id, "unknown")
            grouped.setdefault(hardness, []).append((record.predicted, record.target))
        return {hardness: evaluate_predictions(pairs) for hardness, pairs in grouped.items()}


class ModelEvaluator:
    """Evaluate any object exposing ``predict(nlq, database) -> str``.

    Predictions are executed through a
    :class:`~repro.runtime.runner.BatchRunner`: with the default
    ``max_workers=1`` the evaluation is a plain serial loop (bit-identical to
    the historical behaviour); higher worker counts overlap model latency
    across examples.  A prediction that raises is isolated — it is scored as
    an empty (always wrong) prediction instead of aborting the run, with a
    ``warnings.warn`` and the count surfaced on
    :attr:`EvaluationRun.failure_count` — and the underlying
    :class:`~repro.runtime.runner.BatchReport` of the last run is kept on
    :attr:`last_report` for timing and failure inspection.

    With ``execution_backend`` set (a backend name — ``"columnar"`` /
    ``"interpreter"`` / ``"sqlite"`` — or an
    :class:`~repro.executor.backend.ExecutionBackend` instance), every
    prediction is additionally executed against its target database and
    :attr:`PredictionRecord.executes` / :attr:`EvaluationRun.execution_rate`
    report whether it materialises a chart.  ``optimize_plans`` toggles the
    plan optimizer when the columnar backend is named (results are identical
    either way).  ``max_workers`` batches whole predictions, never the
    operators of one execution check: the engine runs each check serially.
    The backend instance is kept across runs, so stateful engines (e.g.
    SQLite) load each database once per evaluator.
    """

    def __init__(
        self,
        limit: Optional[int] = None,
        max_workers: int = 1,
        runner: Optional[BatchRunner] = None,
        execution_backend: Optional[BackendSpec] = None,
        optimize_plans: bool = True,
    ):
        self.limit = limit
        self.max_workers = max_workers
        self._runner = runner
        self.execution_backend: Optional[ExecutionBackend] = (
            resolve_backend(execution_backend, optimize=optimize_plans)
            if execution_backend is not None
            else None
        )
        self.last_report: Optional[BatchReport] = None

    def evaluate(self, model, dataset: NVBenchDataset, model_name: Optional[str] = None) -> EvaluationRun:
        """Run ``model`` over every example of ``dataset`` and score it."""
        if dataset.catalog is None:
            raise ValueError("The dataset must carry its database catalog")
        run = EvaluationRun(
            model_name=model_name or type(model).__name__,
            dataset_name=dataset.name,
        )
        examples = dataset.examples[: self.limit] if self.limit else dataset.examples
        runner = self._runner or BatchRunner(max_workers=self.max_workers)
        catalog = dataset.catalog

        def predict_one(example: NVBenchExample) -> str:
            return model.predict(example.nlq, catalog.get(example.db_id))

        repair_before = self._repair_snapshot(model)
        report = runner.run(examples, predict_one)
        run.repair_summary = self._repair_delta(model, repair_before)
        self.last_report = report
        run.failure_count = report.failure_count
        if report.failure_count:
            first = report.failures()[0]
            warnings.warn(
                f"{report.failure_count}/{len(report.items)} predictions of "
                f"{run.model_name} raised and were scored as wrong; first failure "
                f"at example {first.index}: {first.error}",
                stacklevel=2,
            )
        for example, item in zip(examples, report.items):
            predicted = item.value if item.ok and item.value is not None else ""
            match = compare_queries(predicted, example.dvq)
            executes: Optional[bool] = None
            if self.execution_backend is not None:
                parsed = try_parse(predicted)
                executes = parsed is not None and self.execution_backend.can_execute(
                    parsed, catalog.get(example.db_id)
                )
            run.records.append(
                PredictionRecord(
                    example_id=example.example_id,
                    db_id=example.db_id,
                    nlq=example.nlq,
                    predicted=predicted,
                    target=example.dvq,
                    vis_correct=match.vis,
                    axis_correct=match.axis,
                    data_correct=match.data,
                    executes=executes,
                )
            )
        return run

    @staticmethod
    def _repair_snapshot(model):
        """Pre-run copy of the model's repair counters (duck-typed)."""
        stats = getattr(model, "repair_stats", None)
        return stats.snapshot() if stats is not None else None

    @staticmethod
    def _repair_delta(model, before) -> Optional[RepairSummary]:
        """The run's repair activity: counters now minus the pre-run snapshot."""
        if before is None:
            return None
        delta = model.repair_stats.since(before)
        # a model with the loop disabled reports no summary rather than zeros
        if delta.attempted == 0 and delta.rounds_total == 0:
            loop_enabled = getattr(getattr(model, "config", None), "max_repair_rounds", 0)
            if not loop_enabled:
                return None
        return RepairSummary(
            attempted=delta.attempted,
            repaired=delta.repaired,
            rounds_total=delta.rounds_total,
        )
