"""Running a text-to-vis model over a dataset and collecting its accuracy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dvq.normalize import try_parse
from repro.evaluation.metrics import EvaluationResult, RepairSummary, compare_queries
from repro.executor.backend import BackendSpec, ExecutionBackend, resolve_backend
from repro.nvbench.dataset import NVBenchDataset
from repro.nvbench.example import NVBenchExample
from repro.runtime.runner import BatchReport, run_batch


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
        """The aggregate accuracies: the records' component flags, summed."""
        return EvaluationResult(
            total=len(self.records),
            vis_correct=sum(record.vis_correct for record in self.records),
            axis_correct=sum(record.axis_correct for record in self.records),
            data_correct=sum(record.data_correct for record in self.records),
            overall_correct=sum(record.overall_correct for record in self.records),
        )

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


class ModelEvaluator:
    """Evaluate any object exposing ``predict(nlq, database) -> str``.

    Predictions run one after another through
    :func:`~repro.runtime.runner.run_batch`.  A prediction that raises is
    isolated — it is scored as an empty (always wrong) prediction instead of
    aborting the run, with a ``warnings.warn`` and the count surfaced on
    :attr:`EvaluationRun.failure_count` — and the underlying
    :class:`~repro.runtime.runner.BatchReport` of the last run is kept on
    :attr:`last_report` for timing and failure inspection.

    With ``execution_backend`` set (a backend name — ``"columnar"`` /
    ``"interpreter"`` / ``"sqlite"`` — or an
    :class:`~repro.executor.backend.ExecutionBackend` instance), every
    prediction is additionally executed against its target database and
    :attr:`PredictionRecord.executes` / :attr:`EvaluationRun.execution_rate`
    report whether it materialises a chart.  The backend instance is kept
    across runs, so stateful engines (e.g. SQLite) load each database once
    per evaluator.  ``limit`` caps the examples per run (``None`` = all).
    """

    def __init__(
        self,
        limit: Optional[int] = None,
        execution_backend: Optional[BackendSpec] = None,
    ):
        self.limit = limit
        self.execution_backend: Optional[ExecutionBackend] = (
            resolve_backend(execution_backend)
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
        examples = dataset.examples if self.limit is None else dataset.examples[: self.limit]
        catalog = dataset.catalog

        def predict_one(example: NVBenchExample) -> str:
            return model.predict(example.nlq, catalog.get(example.db_id))

        repair_before = self._repair_snapshot(model)
        report = run_batch(examples, predict_one)
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
            parsed = try_parse(predicted)
            match = compare_queries(predicted, example.dvq, predicted_query=parsed)
            executes: Optional[bool] = None
            if self.execution_backend is not None:
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
