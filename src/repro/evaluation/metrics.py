"""Component-level accuracy metrics for DVQ predictions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.dvq.components import extract_components
from repro.dvq.normalize import try_parse


@dataclass(frozen=True)
class ComponentMatch:
    """Per-component match flags for one (predicted, target) pair."""

    vis: bool
    axis: bool
    data: bool

    @property
    def overall(self) -> bool:
        return self.vis and self.axis and self.data


@dataclass
class EvaluationResult:
    """Aggregated accuracies over a test set."""

    total: int
    vis_correct: int
    axis_correct: int
    data_correct: int
    overall_correct: int

    def _ratio(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def vis_accuracy(self) -> float:
        return self._ratio(self.vis_correct)

    @property
    def axis_accuracy(self) -> float:
        return self._ratio(self.axis_correct)

    @property
    def data_accuracy(self) -> float:
        return self._ratio(self.data_correct)

    @property
    def overall_accuracy(self) -> float:
        return self._ratio(self.overall_correct)

    def as_dict(self) -> Dict[str, float]:
        return {
            "vis_accuracy": self.vis_accuracy,
            "data_accuracy": self.data_accuracy,
            "axis_accuracy": self.axis_accuracy,
            "overall_accuracy": self.overall_accuracy,
            "total": float(self.total),
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"Vis {self.vis_accuracy:.2%} | Data {self.data_accuracy:.2%} | "
            f"Axis {self.axis_accuracy:.2%} | Overall {self.overall_accuracy:.2%} "
            f"(n={self.total})"
        )


#: ``compare_queries``' default for ``predicted_query``: parse ``predicted``.
_UNPARSED = object()


def compare_queries(predicted: str, target: str, *,
                    predicted_query: object = _UNPARSED) -> ComponentMatch:
    """Compare a predicted DVQ string against the gold DVQ string.

    Unparseable predictions count as wrong on every component (the front end
    cannot render them), except when the prediction is literally identical to
    the target text.  A caller that already parsed ``predicted`` passes
    ``try_parse(predicted)`` as ``predicted_query`` (``None`` when it does
    not parse), so the text is not parsed again.
    """
    target_ast = try_parse(target)
    predicted_ast = try_parse(predicted) if predicted_query is _UNPARSED else predicted_query
    if target_ast is None or predicted_ast is None:
        identical = " ".join(predicted.lower().split()) == " ".join(target.lower().split())
        return ComponentMatch(vis=identical, axis=identical, data=identical)
    predicted_components = extract_components(predicted_ast)
    target_components = extract_components(target_ast)
    return ComponentMatch(
        vis=predicted_components.vis == target_components.vis,
        axis=predicted_components.axis == target_components.axis,
        data=predicted_components.data == target_components.data,
    )


def evaluate_predictions(pairs: Iterable[Tuple[str, str]]) -> EvaluationResult:
    """Aggregate accuracies over ``(predicted, target)`` DVQ string pairs."""
    total = 0
    vis = axis = data = overall = 0
    for predicted, target in pairs:
        total += 1
        match = compare_queries(predicted, target)
        vis += int(match.vis)
        axis += int(match.axis)
        data += int(match.data)
        overall += int(match.overall)
    return EvaluationResult(
        total=total,
        vis_correct=vis,
        axis_correct=axis,
        data_correct=data,
        overall_correct=overall,
    )


@dataclass(frozen=True)
class RepairSummary:
    """Effect of the execution-guided repair loop over one evaluation run.

    Attributes:
        attempted: predictions whose candidate initially failed to execute.
        repaired: of those, how many the loop turned into executing queries.
        rounds_total: LLM repair rounds spent across the run.
    """

    attempted: int = 0
    repaired: int = 0
    rounds_total: int = 0

    @property
    def repair_rate(self) -> float:
        """Fraction of initially-failing predictions the loop rescued."""
        return self.repaired / self.attempted if self.attempted else 0.0

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"repair: {self.repaired}/{self.attempted} rescued "
            f"({self.repair_rate:.1%}) in {self.rounds_total} rounds"
        )


def execution_rate_uplift(
    baseline_rate: Optional[float], repaired_rate: Optional[float]
) -> Optional[float]:
    """Absolute execution-rate gain of the repair loop (``None`` if unmeasured).

    Both inputs are
    :attr:`~repro.evaluation.evaluator.EvaluationRun.execution_rate` values —
    the baseline run without the repair loop and the run with it enabled.
    """
    if baseline_rate is None or repaired_rate is None:
        return None
    return repaired_rate - baseline_rate


def evaluate_by_group(
    records: Sequence[Tuple[str, str, str]]
) -> Dict[str, EvaluationResult]:
    """Aggregate accuracies per group key from ``(group, predicted, target)`` triples."""
    grouped: Dict[str, list] = {}
    for group, predicted, target in records:
        grouped.setdefault(group, []).append((predicted, target))
    return {group: evaluate_predictions(pairs) for group, pairs in grouped.items()}
