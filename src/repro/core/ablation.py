"""Factory helpers for the Table 4 ablations and the repair-loop study."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.core.config import GREDConfig
from repro.core.pipeline import GRED
from repro.llm.interface import ChatModel


def build_ablation_variants(
    top_k: int = 10, llm: Optional[ChatModel] = None
) -> Dict[str, GRED]:
    """The four GRED configurations of Table 4 (full, w/o RTN&DBG, w/o RTN, w/o DBG).

    Each variant gets its own pipeline object; passing a shared ``llm`` lets
    callers reuse one simulated model (and its completion log) across variants.
    """
    configurations = {
        "GRED": GREDConfig(top_k=top_k, use_retuner=True, use_debugger=True),
        "GRED w/o RTN&DBG": GREDConfig(top_k=top_k, use_retuner=False, use_debugger=False),
        "GRED w/o RTN": GREDConfig(top_k=top_k, use_retuner=False, use_debugger=True),
        "GRED w/o DBG": GREDConfig(top_k=top_k, use_retuner=True, use_debugger=False),
    }
    return {name: GRED(config=config, llm=llm) for name, config in configurations.items()}


def build_repair_variants(
    top_k: int = 10,
    llm: Optional[ChatModel] = None,
    max_repair_rounds: int = 2,
    execution_backend: str = "columnar",
    use_debugger: bool = True,
    use_llm_cache: bool = False,
) -> Dict[str, GRED]:
    """The repair-loop ablation pair: identical pipelines, repair off vs on.

    Neither variant runs the in-pipeline execution check
    (``verify_execution``) — executability is measured once by the evaluator
    (:class:`~repro.evaluation.evaluator.ModelEvaluator` with an
    ``execution_backend``), so enabling it here would only execute every
    prediction twice.  Pass ``use_debugger=False`` to study the loop on the
    "w/o DBG" ablation, where failures are most frequent.

    Raises:
        ValueError: when ``max_repair_rounds < 1`` — the pair would collapse
            to two identical repair-less pipelines.
    """
    if max_repair_rounds < 1:
        raise ValueError(
            f"max_repair_rounds must be >= 1 for the repair pair, got {max_repair_rounds}"
        )
    base = GREDConfig(
        top_k=top_k,
        use_debugger=use_debugger,
        execution_backend=execution_backend,
        use_llm_cache=use_llm_cache,
    )
    with_repair = replace(base, max_repair_rounds=max_repair_rounds)
    return {
        base.variant_name(): GRED(config=base, llm=llm),
        with_repair.variant_name(): GRED(config=with_repair, llm=llm),
    }
