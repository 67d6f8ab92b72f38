"""Configuration of the GRED pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.index import IndexConfig
from repro.llm.interface import CompletionParams


@dataclass(frozen=True)
class GREDConfig:
    """Hyper-parameters and ablation switches for GRED.

    ``top_k = 10`` follows Section 5.1 of the paper; the two completion
    parameter sets mirror the reported ``openai.ChatCompletion.create``
    settings for preparation and for the main pipeline.

    Attributes:
        top_k: number of retrieved examples fed to the generator and retuner.
        use_retuner: ablation switch for the DVQ-Retrieval Retuner (stage b).
        use_debugger: ablation switch for the Annotation-based Debugger
            (stage c).
        embedder_dimensions: output size of the hashed TF-IDF embedder backing
            the retrieval libraries.
        max_library_examples: cap on how many training examples are embedded
            into the NLQ/DVQ libraries during :meth:`~repro.core.pipeline.GRED.fit`.
        name: display name used in tables; ablation switches decorate it via
            :meth:`variant_name`.
        use_llm_cache: wrap the chat model in an
            :class:`~repro.runtime.cache.LLMCache` so identical completion
            requests (shared database annotations, repeated variant prompts)
            are served from memory.  Off by default to keep the completion log
            a faithful call-by-call record; the experiment workbench turns it
            on.
        llm_cache_max_entries: optional FIFO capacity bound for the completion
            cache (``None`` = unbounded).  Only meaningful with
            ``use_llm_cache``.
        verify_execution: after the debugger stage, execute the final DVQ
            against the target database and record whether it materialises on
            :attr:`~repro.core.pipeline.GREDTrace.executes` — the paper's
            "no chart" check, off by default because it adds an execution per
            prediction.
        execution_backend: which engine runs the execution checks —
            ``"columnar"`` (the default: the logical-plan engine over column
            batches, see :mod:`repro.plan`), ``"interpreter"`` (the legacy
            row-at-a-time reference executor) or ``"sqlite"`` (the DVQ->SQL
            compiler over SQLite, see :mod:`repro.sql`).  All three return
            identical results; only speed differs.  Each check runs serially
            on the calling thread.  Only meaningful with ``verify_execution``
            or ``max_repair_rounds > 0``.
        index: retrieval-index configuration for the NLQ/DVQ libraries
            (:class:`~repro.index.IndexConfig`): the search backend
            (``"exact"`` brute force — the default — or ``"partitioned"``
            IVF-style probing) and its partitioning knobs.
        max_repair_rounds: enable the execution-guided repair loop
            (:class:`repro.pipeline.stages.ExecutionGuidedRepairStage`):
            after the regular stages, the candidate DVQ is executed on
            ``execution_backend`` and, on failure, the structured error is
            fed back into the annotation-based debugger for up to this many
            rounds.  ``0`` (default) keeps the historical pipeline — the
            execution verdict stays a passive metric.
    """

    top_k: int = 10
    use_retuner: bool = True
    use_debugger: bool = True
    embedder_dimensions: int = 512
    max_library_examples: int = 8000
    name: str = "GRED"
    use_llm_cache: bool = False
    llm_cache_max_entries: Optional[int] = None
    verify_execution: bool = False
    execution_backend: str = "columnar"
    index: IndexConfig = field(default_factory=IndexConfig)
    max_repair_rounds: int = 0

    @property
    def preparation_params(self) -> CompletionParams:
        return CompletionParams(temperature=0.0, frequency_penalty=0.0, presence_penalty=0.0)

    @property
    def pipeline_params(self) -> CompletionParams:
        return CompletionParams(temperature=0.0, frequency_penalty=-0.5, presence_penalty=-0.5)

    def variant_name(self) -> str:
        """A descriptive name reflecting the ablation switches."""
        if self.use_retuner and self.use_debugger:
            base = self.name
        elif not self.use_retuner and not self.use_debugger:
            base = f"{self.name} w/o RTN&DBG"
        elif not self.use_retuner:
            base = f"{self.name} w/o RTN"
        else:
            base = f"{self.name} w/o DBG"
        if self.max_repair_rounds > 0:
            base = f"{base} + repair"
        return base
