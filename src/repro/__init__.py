"""repro: reproduction of "Towards Robustness of Text-to-Visualization Translation
against Lexical and Phrasal Variability" (nvBench-Rob + GRED).

Top-level convenience imports; see the subpackages for the full API:

* :mod:`repro.dvq` — the DVQ (Vega-Zero) language toolchain.
* :mod:`repro.database` / :mod:`repro.executor` / :mod:`repro.vegalite` — the
  relational and visualization substrates.
* :mod:`repro.plan` — the logical-plan IR, planner and optimizer every
  execution engine lowers from.
* :mod:`repro.nvbench` / :mod:`repro.robustness` — the synthetic nvBench corpus
  and the nvBench-Rob perturbation suite.
* :mod:`repro.models` — the Seq2Vis / Transformer / RGVisNet baselines.
* :mod:`repro.core` — GRED, the paper's contribution.
* :mod:`repro.evaluation` / :mod:`repro.experiments` — metrics and the harness
  that regenerates every table and figure.
* :mod:`repro.runtime` — the batched, cached execution engine (the serial
  :func:`~repro.runtime.runner.run_batch` loop, completion-memoizing
  :class:`~repro.runtime.cache.LLMCache`).
"""

from repro.core.config import GREDConfig
from repro.core.pipeline import GRED
from repro.evaluation.metrics import evaluate_predictions
from repro.experiments.workbench import Workbench, WorkbenchConfig
from repro.nvbench.generator import CorpusConfig, NVBenchGenerator, build_corpus
from repro.robustness.variants import RobustnessSuiteBuilder, VariantKind
from repro.runtime import LLMCache

__version__ = "1.1.0"

__all__ = [
    "CorpusConfig",
    "GRED",
    "GREDConfig",
    "LLMCache",
    "NVBenchGenerator",
    "RobustnessSuiteBuilder",
    "VariantKind",
    "Workbench",
    "WorkbenchConfig",
    "build_corpus",
    "evaluate_predictions",
    "__version__",
]
