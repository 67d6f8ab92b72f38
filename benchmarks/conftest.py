"""Shared state for the benchmark harness.

A single workbench instance is reused by every benchmark so the corpus is
generated and the models are trained once.  The scale is reduced relative to
the paper (see EXPERIMENTS.md) so the full harness regenerates every table and
figure in a few minutes; pass ``--paper-scale`` to run at the paper's corpus
size.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from repro.executor import ColumnarEngine, ExecutionResult
from repro.experiments import Workbench, WorkbenchConfig
from repro.plan import output_labels, plan_query

#: Machine-readable bench results land next to this file as
#: ``BENCH_<name>.json`` (git-ignored), one per throughput module, so runs
#: can be diffed across commits without scraping pytest stdout.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _perfbench_harness():
    """``perfbench/harness.py``, loaded by path: ``perfbench/`` holds scripts,
    not a package, and the end-to-end benchmark's stamp helpers live there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_harness", REPO_ROOT / "perfbench" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _collect_before_timing():
    """Start every benchmark with an empty GC backlog.

    Earlier modules (the fuzz sweep in particular) can leave enough
    allocation debt that a generational collection fires inside another
    benchmark's timed window; on a small CI box that alone moves a timing
    bar.  Collecting up front keeps each measurement self-contained.
    """
    gc.collect()
    yield


@pytest.fixture(scope="session")
def bench_environment():
    """The machine and program a benchmark run measured.

    Core count, Python, NumPy, BLAS (name, version, threads), the git commit
    and a digest of ``src/``, from the end-to-end benchmark's own helpers.
    """
    harness = _perfbench_harness()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": harness.blas_info(),
        "git_sha": harness.git_sha(REPO_ROOT),
        "source_digest": harness.source_digest(REPO_ROOT),
    }


@pytest.fixture
def bench_report(request, bench_environment):
    """A callable writing this module's ``BENCH_<name>.json`` result file.

    The name is the module's ``test_<name>_throughput`` stem, so
    ``test_plan_throughput.py`` writes ``BENCH_plan.json``.  Call it with
    the headline numbers (``speedup=``, ``rows=``, ``timings={label:
    seconds}``, anything JSON-serialisable); repeated calls from one module
    merge into the same file, so multi-test modules accumulate one report.
    Each file carries the run's ``environment`` stamp; a file stamped by
    another machine or program is replaced, not merged into.
    """

    def write(**payload) -> pathlib.Path:
        stem = request.module.__name__.rsplit(".", 1)[-1]
        name = stem.removeprefix("test_").removesuffix("_throughput")
        path = BENCH_DIR / f"BENCH_{name}.json"
        merged = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except ValueError:
                merged = {}
        if merged.get("environment") != bench_environment:
            merged = {}
        merged.update(payload)
        merged["environment"] = bench_environment
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        return path

    return write


class _CanonicalPlanBackend:
    """The canonical plan, without predicate pushdown, on the columnar engine.

    The unoptimized side of the plan and vector benches: the same engine as
    :class:`~repro.executor.ColumnarBackend`, minus :func:`repro.plan.optimize`.
    """

    def __init__(self) -> None:
        self._engine = ColumnarEngine()

    def execute(self, query, database) -> ExecutionResult:
        plan = plan_query(query, database.schema)
        return ExecutionResult(
            columns=list(output_labels(plan)),
            rows=self._engine.run(plan, database),
            chart_type=query.chart_type.value,
        )


@pytest.fixture
def canonical_plan_backend():
    """A backend whose ``execute`` runs the canonical (unoptimized) plan."""
    return _CanonicalPlanBackend()


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="Run the benchmark harness at the paper's full corpus scale (slow).",
    )


@pytest.fixture(scope="session")
def workbench(request) -> Workbench:
    if request.config.getoption("--paper-scale"):
        config = WorkbenchConfig(scale=1.0, seed=7, evaluation_limit=None)
    else:
        config = WorkbenchConfig(scale=0.08, seed=7, evaluation_limit=80)
    return Workbench(config)


@pytest.fixture(scope="session")
def trained_baselines(workbench):
    return workbench.baselines()


@pytest.fixture(scope="session")
def prepared_gred(workbench):
    return workbench.gred()
