"""The environment stamp every ``BENCH_*.json`` carries, and its summary column."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import numpy as np


def _summarize():
    path = pathlib.Path(__file__).resolve().parent / "summarize.py"
    spec = importlib.util.spec_from_file_location("bench_summarize", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stamp_names_the_machine_and_the_program(bench_environment):
    assert bench_environment["nproc"] >= 1
    assert bench_environment["python"] == sys.version.split()[0]
    assert bench_environment["numpy"] == np.__version__
    assert set(bench_environment["blas"]) == {"name", "version", "threads"}
    assert len(bench_environment["source_digest"]) == 16
    assert bench_environment["git_sha"] is None or len(bench_environment["git_sha"]) == 40
    json.dumps(bench_environment)


def test_summary_prints_the_commit_not_the_stamp():
    stamp = {"git_sha": "0123456789abcdef0123456789abcdef01234567", "nproc": 2,
             "source_digest": "feedfacefeedface"}
    table = _summarize().render_table([
        ("plan", {"speedup": 3.5, "rows": 1000, "environment": stamp, "pushdown": True}),
        ("sort", {"speedup": 5.0}),
    ])
    plan_row, sort_row = table.splitlines()[1:]
    assert "0123456789" in plan_row and "0123456789a" not in plan_row
    assert "feedface" not in table and "nproc" not in table
    assert "pushdown=True" in plan_row
    assert sort_row.split()[1] == "-"
