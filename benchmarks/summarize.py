#!/usr/bin/env python
"""Collect every ``benchmarks/BENCH_*.json`` into one trajectory table.

Each throughput benchmark writes its headline numbers to a machine-readable
``BENCH_<name>.json`` next to this script (see the ``bench_report`` fixture
in ``benchmarks/conftest.py``).  This script — stdlib only, no repo imports —
renders them as one aligned table so a whole benchmark run can be read, or
diffed across commits, at a glance:

    $ make bench-summary
    benchmark   commit       speedup   rows       queries   baseline -> best
    index       cb4db40a7a   4.64x     50,000     256       exact 0.778s -> partitioned 0.168s
    ...

The commit is the ``git_sha`` of the file's ``environment`` stamp (``-``
when the file has none).  Unknown keys are preserved in a trailing notes
column, so new benchmarks need no changes here as long as they report
``speedup`` / ``timings``.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: Keys rendered as dedicated columns; everything else lands in "notes".
_KNOWN = {"speedup", "rows", "queries", "timings", "environment"}


def _load_reports(directory: pathlib.Path):
    reports = []
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            payload = json.loads(path.read_text())
        except ValueError as error:
            print(f"warning: skipping {path.name}: {error}", file=sys.stderr)
            continue
        reports.append((name, payload))
    return reports


def _timing_span(timings):
    """``slowest-label 1.234s -> fastest-label 0.123s`` for one report."""
    if not isinstance(timings, dict) or not timings:
        return ""
    ordered = sorted(timings.items(), key=lambda item: -float(item[1]))
    slow_label, slow_seconds = ordered[0]
    fast_label, fast_seconds = ordered[-1]
    return (
        f"{slow_label} {float(slow_seconds):.3f}s -> "
        f"{fast_label} {float(fast_seconds):.3f}s"
    )


def _notes(payload):
    extras = {key: payload[key] for key in sorted(payload) if key not in _KNOWN}
    return ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in extras.items()
    )


def _commit(payload):
    environment = payload.get("environment")
    sha = environment.get("git_sha") if isinstance(environment, dict) else None
    return sha[:10] if isinstance(sha, str) else "-"


def render_table(reports):
    header = ["benchmark", "commit", "speedup", "rows", "queries", "baseline -> best", "notes"]
    rows = [header]
    for name, payload in reports:
        speedup = payload.get("speedup")
        rows.append([
            name,
            _commit(payload),
            f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-",
            f"{payload['rows']:,}" if isinstance(payload.get("rows"), int) else "-",
            str(payload.get("queries", "-")),
            _timing_span(payload.get("timings")),
            _notes(payload),
        ])
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [
        "   ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def main() -> int:
    directory = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else BENCH_DIR
    reports = _load_reports(directory)
    if not reports:
        print(f"no BENCH_*.json files under {directory}", file=sys.stderr)
        return 1
    print(render_table(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
