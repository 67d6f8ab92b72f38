"""Validation of Vega-Lite specifications against the nvBench subset."""

from __future__ import annotations

from typing import List

from repro.vegalite.spec import (
    VALID_AGGREGATES,
    VALID_CHANNELS,
    VALID_FIELD_TYPES,
    VALID_MARKS,
    VegaLiteSpec,
)


def validate_spec(spec: VegaLiteSpec) -> List[str]:
    """Return a list of validation problems; an empty list means the spec is valid.

    The validator reproduces the front-end behaviour in Figure 1 of the paper:
    specifications with unknown marks (e.g. ``"histogram"``) or malformed field
    references are rejected and no chart is drawn.
    """
    problems: List[str] = []
    if spec.mark not in VALID_MARKS:
        problems.append(f"Unknown mark {spec.mark!r}; expected one of {sorted(VALID_MARKS)}")
    if not spec.encoding:
        problems.append("Specification has no encoding channels")
    for channel, encoding in spec.encoding.items():
        if channel not in VALID_CHANNELS:
            problems.append(f"Unknown encoding channel {channel!r}")
        if not encoding.field or not str(encoding.field).strip():
            problems.append(f"Channel {channel!r} has an empty field reference")
        elif " " in str(encoding.field).strip() and not str(encoding.field).isupper():
            # nvBench field names never contain spaces; a multi-word field
            # usually means a natural-language phrase leaked into the spec
            problems.append(
                f"Channel {channel!r} field {encoding.field!r} is not a valid column identifier"
            )
        if encoding.type not in VALID_FIELD_TYPES:
            problems.append(f"Channel {channel!r} has invalid field type {encoding.type!r}")
        if encoding.aggregate is not None and encoding.aggregate not in VALID_AGGREGATES:
            problems.append(
                f"Channel {channel!r} has unknown aggregate {encoding.aggregate!r}"
            )
    if spec.mark != "arc" and "x" not in spec.encoding:
        problems.append("Non-pie charts require an x channel")
    if spec.mark == "arc" and "theta" not in spec.encoding:
        problems.append("Pie charts require a theta channel")
    return problems
