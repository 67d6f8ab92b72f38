"""Extraction of filter conditions from questions.

nvBench questions spell out filters in a small number of surface patterns
("whose salary is greater than 120", "price is between 10 and 40", "status
equals Open").  The extractor recovers ``(column phrase, operator, value)``
triples; grounding the column phrase onto an actual schema column is left to
the caller, because that grounding step (lexical vs semantic) is precisely
where robust and non-robust systems diverge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

#: Marker phrases that introduce the filter part of a question.
_FILTER_INTROS = [
    "for those records whose",
    "considering only entries where",
    "restricted to cases in which",
    "for records where",
    "whose",
    "where",
]

_CONNECTOR_SPLIT = re.compile(r"\s+(and|or)\s+")

_PATTERNS = [
    ("BETWEEN", re.compile(r"^(?P<col>.+?)\s+is\s+between\s+(?P<val>\S+)\s+and\s+(?P<val2>\S+)$")),
    ("!=", re.compile(r"^(?P<col>.+?)\s+does\s+not\s+equal\s+(?P<val>.+)$")),
    ("=", re.compile(r"^(?P<col>.+?)\s+equals\s+(?P<val>.+)$")),
    ("=", re.compile(r"^(?P<col>.+?)\s+is\s+equal\s+to\s+(?P<val>.+)$")),
    (">", re.compile(r"^(?P<col>.+?)\s+is\s+(greater|more|bigger|larger)\s+than\s+(?P<val>\S+)$")),
    (">=", re.compile(r"^(?P<col>.+?)\s+is\s+at\s+least\s+(?P<val>\S+)$")),
    ("<", re.compile(r"^(?P<col>.+?)\s+is\s+(less|smaller|lower)\s+than\s+(?P<val>\S+)$")),
    ("<=", re.compile(r"^(?P<col>.+?)\s+is\s+at\s+most\s+(?P<val>\S+)$")),
    ("LIKE", re.compile(r"^(?P<col>.+?)\s+is\s+like\s+(?P<val>\S+)$")),
    ("IS NOT NULL", re.compile(r"^(?P<col>.+?)\s+is\s+not\s+null$")),
    ("IS NULL", re.compile(r"^(?P<col>.+?)\s+is\s+null$")),
]


@dataclass
class ExtractedCondition:
    """A condition read from the question, not yet grounded to a schema."""

    column_phrase: str
    operator: str
    value: Optional[str] = None
    value2: Optional[str] = None
    connector: str = "AND"


class ConditionExtractor:
    """Finds the filter clause of a question and parses its conditions."""

    def filter_segment(self, question: str) -> Optional[str]:
        """The substring of the question that describes filters, if any."""
        text = " ".join(question.lower().split())
        for intro in _FILTER_INTROS:
            index = text.find(intro)
            if index >= 0:
                segment = text[index + len(intro):]
                # cut at the next clause marker
                for stop in (", and group", ", and sort", ", and arrange",
                             ", and bin", ", and bucket", ", and split",
                             ", and organize", ", and broken", ", and aggregated",
                             ", colored by", ", coloured by"):
                    stop_index = segment.find(stop)
                    if stop_index >= 0:
                        segment = segment[:stop_index]
                return segment.strip().strip(".!?—- ")
        return None

    def extract(self, question: str) -> List[ExtractedCondition]:
        """All conditions found in the question, with their connectors."""
        segment = self.filter_segment(question)
        if not segment:
            return []
        # protect the AND that belongs to BETWEEN before splitting on connectors
        protected = re.sub(
            r"between\s+(\S+)\s+and\s+(\S+)", r"between \1 @@AND@@ \2", segment
        )
        conditions: List[ExtractedCondition] = []
        connector = "AND"
        for piece in _split_with_connectors(protected):
            if piece.strip() in ("and", "or"):
                connector = piece.strip().upper()
                continue
            parsed = self._parse_piece(piece.replace("@@AND@@", "and").strip().strip(","))
            if parsed is None:
                continue
            parsed.connector = connector
            conditions.append(parsed)
            connector = "AND"
        return conditions

    def _parse_piece(self, piece: str) -> Optional[ExtractedCondition]:
        piece = piece.strip()
        if not piece:
            return None
        for operator, pattern in _PATTERNS:
            match = pattern.match(piece)
            if match is None:
                continue
            groups = match.groupdict()
            value = groups.get("val")
            if value is not None:
                value = value.strip().strip(".,")
            value2 = groups.get("val2")
            if value2 is not None:
                value2 = value2.strip().strip(".,")
            column_phrase = groups["col"].strip()
            column_phrase = re.sub(r"^(the|a|an)\s+", "", column_phrase)
            return ExtractedCondition(
                column_phrase=column_phrase, operator=operator, value=value, value2=value2
            )
        return None


def _split_with_connectors(segment: str) -> List[str]:
    """Split a filter segment keeping the and/or connectors as separate items."""
    return [piece for piece in _CONNECTOR_SPLIT.split(segment) if piece.strip()]
