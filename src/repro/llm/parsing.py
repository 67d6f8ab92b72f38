"""Parsing helpers that recover structured content from GRED-style prompts."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.database.schema import Column, ColumnType, DatabaseSchema, ForeignKey, TableSchema
from repro.llm import markers

_TABLE_LINE = re.compile(r"#\s*Table\s+(?P<name>\w+)\s*,\s*columns\s*=\s*\[(?P<columns>[^\]]*)\]")
_FK_LINE = re.compile(r"#\s*Foreign_keys\s*=\s*\[(?P<body>[^\]]*)\]")
_FK_PAIR = re.compile(r"(\w+)\.(\w+)\s*=\s*(\w+)\.(\w+)")


@dataclass
class PromptExample:
    """One few-shot example parsed from a generation prompt."""

    schema_text: str
    question: str
    dvq: str


def parse_schema_block(text: str) -> DatabaseSchema:
    """Parse the "# Table ..., columns = [...]" block into a schema object.

    Column types are unknown in the prompt, so every column defaults to TEXT —
    downstream consumers only need names and foreign keys.  ``*``, empty and
    repeated column names are dropped, so a malformed block still parses.
    """
    tables: List[TableSchema] = []
    for match in _TABLE_LINE.finditer(text):
        name = match.group("name")
        # a repeated name keeps its first occurrence (names match case-insensitively)
        columns: Dict[str, Column] = {}
        for part in match.group("columns").split(","):
            column = part.strip()
            if column and column != "*":
                columns.setdefault(column.lower(), Column(name=column, ctype=ColumnType.TEXT))
        if columns:
            tables.append(TableSchema(name=name, columns=tuple(columns.values())))
    foreign_keys: List[ForeignKey] = []
    fk_match = _FK_LINE.search(text)
    if fk_match:
        for table, column, ref_table, ref_column in _FK_PAIR.findall(fk_match.group("body")):
            foreign_keys.append(ForeignKey(table, column, ref_table, ref_column))
    return DatabaseSchema(name="prompt_schema", tables=tuple(tables), foreign_keys=tuple(foreign_keys))


def _sections(text: str, header: str) -> List[str]:
    """All text chunks following occurrences of ``header`` up to the next header."""
    chunks: List[str] = []
    positions = [match.start() for match in re.finditer(re.escape(header), text)]
    header_pattern = re.compile(r"^###", re.MULTILINE)
    for position in positions:
        start = position + len(header)
        next_header = header_pattern.search(text, start)
        end = next_header.start() if next_header else len(text)
        chunks.append(text[start:end].strip())
    return chunks


def parse_generation_prompt(text: str) -> Tuple[List[PromptExample], str, str]:
    """Parse a generation prompt into (examples, target schema text, target question)."""
    schema_blocks = _sections(text, markers.SCHEMA_HEADER)
    question_blocks = _sections(text, markers.QUESTION_HEADER)
    dvq_blocks = _sections(text, markers.DVQ_HEADER)
    examples: List[PromptExample] = []
    for index in range(len(dvq_blocks)):
        dvq_text = dvq_blocks[index]
        answer = _extract_answer(dvq_text)
        if not answer:
            continue
        schema_text = schema_blocks[index] if index < len(schema_blocks) else ""
        question = _clean_question(question_blocks[index]) if index < len(question_blocks) else ""
        examples.append(PromptExample(schema_text=schema_text, question=question, dvq=answer))
    target_schema = schema_blocks[-1] if schema_blocks else ""
    target_question = _clean_question(question_blocks[-1]) if question_blocks else ""
    return examples, target_schema, target_question


def _clean_question(block: str) -> str:
    lines = [line.strip() for line in block.splitlines() if line.strip()]
    content = " ".join(line.lstrip("# ").strip() for line in lines)
    return content.strip().strip('"“”')


def _extract_answer(block: str) -> Optional[str]:
    match = re.search(r"A:\s*(.+)", block, re.DOTALL)
    if not match:
        return None
    answer = " ".join(match.group(1).split())
    return answer or None


def parse_retune_prompt(text: str) -> Tuple[List[str], str]:
    """Parse a retuning prompt into (reference DVQs, original DVQ)."""
    reference_blocks = _sections(text, markers.REFERENCE_DVQS_HEADER)
    references: List[str] = []
    for block in reference_blocks:
        for line in block.splitlines():
            line = line.strip().lstrip("#").strip()
            line = re.sub(r"^\d+\s*-\s*", "", line)
            if line.lower().startswith("visualize"):
                references.append(" ".join(line.split()))
    original_blocks = _sections(text, markers.ORIGINAL_DVQ_HEADER)
    original = ""
    if original_blocks:
        for line in original_blocks[-1].splitlines():
            line = line.strip().lstrip("#").strip()
            if line.lower().startswith("visualize"):
                original = " ".join(line.split())
                break
    return references, original


def parse_repair_prompt(text: str) -> Tuple[DatabaseSchema, str, str, List[str]]:
    """Parse a repair prompt into (schema, annotations, original DVQ, missing names).

    The repair prompt shares the debugging layout plus an
    ``### Execution Error:`` section whose ``# missing: a , b`` line lists the
    identifiers the execution engine reported as absent.
    """
    schema, annotations, original = parse_debug_prompt(text)
    missing: List[str] = []
    for block in _sections(text, markers.EXECUTION_ERROR_HEADER):
        for line in block.splitlines():
            line = line.strip().lstrip("#").strip()
            if line.lower().startswith("missing:"):
                names = line.split(":", 1)[1]
                missing.extend(
                    name.strip() for name in names.split(",") if name.strip()
                )
    return schema, annotations, original, missing


def parse_debug_prompt(text: str) -> Tuple[DatabaseSchema, str, str]:
    """Parse a debugging prompt into (schema, annotation text, original DVQ)."""
    schema_blocks = _sections(text, markers.SCHEMA_HEADER)
    schema = parse_schema_block(schema_blocks[-1] if schema_blocks else "")
    annotation_blocks = _sections(text, markers.ANNOTATION_HEADER)
    annotations = annotation_blocks[-1] if annotation_blocks else ""
    original_blocks = _sections(text, markers.ORIGINAL_DVQ_HEADER)
    original = ""
    if original_blocks:
        for line in original_blocks[-1].splitlines():
            line = line.strip().lstrip("#").strip()
            if line.lower().startswith("visualize"):
                original = " ".join(line.split())
                break
    return schema, annotations, original
