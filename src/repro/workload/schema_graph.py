"""Seeded synthetic schema graphs and tiered databases for fuzzing.

The bundled nvBench-style domains cap differential testing at a handful of
fixed schemas.  This module generates *families* of schemas from a seed: a
fact/dimension graph in a star, snowflake or chain topology, with mixed
column types drawn from semantic pools the
:class:`~repro.database.datagen.DataGenerator` understands.  Every table is
guaranteed at least one TEXT and one NUMBER attribute (so group-bys and
aggregates are always expressible), primary keys are ``<TABLE>_ID`` and
foreign-key columns are named after the primary key they reference — which
is exactly what :meth:`~repro.database.schema.DatabaseSchema.joinable_pairs`
keys on.

:func:`tiered_row_counts` assigns fact tables orders of magnitude more rows
than their dimensions (the shape real star workloads have, and the shape
that keeps join results, and so the per-row engines, inside a fuzz budget),
and :func:`build_workload_database` glues schema, tiers and data generation
into one seeded call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.database.database import Database
from repro.database.datagen import DataGenerator
from repro.database.schema import ColumnType, DatabaseSchema, build_schema

#: Entity nouns tables are named after (singular; pluralised with ``S``).
_ENTITY_NOUNS = [
    "customer", "order", "product", "supplier", "region", "store", "employee",
    "shipment", "invoice", "account", "campaign", "channel", "category",
    "warehouse", "carrier", "project", "ticket", "vendor", "branch", "event",
]

#: Attribute templates: (suffix, column type, datagen semantic tag).
_TEXT_ATTRS: List[Tuple[str, ColumnType, str]] = [
    ("NAME", ColumnType.TEXT, "name"),
    ("CITY", ColumnType.TEXT, "city"),
    ("COUNTRY", ColumnType.TEXT, "country"),
    ("STATUS", ColumnType.TEXT, "status"),
    ("CATEGORY", ColumnType.TEXT, "category"),
    ("THEME", ColumnType.TEXT, "theme"),
]
_NUMBER_ATTRS: List[Tuple[str, ColumnType, str]] = [
    ("PRICE", ColumnType.NUMBER, "price"),
    ("BUDGET", ColumnType.NUMBER, "budget"),
    ("RATING", ColumnType.NUMBER, "rating"),
    ("CAPACITY", ColumnType.NUMBER, "capacity"),
    ("WEIGHT", ColumnType.NUMBER, "weight"),
    ("DISTANCE", ColumnType.NUMBER, "distance"),
    ("AMOUNT", ColumnType.NUMBER, "count"),
]
_EXTRA_ATTRS: List[Tuple[str, ColumnType, str]] = [
    ("CREATED_DATE", ColumnType.DATE, "date"),
    ("UPDATED_DATE", ColumnType.DATE, "date"),
    ("ACTIVE", ColumnType.BOOLEAN, "flag"),
    ("VERIFIED", ColumnType.BOOLEAN, "flag"),
] + _TEXT_ATTRS + _NUMBER_ATTRS


@dataclass(frozen=True)
class SchemaGraphConfig:
    """Knobs for one synthetic schema graph.

    Attributes:
        seed: drives every structural choice (names, topology edges, column
            mixes); the same config always yields the same schema.
        table_count: number of tables (>= 2; star needs one fact + dims).
        topology: ``"star"`` (one fact referencing every dimension),
            ``"snowflake"`` (a fact tree — dimensions may have their own
            sub-dimensions) or ``"chain"`` (a linear FK path).
        min_columns / max_columns: attribute count per table, *excluding*
            the primary key and FK columns.
        name: database name; defaults to ``workload_<seed>``.
    """

    seed: int = 0
    table_count: int = 8
    topology: str = "star"
    min_columns: int = 3
    max_columns: int = 6
    name: Optional[str] = None

    def __post_init__(self):
        if self.table_count < 2:
            raise ValueError("table_count must be >= 2")
        if self.topology not in ("star", "snowflake", "chain"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (1 <= self.min_columns <= self.max_columns):
            raise ValueError("need 1 <= min_columns <= max_columns")


def _table_names(rng: random.Random, count: int) -> List[str]:
    nouns = rng.sample(_ENTITY_NOUNS, min(count, len(_ENTITY_NOUNS)))
    names = [f"{noun}s" for noun in nouns]
    suffix = 2
    while len(names) < count:
        names.append(f"{rng.choice(_ENTITY_NOUNS)}s_{suffix}")
        suffix += 1
    return names


def _parent_edges(rng: random.Random, config: SchemaGraphConfig) -> List[Tuple[int, int]]:
    """``(referencing, referenced)`` table-index edges for the topology."""
    count = config.table_count
    if config.topology == "star":
        return [(0, child) for child in range(1, count)]
    if config.topology == "chain":
        return [(index, index + 1) for index in range(count - 1)]
    # snowflake: table 0 is the fact; each further table hangs off a random
    # already-placed table, biased toward the fact so the first ring is wide
    edges = []
    for child in range(1, count):
        parent = 0 if child == 1 or rng.random() < 0.5 else rng.randrange(1, child)
        edges.append((parent, child))
    return edges


def build_schema_graph(config: SchemaGraphConfig) -> DatabaseSchema:
    """Generate a :class:`DatabaseSchema` from ``config``, deterministically."""
    rng = random.Random(f"schema-graph:{config.seed}")
    names = _table_names(rng, config.table_count)
    edges = _parent_edges(rng, config)
    fk_columns: Dict[int, List[int]] = {}
    for parent, child in edges:
        fk_columns.setdefault(parent, []).append(child)

    tables = []
    for index, name in enumerate(names):
        base = name.upper().rstrip("S") or name.upper()
        columns: List[Tuple[str, ColumnType, str]] = [(f"{base}_ID", ColumnType.NUMBER, "id")]
        # guaranteed one TEXT and one NUMBER attribute, prefixed by the table
        # base so names rarely collide across the join scope
        text_suffix, text_type, text_tag = rng.choice(_TEXT_ATTRS)
        number_suffix, number_type, number_tag = rng.choice(_NUMBER_ATTRS)
        columns.append((f"{base}_{text_suffix}", text_type, text_tag))
        columns.append((f"{base}_{number_suffix}", number_type, number_tag))
        extra_count = rng.randint(config.min_columns, config.max_columns)
        pool = [
            (f"{base}_{suffix}", ctype, tag)
            for suffix, ctype, tag in _EXTRA_ATTRS
            if f"{base}_{suffix}" not in {c[0] for c in columns}
        ]
        for attr in rng.sample(pool, min(max(extra_count - 2, 0), len(pool))):
            columns.append(attr)
        # FK columns named after the referenced primary key, appended last
        for child in fk_columns.get(index, ()):
            child_base = names[child].upper().rstrip("S") or names[child].upper()
            columns.append((f"{child_base}_ID", ColumnType.NUMBER, "id"))
        tables.append((name, columns))

    foreign_keys = []
    for parent, child in edges:
        child_base = names[child].upper().rstrip("S") or names[child].upper()
        foreign_keys.append((names[parent], f"{child_base}_ID", names[child], f"{child_base}_ID"))

    db_name = config.name or f"workload_{config.seed}"
    return build_schema(db_name, tables, foreign_keys=foreign_keys)


def fact_tables(schema: DatabaseSchema) -> List[str]:
    """Tables that reference others (FK sources) — the workload's facts."""
    sources = {fk.table for fk in schema.foreign_keys}
    return [table.name for table in schema.tables if table.name in sources]


def tiered_row_counts(schema: DatabaseSchema, total_rows: int) -> Dict[str, int]:
    """Split ``total_rows`` across tables with fact tables taking the bulk.

    Dimension tables (FK targets that reference nothing themselves, plus any
    isolated tables) get small, join-friendly cardinalities; fact tables
    split roughly 90% of the budget evenly.  Every table gets at least one
    row.
    """
    facts = set(fact_tables(schema))
    dims = [table.name for table in schema.tables if table.name not in facts]
    counts: Dict[str, int] = {}
    dim_budget = max(min(total_rows // 10, 400 * max(len(dims), 1)), len(dims))
    for name in dims:
        counts[name] = max(dim_budget // max(len(dims), 1), 1)
    remaining = max(total_rows - sum(counts.values()), len(facts))
    if facts:
        share = max(remaining // len(facts), 1)
        for name in facts:
            counts[name] = share
    return counts


def build_workload_database(
    config: SchemaGraphConfig,
    total_rows: int = 10_000,
    null_fraction: float = 0.08,
    skew: float = 0.5,
    correlated: bool = True,
    fk_null_fraction: float = 0.0,
    nan_fraction: float = 0.0,
) -> Database:
    """Schema graph + tiered correlated data in one seeded call.

    ``fk_null_fraction > 0`` additionally nulls foreign-key values so sweeps
    exercise SQL NULL-join semantics; ``nan_fraction > 0`` turns non-key
    NUMBER values into NaN so sort-heavy sweeps exercise the canonical NaN
    rank; the defaults keep historical databases bit-identical.
    """
    schema = build_schema_graph(config)
    counts = tiered_row_counts(schema, total_rows)
    generator = DataGenerator(
        seed=config.seed,
        null_fraction=null_fraction,
        skew=skew,
        correlated=correlated,
        fk_null_fraction=fk_null_fraction,
        nan_fraction=nan_fraction,
    )
    return generator.populate(schema, rows_by_table=counts)
