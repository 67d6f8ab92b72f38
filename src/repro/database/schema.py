"""Schema model: columns, tables, foreign keys and whole-database schemas."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx


class ColumnType(enum.Enum):
    """Logical column types, matching the coarse types used by nvBench/Spider."""

    TEXT = "text"
    NUMBER = "number"
    DATE = "date"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class Column:
    """A column definition.

    Attributes:
        name: physical column name as used in DVQs.
        ctype: logical type.
        semantic: a free-form semantic tag (e.g. ``"salary"``, ``"city"``) used
            by the synthetic data generator and the NLQ templater.
        is_primary: True for the table's primary key column.
    """

    name: str
    ctype: ColumnType
    semantic: str = ""
    is_primary: bool = False

    def renamed(self, new_name: str) -> "Column":
        """Return a copy of the column with a different physical name."""
        return replace(self, name=new_name)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key edge ``table.column -> ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str

    def renamed(self, table_map: Dict[str, str], column_map: Dict[Tuple[str, str], str]) -> "ForeignKey":
        """Apply a table/column renaming to the foreign key."""
        new_table = table_map.get(self.table, self.table)
        new_ref_table = table_map.get(self.ref_table, self.ref_table)
        new_column = column_map.get((self.table, self.column), self.column)
        new_ref_column = column_map.get((self.ref_table, self.ref_column), self.ref_column)
        return ForeignKey(new_table, new_column, new_ref_table, new_ref_column)


@dataclass(frozen=True)
class TableSchema:
    """A table definition: a name plus an ordered list of columns.

    Case-insensitive column resolution is backed by a lowercase map built once
    at construction, so :meth:`column` / :meth:`has_column` /
    :meth:`lower_map` are O(1) rather than a scan over the column list.
    """

    name: str
    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        by_lower: Dict[str, Column] = {}
        for column in self.columns:
            key = column.name.lower()
            if key in by_lower:
                names = [c.name.lower() for c in self.columns]
                raise ValueError(f"Duplicate column names in table {self.name!r}: {names}")
            by_lower[key] = column
        # not a dataclass field: resolution cache only, excluded from eq/hash
        object.__setattr__(self, "_by_lower", by_lower)
        object.__setattr__(
            self, "_lower_map", {key: column.name for key, column in by_lower.items()}
        )

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name."""
        column = self._by_lower.get(name.lower())
        if column is None:
            raise KeyError(f"Table {self.name!r} has no column named {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_lower

    def lower_map(self) -> Dict[str, str]:
        """The cached lowercase -> exact-casing column-name map.

        Shared by :class:`~repro.database.table.Table` and the executors, so
        case-insensitive lookups never rescan the column list.  Treat the
        returned dict as read-only.
        """
        return self._lower_map

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def primary_key(self) -> Optional[Column]:
        for column in self.columns:
            if column.is_primary:
                return column
        return None

    def renamed(self, new_name: str, column_renames: Dict[str, str]) -> "TableSchema":
        """Return a copy with the table and selected columns renamed.

        ``column_renames`` maps old (case-sensitive) column names to new names.
        """
        new_columns = tuple(
            column.renamed(column_renames.get(column.name, column.name))
            for column in self.columns
        )
        return TableSchema(name=new_name, columns=new_columns)


@dataclass(frozen=True)
class DatabaseSchema:
    """A whole-database schema: tables plus foreign keys."""

    name: str
    tables: Tuple[TableSchema, ...]
    foreign_keys: Tuple[ForeignKey, ...] = field(default_factory=tuple)
    domain: str = ""

    def table(self, name: str) -> TableSchema:
        for table in self.tables:
            if table.name.lower() == name.lower():
                return table
        raise KeyError(f"Database {self.name!r} has no table named {name!r}")

    def has_table(self, name: str) -> bool:
        return any(table.name.lower() == name.lower() for table in self.tables)

    def table_names(self) -> List[str]:
        return [table.name for table in self.tables]

    def all_columns(self) -> List[Tuple[str, Column]]:
        """Every column in the database as ``(table_name, column)`` pairs."""
        pairs: List[Tuple[str, Column]] = []
        for table in self.tables:
            pairs.extend((table.name, column) for column in table.columns)
        return pairs

    def column_count(self) -> int:
        return sum(len(table.columns) for table in self.tables)

    def join_graph(self) -> nx.Graph:
        """Undirected graph over tables with foreign keys as edges.

        Used by RGVisNet's schema encoder and by the DVQ sampler to choose
        joinable table pairs.
        """
        graph = nx.Graph()
        graph.add_nodes_from(table.name for table in self.tables)
        for foreign_key in self.foreign_keys:
            graph.add_edge(
                foreign_key.table,
                foreign_key.ref_table,
                column=foreign_key.column,
                ref_column=foreign_key.ref_column,
            )
        return graph

    def joinable_pairs(self) -> List[ForeignKey]:
        """Foreign keys whose both endpoints exist in the schema."""
        return [
            foreign_key
            for foreign_key in self.foreign_keys
            if self.has_table(foreign_key.table) and self.has_table(foreign_key.ref_table)
        ]

    def renamed(
        self,
        new_name: Optional[str] = None,
        table_renames: Optional[Dict[str, str]] = None,
        column_renames: Optional[Dict[Tuple[str, str], str]] = None,
    ) -> "DatabaseSchema":
        """Return a copy with tables/columns renamed (used for schema variants).

        ``column_renames`` maps ``(table_name, column_name)`` to new column
        names; foreign keys are rewritten consistently.
        """
        table_renames = table_renames or {}
        column_renames = column_renames or {}
        new_tables = []
        for table in self.tables:
            per_table = {
                old_column: new_column
                for (table_name, old_column), new_column in column_renames.items()
                if table_name == table.name
            }
            new_tables.append(
                table.renamed(table_renames.get(table.name, table.name), per_table)
            )
        new_foreign_keys = tuple(
            foreign_key.renamed(table_renames, column_renames)
            for foreign_key in self.foreign_keys
        )
        return DatabaseSchema(
            name=new_name or self.name,
            tables=tuple(new_tables),
            foreign_keys=new_foreign_keys,
            domain=self.domain,
        )

    def describe(self) -> str:
        """Render the schema in the prompt format used by GRED (Appendix C)."""
        lines = []
        for table in self.tables:
            columns = " , ".join(["*"] + table.column_names())
            lines.append(f"# Table {table.name}, columns = [ {columns} ]")
        if self.foreign_keys:
            fk_text = " , ".join(
                f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
                for fk in self.foreign_keys
            )
            lines.append(f"# Foreign_keys = [ {fk_text} ]")
        return "\n".join(lines)


def build_schema(
    name: str,
    tables: Iterable[Tuple[str, Iterable[Tuple[str, ColumnType, str]]]],
    foreign_keys: Iterable[Tuple[str, str, str, str]] = (),
    domain: str = "",
) -> DatabaseSchema:
    """Convenience constructor used by the nvBench domain templates.

    ``tables`` is an iterable of ``(table_name, [(column, type, semantic), ...])``
    where the first column of each table is treated as its primary key.
    """
    table_schemas = []
    for table_name, column_specs in tables:
        columns = []
        for index, (column_name, ctype, semantic) in enumerate(column_specs):
            columns.append(
                Column(
                    name=column_name,
                    ctype=ctype,
                    semantic=semantic,
                    is_primary=index == 0,
                )
            )
        table_schemas.append(TableSchema(name=table_name, columns=tuple(columns)))
    fk_objects = tuple(ForeignKey(*spec) for spec in foreign_keys)
    return DatabaseSchema(
        name=name, tables=tuple(table_schemas), foreign_keys=fk_objects, domain=domain
    )
