"""Execution of compiled DVQs on SQLite.

:class:`SQLiteBackend` implements the
:class:`~repro.executor.backend.ExecutionBackend` protocol by loading a
:class:`~repro.database.database.Database` into a SQLite database (in-memory
by default, or one file per database under ``directory``) and executing the
SQL produced by :class:`~repro.sql.compiler.DVQToSQLCompiler`.

Databases are loaded once and cached per :class:`Database` *object* (weakly,
so dropping the database frees the connection): the first execution pays the
bulk-insert cost, every subsequent query runs at engine speed.  This is what
makes the backend fast on large tables — see
``benchmarks/test_sql_backend_throughput.py`` — while the shared result
normalisation keeps its output identical to the interpreter's.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from typing import Optional

from repro.database.database import Database
from repro.database.schema import ColumnType, TableSchema
from repro.database.table import Table
from repro.dvq.nodes import DVQuery
from repro.executor.backend import ExecutionOutcome, explain_execution, normalize_result
from repro.executor.errors import ExecutionError
from repro.executor.executor import ExecutionResult
from repro.sql.compiler import DVQToSQLCompiler, quote_identifier

#: SQLite column affinity per logical column type.  NUMERIC keeps integers
#: integral (TEXT would keep everything a string, REAL would float them all);
#: dates stay ISO text so ``substr``-based binning works.
_AFFINITY = {
    ColumnType.NUMBER: "NUMERIC",
    ColumnType.BOOLEAN: "NUMERIC",
    ColumnType.DATE: "TEXT",
    ColumnType.TEXT: "TEXT",
}


def _create_table_sql(schema: TableSchema) -> str:
    columns = " , ".join(
        f"{quote_identifier(column.name)} {_AFFINITY[column.ctype]}"
        for column in schema.columns
    )
    return f"CREATE TABLE {quote_identifier(schema.name)} ( {columns} )"


def _insert_sql(schema: TableSchema) -> str:
    placeholders = " , ".join("?" for _ in schema.columns)
    return f"INSERT INTO {quote_identifier(schema.name)} VALUES ( {placeholders} )"


class SQLiteBackend:
    """Compile-and-execute backend over SQLite.

    Args:
        directory: when set, each database is materialised as
            ``<directory>/<db name>.sqlite3`` (recreated on load) instead of
            in memory — useful for inspecting the loaded data with external
            tools or exceeding RAM.
        bin_interval: width of ``BIN ... BY INTERVAL`` buckets, matching the
            interpreter's parameter.
    """

    name = "sqlite"

    def __init__(self, directory: Optional[str] = None, bin_interval: int = 100):
        self.directory = directory
        self._compiler = DVQToSQLCompiler(bin_interval=bin_interval)
        self._connections: "weakref.WeakKeyDictionary[Database, sqlite3.Connection]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()

    # -- public API ---------------------------------------------------------

    def compile(self, query: DVQuery, database: Database):
        """Expose the compiled SQL for a query (debugging / logging)."""
        return self._compiler.compile(query, database.schema)

    def execute(self, query: DVQuery, database: Database) -> ExecutionResult:
        """Execute ``query`` against ``database`` on SQLite.

        Raises:
            ExecutionError: for references to missing tables/columns (raised
                at compile time) or engine-level failures.
        """
        compiled = self._compiler.compile(query, database.schema)
        with self._lock:
            connection = self._connection_locked(database)
            try:
                cursor = connection.execute(compiled.sql, compiled.params)
                rows = [tuple(row) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"SQLite execution failed for {compiled.sql!r}: {exc}",
                    query=query,
                    database=database.name,
                ) from exc
        result = ExecutionResult(
            columns=list(compiled.columns),
            rows=rows,
            chart_type=query.chart_type.value,
        )
        return normalize_result(result, query)

    def can_execute(self, query: DVQuery, database: Database) -> bool:
        """True when the query executes without error (used by benches)."""
        try:
            self.execute(query, database)
        except ExecutionError:
            return False
        return True

    def explain_failure(self, query: DVQuery, database: Database) -> ExecutionOutcome:
        """Execute and classify: same categories as the interpreter backend."""
        return explain_execution(self, query, database)

    def refresh(self, database: Database) -> None:
        """Drop the cached load of ``database`` (call after mutating its rows)."""
        with self._lock:
            connection = self._connections.pop(database, None)
            if connection is not None:
                connection.close()

    def close(self) -> None:
        """Close every cached connection."""
        with self._lock:
            for connection in list(self._connections.values()):
                connection.close()
            self._connections = weakref.WeakKeyDictionary()

    # -- loading ------------------------------------------------------------

    def _connection_locked(self, database: Database) -> sqlite3.Connection:
        connection = self._connections.get(database)
        if connection is not None:
            return connection
        connection = self._open(database)
        self._load(connection, database)
        self._connections[database] = connection
        return connection

    def _open(self, database: Database) -> sqlite3.Connection:
        if self.directory is None:
            target = ":memory:"
        else:
            os.makedirs(self.directory, exist_ok=True)
            target = os.path.join(self.directory, f"{database.name}.sqlite3")
            if os.path.exists(target):
                os.remove(target)
        # the backend serialises all access through its own lock, so sharing
        # the connection across a caller's threads is safe
        return sqlite3.connect(target, check_same_thread=False)

    def _load(self, connection: sqlite3.Connection, database: Database) -> None:
        for table in database.tables():
            self._load_table(connection, table)
        connection.commit()

    def _load_table(self, connection: sqlite3.Connection, table: Table) -> None:
        connection.execute(_create_table_sql(table.schema))
        names = [column.name for column in table.schema.columns]
        insert = _insert_sql(table.schema)
        connection.executemany(
            insert, (tuple(row[name] for name in names) for row in table.rows)
        )
