"""Unit tests for the workload subsystem: schema graphs, statistics, generator.

The fuzz-harness and minimizer behaviour (including injected-bug regression
tests) live in ``tests/test_workload_fuzz.py``; this module covers the
building blocks.
"""

from __future__ import annotations

import pytest

from repro.database import DataGenerator
from repro.database.schema import ColumnType
from repro.dvq import parse_dvq, serialize_dvq
from repro.dvq.generate import RandomDVQGenerator
from repro.executor import InterpreterBackend
from repro.workload import (
    SchemaGraphConfig,
    WorkloadGenerator,
    build_schema_graph,
    build_workload_database,
    collect_database_statistics,
    fact_tables,
    tiered_row_counts,
)


class TestSchemaGraph:
    def test_generation_is_deterministic(self):
        config = SchemaGraphConfig(seed=5, table_count=8)
        first = build_schema_graph(config)
        second = build_schema_graph(config)
        assert [t.name for t in first.tables] == [t.name for t in second.tables]
        assert [
            (fk.table, fk.column, fk.ref_table, fk.ref_column)
            for fk in first.foreign_keys
        ] == [
            (fk.table, fk.column, fk.ref_table, fk.ref_column)
            for fk in second.foreign_keys
        ]
        assert {
            (t.name, c.name, c.ctype) for t in first.tables for c in t.columns
        } == {(t.name, c.name, c.ctype) for t in second.tables for c in t.columns}

    def test_different_seeds_give_different_schemas(self):
        one = build_schema_graph(SchemaGraphConfig(seed=1))
        two = build_schema_graph(SchemaGraphConfig(seed=2))
        assert {t.name for t in one.tables} != {t.name for t in two.tables}

    def test_star_topology_has_single_fact(self):
        schema = build_schema_graph(SchemaGraphConfig(seed=3, topology="star", table_count=8))
        facts = fact_tables(schema)
        assert len(facts) == 1
        assert len(schema.foreign_keys) == 7
        assert all(fk.table == facts[0] for fk in schema.foreign_keys)

    def test_chain_topology_is_a_path(self):
        schema = build_schema_graph(SchemaGraphConfig(seed=3, topology="chain", table_count=5))
        assert len(schema.foreign_keys) == 4
        sources = [fk.table for fk in schema.foreign_keys]
        assert len(set(sources)) == 4  # every link has a distinct source

    def test_snowflake_is_connected_with_n_minus_1_edges(self):
        schema = build_schema_graph(
            SchemaGraphConfig(seed=11, topology="snowflake", table_count=10)
        )
        assert len(schema.foreign_keys) == 9
        graph = schema.join_graph()
        import networkx

        assert networkx.is_connected(graph.to_undirected(as_view=False))

    @pytest.mark.parametrize("topology", ["star", "snowflake", "chain"])
    def test_every_table_has_text_and_number_attributes(self, topology):
        schema = build_schema_graph(
            SchemaGraphConfig(seed=9, topology=topology, table_count=8)
        )
        for table in schema.tables:
            ctypes = {c.ctype for c in table.columns if not c.is_primary}
            assert ColumnType.TEXT in ctypes, table.name
            assert ColumnType.NUMBER in ctypes, table.name
            assert table.columns[0].is_primary
            assert table.columns[0].name.endswith("_ID")

    def test_foreign_key_columns_mirror_referenced_primary_key(self):
        schema = build_schema_graph(SchemaGraphConfig(seed=4, table_count=8))
        for fk in schema.foreign_keys:
            assert fk.column == fk.ref_column
            ref = schema.table(fk.ref_table)
            assert ref.columns[0].name == fk.ref_column

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchemaGraphConfig(table_count=1)
        with pytest.raises(ValueError):
            SchemaGraphConfig(topology="mesh")
        with pytest.raises(ValueError):
            SchemaGraphConfig(min_columns=5, max_columns=3)

    def test_tiered_row_counts_put_bulk_on_facts(self):
        schema = build_schema_graph(SchemaGraphConfig(seed=6, topology="star", table_count=8))
        counts = tiered_row_counts(schema, 50_000)
        fact = fact_tables(schema)[0]
        assert counts[fact] > 10 * max(
            count for name, count in counts.items() if name != fact
        )
        assert all(count >= 1 for count in counts.values())

    def test_build_workload_database_round_numbers(self):
        database = build_workload_database(
            SchemaGraphConfig(seed=6, table_count=8), total_rows=5_000
        )
        total = sum(len(t.rows) for t in database.tables())
        assert 0.8 * 5_000 <= total <= 1.2 * 5_000
        assert len(database.schema.tables) == 8


class TestDataGeneratorKnobs:
    def _schema(self):
        return build_schema_graph(SchemaGraphConfig(seed=2, table_count=4))

    def test_default_knobs_preserve_historical_stream(self):
        schema = self._schema()
        baseline = DataGenerator(seed=5, rows_per_table=30).populate(schema)
        again = DataGenerator(seed=5, rows_per_table=30).populate(schema)
        for table in schema.tables:
            assert baseline.table(table.name).rows == again.table(table.name).rows

    def test_null_fraction_spares_keys(self):
        schema = self._schema()
        database = DataGenerator(seed=5, rows_per_table=200, null_fraction=0.3).populate(schema)
        protected = {(fk.table.lower(), fk.column.lower()) for fk in schema.foreign_keys}
        protected |= {
            (fk.ref_table.lower(), fk.ref_column.lower()) for fk in schema.foreign_keys
        }
        saw_null = False
        for table in database.tables():
            for column in table.schema.columns:
                values = table.column_values(column.name)
                if column.is_primary or (table.name.lower(), column.name.lower()) in protected:
                    assert all(v is not None for v in values), column.name
                else:
                    saw_null = saw_null or any(v is None for v in values)
        assert saw_null

    def test_skew_concentrates_foreign_keys(self):
        schema = self._schema()
        skewed = DataGenerator(seed=5, rows_per_table=500, skew=0.9).populate(schema)
        uniform = DataGenerator(seed=5, rows_per_table=500).populate(schema)
        fk = schema.foreign_keys[0]

        def top_share(database):
            values = database.table(fk.table).column_values(fk.column)
            counts = sorted(
                (values.count(v) for v in set(values)), reverse=True
            )
            return sum(counts[:3]) / len(values)

        assert top_share(skewed) > top_share(uniform)

    def test_rows_by_table_overrides_counts(self):
        schema = self._schema()
        name = schema.tables[0].name
        database = DataGenerator(seed=1).populate(
            schema, rows_by_table={name.upper(): 123}
        )
        assert len(database.table(name).rows) == 123
        assert len(database.table(schema.tables[1].name).rows) == 40


class TestStatistics:
    @pytest.fixture(scope="class")
    def database(self):
        return build_workload_database(
            SchemaGraphConfig(seed=8, table_count=5), total_rows=2_000
        )

    def test_row_and_null_counts(self, database):
        stats = collect_database_statistics(database)
        for table in database.tables():
            table_stats = stats[table.name.lower()]
            assert table_stats.row_count == len(table.rows)
            for column in table.schema.columns:
                cstats = table_stats.column(column.name)
                values = table.column_values(column.name)
                assert cstats.null_count == sum(1 for v in values if v is None)
                assert cstats.ndv == len({v for v in values if v is not None})

    def test_histogram_edges_are_sorted_and_bounded(self, database):
        stats = collect_database_statistics(database)
        for table_stats in stats.values():
            for cstats in table_stats.columns.values():
                if len(cstats.histogram) < 2:
                    continue
                edges = list(cstats.histogram)
                assert edges == sorted(edges)
                assert edges[0] == cstats.minimum
                assert edges[-1] == cstats.maximum

    def test_most_common_values_actually_occur(self, database):
        stats = collect_database_statistics(database)
        table = database.tables()[0]
        table_stats = stats[table.name.lower()]
        for column in table.schema.columns:
            values = table.column_values(column.name)
            for value, count in table_stats.column(column.name).most_common:
                assert values.count(value) == count


class TestWorkloadGenerator:
    @pytest.fixture(scope="class")
    def database(self):
        return build_workload_database(
            SchemaGraphConfig(seed=13, table_count=8), total_rows=4_000
        )

    def test_queries_roundtrip_and_execute(self, database):
        generator = WorkloadGenerator(seed=21)
        interpreter = InterpreterBackend()
        for query in generator.generate_many(database, 60):
            text = serialize_dvq(query)
            assert serialize_dvq(parse_dvq(text)) == text
            assert interpreter.explain_failure(query, database).ok, text

    def test_generation_is_seed_deterministic(self, database):
        first = [
            serialize_dvq(q)
            for q in WorkloadGenerator(seed=2).generate_many(database, 25)
        ]
        second = [
            serialize_dvq(q)
            for q in WorkloadGenerator(seed=2).generate_many(database, 25)
        ]
        assert first == second

    def test_join_walks_respect_cost_budget(self, database):
        stats = WorkloadGenerator(seed=0).statistics(database)
        rows = {name: s.row_count for name, s in stats.items()}
        budget = 500_000
        generator = WorkloadGenerator(seed=4, max_joins=3, join_probability=0.9,
                                      max_join_cost=budget)
        saw_join = False
        for query in generator.generate_many(database, 80):
            if query.joins:
                saw_join = True
                first = query.joins[0]
                assert rows[query.table.lower()] * rows[first.table.lower()] <= budget
        assert saw_join
        # a budget below every feasible edge suppresses joins entirely
        strict = WorkloadGenerator(seed=4, max_joins=3, join_probability=0.9,
                                   max_join_cost=10)
        assert all(not q.joins for q in strict.generate_many(database, 40))

    def test_multi_table_scopes_qualify_every_reference(self, database):
        generator = WorkloadGenerator(seed=7, max_joins=3, join_probability=0.9)
        checked = 0
        for query in generator.generate_many(database, 80):
            if not query.joins:
                continue
            checked += 1
            for ref in query.referenced_columns():
                assert ref.table or ref.column == "*", serialize_dvq(query)
        assert checked >= 10

    def test_literal_pools_are_bounded(self, database):
        generator = WorkloadGenerator(seed=1, in_list_limit=6)
        table = database.tables()[0]
        scoped_columns = generator._scope_columns(database.schema, table.name, None)
        for scoped in scoped_columns:
            pool = generator._literal_pool(database, scoped)
            assert len(pool) <= 6
            assert all(value is not None for value in pool)

    def test_group_keys_have_low_cardinality(self, database):
        generator = WorkloadGenerator(seed=3, group_key_ndv_limit=20)
        stats = generator.statistics(database)
        for query in generator.generate_many(database, 60):
            if not query.group_by or query.bin is not None:
                continue
            key = query.group_by[0]
            for table_stats in stats.values():
                if key.column.lower() in table_stats.columns:
                    cstats = table_stats.column(key.column)
                    if cstats.ctype in (ColumnType.TEXT, ColumnType.BOOLEAN):
                        assert cstats.ndv <= 20, serialize_dvq(query)


class TestPortableSubsetToggle:
    @pytest.fixture(scope="class")
    def database(self):
        return build_workload_database(
            SchemaGraphConfig(seed=13, table_count=6), total_rows=1_500
        )

    def test_portable_mode_never_corrupts(self, database):
        generator = RandomDVQGenerator(seed=5, portable_subset=True)
        interpreter = InterpreterBackend()
        for query in generator.generate_many(database, 40):
            assert interpreter.explain_failure(query, database).ok

    def test_non_portable_mode_generates_rejected_queries(self, database):
        generator = WorkloadGenerator(
            seed=5, portable_subset=False, corruption_probability=0.5
        )
        interpreter = InterpreterBackend()
        categories = set()
        for query in generator.generate_many(database, 80):
            categories.add(interpreter.explain_failure(query, database).category)
        assert "ok" in categories
        assert categories & {"missing_table", "missing_column"}

    def test_corrupted_queries_still_roundtrip(self, database):
        generator = WorkloadGenerator(
            seed=5, portable_subset=False, corruption_probability=1.0
        )
        for query in generator.generate_many(database, 30):
            text = serialize_dvq(query)
            assert serialize_dvq(parse_dvq(text)) == text

    def test_engines_agree_on_corruption_categories(self, database):
        from repro.executor import ColumnarBackend
        from repro.sql import SQLiteBackend

        generator = WorkloadGenerator(
            seed=5, portable_subset=False, corruption_probability=1.0
        )
        interpreter = InterpreterBackend()
        engines = [SQLiteBackend(), ColumnarBackend(), ColumnarBackend(vectorize=False)]
        for query in generator.generate_many(database, 25):
            expected = interpreter.explain_failure(query, database)
            for engine in engines:
                actual = engine.explain_failure(query, database)
                assert actual.category == expected.category, serialize_dvq(query)
                assert actual.missing == expected.missing
