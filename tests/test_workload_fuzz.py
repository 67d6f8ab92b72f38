"""Fuzz-harness and minimizer tests, including injected-bug regressions.

The minimizer regression tests monkeypatch
``repro.executor.columnar.evaluate_condition`` *and*
``evaluate_condition_vector`` — the columnar engine's module-level import
bindings for the scalar and vectorized predicate paths — so only the
columnar backends misbehave while the interpreter oracle stays correct.
Every injected mismatch must shrink to a <= 3-clause reproducer,
deterministically per seed.
"""

from __future__ import annotations

import math
import weakref

import pytest

import repro.database.typed as typed_module
import repro.executor.columnar as columnar_module
from repro.dvq import parse_dvq, serialize_dvq
from repro.dvq.nodes import Condition
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.workload import (
    DifferentialFuzzer,
    MismatchOracle,
    SchemaGraphConfig,
    WorkloadGenerator,
    build_workload_database,
    clause_count,
    default_engine_matrix,
    execution_mismatch,
    fuzz_database,
    minimize_query,
    rows_agree,
)


@pytest.fixture(scope="module")
def database():
    return build_workload_database(
        SchemaGraphConfig(seed=7, table_count=8, topology="star", name="fuzz_db"),
        total_rows=3_000,
    )


@pytest.fixture(scope="module")
def null_key_database():
    """A workload database where a quarter of all foreign-key values are NULL."""
    return build_workload_database(
        SchemaGraphConfig(seed=13, table_count=6, topology="snowflake",
                          name="fuzz_null_db"),
        total_rows=2_000,
        fk_null_fraction=0.25,
    )


@pytest.fixture(scope="module")
def nan_sort_database():
    """A workload database where 15% of non-key NUMBER values are NaN."""
    return build_workload_database(
        SchemaGraphConfig(seed=29, table_count=6, topology="star",
                          name="fuzz_nan_db"),
        total_rows=2_000,
        nan_fraction=0.15,
    )


@pytest.fixture
def broken_less_than(monkeypatch):
    """Make the columnar engines treat ``<`` as ``<=`` (interpreter unaffected)."""
    real = columnar_module.evaluate_condition
    real_vector = columnar_module.evaluate_condition_vector

    def rewrite(condition):
        if condition.operator != "<":
            return condition
        return Condition(
            column=condition.column,
            operator="<=",
            value=condition.value,
            value2=condition.value2,
            negated=condition.negated,
        )

    def buggy(condition, value, *args, **kwargs):
        return real(rewrite(condition), value, *args, **kwargs)

    def buggy_vector(condition, column, *args, **kwargs):
        return real_vector(rewrite(condition), column, *args, **kwargs)

    monkeypatch.setattr(columnar_module, "evaluate_condition", buggy)
    monkeypatch.setattr(columnar_module, "evaluate_condition_vector", buggy_vector)


class TestCleanSweep:
    def test_portable_sweep_has_zero_mismatches(self, database):
        report = fuzz_database(database, count=120, base_seed=0)
        assert report.ok, report.summary()
        assert report.total == 120
        assert report.category_counts == {"ok": 120}
        assert report.comparisons == 120 * len(report.engines)

    def test_non_portable_sweep_matches_failure_categories(self, database):
        report = fuzz_database(database, count=120, base_seed=500, portable_subset=False)
        assert report.ok, report.summary()
        # the corrupted fraction produced non-ok reference outcomes, and every
        # engine classified them identically (otherwise: mismatches)
        broken = {
            category: count
            for category, count in report.category_counts.items()
            if category != "ok"
        }
        assert broken
        assert set(broken) <= {"missing_table", "missing_column"}

    def test_failing_index_is_reproducible_from_its_seed(self, database):
        fuzzer = DifferentialFuzzer(database, base_seed=42)
        first = serialize_dvq(fuzzer.query_for_seed(42 + 7))
        again = serialize_dvq(fuzzer.query_for_seed(42 + 7))
        assert first == again
        fresh = WorkloadGenerator(seed=42 + 7).generate(database)
        assert serialize_dvq(fresh) == first

    def test_summary_mentions_scale(self, database):
        report = fuzz_database(database, count=10)
        assert "10 queries" in report.summary()
        assert "mismatches: 0" in report.summary()


class TestNullKeyJoins:
    """SQL NULL-join semantics, proved differentially over null-heavy keys."""

    def test_fk_null_fraction_actually_nulls_join_keys(self, null_key_database):
        fk = null_key_database.schema.foreign_keys[0]
        table = null_key_database.table(fk.table)
        column = table.canonical_column(fk.column)
        nulls = sum(1 for row in table.rows if row[column] is None)
        assert nulls > 0
        assert nulls < len(table.rows)

    def test_null_heavy_sweep_has_zero_mismatches(self, null_key_database):
        """Every engine agrees a NULL key never matches — even another NULL.

        This is the differential proof for the NULL-join fix: before it, the
        interpreter's hash join matched ``None == None`` pairs while SQLite's
        ``NULL = NULL`` did not, so any joined query over these keys
        mismatched.
        """
        report = fuzz_database(null_key_database, count=100, base_seed=0)
        assert report.ok, report.summary()
        assert report.category_counts == {"ok": 100}

    def test_engine_matrix_covers_vectorized_and_scalar_columnar(self):
        from repro.workload.fuzz import default_engine_matrix

        matrix = default_engine_matrix()
        assert matrix["columnar"].vectorize
        assert not matrix["columnar-python"].vectorize
        assert set(matrix) == {"sqlite", "columnar", "columnar-python"}


class TestInjectedBugRegression:
    def test_fuzzer_finds_and_minimizes_the_bug(self, database, broken_less_than):
        report = fuzz_database(database, count=150, base_seed=0)
        assert not report.ok
        assert report.mismatches
        for mismatch in report.mismatches:
            assert mismatch.engine in ("columnar", "columnar-python")
            assert mismatch.kind == "rows"
            minimized = parse_dvq(mismatch.minimized_text)
            assert clause_count(minimized) <= 3, mismatch.minimized_text
            # the shrunken reproducer still contains the triggering operator
            assert minimized.where is not None
            assert any(
                condition.operator == "<" for condition in minimized.where.conditions
            ), mismatch.minimized_text

    def test_minimization_is_deterministic_per_seed(self, database, broken_less_than):
        first = fuzz_database(database, count=80, base_seed=0)
        second = fuzz_database(database, count=80, base_seed=0)
        assert [m.seed for m in first.mismatches] == [m.seed for m in second.mismatches]
        assert [m.minimized_text for m in first.mismatches] == [
            m.minimized_text for m in second.mismatches
        ]

    def test_repro_snippet_is_paste_ready(self, database, broken_less_than):
        report = fuzz_database(database, count=80, base_seed=0)
        mismatch = report.mismatches[0]
        snippet = mismatch.repro_snippet()
        assert f"generator seed {mismatch.seed}" in snippet
        assert mismatch.minimized_text in snippet
        # the embedded parse_dvq(...) literal parses back to the reproducer
        assert serialize_dvq(parse_dvq(mismatch.minimized_text)) == mismatch.minimized_text

    def test_interpreter_is_unaffected_by_the_columnar_patch(
        self, database, broken_less_than
    ):
        interpreter = InterpreterBackend()
        for query in WorkloadGenerator(seed=123).generate_many(database, 20):
            assert interpreter.explain_failure(query, database).ok


class TestMinimizeQuery:
    def test_oracle_must_accept_the_original(self, database):
        interpreter = InterpreterBackend()
        query = WorkloadGenerator(seed=1).generate(database)
        oracle = MismatchOracle(database, interpreter, InterpreterBackend())
        with pytest.raises(ValueError):
            minimize_query(query, oracle, database)

    def test_minimizer_reaches_a_fixpoint(self, database, broken_less_than):
        # find a mismatching query, then check minimize is idempotent
        engine = ColumnarBackend()
        interpreter = InterpreterBackend()
        generator = WorkloadGenerator(seed=0)
        target = None
        for query in generator.generate_many(database, 200):
            if execution_mismatch(query, database, interpreter, engine) is not None:
                target = query
                break
        assert target is not None, "injected bug produced no mismatch in 200 queries"
        oracle = MismatchOracle(database, interpreter, engine)
        minimized = minimize_query(target, oracle, database)
        again = minimize_query(minimized, oracle, database)
        assert serialize_dvq(again) == serialize_dvq(minimized)
        assert clause_count(minimized) <= clause_count(target)

    def test_clause_count_metric(self):
        flat = parse_dvq("Visualize BAR SELECT a , b FROM t")
        assert clause_count(flat) == 0
        rich = parse_dvq(
            "Visualize BAR SELECT a , COUNT(a) FROM t JOIN s ON t.x = s.x "
            "WHERE a = 1 AND b = 2 GROUP BY a ORDER BY COUNT(a) DESC LIMIT 3"
        )
        assert clause_count(rich) == 5  # join + 2 conditions + order + limit


def _sort_heavy_factory(cache):
    """ORDER BY / LIMIT-weighted generators sharing one statistics pass."""
    return lambda seed: WorkloadGenerator(
        seed=seed,
        order_probability=0.9,
        limit_probability=0.7,
        stats_cache=cache,
    )


class TestSortHeavySweeps:
    """ORDER BY / LIMIT-weighted sweeps over null- and NaN-heavy sort columns.

    The spy test proves the vectorized sort permutation and top-k selection
    answer these queries rather than assuming it.
    """

    def test_sort_heavy_null_key_sweep_is_mismatch_free(self, null_key_database):
        fuzzer = DifferentialFuzzer(
            null_key_database,
            generator_factory=_sort_heavy_factory(weakref.WeakKeyDictionary()),
            base_seed=0,
        )
        report = fuzzer.run(100)
        assert report.ok, report.summary()
        assert set(report.engines) == set(default_engine_matrix())
        assert report.category_counts == {"ok": 100}

    def test_nan_heavy_sweep_is_mismatch_free_without_sqlite(self, nan_sort_database):
        # sqlite3 binds float('nan') parameters as NULL on INSERT, so a
        # NaN-bearing database is outside SQLite's differential scope by
        # construction; every in-process engine must still reproduce the
        # canonical NUMBER < NaN < TEXT < NULL rank bit-for-bit.
        engines = {
            name: engine
            for name, engine in default_engine_matrix().items()
            if name != "sqlite"
        }
        fuzzer = DifferentialFuzzer(
            nan_sort_database,
            engines=engines,
            generator_factory=_sort_heavy_factory(weakref.WeakKeyDictionary()),
            base_seed=300,
        )
        report = fuzzer.run(100)
        assert report.ok, report.summary()
        assert "sqlite" not in report.engines

    def test_sort_heavy_sweep_engages_the_sort_kernels(self, database, monkeypatch):
        calls = {"topk": 0, "sort": 0}
        real_topk = columnar_module.topk_order
        real_sort = columnar_module.ColumnarEngine._canonical_project

        def spy_topk(*args, **kwargs):
            calls["topk"] += 1
            return real_topk(*args, **kwargs)

        def spy_sort(*args, **kwargs):
            rows = real_sort(*args, **kwargs)
            if rows:  # the permutation answered (None = declined to scalar)
                calls["sort"] += 1
            return rows

        monkeypatch.setattr(columnar_module, "topk_order", spy_topk)
        monkeypatch.setattr(columnar_module.ColumnarEngine, "_canonical_project", spy_sort)
        fuzzer = DifferentialFuzzer(
            database,
            generator_factory=_sort_heavy_factory(weakref.WeakKeyDictionary()),
            base_seed=0,
        )
        report = fuzzer.run(100)
        assert report.ok, report.summary()
        assert calls["topk"] > 0, "vectorized top-k selection never ran"
        assert calls["sort"] > 0, "the vectorized sort permutation never answered"

    def test_nan_fraction_actually_injects_nan_sort_values(self, nan_sort_database):
        nans = 0
        for table_schema in nan_sort_database.schema.tables:
            for row in nan_sort_database.table(table_schema.name).rows:
                nans += sum(
                    1
                    for value in row.values()
                    if isinstance(value, float) and math.isnan(value)
                )
        assert nans > 0

    def test_rows_agree_is_nan_aware_but_not_nan_blind(self):
        nan = float("nan")
        assert rows_agree([(1.0, nan)], [(1.0, nan)])
        assert not rows_agree([(1.0, nan)], [(1.0, None)])
        assert not rows_agree([(nan,)], [(2.0,)])
        assert not rows_agree([(nan,)], [])
        assert rows_agree([], [])


def _group_by_queries(database, count):
    """The first ``count`` GROUP BY queries of a join- and filter-heavy
    stream: ``(seed, query)`` pairs, a pure function of the database."""
    cache = weakref.WeakKeyDictionary()
    queries = []
    seed = 0
    while len(queries) < count:
        query = WorkloadGenerator(
            seed=seed,
            join_probability=0.6,
            where_probability=0.8,
            stats_cache=cache,
        ).generate(database)
        if query.group_by:
            queries.append((seed, query))
        seed += 1
    return queries


class TestGroupHeavySweep:
    """GROUP BY queries, each run with cold and then warm group codes.

    Cold means every table's typed store was just dropped, so the run builds
    the key columns' cached codes; the warm run reads them.  Both must match
    the interpreter oracle, and the warm run must build nothing.
    """

    def test_cold_and_warm_codes_match_the_interpreter(self, database, monkeypatch):
        built = []
        real_build = typed_module.build_group_codes

        def spy_build(column):
            built.append(column)
            return real_build(column)

        monkeypatch.setattr(typed_module, "build_group_codes", spy_build)
        interpreter = InterpreterBackend()
        engine = ColumnarBackend()
        tables = [database.table(table.name) for table in database.schema.tables]
        queries = _group_by_queries(database, 120)
        cached_answers = 0
        for seed, query in queries:
            for table in tables:
                table.refresh_columns()
            expected = interpreter.execute(query, database)
            builds_before = len(built)
            for run in ("cold", "warm"):
                result = engine.execute(query, database)
                context = f"seed {seed}, {run} codes: {serialize_dvq(query)}"
                assert result.columns == expected.columns, context
                assert rows_agree(expected.rows, result.rows), context
                if run == "cold":
                    builds_cold = len(built)
            assert len(built) == builds_cold, f"seed {seed}: the warm run rebuilt codes"
            cached_answers += builds_cold > builds_before
        assert sum(1 for _, query in queries if query.joins) >= 20
        assert sum(1 for _, query in queries if query.where is not None) >= 40
        # most keys are text or NaN-free number columns: their cached codes
        # answered, rather than the per-batch encoding
        assert cached_answers >= 100, cached_answers

