"""Statistics, the cost model and AQP: unit, invariance and property tests.

Three layers of guarantees:

* **engine statistics + samples** — cached per table, invalidated on insert,
  fast NumPy collection agreeing with the exact collectors;
* **invariance** — over fuzzer-generated workloads on the statistics
  fixture, the columnar engine matches the interpreter oracle row-for-row;
* **AQP** — the sampling rewrite declines exactly where documented, keyed
  per-group COUNTs are exact, and across >= 50 fuzzer-generated aggregate
  queries every observed relative error stays inside the reported CLT bound.
"""

from __future__ import annotations

import random

import pytest

from repro.database.database import Database
from repro.database.sampling import KEYED, UNIFORM
from repro.database.schema import ColumnType, build_schema
from repro.database.statistics import collect_column_statistics
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.plan.cost import CostModel
from repro.plan.nodes import Filter, Sample, Scan, iter_nodes
from repro.plan.sampling import SamplingConfig, rewrite_with_sampling
from repro.workload import WorkloadGenerator

ROWS = 20_000
_CATEGORIES = ["Grocery", "Clothing", "Garden", "Toys", "Media", "Sports"]


def _sales_database(rows: int = ROWS) -> Database:
    schema = build_schema(
        "aqp_test",
        [
            (
                "sales",
                [
                    ("SALE_ID", ColumnType.NUMBER, "id"),
                    ("AMOUNT", ColumnType.NUMBER, "price"),
                    ("CATEGORY", ColumnType.TEXT, "category"),
                    ("SOLD_AT", ColumnType.DATE, "date"),
                    ("REGION_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "regions",
                [
                    ("REGION_ID", ColumnType.NUMBER, "id"),
                    ("REGION_NAME", ColumnType.TEXT, "region"),
                ],
            ),
        ],
        foreign_keys=[("sales", "REGION_ID", "regions", "REGION_ID")],
    )
    rng = random.Random(11)
    regions = [
        {"REGION_ID": index + 1, "REGION_NAME": f"Region {index + 1}"}
        for index in range(6)
    ]
    sales = [
        {
            "SALE_ID": index + 1,
            "AMOUNT": rng.randint(100, 10_000),
            "CATEGORY": rng.choice(_CATEGORIES),
            "SOLD_AT": f"{rng.randint(2016, 2023):04d}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}",
            "REGION_ID": rng.randint(1, 6),
        }
        for index in range(rows)
    ]
    return Database.from_rows(schema, {"regions": regions, "sales": sales})


@pytest.fixture(scope="module")
def database():
    return _sales_database()


class TestEngineStatistics:
    def test_statistics_are_cached_and_invalidated_on_insert(self, database):
        db = _sales_database(rows=200)
        table = db.table("sales")
        first = table.statistics()
        assert table.statistics() is first
        assert first.row_count == 200
        table.insert({"SALE_ID": 201, "AMOUNT": 5, "CATEGORY": "Toys",
                      "SOLD_AT": "2020-01-01", "REGION_ID": 1})
        second = table.statistics()
        assert second is not first
        assert second.row_count == 201

    def test_fast_numeric_statistics_agree_with_exact_collectors(self, database):
        table = database.table("sales")
        fast = table.column_statistics("AMOUNT")
        exact = collect_column_statistics(table, "AMOUNT")
        assert fast.ndv == exact.ndv
        assert fast.null_count == exact.null_count
        assert fast.minimum == exact.minimum
        assert fast.maximum == exact.maximum
        assert [count for _, count in fast.most_common] == [
            count for _, count in exact.most_common
        ]

    def test_samples_are_cached_seeded_and_invalidated(self):
        db = _sales_database(rows=500)
        table = db.table("sales")
        sample = table.sample(kind=UNIFORM, fraction=0.1, seed=3)
        assert sample is table.sample(kind=UNIFORM, fraction=0.1, seed=3)
        assert sample.sampled_rows == 50
        assert list(sample.indices) == sorted(sample.indices)
        other_seed = table.sample(kind=UNIFORM, fraction=0.1, seed=4)
        assert list(other_seed.indices) != list(sample.indices)
        table.insert({"SALE_ID": 501, "AMOUNT": 5, "CATEGORY": "Toys",
                      "SOLD_AT": "2020-01-01", "REGION_ID": 1})
        assert table.sample(kind=UNIFORM, fraction=0.1, seed=3) is not sample

    def test_keyed_sample_covers_every_stratum(self):
        db = _sales_database(rows=2_000)
        sample = db.table("sales").sample(kind=KEYED, key="CATEGORY", fraction=0.05)
        assert set(sample.strata) == set(_CATEGORIES)
        for value, stratum in sample.strata.items():
            assert stratum.sampled >= 1, value
            assert stratum.sampled <= stratum.population


class TestCostModel:
    def test_explain_annotates_cardinality_and_cost(self, database):
        query = parse_dvq(
            "Visualize BAR SELECT CATEGORY , COUNT(*) FROM sales "
            "WHERE AMOUNT > 5000 GROUP BY CATEGORY"
        )
        plan = ColumnarBackend().plan(query, database)
        annotated = plan.explain(statistics=CostModel(database))
        assert "rows~" in annotated and "cost~" in annotated
        # without statistics the old format is unchanged
        assert "rows~" not in plan.explain()

    def test_range_selectivity_tracks_the_histogram(self, database):
        model = CostModel(database)
        query = parse_dvq(
            "Visualize BAR SELECT CATEGORY , COUNT(*) FROM sales "
            "WHERE AMOUNT > 5000 GROUP BY CATEGORY"
        )
        plan = ColumnarBackend().plan(query, database)
        filters = [n for n in iter_nodes(plan) if isinstance(n, Filter)]
        assert filters, plan.explain()
        selectivity = model.selectivity(filters[0].predicate)
        # AMOUNT is uniform on [100, 10000]: > 5000 keeps about half
        assert 0.3 <= selectivity <= 0.7


class TestFuzzedInvariance:
    """The columnar engine, NumPy kernels on and off, matches the oracle on the
    skewed statistics fixture."""

    QUERY_COUNT = 120

    @pytest.fixture(scope="class")
    def oracle_cases(self):
        """The fixture database and each fuzzed query with the oracle's result,
        computed once for both engine modes."""
        database = _sales_database()
        oracle = InterpreterBackend()
        cases = []
        for seed in range(self.QUERY_COUNT):
            query = WorkloadGenerator(seed=seed).generate(database)
            cases.append((query, oracle.execute(query, database)))
        return database, cases

    @pytest.mark.parametrize("vectorize", [True, False], ids=["vectorized", "scalar"])
    def test_fuzzed_queries_match_the_oracle(self, oracle_cases, vectorize):
        database, cases = oracle_cases
        backend = ColumnarBackend(vectorize=vectorize)
        for query, expected in cases:
            got = backend.execute(query, database)
            assert got.columns == expected.columns, query
            assert got.rows == expected.rows, query
        assert len(cases) == self.QUERY_COUNT


class TestSamplingRewrite:
    DECLINED = [
        # MIN/MAX: a sample cannot bound extremes
        "Visualize BAR SELECT CATEGORY , MAX(AMOUNT) FROM sales GROUP BY CATEGORY",
        # DISTINCT: not estimable from a uniform sample
        "Visualize BAR SELECT CATEGORY , COUNT(DISTINCT AMOUNT) FROM sales "
        "GROUP BY CATEGORY",
        # top-k: membership near the cut is noise-sensitive
        "Visualize BAR SELECT CATEGORY , COUNT(*) FROM sales "
        "GROUP BY CATEGORY ORDER BY COUNT(*) DESC LIMIT 2",
        # flat projection: nothing to scale
        "Visualize BAR SELECT CATEGORY , AMOUNT FROM sales",
    ]

    def test_documented_declines_run_exact(self, database):
        exact = ColumnarBackend()
        approximate = ColumnarBackend(approximate=True)
        for text in self.DECLINED:
            query = parse_dvq(text)
            sampled = approximate.execute(query, database)
            assert sampled.approximation is None, text
            assert sampled.rows == exact.execute(query, database).rows, text

    def test_small_tables_always_run_exact(self):
        db = _sales_database(rows=500)
        query = parse_dvq(
            "Visualize BAR SELECT CATEGORY , COUNT(*) FROM sales GROUP BY CATEGORY"
        )
        result = ColumnarBackend(approximate=True).execute(query, db)
        assert result.approximation is None

    def test_rewrite_inserts_sample_above_the_fact_scan(self, database):
        query = parse_dvq(
            "Visualize BAR SELECT REGION_NAME , COUNT(*) FROM sales AS T1 "
            "JOIN regions AS T2 ON T1.REGION_ID = T2.REGION_ID "
            "GROUP BY REGION_NAME"
        )
        plan = ColumnarBackend().plan(query, database)
        rewrite = rewrite_with_sampling(plan, database)
        assert rewrite is not None
        samples = [n for n in iter_nodes(rewrite.plan) if isinstance(n, Sample)]
        assert len(samples) == 1
        assert samples[0].table == "sales"
        assert isinstance(samples[0].child, Scan)

    def test_keyed_group_by_counts_are_exact(self, database):
        query = parse_dvq(
            "Visualize BAR SELECT CATEGORY , COUNT(*) FROM sales GROUP BY CATEGORY"
        )
        exact = ColumnarBackend().execute(query, database)
        sampled = ColumnarBackend(approximate=True).execute(query, database)
        info = sampled.approximation
        assert info is not None and info.kind == KEYED and info.key == "CATEGORY"
        assert sampled.rows == exact.rows

    def test_approximate_columns_hide_the_support_output(self, database):
        query = parse_dvq(
            "Visualize BAR SELECT CATEGORY , AVG(AMOUNT) FROM sales "
            "GROUP BY CATEGORY"
        )
        exact = ColumnarBackend().execute(query, database)
        sampled = ColumnarBackend(approximate=True).execute(query, database)
        assert sampled.approximation is not None
        assert sampled.columns == exact.columns
        assert all(len(row) == len(exact.columns) for row in sampled.rows)


class TestErrorBoundProperty:
    """Across >= 50 fuzzer-generated aggregate DVQs, the observed relative
    error of every scaled output stays inside the reported CLT bound."""

    MINIMUM_APPLIED = 50
    MAX_SEEDS = 400

    def test_relative_error_bound_holds_on_fuzzed_aggregates(self, database):
        exact = ColumnarBackend()
        config = SamplingConfig(min_rows_per_group=50.0)
        approximate = ColumnarBackend(approximate=True, sampling_config=config)
        applied = 0
        for seed in range(self.MAX_SEEDS):
            query = WorkloadGenerator(seed=seed).generate(database)
            sampled = approximate.execute(query, database)
            info = sampled.approximation
            if info is None:
                continue  # the rewrite declined: exactness is covered above
            truth = exact.execute(query, database)
            assert sampled.columns == truth.columns, query
            truth_by_key = {row[0]: row for row in truth.rows}
            worst = 0.0
            for row in sampled.rows:
                exact_row = truth_by_key.get(row[0])
                assert exact_row is not None, (query, row[0])
                for value, reference in zip(row[1:], exact_row[1:]):
                    if isinstance(reference, (int, float)) and reference:
                        worst = max(worst, abs(value - reference) / abs(reference))
            assert worst <= max(info.max_relative_error, 1e-9), (
                f"observed {worst:.4f} > bound {info.max_relative_error:.4f}: "
                f"{query}"
            )
            applied += 1
            if applied >= self.MINIMUM_APPLIED:
                break
        assert applied >= self.MINIMUM_APPLIED, (
            f"only {applied} fuzzed queries were AQP-eligible"
        )
