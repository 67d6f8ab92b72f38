"""Statistics and the cost model: unit and invariance tests.

Two layers of guarantees:

* **engine statistics** — cached per table, invalidated on insert, fast
  NumPy collection agreeing with the exact collectors, and the cost model's
  estimates over them;
* **invariance** — over fuzzer-generated workloads on the statistics
  fixture, the columnar engine matches the interpreter oracle row-for-row.
"""

from __future__ import annotations

import random

import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.database.statistics import collect_column_statistics
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.plan.cost import CostModel
from repro.plan.nodes import Filter, iter_nodes
from repro.workload import WorkloadGenerator

ROWS = 20_000
_CATEGORIES = ["Grocery", "Clothing", "Garden", "Toys", "Media", "Sports"]


def _sales_database(rows: int = ROWS) -> Database:
    schema = build_schema(
        "cost_model_test",
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
