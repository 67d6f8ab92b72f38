"""NaN ordering regressions: deterministic rank between numbers and text.

A NaN inside a Python sort-key tuple breaks the total order (every ``<``
involving NaN is False), which historically made ORDER BY, the LIMIT top-k
cut and :func:`~repro.executor.backend.normalize_result` depend on input
order whenever a NaN reached the sort column.  The fix ranks NaN as its own
type between the finite numbers and the strings; these tests pin that rank
and prove input-order independence across the row engines.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.database.database import Database
from repro.database.schema import ColumnType, build_schema
from repro.database.typed import build_typed_column
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.executor.backend import normalize_result
from repro.executor.executor import ExecutionResult
from repro.executor.ordering import (
    canonical_sorted,
    canonical_top_k,
    encode_sort_key,
    legacy_order_key,
    value_sort_key,
)

NAN = float("nan")

#: (READING_ID, VALUE) rows covering every rank: finite numbers, NaN, NULL.
_ROWS = [
    (index + 1, value)
    for index, value in enumerate(
        [7.5, NAN, None, -3, NAN, 0, None, 2.25, float("inf"), -float("inf")]
    )
]


def _database(rows):
    schema = build_schema(
        "nan_db",
        [
            (
                "readings",
                [
                    ("READING_ID", ColumnType.NUMBER, "id"),
                    ("VALUE", ColumnType.NUMBER, "rating"),
                ],
            )
        ],
    )
    database = Database(schema)
    database.table("readings").extend(
        [{"READING_ID": reading_id, "VALUE": value} for reading_id, value in rows]
    )
    return database


def _permutations(rows, count=4):
    """The original rows plus seeded shuffles — IDs stay paired with values."""
    rng = random.Random(17)
    yield list(rows)
    for _ in range(count):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        yield shuffled


class TestValueRanks:
    def test_nan_ranks_after_finite_numbers_and_before_text(self):
        assert value_sort_key(1e300)[0] < value_sort_key(NAN)[0]
        assert value_sort_key(NAN)[0] < value_sort_key("aardvark")[0]
        assert value_sort_key("zz")[0] < value_sort_key(None)[0]

    def test_every_nan_maps_to_the_same_key(self):
        assert value_sort_key(NAN) == value_sort_key(float("nan"))
        assert legacy_order_key(NAN) == legacy_order_key(float("nan"))

    def test_infinities_stay_ordinary_numbers(self):
        assert value_sort_key(float("inf"))[0] == value_sort_key(0)[0]
        assert value_sort_key(-float("inf")) < value_sort_key(0) < value_sort_key(
            float("inf")
        )

    def test_legacy_key_is_a_total_order_over_mixed_values(self):
        values = [2, NAN, None, "zebra", 7.5, NAN, "apple", None, -3, True]
        baseline = [legacy_order_key(v) for v in sorted(values, key=legacy_order_key)]
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(values)
            rng.shuffle(shuffled)
            resorted = [
                legacy_order_key(v) for v in sorted(shuffled, key=legacy_order_key)
            ]
            assert resorted == baseline


@pytest.mark.parametrize(
    "engine_factory",
    [
        pytest.param(InterpreterBackend, id="interpreter"),
        pytest.param(lambda: ColumnarBackend(optimize=True), id="columnar"),
        pytest.param(
            lambda: ColumnarBackend(optimize=True, vectorize=False),
            id="columnar-python",
        ),
    ],
)
class TestEngineOrderByWithNaN:
    """Same ID sequence on every engine, for every input permutation."""

    def _ids(self, engine, values, text):
        result = engine.execute(parse_dvq(text), _database(values))
        return [row[0] for row in result.rows]

    def test_order_by_ascending_is_deterministic(self, engine_factory):
        text = "Visualize BAR SELECT READING_ID , VALUE FROM readings ORDER BY VALUE"
        reference = self._ids(InterpreterBackend(), _ROWS, text)
        engine = engine_factory()
        for permutation in _permutations(_ROWS):
            ids = self._ids(engine, permutation, text)
            assert sorted(ids) == sorted(reference)
            assert ids == reference

    def test_top_k_cut_is_deterministic(self, engine_factory):
        text = (
            "Visualize BAR SELECT READING_ID , VALUE FROM readings "
            "ORDER BY VALUE DESC LIMIT 4"
        )
        reference = self._ids(InterpreterBackend(), _ROWS, text)
        engine = engine_factory()
        assert len(reference) == 4
        for permutation in _permutations(_ROWS):
            assert self._ids(engine, permutation, text) == reference


class TestNormalizeResultWithNaN:
    def test_row_order_is_input_order_independent(self):
        query = parse_dvq("Visualize BAR SELECT READING_ID , VALUE FROM readings")
        baseline = None
        rng = random.Random(3)
        for _ in range(6):
            shuffled = list(_ROWS)
            rng.shuffle(shuffled)
            result = normalize_result(
                ExecutionResult(
                    columns=["READING_ID", "VALUE"], rows=shuffled, chart_type="BAR"
                ),
                query,
            )
            ids = [row[0] for row in result.rows]
            if baseline is None:
                baseline = ids
            assert ids == baseline

    def test_nan_survives_normalisation_as_nan(self):
        query = parse_dvq("Visualize BAR SELECT READING_ID , VALUE FROM readings")
        result = normalize_result(
            ExecutionResult(columns=["READING_ID", "VALUE"],
                            rows=[(1, NAN)], chart_type="BAR"),
            query,
        )
        assert math.isnan(result.rows[0][1])


class TestSortKeyEncoding:
    """The uint64 codes must be order-isomorphic to the scalar keys.

    Exact isomorphism — not mere monotonicity — is what the vectorized Sort
    and top-k kernels rely on: ``~code`` as the descending key and the
    pivot-tie candidate set ``code <= pivot`` are only correct when codes tie
    exactly where the scalar keys tie.
    """

    _NUMBERS = [
        7.5, NAN, None, -3, NAN, 0, 0.0, -0.0, 2.25, float("inf"),
        -float("inf"), 1e300, -1e300, 5e-324, -5e-324, 1.0, True, False, None,
    ]

    def test_number_codes_are_isomorphic_to_the_scalar_key(self):
        codes = encode_sort_key(build_typed_column(self._NUMBERS))
        assert codes is not None and codes.dtype == np.uint64
        keys = [value_sort_key(value) for value in self._NUMBERS]
        for i, left in enumerate(keys):
            for j, right in enumerate(keys):
                assert (codes[i] < codes[j]) == (left < right), (i, j)
                assert (codes[i] == codes[j]) == (left == right), (i, j)

    def test_number_rank_order_is_finite_nan_null(self):
        codes = encode_sort_key(build_typed_column([1e308, NAN, None]))
        assert codes[0] < codes[1] < codes[2]
        # +inf is still an ordinary number: below NaN, below NULL
        inf_codes = encode_sort_key(build_typed_column([float("inf"), NAN, None]))
        assert inf_codes[0] < inf_codes[1] < inf_codes[2]

    def test_text_codes_match_canonical_and_legacy_keys(self):
        values = ["Apple", "apple", "Banana", None, "apple", "zebra", "", "Zebra"]
        column = build_typed_column(values)
        canonical = encode_sort_key(column)
        legacy = encode_sort_key(column, legacy=True)
        canonical_keys = [value_sort_key(value) for value in values]
        legacy_keys = [legacy_order_key(value) for value in values]
        for i in range(len(values)):
            for j in range(len(values)):
                assert (canonical[i] < canonical[j]) == (
                    canonical_keys[i] < canonical_keys[j]
                ), (i, j)
                assert (legacy[i] < legacy[j]) == (
                    legacy_keys[i] < legacy_keys[j]
                ), (i, j)

    def test_object_kind_columns_decline(self):
        mixed = build_typed_column([1, "two", 3.0, None])
        assert encode_sort_key(mixed) is None
        assert encode_sort_key(mixed, legacy=True) is None

    def test_bool_bearing_number_columns_decline_only_under_legacy(self):
        # legacy_order_key sorts bools as the text "true"/"false", which the
        # float64 shadow (1.0/0.0) cannot reproduce — so the legacy encoding
        # must decline while the canonical one (bool == number) encodes
        column = build_typed_column([1.0, True, 0.0, False, None])
        assert column.has_bool
        assert encode_sort_key(column, legacy=True) is None
        assert encode_sort_key(column) is not None

    def test_empty_columns_encode_to_empty_codes(self):
        codes = encode_sort_key(build_typed_column([]))
        assert codes is not None and codes.size == 0


class TestCanonicalTopK:
    _ROWS = [
        (index, value)
        for index, value in enumerate(
            [7.5, NAN, None, -3, NAN, 0, 2.25, float("inf"), -float("inf"),
             7.5, None, 2.25]
        )
    ]

    @pytest.mark.parametrize("count", (0, 1, 3, 11, 12, 50))
    @pytest.mark.parametrize("descending", (False, True))
    def test_equals_the_full_sort_prefix(self, count, descending):
        expected = canonical_sorted(self._ROWS, index=1, descending=descending)
        actual = canonical_top_k(self._ROWS, count, index=1, descending=descending)
        assert actual == expected[:count]

    def test_without_an_order_column_it_cuts_the_canonical_order(self):
        expected = canonical_sorted(self._ROWS)
        for count in (1, 5, len(self._ROWS)):
            assert canonical_top_k(self._ROWS, count) == expected[:count]
