"""The columnar engine's vectorized kernels against their scalar fallbacks.

The engine has one execution path: each operator runs a serial vectorized
kernel that either returns exactly what its per-operator scalar fallback
would, or declines with ``None`` so the fallback runs instead.  The
differential fuzz checks whole queries; these tests pin that contract kernel
by kernel, on the inputs where the two are easiest to tell apart — NULL- and
NaN-bearing columns, mixed number types, case variants, heavy ties, empty
groups, single-group skew and top-k cuts on a tied pivot:

* group encode (``ColumnarEngine._group_ids``) vs dict grouping over row
  tuples, numbered first-seen;
* grouped aggregates (:func:`grouped_aggregate_vector`) vs
  :func:`apply_aggregate` folded over each group's members in row order;
* equi-join indices (``_vector_join_indices``) vs ``_scalar_join_indices``,
  hashed and nested-loop;
* sort codes + :func:`sort_order` vs a stable ``sorted`` on the scalar keys;
* :func:`topk_order` vs the head of that scalar sort.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.database.schema import ColumnType
from repro.database.typed import build_typed_column
from repro.executor.columnar import (
    ColumnarEngine,
    _Batch,
    _LazyColumn,
    _scalar_join_indices,
    _vector_join_indices,
)
from repro.executor.functions import apply_aggregate, grouped_aggregate_vector
from repro.executor.ordering import (
    encode_sort_key,
    legacy_order_key,
    sort_order,
    topk_order,
    value_sort_key,
)
from repro.plan.nodes import ResolvedColumn

NAN = float("nan")


# -- group encode ------------------------------------------------------------


def engine_group_ids(*columns):
    """``ColumnarEngine._group_ids`` grouping one table's ``columns``."""
    keys = tuple(
        ResolvedColumn(table="t", effective="t", column=f"c{index}", ctype=ColumnType.NUMBER)
        for index in range(len(columns))
    )
    batch = _Batch(
        len(columns[0]),
        {
            key.key(): _LazyColumn(build_typed_column(list(values)))
            for key, values in zip(keys, columns)
        },
    )
    # _group_ids reads only the node's keys
    return ColumnarEngine()._group_ids(SimpleNamespace(keys=keys), batch)


def scalar_group_ids(*columns):
    """The scalar path's grouping: dict keys over row tuples, first-seen."""
    groups = {}
    first_rows = []
    gid = []
    for row, key in enumerate(zip(*columns)):
        group = groups.setdefault(key, len(groups))
        if group == len(first_rows):
            first_rows.append(row)
        gid.append(group)
    return gid, first_rows, len(groups)


def assert_same_groups(*columns):
    gid, first_rows, count = engine_group_ids(*columns)
    exp_gid, exp_first, exp_count = scalar_group_ids(*columns)
    assert count == exp_count
    assert gid.tolist() == exp_gid
    assert first_rows.tolist() == exp_first


class TestGroupEncode:
    @pytest.mark.parametrize("cardinality", (1, 7, 64))
    @pytest.mark.parametrize("null_fraction", (0.0, 0.2, 1.0))
    def test_number_keys_match_first_seen_grouping(self, cardinality, null_fraction):
        rng = random.Random(cardinality * 10 + int(null_fraction * 10))
        values = [
            None if rng.random() < null_fraction else rng.randrange(cardinality)
            for _ in range(500)
        ]
        assert_same_groups(values)

    def test_multi_key_combine_matches_tuple_grouping(self):
        rng = random.Random(3)
        key_a = [rng.randrange(6) for _ in range(400)]
        key_b = [None if rng.random() < 0.15 else float(rng.randrange(7)) for _ in range(400)]
        key_c = [f"tag {rng.randrange(3)}" for _ in range(400)]
        assert_same_groups(key_a, key_b, key_c)

    def test_text_keys_are_exact_and_case_sensitive(self):
        rng = random.Random(9)
        values = [
            None if rng.random() < 0.1 else rng.choice(["name", "Name"]) + f" {rng.randrange(12)}"
            for _ in range(300)
        ]
        assert_same_groups(values)

    def test_equal_numbers_of_different_types_share_a_group(self):
        # dict keys merge 1 == 1.0 == True and 0 == -0.0 == False; so must the
        # float64 codes
        values = [1, 1.0, True, 0, -0.0, False, 0.0, None, 2, 2.5, None, 1]
        assert_same_groups(values)
        assert engine_group_ids(values)[2] == 5

    def test_nan_and_mixed_keys_group_by_identity_or_equality(self):
        # NaN equals nothing, but a dict key lookup matches it by identity:
        # the shared NaN object forms one group, each fresh NaN its own
        shared = NAN
        values = [shared, 1.0, "one", shared, float("nan"), 1, None, "one", float("nan")]
        assert_same_groups(values)


# -- grouped aggregates ------------------------------------------------------


def scalar_fold(name, column, gid, group_count, distinct=False):
    """The scalar aggregate over each group's member values, in row order."""
    members = {group: [] for group in range(group_count)}
    for row, group in enumerate(gid.tolist()):
        members[group].append(column.objects[row])
    return [
        apply_aggregate(name, members[group], distinct=distinct)
        for group in range(group_count)
    ]


def assert_values_equal(actual, expected):
    """Element-for-element equal, same types, NaN matching NaN."""
    assert actual is not None
    assert len(actual) == len(expected)
    for left, right in zip(actual, expected):
        if isinstance(left, float) and isinstance(right, float) and math.isnan(left):
            assert math.isnan(right)
        else:
            assert left == right and type(left) is type(right)


def assert_kernel_matches_fold(name, column, gid, group_count, distinct=False):
    assert_values_equal(
        grouped_aggregate_vector(name, column, gid, group_count, distinct=distinct),
        scalar_fold(name, column, gid, group_count, distinct=distinct),
    )


class TestGroupedAggregateKernel:
    """:func:`grouped_aggregate_vector` against the scalar ``apply_aggregate``."""

    @pytest.mark.parametrize("name", ("SUM", "AVG"))
    def test_non_integral_sums_are_bit_identical(self, name):
        # fractional values make float addition order-sensitive: the kernel
        # must add each group's values in row order, like the scalar fold
        rng = np.random.default_rng(11)
        column = build_typed_column((rng.random(600) * 10 - 5).tolist())
        gid = np.asarray(rng.integers(0, 9, size=600), dtype=np.intp)
        assert_kernel_matches_fold(name, column, gid, 9)

    @pytest.mark.parametrize("name", ("COUNT", "SUM", "AVG", "MIN", "MAX"))
    def test_integer_values_with_nulls(self, name):
        rng = np.random.default_rng(12)
        values = rng.integers(-1000, 1000, size=500).tolist()
        column = build_typed_column(
            [None if index % 17 == 0 else value for index, value in enumerate(values)]
        )
        gid = np.asarray(rng.integers(0, 5, size=500), dtype=np.intp)
        assert_kernel_matches_fold(name, column, gid, 5)

    @pytest.mark.parametrize("name", ("COUNT", "SUM", "AVG"))
    def test_distinct_dedupes_within_each_group(self, name):
        # integral values sum exactly in any order, so DISTINCT SUM/AVG are
        # bit-identical here too
        rng = np.random.default_rng(13)
        column = build_typed_column(rng.integers(0, 8, size=400).astype(float).tolist())
        gid = np.asarray(rng.integers(0, 4, size=400), dtype=np.intp)
        assert_kernel_matches_fold(name, column, gid, 4, distinct=True)

    @pytest.mark.parametrize(
        "name, distinct",
        [
            ("COUNT", False), ("COUNT", True), ("SUM", False),
            ("AVG", False), ("MIN", False), ("MAX", False),
        ],
    )
    def test_groups_without_rows_or_values(self, name, distinct):
        # group 2 has no rows and group 3 only a NULL: the fold gives 0/None
        column = build_typed_column([1.0, None, 3.0, 1.0, None, 7.0, 2.0, 2.0])
        gid = np.asarray([0, 0, 1, 1, 3, 4, 4, 4], dtype=np.intp)
        assert_kernel_matches_fold(name, column, gid, 5, distinct=distinct)

    @pytest.mark.parametrize("name", ("COUNT", "SUM", "AVG", "MIN", "MAX"))
    def test_single_group_skew(self, name):
        rng = np.random.default_rng(14)
        column = build_typed_column((rng.random(300) * 100).tolist())
        assert_kernel_matches_fold(name, column, np.zeros(300, dtype=np.intp), 1)

    @pytest.mark.parametrize("group_count", (1, 3, 4))
    def test_nan_led_min_max_matches_scalar_fold(self, group_count):
        # NaN loses every comparison in the scalar fold: a group keeps NaN
        # only when NaN is its first value
        values = [
            NAN, 2.0, 5.0, NAN, 1.0,
            3.0, NAN, None, 4.0, NAN,
        ] * 12
        column = build_typed_column(values)
        gid = np.asarray(
            [index % group_count for index in range(len(values))], dtype=np.intp
        )
        for name in ("MIN", "MAX"):
            assert_kernel_matches_fold(name, column, gid, group_count)

    def test_count_distinct_counts_nans_by_identity(self):
        # set() dedups NaN by identity: rows 0 and 2 share one NaN object, so
        # group 0 holds {nan(a), 1.0, nan(b)} and group 1 {2.0, nan(c), 1.0}
        values = [NAN, 1.0, NAN, 2.0, float("nan"), 1.0, None, float("nan")]
        column = build_typed_column(values)
        gid = np.asarray([0, 0, 0, 1, 1, 1, 0, 0], dtype=np.intp)
        expected = scalar_fold("COUNT", column, gid, 2, distinct=True)
        assert expected == [3, 3]
        assert grouped_aggregate_vector("COUNT", column, gid, 2, distinct=True) == expected

    @pytest.mark.parametrize("name, distinct", [("MIN", False), ("MAX", False), ("COUNT", True)])
    def test_text_values_compare_case_sensitively(self, name, distinct):
        rng = random.Random(15)
        column = build_typed_column(
            [
                None if rng.random() < 0.1 else rng.choice(["apple", "Apple", "Zebra", ""])
                for _ in range(200)
            ]
        )
        gid = np.asarray([rng.randrange(6) for _ in range(200)], dtype=np.intp)
        assert_kernel_matches_fold(name, column, gid, 6, distinct=distinct)

    def test_mixed_number_text_column_declines(self):
        mixed = build_typed_column([1, "two", 3, "four"] * 10)
        gid = np.zeros(40, dtype=np.intp)
        for name in ("SUM", "MIN"):
            assert grouped_aggregate_vector(name, mixed, gid, 1) is None


# -- equi-join indices -------------------------------------------------------


def assert_join_matches_scalar(probe, build):
    actual = _vector_join_indices(probe, build)
    assert actual is not None
    for hashed in (True, False):
        expected = _scalar_join_indices(probe.objects, build.objects, hashed)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1])


class TestJoinIndices:
    @pytest.mark.parametrize("key_range", (1, 20, 200))
    @pytest.mark.parametrize("null_fraction", (0.0, 0.05))
    def test_number_keys_match_the_scalar_join(self, key_range, null_fraction):
        rng = random.Random(key_range)
        probe, build = (
            build_typed_column(
                [
                    None if rng.random() < null_fraction else rng.randrange(key_range)
                    for _ in range(size)
                ]
            )
            for size in (300, 250)
        )
        assert_join_matches_scalar(probe, build)

    def test_text_keys_are_exact_and_case_sensitive(self):
        rng = random.Random(5)
        probe, build = (
            build_typed_column(
                [rng.choice(["key", "Key"]) + f" {rng.randrange(span)}" for _ in range(size)]
            )
            for size, span in ((300, 30), (200, 40))
        )
        assert_join_matches_scalar(probe, build)

    def test_equal_numbers_of_different_types_match(self):
        probe = build_typed_column([1, 2.0, True, None, 0, 3])
        build = build_typed_column([1.0, 2, 0.0, False, None, 1, 4])
        assert_join_matches_scalar(probe, build)

    def test_empty_and_all_null_sides_join_to_nothing(self):
        keys = build_typed_column([1, 2, 3])
        for probe, build in (
            (build_typed_column([]), keys),
            (keys, build_typed_column([None, None])),
        ):
            assert_join_matches_scalar(probe, build)
            assert _vector_join_indices(probe, build)[0].size == 0

    def test_mixed_kind_sides_are_an_empty_join(self):
        numbers = build_typed_column(list(range(200)))
        text = build_typed_column([str(index) for index in range(200)])
        assert_join_matches_scalar(numbers, text)
        assert _vector_join_indices(numbers, text)[0].size == 0

    def test_nan_and_object_keys_decline(self):
        plain = build_typed_column([1.0, 2.0])
        nan_keys = build_typed_column([1.0, NAN])
        mixed = build_typed_column([1, "one"])
        assert _vector_join_indices(nan_keys, plain) is None
        assert _vector_join_indices(plain, nan_keys) is None
        assert _vector_join_indices(mixed, plain) is None


# -- sort codes and sort / top-k order ---------------------------------------


def sort_corpus(seed: int, length: int):
    """(numbers, texts): duplicates, NaN, NULL, signed zeros and infinities."""
    rng = random.Random(seed)
    numbers = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.08:
            numbers.append(None)
        elif roll < 0.16:
            numbers.append(float("nan"))
        elif roll < 0.24:
            numbers.append(rng.choice([-0.0, 0.0, float("inf"), -float("inf")]))
        else:
            # a small value pool so sort keys and pivots land on heavy ties
            numbers.append(rng.choice([-3.5, 2.25, float(rng.randrange(12))]))
    texts = [
        None if rng.random() < 0.1 else rng.choice(["Label", "label"]) + f" {rng.randrange(7)}"
        for _ in range(length)
    ]
    return numbers, texts


def codes_of(values, legacy=False):
    codes = encode_sort_key(build_typed_column(values), legacy=legacy)
    assert codes is not None
    return codes


def scalar_sorted(numbers, texts, descending=False):
    """A stable ``sorted`` by number (either direction), then text ascending."""
    by_text = sorted(range(len(numbers)), key=lambda row: value_sort_key(texts[row]))
    return sorted(
        by_text, key=lambda row: value_sort_key(numbers[row]), reverse=descending
    )


class TestSortOrder:
    @pytest.mark.parametrize("length", (10, 100, 1000))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matches_the_scalar_sort(self, length, seed):
        numbers, texts = sort_corpus(seed, length)
        actual = sort_order(codes_of(numbers), (codes_of(texts),))
        assert actual.tolist() == scalar_sorted(numbers, texts)

    def test_descending_via_inverted_codes(self):
        numbers, texts = sort_corpus(3, 800)
        actual = sort_order(~codes_of(numbers), (codes_of(texts),))
        assert actual.tolist() == scalar_sorted(numbers, texts, descending=True)

    def test_no_secondaries_breaks_ties_by_row_order(self):
        numbers, _ = sort_corpus(4, 600)
        expected = sorted(range(600), key=lambda row: value_sort_key(numbers[row]))
        assert sort_order(codes_of(numbers), ()).tolist() == expected

    @pytest.mark.parametrize("column", ("numbers", "texts"))
    def test_legacy_codes_follow_the_legacy_key(self, column):
        values = dict(zip(("numbers", "texts"), sort_corpus(5, 500)))[column]
        expected = sorted(range(500), key=lambda row: legacy_order_key(values[row]))
        assert sort_order(codes_of(values, legacy=True), ()).tolist() == expected

    def test_constant_keys_keep_row_order(self):
        primary = np.full(400, np.uint64(7))
        assert sort_order(primary, (primary,)).tolist() == list(range(400))


class TestTopkOrder:
    @pytest.mark.parametrize("count", (1, 7, 64, 999, 1000, 1500))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_is_the_head_of_the_scalar_sort(self, count, seed):
        numbers, texts = sort_corpus(seed, 1000)
        actual = topk_order(codes_of(numbers), [codes_of(texts)], count)
        assert actual.tolist() == scalar_sorted(numbers, texts)[:count]

    def test_pivot_boundary_ties_are_cut_like_the_full_sort(self):
        # three distinct codes: the k-th smallest is tied with hundreds of
        # rows, so the cut falls inside a tie block resolved by the
        # secondary key and then by row order
        rng = np.random.default_rng(8)
        primary = rng.integers(0, 3, size=900).astype(np.uint64)
        secondary = rng.integers(0, 2, size=900).astype(np.uint64)
        full = sort_order(primary, [secondary])
        for count in (5, 300, 600):
            actual = topk_order(primary, [secondary], count)
            np.testing.assert_array_equal(actual, full[:count])

    def test_non_positive_counts_select_nothing(self):
        numbers, texts = sort_corpus(6, 50)
        for count in (0, -1):
            assert topk_order(codes_of(numbers), [codes_of(texts)], count).size == 0
