"""Tests for the nvBench-Rob construction (synonyms, rewriter, renamer, suite)."""

import pytest

from repro.dvq import parse_dvq
from repro.executor import DVQExecutor
from repro.robustness import (
    NLQRewriter,
    SchemaRenamer,
    VariantKind,
    default_lexicon,
)
from repro.robustness.synonyms import SynonymLexicon


def scanned_related_words(lexicon, word):
    """Reference: the two scans over the lexicon that the index replaces."""
    word = word.lower()
    related = {word}
    related.update(lexicon.word_synonyms.get(word, []))
    for source, targets in lexicon.word_synonyms.items():
        if word in targets:
            related.add(source)
            related.update(targets)
    expansion = lexicon.abbreviations.get(word)
    if expansion:
        related.add(expansion)
    for full, abbreviated in lexicon.abbreviations.items():
        if word == abbreviated:
            related.add(full)
    return sorted(related)


def lexicon_words(lexicon):
    words = set(lexicon.abbreviations) | set(lexicon.abbreviations.values())
    for source, targets in lexicon.word_synonyms.items():
        words.add(source)
        words.update(targets)
    return sorted(words)


class TestSynonymLexicon:
    def test_known_word_has_synonyms(self):
        assert "wage" in default_lexicon().synonyms_for("salary")

    def test_unknown_word_has_no_synonyms(self):
        assert default_lexicon().synonyms_for("qwertyuiop") == []

    def test_related_words_are_symmetric(self):
        lexicon = default_lexicon()
        assert lexicon.are_related("salary", "wage")
        assert lexicon.are_related("wage", "salary")

    def test_abbreviations_are_related(self):
        assert default_lexicon().are_related("department", "dept")

    def test_identical_words_are_related(self):
        assert default_lexicon().are_related("city", "CITY")

    @pytest.mark.parametrize(
        "lexicon",
        [
            default_lexicon(),
            # "pay" is a target of two sources, a source itself and an
            # abbreviation; "id" has an empty abbreviation
            SynonymLexicon(
                word_synonyms={
                    "salary": ["wage", "pay"],
                    "income": ["pay", "earnings"],
                    "pay": ["salary"],
                },
                abbreviations={"payment": "pay", "salary": "sal", "id": ""},
            ),
        ],
        ids=["default", "custom"],
    )
    def test_related_words_match_the_lexicon_scan(self, lexicon):
        words = lexicon_words(lexicon)
        assert len(words) > 5
        queries = words + [word.upper() for word in words] + ["qwertyuiop", "Unknown", ""]
        for word in queries:
            assert lexicon.related_words(word) == scanned_related_words(lexicon, word), word

    def test_related_words_returns_a_fresh_list(self):
        lexicon = default_lexicon()
        lexicon.related_words("salary").append("mutated")
        assert "mutated" not in lexicon.related_words("salary")


class TestNLQRewriter:
    def test_rewrite_changes_the_question(self, small_dataset):
        rewriter = NLQRewriter()
        example = small_dataset.test[0]
        result = rewriter.rewrite(example.nlq, key=example.example_id)
        assert result.rewritten != result.original

    def test_rewrite_is_deterministic(self, small_dataset):
        example = small_dataset.test[0]
        first = NLQRewriter(seed=4).rewrite(example.nlq, key="k")
        second = NLQRewriter(seed=4).rewrite(example.nlq, key="k")
        assert first.rewritten == second.rewritten

    def test_aggressive_rewrite_removes_explicit_column_mentions(self, small_dataset):
        rewriter = NLQRewriter(word_probability=1.0, phrase_probability=1.0)
        removed = 0
        checked = 0
        for example in small_dataset.test[:30]:
            query = parse_dvq(example.dvq)
            column = query.x.column.column
            if "_" not in column or column.lower() not in example.nlq.lower():
                continue
            checked += 1
            result = rewriter.rewrite(example.nlq, key=example.example_id)
            if column.lower() not in result.rewritten.lower():
                removed += 1
        if checked:
            assert removed / checked > 0.7

    def test_numbers_are_preserved(self):
        rewriter = NLQRewriter(word_probability=1.0, phrase_probability=1.0)
        result = rewriter.rewrite("Show records whose salary is between 8000 and 12000.", key="n")
        assert "8000" in result.rewritten and "12000" in result.rewritten


class TestSchemaRenamer:
    def test_plan_covers_every_column(self, hr_database):
        plan = SchemaRenamer(seed=2).plan_for(hr_database)
        expected = {(t.name, c.name) for t in hr_database.schema.tables for c in t.columns}
        assert set(plan.column_renames) == expected

    def test_renamed_database_keeps_row_counts(self, hr_database):
        renamer = SchemaRenamer(seed=2)
        renamed, _plan = renamer.apply_to_database(hr_database)
        assert renamed.row_count() == hr_database.row_count()
        assert renamed.name.endswith("_robust")

    def test_rename_rate_is_substantial(self, hr_database):
        _renamed, plan = SchemaRenamer(seed=2).apply_to_database(hr_database)
        assert plan.rename_rate() > 0.15

    def test_rename_rate_scales_with_probability(self, hr_database):
        aggressive = SchemaRenamer(seed=2, rename_probability=1.0).plan_for(hr_database)
        gentle = SchemaRenamer(seed=2, rename_probability=0.1).plan_for(hr_database)
        assert aggressive.rename_rate() >= gentle.rename_rate()

    def test_no_duplicate_column_names_after_rename(self, hr_database):
        renamed, _plan = SchemaRenamer(seed=2).apply_to_database(hr_database)
        for table in renamed.schema.tables:
            names = [column.name.lower() for column in table.columns]
            assert len(names) == len(set(names))

    def test_rewritten_gold_dvq_executes_on_renamed_database(self, hr_database):
        renamer = SchemaRenamer(seed=2)
        renamed, plan = renamer.apply_to_database(hr_database)
        dvq = "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees GROUP BY LAST_NAME"
        rewritten = renamer.rewrite_dvq(dvq, plan)
        DVQExecutor().execute(parse_dvq(rewritten), renamed)

    def test_plan_is_deterministic(self, hr_database):
        first = SchemaRenamer(seed=9).plan_for(hr_database)
        second = SchemaRenamer(seed=9).plan_for(hr_database)
        assert first.column_renames == second.column_renames


class TestRobustnessSuite:
    def test_suite_has_three_variant_sets_of_equal_size(self, robustness_suite):
        sizes = {
            len(robustness_suite.original),
            len(robustness_suite.nlq_variant),
            len(robustness_suite.schema_variant),
            len(robustness_suite.dual_variant),
        }
        assert len(sizes) == 1

    def test_nlq_variant_keeps_gold_dvq(self, robustness_suite):
        for original, variant in zip(robustness_suite.original, robustness_suite.nlq_variant):
            assert original.dvq == variant.dvq
            assert original.db_id == variant.db_id

    def test_schema_variant_points_to_renamed_databases(self, robustness_suite):
        assert all(example.db_id.endswith("_robust") for example in robustness_suite.schema_variant)

    def test_dual_variant_combines_both_perturbations(self, robustness_suite):
        for nlq_var, dual in zip(robustness_suite.nlq_variant, robustness_suite.dual_variant):
            assert nlq_var.nlq == dual.nlq
        for schema_var, dual in zip(robustness_suite.schema_variant, robustness_suite.dual_variant):
            assert schema_var.dvq == dual.dvq

    def test_catalog_contains_original_and_renamed_databases(self, robustness_suite):
        renamed = [name for name in robustness_suite.catalog.names() if name.endswith("_robust")]
        assert renamed
        assert len(robustness_suite.catalog) > len(renamed)

    def test_schema_variant_gold_queries_execute(self, robustness_suite):
        executor = DVQExecutor()
        for example in robustness_suite.schema_variant.examples[:60]:
            database = robustness_suite.catalog.get(example.db_id)
            executor.execute(parse_dvq(example.dvq), database)

    def test_variant_lookup(self, robustness_suite):
        assert robustness_suite.variant(VariantKind.NLQ) is robustness_suite.nlq_variant
        assert set(robustness_suite.all_variants()) == set(VariantKind)
