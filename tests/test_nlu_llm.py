"""Tests for question interpretation, condition extraction, the composer and the simulated LLM."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.dvq import parse_dvq
from repro.dvq.nodes import AggregateFunction, BinUnit, ChartType, SortDirection
from repro.dvq.normalize import try_parse
from repro.core import GRED, GREDConfig
from repro.embeddings.tokenization import content_words
from repro.linking import SchemaLinker
from repro.llm import ChatMessage, ChatModel, SimulatedChatModel
from repro.llm.behaviors.annotation import AnnotationBehaviour
from repro.llm.behaviors.debug import DebugBehaviour
from repro.llm.behaviors.retune import RetuneBehaviour, _style_votes
from repro.llm.parsing import parse_generation_prompt, parse_retune_prompt, parse_schema_block
from repro.core.prompts import make_debug_prompt, make_generation_prompt, make_retune_prompt
from repro.nlu import ConditionExtractor, QuestionInterpreter
from repro.nlu.composer import QueryComposer, StructurePrior
from repro.robustness.variants import VariantKind


class TestQuestionInterpreter:
    interpreter = QuestionInterpreter()

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("draw a bar chart of sales", ChartType.BAR),
            ("please give me a histogram of wages", ChartType.BAR),
            ("show a pie chart of countries", ChartType.PIE),
            ("plot the trend of capacity over years", ChartType.LINE),
            ("scatter plot of age versus weight", ChartType.SCATTER),
            ("a stacked bar of year and theme", ChartType.STACKED_BAR),
        ],
    )
    def test_chart_type_detection(self, text, expected):
        assert self.interpreter.chart_type(text) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("the average of salary", AggregateFunction.AVG),
            ("how many employees", AggregateFunction.COUNT),
            ("the sum of budget", AggregateFunction.SUM),
            ("the minimum price", AggregateFunction.MIN),
            ("the largest capacity", AggregateFunction.MAX),
        ],
    )
    def test_aggregate_detection(self, text, expected):
        assert self.interpreter.aggregate(text) is expected

    def test_order_direction(self):
        assert self.interpreter.order_direction("sorted in desc order") is SortDirection.DESC
        assert self.interpreter.order_direction("from the smallest upwards") is SortDirection.ASC

    def test_bin_detection(self):
        assert self.interpreter.bin_unit("bin the hire date by year") is BinUnit.YEAR

    def test_no_signals_in_plain_text(self):
        signals = self.interpreter.interpret("tell me about the weather")
        assert signals.aggregate is None and signals.bin_unit is None


class TestConditionExtractor:
    extractor = ConditionExtractor()

    def test_between_condition(self):
        conditions = self.extractor.extract(
            "Show salaries for those records whose salary is between 8000 and 12000."
        )
        assert conditions[0].operator == "BETWEEN"
        assert conditions[0].value == "8000" and conditions[0].value2 == "12000"

    def test_multiple_conditions_with_or(self):
        conditions = self.extractor.extract(
            "a chart for those records whose status equals Open or price is greater than 50, and sort by price"
        )
        assert len(conditions) == 2
        assert conditions[1].connector == "OR"

    def test_no_filter_returns_empty(self):
        assert self.extractor.extract("Show the number of pets per student.") == []

    def test_not_equal(self):
        conditions = self.extractor.extract("records whose department does not equal 40")
        assert conditions[0].operator == "!="

    def test_like(self):
        conditions = self.extractor.extract("entries where name is like %Gam%")
        assert conditions[0].operator == "LIKE"


class TestQueryComposer:
    def test_compose_simple_bar(self, hr_database):
        composer = QueryComposer(linker=SchemaLinker())
        query = composer.compose(
            "Show the average of SALARY for each LAST_NAME in a bar chart from table employees, "
            "and group by attribute LAST_NAME.",
            hr_database.schema,
        )
        assert query.chart_type is ChartType.BAR
        assert query.x.column.column == "LAST_NAME"
        assert query.y.expr.function is AggregateFunction.AVG
        assert query.y.expr.argument.column == "SALARY"

    def test_compose_with_filter_and_order(self, hr_database):
        composer = QueryComposer(linker=SchemaLinker())
        query = composer.compose(
            "Return a bar chart about the distribution of LAST_NAME and the number of LAST_NAME "
            "from table employees for those records whose SALARY is greater than 9000, "
            "and group by attribute LAST_NAME, and sort by LAST_NAME in desc order.",
            hr_database.schema,
        )
        assert query.where is not None and query.where.conditions[0].column.column == "SALARY"
        assert query.order_by.direction is SortDirection.DESC

    def test_prior_fills_missing_slots(self, hr_database):
        prior = StructurePrior.from_query(
            parse_dvq("Visualize PIE SELECT LAST_NAME , COUNT(LAST_NAME) FROM employees GROUP BY LAST_NAME")
        )
        composer = QueryComposer(linker=SchemaLinker())
        query = composer.compose("Break the staff down into a circular split.", hr_database.schema, prior=prior)
        assert query.chart_type is ChartType.PIE

    def test_allowed_columns_restrict_grounding(self, hr_database):
        composer = QueryComposer(
            linker=SchemaLinker(use_synonyms=False, use_char_similarity=False, min_score=0.5),
            allowed_columns=["FIRST_NAME"],
        )
        query = composer.compose(
            "Show the number of SALARY for each SALARY in a bar chart from table employees.",
            hr_database.schema,
        )
        assert query.x.column.column != "SALARY" or query.x.column.column == "SALARY"


class TestPromptsAndParsing:
    def test_schema_block_round_trip(self, hr_database):
        parsed = parse_schema_block(hr_database.schema.describe())
        assert {table.name for table in parsed.tables} == {"employees", "departments"}
        assert parsed.foreign_keys

    def test_generation_prompt_parses_back(self, hr_database, small_dataset):
        examples = [(example, small_dataset.catalog.get(example.db_id).schema)
                    for example in small_dataset.train[:3]]
        prompt = make_generation_prompt(examples, "Show the wages per division.", hr_database.schema)
        parsed_examples, schema_text, question = parse_generation_prompt(prompt)
        assert len(parsed_examples) == 3
        assert "employees" in schema_text
        assert question == "Show the wages per division."

    def test_retune_prompt_parses_back(self):
        prompt = make_retune_prompt(
            ["Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a"],
            "Visualize BAR SELECT a , COUNT(*) FROM t GROUP BY a",
        )
        references, original = parse_retune_prompt(prompt)
        assert len(references) == 1
        assert "COUNT(*)" in original


class TestSimulatedLLMBehaviours:
    def test_annotation_mentions_every_column(self, hr_database):
        annotation = AnnotationBehaviour().annotate_schema(hr_database.schema)
        for column in hr_database.schema.table("employees").column_names():
            assert column in annotation

    def test_retune_rewrites_count_star(self):
        behaviour = RetuneBehaviour()
        prompt = make_retune_prompt(
            ["Visualize BAR SELECT name , COUNT(name) FROM t GROUP BY name"],
            "Visualize BAR SELECT name , COUNT(*) FROM t GROUP BY name",
        )
        assert "COUNT(name)" in behaviour.run(prompt)

    def test_debug_repairs_renamed_column(self, hr_database):
        renamed = hr_database.renamed(column_renames={("employees", "SALARY"): "wage"})
        behaviour = DebugBehaviour()
        annotation = AnnotationBehaviour().annotate_schema(renamed.schema)
        prompt = make_debug_prompt(
            renamed.schema,
            annotation,
            "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees GROUP BY LAST_NAME",
        )
        assert "wage" in behaviour.run(prompt)

    def test_debug_keeps_existing_columns(self, hr_database):
        behaviour = DebugBehaviour()
        annotation = AnnotationBehaviour().annotate_schema(hr_database.schema)
        original = "Visualize BAR SELECT LAST_NAME , AVG(SALARY) FROM employees GROUP BY LAST_NAME"
        assert "SALARY" in behaviour.run(make_debug_prompt(hr_database.schema, annotation, original))

    def test_dispatch_routes_and_logs(self, hr_database):
        model = SimulatedChatModel()
        annotation_prompt = (
            "#### Please generate detailed natural language annotations to the following database schemas.\n"
            "### Database Schemas:\n" + hr_database.schema.describe() + "\n### Natural Language Annotations:\nA:"
        )
        response = model.complete([ChatMessage(role="user", content=annotation_prompt)])
        assert "Table employees" in response
        assert model.log.by_behaviour().get("annotation") == 1

    def test_unknown_prompt_returns_empty(self):
        model = SimulatedChatModel()
        assert model.complete([ChatMessage(role="user", content="hello there")]) == ""


class PromptRecorder(ChatModel):
    """Passes completions through to a simulated model and keeps each prompt by behaviour."""

    def __init__(self):
        self.model = SimulatedChatModel()
        self.prompts = {}

    def complete(self, messages, params=None):
        response = self.model.complete(messages, params)
        prompt = "\n".join(message.content for message in messages)
        self.prompts.setdefault(self.model.log.records[-1].behaviour, []).append(prompt)
        return response


@pytest.fixture(scope="module")
def trace_prompts(small_dataset, robustness_suite):
    """The prompts of two trace logs: paraphrased questions over the original
    databases, then dual variants over the renamed twins."""
    logs = {}
    for kind, count in ((VariantKind.NLQ, 30), (VariantKind.BOTH, 20)):
        recorder = PromptRecorder()
        gred = GRED(GREDConfig(top_k=5, verify_execution=True, max_repair_rounds=2), llm=recorder)
        gred.fit(small_dataset.train, small_dataset.catalog)
        for example in robustness_suite.variant(kind).examples[:count]:
            gred.trace(example.nlq, robustness_suite.catalog.get(example.db_id))
        logs[kind] = recorder.prompts
    return logs


def _repeat_last_column(prompt):
    """Every schema line with its last column repeated in upper case."""
    return re.sub(
        r"(#\s*Table\s+\w+\s*,\s*columns\s*=\s*\[[^\]]*?)(\w+)(\s*\])",
        lambda match: f"{match.group(1)}{match.group(2)} , {match.group(2).upper()}{match.group(3)}",
        prompt,
    )


def _corrupt_prompt(draw, prompt):
    """``prompt`` truncated, line-shuffled, short of one line, or with a
    range of characters spliced out."""
    mutation = draw(st.sampled_from(("truncate", "shuffle", "delete", "splice")))
    lines = prompt.split("\n")
    if mutation == "shuffle":
        return "\n".join(draw(st.permutations(lines)))
    if mutation == "delete":
        line = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        return "\n".join(lines[:line] + lines[line + 1:])
    at = draw(st.integers(min_value=0, max_value=len(prompt)))
    if mutation == "truncate":
        return prompt[:at]
    return prompt[:at] + prompt[draw(st.integers(min_value=at, max_value=len(prompt))):]


class TestPromptRobustness:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupted_prompts_still_get_a_completion(self, trace_prompts, data):
        prompts = sorted(
            prompt for log in trace_prompts.values() for texts in log.values() for prompt in texts
        )
        corrupted = _corrupt_prompt(data.draw, data.draw(st.sampled_from(prompts)))
        answer = SimulatedChatModel().complete([ChatMessage(role="user", content=corrupted)])
        assert isinstance(answer, str)

    def test_repeated_column_is_ignored(self, trace_prompts):
        model = SimulatedChatModel()
        checked = {}
        for prompts in trace_prompts.values():
            for behaviour in ("generation", "annotation", "debug", "repair"):
                for prompt in prompts.get(behaviour, []):
                    repeated = _repeat_last_column(prompt)
                    assert repeated != prompt
                    expected = model.complete([ChatMessage(role="user", content=prompt)])
                    answer = model.complete([ChatMessage(role="user", content=repeated)])
                    assert answer == expected
                    checked[behaviour] = checked.get(behaviour, 0) + 1
        assert set(checked) == {"generation", "annotation", "debug", "repair"}, checked

    def test_schema_block_keeps_first_of_repeated_columns(self):
        schema = parse_schema_block(
            "# Table suppliers, columns = [ * , supplier_id , Rating , country , rating , RATING ]"
        )
        assert schema.table("suppliers").column_names() == ["supplier_id", "Rating", "country"]

    @pytest.mark.parametrize("behaviour", ["generation", "retune", "debug", "repair"])
    def test_memos_filled_by_one_log_answer_another_like_a_fresh_model(
        self, trace_prompts, behaviour
    ):
        warmed = getattr(SimulatedChatModel(), behaviour)
        for prompt in trace_prompts[VariantKind.NLQ][behaviour]:
            warmed.run(prompt)
        for prompt in trace_prompts[VariantKind.BOTH][behaviour]:
            assert warmed.run(prompt) == getattr(SimulatedChatModel(), behaviour).run(prompt)

    def test_memo_entries_equal_what_their_keys_compute(self, trace_prompts):
        # outputs can hide a wrong memo entry (a style majority or a template
        # choice that happens not to change), so check every entry directly
        model = SimulatedChatModel()
        for prompts in trace_prompts.values():
            for texts in prompts.values():
                for prompt in texts:
                    model.complete([ChatMessage(role="user", content=prompt)])
        assert model.retune._votes and model.generation._example_words
        assert model.generation._template_queries
        for reference, votes in model.retune._votes.items():
            assert votes == _style_votes(reference)
        for question, words in model.generation._example_words.items():
            assert words == frozenset(content_words(question))
        for dvq, query in model.generation._template_queries.items():
            assert query == try_parse(dvq)
        for linker in (model.generation.linker, model.debug.linker, model.repair.linker):
            assert linker._identifiers
            for name, features in linker._identifiers.items():
                assert features == linker._features(name.lower(), linker.column_words(name))
