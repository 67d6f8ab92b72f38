"""Few-shot DVQ generation behaviour (the NLQ-Retrieval Generator's LLM call).

The behaviour mimics in-context learning: it adopts the structure of the most
relevant retrieved example, reads the chart intent from the target question and
grounds slots against the schema block included in the prompt.  Like the real
LLM, it tends to *hallucinate the retrieved example's column names* when the
question no longer names the schema explicitly — the failure mode GRED's
debugger exists to repair.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.dvq.nodes import AggregateExpr, AggregateFunction, ColumnRef, DVQuery, SelectItem
from repro.dvq.normalize import try_parse
from repro.dvq.serializer import serialize_dvq
from repro.embeddings.tokenization import content_words
from repro.linking.linker import SchemaLinker
from repro.llm.parsing import PromptExample, parse_generation_prompt
from repro.nlu.composer import QueryComposer, StructurePrior
from repro.robustness.synonyms import SynonymLexicon, default_lexicon


class GenerationBehaviour:
    """Produces a DVQ from a generation prompt."""

    name = "generation"

    def __init__(self, lexicon: Optional[SynonymLexicon] = None,
                 count_star_style: bool = True):
        self.lexicon = lexicon or default_lexicon()
        # The generator grounds slots the way in-context learning does: by
        # surface similarity against the prompt schema (no synonym knowledge).
        # When grounding fails it keeps the retrieved example's column names —
        # the hallucination the Annotation-based Debugger exists to repair.
        self.linker = SchemaLinker(lexicon=self.lexicon, use_synonyms=True,
                                   use_char_similarity=True, min_score=0.5)
        # stylistic quirk deliberately kept for a fraction of outputs: the raw
        # generation writes COUNT(*) where nvBench writes COUNT(<column>); the
        # DVQ-Retrieval Retuner is the component that matches the corpus style.
        self.count_star_style = count_star_style
        # example question -> its content words, and example DVQ -> its parse
        # (None when it does not parse); the examples are retrieved from the
        # training library, so the texts come from a finite set
        self._example_words: Dict[str, FrozenSet[str]] = {}
        self._template_queries: Dict[str, Optional[DVQuery]] = {}

    def run(self, prompt: str) -> str:
        examples, schema_text, question = parse_generation_prompt(prompt)
        from repro.llm.parsing import parse_schema_block

        schema = parse_schema_block(schema_text)
        if not schema.tables:
            return ""
        template = self._best_template(examples, question)
        prior = StructurePrior()
        if template is not None:
            template_query = self._template_query(template.dvq)
            if template_query is not None:
                prior = StructurePrior.from_query(template_query)
        composer = QueryComposer(linker=self.linker)
        query = composer.compose(question, schema, prior=prior)
        if self.count_star_style and self._style_hash(question) % 4 == 0:
            query = self._apply_count_star(query)
        return serialize_dvq(query)

    def _template_query(self, dvq: str) -> Optional[DVQuery]:
        if dvq in self._template_queries:
            return self._template_queries[dvq]
        return self._template_queries.setdefault(dvq, try_parse(dvq))

    @staticmethod
    def _style_hash(question: str) -> int:
        return sum(ord(char) for char in question)

    def _best_template(self, examples: List[PromptExample], question: str) -> Optional[PromptExample]:
        """The example whose question shares the most content words with the target."""
        if not examples:
            return None
        target_words = set(content_words(question))
        best = examples[-1]
        best_score = -1.0
        for example in examples:
            example_words = self._example_words.get(example.question)
            if example_words is None:
                example_words = self._example_words.setdefault(
                    example.question, frozenset(content_words(example.question))
                )
            if not example_words:
                continue
            overlap = len(target_words & example_words) / len(target_words | example_words)
            if overlap > best_score:
                best_score = overlap
                best = example
        return best

    def _apply_count_star(self, query):
        new_select = []
        for item in query.select:
            if (
                isinstance(item.expr, AggregateExpr)
                and item.expr.function is AggregateFunction.COUNT
                and not item.expr.distinct
            ):
                new_select.append(
                    SelectItem(
                        AggregateExpr(
                            function=AggregateFunction.COUNT,
                            argument=ColumnRef(column="*"),
                        )
                    )
                )
            else:
                new_select.append(item)
        return query.replace(select=tuple(new_select))
