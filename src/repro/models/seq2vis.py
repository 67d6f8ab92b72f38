"""Seq2Vis: the sequence-to-sequence baseline (Luo et al., 2021).

The reproduction keeps the two properties that drive Seq2Vis's robustness
behaviour: a trained encoder-decoder that predicts the query sketch from the
question, and an output vocabulary limited to tokens observed during training.
Schema tokens are copied only through *exact* lexical matches between question
words and column names — the over-reliance the paper documents.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.database.catalog import Catalog
from repro.database.database import Database
from repro.dvq.nodes import DVQuery
from repro.dvq.normalize import try_parse
from repro.dvq.serializer import serialize_dvq
from repro.linking.linker import SchemaLinker
from repro.models.base import (
    TextToVisModel,
    collect_training_columns,
    query_sketch,
    signals_from_sketch,
)
from repro.neural.features import BagOfWordsFeaturizer
from repro.neural.mlp import TrainingConfig
from repro.neural.multihead import MultiHeadSketchClassifier
from repro.nlu.composer import QueryComposer, StructurePrior
from repro.nvbench.example import NVBenchExample


class Seq2VisModel(TextToVisModel):
    """The Seq2Vis baseline."""

    name = "Seq2Vis"

    def __init__(self, max_train_examples: int = 4000,
                 training_config: Optional[TrainingConfig] = None):
        self.max_train_examples = max_train_examples
        self.training_config = training_config or TrainingConfig(hidden_size=48, epochs=10, seed=11)
        self.classifier = MultiHeadSketchClassifier(
            config=self.training_config,
            featurizer=BagOfWordsFeaturizer(),
        )
        # exact-match lexical linking only: no synonyms, no sub-word similarity
        self.linker = SchemaLinker(use_synonyms=False, use_char_similarity=False, min_score=0.5)
        self._memory_featurizer = BagOfWordsFeaturizer(use_bigrams=False)
        self._memory_matrix: Optional[np.ndarray] = None
        # the parsed DVQ of each training example (None when it does not parse)
        self._memory_queries: List[Optional[DVQuery]] = []
        self._vocabulary_columns: List[str] = []
        self._fitted = False

    # -- training ---------------------------------------------------------------

    def fit(self, examples: Sequence[NVBenchExample], catalog: Catalog) -> "Seq2VisModel":
        examples = list(examples)[: self.max_train_examples]
        queries = [try_parse(example.dvq) for example in examples]
        questions: List[str] = []
        targets: List[Dict[str, str]] = []
        for example, query in zip(examples, queries):
            if query is None:
                continue
            questions.append(example.nlq)
            targets.append(query_sketch(query))
        self.classifier.fit(questions, targets)
        self._vocabulary_columns = collect_training_columns(queries)
        self._memory_queries = queries
        self._memory_featurizer.fit(example.nlq for example in examples)
        self._memory_matrix = self._memory_featurizer.transform(
            [example.nlq for example in examples]
        )
        self._fitted = True
        return self

    # -- inference -----------------------------------------------------------------

    def _nearest_training_query(self, nlq: str) -> Optional[DVQuery]:
        if self._memory_matrix is None or not self._memory_queries:
            return None
        vector = self._memory_featurizer.transform_one(nlq)
        scores = self._memory_matrix @ vector
        return self._memory_queries[int(np.argmax(scores))]

    def predict(self, nlq: str, database: Database) -> str:
        if not self._fitted:
            raise RuntimeError("Seq2VisModel.predict called before fit")
        signals = signals_from_sketch(self.classifier.predict(nlq))
        # the decoder's memory: structure of the closest training question
        prior = StructurePrior()
        nearest_query = self._nearest_training_query(nlq)
        if nearest_query is not None:
            prior = StructurePrior.from_query(nearest_query)
        composer = QueryComposer(
            linker=self.linker,
            allowed_columns=self._vocabulary_columns,
        )
        query = composer.compose(nlq, database.schema, prior=prior, signals=signals)
        return serialize_dvq(query)
