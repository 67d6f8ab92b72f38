"""RGVisNet: the retrieval-generation hybrid and previous SOTA (Song et al., 2022).

RGVisNet retrieves the most similar DVQ from a codebase of training queries and
revises it with a neural model conditioned on the question and the schema.  We
reproduce its two defining behaviours:

* prototype retrieval by question similarity (dense embeddings over the
  training NLQs), which keeps its structural accuracy high; and
* lexical revision of schema tokens — when the question no longer mentions a
  column explicitly, the revision keeps the *prototype's* column names, exactly
  the failure shown in the paper's case study ("RGVisNet still choosing the
  same column name ACC_Percent as in the training data").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.database.catalog import Catalog
from repro.database.database import Database
from repro.dvq.nodes import DVQuery
from repro.dvq.normalize import try_parse
from repro.dvq.serializer import serialize_dvq
from repro.embeddings.embedder import EmbedderConfig, TextEmbedder
from repro.embeddings.store import VectorStore
from repro.index import IndexConfig
from repro.linking.linker import SchemaLinker
from repro.models.base import TextToVisModel, query_sketch, signals_from_sketch
from repro.neural.features import BagOfWordsFeaturizer
from repro.neural.mlp import TrainingConfig
from repro.neural.multihead import MultiHeadSketchClassifier
from repro.nlu.composer import QueryComposer, StructurePrior
from repro.nvbench.example import NVBenchExample


class RGVisNetModel(TextToVisModel):
    """The RGVisNet baseline (previous state of the art)."""

    name = "RGVisNet"

    def __init__(self, max_train_examples: int = 4000,
                 training_config: Optional[TrainingConfig] = None,
                 embedder: Optional[TextEmbedder] = None,
                 index_config: Optional[IndexConfig] = None):
        self.max_train_examples = max_train_examples
        self.index_config = index_config
        self.training_config = training_config or TrainingConfig(hidden_size=64, epochs=12, seed=23)
        self.classifier = MultiHeadSketchClassifier(
            config=self.training_config,
            featurizer=BagOfWordsFeaturizer(),
        )
        self.embedder = embedder or TextEmbedder(EmbedderConfig(dimensions=384, seed=5))
        self.store: Optional[VectorStore] = None
        # lexical revision with sub-word similarity but no synonym knowledge
        self.linker = SchemaLinker(use_synonyms=False, use_char_similarity=True, min_score=0.4)
        # training DVQ text -> its parse (None when it does not parse); the
        # store's payloads are the training examples themselves
        self._training_queries: Dict[str, Optional[DVQuery]] = {}
        self._fitted = False

    def fit(self, examples: Sequence[NVBenchExample], catalog: Catalog) -> "RGVisNetModel":
        examples = list(examples)[: self.max_train_examples]
        queries = [try_parse(example.dvq) for example in examples]
        self._training_queries = {example.dvq: query for example, query in zip(examples, queries)}
        questions: List[str] = []
        targets: List[Dict[str, str]] = []
        for example, query in zip(examples, queries):
            if query is None:
                continue
            questions.append(example.nlq)
            targets.append(query_sketch(query))
        self.classifier.fit(questions, targets)
        self.embedder.fit(example.nlq for example in examples)
        self.store = VectorStore(self.embedder, config=self.index_config)
        for example in examples:
            self.store.add(example.example_id, example.nlq, example)
        self._fitted = True
        return self

    def _retrieve_prototype(self, nlq: str) -> Optional[NVBenchExample]:
        if self.store is None or not len(self.store):
            return None
        hits = self.store.search(nlq, top_k=1)
        return hits[0].payload if hits else None

    def predict(self, nlq: str, database: Database) -> str:
        if not self._fitted:
            raise RuntimeError("RGVisNetModel.predict called before fit")
        signals = signals_from_sketch(self.classifier.predict(nlq))
        prototype = self._retrieve_prototype(nlq)
        prior = StructurePrior()
        if prototype is not None:
            prototype_query = self._training_queries[prototype.dvq]
            if prototype_query is not None:
                prior = StructurePrior.from_query(prototype_query)
                # the retrieved prototype also informs the chart type when the
                # classifier is unsure (its revision GNN keeps the prototype mark)
                if signals.chart_type is None:
                    signals.chart_type = prototype_query.chart_type
        composer = QueryComposer(linker=self.linker)
        query = composer.compose(nlq, database.schema, prior=prior, signals=signals)
        return serialize_dvq(query)
