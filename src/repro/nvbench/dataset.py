"""The dataset container: examples plus the database catalog, with JSON IO."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.database.catalog import Catalog
from repro.nvbench.example import NVBenchExample, Split


class NVBenchDataset:
    """A collection of (NLQ, DVQ) examples with split accessors."""

    def __init__(self, examples: Iterable[NVBenchExample], catalog: Optional[Catalog] = None,
                 name: str = "nvBench"):
        self.name = name
        self.examples: List[NVBenchExample] = list(examples)
        self.catalog = catalog

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[NVBenchExample]:
        return iter(self.examples)

    def split(self, split: Split) -> List[NVBenchExample]:
        """Examples belonging to ``split``."""
        return [example for example in self.examples if example.split is split]

    @property
    def train(self) -> List[NVBenchExample]:
        return self.split(Split.TRAIN)

    @property
    def dev(self) -> List[NVBenchExample]:
        return self.split(Split.DEV)

    @property
    def test(self) -> List[NVBenchExample]:
        return self.split(Split.TEST)

    def filter(self, predicate) -> "NVBenchDataset":
        """A new dataset view containing the examples satisfying ``predicate``."""
        return NVBenchDataset(
            (example for example in self.examples if predicate(example)),
            catalog=self.catalog,
            name=self.name,
        )

    def with_examples(self, examples: Iterable[NVBenchExample], name: Optional[str] = None) -> "NVBenchDataset":
        """A new dataset sharing this dataset's catalog but with different examples."""
        return NVBenchDataset(examples, catalog=self.catalog, name=name or self.name)

    # -- persistence -------------------------------------------------------

    def save_examples(self, path: Path) -> None:
        """Write the example list (not the catalog) as a JSON file."""
        payload = {
            "name": self.name,
            "examples": [example.to_dict() for example in self.examples],
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    @classmethod
    def load_examples(cls, path: Path, catalog: Optional[Catalog] = None) -> "NVBenchDataset":
        """Load an example list written by :meth:`save_examples`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        examples = [NVBenchExample.from_dict(item) for item in payload.get("examples", [])]
        return cls(examples, catalog=catalog, name=payload.get("name", "nvBench"))
