"""The chat-completion interface shared by real and simulated LLMs."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ChatMessage:
    """One chat message with an OpenAI-style role."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"Unknown chat role {self.role!r}")


@dataclass(frozen=True)
class CompletionParams:
    """Sampling parameters mirroring ``openai.ChatCompletion.create``.

    The paper uses ``temperature=0.0`` everywhere, ``frequency_penalty`` and
    ``presence_penalty`` of ``0.0`` for annotation generation and ``-0.5`` for
    the main GRED pipeline (Section 5.1).
    """

    temperature: float = 0.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    model: str = "simulated-gpt-3.5-turbo"


@dataclass
class CompletionRecord:
    """One logged completion: the behaviour that answered it.

    Prompts and responses are not kept, so a long-running model's log stays
    small however much text it serves.
    """

    behaviour: str = ""


@dataclass
class CompletionLog:
    """An in-memory log of which behaviour answered each completion."""

    records: List[CompletionRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def by_behaviour(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.behaviour] = counts.get(record.behaviour, 0) + 1
        return counts


class ChatModel(abc.ABC):
    """Anything that can answer a list of chat messages with text."""

    @abc.abstractmethod
    def complete(
        self, messages: Sequence[ChatMessage], params: Optional[CompletionParams] = None
    ) -> str:
        """Return the assistant response for ``messages``."""

    def complete_text(self, system: str, user: str, params: Optional[CompletionParams] = None) -> str:
        """Convenience wrapper for a (system, user) prompt pair."""
        return self.complete(
            [ChatMessage(role="system", content=system), ChatMessage(role="user", content=user)],
            params=params,
        )
