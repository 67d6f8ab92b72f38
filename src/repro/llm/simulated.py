"""The simulated chat model: routes prompts to deterministic behaviours."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.llm import markers
from repro.llm.behaviors.annotation import AnnotationBehaviour
from repro.llm.behaviors.debug import DebugBehaviour, RepairBehaviour
from repro.llm.behaviors.generation import GenerationBehaviour
from repro.llm.behaviors.retune import RetuneBehaviour
from repro.llm.interface import ChatMessage, ChatModel, CompletionLog, CompletionParams, CompletionRecord
from repro.robustness.synonyms import SynonymLexicon, default_lexicon


class SimulatedChatModel(ChatModel):
    """Offline stand-in for GPT-3.5-Turbo used by GRED.

    The model inspects the prompt for the task sentinels defined in
    :mod:`repro.llm.markers` and dispatches to the matching behaviour.  Every
    call's behaviour is recorded in :attr:`log` so tests and experiments can
    inspect which behaviours were exercised and how often.
    """

    def __init__(self, lexicon: Optional[SynonymLexicon] = None):
        self.lexicon = lexicon or default_lexicon()
        self.annotation = AnnotationBehaviour(lexicon=self.lexicon)
        self.generation = GenerationBehaviour(lexicon=self.lexicon)
        self.retune = RetuneBehaviour()
        self.debug = DebugBehaviour(lexicon=self.lexicon)
        self.repair = RepairBehaviour(lexicon=self.lexicon)
        self.log = CompletionLog()

    def complete(
        self, messages: Sequence[ChatMessage], params: Optional[CompletionParams] = None
    ) -> str:
        prompt = "\n".join(message.content for message in messages)
        behaviour, response = self._dispatch(prompt)
        self.log.records.append(CompletionRecord(behaviour=behaviour))
        return response

    def _dispatch(self, prompt: str):
        if markers.TASK_REPAIR.lower() in prompt.lower():
            return self.repair.name, self.repair.run(prompt)
        if markers.TASK_DEBUG.lower() in prompt.lower():
            return self.debug.name, self.debug.run(prompt)
        if markers.TASK_RETUNE.lower() in prompt.lower():
            return self.retune.name, self.retune.run(prompt)
        if markers.TASK_GENERATION.lower() in prompt.lower():
            return self.generation.name, self.generation.run(prompt)
        if markers.TASK_ANNOTATION.lower() in prompt.lower():
            return self.annotation.name, self.annotation.run(prompt)
        # unknown prompt: echo nothing, like a refusal
        return "unknown", ""
