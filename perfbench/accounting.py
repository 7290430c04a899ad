"""Provider accounting: calls by call kind and prompt+memory bytes per call.

A remote model would dominate wall time, so what a step costs in provider
calls and prompt bytes is measured exactly, in every run, traced or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from proxagent.reasoning import DecisionProvider, ProviderRequest


@dataclass
class ProviderStats:
    calls: Counter = field(default_factory=Counter)   # call_kind -> calls
    prompt_bytes: int = 0
    memory_bytes: int = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


class CountingProvider(DecisionProvider):
    """Forwards every call to ``inner`` and counts it.

    ``kind`` and ``identity`` are the inner provider's, so ``update_memory``
    keeps its scripted path and the trajectory header names the real
    provider.
    """

    def __init__(self, inner: DecisionProvider, stats: ProviderStats):
        self.inner = inner
        self.stats = stats
        self.identity = inner.identity
        self.kind = inner.kind

    def reset_episode(self, episode_id: str = "") -> None:
        self.inner.reset_episode(episode_id)

    def complete(self, request: ProviderRequest) -> str:
        stats = self.stats
        stats.calls[request.call_kind] += 1
        stats.prompt_bytes += len(request.prompt.encode("utf-8"))
        stats.memory_bytes += len(request.memory_text.encode("utf-8"))
        return self.inner.complete(request)
