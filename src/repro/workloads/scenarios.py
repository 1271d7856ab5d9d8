"""``[prefill : decode]`` scenario definitions (the Fig. 8 x-axis).

The paper compares LoopLynx and the A100 across "various [input : output]
length settings", calling out ``[32:512]``, ``[64:512]``, ``[128:512]`` as
long-generation scenarios (code generation, chatbots) where LoopLynx wins and
``[128:32]`` as the prefill-heavy setting where the A100's batched prefill
keeps it ahead.  :data:`FIG8_SCENARIOS` is the scenario set used by the
Fig. 8 reproduction; the helpers generate themed subsets and parameter sweeps
for the examples and the design-space exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.units import require_count


@dataclass(frozen=True, slots=True)
class Scenario:
    """One request shape: prompt length and generation length (slotted
    like :class:`~repro.workloads.traces.Request`: trace generators build
    one per distinct shape, tens of thousands per large trace)."""

    prefill_len: int
    decode_len: int
    name: str = ""

    def __post_init__(self) -> None:
        for field in ("prefill_len", "decode_len"):
            require_count(getattr(self, field), field, "token")
        if self.prefill_len <= 0:
            raise ValueError("prefill_len must be positive")
        if self.decode_len < 0:
            raise ValueError("decode_len cannot be negative")

    @property
    def label(self) -> str:
        return self.name or f"[{self.prefill_len}:{self.decode_len}]"

    @property
    def total_tokens(self) -> int:
        return self.prefill_len + self.decode_len

    @property
    def decode_heavy(self) -> bool:
        """True when generation dominates the request (the regime the paper's
        introduction motivates: chatbots, code generation)."""
        return self.decode_len >= self.prefill_len


def scenario_label(prefill_len: int, decode_len: int) -> str:
    return f"[{prefill_len}:{decode_len}]"


#: Scenario set used to regenerate Fig. 8.  It spans the paper's named
#: settings (the three long-generation points and the prefill-heavy
#: ``[128:32]`` crossover) plus two intermediate points so the trend over the
#: x-axis is visible.
FIG8_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(128, 32),
    Scenario(32, 128),
    Scenario(64, 128),
    Scenario(32, 512),
    Scenario(64, 512),
    Scenario(128, 512),
)


def chatbot_scenarios() -> List[Scenario]:
    """Conversational workloads: short-to-medium prompts, long replies."""
    return [
        Scenario(32, 256, name="short question"),
        Scenario(64, 384, name="follow-up with history"),
        Scenario(128, 512, name="long conversation turn"),
    ]


def code_generation_scenarios() -> List[Scenario]:
    """Code-assistant workloads: medium prompts, long completions."""
    return [
        Scenario(64, 512, name="function completion"),
        Scenario(128, 512, name="file-level completion"),
        Scenario(96, 256, name="docstring generation"),
    ]


def scenario_sweep(prefill_lengths: Sequence[int],
                   decode_lengths: Sequence[int]) -> List[Scenario]:
    """Cartesian sweep of prompt and generation lengths."""
    scenarios: List[Scenario] = []
    for prefill in prefill_lengths:
        for decode in decode_lengths:
            scenarios.append(Scenario(prefill, decode))
    return scenarios
