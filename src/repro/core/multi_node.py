"""Multi-node LoopLynx system: per-token latency, scenarios, throughput.

:class:`LoopLynxSystem` is the top-level performance model.  It wraps a
representative :class:`~repro.core.accelerator.AcceleratorNode` (all nodes
perform symmetrical computation under the model-parallel scheme), adds the
host interaction captured in the paper's system design (Fig. 2(b): the host
embeds tokens, transfers them over PCIe, and synchronizes the model output
between prefill and decode), and exposes the quantities the evaluation
reports:

* per-token decode latency and its breakdown (Table II, Fig. 5);
* full ``[prefill : decode]`` scenario latency (Fig. 8(a));
* tokens-per-second throughput and node-scaling speed-ups (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.accelerator import AcceleratorNode
from repro.core.config import OptimizationConfig, SystemConfig, paper_system
from repro.core.kernels.base import KernelTiming
from repro.core.resources import ResourceUsage, system_resources
from repro.units import Milliseconds, Seconds, Tokens

#: Host-side cost charged once per generated token: embedding lookup, PCIe
#: transfer of the embedded vector to every node, and reading back the output
#: hidden state / next-token id.  A few microseconds at PCIe gen3 latencies.
DEFAULT_HOST_OVERHEAD_CYCLES = 2000.0

#: Component names treated as "matrix computation" (linear + attention) when
#: aggregating the Fig. 5 style breakdown; everything else is critical path.
MATRIX_COMPONENTS = ("linear", "attention")


@dataclass
class TokenLatencyReport:
    """Latency of one decode step."""

    cycles: float
    latency_ms: Milliseconds
    context_len: Tokens
    num_nodes: int
    breakdown_cycles: Dict[str, float] = field(default_factory=dict)

    def breakdown_ms(self, clock_hz: float) -> Dict[str, Milliseconds]:
        return {k: 1e3 * v / clock_hz for k, v in self.breakdown_cycles.items()}

    def matrix_fraction(self) -> float:
        """Fraction of cycles spent in linear + attention computation."""
        total = sum(self.breakdown_cycles.values())
        if total <= 0:
            return 0.0
        matrix = sum(self.breakdown_cycles.get(name, 0.0) for name in MATRIX_COMPONENTS)
        return matrix / total

    def critical_path_fraction(self) -> float:
        return 1.0 - self.matrix_fraction()


@dataclass
class ScenarioReport:
    """Latency of a full ``[prefill : decode]`` request."""

    prefill_len: Tokens
    decode_len: Tokens
    prefill_ms: Milliseconds
    decode_ms: Milliseconds
    num_nodes: int

    @property
    def total_ms(self) -> Milliseconds:
        return self.prefill_ms + self.decode_ms

    @property
    def tokens_generated(self) -> int:
        return self.decode_len

    @property
    def average_decode_token_ms(self) -> Milliseconds:
        if self.decode_len == 0:
            return 0.0
        return self.decode_ms / self.decode_len

    @property
    def tokens_per_second(self) -> float:
        if self.total_ms <= 0:
            return 0.0
        return 1e3 * self.tokens_generated / self.total_ms


class LoopLynxSystem:
    """The end-to-end LoopLynx performance model for N accelerator nodes."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 host_overhead_cycles: float = DEFAULT_HOST_OVERHEAD_CYCLES) -> None:
        self.config = config or paper_system(num_nodes=2)
        if host_overhead_cycles < 0:
            raise ValueError("host overhead cannot be negative")
        self.host_overhead_cycles = float(host_overhead_cycles)
        self.node = AcceleratorNode(self.config)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def paper_configuration(num_nodes: int = 2,
                            optimizations: Optional[OptimizationConfig] = None
                            ) -> "LoopLynxSystem":
        """The paper's GPT-2 345M deployment with 1, 2 or 4 nodes."""
        return LoopLynxSystem(paper_system(num_nodes=num_nodes,
                                           optimizations=optimizations))

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def clock_hz(self) -> float:
        return self.config.hardware.clock_hz

    # ------------------------------------------------------------------
    # per-token latency
    # ------------------------------------------------------------------
    def decode_token_report(self, context_len: Optional[Tokens] = None,
                            optimizations: Optional[OptimizationConfig] = None
                            ) -> TokenLatencyReport:
        """Latency of one decode step at the given cached context length."""
        context = context_len if context_len is not None else self.config.reference_context_len
        if context < 0:
            raise ValueError("context length cannot be negative")
        timing = self.node.token_cycles(context, batch_tokens=1,
                                        optimizations=optimizations)
        cycles = timing.total + self.host_overhead_cycles
        breakdown = dict(timing.components)
        breakdown["host_overhead"] = self.host_overhead_cycles
        return TokenLatencyReport(
            cycles=cycles,
            latency_ms=self.config.hardware.cycles_to_ms(cycles),
            context_len=context,
            num_nodes=self.num_nodes,
            breakdown_cycles=breakdown,
        )

    def average_token_latency_ms(self, context_len: Optional[Tokens] = None,
                                 optimizations: Optional[OptimizationConfig] = None
                                 ) -> Milliseconds:
        """The Table II "token latency" figure: per-token decode latency at
        the reference context length."""
        return self.decode_token_report(context_len, optimizations).latency_ms

    def throughput_tokens_per_second(self, context_len: Optional[Tokens] = None
                                     ) -> float:
        """Steady-state decode throughput (Table III)."""
        latency_ms = self.average_token_latency_ms(context_len)
        if latency_ms <= 0:
            return 0.0
        return 1e3 / latency_ms

    # ------------------------------------------------------------------
    # prefill and full scenarios
    # ------------------------------------------------------------------
    def prefill_latency_ms(self, prompt_len: Tokens,
                           optimizations: Optional[OptimizationConfig] = None,
                           batched: bool = False) -> Milliseconds:
        """Latency of the prefill stage for a prompt of ``prompt_len`` tokens.

        The paper's accelerator streams prompt tokens through the same
        token-serial pipeline as decode (``batched=False``, the default);
        ``batched=True`` models the weight-reuse extension where one pass
        processes the whole prompt against each streamed weight block (this is
        a this-repo extension used by the design-space exploration example,
        not a claim of the paper).
        """
        if prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        hardware = self.config.hardware
        if batched:
            timing = self.node.token_cycles(prompt_len, batch_tokens=prompt_len,
                                            optimizations=optimizations)
            cycles = timing.total + self.host_overhead_cycles
            return hardware.cycles_to_ms(cycles)
        cycles = 0.0
        for position in range(prompt_len):
            timing = self.node.token_cycles(position, batch_tokens=1,
                                            optimizations=optimizations)
            cycles += timing.total + self.host_overhead_cycles
        return hardware.cycles_to_ms(cycles)

    # ------------------------------------------------------------------
    # step-level API (token-level serving engine)
    # ------------------------------------------------------------------
    def decode_step_latency_ms(self, context_len: Tokens, batch_size: int = 1,
                               optimizations: Optional[OptimizationConfig] = None
                               ) -> Milliseconds:
        """Latency of one decode step that advances ``batch_size`` co-resident
        requests by one token each, the longest over ``context_len`` cached
        positions.

        Batched decode reuses the weight-streaming path of the kernel model
        (:meth:`repro.core.scheduler.KernelScheduler.block_timing` with
        ``batch_tokens``): every weight block streamed from HBM is applied to
        all ``batch_size`` token vectors before the next block arrives, so the
        memory-bound linear layers amortize across the batch.  What the pass
        reads of the context depends on its token count: a one-token pass
        attends over ``context_len`` cached positions, while a multi-token
        pass prices its attention from ``batch_size`` alone (the batched-pass
        model of :meth:`mixed_step_latency_ms`), so its latency is the same
        at every ``context_len``.  The serving runtime's step key relies on
        that.  This is the primitive the token-level serving engine composes
        into per-request timelines; with ``batch_size=1`` it equals
        :meth:`decode_token_report` exactly.
        """
        if context_len < 0:
            raise ValueError("context length cannot be negative")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        timing = self.node.token_cycles(context_len, batch_tokens=batch_size,
                                        optimizations=optimizations)
        cycles = timing.total + self.host_overhead_cycles
        return self.config.hardware.cycles_to_ms(cycles)

    def decode_step_latency_s(self, context_len: Tokens, batch_size: int = 1,
                              optimizations: Optional[OptimizationConfig] = None
                              ) -> Seconds:
        """Seconds variant of :meth:`decode_step_latency_ms`."""
        return self.decode_step_latency_ms(context_len, batch_size,
                                           optimizations) / 1e3

    def mixed_step_latency_ms(self, decode_contexts: Sequence[int],
                              prefill_tokens: Tokens = 0,
                              optimizations: Optional[OptimizationConfig] = None,
                              prefill_context: int = 0) -> Milliseconds:
        """Latency of one *mixed* step: every request in ``decode_contexts``
        advances by one decode token while ``prefill_tokens`` prompt tokens of
        co-resident prefilling requests stream through the same pass.

        All ``len(decode_contexts) + prefill_tokens`` token vectors share one
        weight-streaming pass of the kernel pipeline
        (:meth:`repro.core.scheduler.KernelScheduler.block_timing` with
        ``batch_tokens`` set to the step's total token count), so the
        memory-bound linear layers amortize across decode and prefill tokens
        alike — the reason chunked-prefill schedulers can feed prompts in
        without stalling live decodes.  A multi-token pass reads only its
        token count: its attention term follows the batched-pass model (as
        in :meth:`decode_step_latency_ms` with ``batch_size > 1`` and the
        ``batched=True`` prefill extension), driven by the step's token
        count rather than the cached prefix, so late chunks of a very long
        prompt are priced like early ones — cheaper than the token-serial
        exclusive path by construction, which is part of why mixed
        scheduling wins TTFT — and the step costs the same at every
        context.  Only the single-token degenerate case reads the cached
        prefix: the longest one in the step (decode contexts or
        ``prefill_context``, the position the largest prefill chunk ends
        at) drives its attention.

        With ``prefill_tokens=0`` this equals
        :meth:`decode_step_latency_ms` for the same batch exactly; a step
        must carry at least one token.  ``prefill_context`` defaults to 0,
        in which case a pure-prefill step falls back to attending over the
        chunk itself (a from-scratch prompt).
        """
        num_decode = len(decode_contexts)
        if prefill_tokens < 0:
            raise ValueError("prefill_tokens cannot be negative")
        if prefill_context < 0:
            raise ValueError("prefill_context cannot be negative")
        if any(context < 0 for context in decode_contexts):
            raise ValueError("context length cannot be negative")
        total_tokens = num_decode + prefill_tokens
        if total_tokens <= 0:
            raise ValueError("a mixed step must carry at least one token")
        context = max(list(decode_contexts) + [prefill_context])
        if context == 0:
            # no caller-supplied prefix: a pure-prefill step attends over
            # the chunk itself (prefix attention of a from-scratch prompt)
            context = prefill_tokens
        timing = self.node.token_cycles(context, batch_tokens=total_tokens,
                                        optimizations=optimizations)
        cycles = timing.total + self.host_overhead_cycles
        return self.config.hardware.cycles_to_ms(cycles)

    def mixed_step_latency_s(self, decode_contexts: Sequence[int],
                             prefill_tokens: Tokens = 0,
                             optimizations: Optional[OptimizationConfig] = None,
                             prefill_context: int = 0) -> Seconds:
        """Seconds variant of :meth:`mixed_step_latency_ms`."""
        return self.mixed_step_latency_ms(decode_contexts, prefill_tokens,
                                          optimizations,
                                          prefill_context=prefill_context) / 1e3

    def prefill_latency_s(self, prefill_len: Tokens,
                          optimizations: Optional[OptimizationConfig] = None,
                          batched: bool = False) -> Seconds:
        """Seconds variant of :meth:`prefill_latency_ms` (serving-engine
        callers compose second-denominated timelines)."""
        return self.prefill_latency_ms(prefill_len, optimizations,
                                       batched=batched) / 1e3

    def decode_latency_ms(self, prompt_len: Tokens, decode_len: Tokens,
                          optimizations: Optional[OptimizationConfig] = None) -> Milliseconds:
        """Latency of generating ``decode_len`` tokens after a prompt of
        ``prompt_len`` tokens (context grows as tokens are emitted)."""
        if decode_len < 0:
            raise ValueError("decode_len cannot be negative")
        hardware = self.config.hardware
        cycles = 0.0
        for step in range(decode_len):
            timing = self.node.token_cycles(prompt_len + step, batch_tokens=1,
                                            optimizations=optimizations)
            cycles += timing.total + self.host_overhead_cycles
        return hardware.cycles_to_ms(cycles)

    def run_scenario(self, prefill_len: Tokens, decode_len: Tokens,
                     optimizations: Optional[OptimizationConfig] = None,
                     batched_prefill: bool = False) -> ScenarioReport:
        """End-to-end latency of one ``[prefill : decode]`` request
        (the Fig. 8 workload points)."""
        prefill_ms = self.prefill_latency_ms(prefill_len, optimizations,
                                             batched=batched_prefill)
        decode_ms = self.decode_latency_ms(prefill_len, decode_len, optimizations)
        return ScenarioReport(prefill_len=prefill_len, decode_len=decode_len,
                              prefill_ms=prefill_ms, decode_ms=decode_ms,
                              num_nodes=self.num_nodes)

    # ------------------------------------------------------------------
    # traffic, power inputs, resources
    # ------------------------------------------------------------------
    def hbm_traffic_bytes_per_token(self, context_len: Optional[Tokens] = None) -> float:
        """Total HBM bytes (weights + KV reads) moved per decode step across
        all nodes; an input to the energy model."""
        context = context_len if context_len is not None else self.config.reference_context_len
        per_node = (self.node.weight_bytes_per_token()
                    + self.node.kv_read_bytes_per_token(context))
        return float(per_node * self.num_nodes)

    def resource_usage(self) -> ResourceUsage:
        """Table II resource columns for this node count."""
        return system_resources(self.num_nodes, self.config.nodes_per_card)

    #: which timing components count as busy time of which macro kernel
    _KERNEL_COMPONENTS = {
        "fused_mp": ("linear", "quantization_drain", "kernel_fill"),
        "fused_mha": ("attention", "softmax_exposed"),
        "fused_ln_res": ("layer_norm", "residual", "gelu_bias"),
    }

    def kernel_utilization(self, context_len: Optional[Tokens] = None) -> Dict[str, float]:
        """Per-kernel busy fraction during one decode step — quantifies the
        peak-area-utilization argument of the hybrid design.

        Derived from the per-component cycle breakdown: each macro kernel is
        busy for the cycles attributed to the operations it executes.
        """
        report = self.decode_token_report(context_len)
        total = max(report.cycles, 1.0)
        out: Dict[str, float] = {}
        for kernel, components in self._KERNEL_COMPONENTS.items():
            busy = sum(report.breakdown_cycles.get(name, 0.0) for name in components)
            out[kernel] = min(busy / total, 1.0)
        return out
