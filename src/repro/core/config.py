"""Configuration of the LoopLynx accelerator and multi-node system.

Three layers of configuration:

* :class:`HardwareConfig` — per-node hardware parameters: kernel clock, the
  number of MP slices / HBM channels feeding the Fused MP kernel, the MAC
  group size, the channels dedicated to the KV cache, the parallelism of the
  critical-path operators and the pipeline/scheduler overheads.  Defaults
  follow the paper's Alveo U50 implementation (285 MHz, ``n_group = 32``,
  32-byte datapacks, 8.49 GB/s per HBM channel).
* :class:`OptimizationConfig` — the three latency-optimization techniques of
  Section III-C as independent switches, so the Fig. 5 breakdown and the
  ablation benchmarks can toggle them.
* :class:`SystemConfig` — number of accelerator nodes, nodes per FPGA card,
  the model being served, and the ring-link parameters.

Presets named after the paper's configurations are provided
(:func:`alveo_u50_node`, :func:`paper_system`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.memory.hbm import HbmConfig
from repro.model.config import ModelConfig
from repro.network.link import LinkConfig

GB = 1_000_000_000


@dataclass(frozen=True)
class HardwareConfig:
    """Per-node hardware parameters of a LoopLynx accelerator node.

    Attributes
    ----------
    clock_hz:
        Kernel clock.  The decoupled FIFO design lets the paper close timing
        at 285 MHz.
    mp_channels:
        HBM channels (= MP slices) feeding the Fused MP kernel's MPU.
    mac_group_size:
        MAC units per MP slice (``n_group``); also the datapack byte width.
    mha_channels:
        HBM channels used by the Fused MHA kernel for the key/value cache.
    hbm:
        Per-channel HBM parameters (peak bandwidth, burst behaviour).
    hbm_efficiency:
        Fraction of the per-channel peak the DMA engines sustain on real
        access patterns (bank conflicts, refresh, address gaps).
    critical_path_parallelism:
        Lanes used by the critical-path operators (layer norm, residual,
        GELU, bias addition) *after* the critical-path optimization.  The
        un-optimized baseline processes one element per cycle.
    softmax_lanes:
        Exponent/normalization lanes of the softmax unit.
    layernorm_passes:
        Passes over the vector a layer normalization needs (mean, variance,
        normalize) when not fused.
    stage_overhead_cycles:
        Scheduler state-machine transition cost charged per pipeline stage.
    kernel_fill_overhead_cycles:
        Pipeline fill/drain cost charged per macro-dataflow-kernel invocation
        (DMA setup, MPU fill, quantization-unit drain, router flush).
    """

    clock_hz: float = 285.0e6
    mp_channels: int = 8
    mac_group_size: int = 32
    mha_channels: int = 4
    hbm: HbmConfig = field(default_factory=HbmConfig)
    hbm_efficiency: float = 0.82
    critical_path_parallelism: int = 4
    softmax_lanes: int = 4
    layernorm_passes: int = 3
    stage_overhead_cycles: int = 64
    kernel_fill_overhead_cycles: int = 256

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.mp_channels <= 0 or self.mha_channels <= 0:
            raise ValueError("channel counts must be positive")
        if self.mac_group_size <= 0:
            raise ValueError("MAC group size must be positive")
        if not (0.0 < self.hbm_efficiency <= 1.0):
            raise ValueError("hbm_efficiency must be in (0, 1]")
        if self.critical_path_parallelism <= 0 or self.softmax_lanes <= 0:
            raise ValueError("parallelism values must be positive")
        if self.layernorm_passes <= 0:
            raise ValueError("layernorm_passes must be positive")
        if self.stage_overhead_cycles < 0 or self.kernel_fill_overhead_cycles < 0:
            raise ValueError("overheads cannot be negative")

    # ------------------------------------------------------------------
    @property
    def macs_per_cycle(self) -> int:
        """Peak MACs per cycle of the MPU (all slices)."""
        return self.mp_channels * self.mac_group_size

    @property
    def hbm_bytes_per_cycle_per_channel(self) -> float:
        """Effective bytes per cycle one HBM channel sustains."""
        return self.hbm.bytes_per_cycle * self.hbm_efficiency

    @property
    def mp_bytes_per_cycle(self) -> float:
        """Aggregate effective HBM bytes per cycle feeding the MPU."""
        return self.mp_channels * self.hbm_bytes_per_cycle_per_channel

    @property
    def mha_bytes_per_cycle(self) -> float:
        """Aggregate effective HBM bytes per cycle feeding the MHA kernel."""
        return self.mha_channels * self.hbm_bytes_per_cycle_per_channel

    def cycles_to_ms(self, cycles: float) -> float:
        return 1e3 * cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.clock_hz


@dataclass(frozen=True)
class OptimizationConfig:
    """The latency-optimization techniques of Section III-C as switches.

    ``baseline()`` disables everything (Fig. 5(a)); ``paper_default()``
    enables all three, which is the configuration behind Tables II/III and
    Fig. 8.
    """

    critical_path_fusion: bool = True     # parallel LN/res + overlapped execution
    headwise_pipelining: bool = True      # hide softmax behind next head's scores
    transmission_hiding: bool = True      # hide ring sync behind block matmuls

    @staticmethod
    def baseline() -> "OptimizationConfig":
        return OptimizationConfig(critical_path_fusion=False,
                                  headwise_pipelining=False,
                                  transmission_hiding=False)

    @staticmethod
    def critical_path_only() -> "OptimizationConfig":
        return OptimizationConfig(critical_path_fusion=True,
                                  headwise_pipelining=False,
                                  transmission_hiding=False)

    @staticmethod
    def paper_default() -> "OptimizationConfig":
        return OptimizationConfig()


@dataclass(frozen=True)
class SystemConfig:
    """A LoopLynx deployment: N accelerator nodes serving one model.

    Attributes
    ----------
    model:
        The LLM being served (GPT-2 345M in the paper).
    num_nodes:
        Accelerator nodes connected in a ring.
    nodes_per_card:
        Nodes packed onto one FPGA card (one per SLR; the U50 has two SLRs,
        so 2 nodes per card).
    hardware:
        Per-node hardware parameters.
    optimizations:
        Latency-optimization switches.
    link:
        Ring link parameters (intra-card AXI-Stream hop).
    inter_card_link:
        Ring link parameters for hops that cross FPGA cards; the paper
        simulates this network at the same 8.49 GB/s peak but with a longer
        hop latency.
    reference_context_len:
        Cached-sequence length at which "average per-token latency"
        (Table II) and throughput (Table III) are reported.
    """

    model: ModelConfig = field(default_factory=ModelConfig.gpt2_medium)
    num_nodes: int = 2
    nodes_per_card: int = 2
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    optimizations: OptimizationConfig = field(default_factory=OptimizationConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    inter_card_link: LinkConfig = field(
        default_factory=lambda: LinkConfig(hop_latency_cycles=512))
    reference_context_len: int = 512

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.nodes_per_card <= 0:
            raise ValueError("nodes_per_card must be positive")
        if self.num_nodes > self.model.num_heads:
            raise ValueError(
                f"{self.num_nodes} nodes cannot head-partition "
                f"{self.model.num_heads} attention heads")
        if self.reference_context_len <= 0:
            raise ValueError("reference_context_len must be positive")

    # ------------------------------------------------------------------
    @property
    def num_cards(self) -> int:
        """FPGA cards needed for this node count."""
        return -(-self.num_nodes // self.nodes_per_card)

    @property
    def crosses_cards(self) -> bool:
        return self.num_cards > 1

    def with_nodes(self, num_nodes: int) -> "SystemConfig":
        """Copy of this configuration with a different node count."""
        return replace(self, num_nodes=num_nodes)

    def with_optimizations(self, optimizations: OptimizationConfig) -> "SystemConfig":
        return replace(self, optimizations=optimizations)

    def with_model(self, model: ModelConfig) -> "SystemConfig":
        return replace(self, model=model)


def alveo_u50_node() -> HardwareConfig:
    """The paper's per-node hardware point on the Alveo U50."""
    return HardwareConfig()


def paper_system(num_nodes: int = 2, model: Optional[ModelConfig] = None,
                 optimizations: Optional[OptimizationConfig] = None) -> SystemConfig:
    """The evaluated system: GPT-2 345M on 1/2/4 LoopLynx nodes.

    ``num_nodes=2`` is the single-U50 configuration; ``num_nodes=4`` is the
    dual-FPGA configuration connected through the simulated network.
    """
    return SystemConfig(
        model=model or ModelConfig.gpt2_medium(),
        num_nodes=num_nodes,
        nodes_per_card=2,
        hardware=alveo_u50_node(),
        optimizations=optimizations or OptimizationConfig.paper_default(),
    )
