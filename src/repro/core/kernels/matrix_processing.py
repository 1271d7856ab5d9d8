"""Fused Matrix Processing (MP) kernel.

Paper Fig. 6(a): DMA engines + matrix-processing unit (MPU) + quantization
unit + router, all connected through FIFOs.  The MPU performs block
matrix-vector multiplication of the tiled weight matrix
``W in Z^{l_embed/n x l_embed}`` against the embedding vector; it consists of
``n_channel`` MP slices (one per HBM channel, behind a DMA engine), each with
``n_group = 32`` MAC units.

Cycle model
-----------
During decode the linear layers are **memory bound**: every weight byte is
read from HBM exactly once per token, and one MAC is performed per weight
byte, so the streaming time of the weights over the engaged channels governs
the latency.  The model therefore takes the maximum of

* the DMA streaming time of the per-node weight shard, and
* the MAC time of the per-node MACs at ``n_channel * n_group`` MACs/cycle

and adds the pipeline fill/drain overhead of the dataflow region and the
exposed drain of the quantization unit.  For prefill (``batch_tokens > 1``)
the same weights are reused across the batched tokens, so the compute term
scales with the batch while the memory term does not — this is what makes
prefill relatively cheap per token and reproduces the GPU's remaining
advantage at large prefill/small decode settings (Fig. 8, ``[128:32]``).

Functional model
----------------
``functional_linear`` executes the same tiled int8 arithmetic (per-slice
GEMV, wide accumulation, bias-add/requantize in the quantization unit) and is
checked against the NumPy W8A8 reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import HardwareConfig
from repro.core.kernels.base import KernelTiming, MacroDataflowKernel
from repro.core.kernels.dma import DmaEngine
from repro.core.kernels.quantization_unit import QuantizationUnit
from repro.core.resources import ResourceUsage, kernel_resources
from repro.model.config import LinearLayerSpec
from repro.quant.gemm import tiled_int8_gemv


@dataclass
class MatrixOpTiming:
    """Cycle decomposition of one linear-layer execution on one node."""

    total: float
    memory_cycles: float
    compute_cycles: float
    fill_overhead_cycles: float
    quant_drain_cycles: float
    num_blocks: int
    out_features_node: int
    weight_bytes_node: int

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles

    @property
    def steady_state_cycles(self) -> float:
        """Cycles of the overlapped DMA/MAC steady state (without fill/drain)."""
        return max(self.memory_cycles, self.compute_cycles)

    def as_kernel_timing(self) -> KernelTiming:
        timing = KernelTiming(total=self.total)
        timing.add_component("linear_memory", self.memory_cycles)
        timing.add_component("linear_compute", self.compute_cycles)
        timing.add_component("kernel_fill", self.fill_overhead_cycles)
        timing.add_component("quantization_drain", self.quant_drain_cycles)
        return timing


class FusedMatrixProcessingKernel(MacroDataflowKernel):
    """The Fused MP macro dataflow kernel of one accelerator node."""

    name = "fused_mp"

    def __init__(self, hardware: HardwareConfig) -> None:
        super().__init__(hardware)
        self.dma = DmaEngine(hardware, num_channels=hardware.mp_channels)
        self.quant_unit = QuantizationUnit(hardware)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def out_features_on_node(self, spec: LinearLayerSpec, num_nodes: int) -> int:
        """Output features this node computes under output-dimension model
        parallelism."""
        return spec.out_features_per_node(num_nodes)

    def num_output_blocks(self, spec: LinearLayerSpec, num_nodes: int) -> int:
        """Output blocks the per-node shard is tiled into: one block per
        ``n_channel * n_group`` output rows (each MAC unit owns one row of the
        block at a time)."""
        rows_per_block = self.hardware.mp_channels * self.hardware.mac_group_size
        return max(1, math.ceil(self.out_features_on_node(spec, num_nodes) / rows_per_block))

    # ------------------------------------------------------------------
    # cycle model
    # ------------------------------------------------------------------
    def linear_op_cycles(self, spec: LinearLayerSpec, num_nodes: int = 1,
                         batch_tokens: int = 1,
                         bytes_per_weight: int = 1) -> MatrixOpTiming:
        """Cycle cost of one linear layer on one node.

        Parameters
        ----------
        spec:
            The linear layer (dimensions).
        num_nodes:
            Model-parallel width; the node computes ``out_features / num_nodes``
            output features but reads the full input vector.
        batch_tokens:
            Tokens processed against the same weights (1 during decode; the
            prompt length during a batched prefill pass).
        bytes_per_weight:
            1 for W8A8.
        """
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if batch_tokens <= 0:
            raise ValueError("batch_tokens must be positive")
        hardware = self.hardware
        out_node = self.out_features_on_node(spec, num_nodes)
        weight_bytes = out_node * spec.in_features * bytes_per_weight
        macs = out_node * spec.in_features * batch_tokens

        memory_cycles = weight_bytes / hardware.mp_bytes_per_cycle
        compute_cycles = macs / hardware.macs_per_cycle
        fill = float(hardware.kernel_fill_overhead_cycles)
        rows_per_block = hardware.mp_channels * hardware.mac_group_size
        drain = self.quant_unit.throughput_cycles(min(out_node, rows_per_block)) * batch_tokens
        blocks = self.num_output_blocks(spec, num_nodes)

        total = max(memory_cycles, compute_cycles) + fill + drain
        timing = MatrixOpTiming(
            total=total,
            memory_cycles=memory_cycles,
            compute_cycles=compute_cycles,
            fill_overhead_cycles=fill,
            quant_drain_cycles=float(drain),
            num_blocks=blocks,
            out_features_node=out_node,
            weight_bytes_node=weight_bytes,
        )
        self.record(timing.as_kernel_timing())
        return timing

    def weight_bytes_per_token(self, specs, num_nodes: int = 1,
                               bytes_per_weight: int = 1) -> int:
        """HBM weight traffic of one node for one token across ``specs``."""
        return sum(self.out_features_on_node(spec, num_nodes) * spec.in_features
                   * bytes_per_weight for spec in specs)

    # ------------------------------------------------------------------
    # functional datapath
    # ------------------------------------------------------------------
    def functional_linear(self, weight_q: np.ndarray, activation_q: np.ndarray,
                          activation_scale: float, weight_scale: np.ndarray,
                          bias: Optional[np.ndarray] = None,
                          output_scale: Optional[float] = None) -> np.ndarray:
        """Execute one linear layer exactly as the hardware does.

        The weight shard is processed in per-slice row tiles
        (``mac_group_size`` rows at a time per slice), each MAC accumulating
        over the full input vector; the quantization unit then performs the
        bias addition and either requantizes to int8 (``output_scale`` given)
        or dequantizes to float.
        """
        weight_q = np.asarray(weight_q)
        activation_q = np.asarray(activation_q)
        if weight_q.dtype != np.int8 or activation_q.dtype != np.int8:
            raise TypeError("functional_linear expects int8 weight and activations")
        tile_rows = self.hardware.mp_channels * self.hardware.mac_group_size
        accumulator = tiled_int8_gemv(weight_q, activation_q, tile_rows=tile_rows)
        if output_scale is not None:
            return self.quant_unit.requantize(accumulator, activation_scale,
                                              weight_scale, output_scale, bias)
        return self.quant_unit.dequantize_accumulator(accumulator, activation_scale,
                                                      weight_scale, bias)

    def resource_usage(self) -> ResourceUsage:
        return kernel_resources("fused_mp")
