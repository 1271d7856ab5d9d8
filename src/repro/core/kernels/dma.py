"""DMA engine model.

Each MP slice of the matrix-processing unit is fed by a DMA engine that runs
in burst mode and loads concatenated ``n_group x 8-bit`` datapacks from its
HBM channel.  The model here converts a striped weight/cache transfer into
cycles using the :class:`~repro.memory.hbm.HbmSubsystem` accounting, and
reports the burst length chosen to keep the channel efficient (the paper sets
``n_group = 32`` explicitly "to ensure a sufficient burst size").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import HardwareConfig
from repro.core.kernels.base import KernelTiming, MacroDataflowKernel
from repro.core.resources import ResourceUsage, kernel_resources
from repro.memory.hbm import HbmConfig, HbmSubsystem


class DmaEngine(MacroDataflowKernel):
    """Burst-mode DMA engines striping a transfer across HBM channels."""

    name = "dma"

    def __init__(self, hardware: HardwareConfig, num_channels: Optional[int] = None) -> None:
        super().__init__(hardware)
        self.num_channels = num_channels or hardware.mp_channels
        self._subsystem = HbmSubsystem(hardware.hbm, self.num_channels)

    # ------------------------------------------------------------------
    @property
    def bytes_per_cycle(self) -> float:
        """Effective aggregate bytes per cycle across the engaged channels."""
        return (self.num_channels * self.hardware.hbm.bytes_per_cycle
                * self.hardware.hbm_efficiency)

    def burst_beats(self, row_bytes: int) -> int:
        """Burst length (in datapack beats) used to stream one weight row."""
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        return max(1, row_bytes // self.hardware.mac_group_size)

    def stream_cycles(self, total_bytes: int, row_bytes: Optional[int] = None) -> KernelTiming:
        """Cycles to stream ``total_bytes`` striped across the channels.

        ``row_bytes`` (the contiguous burst unit, e.g. one weight-matrix row
        per MP slice) controls how much per-request overhead is amortized.
        """
        if total_bytes < 0:
            raise ValueError("negative transfer size")
        timing = KernelTiming()
        if total_bytes == 0:
            return self.record(timing)
        burst = self.burst_beats(row_bytes) if row_bytes else None
        raw = self._subsystem.striped_read_cycles(total_bytes, burst_length_beats=burst)
        # the hbm_efficiency factor models sustained-vs-peak derating beyond
        # the explicit per-request overhead already accounted by the subsystem
        cycles = raw / self.hardware.hbm_efficiency
        timing.total = cycles
        timing.add_component("hbm_read", cycles)
        return self.record(timing)

    def resource_usage(self) -> ResourceUsage:
        return kernel_resources("dma")
