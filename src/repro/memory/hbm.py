"""HBM channel and subsystem model.

The Alveo U50 exposes 32 HBM pseudo-channels; the paper connects each MP slice
of the matrix-processing unit to one channel through a DMA engine running in
burst mode, and reports a peak per-channel bandwidth of 8.49 GB/s.  The DMA
loads concatenated ``n_group x 8-bit`` datapacks (32 bytes with the paper's
``n_group = 32``), so at 285 MHz a single channel could in principle accept a
32-byte beat per cycle (9.12 GB/s) — the HBM channel is therefore the limiter
and the model below converts byte counts into cycles using the effective
bytes-per-cycle the channel can sustain.

The model distinguishes:

* **peak bandwidth** — the 8.49 GB/s ceiling of one pseudo-channel;
* **burst efficiency** — long bursts approach the peak, short bursts pay a
  fixed request overhead (row activation + protocol), captured by
  :class:`BurstAccess`;
* **channel count** — how many channels a kernel engages concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.units import Bytes, BytesPerSecond


GIB = 1 << 30
GB = 1_000_000_000

#: Total HBM2 capacity of one Alveo U50 card (the paper's platform).
ALVEO_U50_HBM_BYTES = 8 * GIB

#: HBM pseudo-channels exposed by one Alveo U50.
ALVEO_U50_HBM_CHANNELS = 32


def kv_budget_bytes_per_node(weight_bytes_per_node: int,
                             nodes_per_card: int = 2,
                             device_bytes: Bytes = ALVEO_U50_HBM_BYTES,
                             reserve_fraction: float = 0.05) -> int:
    """HBM bytes one accelerator node can dedicate to its KV cache.

    Each node owns an equal share of the card's HBM; weights are resident for
    the whole deployment lifetime and ``reserve_fraction`` of the share is held
    back for activations/double-buffering.  The serving engine's KV admission
    controller uses this as its default capacity.
    """
    if nodes_per_card <= 0:
        raise ValueError("nodes_per_card must be positive")
    if not (0.0 <= reserve_fraction < 1.0):
        raise ValueError("reserve_fraction must be in [0, 1)")
    share = device_bytes // nodes_per_card
    budget = int(share * (1.0 - reserve_fraction)) - int(weight_bytes_per_node)
    return max(budget, 0)


@dataclass(frozen=True)
class HbmConfig:
    """Static parameters of one HBM pseudo-channel.

    Attributes
    ----------
    peak_bandwidth_bytes_per_s:
        Sustained peak bandwidth of a single pseudo-channel.  The paper
        reports 8.49 GB/s for the Alveo U50's HBM2.
    clock_hz:
        Accelerator kernel clock against which cycles are counted
        (285 MHz in the paper).
    burst_bytes:
        Bytes transferred per burst beat by the DMA engine
        (``n_group`` × 1 byte = 32 B).
    request_overhead_cycles:
        Fixed cycles charged per DMA burst request (address setup, AXI
        handshake, HBM row activation amortization).
    max_outstanding:
        Maximum outstanding burst requests the DMA engine keeps in flight;
        long transfers with enough outstanding requests hide the request
        overhead entirely.
    """

    peak_bandwidth_bytes_per_s: BytesPerSecond = 8.49 * GB
    clock_hz: float = 285.0e6
    burst_bytes: Bytes = 32
    request_overhead_cycles: int = 16
    max_outstanding: int = 8

    def __post_init__(self) -> None:
        if self.peak_bandwidth_bytes_per_s <= 0:
            raise ValueError("peak bandwidth must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.burst_bytes <= 0:
            raise ValueError("burst size must be positive")

    @property
    def bytes_per_cycle(self) -> float:
        """Effective bytes one channel can deliver per kernel clock cycle,
        bounded both by the channel's bandwidth and by the 32-byte datapack
        the DMA engine can accept per cycle."""
        bandwidth_limited = self.peak_bandwidth_bytes_per_s / self.clock_hz
        return min(float(self.burst_bytes), bandwidth_limited)


@dataclass
class BurstAccess:
    """One DMA burst transfer request against a channel."""

    bytes: int
    is_read: bool = True

    def beats(self, config: HbmConfig) -> int:
        """Number of burst beats needed to move ``bytes``."""
        return max(1, math.ceil(self.bytes / config.burst_bytes))


class HbmChannel:
    """Cycle accounting for a single HBM pseudo-channel.

    The channel tracks the total bytes moved and converts transfer sizes into
    cycle counts.  It does not maintain a full DRAM timing model — the paper's
    own evaluation models HBM as a per-channel bandwidth ceiling, which is
    what matters for the memory-bound linear layers.
    """

    def __init__(self, config: HbmConfig, channel_id: int = 0) -> None:
        self.config = config
        self.channel_id = channel_id
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0

    # ------------------------------------------------------------------
    def transfer_cycles(self, num_bytes: Bytes, burst_length_beats: Optional[int] = None) -> float:
        """Cycles to move ``num_bytes`` over this channel.

        ``burst_length_beats`` is the length of each DMA burst in beats; longer
        bursts amortize the per-request overhead better.  When omitted, the
        transfer is assumed to be one long burst (the weight-streaming case).
        """
        if num_bytes < 0:
            raise ValueError("negative transfer size")
        if num_bytes == 0:
            return 0.0
        config = self.config
        beats = math.ceil(num_bytes / config.burst_bytes)
        if burst_length_beats is None or burst_length_beats >= beats:
            requests = 1
        else:
            if burst_length_beats <= 0:
                raise ValueError("burst length must be positive")
            requests = math.ceil(beats / burst_length_beats)
        stream_cycles = num_bytes / config.bytes_per_cycle
        # outstanding requests overlap their setup with the data streaming of
        # the previous ones, so only one request per outstanding window pays
        # its overhead on the critical path
        exposed_requests = max(1, math.ceil(requests / max(config.max_outstanding, 1)))
        overhead = exposed_requests * config.request_overhead_cycles
        return stream_cycles + overhead

    def read(self, num_bytes: Bytes, burst_length_beats: Optional[int] = None) -> float:
        cycles = self.transfer_cycles(num_bytes, burst_length_beats)
        self.bytes_read += num_bytes
        self.requests += 1
        return cycles

    def write(self, num_bytes: Bytes, burst_length_beats: Optional[int] = None) -> float:
        cycles = self.transfer_cycles(num_bytes, burst_length_beats)
        self.bytes_written += num_bytes
        self.requests += 1
        return cycles

    @property
    def total_bytes(self) -> Bytes:
        return self.bytes_read + self.bytes_written


class HbmSubsystem:
    """A group of HBM channels engaged in parallel by one kernel.

    The matrix-processing unit stripes the weight matrix across its
    ``n_channel`` MP slices, each fed by its own channel, so a transfer of
    ``B`` bytes completes in the time the most-loaded channel needs.  The
    helper below assumes an even stripe (the paper tiles the weight matrix
    evenly across slices).
    """

    def __init__(self, config: HbmConfig, num_channels: int) -> None:
        if num_channels <= 0:
            raise ValueError("need at least one channel")
        self.config = config
        self.channels: List[HbmChannel] = [
            HbmChannel(config, channel_id=i) for i in range(num_channels)
        ]

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def aggregate_bandwidth_bytes_per_s(self) -> BytesPerSecond:
        return self.config.peak_bandwidth_bytes_per_s * self.num_channels

    @property
    def bytes_per_cycle(self) -> float:
        return self.config.bytes_per_cycle * self.num_channels

    def striped_read_cycles(self, total_bytes: Bytes,
                            burst_length_beats: Optional[int] = None) -> float:
        """Cycles for all channels, working in parallel, to read
        ``total_bytes`` striped evenly across them."""
        if total_bytes < 0:
            raise ValueError("negative transfer size")
        if total_bytes == 0:
            return 0.0
        per_channel = math.ceil(total_bytes / self.num_channels)
        cycles = 0.0
        for channel in self.channels:
            cycles = max(cycles, channel.read(per_channel, burst_length_beats))
        return cycles

    def striped_write_cycles(self, total_bytes: Bytes,
                             burst_length_beats: Optional[int] = None) -> float:
        if total_bytes < 0:
            raise ValueError("negative transfer size")
        if total_bytes == 0:
            return 0.0
        per_channel = math.ceil(total_bytes / self.num_channels)
        cycles = 0.0
        for channel in self.channels:
            cycles = max(cycles, channel.write(per_channel, burst_length_beats))
        return cycles
