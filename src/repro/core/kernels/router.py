"""Router kernel: the per-node view of the ring-network synchronization.

Each node's router (Fig. 6(c)) operates in simplex mode: per round it writes
``n`` datapacks to its successor and reads ``n`` datapacks from its
predecessor, placing received datapacks into the shared buffer at an offset
derived from the originating node id.  ``N - 1`` rounds fully synchronize the
per-node output sub-vectors.

The kernel wraps :class:`repro.network.ring.RingNetwork` for the cycle cost
(with or without the transmission-latency-hiding optimization) and
:class:`repro.network.ring.RingAllGather` for the functional data movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import HardwareConfig
from repro.core.kernels.base import KernelTiming, MacroDataflowKernel
from repro.core.resources import ResourceUsage, kernel_resources
from repro.network.link import LinkConfig
from repro.network.ring import RingAllGather, RingNetwork, RingSyncResult


class RouterKernel(MacroDataflowKernel):
    """Ring router of one accelerator node (modelled at system granularity).

    The router is instantiated once per node in hardware; for the cycle model
    it is more convenient to reason about one synchronization of the whole
    ring (all routers progress in lock-step), so this class carries the ring
    configuration and exposes per-synchronization costs.
    """

    name = "router"

    def __init__(self, hardware: HardwareConfig, num_nodes: int,
                 link: Optional[LinkConfig] = None,
                 inter_card_link: Optional[LinkConfig] = None,
                 nodes_per_card: int = 2) -> None:
        super().__init__(hardware)
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.nodes_per_card = nodes_per_card
        self.link = link or LinkConfig()
        self.inter_card_link = inter_card_link or LinkConfig(hop_latency_cycles=512)
        effective = self._effective_link()
        self.ring = RingNetwork(num_nodes, config=effective)

    def _effective_link(self) -> LinkConfig:
        """Link parameters used for the lock-step ring rounds.

        When the ring spans several cards, every round is as slow as its
        slowest hop, so the inter-card hop latency applies to the round while
        bandwidth stays at the per-link peak.
        """
        crosses_cards = self.num_nodes > self.nodes_per_card
        if not crosses_cards:
            return self.link
        return LinkConfig(
            bandwidth_bytes_per_s=min(self.link.bandwidth_bytes_per_s,
                                      self.inter_card_link.bandwidth_bytes_per_s),
            clock_hz=self.link.clock_hz,
            hop_latency_cycles=self.inter_card_link.hop_latency_cycles,
            datapack_bytes=self.link.datapack_bytes,
        )

    # ------------------------------------------------------------------
    # cycle model
    # ------------------------------------------------------------------
    def synchronize(self, subvector_bytes: int, compute_cycles: float = 0.0,
                    blocks: int = 1, hide_transfers: bool = True) -> RingSyncResult:
        """Cycle cost of synchronizing per-node sub-vectors of
        ``subvector_bytes`` bytes, optionally hidden behind ``compute_cycles``
        of block-matrix computation split into ``blocks`` blocks."""
        result = self.ring.synchronize(subvector_bytes, compute_cycles=compute_cycles,
                                       blocks=blocks, hide_transfers=hide_transfers)
        timing = KernelTiming(total=result.exposed_cycles)
        timing.add_component("ring_sync_exposed", result.exposed_cycles)
        timing.add_component("ring_sync_hidden", result.hidden_cycles)
        self.record(timing)
        return result

    # ------------------------------------------------------------------
    # functional datapath
    # ------------------------------------------------------------------
    def functional_allgather(self, subvectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run the offset-based ring all-gather on int8 sub-vectors and return
        the gathered vector held by every node."""
        arrays = [np.asarray(v) for v in subvectors]
        if len(arrays) != self.num_nodes:
            raise ValueError(f"expected {self.num_nodes} sub-vectors, got {len(arrays)}")
        length = arrays[0].shape[0]
        gather = RingAllGather(self.num_nodes, length,
                               datapack_bytes=self.link.datapack_bytes)
        gathered = gather.run(arrays)
        if not gather.buffers_consistent():
            raise RuntimeError("ring all-gather produced inconsistent buffers")
        return gathered

    def resource_usage(self) -> ResourceUsage:
        # the router and shared buffer are accounted in the "other" row
        return kernel_resources("other")
