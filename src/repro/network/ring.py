"""Ring network: routers, the all-gather synchronization, and its cycle cost.

The routing mechanism (paper Fig. 6(c)): with ``N`` nodes, synchronization of
the per-node output sub-vectors takes ``N - 1`` rounds (the paper describes
"four rounds" for four nodes including the node's own local write).  In every
round each node forwards ``n`` datapacks to its successor and receives ``n``
datapacks from its predecessor; each router maintains an offset derived from
the originating node id and writes received datapacks into the shared buffer
at that offset.  After the final round all buffers hold identical, fully
assembled vectors.

Two views are provided:

* **functional** (:class:`RingAllGather`): numpy sub-vectors are exchanged
  between per-node :class:`~repro.memory.buffer.SharedBuffer` instances and
  the result is checked for consistency — this validates the routing/offset
  mechanism;
* **performance** (:class:`RingNetwork`): cycles for one synchronization of a
  given byte volume, optionally overlapped with (hidden behind) block-matrix
  computation per the paper's transmission-latency-hiding technique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.buffer import SharedBuffer
from repro.network.datapack import Datapack, pack_int8_vector, unpack_int8_vector
from repro.network.link import LinkConfig, RingLink


def hidden_latency(compute_cycles: int, transfer_cycles: int,
                   blocks: int = 1) -> Tuple[int, int]:
    """Model the paper's *transmission latency hiding* (Fig. 4(c)).

    A matrix operation is split into ``blocks`` block-multiplications; the
    synchronization (transfer) of block *i* overlaps with the computation of
    block *i+1*.  Only the transfer of the **last** block is exposed.

    Parameters
    ----------
    compute_cycles:
        Total computation cycles across all blocks.
    transfer_cycles:
        Total transfer cycles across all blocks.
    blocks:
        Number of blocks the operation is split into.

    Returns
    -------
    (total_cycles, exposed_transfer_cycles)
    """
    if blocks <= 0:
        raise ValueError("blocks must be positive")
    if compute_cycles < 0 or transfer_cycles < 0:
        raise ValueError("negative cycle count")
    per_block_compute = compute_cycles / blocks
    per_block_transfer = transfer_cycles / blocks
    # steady state: each block's transfer hides behind the next block's
    # compute; when transfer is slower than compute the surplus is exposed on
    # every block except it pipelines, so the critical path is governed by the
    # max of the two rates, plus the first compute and the last transfer.
    if blocks == 1:
        total = compute_cycles + transfer_cycles
        return int(round(total)), int(round(transfer_cycles))
    steady = (blocks - 1) * max(per_block_compute, per_block_transfer)
    total = per_block_compute + steady + per_block_transfer
    exposed = total - compute_cycles
    return int(round(total)), int(round(max(exposed, 0.0)))


@dataclass
class RingSyncResult:
    """Outcome of one ring synchronization (performance view)."""

    total_cycles: float
    exposed_cycles: float
    bytes_per_link: int
    rounds: int

    @property
    def hidden_cycles(self) -> float:
        return max(self.total_cycles - self.exposed_cycles, 0.0)


class RingNetwork:
    """Performance model of the ring interconnect between ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int, config: Optional[LinkConfig] = None) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.config = config or LinkConfig()
        self.links: List[RingLink] = [
            RingLink(self.config, source=i, destination=(i + 1) % num_nodes)
            for i in range(num_nodes)
        ]

    # ------------------------------------------------------------------
    def rounds(self) -> int:
        """Neighbour-exchange rounds needed for a full all-gather."""
        return max(self.num_nodes - 1, 0)

    def allgather_bytes_per_link(self, subvector_bytes: int) -> int:
        """Bytes each link carries during a full all-gather of per-node
        sub-vectors of ``subvector_bytes`` bytes: every node's contribution
        traverses each link at most once, so a link carries
        ``(N - 1) * subvector_bytes``."""
        if subvector_bytes < 0:
            raise ValueError("negative sub-vector size")
        return self.rounds() * subvector_bytes

    def allgather_cycles(self, subvector_bytes: int) -> float:
        """Un-hidden cycles of a full ring all-gather.  Rounds proceed in
        lock-step: per round every link moves one sub-vector concurrently, so
        the round time is one link transfer and rounds are serialized."""
        if self.num_nodes == 1:
            return 0.0
        per_round = self.links[0].transfer_cycles(subvector_bytes)
        return per_round * self.rounds()

    def synchronize(self, subvector_bytes: int, compute_cycles: float = 0.0,
                    blocks: int = 1, hide_transfers: bool = True) -> RingSyncResult:
        """Cycle cost of synchronizing per-node sub-vectors, optionally hidden
        behind block-matrix computation (paper Fig. 4(c)).

        Parameters
        ----------
        subvector_bytes:
            Size of the sub-vector each node contributes.
        compute_cycles:
            Computation cycles available to hide the transfer behind.
        blocks:
            Number of matrix blocks the computation is split into; the
            transfer of block ``i`` hides behind the computation of block
            ``i+1``, exposing only the last block's transfer.
        hide_transfers:
            If False, the transfer is fully exposed (ablation switch).
        """
        transfer = self.allgather_cycles(subvector_bytes)
        bytes_per_link = self.allgather_bytes_per_link(subvector_bytes)
        if self.num_nodes == 1 or transfer == 0.0:
            return RingSyncResult(total_cycles=compute_cycles, exposed_cycles=0.0,
                                  bytes_per_link=0, rounds=0)
        if not hide_transfers or compute_cycles <= 0.0:
            return RingSyncResult(total_cycles=compute_cycles + transfer,
                                  exposed_cycles=transfer,
                                  bytes_per_link=bytes_per_link,
                                  rounds=self.rounds())
        total, exposed = hidden_latency(int(round(compute_cycles)),
                                        int(round(transfer)), blocks=max(blocks, 1))
        return RingSyncResult(total_cycles=float(total), exposed_cycles=float(exposed),
                              bytes_per_link=bytes_per_link, rounds=self.rounds())


class RingAllGather:
    """Functional model of the router's offset-based all-gather.

    Each node owns a sub-vector (int8).  The all-gather runs ``N - 1``
    neighbour-exchange rounds; in round ``r`` node ``i`` forwards the
    sub-vector that originated at node ``(i - r) mod N`` to node
    ``(i + 1) mod N``, and writes what it receives into its shared buffer at
    ``origin * subvector_len`` — exactly the node-id derived offset described
    in the paper.  After the rounds complete, every node's buffer holds the
    concatenation of all sub-vectors in node order.
    """

    def __init__(self, num_nodes: int, subvector_len: int,
                 datapack_bytes: int = 32) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if subvector_len <= 0:
            raise ValueError("sub-vector length must be positive")
        self.num_nodes = num_nodes
        self.subvector_len = subvector_len
        self.datapack_bytes = datapack_bytes
        self.buffers: List[SharedBuffer] = []
        for node in range(num_nodes):
            buffer = SharedBuffer(capacity_words=num_nodes * subvector_len,
                                  name=f"node{node}_buffer")
            buffer.allocate("gathered", num_nodes * subvector_len)
            self.buffers.append(buffer)
        self.datapacks_forwarded = 0

    def run(self, subvectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Execute the all-gather.  ``subvectors[i]`` is node ``i``'s int8
        contribution.  Returns the gathered vector held by each node (all
        identical if the routing is correct)."""
        if len(subvectors) != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} sub-vectors, got {len(subvectors)}")
        arrays = [np.asarray(v).astype(np.int8) for v in subvectors]
        for array in arrays:
            if array.shape != (self.subvector_len,):
                raise ValueError(
                    f"sub-vectors must have shape ({self.subvector_len},), got {array.shape}")
        # local write: each node writes its own sub-vector at its own offset
        for node, array in enumerate(arrays):
            self.buffers[node].write("gathered", array.astype(np.int32),
                                     offset=node * self.subvector_len)
        # holding[i] is the sub-vector node i will forward next round,
        # tagged with its originating node
        holding = [(node, arrays[node]) for node in range(self.num_nodes)]
        for _round in range(self.num_nodes - 1):
            incoming: List[Optional[tuple]] = [None] * self.num_nodes
            for node in range(self.num_nodes):
                successor = (node + 1) % self.num_nodes
                origin, payload = holding[node]
                packs = pack_int8_vector(payload, source_node=origin,
                                         lanes=self.datapack_bytes)
                self.datapacks_forwarded += len(packs)
                received = unpack_int8_vector(packs, self.subvector_len)
                incoming[successor] = (origin, received)
            for node in range(self.num_nodes):
                origin, payload = incoming[node]
                self.buffers[node].write("gathered", payload.astype(np.int32),
                                         offset=origin * self.subvector_len)
                holding[node] = (origin, payload)
        return [buffer.read("gathered").astype(np.int8) for buffer in self.buffers]

    def buffers_consistent(self) -> bool:
        """True when every node's gathered buffer holds identical contents."""
        snapshots = [buffer.read("gathered") for buffer in self.buffers]
        return all(np.array_equal(snapshots[0], snap) for snap in snapshots[1:])
