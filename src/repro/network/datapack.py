"""Datapack unit used by the DMA engines and the ring routers.

The paper's DMA engine loads concatenated ``n_group x 8-bit`` datapacks (with
``n_group = 32``, a 32-byte beat), and the router forwards the same-sized
datapacks around the ring.  The functional model packs int8 vectors into
datapacks so the router / shared-buffer data movement can be checked for
bit-exact consistency across nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

DEFAULT_DATAPACK_BYTES = 32


@dataclass(frozen=True)
class Datapack:
    """A fixed-size bundle of int8 lanes plus routing metadata.

    Attributes
    ----------
    payload:
        Tuple of int8 lane values (length = datapack byte width).
    source_node:
        Node id that produced the datapack (used for the buffer offset).
    sequence:
        Index of the datapack within its message.
    """

    payload: Tuple[int, ...]
    source_node: int = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        for value in self.payload:
            if not (-128 <= value <= 127):
                raise ValueError(f"datapack lane value {value} is not int8")

    @property
    def num_lanes(self) -> int:
        return len(self.payload)

    @property
    def num_bytes(self) -> int:
        return len(self.payload)


def pack_int8_vector(vector: np.ndarray, source_node: int = 0,
                     lanes: int = DEFAULT_DATAPACK_BYTES) -> List[Datapack]:
    """Pack an int8 vector into datapacks of ``lanes`` bytes.

    The last datapack is zero-padded, mirroring the hardware's aligned burst
    transfers.  ``unpack_int8_vector`` with the original length round-trips.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    data = np.asarray(vector)
    if data.ndim != 1:
        raise ValueError("expected a 1-D vector")
    clipped = np.clip(np.rint(data), -128, 127).astype(np.int8)
    count = math.ceil(clipped.size / lanes) if clipped.size else 0
    packs: List[Datapack] = []
    for index in range(count):
        chunk = clipped[index * lanes:(index + 1) * lanes]
        if chunk.size < lanes:
            chunk = np.concatenate([chunk, np.zeros(lanes - chunk.size, dtype=np.int8)])
        packs.append(Datapack(payload=tuple(int(v) for v in chunk),
                              source_node=source_node, sequence=index))
    return packs


def unpack_int8_vector(packs: Sequence[Datapack], length: int) -> np.ndarray:
    """Reassemble an int8 vector of ``length`` elements from datapacks,
    honouring their sequence order."""
    if length < 0:
        raise ValueError("negative length")
    ordered = sorted(packs, key=lambda p: p.sequence)
    if ordered:
        lanes = ordered[0].num_lanes
        if any(p.num_lanes != lanes for p in ordered):
            raise ValueError("datapacks have inconsistent lane counts")
    flat: List[int] = []
    for pack in ordered:
        flat.extend(pack.payload)
    if length > len(flat):
        raise ValueError(f"datapacks carry {len(flat)} bytes, need {length}")
    return np.array(flat[:length], dtype=np.int8)
