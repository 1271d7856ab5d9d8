"""Dataflow simulation substrate.

This package stands in for the Vitis HLS dataflow fabric used by the paper:
a small discrete-event engine whose processes are plain generators
(:mod:`repro.dataflow.engine`), bounded-depth FIFO channels between them
(:mod:`repro.dataflow.fifo`), and a recorder of per-unit busy intervals
(:mod:`repro.dataflow.trace`).

:mod:`repro.core.event_sim` builds the executable twin of the closed-form
kernel models in :mod:`repro.core.kernels` from these three: the Fused MP
kernel as DMA → MPU → quantization → router processes connected by FIFOs,
and the Fused MHA kernel as its head-wise score → softmax → mix pipeline.
The engine's makespan cross-checks the analytical timings, and the recorded
busy intervals feed the utilization analysis of the paper's Fig. 3.
"""

from repro.dataflow.engine import Event, SimulationEngine
from repro.dataflow.fifo import Fifo, FifoClosed, FifoFull, FifoEmpty
from repro.dataflow.trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "SimulationEngine",
    "Fifo",
    "FifoClosed",
    "FifoFull",
    "FifoEmpty",
    "TraceEvent",
    "TraceRecorder",
]
