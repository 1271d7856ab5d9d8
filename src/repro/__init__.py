"""LoopLynx reproduction: a scalable dataflow architecture simulator for
efficient LLM inference.

This package reproduces, in Python, the system described in "LoopLynx: A
Scalable Dataflow Architecture for Efficient LLM Inference" (DATE 2025):

* :mod:`repro.core` — the hybrid spatial-temporal accelerator model (macro
  dataflow kernels, temporal scheduler, multi-node ring deployment,
  functional int8 datapath, FPGA resource model);
* :mod:`repro.dataflow` — the discrete-event engine, FIFOs and trace
  recorder on which :mod:`repro.core.event_sim` runs the kernels'
  executable twin;
* :mod:`repro.memory`, :mod:`repro.network` — HBM, shared-buffer, KV-cache
  and ring-interconnect substrates;
* :mod:`repro.model`, :mod:`repro.quant` — a from-scratch NumPy GPT-2 with
  SmoothQuant W8A8 quantization;
* :mod:`repro.baselines`, :mod:`repro.energy` — the DFX temporal baseline,
  the spatial-architecture baseline, the A100 model and the power models;
* :mod:`repro.workloads`, :mod:`repro.analysis`, :mod:`repro.experiments` —
  scenario generation, result analysis and the per-table/figure experiment
  harnesses.

Quick start::

    from repro import LoopLynxSystem

    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    print(system.average_token_latency_ms())        # ~3.7 ms per token
    print(system.throughput_tokens_per_second())    # ~270 tokens/s
"""

from repro.core import (
    AcceleratorNode,
    HardwareConfig,
    LoopLynxSystem,
    OptimizationConfig,
    SystemConfig,
    paper_system,
)
from repro.model import GPT2Model, ModelConfig, prefill_then_decode

__version__ = "1.0.0"

__all__ = [
    "AcceleratorNode",
    "HardwareConfig",
    "LoopLynxSystem",
    "OptimizationConfig",
    "SystemConfig",
    "paper_system",
    "GPT2Model",
    "ModelConfig",
    "prefill_then_decode",
    "__version__",
]
