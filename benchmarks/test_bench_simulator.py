"""Benchmarks of the simulator itself (not paper artifacts).

These measure the cost of the reproduction's own machinery so regressions in
the simulation substrate are visible: the per-token cycle model, the
event-driven dataflow engine, the functional int8 datapath and the ring
all-gather.
"""

import numpy as np

from repro.core.config import HardwareConfig
from repro.core.event_sim import EventDrivenMatrixKernel
from repro.core.functional import FunctionalLoopLynxSystem
from repro.core.multi_node import LoopLynxSystem
from repro.model.config import ModelConfig, layer_linear_specs
from repro.model.gpt2 import GPT2Model
from repro.network.ring import RingAllGather


def test_bench_decode_token_model(benchmark):
    """Cost of one per-token latency evaluation of the cycle model."""
    system = LoopLynxSystem.paper_configuration(num_nodes=4)
    report = benchmark(system.decode_token_report, 512)
    assert report.latency_ms > 0


def test_bench_full_scenario_model(benchmark):
    """Cost of evaluating one [64:128] scenario (192 token-model calls)."""
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    report = benchmark.pedantic(system.run_scenario, args=(64, 128), rounds=3,
                                iterations=1)
    assert report.total_ms > 0


def test_bench_dataflow_engine_chain(benchmark):
    """Event-driven Fused MP kernel (DMA -> MPU -> quantization -> router
    processes over FIFOs) for GPT-2 medium's first MLP layer on one node:
    256 weight chunks through four stages."""
    kernel = EventDrivenMatrixKernel(HardwareConfig())
    spec = next(s for s in layer_linear_specs(ModelConfig.gpt2_medium())
                if s.name == "mlp_fc")
    result = benchmark(kernel.simulate_linear, spec, 1)
    assert result.total_cycles > 0
    assert result.unit_busy_cycles("mpu") > 0


def test_bench_functional_decode_step(benchmark):
    """One functional (bit-level) decode step of the tiny model on 2 nodes."""
    model = GPT2Model(ModelConfig.tiny(), seed=0)
    model.calibrate_quantization()
    system = FunctionalLoopLynxSystem(model, num_nodes=2)
    system.forward(np.array([1, 2, 3]))

    def step():
        return system.forward(np.array([4]))

    logits = benchmark.pedantic(step, rounds=3, iterations=1)
    assert logits.shape == (1, model.config.vocab_size)


def test_bench_ring_allgather_functional(benchmark):
    """Functional 4-node all-gather of 1 KiB sub-vectors."""
    gather = RingAllGather(num_nodes=4, subvector_len=1024)
    rng = np.random.default_rng(0)
    subvectors = [rng.integers(-128, 128, size=1024).astype(np.int8) for _ in range(4)]
    results = benchmark(gather.run, subvectors)
    assert len(results) == 4
