"""The serving step key and the cycle-model rule it relies on.

``InstanceRuntime`` prices every step from one table keyed by ``(bucketed
context if tokens == 1 else 0, tokens)``: decode and chunkless mixed steps
share entries, and a multi-token pass is priced once whatever its context.
That is exact only while the cycle model reads the cached context for
one-token passes alone (``KernelScheduler._attention_stage``).  The
property tests below pin that rule over every node count the paper deploys
and every ``OptimizationConfig`` switch; the replay tests pin how many
cold cycle-model evaluations the key leaves, so a change that widens the
key (or stops sharing it) shows up as a count, not as a slower benchmark.
"""

import itertools
import random

import pytest

from repro.core.config import OptimizationConfig
from repro.core.multi_node import LoopLynxSystem
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import RequestTrace, synthetic_azure_trace

_SWITCHES = [OptimizationConfig(*flags)
             for flags in itertools.product((False, True), repeat=3)]

#: Random shapes drawn per (node count, switch set).
_POINTS = 38

_WIDEN = ("the cycle model now reads the cached context of a multi-token "
          "pass; widen the step key in InstanceRuntime.step_latency_s and "
          "mixed_step_latency_s to carry it")


def _switch_id(opts: OptimizationConfig) -> str:
    return "".join("1" if flag else "0" for flag in (
        opts.critical_path_fusion, opts.headwise_pipelining,
        opts.transmission_hiding))


@pytest.mark.parametrize("opts", _SWITCHES, ids=_switch_id)
@pytest.mark.parametrize("num_nodes", [1, 2, 4])
def test_step_key_matches_the_cycle_model(num_nodes, opts):
    system = LoopLynxSystem.paper_configuration(num_nodes=num_nodes,
                                                optimizations=opts)
    max_context = system.config.model.max_seq_len
    rng = random.Random(f"{num_nodes}-{_switch_id(opts)}")
    for _ in range(_POINTS):
        tokens = rng.randint(2, 320)
        c1, c2 = rng.randint(0, max_context), rng.randint(0, max_context)
        num_decode = rng.randint(0, min(tokens, 8))
        contexts = [rng.randint(1, max_context) for _ in range(num_decode)]
        base = system.decode_step_latency_s(0, tokens)
        # a pass of more than one token prices the same at every context
        assert system.decode_step_latency_s(c1, tokens) == base, _WIDEN
        assert system.decode_step_latency_s(c2, tokens) == base, _WIDEN
        assert system.mixed_step_latency_s(
            contexts, tokens - num_decode,
            prefill_context=c1) == base, _WIDEN
        # a decode step is a chunkless mixed step of the same batch
        batch = rng.randint(1, 8)
        assert system.decode_step_latency_s(c1, batch) == \
            system.mixed_step_latency_s([c1] * batch, 0)
        # a one-token prefill pass attends like a one-token decode (a
        # chunk-end position is at least 1)
        c = rng.randint(1, max_context)
        assert system.mixed_step_latency_s([], 1, prefill_context=c) == \
            system.decode_step_latency_s(c, 1)


def _count_evals(monkeypatch, engine, trace):
    """Run ``engine`` over ``trace`` and count the cycle-model evaluations
    the serving memo could not answer, per entry point."""
    counts = {"decode_step_latency_s": 0, "mixed_step_latency_s": 0}
    for name in counts:
        original = getattr(LoopLynxSystem, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(LoopLynxSystem, name, counted)
    engine.run(trace)
    return counts


def _azure(num_requests):
    return RequestTrace(requests=list(synthetic_azure_trace(
        num_requests, seed=0, mean_rate_per_s=8.0, diurnal_amplitude=0.3)))


class TestColdEvaluations:
    """Exact cold-evaluation counts on small replays: every evaluation
    fills one step-table entry, and no entry is evaluated twice."""

    def test_mixed_replay(self, monkeypatch):
        engine = TokenServingEngine(cluster="2x2n", max_batch_size=8,
                                    policy="fifo", prefill_mode="mixed")
        counts = _count_evals(monkeypatch, engine, _azure(600))
        assert counts == {"decode_step_latency_s": 19,
                          "mixed_step_latency_s": 115}
        assert sum(counts.values()) == len(engine._caches[0][0])

    def test_heterogeneous_replay(self, monkeypatch):
        engine = TokenServingEngine(cluster="2x1n,2x2n,1x4n",
                                    max_batch_size=8, policy="fifo",
                                    router="least_loaded")
        counts = _count_evals(monkeypatch, engine, _azure(600))
        assert counts == {"decode_step_latency_s": 73,
                          "mixed_step_latency_s": 0}
        assert sum(counts.values()) == sum(
            len(caches[0]) for caches in engine._caches)

    def test_prefill_chunks_share_one_running_sum(self):
        """A chunk price is the running sum from its start, added left to
        right, whichever chunk of that start was asked first."""
        engine = TokenServingEngine(cluster="1x2n")
        runtime = engine._build_runtimes()[0]
        long = runtime.prefill_chunk_latency_s(64, 100)
        short = runtime.prefill_chunk_latency_s(64, 37)
        chain = 0.0
        for pos in range(64, 64 + 100):
            chain += runtime.step_latency_s(pos, 1)
            if pos == 64 + 36:
                assert short == chain
        assert long == chain
        assert len(engine._prefill_sums[0][64]) == 101
