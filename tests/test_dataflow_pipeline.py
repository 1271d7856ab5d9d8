"""Pipeline timing: the fill + drain formula cross-checked against the
event-driven engine, and the ring's transmission-latency hiding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.engine import SimulationEngine
from repro.dataflow.fifo import Fifo
from repro.network.ring import hidden_latency


def run_chain(intervals, items, depth=2):
    """Simulate ``items`` work items through a linear chain of
    FIFO-connected stages built as plain generator processes, the way
    :mod:`repro.core.event_sim` builds its kernels: stage ``i`` spends
    ``intervals[i]`` cycles per item.  Returns ``(total_cycles, items)``."""
    engine = SimulationEngine()
    fifos = [Fifo(depth=depth, name=f"f{i}") for i in range(len(intervals) + 1)]

    def source():
        for index in range(items):
            yield from fifos[0].push(index)
        fifos[0].close()

    def stage(inp, out, interval):
        while True:
            item = yield from inp.pop_or_none()
            if item is None:
                break
            yield ("wait", interval)
            yield from out.push(item)
        out.close()

    def sink():
        collected = []
        while True:
            item = yield from fifos[-1].pop_or_none()
            if item is None:
                return collected
            collected.append(item)

    engine.add_process(source(), name="source")
    for i, interval in enumerate(intervals):
        engine.add_process(stage(fifos[i], fifos[i + 1], interval),
                           name=f"stage{i}")
    pid = engine.add_process(sink(), name="sink")
    total = engine.run()
    return total, engine.result_of(pid)


class TestCompositions:
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_pipeline_formula_matches_event_driven_engine(self, latencies, items):
        """The closed-form pipeline latency (fill, then one bottleneck
        interval per further item) must match the schedule the
        discrete-event engine produces for a linear chain of kernels."""
        total, collected = run_chain(latencies, items)
        assert collected == list(range(items))
        assert total == sum(latencies) + (items - 1) * max(latencies)


class TestHiddenLatency:
    def test_single_block_fully_exposed(self):
        total, exposed = hidden_latency(100, 40, blocks=1)
        assert total == 140
        assert exposed == 40

    def test_many_blocks_hide_all_but_last(self):
        total, exposed = hidden_latency(1000, 100, blocks=10)
        # per-block compute 100 > per-block transfer 10: only last transfer exposed
        assert total == pytest.approx(1000 + 10, rel=1e-6)
        assert exposed == pytest.approx(10, abs=1)

    def test_transfer_bound_when_slower_than_compute(self):
        total, exposed = hidden_latency(100, 1000, blocks=10)
        assert total >= 1000
        assert exposed >= 900

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ValueError):
            hidden_latency(10, 10, blocks=0)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_hidden_never_exceeds_sum_nor_undercuts_max(self, compute, transfer, blocks):
        total, exposed = hidden_latency(compute, transfer, blocks)
        assert total <= compute + transfer + blocks  # rounding slack
        assert total + blocks >= max(compute, transfer)
        assert 0 <= exposed <= transfer + blocks
