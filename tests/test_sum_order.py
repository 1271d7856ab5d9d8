"""Float aggregates on pinned paths add left to right on every interpreter.

From Python 3.12 the builtin ``sum`` of floats is compensated (Neumaier),
so it can differ in the last bit from the plain left-to-right chain the
golden timestamps and digests were recorded with.  The serving code
therefore adds its pinned floats itself: prefill-chunk prices are running
sums (``InstanceRuntime.prefill_chunk_latency_s``) and the metrics means
and merges go through ``add_left_to_right``.  This module rebinds ``sum``
in the serving modules to a Neumaier sum — what a 3.12 interpreter does —
and checks that the goldens and a replay summary do not move.
"""

import builtins
import math

import pytest

import repro.serving.engine
import repro.serving.instance
import repro.serving.metrics
import test_cluster
import test_mixed_prefill
import test_prefix_sharing
from repro.serving.engine import TokenServingEngine
from repro.workloads.traces import RequestTrace, synthetic_azure_trace

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial

_MODULES = (repro.serving.engine, repro.serving.instance,
            repro.serving.metrics)


def _neumaier_sum(iterable, start=0):
    """Python 3.12's ``sum`` over floats: compensated (Neumaier) addition.
    Sums without a float stay exact integer sums."""
    items = list(iterable)
    if not any(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if math.isfinite(compensation) else total


@pytest.fixture
def compensated_sum(monkeypatch):
    for module in _MODULES:
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)


def test_neumaier_sum_differs_from_the_chain():
    """The stand-in really is a different sum (else the goldens below
    would pass vacuously)."""
    values = [0.1] * 10
    chain = 0.0
    for v in values:
        chain += v
    assert _neumaier_sum(values) == 1.0 != chain


def test_goldens_hold_under_compensated_sum(compensated_sum):
    test_cluster.TestHomogeneousGoldens().test_classic_surface_matches_golden()
    test_mixed_prefill.TestExclusiveBitIdentical() \
        .test_bursty_fifo_matches_golden()
    test_prefix_sharing.TestSharedModeGolden() \
        .test_shared_multiturn_matches_golden()


def test_disaggregated_summary_holds_under_compensated_sum(monkeypatch):
    trace = RequestTrace(requests=list(synthetic_azure_trace(
        100, seed=0, mean_rate_per_s=8.0, diurnal_amplitude=0.3)))

    def summary():
        engine = TokenServingEngine(cluster="2x4n:prefill,2x1n:decode",
                                    max_batch_size=8, policy="fifo",
                                    router="disaggregated", kv_mode="paged")
        return engine.run(trace)[0].summary()

    plain = summary()
    for module in _MODULES:
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    assert summary() == plain
