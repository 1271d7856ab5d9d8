"""What a full-mode run keeps per request, and what it ships between
processes.

Full metrics mode (the default) keeps one record and five latency samples
per request.  The engine holds them as typed columns
(:class:`~repro.serving.engine.ServedRecords` and ``array('d')`` latency
fields), so the finish path builds no per-request object.  The guard below
pins that as a byte count under ``tracemalloc``, which counts allocations
and is deterministic for a given interpreter, instead of as a timing.
"""

import pickle
import tracemalloc

import pytest

from repro.serving.engine import ServedRecords, TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import Request, RequestTrace, \
    synthetic_azure_trace

#: Bytes ``engine.run`` may retain per served request in full mode: the
#: 13 record columns (104 B), the request-id permutation (8 B), four
#: ``array('d')`` latency fields (32 B) and the TPOT list (a pointer and
#: a float, 32 B) come to 176 B, and array over-allocation adds a little.
#: A per-request record object with its float fields and five lists of
#: Python floats retained 381 B per request.
MAX_RETAINED_BYTES_PER_REQUEST = 260


def _azure(num_requests):
    return RequestTrace(requests=list(synthetic_azure_trace(
        num_requests, seed=0, mean_rate_per_s=8.0, diurnal_amplitude=0.3)))


def test_full_mode_retains_no_per_request_object():
    engine = TokenServingEngine(cluster="8x2n", max_batch_size=8,
                                policy="fifo")
    # warm the engine's pricing memo, so the count below is the records'
    engine.run(_azure(50))
    trace = _azure(5_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        metrics, records = engine.run(trace)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert metrics.num_requests == len(records) == 5_000
    per_request = retained / metrics.num_requests
    assert per_request <= MAX_RETAINED_BYTES_PER_REQUEST, (
        f"engine.run retained {per_request:.0f} B per served request")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(protocol):
    """Sweeps ship pre-built traces to their worker processes and return
    full metrics when asked, so the frozen slotted ``Scenario`` and
    ``Request``, a full-mode ``ServingMetrics`` with its typed latency
    arrays, and the record columns all survive ``pickle``."""
    scenario = Scenario(64, 128, name="chat")
    request = Request(request_id=3, arrival_s=0.25, scenario=scenario,
                      tenant="batch", priority=2,
                      prompt_token_ids=(1, 2, 3))
    assert pickle.loads(pickle.dumps(scenario, protocol)) == scenario
    assert pickle.loads(pickle.dumps(request, protocol)) == request
    metrics, records = TokenServingEngine(
        cluster="2x1n,1x2n", max_batch_size=4).run(_azure(60))
    copy = pickle.loads(pickle.dumps(metrics, protocol))
    assert copy == metrics
    assert copy.ttfts_s.typecode == "d"
    assert copy.summary() == metrics.summary()
    assert [c.tpot_percentile_s(0.5) for c in copy.per_class] == \
        [c.tpot_percentile_s(0.5) for c in metrics.per_class]
    if protocol >= 2:  # slotted objects without __getstate__ need >= 2
        copied_records = pickle.loads(pickle.dumps(records, protocol))
        assert isinstance(copied_records, ServedRecords)
        assert copied_records == records
