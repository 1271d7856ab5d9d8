"""Tests for the token-level serving engine, scheduler policies and the
KV-capacity admission controller."""

import dataclasses
import heapq
import math
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.serving.cluster import ClusterSpec, InstanceSpec
from repro.serving.engine import (
    ServedRecords,
    ServedRequest,
    TokenServingEngine,
)
from repro.serving.instance import RequestState
from repro.serving.schedulers import (
    FifoScheduler,
    KVAdmissionController,
    PriorityScheduler,
    ShortestJobFirstScheduler,
    make_scheduler,
)
from repro.analysis.serving import run_policy
from repro.serving.schedulers import FIFO_EXCLUSIVE
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    StreamingTrace,
    bursty_trace,
    multi_tenant_trace,
    multi_turn_trace,
    synthetic_azure_trace,
    synthetic_trace,
)


def _trace(shapes, gap_s=0.0, priorities=None):
    """Build a trace of (prefill, decode) shapes arriving ``gap_s`` apart."""
    requests = []
    for i, (prefill, decode) in enumerate(shapes):
        requests.append(Request(
            request_id=i, arrival_s=0.001 + i * gap_s,
            scenario=Scenario(prefill, decode),
            priority=0 if priorities is None else priorities[i]))
    return RequestTrace(requests=requests)


def _whole_request_fifo(trace, num_instances, num_nodes=2):
    """Oracle: a multi-server FIFO queue over whole-request service times
    from the cycle model.  Returns ``{request_id: (start_s, finish_s)}``."""
    system = LoopLynxSystem.paper_configuration(num_nodes=num_nodes)
    free_at = [(0.0, instance) for instance in range(num_instances)]
    heapq.heapify(free_at)
    served = {}
    for request in sorted(trace, key=lambda r: r.arrival_s):
        instance_free_at, instance = heapq.heappop(free_at)
        start = max(request.arrival_s, instance_free_at)
        report = system.run_scenario(request.prefill_len, request.decode_len)
        finish = start + report.total_ms / 1e3
        heapq.heappush(free_at, (finish, instance))
        served[request.request_id] = (start, finish)
    return served


class _Entry:
    """Minimal stand-in for the engine's request state in policy unit tests."""

    def __init__(self, request, last_admitted_s=0.0):
        self.request = request
        self.last_admitted_s = last_admitted_s


def _entry(request_id, arrival_s, prefill=8, decode=8, priority=0):
    return _Entry(Request(request_id=request_id, arrival_s=arrival_s,
                          scenario=Scenario(prefill, decode),
                          priority=priority))


class TestSchedulerPolicies:
    def test_fifo_orders_by_arrival(self):
        scheduler = FifoScheduler()
        for entry in (_entry(2, 3.0), _entry(0, 1.0), _entry(1, 2.0)):
            scheduler.push(entry)
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [0, 1, 2]

    def test_sjf_orders_by_total_tokens(self):
        scheduler = ShortestJobFirstScheduler()
        scheduler.push(_entry(0, 1.0, prefill=64, decode=512))
        scheduler.push(_entry(1, 2.0, prefill=16, decode=32))
        scheduler.push(_entry(2, 3.0, prefill=32, decode=32))
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [1, 2, 0]

    def test_sjf_breaks_ties_by_arrival(self):
        scheduler = ShortestJobFirstScheduler()
        scheduler.push(_entry(1, 2.0, prefill=16, decode=16))
        scheduler.push(_entry(0, 1.0, prefill=16, decode=16))
        assert scheduler.pop().request.request_id == 0

    def test_priority_orders_by_priority_then_arrival(self):
        scheduler = PriorityScheduler()
        scheduler.push(_entry(0, 1.0, priority=0))
        scheduler.push(_entry(1, 2.0, priority=5))
        scheduler.push(_entry(2, 3.0, priority=5))
        popped = [scheduler.pop().request.request_id for _ in range(3)]
        assert popped == [1, 2, 0]

    def test_priority_victim_is_strictly_lower_class(self):
        scheduler = PriorityScheduler()
        head = _entry(9, 0.0, priority=3)
        running = [_Entry(Request(0, 0.0, Scenario(8, 8), priority=3)),
                   _Entry(Request(1, 0.0, Scenario(8, 8), priority=1),
                          last_admitted_s=1.0),
                   _Entry(Request(2, 0.0, Scenario(8, 8), priority=1),
                          last_admitted_s=2.0)]
        victim = scheduler.preemption_victim(running, head)
        # lowest class, most recently admitted (least progress wasted)
        assert victim.request.request_id == 2
        # equal-priority running work is never preempted
        assert scheduler.preemption_victim(running[:1], head) is None

    def test_fifo_and_sjf_never_preempt(self):
        head = _entry(9, 0.0, priority=3)
        running = [_entry(0, 0.0, priority=0)]
        assert FifoScheduler().preemption_victim(running, head) is None
        assert ShortestJobFirstScheduler().preemption_victim(running, head) is None

    def test_make_scheduler(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("sjf").name == "sjf"
        assert make_scheduler("priority").name == "priority"
        with pytest.raises(ValueError):
            make_scheduler("round-robin")


class TestKVAdmission:
    def _layout(self):
        return KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                             max_seq_len=256, num_nodes=2)

    def test_capacity_from_budget(self):
        layout = self._layout()
        per_token = layout.bytes_per_token_per_node()
        controller = KVAdmissionController(layout, budget_bytes=10 * per_token)
        assert controller.capacity_tokens == 10

    def test_fits_accounts_reservations(self):
        layout = self._layout()
        controller = KVAdmissionController(
            layout, budget_bytes=100 * layout.bytes_per_token_per_node())
        request = Request(0, 0.0, Scenario(30, 30))
        assert controller.reservation_tokens(request) == 60
        assert controller.fits(request, used_tokens=0)
        assert controller.fits(request, used_tokens=40)
        assert not controller.fits(request, used_tokens=41)

    def test_validate_rejects_impossible_requests(self):
        layout = self._layout()
        controller = KVAdmissionController(
            layout, budget_bytes=16 * layout.bytes_per_token_per_node())
        with pytest.raises(ValueError):
            controller.validate([Request(0, 0.0, Scenario(20, 20))])

    def test_for_system_defaults(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        controller = KVAdmissionController.for_system(system)
        # the U50 share net of weights holds far more than one max context
        assert controller.capacity_tokens > system.config.model.max_seq_len

    def test_priority_preempts_on_kv_exhaustion_with_free_slots(self):
        """A KV-blocked high-priority head evicts low-priority work even when
        batch slots are free (no priority inversion through the cache)."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        layout = KVCacheLayout(
            num_layers=system.config.model.num_layers,
            num_heads=system.config.model.num_heads,
            head_dim=system.config.model.head_dim,
            max_seq_len=system.config.model.max_seq_len,
            num_nodes=2)
        # room for one 64-token reservation plus a little, not two
        trace = _trace([(16, 48), (16, 48)], gap_s=0.05, priorities=[0, 5])
        engine = TokenServingEngine(
            num_instances=1, policy="priority", max_batch_size=4,
            kv_mode="reserve",
            kv_budget_bytes=80 * layout.bytes_per_token_per_node())
        metrics, records = engine.run(trace)
        low, high = records
        assert low.preemptions >= 1
        assert high.finish_s < low.finish_s

    def test_no_futile_eviction_when_head_still_would_not_fit(self):
        """When evicting one victim cannot free enough KV for the head, the
        victim keeps its progress (no work thrown away for nothing)."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        layout = KVCacheLayout(
            num_layers=system.config.model.num_layers,
            num_heads=system.config.model.num_heads,
            head_dim=system.config.model.head_dim,
            max_seq_len=system.config.model.max_seq_len,
            num_nodes=2)
        # resident lows: 68 + 20 of 150 tokens; the preemption victim is the
        # most recently admitted (the 20-token one), and evicting it cannot
        # fit the 96-token head (150 - 88 + 20 = 82 < 96), so it must be
        # spared and allowed to finish its own decode
        # gaps wide enough that both lows are resident before the high
        # arrives (admission happens at step boundaries)
        trace = _trace([(8, 60), (8, 12), (16, 80)], gap_s=0.05,
                       priorities=[0, 0, 5])
        engine = TokenServingEngine(
            num_instances=1, policy="priority", max_batch_size=4,
            kv_mode="reserve",
            kv_budget_bytes=150 * layout.bytes_per_token_per_node())
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 3
        low_long, low_short, high = records
        # the futile victim kept its progress and finished unpreempted
        assert low_short.preemptions == 0
        assert low_short.finish_s <= high.admitted_s
        # once the short low released its KV, evicting the long low DID free
        # enough for the head — a beneficial preemption the policy allows
        assert low_long.preemptions == 1
        assert high.finish_s < low_long.finish_s

    def test_admission_blocks_when_cache_full(self):
        """With room for only one max-context request, the second queues for
        the whole duration of the first even though batch slots are free."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        layout = KVCacheLayout(
            num_layers=system.config.model.num_layers,
            num_heads=system.config.model.num_heads,
            head_dim=system.config.model.head_dim,
            max_seq_len=system.config.model.max_seq_len,
            num_nodes=2)
        trace = _trace([(16, 48), (16, 48)])
        blocked = TokenServingEngine(
            num_instances=1, policy="fifo", max_batch_size=4,
            kv_mode="reserve",
            kv_budget_bytes=64 * layout.bytes_per_token_per_node())
        metrics, records = blocked.run(trace)
        assert metrics.num_requests == 2
        # second request admitted only once the first released its KV
        assert records[1].admitted_s == pytest.approx(records[0].finish_s)

        roomy = TokenServingEngine(num_instances=1, policy="fifo",
                                   max_batch_size=4)
        _, free_records = roomy.run(trace)
        assert free_records[1].admitted_s < records[1].admitted_s


class TestTokenServingEngine:
    def test_every_request_served_once(self):
        trace = synthetic_trace(10, seed=3, mean_prefill=32, mean_decode=48)
        engine = TokenServingEngine(num_instances=2, policy="fifo")
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 10
        assert [r.request_id for r in records] == list(range(10))
        assert metrics.generated_tokens == trace.total_decode_tokens

    def test_token_timeline_invariants(self):
        trace = synthetic_trace(8, seed=9, mean_prefill=24, mean_decode=40)
        _, records = TokenServingEngine(num_instances=1).run(trace)
        for record in records:
            assert record.admitted_s >= record.arrival_s
            assert record.first_token_s is not None
            assert record.first_token_s > record.admitted_s
            assert record.finish_s >= record.first_token_s
            assert record.ttft_s > 0
            if record.decode_len > 1:
                assert record.tpot_s > 0
            else:
                assert record.tpot_s is None

    def test_ttft_less_than_latency(self):
        trace = synthetic_trace(6, seed=2, mean_decode=64)
        metrics, records = TokenServingEngine(num_instances=1).run(trace)
        for record in records:
            if record.decode_len > 1:
                assert record.ttft_s < record.end_to_end_latency_s
        assert len(metrics.ttfts_s) == len(records)
        assert len(metrics.tpots_s) == len(records)

    def test_batched_decode_step_is_sublinear(self):
        """The core batching primitive: stepping 8 requests costs less than 8
        single steps (weight streaming amortizes across the batch)."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        single = system.decode_step_latency_s(256, batch_size=1)
        batched = system.decode_step_latency_s(256, batch_size=8)
        assert batched < 8 * single * 0.8
        assert batched > single

    def test_decode_step_matches_token_report_at_batch_one(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        report = system.decode_token_report(context_len=256)
        assert system.decode_step_latency_ms(256, 1) == pytest.approx(
            report.latency_ms)
        assert system.prefill_latency_s(32) == pytest.approx(
            system.prefill_latency_ms(32) / 1e3)

    def test_continuous_batching_beats_exclusive_on_bursty_trace(self):
        """The PR's acceptance criterion: strictly higher throughput and
        strictly lower mean queueing delay on a bursty trace."""
        trace = bursty_trace(24, seed=3, mean_prefill=48, mean_decode=128,
                             burst_size=8)
        exclusive, _ = run_policy(trace, FIFO_EXCLUSIVE)
        batched, _ = TokenServingEngine(num_instances=1, policy="fifo",
                                        max_batch_size=8).run(trace)
        assert (batched.throughput_tokens_per_second
                > exclusive.throughput_tokens_per_second)
        assert batched.mean_queueing_delay_s < exclusive.mean_queueing_delay_s

    def test_compatibility_mode_reproduces_simulator_exactly(self):
        """Property test: batching disabled (batch=1, whole-prompt prefill,
        exact context timing) reproduces an in-test whole-request queue."""
        for seed, instances in ((4, 1), (5, 2)):
            trace = synthetic_trace(10, seed=seed, mean_prefill=24,
                                    mean_decode=48)
            expected = _whole_request_fifo(trace, instances)
            engine = TokenServingEngine(num_instances=instances, policy="fifo",
                                        max_batch_size=1,
                                        prefill_chunk_tokens=None,
                                        context_bucket=1)
            metrics, records = engine.run(trace)
            for record in records:
                start, finish = expected[record.request_id]
                assert record.admitted_s == pytest.approx(start, rel=1e-9)
                assert record.finish_s == pytest.approx(finish, rel=1e-9)
            assert metrics.makespan_s == pytest.approx(
                max(finish for _, finish in expected.values()), rel=1e-9)
            assert metrics.mean_queueing_delay_s == pytest.approx(
                sum(expected[r.request_id][0] - r.arrival_s for r in trace)
                / len(trace), rel=1e-9, abs=1e-12)
            # the fifo-exclusive preset is exactly this engine configuration
            _, preset_records = run_policy(trace, FIFO_EXCLUSIVE,
                                           num_instances=instances)
            assert preset_records == records

    def test_join_and_leave_at_step_boundaries(self):
        """A request arriving mid-flight joins the running batch instead of
        waiting for the first request to finish."""
        trace = _trace([(16, 200), (16, 40)], gap_s=0.2)
        _, records = TokenServingEngine(num_instances=1, policy="fifo",
                                        max_batch_size=4).run(trace)
        first, second = records
        # the long request is still running when the short one starts and ends
        assert second.admitted_s < first.finish_s
        assert second.finish_s < first.finish_s

    def test_no_priority_inversion(self):
        """With the priority policy, a high-priority arrival overtakes every
        queued low-priority request (no inversion through the queue)."""
        shapes = [(16, 64)] * 6
        priorities = [0, 0, 0, 0, 0, 5]
        trace = _trace(shapes, gap_s=0.01, priorities=priorities)
        _, records = TokenServingEngine(num_instances=1, policy="priority",
                                        max_batch_size=1).run(trace)
        urgent = records[5]
        queued_lows = [r for r in records[1:5]]
        assert all(urgent.first_token_s < low.first_token_s
                   for low in queued_lows)

    def test_priority_preemption_restarts_victim(self):
        trace = _trace([(16, 300), (16, 32)], gap_s=0.1,
                       priorities=[0, 5])
        metrics, records = TokenServingEngine(
            num_instances=1, policy="priority", max_batch_size=1).run(trace)
        low, high = records
        assert metrics.preemptions >= 1
        assert low.preemptions >= 1
        # the preempted request finishes after the high-priority one
        assert high.finish_s < low.finish_s

    def test_sjf_reorders_queued_requests(self):
        """A short job queued behind a long one finishes first under SJF."""
        shapes = [(16, 400), (16, 400), (16, 16)]
        trace = _trace(shapes, gap_s=0.01)
        _, fifo_records = TokenServingEngine(
            num_instances=1, policy="fifo", max_batch_size=1).run(trace)
        _, sjf_records = TokenServingEngine(
            num_instances=1, policy="sjf", max_batch_size=1).run(trace)
        assert sjf_records[2].first_token_s < fifo_records[2].first_token_s
        # under SJF the short job overtakes the second long job
        assert sjf_records[2].finish_s < sjf_records[1].first_token_s

    def test_multi_tenant_priority_orders_ttft(self):
        trace = multi_tenant_trace(24, seed=2)
        _, records = TokenServingEngine(num_instances=1, policy="priority",
                                        max_batch_size=2).run(trace)
        mean_ttft = {}
        for record in records:
            mean_ttft.setdefault(record.tenant, []).append(record.ttft_s)
        mean_ttft = {t: sum(v) / len(v) for t, v in mean_ttft.items()}
        assert mean_ttft["interactive"] < mean_ttft["batch"]
        assert mean_ttft["interactive"] < mean_ttft["background"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenServingEngine(num_instances=0)
        with pytest.raises(ValueError):
            TokenServingEngine(max_batch_size=0)
        with pytest.raises(ValueError):
            TokenServingEngine(prefill_chunk_tokens=0)
        with pytest.raises(ValueError):
            TokenServingEngine(context_bucket=0)
        with pytest.raises(ValueError):
            TokenServingEngine(policy="lifo")
        with pytest.raises(ValueError):
            TokenServingEngine().run(RequestTrace())

    def test_metrics_slo_goodput(self):
        trace = synthetic_trace(8, seed=6, mean_decode=48)
        metrics, _ = TokenServingEngine(num_instances=2).run(trace)
        generous = metrics.slo_goodput_rps(1e9, 1e9)
        assert generous == pytest.approx(metrics.requests_per_second)
        assert metrics.slo_goodput_rps(0.0, 0.0) == 0.0
        assert 0.0 <= metrics.slo_attainment(1.0, 0.05) <= 1.0

    def test_single_token_requests_do_not_bias_tpot(self):
        """Single-token requests have no inter-token gap: their TPOT entry
        is None, the TPOT percentiles skip them instead of absorbing a 0.0,
        and they pass the TPOT SLO vacuously (only via slo_attainment)."""
        trace = _trace([(16, 1), (16, 1), (16, 1), (16, 40)], gap_s=0.05)
        metrics, records = TokenServingEngine(num_instances=1, policy="fifo",
                                              max_batch_size=4).run(trace)
        assert [r.tpot_s is None for r in records] == [True, True, True, False]
        assert len(metrics.tpots_s) == len(metrics.ttfts_s) == 4
        assert metrics.tpots_s.count(None) == 3
        # the percentile distribution holds exactly one real sample, so
        # every fraction returns it — not a zero-diluted mixture
        real_tpot = records[3].tpot_s
        assert metrics.tpot_percentile_s(0.0) == pytest.approx(real_tpot)
        assert metrics.tpot_percentile_s(0.5) == pytest.approx(real_tpot)
        # an impossible TPOT SLO fails only the request that has a TPOT
        assert metrics.slo_attainment(1e9, 1e-12) == pytest.approx(3 / 4)
        assert metrics.slo_attainment(1e9, 1e9) == pytest.approx(1.0)

    def test_slo_attainment_rejects_mismatched_lists(self):
        """Hand-built metrics with misaligned per-request lists raise
        instead of silently zip-truncating (which overstated attainment)."""
        from repro.serving.metrics import ServingMetrics

        metrics = ServingMetrics(
            num_requests=3, num_instances=1, num_nodes_per_instance=2,
            makespan_s=1.0, generated_tokens=30,
            ttfts_s=[0.1, 0.2, 9.9], tpots_s=[0.01, 0.02])
        with pytest.raises(ValueError):
            metrics.slo_attainment(1.0, 0.05)
        # empty tpots_s stays valid: TPOT is vacuously met for every request
        metrics.tpots_s = []
        assert metrics.slo_attainment(1.0, 0.05) == pytest.approx(2 / 3)


#: Integer engine knobs and the values that used to slip through: a
#: fraction or ``True`` ran as a rounded or unit size, inf ran as no cap,
#: NaN replayed the whole trace before "engine stalled", and a fractional
#: chunk raised a bare TypeError mid-run.
HOSTILE_KNOBS = [
    ("kv_block_size", 16.5), ("kv_block_size", True),
    ("max_batch_size", 2.5), ("max_batch_size", math.nan),
    ("context_bucket", 8.5), ("prefill_chunk_tokens", math.inf),
    ("prefill_chunk_tokens", 32.5), ("mixed_step_token_budget", 64.5),
    ("mixed_step_token_budget", "256"),
]


@pytest.mark.parametrize("knob, value", HOSTILE_KNOBS,
                         ids=[f"{k}={v!r}" for k, v in HOSTILE_KNOBS])
def test_integer_knobs_reject_non_counts(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be an integer"):
        TokenServingEngine(cluster="2x1n", kv_mode="paged", **{knob: value})


@pytest.mark.parametrize("value", [16.5, True, math.inf, "16"])
def test_block_size_rejects_non_counts(value):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=256, num_nodes=2)
    with pytest.raises(ValueError,
                       match="block_size_tokens must be an integer"):
        PagedKVManager(layout, block_size_tokens=value)


@pytest.mark.parametrize("kind", ["list", "reversed-list", "streaming"])
@pytest.mark.parametrize("arrival", [math.nan, math.inf, -1.0],
                         ids=["nan", "inf", "negative"])
def test_non_finite_arrival_is_rejected(arrival, kind):
    """A NaN arrival would run to NaN latencies (or, streamed, switch off
    the sortedness guard), an infinite one to an infinite makespan and a
    negative one to a clock before zero, so each must fail, naming the
    request, as the CSV loader does.  A NaN sorts nowhere in particular,
    but the arrivals before it in a sorted list stay ordered, so an
    unsorted list names it too instead of tripping the stream order
    check."""
    requests = list(bursty_trace(20, seed=0).requests)
    requests[10] = dataclasses.replace(requests[10], arrival_s=arrival)
    bad_id = requests[10].request_id
    if kind == "reversed-list":
        requests.reverse()
    trace = (StreamingTrace(lambda: iter(requests), length=len(requests))
             if kind == "streaming" else RequestTrace(requests=requests))
    engine = TokenServingEngine(num_instances=2, metrics_mode="streaming",
                                slo=(2.0, 0.05))
    with pytest.raises(ValueError, match=(
            f"request {bad_id} arrives at {arrival!r}s")):
        engine.run(trace)


#: Per-node KV bytes of 256 cached positions on a one-node instance.
_KV_256_1N = 256 * KVCacheLayout.for_model(
    LoopLynxSystem.paper_configuration(num_nodes=1).config.model,
    num_nodes=1).bytes_per_token_per_node()

#: Engines on which request 3 of ``_unservable_requests`` fits no class:
#: a pool without roles, and a disaggregated one whose decode class cannot
#: hold its full context.
UNSERVABLE = [
    (dict(cluster="1x1n,1x2n", kv_mode="paged", kv_budget_bytes=_KV_256_1N),
     "request 3 fits no instance class of cluster"),
    (dict(cluster=ClusterSpec((
        InstanceSpec(1, 2, role="prefill"),
        InstanceSpec(1, 1, role="decode", kv_budget_bytes=_KV_256_1N))),
          kv_mode="paged", router="disaggregated"),
     "request 3 cannot be served by cluster"),
]


def _unservable_requests():
    return [Request(request_id=i, arrival_s=0.01 * i,
                    scenario=Scenario(512 if i == 3 else 32,
                                      400 if i == 3 else 16))
            for i in range(6)]


@pytest.mark.parametrize("kind", [RequestTrace, StreamingTrace],
                         ids=["list", "streaming"])
class TestOneArrivalPath:
    """Lists and streams reach the event loop through one arrival path:
    a list is sorted once, and both kinds are checked and validated per
    request as it is drawn."""

    @staticmethod
    def _trace(kind, requests):
        if kind is StreamingTrace:
            return StreamingTrace(lambda: iter(requests),
                                  length=len(requests))
        return RequestTrace(requests=requests)

    def test_arrival_order(self, kind):
        """A reversed list replays exactly as its sorted copy; a reversed
        stream breaks the stream contract and is rejected."""
        requests = list(bursty_trace(40, seed=3).requests)
        engine = TokenServingEngine(num_instances=2, max_batch_size=4)
        expected_metrics, expected = engine.run(RequestTrace(
            requests=requests))
        backwards = self._trace(kind, requests[::-1])
        if kind is StreamingTrace:
            with pytest.raises(ValueError,
                               match="streaming traces must be sorted"):
                engine.run(backwards)
            return
        metrics, records = engine.run(backwards)
        assert records == expected
        assert metrics.summary() == expected_metrics.summary()

    @pytest.mark.parametrize("config, message", UNSERVABLE,
                             ids=["no-class", "roles"])
    def test_unservable_request_is_rejected(self, kind, config, message):
        engine = TokenServingEngine(**config)
        trace = self._trace(kind, _unservable_requests())
        with pytest.raises(ValueError, match=message):
            engine.run(trace)


def test_integer_knobs_accept_numpy_integers():
    knobs = dict(max_batch_size=4, prefill_chunk_tokens=32,
                 mixed_step_token_budget=128, context_bucket=16,
                 kv_block_size=8)
    trace = synthetic_trace(12, seed=3, mean_decode=32)
    _, plain = TokenServingEngine(cluster="2x1n", kv_mode="paged",
                                  prefill_mode="mixed", **knobs).run(trace)
    engine = TokenServingEngine(
        cluster="2x1n", kv_mode="paged", prefill_mode="mixed",
        **{name: np.int64(value) for name, value in knobs.items()})
    for name in ("max_batch_size", "prefill_chunk_tokens",
                 "mixed_step_token_budget", "context_bucket"):
        assert type(getattr(engine, name)) is int
    _, records = engine.run(trace)
    assert records == plain


def test_served_request_record_contract():
    """``ServedRequest`` is an immutable positional record: the engine
    builds it by position, so its field order is part of the contract;
    it compares by value and derives its latencies from the fields."""
    assert ServedRequest._fields == (
        "request_id", "instance_id", "arrival_s", "admitted_s",
        "first_token_s", "finish_s", "prefill_len", "decode_len", "tenant",
        "priority", "preemptions", "swap_outs", "handoffs")
    record = ServedRequest(7, 1, 0.5, 0.75, 1.0, 3.0, 16, 5,
                           tenant="chat", preemptions=2, swap_outs=1)
    assert (record.priority, record.handoffs) == (0, 0)
    assert record.queueing_delay_s == 0.25
    assert record.service_time_s == 2.25
    assert record.end_to_end_latency_s == 2.5
    assert record.ttft_s == 0.5
    assert record.tpot_s == 0.5
    assert record == ServedRequest(
        request_id=7, instance_id=1, arrival_s=0.5, admitted_s=0.75,
        first_token_s=1.0, finish_s=3.0, prefill_len=16, decode_len=5,
        tenant="chat", priority=0, preemptions=2, swap_outs=1, handoffs=0)
    assert record != record._replace(finish_s=3.5)
    single = record._replace(decode_len=1)
    assert single.tpot_s is None and single.ttft_s == 0.5
    tokenless = record._replace(first_token_s=None)
    assert tokenless.ttft_s is None and tokenless.tpot_s is None
    with pytest.raises(AttributeError):
        record.finish_s = 4.0
    # the columns keep a None instance as -1 and a None first-token time
    # as NaN, and hand both back as None
    never_ran = RequestState(Request(request_id=7, arrival_s=0.5,
                                     scenario=Scenario(16, 5),
                                     tenant="chat"))
    columns = ServedRecords()
    columns.add(never_ran, 3.0)
    assert columns.instance_id[0] == -1
    assert math.isnan(columns.first_token_s[0])
    assert columns[0] == ServedRequest(7, None, 0.5, 3.0, None, 3.0, 16, 5,
                                       tenant="chat")
    assert columns[0].instance_id is None
    assert columns[0].first_token_s is None


def _azure(num_requests):
    return synthetic_azure_trace(num_requests, seed=0, mean_rate_per_s=8.0,
                                 diurnal_amplitude=0.3)


def _paged_swap_budget():
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
    return 1024 * layout.bytes_per_token_per_node()


#: The replay benchmark's seven workload configurations
#: (``replaybench/replay_workloads.py``), each with its trace recipe, plus
#: two preempting multi-tenant pools, so the tenant, priority, preemption
#: and swap-out columns all vary (and differ from each other).
_TWIN_CONFIGS = {
    "fifo_folded": (
        lambda n: RequestTrace(requests=list(_azure(n))),
        lambda: dict(cluster="8x2n", max_batch_size=8, policy="fifo")),
    "fifo_streaming": (
        _azure,
        lambda: dict(cluster="8x2n", max_batch_size=8, policy="fifo",
                     metrics_mode="streaming", slo=(2.0, 0.05))),
    "paged_swap": (
        lambda n: RequestTrace(requests=list(_azure(n))),
        lambda: dict(cluster="8x2n", max_batch_size=8, policy="fifo",
                     kv_mode="paged", kv_budget_bytes=_paged_swap_budget(),
                     preemption_mode="swap")),
    "prefix_multiturn": (
        lambda n: multi_turn_trace(n, seed=0, session_rate_per_s=1.0),
        lambda: dict(cluster="4x1n,2x2n,1x4n", max_batch_size=8,
                     policy="fifo", router="prefix_aware", kv_mode="paged",
                     kv_prefix_sharing=True)),
    "mixed_prefill": (
        lambda n: RequestTrace(requests=list(_azure(n))),
        lambda: dict(cluster="8x2n", max_batch_size=8, policy="fifo",
                     prefill_mode="mixed")),
    "het_least_loaded": (
        lambda n: RequestTrace(requests=list(_azure(n))),
        lambda: dict(cluster="4x1n,4x2n,1x4n", max_batch_size=8,
                     policy="fifo", router="least_loaded")),
    "disagg_handoff": (
        lambda n: RequestTrace(requests=list(_azure(n))),
        lambda: dict(cluster="4x4n:prefill,4x1n:decode", max_batch_size=8,
                     policy="fifo", router="disaggregated",
                     kv_mode="paged")),
    **{f"priority_{mode}": (
        lambda n: multi_tenant_trace(n, seed=3),
        lambda mode=mode: dict(cluster="2x1n", max_batch_size=8,
                               policy="priority", kv_mode="paged",
                               kv_budget_bytes=64 << 20,
                               preemption_mode=mode))
       for mode in ("swap", "recompute")},
}


@pytest.mark.parametrize("workload", sorted(_TWIN_CONFIGS))
def test_columnar_records_match_per_finish_records(workload, monkeypatch):
    """Slow twin of the columnar record sink: capture every finished
    request state with its finish time, build the per-finish
    ``ServedRequest`` list the engine used to keep, sort it by request id
    (stably, as the engine did), and compare it with the returned view
    field for field."""
    make_trace, engine_kwargs = _TWIN_CONFIGS[workload]
    finished = []
    add = ServedRecords.add

    def capturing_add(self, state, now):
        finished.append((state, now))
        add(self, state, now)

    monkeypatch.setattr(ServedRecords, "add", capturing_add)
    kwargs = engine_kwargs()
    if kwargs.get("metrics_mode") == "streaming":
        _, streamed = TokenServingEngine(**kwargs).run(make_trace(300))
        assert isinstance(streamed, ServedRecords)
        assert len(streamed) == 0 and streamed == [] and not finished
        assert list(streamed) == [] and streamed[:] == []
        kwargs.update(metrics_mode="full", slo=None)
    _, records = TokenServingEngine(**kwargs).run(make_trace(300))
    expected = sorted(
        (ServedRequest(
            state.request.request_id, state.instance_id,
            state.request.arrival_s,
            state.admitted_s if state.admitted_s is not None else now,
            state.first_token_s, now, state.prefill_len, state.decode_len,
            state.request.tenant, state.request.priority, state.preemptions,
            state.swap_outs, state.handoffs)
         for state, now in finished),
        key=attrgetter("request_id"))
    assert len(records) == len(expected) == 300
    if workload.startswith("priority_"):
        assert any(r.preemptions != r.swap_outs for r in expected) \
            == (workload == "priority_recompute")
        assert any(r.swap_outs for r in expected) \
            == (workload == "priority_swap")
    for got, want in zip(records, expected):
        assert type(got) is ServedRequest
        assert got._asdict() == want._asdict()
    assert list(records) == expected
    assert records == expected and expected == records
    assert records == tuple(expected)
    assert not records != expected
    assert records != expected[:-1]
    assert records != expected[:-1] + [expected[-1]._replace(finish_s=-1.0)]
    for index in (0, 1, 150, 299, -1, -2, -300):
        assert records[index] == expected[index]
    for cut in (slice(None), slice(10, 20), slice(-5, None),
                slice(None, None, -7), slice(3, 250, 11), slice(400, 500)):
        assert records[cut] == expected[cut]
    with pytest.raises(IndexError):
        records[300]
    with pytest.raises(IndexError):
        records[-301]
    assert records.index(expected[42]) == 42
    assert expected[42] in records


def test_serving_import_loads_no_dataflow_module():
    """The serving stack prices steps through the closed-form cycle model;
    the discrete-event kernel substrate is not on its import path, so a
    replay's start-up does not pay for it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, repro.serving; print(sorted(m for m in sys.modules "
            "if m.startswith('repro.dataflow')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
