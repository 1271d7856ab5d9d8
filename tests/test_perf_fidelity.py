"""Fidelity guarantees behind the fast event loop.

The perf work on the engine makes three behavioural claims, each pinned
here so a future optimisation cannot quietly trade correctness for speed:

1. Fast-forward folding (``multistep=True``) changes *when* Python
   executes decode/prefill steps, never what the simulation records:
   per-request records — every timestamp, token count, preemption and
   handoff — are bit-identical with folding on or off.  The one permitted
   relaxation is the time-weighted aggregates (busy/decode/prefill/batch
   time, and KV occupancy/fragmentation/shared fraction on paged pools),
   which folding sums per price segment — equal to within float
   round-off, not bit-for-bit.
2. The step-pricing caches shared across runs are pure memoization: a run
   against a warm cache is bit-identical to a cold-cache run, under paged
   KV, mixed prefill and disaggregated prefill/decode configurations
   alike (cache hit == cold compute, to the last bit).
3. A lazy trace is a transport, not a semantic: streaming requests into
   the engine reproduces the materialized run exactly.
"""

import itertools
import math

import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.cluster import ROUTER_NAMES
from repro.serving.engine import TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    StreamingTrace,
    bursty_trace,
    multi_turn_trace,
    synthetic_azure_trace,
)

#: Time-weighted aggregates folding may reassemble in closed form (summed
#: per price segment rather than step by step): step times and, on paged
#: pools, KV occupancy, fragmentation and shared fraction; everything else
#: must be exact.
_FOLDED_AGGREGATES = frozenset({
    "busy_time_s", "decode_step_time_s", "prefill_step_time_s",
    "mixed_step_time_s", "utilization", "instance_utilization",
    "decode_time_share", "prefill_time_share", "mixed_time_share",
    "mean_running_batch", "mean_kv_occupancy", "mean_kv_fragmentation",
    "mean_kv_shared_fraction",
})

#: KV bytes one cached token occupies on a 1-node instance.
_BYTES_PER_TOKEN_1N = KVCacheLayout.for_model(
    LoopLynxSystem.paper_configuration(num_nodes=1).config.model,
    num_nodes=1).bytes_per_token_per_node()

#: A reservation budget of 640 tokens per 1-node instance (1,280 per node
#: of a 2-node one): room for about three azure-sized requests, so KV
#: capacity, not the batch ceiling, often refuses the head.
_TIGHT_RESERVE = dict(kv_mode="reserve",
                      kv_budget_bytes=640 * _BYTES_PER_TOKEN_1N)

#: A paged pool of 768 tokens per 1-node instance (1,536 per node of a
#: 2-node one, 48 or 96 blocks of 16): growth evicts on every cluster.
_TIGHT_PAGED = dict(kv_mode="paged",
                    kv_budget_bytes=768 * _BYTES_PER_TOKEN_1N)


def _azure(num_requests, seed):
    return RequestTrace(requests=list(synthetic_azure_trace(
        num_requests, seed=seed, mean_rate_per_s=8.0,
        diurnal_amplitude=0.3)))


def _assert_summaries_match(summary_a, summary_b, exact=True):
    assert summary_a.keys() == summary_b.keys()
    for key, value in summary_a.items():
        if not exact and key in _FOLDED_AGGREGATES:
            assert value == pytest.approx(summary_b[key], rel=1e-9), key
        else:
            assert value == summary_b[key], key


def _count_posted_events(monkeypatch, trace, **kwargs):
    """Events the engine posts replaying ``trace``, each counted once:
    ``push_many`` posts a batch through ``push``, so counting ``push``
    alone counts batched handoff posts exactly once."""
    from repro.serving import engine as engine_module
    real_queue = engine_module.EventQueue
    counter = [0]

    class CountingQueue(real_queue):
        def push(self, event):
            counter[0] += 1
            super().push(event)

    monkeypatch.setattr(engine_module, "EventQueue", CountingQueue)
    try:
        TokenServingEngine(**kwargs).run(trace)
    finally:
        monkeypatch.undo()
    return counter[0]


class TestMultistepFolding:
    """Claim 1: folding is invisible in the records."""

    @pytest.mark.parametrize("kwargs", [
        dict(policy="fifo"),
        dict(policy="fifo", prefill_mode="mixed"),
        dict(policy="priority"),  # preemption interleaves with folding
        dict(policy="fifo", prefill_chunk_tokens=16),  # many-chunk prefills
    ], ids=["fifo", "mixed", "priority", "chunked"])
    def test_records_bit_identical_with_folding_on_or_off(self, kwargs):
        trace = bursty_trace(400, seed=11, mean_prefill=48, mean_decode=96)
        runs = {}
        for multistep in (True, False):
            engine = TokenServingEngine(num_instances=2, max_batch_size=4,
                                        multistep=multistep, **kwargs)
            runs[multistep] = engine.run(trace)
        metrics_on, records_on = runs[True]
        metrics_off, records_off = runs[False]
        assert records_on == records_off
        assert metrics_on.makespan_s == metrics_off.makespan_s
        assert metrics_on.generated_tokens == metrics_off.generated_tokens
        assert metrics_on.preemptions == metrics_off.preemptions
        assert metrics_on.ttfts_s == metrics_off.ttfts_s
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary(),
                                exact=False)

    def test_folding_actually_engages(self, monkeypatch):
        """The equivalence above must not pass vacuously: every pool folds
        under the one rule (single-class, heterogeneous with or without a
        vetoing router or KV gate, paged under swap and recompute, and
        prefill/decode roles), so each posts far fewer events with folding
        on than the per-step loop."""
        trace = _azure(80, seed=0)
        paged = dict(kv_mode="paged", kv_budget_bytes=64 << 20)
        for kwargs in (dict(num_instances=2),
                       dict(cluster="2x1n,2x2n", router="least_loaded"),
                       dict(cluster="2x1n,2x2n", router="class_affinity"),
                       dict(cluster="2x1n,2x2n", router="least_loaded",
                            **_TIGHT_RESERVE),
                       dict(cluster="1x2n", **paged),
                       dict(cluster="3x2n", **paged),
                       dict(cluster="3x2n", preemption_mode="recompute",
                            **paged),
                       dict(cluster="2x1n,2x2n", preemption_mode="recompute",
                            **paged),
                       dict(cluster="1x2n:prefill,2x1n:decode", **paged)):
            runs = TokenServingEngine(**kwargs)._build_runtimes()
            assert all(r.multistep for r in runs), kwargs
            counts = {multistep: _count_posted_events(
                monkeypatch, trace, max_batch_size=4, multistep=multistep,
                **kwargs) for multistep in (True, False)}
            assert counts[True] < 0.5 * counts[False], (kwargs, counts)
        assert not any(r.multistep for r in TokenServingEngine(
            multistep=False)._build_runtimes())


class TestWarmCacheBitIdentity:
    """Claim 2 (and the issue's satellite): warm cache == cold cache."""

    CONFIGS = {
        "paged": dict(cluster="2x1n", kv_mode="paged",
                      kv_budget_bytes=16 << 20, max_batch_size=4),
        "mixed": dict(num_instances=2, prefill_mode="mixed",
                      max_batch_size=4),
        "disaggregated": dict(cluster="1x2n:prefill,2x1n:decode",
                              kv_mode="paged", kv_budget_bytes=64 << 20,
                              max_batch_size=4),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_second_run_on_shared_cache_matches_cold_run(self, name):
        kwargs = self.CONFIGS[name]
        trace = bursty_trace(250, seed=5, mean_prefill=40, mean_decode=64)
        warm_engine = TokenServingEngine(policy="fifo", **kwargs)
        warm_engine.run(trace)  # populate the shared pricing caches
        assert any(any(cache) for cache in warm_engine._caches), \
            "first run should have populated at least one pricing cache"
        metrics_warm, records_warm = warm_engine.run(trace)
        cold_engine = TokenServingEngine(policy="fifo", **kwargs)
        metrics_cold, records_cold = cold_engine.run(trace)
        assert records_warm == records_cold
        _assert_summaries_match(metrics_warm.summary(),
                                metrics_cold.summary())

    def test_disaggregated_config_exercises_handoffs(self):
        """Guard the parametrization above against going vacuous: the
        disaggregated config must actually hand KV off."""
        trace = bursty_trace(250, seed=5, mean_prefill=40, mean_decode=64)
        engine = TokenServingEngine(policy="fifo",
                                    **self.CONFIGS["disaggregated"])
        metrics, _ = engine.run(trace)
        assert metrics.handoff_count > 0


class TestLazyTraceEquivalence:
    """Claim 3: streaming a trace changes memory, not results."""

    def test_streaming_trace_matches_materialized_run(self):
        lazy = synthetic_azure_trace(2_000, seed=3, mean_rate_per_s=8.0,
                                     diurnal_amplitude=0.3)
        assert isinstance(lazy, StreamingTrace)
        materialized = RequestTrace(requests=list(lazy))
        results = {}
        for label, trace in (("lazy", lazy), ("materialized", materialized)):
            engine = TokenServingEngine(cluster="4x2n", max_batch_size=8)
            results[label] = engine.run(trace)
        metrics_lazy, records_lazy = results["lazy"]
        metrics_mat, records_mat = results["materialized"]
        assert records_lazy == records_mat
        _assert_summaries_match(metrics_lazy.summary(), metrics_mat.summary())

    def test_azure_trace_is_replayable_and_sorted(self):
        trace = synthetic_azure_trace(1_000, seed=9, mean_rate_per_s=20.0)
        first = list(trace)
        second = list(trace)  # fresh iterator, identical draw
        assert first == second
        assert len(trace) == 1_000
        arrivals = [r.arrival_s for r in first]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in first] == list(range(1_000))
        assert all(math.isfinite(a) and a >= 0.0 for a in arrivals)

    def test_out_of_order_stream_is_rejected(self):
        shuffled = bursty_trace(20, seed=2).requests[::-1]
        stream = StreamingTrace(factory=lambda: iter(shuffled), length=20)
        engine = TokenServingEngine(num_instances=1)
        with pytest.raises(ValueError, match="sorted by arrival"):
            engine.run(stream)


class TestIdleGapFolding:
    """The event-loop round-2 extension: on a quiet homogeneous pool,
    folding may run an instance past the next arrival as long as enough
    *other* instances sit idle to absorb the interleaving arrivals
    instantly.  The claim is the usual one — invisible in the records —
    plus a non-vacuity check that the extension actually removes events.
    """

    TRACE_KW = dict(seed=7, arrival_rate_per_s=0.5, mean_prefill=48,
                    mean_decode=96)

    ENGINE_KW = dict(num_instances=4, max_batch_size=4, policy="fifo")

    def _trace(self):
        from repro.workloads.traces import synthetic_trace
        return synthetic_trace(400, **self.TRACE_KW)

    def _run(self, multistep):
        engine = TokenServingEngine(multistep=multistep, **self.ENGINE_KW)
        return engine.run(self._trace())

    def test_idle_pool_records_bit_identical_with_folding(self):
        metrics_on, records_on = self._run(True)
        metrics_off, records_off = self._run(False)
        assert records_on == records_off
        assert metrics_on.makespan_s == metrics_off.makespan_s
        assert metrics_on.ttfts_s == metrics_off.ttfts_s
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary(),
                                exact=False)

    def test_extension_actually_removes_events(self, monkeypatch):
        """Folding across idle-cluster gaps must post measurably fewer
        events than the per-step loop on the same quiet workload — the
        equivalence above must not pass because nothing folded."""
        counts = {multistep: _count_posted_events(
            monkeypatch, self._trace(), multistep=multistep,
            **self.ENGINE_KW) for multistep in (True, False)}
        assert counts[True] < 0.85 * counts[False], counts


class TestHeterogeneousFolding:
    """Fold eligibility on heterogeneous pools follows what admission can
    do, not whether the pool mixes classes: an empty queue stays empty
    until the next arrival on any pool without paged KV, and a full batch
    may fold past waiting requests only where no idle instance could take
    the head at a skipped boundary.  Same claim as above — records are
    bit-identical with folding on or off — over the router × policy ×
    prefill × KV matrix, plus a non-vacuity count of posted events.
    """

    CLUSTERS = ("2x1n,2x2n", "1x1n,1x2n,1x4n")

    @staticmethod
    def _assert_folding_invisible(trace, **kwargs):
        runs = {}
        for multistep in (True, False):
            engine = TokenServingEngine(max_batch_size=4,
                                        multistep=multistep, **kwargs)
            runs[multistep] = engine.run(trace)
        (metrics_on, records_on), (metrics_off, records_off) = (
            runs[True], runs[False])
        assert records_on == records_off, kwargs
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary(),
                                exact=False)

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_records_bit_identical_with_folding_on_or_off(self, router):
        trace = _azure(200, seed=1)
        matrix = itertools.product(("fifo", "sjf", "priority"),
                                   ("exclusive", "mixed"),
                                   ({}, _TIGHT_RESERVE))
        for i, (policy, prefill_mode, kv) in enumerate(matrix):
            self._assert_folding_invisible(
                trace, cluster=self.CLUSTERS[i % len(self.CLUSTERS)],
                router=router, policy=policy, prefill_mode=prefill_mode,
                **kv)

    def test_vetoed_head_is_reoffered_at_every_boundary(self):
        """Regression: an idle 1n instance vetoes head 72, another instance
        admits it, and request 1231 becomes the head.  The per-step run
        re-offers 1231 to the idle instance at the next boundary of a
        full-batch instance (320.472 s); a full-batch fold that skipped
        that boundary placed it elsewhere at 320.778 s."""
        self._assert_folding_invisible(
            _azure(1_500, seed=1), cluster="2x1n,2x2n",
            router="class_affinity", policy="sjf")

    def test_folding_removes_most_events(self, monkeypatch):
        """An admit-all heterogeneous pool folds full batches and idle
        gaps like a single-class one: folding must post under a quarter
        of the per-step loop's events."""
        trace = _azure(600, seed=0)
        counts = {multistep: _count_posted_events(
            monkeypatch, trace, cluster="4x1n,4x2n,1x4n", max_batch_size=8,
            router="least_loaded", multistep=multistep)
            for multistep in (True, False)}
        assert counts[True] < 0.25 * counts[False], counts


class TestPagedFolding:
    """Paged pools fold pure-decode runs and chunked exclusive prefills
    as far as the free block list covers their growth, so no boundary
    inside a fold can evict; the fold then replays the growth at
    dispatch.  Same claim as above — records bit-identical with folding
    on or off, KV aggregates within float round-off — over the cluster ×
    policy × preemption × prefill × prefix-sharing matrix under a budget
    tight enough to evict, plus an exact count of posted events.
    """

    CLUSTERS = ("1x2n", "3x2n", "2x1n,2x2n")

    @staticmethod
    def _assert_folding_invisible(trace, **kwargs):
        runs, pools = {}, {}
        for multistep in (True, False):
            engine = TokenServingEngine(multistep=multistep, **kwargs)
            runs[multistep] = engine.run(trace)
            # block ids record the allocation order: a fold must claim
            # its growth blocks in the per-step chain's order
            pools[multistep] = [
                (m._free, list(m._reclaimable), m._prefix_index,
                 m.peak_used_blocks) for m in engine.last_kv_managers]
        (metrics_on, records_on), (metrics_off, records_off) = (
            runs[True], runs[False])
        assert records_on == records_off, kwargs
        assert pools[True] == pools[False], kwargs
        _assert_summaries_match(metrics_on.summary(), metrics_off.summary(),
                                exact=False)

    def test_records_bit_identical_with_folding_on_or_off(self):
        azure = _azure(100, seed=2)
        multi_turn = multi_turn_trace(80, seed=2, session_rate_per_s=2.0)
        matrix = itertools.product(
            self.CLUSTERS, ("fifo", "sjf", "priority"),
            (("swap", False), ("swap", True), ("recompute", False)),
            ("exclusive", "mixed"), (False, True))
        for (cluster, policy, (preemption, swap_priority), prefill_mode,
                sharing) in matrix:
            self._assert_folding_invisible(
                multi_turn if sharing else azure, cluster=cluster,
                policy=policy, preemption_mode=preemption,
                swap_priority=swap_priority, prefill_mode=prefill_mode,
                kv_prefix_sharing=sharing, max_batch_size=6,
                prefill_chunk_tokens=32, **_TIGHT_PAGED)

    def test_recompute_victim_requeued_by_another_instance(self):
        """Regression: under recompute, another instance's growth eviction
        puts a reset request back in the shared queue, and a per-step run
        admits it at a boundary an empty-queue fold would skip."""
        self._assert_folding_invisible(
            multi_turn_trace(150, seed=0, session_rate_per_s=2.0),
            cluster="2x1n,2x2n", policy="fifo",
            preemption_mode="recompute", prefill_mode="exclusive",
            kv_prefix_sharing=True, max_batch_size=6, **_TIGHT_PAGED)

    def test_idle_instance_reoffered_at_a_folded_boundary(self):
        """Regression: at 72.572 s an idle instance refuses a head swapped
        out elsewhere, a later idle instance in the same pump resumes that
        head, and request 366 becomes the head.  The per-step run admits
        366 on the first instance at the next event, a boundary another
        instance's fold skips (72.587 s); without a wake there it was
        placed at 72.587 s on another instance after the fold's end."""
        trace = RequestTrace(requests=list(synthetic_azure_trace(
            1_200, seed=63, mean_rate_per_s=16.0, diurnal_amplitude=0.3)))
        self._assert_folding_invisible(
            trace, cluster="6x1n", policy="fifo", preemption_mode="swap",
            max_batch_size=4, kv_mode="paged",
            kv_budget_bytes=1024 * _BYTES_PER_TOKEN_1N)

    def test_posted_event_count_is_pinned(self, monkeypatch):
        """The exact number of events a small paged swap replay posts, so
        folding cannot silently stop engaging: the per-step loop posts
        24,808 here, and the run swaps 8 requests out."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        bytes_per_token = KVCacheLayout.for_model(
            system.config.model, num_nodes=2).bytes_per_token_per_node()
        trace = RequestTrace(requests=list(synthetic_azure_trace(
            400, seed=0, mean_rate_per_s=4.0, diurnal_amplitude=0.3)))
        posted = _count_posted_events(
            monkeypatch, trace, cluster="4x2n", max_batch_size=8,
            policy="fifo", preemption_mode="swap", kv_mode="paged",
            kv_budget_bytes=1024 * bytes_per_token)
        assert posted == 1_185


class TestDisaggregatedFolding:
    """Prefill/decode role pools fold under the cut rule: a fold runs while
    its instance would not take the queue head, and the engine cuts it at
    the first skipped boundary an event makes live (a handoff landing on a
    decode instance, a fresh arrival or recompute victim for a prefill
    instance, a head an idle instance would take).  Same claim as above —
    records bit-identical with folding on or off, KV aggregates within
    float round-off, end-of-run pool state equal — over the cluster ×
    router × prefill × preemption × KV-budget matrix, plus an exact count
    of posted events and the float-tie order a cut must keep.
    """

    CLUSTERS = ("1x2n:prefill,2x1n:decode", "2x4n:prefill,3x1n:decode",
                "1x2n:prefill,1x1n:decode,1x1n")

    def test_records_bit_identical_with_folding_on_or_off(self, monkeypatch):
        from repro.serving.instance import InstanceRuntime
        counts = {"cut_fold": 0, "evict": 0}
        for name in counts:
            original = getattr(InstanceRuntime, name)

            def counted(self, *args, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(InstanceRuntime, name, counted)
        trace = _azure(64, seed=2)
        matrix = itertools.product(
            self.CLUSTERS, ("disaggregated", "least_loaded", "round_robin"),
            ("exclusive", "mixed"), ("swap", "recompute"),
            (dict(kv_mode="paged", kv_budget_bytes=64 << 20), _TIGHT_PAGED))
        for cluster, router, prefill_mode, preemption, kv in matrix:
            TestPagedFolding._assert_folding_invisible(
                trace, cluster=cluster, router=router,
                prefill_mode=prefill_mode, preemption_mode=preemption,
                max_batch_size=6, prefill_chunk_tokens=32, **kv)
        # not vacuous: folds were cut and tight budgets evicted
        assert counts["cut_fold"] > 0 and counts["evict"] > 0, counts

    def test_float_tie_with_a_cut_boundary_keeps_per_step_order(self):
        """Two prefill instances start identical chunk chains at 0 s, so
        the first one's second boundary and the second one's prompt
        completion fall on the same float.  A request arriving between
        the two boundaries cuts the first instance's fold there.  The
        per-step loop posted the first instance's event first (its chain
        was launched first), so that instance takes the new request and
        prefills it behind its own long prompt; the cut must keep that
        order rather than sort behind the other completion."""
        engine_kw = dict(cluster="2x2n:prefill,1x1n:decode",
                         kv_mode="paged", kv_budget_bytes=64 << 20,
                         max_batch_size=4, prefill_chunk_tokens=64)
        runtime = TokenServingEngine(**engine_kw)._build_runtimes()[0]
        first = runtime.prefill_chunk_latency_s(0, 64)
        second = first + runtime.prefill_chunk_latency_s(64, 64)
        trace = RequestTrace(requests=[
            Request(0, 0.0, Scenario(prefill_len=256, decode_len=4)),
            Request(1, 0.0, Scenario(prefill_len=128, decode_len=4)),
            Request(2, (first + second) / 2,
                    Scenario(prefill_len=64, decode_len=4))])
        runs = {multistep: TokenServingEngine(
            multistep=multistep, **engine_kw).run(trace)[1]
            for multistep in (True, False)}
        assert runs[True] == runs[False]
        records = runs[False]
        # request 2 queued behind request 0's prompt on the first instance
        assert records[2].admitted_s == second
        assert records[2].first_token_s > records[0].first_token_s

    def test_posted_event_count_is_pinned(self, monkeypatch):
        """The exact number of events a small disaggregated replay posts,
        so role-pool folding cannot silently stop engaging: the per-step
        loop posts 18,341 here, and every request hands off once."""
        trace = RequestTrace(requests=list(synthetic_azure_trace(
            300, seed=0, mean_rate_per_s=4.0, diurnal_amplitude=0.3)))
        posted = _count_posted_events(
            monkeypatch, trace, cluster="2x2n:prefill,2x1n:decode",
            max_batch_size=8, policy="fifo", router="disaggregated",
            kv_mode="paged")
        assert posted == 1_534
