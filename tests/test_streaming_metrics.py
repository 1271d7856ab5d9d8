"""Streaming metrics mode: bounded-memory aggregates vs full fidelity.

``metrics_mode="streaming"`` trades per-request records for O(1)-memory
incremental aggregates.  The contract pinned here: every *counter* the two
modes share (requests, tokens, preemptions, swaps, handoffs, makespan) is
exactly equal, every *percentile* is within the estimator's construction
bound (0.5% relative by default; the issue's acceptance bar is 1%), and
joint SLO attainment against the pair pinned at run time matches the full
mode's after-the-fact answer exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.serving.engine import TokenServingEngine
from repro.serving.metrics import StreamingQuantile
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_trace,
    multi_turn_trace,
)

TTFT_SLO_S = 2.0
TPOT_SLO_S = 0.05


class TestStreamingQuantile:
    def test_percentiles_within_construction_bound(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-1.0, sigma=1.2, size=20_000)
        q = StreamingQuantile(relative_error=0.005)
        for v in samples:
            q.add(float(v))
        for p in (0.10, 0.50, 0.90, 0.99, 0.999):
            exact = float(np.quantile(samples, p, method="lower"))
            assert q.percentile(p) == pytest.approx(exact, rel=0.005)

    def test_exact_moments_and_extremes(self):
        values = [0.5, 1.5, 0.25, 3.0]
        q = StreamingQuantile()
        for v in values:
            q.add(v)
        assert q.count == 4
        assert q.total == sum(values)
        assert q.min == 0.25
        assert q.max == 3.0

    def test_zeros_are_first_class(self):
        """Queueing delays on an idle pool are exactly 0.0 — the estimator
        must rank them below every positive sample, not drop them."""
        q = StreamingQuantile()
        for v in (0.0, 0.0, 0.0, 1.0, 1.0):
            q.add(v)
        assert q.percentile(0.5) == 0.0
        assert q.percentile(0.9) == pytest.approx(1.0, rel=0.01)
        assert q.percentile(1.0) == 1.0  # exact max is tracked
        assert q.min == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StreamingQuantile(relative_error=0.0)
        with pytest.raises(ValueError):
            StreamingQuantile(relative_error=1.0)
        with pytest.raises(ValueError):
            StreamingQuantile().add(-0.1)
        with pytest.raises(ValueError):
            StreamingQuantile().percentile(1.5)


def _run_both_modes(trace, **kwargs):
    full_engine = TokenServingEngine(metrics_mode="full", **kwargs)
    full_metrics, full_records = full_engine.run(trace)
    stream_engine = TokenServingEngine(
        metrics_mode="streaming", slo=(TTFT_SLO_S, TPOT_SLO_S), **kwargs)
    stream_metrics, stream_records = stream_engine.run(trace)
    assert stream_records == []
    assert len(full_records) == len(trace)
    return full_metrics, stream_metrics


def _assert_counters_exact(full, stream):
    assert stream.num_requests == full.num_requests
    assert stream.generated_tokens == full.generated_tokens
    assert stream.prefill_tokens_processed == full.prefill_tokens_processed
    assert stream.preemptions == full.preemptions
    assert stream.swap_out_count == full.swap_out_count
    assert stream.swap_in_count == full.swap_in_count
    assert stream.handoff_count == full.handoff_count
    assert stream.makespan_s == full.makespan_s


class TestStreamingVsFullParity:
    def test_50k_bursty_trace_percentiles_within_one_percent(self):
        """The issue's acceptance workload: 50k bursty requests."""
        trace = bursty_trace(50_000, seed=4, mean_prefill=64,
                             mean_decode=48, burst_rate_per_s=40.0)
        full, stream = _run_both_modes(trace, cluster="4x2n",
                                       max_batch_size=8)
        _assert_counters_exact(full, stream)
        for p in (0.50, 0.90, 0.99):
            assert stream.ttft_percentile_s(p) == pytest.approx(
                full.ttft_percentile_s(p), rel=0.01)
            assert stream.tpot_percentile_s(p) == pytest.approx(
                full.tpot_percentile_s(p), rel=0.01)
            assert stream.latency_percentile_s(p) == pytest.approx(
                full.latency_percentile_s(p), rel=0.01)
        # means come from exactly tracked sums; only summation order differs
        assert stream.mean_ttft_s == pytest.approx(full.mean_ttft_s,
                                                   rel=1e-9)
        assert stream.mean_queueing_delay_s == pytest.approx(
            full.mean_queueing_delay_s, rel=1e-9)
        # joint SLO attainment: per-request pair counting is identical in
        # both modes, so the pinned pair answers exactly
        assert stream.slo_attainment(TTFT_SLO_S, TPOT_SLO_S) \
            == full.slo_attainment(TTFT_SLO_S, TPOT_SLO_S)
        # one class: its view of the pool and the cluster's agree, and
        # both divide by makespan × instances
        (pool,) = stream.per_class
        assert stream.pool_time_s == stream.makespan_s * 4
        assert pool.utilization == pytest.approx(
            stream.instance_utilization, rel=1e-12)
        assert pool.mean_running_batch == pytest.approx(
            stream.mean_running_batch, rel=1e-9)

    def test_streaming_counts_swaps_and_handoffs_exactly(self):
        """Counters that only move under pressure: run a disaggregated
        paged cluster where handoffs (and possibly swaps) actually occur,
        so the equality is not 0 == 0."""
        trace = bursty_trace(400, seed=6, mean_prefill=48, mean_decode=64)
        full, stream = _run_both_modes(
            trace, cluster="1x2n:prefill,2x1n:decode", kv_mode="paged",
            kv_budget_bytes=64 << 20, max_batch_size=4)
        _assert_counters_exact(full, stream)
        assert full.handoff_count > 0

    def test_multiturn_prefix_sharing_parity(self):
        """Multi-turn trace on a sharing-enabled paged cluster: the new
        prefix counters must be exactly equal across modes (they sum the
        same per-manager lifetime counters), and the latency quantiles
        stay within the 1% acceptance bound."""
        trace = multi_turn_trace(600, seed=13, session_rate_per_s=1.5,
                                 think_time_s=1.0)
        full, stream = _run_both_modes(
            trace, cluster="2x1n,1x2n", policy="fifo", max_batch_size=4,
            kv_mode="paged", router="prefix_aware", kv_prefix_sharing=True)
        _assert_counters_exact(full, stream)
        assert full.prefix_hits > 0  # the parity is not 0 == 0
        assert stream.kv_prefix_sharing == full.kv_prefix_sharing is True
        assert stream.prefix_hits == full.prefix_hits
        assert stream.prefill_tokens_saved == full.prefill_tokens_saved
        assert stream.cow_copies == full.cow_copies
        assert stream.mean_kv_shared_fraction == pytest.approx(
            full.mean_kv_shared_fraction, rel=1e-9)
        for p in (0.50, 0.90, 0.99):
            assert stream.ttft_percentile_s(p) == pytest.approx(
                full.ttft_percentile_s(p), rel=0.01)
            assert stream.latency_percentile_s(p) == pytest.approx(
                full.latency_percentile_s(p), rel=0.01)
        # per-class prefix breakdowns stream identically too
        full_by_class = {c.label: (c.prefix_hits, c.prefill_tokens_saved)
                         for c in full.per_class}
        stream_by_class = {c.label: (c.prefix_hits, c.prefill_tokens_saved)
                           for c in stream.per_class}
        assert stream_by_class == full_by_class

    def test_streaming_counts_preemptions_exactly(self):
        base = bursty_trace(300, seed=8, mean_prefill=40, mean_decode=80)
        trace = RequestTrace(requests=[
            Request(request_id=r.request_id, arrival_s=r.arrival_s,
                    scenario=r.scenario, priority=i % 3)
            for i, r in enumerate(base.requests)])
        full, stream = _run_both_modes(trace, num_instances=1,
                                       policy="priority", max_batch_size=2)
        _assert_counters_exact(full, stream)
        assert full.preemptions > 0

    def test_unpinned_slo_query_raises(self):
        trace = bursty_trace(50, seed=1)
        engine = TokenServingEngine(num_instances=1,
                                    metrics_mode="streaming")
        metrics, _ = engine.run(trace)
        with pytest.raises(ValueError, match="pin"):
            metrics.slo_attainment(TTFT_SLO_S, TPOT_SLO_S)

    def test_mismatched_slo_query_raises(self):
        trace = bursty_trace(50, seed=1)
        engine = TokenServingEngine(num_instances=1,
                                    metrics_mode="streaming",
                                    slo=(TTFT_SLO_S, TPOT_SLO_S))
        metrics, _ = engine.run(trace)
        with pytest.raises(ValueError, match="pinned"):
            metrics.slo_attainment(TTFT_SLO_S * 2, TPOT_SLO_S)

    def test_slo_pin_requires_streaming_mode(self):
        with pytest.raises(ValueError, match="streaming"):
            TokenServingEngine(num_instances=1,
                               slo=(TTFT_SLO_S, TPOT_SLO_S))


def test_summary_swapped_mib_is_exact_mebibytes():
    from repro.serving.metrics import ServingMetrics

    metrics = ServingMetrics(
        num_requests=0, num_instances=1, num_nodes_per_instance=1,
        makespan_s=1.0, generated_tokens=0, kv_mode="paged",
        swapped_bytes=5 * 2**20 + 2**19)
    # Binary mebibytes (2**20), not decimal megabytes (1e6): 5.5 MiB
    # exactly, with no floating-point slack.
    assert metrics.summary()["swapped_mib"] == 5.5


#: Fields that legitimately differ between the metrics modes: full mode
#: keeps per-request lists, streaming mode keeps estimators, the SLO pin
#: and its online count instead (and per class a TTFT count/sum pair).
_MODE_SPECIFIC = {"queueing_delays_s", "end_to_end_latencies_s",
                  "service_times_s", "ttfts_s", "tpots_s", "streams",
                  "slo_pin", "slo_good_requests", "metrics_mode"}
_CLASS_MODE_SPECIFIC = {"ttfts_s", "tpots_s", "ttft_count", "ttft_sum_s"}


def _data_fields(obj):
    """The constructor fields of a metrics dataclass (caches excluded)."""
    return [f.name for f in dataclasses.fields(obj) if f.init]


class TestFieldForFieldParity:
    """Both metrics modes go through one assembly, so every field they
    share is *exactly* equal — walked over the dataclass fields, so a new
    field is covered the moment it exists."""

    @pytest.mark.parametrize("trace,kwargs", [
        (bursty_trace(400, seed=6, mean_prefill=48, mean_decode=64),
         dict(cluster="1x2n:prefill,2x1n:decode", kv_mode="paged",
              kv_budget_bytes=64 << 20, max_batch_size=4)),
        (multi_turn_trace(300, seed=13, session_rate_per_s=1.5,
                          think_time_s=1.0),
         dict(cluster="2x1n,1x2n", max_batch_size=4, kv_mode="paged",
              router="prefix_aware", kv_prefix_sharing=True)),
    ], ids=["disaggregated_paged", "heterogeneous_prefix_sharing"])
    def test_every_shared_field_is_equal(self, trace, kwargs):
        full, stream = _run_both_modes(trace, **kwargs)
        compared = 0
        for name in _data_fields(full):
            if name in _MODE_SPECIFIC or name == "per_class":
                continue
            assert getattr(stream, name) == getattr(full, name), name
            compared += 1
        assert compared > 30
        assert [c.label for c in stream.per_class] == \
            [c.label for c in full.per_class]
        assert len(full.per_class) >= 2
        for full_class, stream_class in zip(full.per_class,
                                            stream.per_class):
            for name in _data_fields(full_class):
                if name in _CLASS_MODE_SPECIFIC:
                    continue
                assert getattr(stream_class, name) == \
                    getattr(full_class, name), (full_class.label, name)
            assert stream_class.mean_ttft_s == pytest.approx(
                full_class.mean_ttft_s, rel=1e-9)
        # the exclusions are not vacuous: each mode did fill its own side
        assert full.ttfts_s and stream.streams["ttft"].count
