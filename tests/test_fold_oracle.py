"""Differential fold oracle: folding on vs off over random role-free pools.

A seeded generator draws one serving configuration and one small trace per
case from the whole role-free knob space: cluster shape (single-class,
heterogeneous, a pool of one), KV mode (none, reservation, paged with or
without prefix sharing) and budget, scheduler, preemption mode and
``swap_priority``, exclusive or mixed prefill, chunk size, context bucket,
router and batch size, crossed with azure-shaped or multi-turn traces of
30–120 requests.  Each case replays its trace with ``multistep`` on and off:
the per-request records and the end-of-run paged pools must be identical,
and the summaries must match (the time-weighted aggregates folding sums
per price segment within float round-off, everything else exactly).  In
both modes busy time must equal its step-kind split plus swap time, with
no mixed-step time under exclusive prefill.

Every replay is bounded by a growth-eviction counter, so a configuration
that livelocks fails fast instead of hanging the suite.  A case that trips
the bound with folding on *and* off is the known exclusive-mode growth
livelock (pinned by ``test_exclusive_mode_growth_livelock``) and is
reported as an expected failure; a case that trips it in one mode only is
a divergence.

Tier-1 runs cases ``0 .. 119``; ``REPRO_FOLD_ORACLE_CASES=N`` runs the first
``N`` instead (a seed names a case, so a failure reproduces from its id).
"""

import os
import random

import pytest

from repro.serving.cluster import ROUTER_NAMES
from repro.serving.engine import TokenServingEngine
from repro.serving.instance import PagedRuntime
from repro.workloads.traces import (
    RequestTrace,
    multi_turn_trace,
    synthetic_azure_trace,
)

from test_perf_fidelity import _BYTES_PER_TOKEN_1N, _assert_summaries_match

#: Cases run by default (seeds ``0 .. _DEFAULT_CASES - 1``).
_DEFAULT_CASES = 120

#: Evictions one request's block growth may cause in a replay before the
#: replay counts as livelocked.  The heaviest terminating case among the
#: first 1,120 seeds reaches 740; the known livelock grows without bound.
_EVICTION_BOUND = 2_000

_CLUSTERS = {
    "single": ("2x1n", "3x1n", "2x2n", "4x2n"),
    "heterogeneous": ("2x1n,2x2n", "1x1n,1x2n,1x4n", "3x1n,1x2n"),
    "one": ("1x1n", "1x2n"),
}


class GrowthLivelock(Exception):
    """One request's growth evicted more than :data:`_EVICTION_BOUND`
    batch members in a replay."""


def _bound_growth_evictions(monkeypatch):
    """Count, per growing request, the evictions paged block growth makes
    and raise :class:`GrowthLivelock` past the bound; returns the counts,
    which the caller clears before each replay."""
    original = PagedRuntime._grow_to
    evictions = {}

    def bounded(self, state, target, now, scheduler):
        evicted = original(self, state, target, now, scheduler)
        if evicted:
            rid = state.request.request_id
            evictions[rid] = count = evictions.get(rid, 0) + 1
            if count > _EVICTION_BOUND:
                raise GrowthLivelock(
                    f"request {rid}'s growth evicted {count} times by "
                    f"{now:.1f} s")
        return evicted

    monkeypatch.setattr(PagedRuntime, "_grow_to", bounded)
    return evictions


def make_case(seed):
    """The engine keyword arguments and trace of oracle case ``seed``."""
    rng = random.Random(seed)
    cluster = rng.choice(_CLUSTERS[rng.choice(sorted(_CLUSTERS))])
    prefill_mode = rng.choice(("exclusive", "mixed"))
    config = dict(
        cluster=cluster,
        router=rng.choice(ROUTER_NAMES),
        policy=rng.choice(("fifo", "sjf", "priority")),
        max_batch_size=rng.choice((1, 2, 4, 6, 8)),
        prefill_mode=prefill_mode,
        prefill_chunk_tokens=rng.choice((None, 16, 32, 64)),
        context_bucket=rng.choice((1, 16, 32)),
    )
    if prefill_mode == "mixed":
        config["mixed_step_token_budget"] = rng.choice((64, 256))
    kv_mode = rng.choice((None, "reserve", "paged"))
    sharing = False
    if kv_mode is not None:
        config.update(kv_mode=kv_mode, kv_budget_bytes=rng.randint(
            640, 2_048) * _BYTES_PER_TOKEN_1N)
    if kv_mode == "paged":
        preemption = rng.choice(("swap", "recompute"))
        sharing = rng.random() < 0.5
        config.update(preemption_mode=preemption,
                      swap_priority=preemption == "swap"
                      and rng.random() < 0.5,
                      kv_block_size=rng.choice((8, 16)),
                      kv_prefix_sharing=sharing)
    num_requests = rng.randint(30, 120)
    trace_seed = rng.randrange(1 << 20)
    if rng.random() < (0.75 if sharing else 0.25):
        trace = multi_turn_trace(
            num_requests, seed=trace_seed,
            session_rate_per_s=rng.choice((0.5, 2.0, 8.0)))
    else:
        trace = RequestTrace(requests=list(synthetic_azure_trace(
            num_requests, seed=trace_seed,
            mean_rate_per_s=rng.choice((2.0, 8.0, 32.0)),
            diurnal_amplitude=0.3)))
    return config, trace


def _replay(config, trace, multistep, evictions):
    """One replay's observable outcome: ``None`` when it trips the
    eviction bound, the run's validation error when the trace does not
    fit the pool, else its records, end-of-run paged pools and metrics."""
    evictions.clear()
    engine = TokenServingEngine(multistep=multistep, **config)
    try:
        metrics, records = engine.run(trace)
    except GrowthLivelock:
        return None
    except ValueError as error:
        return str(error)
    # block ids record the allocation order, so equal pools mean every
    # fold claimed its growth blocks in the per-step chain's order
    pools = [(m._free, list(m._reclaimable), m._prefix_index,
              m.peak_used_blocks) for m in engine.last_kv_managers]
    return records, pools, metrics


def _assert_step_time_split(metrics, config):
    """Busy time is its step-kind split plus the serialized transfers, so
    a step charged to the wrong kind (or twice, or not at all) shows."""
    parts = (metrics.decode_step_time_s + metrics.prefill_step_time_s
             + metrics.mixed_step_time_s + metrics.swap_time_s)
    assert parts == pytest.approx(metrics.busy_time_s, rel=1e-12, abs=0), (
        config)
    if config["prefill_mode"] == "exclusive":
        assert metrics.mixed_step_time_s == 0, config


def _case_ids():
    count = int(os.environ.get("REPRO_FOLD_ORACLE_CASES", _DEFAULT_CASES))
    return range(count)


@pytest.mark.parametrize("seed", _case_ids())
def test_folding_is_invisible(seed, monkeypatch):
    config, trace = make_case(seed)
    evictions = _bound_growth_evictions(monkeypatch)
    folded = _replay(config, trace, True, evictions)
    stepped = _replay(config, trace, False, evictions)
    if folded is None and stepped is None:
        pytest.xfail(f"exclusive-mode growth livelock: {config}")
    assert folded is not None and stepped is not None, (
        f"only one mode livelocked: {config}")
    if isinstance(stepped, str):
        assert folded == stepped, config
        return
    records, pools, metrics = folded
    _assert_step_time_split(metrics, config)
    _assert_step_time_split(stepped[2], config)
    assert records == stepped[0], config
    assert pools == stepped[1], config
    _assert_summaries_match(metrics.summary(), stepped[2].summary(),
                            exact=False)


def test_generator_covers_the_knob_space():
    """The default seed range reaches every cluster shape, KV mode,
    scheduler, preemption mode, prefill mode and router."""
    seen = {}
    for seed in range(_DEFAULT_CASES):
        config, _ = make_case(seed)
        shape = ("one" if config["cluster"] in _CLUSTERS["one"]
                 else "heterogeneous" if "," in config["cluster"]
                 else "single")
        for knob, value in (
                ("shape", shape),
                ("kv_mode", config.get("kv_mode")),
                ("policy", config["policy"]),
                ("preemption_mode", config.get("preemption_mode")),
                ("swap_priority", config.get("swap_priority")),
                ("kv_prefix_sharing", config.get("kv_prefix_sharing")),
                ("prefill_mode", config["prefill_mode"]),
                ("router", config["router"])):
            seen.setdefault(knob, set()).add(value)
    assert seen["shape"] == set(_CLUSTERS)
    assert seen["kv_mode"] == {None, "reserve", "paged"}
    assert seen["policy"] == {"fifo", "sjf", "priority"}
    assert {"swap", "recompute"} <= seen["preemption_mode"]
    assert True in seen["swap_priority"]
    assert True in seen["kv_prefix_sharing"]
    assert seen["prefill_mode"] == {"exclusive", "mixed"}
    assert seen["router"] == set(ROUTER_NAMES)


@pytest.mark.xfail(strict=True, raises=GrowthLivelock, reason=(
    "exclusive-mode growth livelock: requests 40 and 45 evict each other "
    "through _grow_to forever; mixed mode's age guard would end it but "
    "moves the paged_swap benchmark digest (docs/serving.md)"))
def test_exclusive_mode_growth_livelock(monkeypatch):
    """Regression: on one 1-node paged instance under recompute, two
    requests too big to co-reside (462+182 and 239+83 tokens) evict each
    other at every growth, with folding off too.  Exclusive prefill lets
    an equal-priority grower evict an older resident (mixed prefill does
    not), so neither ever finishes."""
    _bound_growth_evictions(monkeypatch)
    trace = RequestTrace(requests=list(synthetic_azure_trace(
        195, seed=327531, mean_rate_per_s=32.0, diurnal_amplitude=0.3)))
    TokenServingEngine(
        multistep=False, cluster="1x1n", policy="priority",
        max_batch_size=2, prefill_chunk_tokens=32,
        preemption_mode="recompute", kv_mode="paged",
        kv_budget_bytes=768 * _BYTES_PER_TOKEN_1N).run(trace)
