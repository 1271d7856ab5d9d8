"""The replay benchmark's pinned workloads, fidelity digest and health guards.

Every workload is an open-loop arrival trace of fixed size: arrivals follow
simulated time, never host time, so the engine receives the same inputs
however fast the host runs.  Each one is chosen to put a different layer of
the simulator on the hot path (see ``README.md`` in this directory for the
layer each should move and the control it is paired with).

The seed only feeds the trace generator; the engine receives nothing but
the generated trace and a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.serving.engine import TokenServingEngine
from repro.serving.metrics import ServingMetrics
from repro.workloads import traces

#: Azure-shaped arrivals shared by every azure workload: 8 req/s mean with a
#: +-30% diurnal swing keeps an 8-instance pool busy but not backlogged.
AZURE_RATE_PER_S = 8.0
AZURE_DIURNAL_AMPLITUDE = 0.3

#: paged_swap's per-node KV budget: exactly one max-length context, so the
#: pool is tight enough that swap preemption happens on every seed.
PAGED_SWAP_BUDGET_TOKENS = 1024

#: A workload whose simulated p99 TTFT exceeds this is measuring a growing
#: backlog, not the configuration it names.
MAX_P99_TTFT_S = 5.0

#: Digest fields compared with a relative tolerance: time-weighted
#: aggregates whose last bits fast-forward folding may legitimately relax.
TOLERANT_FIELDS = ("instance_utilization", "mean_running_batch",
                   "mean_kv_occupancy")
DIGEST_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One pinned replay: a trace recipe plus a fixed engine configuration."""

    name: str
    num_requests: int
    trace: Callable[[int, int], object]
    engine: Callable[[], TokenServingEngine]


def _azure(num_requests: int, seed: int) -> traces.StreamingTrace:
    # looked up through the module so the layer tracer's wrapper is seen
    return traces.synthetic_azure_trace(
        num_requests, seed=seed, mean_rate_per_s=AZURE_RATE_PER_S,
        diurnal_amplitude=AZURE_DIURNAL_AMPLITUDE)


def _azure_materialized(num_requests: int, seed: int) -> traces.RequestTrace:
    return traces.RequestTrace(requests=list(_azure(num_requests, seed)))


def _multi_turn(num_requests: int, seed: int) -> traces.RequestTrace:
    return traces.multi_turn_trace(num_requests, seed=seed,
                                   session_rate_per_s=1.0)


def _paged_swap_engine() -> TokenServingEngine:
    system = LoopLynxSystem.paper_configuration(num_nodes=2)
    layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
    return TokenServingEngine(
        cluster="8x2n", max_batch_size=8, policy="fifo", kv_mode="paged",
        kv_budget_bytes=PAGED_SWAP_BUDGET_TOKENS
        * layout.bytes_per_token_per_node(),
        preemption_mode="swap")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fifo_folded", 30_000,
        _azure_materialized,
        lambda: TokenServingEngine(cluster="8x2n", max_batch_size=8,
                                   policy="fifo")),
    Workload(
        "fifo_streaming", 30_000,
        _azure,
        lambda: TokenServingEngine(cluster="8x2n", max_batch_size=8,
                                   policy="fifo", metrics_mode="streaming",
                                   slo=(2.0, 0.05))),
    Workload(
        "paged_swap", 2_500,
        _azure_materialized, _paged_swap_engine),
    Workload(
        "prefix_multiturn", 2_000,
        _multi_turn,
        lambda: TokenServingEngine(cluster="4x1n,2x2n,1x4n",
                                   max_batch_size=8, policy="fifo",
                                   router="prefix_aware", kv_mode="paged",
                                   kv_prefix_sharing=True)),
    Workload(
        "mixed_prefill", 20_000,
        _azure_materialized,
        lambda: TokenServingEngine(cluster="8x2n", max_batch_size=8,
                                   policy="fifo", prefill_mode="mixed")),
    Workload(
        "het_least_loaded", 3_000,
        _azure_materialized,
        lambda: TokenServingEngine(cluster="4x1n,4x2n,1x4n",
                                   max_batch_size=8, policy="fifo",
                                   router="least_loaded")),
    Workload(
        "disagg_handoff", 1_500,
        _azure_materialized,
        lambda: TokenServingEngine(cluster="4x4n:prefill,4x1n:decode",
                                   max_batch_size=8, policy="fifo",
                                   router="disaggregated", kv_mode="paged")),
)}


def digest(metrics: ServingMetrics) -> Dict[str, float]:
    """The simulated results a host-speed change must leave unchanged."""
    return {
        "num_requests": metrics.num_requests,
        "makespan_s": metrics.makespan_s,
        "generated_tokens": metrics.generated_tokens,
        "prefill_tokens_processed": metrics.prefill_tokens_processed,
        "p50_ttft_s": metrics.ttft_percentile_s(0.50),
        "p99_ttft_s": metrics.ttft_percentile_s(0.99),
        "p99_tpot_s": metrics.tpot_percentile_s(0.99),
        "mean_queueing_delay_s": metrics.mean_queueing_delay_s,
        "preemptions": metrics.preemptions,
        "swap_outs": metrics.swap_out_count,
        "handoff_count": metrics.handoff_count,
        "prefix_hits": metrics.prefix_hits,
        "prefill_tokens_saved": metrics.prefill_tokens_saved,
        "instance_utilization": metrics.instance_utilization,
        "mean_running_batch": metrics.mean_running_batch,
        "mean_kv_occupancy": metrics.mean_kv_occupancy,
    }


def digest_mismatches(expected: Dict[str, float],
                      actual: Dict[str, float]) -> List[str]:
    """Fields where ``actual`` departs from ``expected``: exact equality,
    except :data:`TOLERANT_FIELDS` within :data:`DIGEST_REL_TOL`."""
    bad = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if key in TOLERANT_FIELDS and want is not None and got is not None:
            same = math.isclose(want, got, rel_tol=DIGEST_REL_TOL)
        else:
            same = want == got
        if not same:
            bad.append(f"{key}: expected {want!r}, got {got!r}")
    return bad


def prefix_token_hit_ratio(result_digest: Dict[str, float]) -> float:
    """Share of prompt tokens served from the prefix cache."""
    saved = result_digest["prefill_tokens_saved"]
    total = saved + result_digest["prefill_tokens_processed"]
    return saved / total if total else 0.0


def health_failures(name: str, result_digest: Dict[str, float],
                    heterogeneous: bool,
                    folded_launch_fraction: Optional[float]) -> List[str]:
    """Reasons the replay stopped measuring what its workload names.

    ``folded_launch_fraction`` is only known in traced runs (it needs the
    dispatch wrapper); the fifo_folded guard is skipped when it is None.
    The paged_swap guard only applies at the pinned size: a shorter smoke
    trace may never fill the pool.
    """
    failures = []
    if result_digest["p99_ttft_s"] >= MAX_P99_TTFT_S:
        failures.append(f"p99 TTFT {result_digest['p99_ttft_s']:.3f} s >= "
                        f"{MAX_P99_TTFT_S} s: the run measures a backlog")
    checks: Dict[str, Tuple[bool, str]] = {
        "paged_swap": (
            result_digest["swap_outs"] > 0
            or result_digest["num_requests"] < WORKLOADS[name].num_requests,
            "no swap-outs"),
        "prefix_multiturn": (prefix_token_hit_ratio(result_digest) >= 0.3,
                             "prefix token hit ratio below 0.3"),
        "disagg_handoff": (
            result_digest["handoff_count"] == result_digest["num_requests"],
            "not every request handed off exactly once"),
        "het_least_loaded": (heterogeneous, "the pool is not heterogeneous"),
    }
    if folded_launch_fraction is not None:
        checks["fifo_folded"] = (folded_launch_fraction > 0,
                                 "no launch was folded")
    ok, reason = checks.get(name, (True, ""))
    if not ok:
        failures.append(reason)
    return failures
