"""Serving-level simulation of LoopLynx deployments.

The paper evaluates isolated requests; a downstream user deploying LoopLynx
for LLM serving cares about sustained behaviour under a stream of requests:
queueing delay, time-to-first-token, latency percentiles, utilization and
energy.  This package simulates a pool of LoopLynx instances fed from a
request trace, one serving step at a time:

* :mod:`repro.serving.engine` — the token-level engine: the cluster event
  loop over arrivals, routing and step completions, with continuous
  batching, mixed prefill/decode steps, pluggable schedulers, KV-capacity
  admission (worst-case reservations or paged block allocation via
  :mod:`repro.memory.paged_kv`), and preemption with swap-to-host or
  recompute restoration;
* :mod:`repro.serving.instance` — the per-instance runtime: batch
  formation, step building and KV/preemption mechanics of one (possibly
  1/2/4-node) LoopLynx deployment;
* :mod:`repro.serving.cluster` — heterogeneous instance pools
  (:class:`InstanceSpec`/:class:`ClusterSpec`, e.g. ``"2x1n,2x2n,1x4n"``)
  and the pluggable cluster routers (round-robin, least-loaded, KV-aware,
  class-affinity);
* :mod:`repro.serving.schedulers` — FIFO / SJF / priority policies and the
  reservation-mode KV admission controller (``fifo-exclusive``, the
  whole-request FIFO queue, is an engine preset:
  :func:`repro.analysis.serving.run_policy`);
* :mod:`repro.serving.metrics` — latency/TTFT/TPOT/throughput/energy
  summaries.
"""

from repro.serving.cluster import (
    ClassAffinityRouter,
    ClusterSpec,
    InstanceSpec,
    KVAwareRouter,
    LeastLoadedRouter,
    ROUTER_NAMES,
    RoundRobinRouter,
    Router,
    make_router,
    parse_cluster_spec,
)
from repro.serving.engine import (
    DEFAULT_MIXED_STEP_TOKEN_BUDGET,
    PREEMPTION_MODES,
    PREFILL_MODES,
    ServedRecords,
    ServedRequest,
    TokenServingEngine,
)
from repro.serving.instance import InstanceRuntime, RequestState
from repro.serving.metrics import (
    InstanceClassMetrics,
    ServingMetrics,
    percentile,
)
from repro.serving.schedulers import (
    FIFO_EXCLUSIVE,
    FifoScheduler,
    KVAdmissionController,
    POLICY_NAMES,
    PriorityScheduler,
    SchedulerPolicy,
    ShortestJobFirstScheduler,
    make_scheduler,
)

__all__ = [
    "DEFAULT_MIXED_STEP_TOKEN_BUDGET",
    "PREEMPTION_MODES",
    "PREFILL_MODES",
    "ROUTER_NAMES",
    "ServedRecords",
    "ServedRequest",
    "TokenServingEngine",
    "InstanceRuntime",
    "RequestState",
    "ClusterSpec",
    "InstanceSpec",
    "parse_cluster_spec",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "KVAwareRouter",
    "ClassAffinityRouter",
    "make_router",
    "InstanceClassMetrics",
    "ServingMetrics",
    "percentile",
    "FifoScheduler",
    "KVAdmissionController",
    "POLICY_NAMES",
    "PriorityScheduler",
    "SchedulerPolicy",
    "ShortestJobFirstScheduler",
    "make_scheduler",
    "FIFO_EXCLUSIVE",
]
