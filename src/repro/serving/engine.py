"""Token-level serving engine: the cluster event loop.

The engine advances a **cluster** of instances one *step* at a time.  The
machinery is split across two layers:

* :class:`~repro.serving.instance.InstanceRuntime` owns everything inside
  one instance — batch formation, KV admission (worst-case reservation or
  paged blocks), paged growth, swap/recompute preemption, and
  exclusive/mixed step building.  Each runtime owns its own
  :class:`~repro.core.multi_node.LoopLynxSystem`, so a cluster may mix
  instance classes (1/2/4-node instances, different KV budgets);
* :class:`TokenServingEngine` (here) owns everything between instances —
  the shared waiting queue (a :class:`~repro.serving.schedulers.
  SchedulerPolicy`), the discrete-event clock over arrivals and step
  completions, and **routing**: on heterogeneous pools a pluggable
  :class:`~repro.serving.cluster.Router` decides which boundary instance
  pulls work next and where a request may be placed.

Behaviour preserved from the pre-cluster engines (PR 1–3), pinned by
golden-timestamp tests:

* **continuous batching** — requests join the running batch at any step
  boundary and leave the moment their last token is generated;
* **mixed prefill/decode steps** — ``prefill_mode="mixed"`` streams prompts
  in alongside live decodes under a per-step token budget;
* **pluggable scheduling** — admission order comes from a
  :class:`~repro.serving.schedulers.SchedulerPolicy` (FIFO, SJF, priority);
* **KV-capacity admission and preemption** — reservation or paged regimes,
  with swap-to-host or discard-and-recompute eviction;
* **bit-identical homogeneous pools** — a single-class cluster runs the
  exact pre-cluster dispatch order regardless of router, so every
  homogeneous configuration reproduces the PR 1–3 timestamps exactly;
* **whole-request preset** — ``max_batch_size=1``,
  ``prefill_chunk_tokens=None`` and ``context_bucket=1`` serve one whole
  request per instance at a time, a multi-server FIFO queue (the
  ``fifo-exclusive`` policy of :func:`repro.analysis.serving.run_policy`).

Request lifecycle (every transition happens at a step boundary)::

               push     route+admit           last token
    arrival ─────▶ QUEUED ───────────▶ RUNNING ────────▶ FINISHED
                     ▲                   │  ▲
                     │   preempt (evict) │  │ re-admit (swap: resume;
                     └────────── PREEMPTED──┘  recompute: prefill restarts)

On a **disaggregated** cluster (role-tagged specs like
``"1x4n:prefill,4x1n:decode"``) a prompt finishing on a prefill-role
instance takes one extra hop: its paged KV blocks are exported (a swap-out
on the prefiller), a *handoff event* delays the request by the PCIe
transfer, and it re-enters the queue pinned to the least-loaded
decode-capable instance, which pays its own swap-in at admission —
capacity, fragmentation and transfer-time accounting all ride the existing
swap machinery.

The discrete-event loop lazy-merges the sorted arrival stream with an
:class:`~repro.serving.events.EventQueue` (one binary heap) of step
completions and handoff arrivals, ordered by time and then by the order
the per-step loop would have posted them, so results are exact and
reproducible (no wall-clock time).

Units, throughout this module: timestamps and durations are **seconds** on
the simulated clock, lengths are **tokens**, KV quantities are **cached
token positions per node** (reservation mode) or **fixed-size blocks per
node** (paged mode), and swap traffic is **bytes summed over all nodes**.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from operator import add, attrgetter, eq, le, mod, mul, sub
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union, overload)

from repro.core.multi_node import LoopLynxSystem
from repro.memory.paged_kv import PagedKVManager
from repro.serving import lifecycle
from repro.serving.events import Event, EventQueue
from repro.serving.cluster import (
    ClusterSpec,
    InstanceSpec,
    Router,
    make_router,
    parse_cluster_spec,
)
from repro.serving.instance import (
    InstanceRuntime,
    InstanceStats,
    PagedRuntime,
    RequestState,
    ReservedRuntime,
)
from repro.serving.metrics import (
    METRICS_MODES,
    InstanceClassMetrics,
    ServingMetrics,
    StreamingMetricsCollector,
)
from repro.serving.schedulers import (
    KVAdmissionController,
    make_scheduler,
)
from repro.sanitize import EngineSanitizer, sanitize_enabled
from repro.units import Seconds, Tokens, require_count
from repro.workloads.traces import Request, RequestTrace, StreamingTrace

#: Accepted values for ``TokenServingEngine(preemption_mode=...)`` (paged
#: KV mode only; reservation mode always recomputes).
PREEMPTION_MODES = ("swap", "recompute")

#: Accepted values for ``TokenServingEngine(prefill_mode=...)``:
#: ``"exclusive"`` runs one request's prefill chunk per step (all co-resident
#: decodes stall while a prompt streams in — the PR 1 regime, kept
#: bit-identical); ``"mixed"`` packs one decode token per running request
#: plus prefill-chunk tokens into a single token-budgeted step, so prompts
#: stream in alongside live decodes.
PREFILL_MODES = ("exclusive", "mixed")

#: Default token budget of one mixed step (decode tokens + prefill-chunk
#: tokens); production chunked-prefill schedulers run 256–2048.
DEFAULT_MIXED_STEP_TOKEN_BUDGET = 256

#: KV recipe names accepted by ``TokenServingEngine(kv_mode=...)``
#: (``None`` = unconstrained admission).
KV_RECIPE_MODES = ("reserve", "paged")

#: One class's memo tables, in the order InstanceRuntime takes them: step
#: ``(context if tokens == 1 else 0, tokens) -> s``, prefill
#: ``(start, chunk) -> s``, transfer ``blocks -> s``.
PricingTables = Tuple[
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int], float],
    Dict[int, float],
]


def _bad_arrival(request: Request) -> ValueError:
    """The error for a NaN, infinite or negative arrival time: each would
    run to NaN latencies, an infinite makespan or a clock before zero
    instead of failing (the CSV loader refuses the same values)."""
    return ValueError(
        f"request {request.request_id} arrives at {request.arrival_s!r}s; "
        "arrival_s must be a finite number >= 0")


class ServedRequest(NamedTuple):
    """Token-level timing record of one served request: an immutable
    positional record, built on access from a run's
    :class:`ServedRecords` columns.

    All timestamps are seconds on the simulated clock; ``prefill_len`` and
    ``decode_len`` are token counts.  ``instance_id`` is the instance that
    completed the request — ``None`` for a request that never ran (it was
    never admitted anywhere, so inventing an instance id would corrupt
    per-instance aggregation; analysis helpers skip ``None`` records).
    ``preemptions`` counts every eviction from a running batch;
    ``swap_outs`` counts the subset whose KV blocks were swapped to host
    memory instead of discarded (paged ``swap`` mode), so ``preemptions -
    swap_outs`` prefills were recomputed.  ``handoffs`` counts
    prefill→decode KV handoffs (disaggregated clusters only; on such a
    cluster ``instance_id`` is the *decode* instance that generated the
    request's tokens).
    """

    request_id: int
    instance_id: Optional[int]
    arrival_s: Seconds
    admitted_s: Seconds
    first_token_s: Optional[Seconds]
    finish_s: Seconds
    prefill_len: Tokens
    decode_len: Tokens
    tenant: str = "default"
    priority: int = 0
    preemptions: int = 0
    swap_outs: int = 0
    handoffs: int = 0

    @property
    def queueing_delay_s(self) -> Seconds:
        """Seconds from arrival until first admission into a batch."""
        return self.admitted_s - self.arrival_s

    @property
    def service_time_s(self) -> Seconds:
        """Seconds from first admission to completion (includes any
        re-queued time after a preemption)."""
        return self.finish_s - self.admitted_s

    @property
    def end_to_end_latency_s(self) -> Seconds:
        """Seconds from arrival to the last generated token."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[Seconds]:
        """Time to first token in seconds, measured from *arrival* (None
        when the request generated nothing)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[Seconds]:
        """Mean seconds per output token after the first (``None`` when fewer
        than two tokens were generated — a single token has no inter-token
        gap, and a 0.0 here would drag TPOT percentiles toward zero)."""
        if self.first_token_s is None or self.decode_len <= 1:
            return None
        return (self.finish_s - self.first_token_s) / (self.decode_len - 1)


class ServedRecords(Sequence[ServedRequest]):
    """The per-request records of a full-mode run, held as columns.

    One typed array per :class:`ServedRequest` field (``'q'`` for ids and
    counts, ``'d'`` for times, a list of references for the tenants),
    filled by :meth:`add` in finish order straight from each finished
    :class:`~repro.serving.instance.RequestState`, so the finish path
    builds no per-request object.  A ``None`` instance is stored as -1 and
    a ``None`` first-token time as NaN.  :meth:`sort_by_request_id`
    computes one permutation instead of moving the columns; items are
    built on access, in request-id order, and the sequence compares equal
    to any sequence of equal records.
    """

    # one column per record field, named like it
    __slots__ = ServedRequest._fields + ("order",)

    request_id: array[int]
    instance_id: array[int]
    arrival_s: array[Seconds]
    admitted_s: array[Seconds]
    first_token_s: array[Seconds]
    finish_s: array[Seconds]
    prefill_len: array[Tokens]
    decode_len: array[Tokens]
    tenant: List[str]
    priority: array[int]
    preemptions: array[int]
    swap_outs: array[int]
    handoffs: array[int]
    #: Column rows in request-id order; ``None`` while that is row order.
    order: Optional[array[int]]

    def __init__(self) -> None:
        self.request_id = array("q")
        self.instance_id = array("q")
        self.arrival_s = array("d")
        self.admitted_s = array("d")
        self.first_token_s = array("d")
        self.finish_s = array("d")
        self.prefill_len = array("q")
        self.decode_len = array("q")
        self.tenant = []
        self.priority = array("q")
        self.preemptions = array("q")
        self.swap_outs = array("q")
        self.handoffs = array("q")
        self.order = None

    def add(self, state: RequestState, now: Seconds) -> None:
        """Append one request finished at ``now``."""
        request = state.request
        instance = state.instance_id
        admitted = state.admitted_s
        first_token = state.first_token_s
        self.request_id.append(request.request_id)
        self.instance_id.append(-1 if instance is None else instance)
        self.arrival_s.append(request.arrival_s)
        self.admitted_s.append(now if admitted is None else admitted)
        self.first_token_s.append(math.nan if first_token is None
                                  else first_token)
        self.finish_s.append(now)
        self.prefill_len.append(state.prefill_len)
        self.decode_len.append(state.decode_len)
        self.tenant.append(request.tenant)
        self.priority.append(request.priority)
        self.preemptions.append(state.preemptions)
        self.swap_outs.append(state.swap_outs)
        self.handoffs.append(state.handoffs)

    def sort_by_request_id(self) -> None:
        """Order the records by request id (stable: equal ids keep their
        finish order).

        Each row sorts as the one integer ``id * n + row`` (``n`` rows),
        which orders exactly like the pair ``(id, row)`` for any integer
        ids, so the sort holds one list of keys and no key function."""
        ids = self.request_id
        self.order = None
        if not all(map(le, ids, itertools.islice(ids, 1, None))):
            n = len(ids)
            keys = sorted(map(add, map(mul, ids, itertools.repeat(n)),
                              range(n)))
            self.order = array("q", map(mod, keys, itertools.repeat(n)))

    def rows(self) -> Sequence[int]:
        """Column rows in request-id order."""
        return range(len(self)) if self.order is None else self.order

    def in_order(self, values: array[Seconds]) -> array[Seconds]:
        """``values``, one per row, in request-id order."""
        if self.order is None:
            return values
        return array("d", map(values.__getitem__, self.order))

    def ttfts(self, rows: Iterable[int]) -> array[Seconds]:
        """:attr:`ServedRequest.ttft_s` of the records at ``rows`` that
        have one (a missing first token is NaN, and so is its
        difference)."""
        ttft = array("d", map(sub, self.first_token_s, self.arrival_s))
        return array("d", itertools.filterfalse(
            math.isnan, map(ttft.__getitem__, rows)))

    def tpots(self, rows: Iterable[int]) -> List[Optional[Seconds]]:
        """:attr:`ServedRequest.tpot_s`, aligned with :meth:`ttfts`."""
        first_token, finish = self.first_token_s, self.finish_s
        decode_len, isnan = self.decode_len, math.isnan
        return [(finish[r] - first_token[r]) / (decode_len[r] - 1)
                if decode_len[r] > 1 else None
                for r in rows if not isnan(first_token[r])]

    def _record(self, row: int) -> ServedRequest:
        instance = self.instance_id[row]
        first_token = self.first_token_s[row]
        return ServedRequest(
            self.request_id[row], None if instance < 0 else instance,
            self.arrival_s[row], self.admitted_s[row],
            None if math.isnan(first_token) else first_token,
            self.finish_s[row], self.prefill_len[row], self.decode_len[row],
            self.tenant[row], self.priority[row], self.preemptions[row],
            self.swap_outs[row], self.handoffs[row])

    def __len__(self) -> int:
        return len(self.request_id)

    @overload
    def __getitem__(self, index: int) -> ServedRequest: ...

    @overload
    def __getitem__(self, index: slice) -> List[ServedRequest]: ...

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[ServedRequest, List[ServedRequest]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._record(index if self.order is None
                            else self.order[index])

    def __iter__(self) -> Iterator[ServedRequest]:
        return map(self._record, self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


@dataclass(frozen=True, slots=True)
class _ClassProto:
    """One instance class, resolved at construction: its spec, its cycle
    model, and its KV pool — a reservation controller its instances share,
    an empty paged pool each instance clones, or ``None`` when the class
    admits unconstrained."""

    spec: InstanceSpec
    system: LoopLynxSystem
    pool: Union[KVAdmissionController, PagedKVManager, None]


class TokenServingEngine:
    """Discrete-event simulation of a cluster of instances at step
    granularity.

    The cluster is a :class:`~repro.serving.cluster.ClusterSpec` (or its
    text form, e.g. ``"2x1n,2x2n,1x4n"``) plus a per-class KV recipe
    (``kv_mode``, ``kv_budget_bytes``, ``kv_block_size``,
    ``kv_prefix_sharing``).  Each instance class gets its own cycle model
    and its own KV admission prototype.  ``router`` picks the
    cluster-routing policy (consulted only on heterogeneous pools;
    single-class pools run the same dispatch order whatever the router).

    The whole-request FIFO queue is the preset ``max_batch_size=1``,
    ``prefill_chunk_tokens=None``, ``context_bucket=1``: one request per
    instance at a time, whole-prompt prefill and exact context timing.

    Parameters
    ----------
    num_instances, num_nodes_per_instance:
        Shorthand for ``cluster=ClusterSpec.homogeneous(num_instances,
        num_nodes_per_instance)``.  Ignored when ``cluster`` is given.
    policy:
        Scheduler policy name (``fifo``, ``sjf``, ``priority``); a fresh
        :class:`SchedulerPolicy` instance per run is built from the name.
    max_batch_size:
        Decode-batch ceiling per instance; 1 disables batching (part of
        the whole-request preset).
    prefill_chunk_tokens:
        Prompt tokens processed per prefill step.  Smaller chunks interleave
        prefill with running decodes sooner; ``None`` runs each prompt to
        completion in one step.
    prefill_mode, mixed_step_token_budget:
        Exclusive vs mixed prefill and the mixed-step token budget (see
        :data:`PREFILL_MODES`).
    preemption_mode:
        What happens to a paged-mode victim's KV state: ``"swap"`` moves its
        blocks to the host tier over PCIe and the request later resumes
        without recomputation; ``"recompute"`` discards the blocks and the
        request restarts from prefill.
    context_bucket:
        Decode-step timings are memoized with the context length rounded up
        to this multiple (1 = exact).
    cluster:
        Cluster spec string or :class:`~repro.serving.cluster.ClusterSpec`.
    router:
        Router name (see :data:`~repro.serving.cluster.ROUTER_NAMES`) or a
        :class:`~repro.serving.cluster.Router` instance.
    kv_mode, kv_budget_bytes, kv_block_size:
        Per-class KV recipe: ``None`` (no admission control),
        ``"reserve"`` (worst-case reservations; a class without a budget
        admits unconstrained) or ``"paged"`` (block pool, budget defaults
        to each node's HBM share net of weights).  A class's own
        ``@<size>MiB`` budget overrides ``kv_budget_bytes``.
    kv_prefix_sharing:
        Paged recipe only: content-hash full prompt blocks into a
        per-pool prefix index so later requests whose
        ``prompt_token_ids`` share a prefix reuse the cached blocks
        (copy-on-write on divergence) and skip the matched prefill
        tokens.  Off by default — with it off every historical
        configuration is bit-identical to before the feature existed.
    swap_priority:
        Paged ``swap`` mode only: park preemption victims on their
        instance and resume them ahead of new admissions (their KV is
        already paid for), instead of sending them back through the shared
        queue.  Off by default — the PR 2/3 regime.
    metrics_mode:
        ``"full"`` (default) keeps one record per request — exact
        percentiles, the golden regime.  ``"streaming"`` folds every
        finished request into O(1)-memory aggregates
        (:class:`~repro.serving.metrics.StreamingMetricsCollector`) and
        returns *empty* records, so million-request replays hold no
        per-request state; percentiles then carry a bounded relative error
        (0.5%, :class:`~repro.serving.metrics.StreamingQuantile`'s default)
        while counters, means and extremes stay exact.
    slo:
        Optional ``(ttft_slo_s, tpot_slo_s)`` pair pinned for streaming
        runs: joint SLO attainment needs per-request TTFT/TPOT *pairs*,
        which marginal aggregates cannot recover, so streaming counts
        attainment online against exactly this pin.  Full mode answers
        arbitrary SLO queries after the fact and rejects a pin.
    multistep:
        Allow the event loop to fast-forward consecutive pure-decode steps
        (and chunks of one exclusive prefill) into single events (see
        :meth:`~repro.serving.instance.InstanceRuntime.dispatch`).  A fold
        launches whenever its instance would not take the queue head and
        is cut at the first skipped boundary a later event makes live, so
        the timestamps are bit-identical; the switch exists so
        equivalence tests can compare against the one-event-per-step
        execution.
    sanitize:
        Opt-in shadow validation (see :mod:`repro.sanitize`): re-verify
        event-time monotonicity, paged-KV block/refcount conservation and
        queue/request conservation after every processed event, raising
        :class:`~repro.errors.SanitizerError` with the offending event
        attached.  ``None`` (default) defers to the ``REPRO_SANITIZE``
        environment variable.  The checks are read-only, so sanitized
        runs stay bit-identical to unsanitized ones.

    :meth:`run` also accepts a
    :class:`~repro.workloads.traces.StreamingTrace`: arrivals are then
    drawn lazily (never materialized) and the stream must be
    arrival-sorted.  Either trace kind is checked and KV-validated per
    request as it is drawn.

    After :meth:`run`, ``last_kv_managers`` holds each instance's block pool
    (paged mode; for inspection of occupancy/swap counters in tests).
    """

    def __init__(self, num_instances: int = 1, num_nodes_per_instance: int = 2,
                 policy: str = "fifo",
                 max_batch_size: int = 8,
                 prefill_chunk_tokens: Optional[int] = 64,
                 prefill_mode: str = "exclusive",
                 mixed_step_token_budget: int = DEFAULT_MIXED_STEP_TOKEN_BUDGET,
                 preemption_mode: str = "swap",
                 context_bucket: int = 32,
                 cluster: Optional[Union[str, ClusterSpec]] = None,
                 router: Union[str, Router] = "round_robin",
                 kv_mode: Optional[str] = None,
                 kv_budget_bytes: Optional[int] = None,
                 kv_block_size: int = 16,
                 kv_prefix_sharing: bool = False,
                 swap_priority: bool = False,
                 metrics_mode: str = "full",
                 slo: Optional[Tuple[float, float]] = None,
                 multistep: bool = True,
                 sanitize: Optional[bool] = None) -> None:
        if cluster is None:
            cluster = ClusterSpec.homogeneous(num_instances,
                                              num_nodes_per_instance)
        elif isinstance(cluster, str):
            cluster = parse_cluster_spec(cluster)
        if metrics_mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {metrics_mode!r}; "
                f"known: {', '.join(METRICS_MODES)}")
        if slo is not None:
            if metrics_mode != "streaming":
                raise ValueError(
                    "an SLO pin only applies to metrics_mode='streaming' "
                    "(full mode answers arbitrary SLO queries after the "
                    "fact)")
            if len(slo) != 2:
                raise ValueError("slo must be a (ttft_slo_s, tpot_slo_s) "
                                 "pair")
            slo = (float(slo[0]), float(slo[1]))
        # integer knobs: a NaN, inf, fraction or bool is no count (it would
        # stall the run, or silently run as a rounded or unit size)
        max_batch_size = require_count(max_batch_size, "max_batch_size",
                                       "request")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if prefill_chunk_tokens is not None:
            prefill_chunk_tokens = require_count(
                prefill_chunk_tokens, "prefill_chunk_tokens", "token")
            if prefill_chunk_tokens <= 0:
                raise ValueError("prefill_chunk_tokens must be positive")
        if prefill_mode not in PREFILL_MODES:
            raise ValueError(
                f"unknown prefill mode {prefill_mode!r}; "
                f"known: {', '.join(PREFILL_MODES)}")
        mixed_step_token_budget = require_count(
            mixed_step_token_budget, "mixed_step_token_budget", "token")
        if mixed_step_token_budget <= 0:
            raise ValueError("mixed_step_token_budget must be positive")
        context_bucket = require_count(context_bucket, "context_bucket",
                                       "token")
        if context_bucket <= 0:
            raise ValueError("context_bucket must be positive")
        kv_block_size = require_count(kv_block_size, "kv_block_size",
                                      "token")
        if kv_block_size <= 0:
            raise ValueError("kv_block_size must be positive")
        if preemption_mode not in PREEMPTION_MODES:
            raise ValueError(
                f"unknown preemption mode {preemption_mode!r}; "
                f"known: {', '.join(PREEMPTION_MODES)}")
        if swap_priority and preemption_mode != "swap":
            raise ValueError(
                "swap_priority prioritizes resuming swapped-out requests; "
                "it requires preemption_mode='swap'")
        if swap_priority and kv_mode != "paged":
            raise ValueError(
                "swap_priority requires paged KV (kv_mode='paged'); "
                "nothing is ever swapped out otherwise")
        if kv_budget_bytes is not None and require_count(
                kv_budget_bytes, "kv_budget_bytes", "byte") < 0:
            raise ValueError("kv_budget_bytes cannot be negative")
        if kv_mode is not None and kv_mode not in KV_RECIPE_MODES:
            raise ValueError(f"unknown kv mode {kv_mode!r}; "
                             f"known: {', '.join(KV_RECIPE_MODES)}")
        if kv_prefix_sharing and kv_mode != "paged":
            raise ValueError(
                "kv_prefix_sharing builds prefix indices into the "
                "per-class paged block pools; it requires kv_mode='paged'")
        if kv_mode is None and (
                kv_budget_bytes is not None
                or any(spec.kv_budget_bytes is not None
                       for spec in cluster.specs)):
            raise ValueError(
                "a KV budget without kv_mode would be silently "
                "unenforced; pick kv_mode='reserve' or 'paged'")
        if cluster.has_roles:
            if kv_mode != "paged":
                raise ValueError(
                    "prefill/decode roles hand off paged KV block "
                    "tables between instances; role-tagged clusters "
                    "require kv_mode='paged'")
            roles = {spec.role for spec in cluster.specs}
            if not roles & {"prefill", "both"}:
                raise ValueError(
                    f"cluster {cluster} has no prefill-capable class; "
                    "nothing could ever compute a prompt")
            if not roles & {"decode", "both"}:
                raise ValueError(
                    f"cluster {cluster} has no decode-capable class; "
                    "handed-off prompts could never generate")
        self.policy = policy
        make_scheduler(policy)  # fail fast on unknown names
        self.router = make_router(router)
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.prefill_mode = prefill_mode
        self.mixed_step_token_budget = mixed_step_token_budget
        self.preemption_mode = preemption_mode
        self.context_bucket = context_bucket
        self.kv_prefix_sharing = kv_prefix_sharing
        self.swap_priority = swap_priority
        self.metrics_mode = metrics_mode
        self.slo = slo
        self.multistep = multistep
        #: resolved at construction: explicit argument wins over the
        #: ``REPRO_SANITIZE`` environment switch (see :mod:`repro.sanitize`)
        self.sanitize = sanitize_enabled(sanitize)
        self.cluster = cluster
        self.num_instances = cluster.num_instances
        self._protos: List[_ClassProto] = []
        for spec in cluster.specs:
            class_system = LoopLynxSystem.paper_configuration(
                num_nodes=spec.num_nodes)
            budget = (spec.kv_budget_bytes
                      if spec.kv_budget_bytes is not None
                      else kv_budget_bytes)
            pool: Union[KVAdmissionController, PagedKVManager, None] = None
            if kv_mode == "paged":
                pool = PagedKVManager.for_system(
                    class_system, block_size_tokens=kv_block_size,
                    budget_bytes=budget,
                    prefix_sharing=kv_prefix_sharing)
            elif kv_mode == "reserve" and budget is not None:
                pool = KVAdmissionController.for_system(
                    class_system, budget_bytes=budget)
            self._protos.append(_ClassProto(spec, class_system, pool))
        spec_nodes = {spec.num_nodes for spec in self.cluster.specs}
        #: Nodes per instance (0 when classes differ — use per-class
        #: metrics then).  pop() is order-independent here: only taken on
        #: a singleton set.
        self.num_nodes_per_instance = (spec_nodes.pop()  # repro-lint: disable=R006
                                       if len(spec_nodes) == 1 else 0)
        self._kv_mode = ("paged" if kv_mode == "paged"
                         else "reserve" if self._needs_validation
                         else "none")
        # step-timing memo dicts (step, prefill-chunk, transfer) and the
        # prefill running sums behind the chunk prices, shared per class
        # and across runs (the cycle model and the PCIe pricing are pure,
        # so sharing only saves evaluations)
        self._caches: List[PricingTables] = [
            ({}, {}, {}) for _ in self._protos]
        self._prefill_sums: List[Dict[int, List[float]]] = [
            {} for _ in self._protos]
        self.last_kv_managers: List[PagedKVManager] = []

    # ------------------------------------------------------------------
    # cluster construction and validation
    # ------------------------------------------------------------------
    def _build_runtimes(self) -> List[InstanceRuntime]:
        """Fresh per-run instance runtimes, ids in spec order.  The KV
        regime is picked here, once per class, by the type of its pool: a
        :class:`PagedRuntime` owns a fresh clone of the paged pool, a
        :class:`ReservedRuntime` shares the class's controller, and a
        class without a pool runs plain :class:`InstanceRuntime`."""
        runtimes: List[InstanceRuntime] = []
        for proto, caches, sums in zip(self._protos, self._caches,
                                       self._prefill_sums):
            pool, system = proto.pool, proto.system
            options: Dict[str, Any] = dict(
                class_label=proto.spec.label, role=proto.spec.role,
                max_batch_size=self.max_batch_size,
                prefill_chunk_tokens=self.prefill_chunk_tokens,
                prefill_mode=self.prefill_mode,
                mixed_step_token_budget=self.mixed_step_token_budget,
                context_bucket=self.context_bucket, step_cache=caches[0],
                prefill_cache=caches[1], prefill_sums=sums,
                transfer_cache=caches[2])
            for _ in range(proto.spec.count):
                runtime: InstanceRuntime
                if isinstance(pool, PagedKVManager):
                    runtime = PagedRuntime(
                        len(runtimes), system, pool.clone_empty(),
                        preemption_mode=self.preemption_mode,
                        swap_priority=self.swap_priority, **options)
                elif pool is not None:
                    runtime = ReservedRuntime(len(runtimes), system, pool,
                                              **options)
                else:
                    runtime = InstanceRuntime(len(runtimes), system,
                                              **options)
                runtime.multistep = self.multistep
                runtimes.append(runtime)
        return runtimes

    @property
    def _needs_validation(self) -> bool:
        """Whether any instance class constrains admission at all (with no
        KV admission anywhere, every request is trivially servable and
        the arrival path skips the per-request check)."""
        return any(p.pool is not None for p in self._protos)

    def _validate_request(self, request: Request) -> None:
        """Reject a request no instance class could ever serve (it would
        block the queue head forever); :meth:`run` calls this for each
        request as it is drawn."""
        # a request needs a class to *start* it (a prefill class holding
        # its prompt, or a role-both class holding its full context) and
        # one to *finish* it (a decode-capable class holding its full
        # context)
        starts = finishes = False
        for proto in self._protos:
            role, pool = proto.spec.role, proto.pool
            if pool is None or pool.serves_alone(request, role == "prefill"):
                starts = starts or role != "decode"
                finishes = finishes or role != "prefill"
                if starts and finishes:
                    return
        pool = self._protos[0].pool
        if len(self._protos) == 1 and pool is not None:
            pool.validate((request,))  # raises with the pool's own numbers
        if self.cluster.has_roles:
            raise ValueError(
                f"request {request.request_id} cannot be served by "
                f"cluster {self.cluster} under the KV budget: it needs a "
                "prefill-capable class holding its prompt and a "
                "decode-capable class holding its full context")
        raise ValueError(
            f"request {request.request_id} fits no instance class "
            f"of cluster {self.cluster} under the KV budget")

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, trace: Union[RequestTrace, StreamingTrace]
            ) -> Tuple[ServingMetrics, ServedRecords]:
        """Serve the trace and return aggregate metrics plus per-request
        records (sorted by request id, as :class:`ServedRecords` columns).

        A list trace is sorted once by ``(arrival_s, request_id)``; a
        :class:`~repro.workloads.traces.StreamingTrace` is consumed
        lazily, straight off its iterator (the stream contract says it
        comes pre-sorted; an out-of-order arrival raises).  Both kinds
        then take one arrival path, which checks each arrival time and
        KV-validates each request as it is drawn.  In
        ``metrics_mode="streaming"`` the returned records are empty — all
        aggregates live in the metrics object — so memory stays bounded
        however long the trace is.

        Raises ``ValueError`` for an empty trace, a non-finite or
        negative arrival time, or a request that could never be admitted
        (KV validation), and ``RuntimeError`` if the scheduler head
        deadlocks (a bug, not a workload property).
        """
        scheduler = make_scheduler(self.policy)
        runtimes = self._build_runtimes()
        self.last_kv_managers = [r.kv for r in runtimes
                                 if isinstance(r, PagedRuntime)]
        multi_class = self.cluster.is_heterogeneous
        has_roles = self.cluster.has_roles
        # no preemption and no paged KV: nothing ever re-queues work or
        # parks a victim, so an instance offered an empty queue stays idle
        quiet = scheduler.never_preempts and self._kv_mode != "paged"
        router = self.router
        # only heterogeneous pools consult the router, and only a router
        # that overrides placement_ok ever vetoes; one that never vetoes
        # needs no per-head gate call
        gate = (router.placement_ok if multi_class and type(
            router).placement_ok is not Router.placement_ok else None)
        if multi_class:
            # routers may precompute placement from the trace; a
            # StreamingTrace is re-iterable by contract, so this pass does
            # not consume the engine's arrival stream
            router.prepare(runtimes, trace)
        # step completions and handoffs; pops come out in tuple order
        events = EventQueue()
        push_event, pop_event = events.push, events.pop
        peek_event_time = events.peek_time
        seq = itertools.count()
        _STEP_DONE, _HANDOFF = 1, 2

        # ---- arrival stream ----------------------------------------------
        # Arrivals never enter the event heap: the loop below lazy-merges
        # the (sorted) arrival iterator with the heap, processing an
        # arrival whenever it is due no later than the earliest event —
        # exactly the order the old push-everything-first loop produced,
        # without a million heap entries.  A list is sorted here, so the
        # order check below can fire only on a stream.
        requests: Iterable[Request] = (
            trace if isinstance(trace, StreamingTrace)
            else sorted(trace, key=attrgetter("arrival_s", "request_id")))
        validate = self._validate_request if self._needs_validation else None

        def arrival_states() -> Iterator[RequestState]:
            inf = math.inf
            last = -inf
            for request in requests:
                arrival = request.arrival_s
                if not 0 <= arrival < inf:  # also false for NaN
                    raise _bad_arrival(request)
                if arrival < last:
                    raise ValueError(
                        "streaming traces must be sorted by arrival "
                        f"time; request {request.request_id} at "
                        f"{arrival}s follows one at {last}s")
                last = arrival
                if validate is not None:
                    validate(request)
                yield RequestState(request)

        arrivals = arrival_states()
        next_state = next(arrivals, None)
        if next_state is None:
            raise ValueError("trace is empty")
        next_arrival_t = next_state.request.arrival_s
        num_arrivals = 0

        records = ServedRecords()
        collector: Optional[StreamingMetricsCollector] = None
        if self.metrics_mode == "streaming":
            collector = StreamingMetricsCollector(
                slo=self.slo,
                class_of_instance={r.instance_id: r.class_label
                                   for r in runtimes})
            record = collector.add
        else:
            record = records.add

        # Events are ``(time, posted, seq, kind, payload)``: equal-time
        # events run in the order the per-step loop would have posted
        # them.  A step completion counts as posted at the boundary before
        # it (for a fold, the last one it skips), so a fold or a cut sorts
        # among same-time events as its per-step twin would, then by its
        # launch's sequence number, which a cut keeps.
        launch_seqs = [0] * len(runtimes)

        def dispatch(runtime: InstanceRuntime, now: float) -> None:
            launch = runtime.dispatch(scheduler, now, gate=gate)
            if launch is not None:
                completes = launch.completes_at_s
                if completes is None:
                    push_event((now + launch.duration_s, now, next(seq),
                                _STEP_DONE, launch.payload))
                else:
                    # a fold: a cut re-posts it under this sequence number
                    launch_seqs[runtime.instance_id] = launch_seq = next(seq)
                    push_event((completes, launch.posted_at_s, launch_seq,
                                _STEP_DONE, launch.payload))

        def pump(completer: Optional[InstanceRuntime], now: float) -> None:
            """Offer the queue to every instance at a step boundary.

            Heterogeneous pools let the router order all boundary
            instances (idle ones are always woken: a vetoed head must be
            able to reach its preferred class the moment it has a
            boundary).  Single-class pools replay the exact pre-cluster
            order: the completing instance first, then, if the queue is
            non-empty, every idle instance in id order (arrivals offer to
            idle instances only).  On a pool without paged KV an idle
            instance admits any validated head, so none is idle while a
            request waits; paged pools need the idle pass, because swap
            affinity can strand work on an idle instance.  Once the queue
            is empty an idle instance without parked victims has nothing
            to admit, so it is not offered; on a ``quiet`` pool an empty
            queue therefore needs no order.
            """
            qlen = scheduler.__len__
            if multi_class and (qlen() or not quiet):
                order = router.dispatch_order(
                    [r for r in runtimes if r is completer or not r.busy],
                    scheduler.peek())
            else:
                if completer is not None:
                    dispatch(completer, now)
                    completer = None  # had its turn: offer it only if idle
                if not qlen():
                    return
                order = [r for r in runtimes if not r.busy]
            # an instance idle when the order was taken stays idle until
            # its own dispatch
            for runtime in order:
                if runtime is completer or qlen() or runtime.parked:
                    dispatch(runtime, now)

        def launch_handoffs(runtime: InstanceRuntime, now: float) -> None:
            """Route every prompt the completed step finished on a
            prefill-role instance: import its KV into the least-loaded
            decode-capable instance's host tier (so the blocks always live
            on exactly one instance) and schedule the request's arrival in
            the queue at its ready offset — the runtime serializes
            same-step transfers over the one PCIe link, so the offsets
            already stack."""
            batch: List[Event] = []
            for state, cached_tokens, ready_s in runtime.take_handoffs():
                target = router.handoff_target(runtimes, state)
                if not isinstance(target, PagedRuntime):  # pragma: no cover
                    raise RuntimeError(
                        f"no decode-capable instance can hold request "
                        f"{state.request.request_id}; KV validation should "
                        "have rejected this trace")
                target.kv.import_handoff(state.request.request_id,
                                         cached_tokens)
                state.swapped_on = target.instance_id
                state.handoff_pending = True
                batch.append((now + ready_s, now, next(seq), _HANDOFF,
                              state))
            if batch:
                # one boundary's handoffs post together (they share the
                # step's timestamp base)
                events.push_many(batch)

        # ---- cuts: interrupting in-flight folds ---------------------------
        # A fold launches while its instance would not take the queue head
        # (see ``InstanceRuntime.dispatch``), but a later event can make a
        # skipped boundary live: the queue head becomes one the folding
        # instance would take there (an arrival, a handoff landing on it, a
        # recompute victim re-queued as fresh work, a completion elsewhere
        # that admits the old head), or one an idle instance would take
        # (an idle instance may refuse a head just before a later one in
        # the same pump admits it and exposes one the first could take,
        # and the per-step loop offers it that head at the next boundary of
        # any instance, since every pump offers idle ones; on a pool where
        # an idle instance admits any head, none is idle while one waits
        # and the scan finds nothing).  After every event's pump the
        # earliest such skipped boundary is cut: its fold is truncated
        # there and re-posted under a new generation, and the stale
        # completion is dropped when popped.  Only the head matters (a
        # boundary's admissions stop at the first refusal), and it cannot
        # change between events without a cut.
        never_preempts = scheduler.never_preempts

        def cut_live_boundary(now: float) -> None:
            head = scheduler.peek()
            if head is None:
                return
            first, posted, steps = float("inf"), 0.0, 0
            folder: Optional[InstanceRuntime] = None
            idle_takes: Optional[bool] = None
            for r in runtimes:
                if r.fold is None:
                    continue
                if not r.would_take(head, gate, never_preempts):
                    if idle_takes is None:
                        idle_takes = any(not i.busy and i.admits(head, gate)
                                         for i in runtimes)
                    if not idle_takes:
                        continue
                boundary = r.next_skipped_boundary(now)
                if boundary is not None and boundary[0] < first:
                    (first, steps, posted), folder = boundary, r
            if folder is not None:
                push_event((first, posted, launch_seqs[folder.instance_id],
                            _STEP_DONE, folder.cut_fold(steps, posted)))

        # ---- shadow validation (opt-in, read-only) -----------------------
        sanitizer = EngineSanitizer() if self.sanitize else None

        def num_completed() -> int:
            return len(records) if collector is None else collector.count

        def sanitize_check(now: float, event: object) -> None:
            """Re-verify the engine invariants after one processed event
            (only ever called with the sanitizer enabled)."""
            assert sanitizer is not None  # mypy narrowing  # repro-lint: disable=R005
            in_flight = 0
            live_steps: Dict[int, int] = {}
            for entry in events:
                if entry[3] == _HANDOFF:
                    in_flight += 1
                elif entry[4][4] == entry[4][1].generation:
                    owner = entry[4][1].instance_id
                    live_steps[owner] = live_steps.get(owner, 0) + 1
            sanitizer.after_event(
                now, event, scheduler=scheduler, runtimes=runtimes,
                num_arrivals=num_arrivals, completed=num_completed(),
                in_flight_handoffs=in_flight, live_steps=live_steps)

        # no pool is exempt: every fold relies on this cut for exactness
        cut = cut_live_boundary if self.multistep else None
        nextafter, inf = math.nextafter, math.inf
        # Each event sets the instance that completed a step (if any), the
        # time a skipped boundary must follow to be cut, and what the
        # sanitizer reports; the pump, cut and check after it are shared.
        while True:
            if next_state is not None and (
                    not events or next_arrival_t <= peek_event_time()):
                now = next_arrival_t
                scheduler.push(next_state)
                num_arrivals += 1
                completer: Optional[InstanceRuntime] = None
                # an arrival precedes every event at its own time, so a
                # boundary at exactly ``now`` has not happened yet
                cut_after = nextafter(now, -inf)
                label, subject = "arrival", next_state.request.request_id
                next_state = next(arrivals, None)
                next_arrival_t = (next_state.request.arrival_s
                                  if next_state is not None else inf)
            elif not events:
                break
            else:
                now, _, _, kind, payload = pop_event()
                cut_after = now
                if kind == _STEP_DONE:
                    completer = payload[1]
                    if payload[4] != completer.generation:
                        continue  # a cut fold's original completion
                    for state in completer.complete_step(payload, now):
                        record(state, now)
                    if has_roles:
                        launch_handoffs(completer, now)
                    label, subject = "step-done", completer.instance_id
                else:
                    completer = None
                    lifecycle.transition(payload, "handoff_arrive")
                    scheduler.push(payload)
                    label, subject = "handoff", payload.request.request_id
            pump(completer, now)
            if cut is not None:
                cut(cut_after)
            if sanitizer is not None:
                sanitize_check(now, (label, subject, now))

        completed = num_completed()
        if completed != num_arrivals:
            raise RuntimeError(
                f"engine stalled: {num_arrivals - completed} requests "
                "never finished (scheduler head permanently blocked)")

        records.sort_by_request_id()
        return self._metrics(runtimes, records, collector), records

    # ------------------------------------------------------------------
    # metrics assembly
    # ------------------------------------------------------------------
    def _kv_pool_shape(self) -> Tuple[int, int]:
        """``(kv_block_size, kv_total_blocks)`` of the paged pools (0, 0
        outside paged mode)."""
        managers = self.last_kv_managers
        # the pop()s are order-independent: only taken on singleton sets
        block_sizes = {m.block_size_tokens for m in managers}
        kv_block_size = (block_sizes.pop()  # repro-lint: disable=R006
                         if len(block_sizes) == 1 else 0)
        # per-instance pool size on a single class; the cluster-wide
        # total when classes have different pools
        totals = {m.total_blocks for m in managers}
        kv_total_blocks = (totals.pop() if len(totals) == 1  # repro-lint: disable=R006
                           else sum(m.total_blocks for m in managers))
        return kv_block_size, kv_total_blocks

    def _metrics(self, runtimes: List[InstanceRuntime],
                 records: ServedRecords,
                 collector: Optional[StreamingMetricsCollector]
                 ) -> ServingMetrics:
        """The run's metrics in either mode: step accounting summed from
        the runtimes' stats, KV traffic from their pools, and the
        request-derived fields from the records (full mode) or the
        collector (streaming mode, per-request lists left empty)."""
        served: Dict[str, Any]
        if collector is None:
            # per-row differences in finish order, then put in id order
            in_order = records.in_order
            arrival, admitted = records.arrival_s, records.admitted_s
            finish = records.finish_s
            makespan = max(finish)
            served = dict(
                num_requests=len(records),
                generated_tokens=sum(records.decode_len),
                preemptions=sum(records.preemptions),
                queueing_delays_s=in_order(
                    array("d", map(sub, admitted, arrival))),
                end_to_end_latencies_s=in_order(
                    array("d", map(sub, finish, arrival))),
                service_times_s=in_order(
                    array("d", map(sub, finish, admitted))),
                ttfts_s=records.ttfts(records.rows()),
                tpots_s=records.tpots(records.rows()))
        else:
            makespan = collector.max_finish_s
            served = dict(
                num_requests=collector.count,
                generated_tokens=collector.generated_tokens,
                preemptions=collector.preemptions,
                metrics_mode="streaming",
                streams=collector.streams(),
                slo_pin=collector.slo,
                slo_good_requests=collector.slo_good)
        stats = InstanceStats.total(r.stats for r in runtimes)
        pool_time = makespan * self.num_instances
        managers = self.last_kv_managers
        kv_block_size, kv_total_blocks = self._kv_pool_shape()
        return ServingMetrics(
            num_instances=self.num_instances,
            num_nodes_per_instance=self.num_nodes_per_instance,
            makespan_s=makespan,
            policy=self.policy,
            prefill_mode=self.prefill_mode,
            busy_time_s=stats.busy_time,
            prefill_tokens_processed=stats.prefill_tokens,
            decode_step_time_s=stats.decode_time,
            prefill_step_time_s=stats.prefill_time,
            mixed_step_time_s=stats.mixed_time,
            kv_mode=self._kv_mode,
            kv_block_size=kv_block_size,
            kv_total_blocks=kv_total_blocks,
            mean_running_batch=(stats.batch_time / pool_time
                                if pool_time > 0 else 0.0),
            mean_kv_occupancy=(stats.kv_occ_time / pool_time
                               if pool_time > 0 else 0.0),
            peak_kv_occupancy=stats.peak_kv_occupancy,
            mean_kv_fragmentation=(stats.frag_time / stats.busy_time
                                   if stats.busy_time > 0 else 0.0),
            swap_out_count=sum(m.swap_out_count for m in managers),
            swap_in_count=sum(m.swap_in_count for m in managers),
            swapped_bytes=sum(m.swapped_bytes_total for m in managers),
            swap_time_s=stats.swap_time_s,
            handoff_count=stats.handoff_out_count,
            handoff_time_s=stats.handoff_time_s,
            kv_prefix_sharing=self.kv_prefix_sharing,
            prefix_hits=sum(m.prefix_hits for m in managers),
            prefill_tokens_saved=sum(m.prefix_tokens_reused
                                     for m in managers),
            cow_copies=sum(m.cow_copies for m in managers),
            mean_kv_shared_fraction=(stats.shared_kv_time / stats.busy_time
                                     if stats.busy_time > 0 else 0.0),
            cluster=str(self.cluster),
            router=self.router.name,
            per_class=self._per_class(runtimes, records, collector,
                                      makespan, served),
            **served,
        )

    def _per_class(self, runtimes: List[InstanceRuntime],
                   records: ServedRecords,
                   collector: Optional[StreamingMetricsCollector],
                   makespan: float, pool: Dict[str, Any]
                   ) -> List[InstanceClassMetrics]:
        """Per-class metrics in spec order, request counters drawn like
        :meth:`_metrics` (streaming keeps the mean TTFT as a count/sum
        pair).  Records with ``instance_id=None`` belong to no class; a
        class that served every record shares the ``pool``'s lists."""
        by_label: Dict[str, List[InstanceRuntime]] = {}
        for runtime in runtimes:
            by_label.setdefault(runtime.class_label, []).append(runtime)
        out: List[InstanceClassMetrics] = []
        for label, group in by_label.items():
            served: Dict[str, Any]
            if collector is None:
                ids = {r.instance_id for r in group}
                instance = records.instance_id
                whole = sum(map(ids.__contains__, instance)) == len(records)
                rows = records.rows() if whole else [
                    r for r in records.rows() if instance[r] in ids]
                served = dict(
                    requests=len(rows),
                    generated_tokens=sum(map(records.decode_len.__getitem__,
                                             rows)),
                    preemptions=sum(map(records.preemptions.__getitem__,
                                        rows)),
                    ttfts_s=pool["ttfts_s"] if whole else records.ttfts(rows),
                    tpots_s=pool["tpots_s"] if whole else records.tpots(rows))
            else:
                tally = collector.per_class.get(label, [0, 0, 0, 0, 0.0])
                served = dict(requests=tally[0], generated_tokens=tally[1],
                              preemptions=tally[2], ttft_count=tally[3],
                              ttft_sum_s=tally[4])
            stats = InstanceStats.total(r.stats for r in group)
            pools = [r.kv for r in group if isinstance(r, PagedRuntime)]
            class_time = makespan * len(group)
            out.append(InstanceClassMetrics(
                label=label,
                num_instances=len(group),
                num_nodes=group[0].num_nodes,
                role=group[0].role,
                makespan_s=makespan,
                busy_time_s=stats.busy_time,
                batch_time_s=stats.batch_time,
                mean_kv_occupancy=(stats.kv_occ_time / class_time
                                   if class_time > 0 else 0.0),
                peak_kv_occupancy=stats.peak_kv_occupancy,
                kv_total_blocks=pools[0].total_blocks if pools else 0,
                swap_out_count=sum(m.swap_out_count for m in pools),
                swap_in_count=sum(m.swap_in_count for m in pools),
                prefix_hits=sum(m.prefix_hits for m in pools),
                prefill_tokens_saved=sum(m.prefix_tokens_reused
                                         for m in pools),
                handoffs_out=stats.handoff_out_count,
                handoffs_in=stats.handoff_in_count,
                handoff_time_s=stats.handoff_time_s,
                **served,
            ))
        return out
