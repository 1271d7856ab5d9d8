"""Per-instance serving runtime: one LoopLynx deployment at step granularity.

This module is the *instance* half of the serving engine's two-layer split:

* :class:`InstanceRuntime` (here) owns everything that happens **inside one
  instance** — the running batch, step formation (pure decode, exclusive
  prefill chunks, or token-budgeted mixed steps), KV-capacity admission
  gates (worst-case reservation or paged block growth), and preemption
  mechanics (swap-to-host or discard-and-recompute).  Every runtime owns its
  own :class:`~repro.core.multi_node.LoopLynxSystem`, so instances in one
  cluster may differ in node count, KV budget and block pool.  The KV
  regime is the runtime's class (:class:`InstanceRuntime` without KV,
  :class:`ReservedRuntime` or :class:`PagedRuntime`), picked once per
  instance class by ``TokenServingEngine._build_runtimes``;
* the *cluster* half (:mod:`repro.serving.cluster` +
  :class:`~repro.serving.engine.TokenServingEngine`) owns everything that
  happens **between** instances: the shared waiting queue, routing of work
  to instances, and the discrete-event clock.

The boundary is the *step boundary*: the engine calls :meth:`dispatch` when
an instance is at one (idle, or just completed a step) and the runtime
returns the next step to execute — the engine never reaches into a batch
mid-step, and the runtime never touches the event heap.

All the logic here is extracted verbatim from the pre-cluster
``TokenServingEngine`` (PR 1–3); homogeneous pools remain bit-identical to
those engines, a property pinned by golden-timestamp tests.

Units match the engine: seconds (simulated clock), tokens (lengths), cached
positions or blocks per node (KV), bytes summed over nodes (swap traffic).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import repeat
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.multi_node import LoopLynxSystem
from repro.errors import InvariantError
from repro.memory.paged_kv import PagedKVManager
from repro.serving import lifecycle
from repro.serving.cluster import INSTANCE_ROLES
from repro.serving.schedulers import KVAdmissionController, SchedulerPolicy
from repro.units import Blocks, Seconds, Tokens
from repro.workloads.traces import Request


class RequestState:
    """Mutable in-flight bookkeeping for one request."""

    __slots__ = ("request", "prefill_len", "decode_len", "prefill_done",
                 "decode_done", "admitted_s",
                 "last_admitted_s", "first_token_s", "preemptions",
                 "swap_outs", "instance_id", "swapped_on", "handoffs",
                 "handoff_pending", "phase")

    def __init__(self, request: Request) -> None:
        self.request = request
        # request lengths cached as plain ints: the step-formation loop
        # reads them once per batch member per step, and two attribute
        # hops through the frozen Request/Scenario pair are measurable
        # at a million requests
        self.prefill_len = request.prefill_len
        self.decode_len = request.decode_len
        self.prefill_done = 0
        self.decode_done = 0
        self.admitted_s: Optional[float] = None
        self.last_admitted_s = 0.0
        self.first_token_s: Optional[float] = None
        self.preemptions = 0
        self.swap_outs = 0
        #: Prefill→decode handoffs this request went through (0 outside
        #: disaggregated clusters; >1 only if a recompute preemption sent
        #: it back through the prefill pool).
        self.handoffs = 0
        #: True between a handoff's KV import and the decode instance's
        #: swap-in — lets the resuming instance attribute that transfer to
        #: handoff accounting rather than preemption traffic.
        self.handoff_pending = False
        #: Instance that served (or is serving) this request; None until the
        #: first admission — a request that never ran keeps None, and the
        #: engine surfaces that as ``ServedRequest.instance_id = None``
        #: rather than a fake id.
        self.instance_id: Optional[int] = None
        #: Instance holding this request's host-tier blocks after a swap-out
        #: (None otherwise).  A swapped request has instance affinity: its KV
        #: lives in that instance's host pool, so only that instance may
        #: resume it.
        self.swapped_on: Optional[int] = None
        #: Where in the declared request state machine this request sits
        #: (see :mod:`repro.serving.lifecycle`); every later write goes
        #: through ``lifecycle.transition`` — simcheck's L-pass rejects
        #: any other assignment.
        self.phase = lifecycle.INITIAL_PHASE

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_len - self.prefill_done

    @property
    def context_len(self) -> Tokens:
        """Cached positions the next decode step attends over."""
        return self.prefill_done + self.decode_done

    def reset_progress(self) -> None:
        """Drop all computed state (a discarding preemption releases the KV
        cache, so prefill must be recomputed on re-admission)."""
        self.prefill_done = 0
        self.decode_done = 0


@dataclass
class InstanceStats:
    """Time-weighted occupancy accumulators of one instance.

    Every :class:`InstanceRuntime` owns one and is its only writer; the
    engine sums the runtimes' copies once, at run end, into cluster and
    per-class totals (:meth:`total`)."""

    batch_time: float = 0.0      # Σ advancing requests × step seconds
    busy_time: float = 0.0       # Σ step seconds
    kv_occ_time: float = 0.0     # Σ occupancy fraction × step seconds
    frag_time: float = 0.0       # Σ fragmentation fraction × step seconds
    shared_kv_time: float = 0.0  # Σ shared/cached block fraction × step secs
    peak_kv_occupancy: float = 0.0
    swap_time_s: Seconds = 0.0     # Σ PCIe transfer seconds spent swapping
    prefill_tokens: Tokens = 0      # prompt tokens computed (recomputes count)
    decode_time: float = 0.0     # Σ pure-decode step seconds
    prefill_time: float = 0.0    # Σ pure-prefill step seconds
    mixed_time: float = 0.0      # Σ mixed prefill+decode step seconds
    # prefill→decode handoffs (disaggregated clusters only)
    handoff_out_count: int = 0   # prompts exported to a decode instance
    handoff_in_count: int = 0    # handed-off prompts resumed here
    handoff_time_s: Seconds = 0.0  # Σ PCIe seconds of handoff transfers

    @classmethod
    def total(cls, parts: Iterable["InstanceStats"]) -> "InstanceStats":
        """Field-by-field sum of ``parts`` (in iteration order), except
        ``peak_kv_occupancy``, which is the max."""
        out = cls()
        names = [f.name for f in fields(cls) if f.name != "peak_kv_occupancy"]
        for part in parts:
            for name in names:
                setattr(out, name, getattr(out, name) + getattr(part, name))
            if part.peak_kv_occupancy > out.peak_kv_occupancy:
                out.peak_kv_occupancy = part.peak_kv_occupancy
        return out


@dataclass(slots=True)
class StepLaunch:
    """One step an instance is about to execute, priced and planned (built
    positionally once per launch, which a slotted class does fastest).

    The engine turns this into a step-completion event ``duration_s`` ahead
    of the current clock; ``payload`` round-trips back into
    :meth:`InstanceRuntime.complete_step`.  A real fold (several inert
    steps in one event) carries the absolute completion time in
    ``completes_at_s`` — accumulated one step at a time so the float
    arithmetic matches the event-per-step chain bit for bit — and in
    ``posted_at_s`` the last boundary it skips, where the event-per-step
    chain would have posted that completion.
    """

    duration_s: Seconds
    payload: Tuple
    completes_at_s: Optional[Seconds] = None
    posted_at_s: Optional[Seconds] = None


class InstanceRuntime:
    """One LoopLynx deployment running a batch of requests at step
    granularity, with no KV capacity limit: admission is bounded by batch
    slots only, and a preempted victim always discards its progress.  The
    KV regimes are subclasses (:class:`ReservedRuntime`,
    :class:`PagedRuntime`) that override the admission gate, ``admit``,
    ``release`` and the steps' capacity passes.

    Parameters
    ----------
    instance_id:
        Position of this instance in the cluster (stable across the run).
    system:
        The instance's own cycle model; node count, and therefore step
        timing, is per-instance state — this is what lets one cluster mix
        1/2/4-node instances.
    class_label:
        Instance-class tag (e.g. ``"2n"``) used for per-class metrics and
        class-affinity routing; instances built from the same
        :class:`~repro.serving.cluster.InstanceSpec` share it.
    role:
        Serving role (``"both"``, ``"prefill"``, ``"decode"``).  A prefill
        runtime only admits requests whose prompt is not yet computed and
        hands each finished prompt's paged KV blocks off instead of
        decoding; a decode runtime only admits requests whose prompt is
        done (their KV arrives via handoff).  Both restricted roles
        require a :class:`PagedRuntime` — the handoff *is* a block-table
        move — and ``"both"`` is the historical, bit-identical behaviour.
    max_batch_size, prefill_chunk_tokens, prefill_mode,
    mixed_step_token_budget, context_bucket:
        Step-formation knobs, exactly as on the engine (see
        :class:`~repro.serving.engine.TokenServingEngine`).
    step_cache, prefill_cache, prefill_sums, transfer_cache:
        Memoization dicts for step, prefill-chunk and swap/handoff-transfer
        timings, and the per-start running sums prefill chunks are priced
        from; instances of the same class share them (the cycle model and
        the PCIe pricing are pure functions of shape, so sharing only saves
        evaluations — cache hits are bit-identical to cold computes).
    """

    # Slots keep attribute access on the dispatch hot path fast however
    # many fields the runtime grows: CPython 3.11 stops sharing instance
    # dict keys at 30 attributes, which slows every plain-dict load.
    __slots__ = ("instance_id", "system", "num_nodes", "class_label", "role",
                 "max_batch_size", "prefill_chunk_tokens", "prefill_mode",
                 "mixed_step_token_budget", "context_bucket",
                 "_step_cache", "_prefill_cache", "_prefill_sums",
                 "_transfer_cache", "multistep", "fold", "generation",
                 "_plan", "batch", "_num_prefilling",
                 "busy", "pending_delay_s", "parked", "admission_count",
                 "pending_handoffs", "stats")

    #: Serving roles this class accepts (see ``role`` above).
    roles: Tuple[str, ...] = ("both",)
    #: Bounds a decode fold by its KV block growth
    #: (:meth:`PagedRuntime._fold_growth_window`), or None where KV never
    #: grows — a class attribute, so pools without KV pay no call per fold.
    _fold_window: Optional[
        Callable[..., Tuple[int, List[Tuple[int, int]]]]] = None

    def __init__(self, instance_id: int, system: LoopLynxSystem, *,
                 class_label: str = "",
                 role: str = "both",
                 max_batch_size: int = 8,
                 prefill_chunk_tokens: Optional[int] = 64,
                 prefill_mode: str = "exclusive",
                 mixed_step_token_budget: int = 256,
                 context_bucket: int = 32,
                 step_cache: Optional[Dict] = None,
                 prefill_cache: Optional[Dict] = None,
                 prefill_sums: Optional[Dict] = None,
                 transfer_cache: Optional[Dict] = None) -> None:
        self.instance_id = instance_id
        self.system = system
        self.num_nodes = system.num_nodes
        self.class_label = class_label or f"{system.num_nodes}n"
        if role not in INSTANCE_ROLES:
            raise ValueError(f"unknown instance role {role!r}; "
                             f"known: {', '.join(INSTANCE_ROLES)}")
        if role not in self.roles:
            raise ValueError(
                "prefill/decode roles hand off paged KV block tables; "
                "build a PagedRuntime with a PagedKVManager")
        self.role = role
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.prefill_mode = prefill_mode
        self.mixed_step_token_budget = mixed_step_token_budget
        self.context_bucket = context_bucket
        self._step_cache: Dict[Tuple[int, int], float] = (
            step_cache if step_cache is not None else {})
        self._prefill_cache: Dict[Tuple[int, int], float] = (
            prefill_cache if prefill_cache is not None else {})
        self._prefill_sums: Dict[int, List[float]] = (
            prefill_sums if prefill_sums is not None else {})
        self._transfer_cache: Dict[int, float] = (
            transfer_cache if transfer_cache is not None else {})
        #: Set by the engine when folding is on: fold whenever this
        #: runtime would not take the current queue head (:meth:`would_take`);
        #: the engine cuts the fold at the first skipped boundary an event
        #: makes live (see :meth:`dispatch`).
        self.multistep = False
        #: The in-flight fold, ``(dispatch time, steps, [[step seconds,
        #: steps, start time], ...], stat field, advancing requests,
        #: members or the prefilling request and its chunk size, paged
        #: growth claims, transfer seconds ahead of the first step, last
        #: skipped boundary)`` — None outside one (a one-step launch is
        #: accounted at launch from a record of the same shape).
        #: :meth:`complete_step` accounts its steps, so a cut fold
        #: (:meth:`cut_fold`) touches the pool and stats only for the
        #: steps it actually ran.
        self.fold: Optional[Tuple[Any, ...]] = None
        #: Launch counter stamped into every step payload: a cut re-posts
        #: the fold's completion under a new generation, and the engine
        #: drops an event whose generation is stale.
        self.generation = 0
        #: The step planner, bound once like Olive's ``set_use_cache``
        #: rebinding ``forward``: exclusive or mixed prefill.
        self._plan = (self._plan_mixed if prefill_mode == "mixed"
                      else self._plan_exclusive)
        # ---- mutable per-run state ----
        self.batch: List[RequestState] = []
        #: Batch members whose prompt is not fully computed — maintained
        #: incrementally so step formation skips the per-step batch scan.
        self._num_prefilling = 0
        self.busy = False
        #: Pending swap-transfer seconds to serialize before the next step.
        self.pending_delay_s = 0.0
        #: Swap-priority holding pen: this instance's swapped-out victims,
        #: resumed ahead of new admissions (eviction order).
        self.parked: List[RequestState] = []
        #: Requests ever admitted here (re-admissions count) — the
        #: round-robin router's rotation key.
        self.admission_count = 0
        #: Handoffs produced by the last completed step: ``(state,
        #: cached_tokens, transfer_s)`` records the engine drains via
        #: :meth:`take_handoffs` and turns into handoff events.
        self.pending_handoffs: List[Tuple[RequestState, int, float]] = []
        self.stats = InstanceStats()

    # ------------------------------------------------------------------
    # step timing (memoized cycle-model evaluations)
    # ------------------------------------------------------------------
    def _bucketed(self, context_len: int) -> int:
        bucket = self.context_bucket
        if bucket <= 1 or context_len == 0:
            return context_len
        return -(-context_len // bucket) * bucket

    # One table prices every step, keyed by what the cycle model reads: a
    # pass of ``tokens`` token vectors (decoders plus prefill tokens)
    # attends over the cached context only when it carries one token
    # (``KernelScheduler._attention_stage``), so the step key is
    # ``(bucketed context if tokens == 1 else 0, tokens)``.  A cold miss
    # evaluates the cycle model at the key, so an entry is a pure function
    # of its key whichever step kind asked first.

    def step_latency_s(self, context_len: Tokens, batch_size: int) -> Seconds:
        """Seconds for one decode step advancing ``batch_size`` co-resident
        requests, the longest over ``context_len`` cached positions
        (memoized on the step key)."""
        key = ((self._bucketed(context_len), 1) if batch_size == 1
               else (0, batch_size))
        cached = self._step_cache.get(key)
        if cached is None:
            cached = self._step_cache[key] = \
                self.system.decode_step_latency_s(key[0], batch_size)
        return cached

    def prefill_chunk_latency_s(self, start_pos: int, chunk_len: Tokens) -> Seconds:
        """Seconds of token-serial prefill for ``chunk_len`` prompt tokens
        starting at cached position ``start_pos`` (same per-position cost as
        a decode step, which is how the paper's pipeline streams prompts).
        Memoized on ``(start_pos, chunk_len)``; a miss reads the class's
        running sum from ``start_pos``, extended one position at a time and
        added left to right, so every position is priced once per start
        and the float is the same whichever chunk asked first."""
        key = (start_pos, chunk_len)
        cached = self._prefill_cache.get(key)
        if cached is None:
            sums = self._prefill_sums.get(start_pos)
            if sums is None:
                sums = self._prefill_sums[start_pos] = [0.0]
            total = sums[-1]
            for pos in range(start_pos + len(sums) - 1,
                             start_pos + chunk_len):
                total += self.step_latency_s(pos, 1)
                sums.append(total)
            cached = self._prefill_cache[key] = sums[chunk_len]
        return cached

    def swap_transfer_s(self, num_blocks: Blocks) -> Seconds:
        """Seconds one swap/handoff transfer of ``num_blocks`` device
        blocks occupies the PCIe link — the block manager's pricing,
        memoized per block count (it is a pure function of the count and
        the class's fixed block geometry).  Only a :class:`PagedRuntime`
        moves blocks; the method stays here with the rest of the step
        pricing."""
        cached = self._transfer_cache.get(num_blocks)
        if cached is None:
            cached = self._transfer_cache[num_blocks] = \
                self.kv.swap_transfer_s(num_blocks)  # type: ignore[attr-defined]
        return cached

    def mixed_step_latency_s(self, max_context: int, num_decode: int,
                             prefill_tokens: Tokens) -> Seconds:
        """Seconds for one mixed step advancing ``num_decode`` requests by a
        token each while streaming ``prefill_tokens`` prompt tokens through
        the same weight pass.  ``max_context`` is the longest cached prefix
        in the step — decode contexts and prefill chunk-end positions alike,
        so it is at least 1 for a one-token prefill (memoized on the step
        key, in the table :meth:`step_latency_s` reads)."""
        tokens = num_decode + prefill_tokens
        key = (self._bucketed(max_context) if tokens == 1 else 0, tokens)
        cached = self._step_cache.get(key)
        if cached is None:
            cached = self._step_cache[key] = \
                self.system.mixed_step_latency_s(
                    [key[0]] * num_decode, prefill_tokens,
                    prefill_context=key[0])
        return cached

    def _next_prefill_chunk(self, state: RequestState,
                            credit: Tokens = 0) -> int:
        """Prompt tokens ``state`` would stream in its next mixed step,
        before the step's token budget is split (per-request chunk cap and
        the whole-step budget both apply); ``credit`` prompt tokens about
        to be credited from the prefix cache no longer need streaming."""
        chunk = min(state.prefill_remaining - credit,
                    self.mixed_step_token_budget)
        if self.prefill_chunk_tokens is not None:
            chunk = min(chunk, self.prefill_chunk_tokens)
        return chunk

    # ------------------------------------------------------------------
    # admission gates (the KV subclasses override the capacity half)
    # ------------------------------------------------------------------
    def can_ever_serve(self, request: Request) -> bool:
        """Could this instance serve ``request`` running alone and empty?

        In a homogeneous pool the engine's arrival validation rules out
        impossible requests before they reach the queue; in a
        heterogeneous pool a request may exceed the *smallest* class's
        capacity while fitting a larger one, so each instance must also
        refuse such requests at its own gate (admitting one would strand
        it mid-growth).  Always true here: the KV is unbounded.
        """
        return True

    def role_admits(self, state: RequestState) -> bool:
        """Does this instance's serving role accept ``state`` at all?

        Enforced in the runtime itself (not only in the disaggregated
        router) so role constraints hold under *every* router: a prefill
        instance only takes requests whose prompt still needs computing,
        a decode instance only takes requests whose prompt is done (their
        KV arrives via handoff — or was computed here before a swap).  A
        recompute-preempted victim loses its prompt progress, so it flows
        back through the prefill pool automatically.
        """
        if self.role == "prefill":
            return state.prefill_remaining > 0
        if self.role == "decode":
            return state.prefill_remaining == 0
        return True

    def would_take(self, head: RequestState,
                   gate: Optional[Callable[["InstanceRuntime", RequestState],
                                           bool]],
                   never_preempts: bool) -> bool:
        """Could this instance take ``head`` at its next step boundary?

        True when there is a free batch slot or a scheduler that may
        preempt for it, its role and the router ``gate`` accept the head,
        and the head's KV does not live on another instance.  KV capacity
        is ignored: the answer may be yes where :meth:`dispatch` would
        refuse, never the other way round, so a fold the engine keeps only
        while this says no skips nothing a boundary would have done."""
        return ((len(self.batch) < self.max_batch_size
                 or not never_preempts)
                and self.role_admits(head)
                and (head.swapped_on is None
                     or head.swapped_on == self.instance_id)
                and (gate is None or gate(self, head)))

    def kv_admits(self, state: RequestState,
                  victim: Optional[RequestState] = None) -> bool:
        """Does the instance's KV capacity admit ``state`` right now — or,
        with a ``victim``, once that batch member is evicted (its token
        reservation or device blocks freed, its growth no longer owed)?
        Always, here: the KV is unbounded."""
        return True

    def admits(self, state: RequestState,
               gate: Optional[Callable[["InstanceRuntime", RequestState],
                                       bool]]) -> bool:
        """Would this instance admit ``state`` into a free batch slot now?
        Its role, then the router ``gate``, then its KV capacity — the
        checks :meth:`dispatch` makes for each queue head, in that order."""
        return (self.role_admits(state)
                and (gate is None or gate(self, state))
                and self.kv_admits(state))

    @property
    def kv_free_fraction(self) -> float:
        """Free fraction of this instance's KV capacity (1.0 when admission
        is unconstrained) — the KV-aware router's ranking key."""
        return 1.0

    @property
    def load(self) -> int:
        """Requests this instance is responsible for right now (running
        batch plus parked swap-priority victims) — the least-loaded
        router's ranking key."""
        return len(self.batch) + len(self.parked)

    def holds_swapped(self, state: RequestState) -> bool:
        """Does this instance's host tier hold ``state``'s swapped blocks?"""
        return (state.swapped_on is not None
                and state.swapped_on == self.instance_id)

    def matched_prefix_tokens(self, request: Request) -> Tokens:
        """Prompt positions this instance's prefix cache could serve for
        ``request`` right now (0 without a sharing-enabled paged pool) —
        the cache-aware router's ranking signal."""
        return 0

    # ------------------------------------------------------------------
    # batch membership
    # ------------------------------------------------------------------
    def release(self, state: RequestState) -> None:
        """Return a finished or discarded request's KV capacity (nothing
        to return here)."""

    def admit(self, state: RequestState, now: float) -> None:
        """Move a waiting request into the running batch."""
        if state.phase == lifecycle.QUEUED:
            lifecycle.transition(state, "admit")
        elif state.phase != lifecycle.EVICTED_SWAP:
            # a swapped victim resumes in PagedRuntime.admit, with its
            # swap-in
            lifecycle.transition(state, "readmit_recompute")
        if state.admitted_s is None:
            state.admitted_s = now
        state.last_admitted_s = now
        state.instance_id = self.instance_id
        self.admission_count += 1
        self.batch.append(state)
        if state.prefill_len > state.prefill_done:
            self._num_prefilling += 1

    def evict(self, victim: RequestState, now: float,
              scheduler: SchedulerPolicy) -> None:
        """Remove ``victim`` from the batch and re-queue it, discarding
        its KV state and progress."""
        self.batch.remove(victim)
        if victim.prefill_len > victim.prefill_done:
            self._num_prefilling -= 1
        lifecycle.transition(
            victim, "evict_recompute_prefill"
            if victim.phase == lifecycle.PREFILLING
            else "evict_recompute_decode")
        self.release(victim)
        victim.reset_progress()
        victim.preemptions += 1
        scheduler.push(victim)

    def take_handoffs(self) -> List[Tuple[RequestState, int, float]]:
        """Drain the handoffs produced by the last completed step (the
        engine routes each to a decode instance and schedules its arrival
        at its serialized ready offset ahead of the clock)."""
        handoffs, self.pending_handoffs = self.pending_handoffs, []
        return handoffs

    def _plan_mixed_step(self, now: float, scheduler: SchedulerPolicy
                         ) -> Tuple[List[RequestState],
                                    List[Tuple[RequestState, int]]]:
        """Split the mixed-step token budget over the batch: one decode
        token per running decode first, then prefill-chunk tokens for
        requests still prefilling, in admission (batch) order.  Decode
        tokens are never dropped to fit the budget; prefill chunks take
        whatever budget remains.  A paged pool grows the tables here, and
        may evict at ``now`` through ``scheduler``."""
        if not self._num_prefilling:
            # pure decode (the steady-state hot path): every member
            # advances, no chunks to plan
            return self.batch.copy(), []
        decoders = [s for s in self.batch if s.prefill_len == s.prefill_done]
        remaining = self.mixed_step_token_budget - len(decoders)
        chunks: List[Tuple[RequestState, int]] = []
        for state in self.batch:
            if state.prefill_len == state.prefill_done or remaining <= 0:
                continue
            chunk = min(self._next_prefill_chunk(state), remaining)
            chunks.append((state, chunk))
            remaining -= chunk
        return decoders, chunks

    # ------------------------------------------------------------------
    # step boundary: admit, plan, fold
    # ------------------------------------------------------------------
    def dispatch(self, scheduler: SchedulerPolicy, now: float,
                 gate: Optional[Callable[["InstanceRuntime", RequestState],
                                         bool]] = None
                 ) -> Optional[StepLaunch]:
        """Admit/preempt at a step boundary, then launch the next step.

        ``gate`` is the cluster router's placement veto (None on
        single-class pools): a head the gate rejects is neither admitted
        here nor preempted for — it waits for an instance the router likes.
        Returns the launched step, or None when the batch is empty (the
        instance goes idle).

        Every launch is a fold of k ≥ 1 steps, built in three parts:
        admission (:meth:`_admit_waiting`); the first step's plan, exclusive
        or mixed prefill, chosen once at construction; and, with
        :attr:`multistep`, the steps after it (:meth:`_chain_fold`), chained
        while this instance would not take the queue head
        (:meth:`would_take`) and has no parked victims.  A launch that skips
        no boundary is a one-segment fold, accounted here; a real fold is
        accounted when it completes (:meth:`complete_step`), because the
        engine may cut it at the first skipped boundary an event makes live.
        Both land in this runtime's own :attr:`stats`, which the engine sums
        across runtimes at run end.  A real fold carries its absolute
        completion time in :attr:`StepLaunch.completes_at_s`.
        """
        self._admit_waiting(scheduler, now, gate)
        if not self.batch:
            self.busy = False
            return None
        gen = self.generation = self.generation + 1
        kind, target, size, step_s, stat, advancing = self._plan(now,
                                                                 scheduler)
        # swap transfers contend for the same HBM/PCIe datapath, so they
        # serialize ahead of the step
        pending = self.pending_delay_s
        self.pending_delay_s = 0.0
        duration = step_s + pending
        fold = None
        # a mixed step with prefill chunks changes shape at every boundary
        if self.multistep and kind != "mixed" and not self.parked:
            head = scheduler.peek()
            if head is None or not self.would_take(
                    head, gate, scheduler.never_preempts):
                fold = self._chain_fold(now, kind, target, size, step_s,
                                        duration, pending, advancing)
        steps = 1
        completes_at: Optional[Seconds] = None
        posted_at: Optional[Seconds] = None
        if fold is None:
            self._account_fold((now, 1, [[duration, 1, now]], stat, advancing,
                                None, None, pending, now))
        else:
            self.fold, completes_at = fold
            steps, posted_at = fold[0][1], fold[0][8]
        if kind == "decode_k":
            # the first token of a still-tokenless member is produced at
            # the launch's first boundary
            target, size = (target, steps, now + duration), 0
        elif steps > 1:
            # the fold runs the prompt out
            size = target.prefill_len - target.prefill_done
        self.busy = True
        return StepLaunch(duration, (kind, self, target, size, gen),
                          completes_at, posted_at)

    def _admit_waiting(self, scheduler: SchedulerPolicy, now: float,
                       gate: Optional[Callable[["InstanceRuntime",
                                                RequestState], bool]]
                       ) -> None:
        """Fill the batch at a step boundary: parked victims first, then
        queue heads this instance :meth:`admits`, preempting for a blocked
        head only when evicting one victim makes it admissible."""
        batch = self.batch
        max_batch = self.max_batch_size
        parked = self.parked
        while True:
            if parked:
                # swap-priority: resume this instance's own swapped victims
                # before admitting anything new — their blocks are a PCIe
                # round-trip away, not a recompute, and new admissions would
                # claim the very capacity the resume needs.  A parked head
                # that does not fit blocks new admissions entirely.
                resumed = False
                while (parked and len(batch) < max_batch
                       and self.kv_admits(parked[0])):
                    self.admit(parked.pop(0), now)
                    resumed = True
                if resumed:
                    continue
                return
            head = scheduler.peek()
            while (head is not None and len(batch) < max_batch
                   and self.admits(head, gate)):
                scheduler.pop()
                self.admit(head, now)
                head = scheduler.peek()
            # preemption: a blocked head (no batch slot, or KV capacity
            # exhausted) may evict strictly lower-priority work — but only
            # when evicting one victim actually makes the head admissible;
            # otherwise the victim's computed state would be thrown away
            # (or shuttled over PCIe) for nothing.  Schedulers that never
            # preempt make this block a provable no-op — skip it.
            if (scheduler.never_preempts or head is None or not batch
                    or not self.role_admits(head)
                    or (gate is not None and not gate(self, head))):
                return
            victim = None
            if len(batch) >= max_batch or not self.kv_admits(head):
                victim = scheduler.preemption_victim(batch, head)
            if victim is None or not self.kv_admits(head, victim):
                return
            self.evict(victim, now, scheduler)  # then retry the head

    def _plan_exclusive(self, now: float, scheduler: SchedulerPolicy
                        ) -> Tuple[str, Any, int, Seconds, str, int]:
        """Plan the next step under exclusive prefill: the first member
        still prefilling streams its next chunk while co-resident decodes
        stall; without one, every member decodes a token.

        Returns ``(payload kind, target, size, step seconds, stat field,
        advancing requests)``; a prefill step's size is its chunk, a decode
        step's its longest context, which a fold reprices from."""
        if self._num_prefilling:
            for state in self.batch:
                if state.prefill_len > state.prefill_done:
                    break
            chunk = state.prefill_len - state.prefill_done
            cap = self.prefill_chunk_tokens
            if cap is not None and cap < chunk:
                chunk = cap
            return ("prefill", state, chunk,
                    self.prefill_chunk_latency_s(state.prefill_done, chunk),
                    "prefill_time", 1)
        members = self.batch.copy()
        context = 0
        for s in members:
            c = s.prefill_done + s.decode_done
            if c > context:
                context = c
        n = len(members)
        return ("decode_k", members, context, self.step_latency_s(context, n),
                "decode_time", n)

    def _plan_mixed(self, now: float, scheduler: SchedulerPolicy
                    ) -> Tuple[str, Any, int, Seconds, str, int]:
        """Plan the next mixed step (:meth:`_plan_mixed_step`), returned as
        :meth:`_plan_exclusive` returns a plan; the size of a step with
        prefill chunks is its prompt tokens.  Without a chunk it is a pure
        decode step, priced like the exclusive planner's (one step key)."""
        decoders, chunks = self._plan_mixed_step(now, scheduler)
        # the longest cached prefix: decode contexts and chunk-end
        # positions alike
        context = prefill_tokens = 0
        for s in decoders:
            c = s.prefill_done + s.decode_done
            if c > context:
                context = c
        n = len(decoders)
        if not chunks:
            return ("decode_k", decoders, context,
                    self.step_latency_s(context, n), "decode_time", n)
        for s, chunk in chunks:
            prefill_tokens += chunk
            c = s.prefill_done + s.decode_done + chunk
            if c > context:
                context = c
        return ("mixed", (decoders, chunks), prefill_tokens,
                self.mixed_step_latency_s(context, n, prefill_tokens),
                "mixed_time" if decoders else "prefill_time", n + len(chunks))

    def _chain_fold(self, now: float, kind: str, target: Any, size: int,
                    step_s: Seconds, duration: Seconds, pending: Seconds,
                    advancing: int
                    ) -> Optional[Tuple[Tuple[Any, ...], Seconds]]:
        """Chain the steps after a launch's first into one fold and return
        its :attr:`fold` record and completion time, or None when no step
        follows the first.

        Called while this instance would not take the queue head and has
        no parked victims, so the boundaries it skips change nothing (no
        admission, preemption or step-shape change) until an event makes
        one live, and the engine then cuts the fold there.  A decode fold
        stops before a member finishes and, on a paged pool, before its
        block growth outruns the free list
        (:meth:`PagedRuntime._fold_growth_window`), so no boundary inside
        it can evict; it may cross context-bucket windows.  A prefill fold
        marches the prompt chunk by chunk to its end.  Every per-step
        price is a memoized pure function of shape, so repricing at each
        window or chunk edge reproduces the per-event chain exactly, and
        the completion time is accumulated one step at a time, in a tight
        loop per window, so it matches that chain bit for bit.  Each
        segment records its start time, so a cut walks only the segment
        that holds it (:meth:`next_skipped_boundary`).  A pending swap or
        handoff transfer only lengthens the first step."""
        # segments collects [step duration, step count, start time] runs:
        # the completion's stats replay walks the identical float chain,
        # and a cut looks for its boundary from one segment's start
        t = now + duration
        segments = [[duration, 1, now]]
        if kind == "prefill":
            # successive chunks of the same prompt: the batch-order scan
            # re-picks this member at every inert boundary, and stalled
            # decoders never change
            cap = self.prefill_chunk_tokens
            done = target.prefill_done + size
            remaining = target.prefill_len - done
            if remaining <= 0 or cap is None:  # the prompt ends here
                return None
            while remaining > 0:
                c = cap if cap < remaining else remaining
                d = self.prefill_chunk_latency_s(done, c)
                segments.append([d, 1, t])
                posted_at = t
                t += d
                done += c
                remaining -= c
            return (now, len(segments), segments, "prefill_time", advancing,
                    (target, cap), None, pending, posted_at), t
        members, context = target, size
        kmax = members[0].decode_len - members[0].decode_done
        for s in members:
            r = s.decode_len - s.decode_done
            if r < kmax:
                kmax = r
        claims = None
        window = self._fold_window
        if window is not None:
            kmax, claims = window(members, kmax)
        if kmax < 2:
            return None
        bucket = self.context_bucket
        d = step_s
        # steps after the first that still price in its window (bucket
        # arithmetic inlined from _bucketed); a multi-token pass prices the
        # same at every context, so its whole fold is one window
        win = (kmax if advancing > 1
               else (-(-context // bucket) * bucket - context)
               if bucket > 1 and context else 0)
        seg = segments[0]
        if pending > 0.0:
            # the transfer only lengthened the first step
            seg = [d, 0, t]
            segments.append(seg)
        steps = 1
        while steps < kmax:
            if win == 0:
                c = context + steps
                nd = self.step_latency_s(c, 1)
                win = (-(-c // bucket) * bucket - c + 1) if bucket > 1 else 1
                if nd != d:
                    d = nd
                    seg = [d, 0, t]
                    segments.append(seg)
            # the rest of the window at one price, one float add per step
            n = kmax - steps
            if win < n:
                n = win
            for _ in range(n - 1):
                t += d
            posted_at = t
            t += d
            steps += n
            seg[1] += n
            win -= n
        return (now, steps, segments, "decode_time", advancing, members,
                claims, pending, posted_at), t

    def _account_fold(self, fold: Tuple[Any, ...]) -> Seconds:
        """Apply the steps a launch ran (an :attr:`fold` record) to the
        time-weighted stats and return their seconds (a paged pool then
        adds its block growth and KV aggregates).

        Every launch goes through here: a one-step launch at launch, as a
        one-segment fold, and a real fold when it completes, so a cut fold
        only charges the steps it ran.  The per-step stat adds collapse to
        one closed-form add per pricing segment (duration × count).  This
        is the one fast-forward shortcut that is not replayed add-by-add:
        time-weighted aggregates may differ from per-event execution in
        the last float bits, while every timestamp, token count and
        per-request record stays exact (the completion chain still walks
        step by step).  ``pending`` transfer seconds ran ahead of the first
        step, inside its segment, and count as swap time, not step time.
        """
        _, _, segments, stat, advancing, _, _, pending, _ = fold
        td = 0.0
        for d_seg, n_seg, _ in segments:
            td += d_seg * n_seg
        acc = self.stats
        if stat == "decode_time":
            acc.decode_time += td - pending
        elif stat == "prefill_time":
            acc.prefill_time += td - pending
        else:
            acc.mixed_time += td - pending
        if pending > 0.0:
            acc.swap_time_s += pending
        acc.batch_time += advancing * td
        acc.busy_time += td
        return td

    def next_skipped_boundary(self, after: float
                              ) -> Optional[Tuple[float, int, float]]:
        """The first step boundary later than ``after`` that the in-flight
        fold skips, as ``(time, steps run by then, the boundary before
        it)`` (None without one), accumulated exactly like the fold's
        completion time."""
        fold = self.fold
        if fold is None or after >= fold[8]:
            return None
        steps, segments = fold[1], fold[2]
        # skip the segments that end by ``after`` (each starts where the
        # one before it ends), then walk the one holding it step by step
        i = j = 0
        last = len(segments) - 1
        while i < last and segments[i + 1][2] <= after:
            j += int(segments[i][1])
            i += 1
        for d, n, t in segments[i:]:
            for _ in range(int(n)):
                prev = t
                t += d
                j += 1
                if j == steps:
                    return None  # the completion is a real event
                if t > after:
                    return t, j, prev
        return None

    def cut_fold(self, steps: int, last_skipped: float) -> Tuple[Any, ...]:
        """Truncate the in-flight fold to its first ``steps`` steps (a
        boundary :meth:`next_skipped_boundary` named, whose predecessor is
        ``last_skipped``) and return the step payload to post there, under
        a new generation."""
        t0, _, segments, kind_attr, advancing, target, claims, pending, _ = \
            self.fold
        kept: List[List[float]] = []
        left = steps
        for d, n, start in segments:
            if n >= left:
                kept.append([d, left, start])
                break
            kept.append([d, n, start])
            left -= n
        self.fold = (t0, steps, kept, kind_attr, advancing, target, claims,
                     pending, last_skipped)
        gen = self.generation = self.generation + 1
        if kind_attr == "prefill_time":
            # every chunk before a fold's last one is a full chunk
            state, cap = target
            return ("prefill", self, state, steps * cap, gen)
        return ("decode_k", self, (target, steps, t0 + segments[0][0]), 0, gen)

    def _finish(self, state: RequestState,
                finished: List[RequestState]) -> None:
        self.batch.remove(state)
        self.release(state)
        finished.append(state)

    def _prefill_completed(self, state: RequestState,
                           finished: List[RequestState]) -> None:
        """A prompt just finished: a request with nothing to generate
        is done, any other starts decoding."""
        if state.decode_len == 0:
            lifecycle.transition(state, "finish_prefill_only")
            self._finish(state, finished)
        else:
            lifecycle.transition(state, "prefill_complete")

    def complete_step(self, payload: Tuple, now: float) -> List[RequestState]:
        """Apply one finished launch's token bookkeeping and return the
        requests that completed with it (the engine records them).  The
        payload is one of ``decode_k`` (k ≥ 1 decode steps of the same
        members), ``prefill`` (one request's prompt chunks) or ``mixed``
        (one step with at least one prefill chunk).  A fold's steps are
        accounted here, before the token bookkeeping, so a cut fold only
        ever charges the steps it ran; a one-step launch was accounted
        when it launched."""
        fold = self.fold
        if fold is not None:
            self.fold = None
            self._account_fold(fold)
        kind, _, target, size, _ = payload
        members: Sequence[RequestState] = ()
        chunks: Sequence[Tuple[RequestState, int]] = ()
        steps, t_first = 1, now
        if kind == "decode_k":
            # a still-tokenless member produced its first token at the
            # launch's first step boundary (carried in the payload)
            members, steps, t_first = target
        elif kind == "prefill":
            chunks = ((target, size),)
        else:  # mixed
            members, chunks = target
        finished: List[RequestState] = []
        for state in members:
            if state.first_token_s is None:
                state.first_token_s = t_first
            state.decode_done += steps
            if state.decode_done >= state.decode_len:
                lifecycle.transition(state, "finish_decode")
                self._finish(state, finished)
        for state, tokens in chunks:
            state.prefill_done += tokens
            self.stats.prefill_tokens += tokens
            if state.prefill_len == state.prefill_done:
                self._num_prefilling -= 1
                self._prefill_completed(state, finished)
        return finished


class ReservedRuntime(InstanceRuntime):
    """An instance that gates admission on worst-case KV reservations.

    Admitting a request reserves its full context (``prefill_len +
    decode_len`` cached positions) up front, so the cache never overflows
    mid-request and excess requests queue instead.  ``controller`` is the
    class's :class:`~repro.serving.schedulers.KVAdmissionController`
    (stateless, so the instances of one class share it); the count of
    reserved tokens is this instance's own.  Other options as on
    :class:`InstanceRuntime`.
    """

    __slots__ = ("controller", "reserved_tokens")

    def __init__(self, instance_id: int, system: LoopLynxSystem,
                 controller: KVAdmissionController, **options: Any) -> None:
        self.controller = controller
        self.reserved_tokens = 0
        super().__init__(instance_id, system, **options)

    def can_ever_serve(self, request: Request) -> bool:
        return self.controller.serves_alone(request)

    def kv_admits(self, state: RequestState,
                  victim: Optional[RequestState] = None) -> bool:
        used = self.reserved_tokens
        if victim is not None:
            used -= self.controller.reservation_tokens(victim.request)
        return self.controller.fits(state.request, used)

    @property
    def kv_free_fraction(self) -> float:
        capacity = self.controller.capacity_tokens
        return 1.0 - self.reserved_tokens / capacity if capacity else 0.0

    def release(self, state: RequestState) -> None:
        self.reserved_tokens -= self.controller.reservation_tokens(
            state.request)

    def admit(self, state: RequestState, now: float) -> None:
        self.reserved_tokens += self.controller.reservation_tokens(
            state.request)
        super().admit(state, now)


class PagedRuntime(InstanceRuntime):
    """An instance whose KV cache is its own paged block pool.

    Admission claims a request's first blocks, every step boundary grows
    the tables its step appends to (evicting members when the pool runs
    dry), and a decode fold stops before its growth outruns the free list.
    Prefix sharing and prefill→decode handoffs live here too: both move
    block tables, so only this class accepts the restricted roles.

    ``kv`` is this instance's own
    :class:`~repro.memory.paged_kv.PagedKVManager` (never shared);
    ``preemption_mode`` (``"swap"`` parks a victim's blocks in the host
    tier, ``"recompute"`` discards them) and ``swap_priority`` (resume
    this instance's swapped victims ahead of new admissions) are the
    engine's knobs of the same names; other options as on
    :class:`InstanceRuntime`.
    """

    __slots__ = ("kv", "preemption_mode", "swap_priority")
    roles = INSTANCE_ROLES

    def __init__(self, instance_id: int, system: LoopLynxSystem,
                 kv: PagedKVManager, *, preemption_mode: str = "swap",
                 swap_priority: bool = False, **options: Any) -> None:
        self.kv = kv
        self.preemption_mode = preemption_mode
        self.swap_priority = swap_priority
        super().__init__(instance_id, system, **options)

    def can_ever_serve(self, request: Request) -> bool:
        # a prefill-role instance hands the KV off at prompt completion,
        # so only the prompt must fit
        return self.kv.serves_alone(request, self.role == "prefill")

    def kv_admits(self, state: RequestState,
                  victim: Optional[RequestState] = None) -> bool:
        """Blocks for the head's admission plus the batch's next growth
        must fit the free list.  A swapped-out request may only be resumed
        by the instance whose host tier holds its blocks (KV state cannot
        teleport between instances); every other instance refuses it."""
        if (state.swapped_on is not None
                and state.swapped_on != self.instance_id):
            return False
        if not self.can_ever_serve(state.request):
            return False
        kv = self.kv
        batch = self.batch
        freed = 0
        if victim is not None:
            freed = len(kv.table(victim.request.request_id).device_blocks)
            batch = [s for s in batch if s is not victim]
        need = (self._paged_admit_blocks(state)
                + self._paged_growth_headroom(batch))
        return need <= kv.free_blocks + freed

    @property
    def kv_free_fraction(self) -> float:
        kv = self.kv
        return kv.free_blocks / kv.total_blocks if kv.total_blocks else 0.0

    def matched_prefix_tokens(self, request: Request) -> Tokens:
        token_ids = request.prompt_token_ids
        if not self.kv.prefix_sharing or not token_ids:
            return 0
        return self.kv.match_prefix_tokens(token_ids)

    def _paged_admit_target(self, state: RequestState,
                            credit: Tokens = 0) -> int:
        """Cached positions a (non-swapped) request must cover at admission.

        Exclusive prefill claims the whole prompt plus one slot for the
        first decode append (the prompt is computed before any other step
        of the instance runs, so its blocks are needed up front).  Mixed
        prefill streams the prompt in chunk by chunk, so admission only
        claims the first chunk — after the ``credit`` prompt tokens the
        prefix cache is about to supply — and the table grows per step
        alongside the decode appends.  Both are clamped to the context
        window.
        """
        request = state.request
        if self.prefill_mode == "mixed" and state.prefill_remaining > 0:
            tokens = (state.context_len + credit
                      + self._next_prefill_chunk(state, credit))
        elif self.role == "prefill":
            # a prefill instance never appends a decode token: the prompt
            # hands off the moment it completes, so no +1 growth slot
            tokens = request.prefill_len
        else:
            tokens = request.prefill_len + (1 if request.decode_len > 0 else 0)
        return min(tokens, self.kv.layout.max_seq_len)

    def _paged_admit_blocks(self, state: RequestState) -> int:
        """Device blocks the queue head must acquire to join the batch: the
        host-tier restore for a swapped-out request (plus any growth block
        its very next decode append needs), or its prompt allocation."""
        kv = self.kv
        rid = state.request.request_id
        if state.phase == lifecycle.EVICTED_SWAP:
            restore = kv.table(rid).host_blocks
            if self.prefill_mode == "mixed" and state.prefill_remaining > 0:
                # a request swapped out mid-prefill appends a whole chunk in
                # its next mixed step, not a single decode token; budgeting
                # only context+1 would re-admit it without room to grow and
                # re-evict it at the same boundary (churn, PCIe both ways)
                next_tokens = state.context_len + self._next_prefill_chunk(state)
            else:
                next_tokens = state.context_len + 1
            next_target = min(next_tokens, kv.layout.max_seq_len)
            return restore + max(0, kv.blocks_needed(next_target) - restore)
        # budget the table admit() allocates: in mixed mode its first chunk
        # starts after the prefix credit (exclusive targets ignore it)
        credit = (self._prefix_credit(state) or 0
                  if self.prefill_mode == "mixed" else 0)
        return kv.blocks_missing(rid, self._paged_admit_target(state, credit))

    def _prefix_credit(self, state: RequestState) -> Optional[Tokens]:
        """Prompt tokens admission credits as already computed: the cached
        prefix a fresh request reuses on a prefix-sharing pool (0 without
        a match), or ``None`` when admission does not go through the
        prefix cache at all.  :meth:`admit` applies it and the admission
        gate budgets the table it implies, so both take it from here."""
        token_ids = state.request.prompt_token_ids
        if (not self.kv.prefix_sharing or token_ids is None
                or state.prefill_done != 0
                or state.phase == lifecycle.EVICTED_SWAP):
            return None
        matched = self.kv.match_prefix_tokens(token_ids)
        return min(matched, state.prefill_len - 1) if matched > 0 else 0

    def _paged_growth_headroom(self, batch: Sequence[RequestState]) -> int:
        """Blocks the current batch members will claim for their next
        decode appends.  Admission must leave this headroom free, or a
        newly admitted (or swapped-in) request would be re-evicted by
        :meth:`_plan_exclusive` at the same step boundary — pure
        churn, with PCIe transfers both ways in swap mode."""
        kv = self.kv
        max_seq = kv.layout.max_seq_len
        headroom = 0
        for member in batch:
            if member.prefill_remaining > 0:
                if self.prefill_mode != "mixed":
                    continue  # prompt blocks were claimed at admission
                # mixed mode grows prefilling tables per step too
                target = member.context_len + self._next_prefill_chunk(member)
            else:
                target = member.context_len + 1
            headroom += kv.blocks_missing(
                member.request.request_id, min(target, max_seq))
        return headroom

    def release(self, state: RequestState) -> None:
        self.kv.free(state.request.request_id)

    def admit(self, state: RequestState, now: float) -> None:
        """Move a waiting request into the running batch and claim its
        blocks: a swapped-out victim (or a handed-off prompt) swaps its
        host-tier blocks back in and pays the transfer; any other request
        allocates its admission target, crediting a cached prompt
        prefix."""
        super().admit(state, now)
        kv = self.kv
        rid = state.request.request_id
        if state.phase == lifecycle.EVICTED_SWAP:
            # a swapped victim resumes exactly where it stopped; a
            # handed-off prompt arrives with its prefill fully computed,
            # so it takes the decode resume edge
            lifecycle.transition(
                state, "resume_swap_prefill"
                if state.prefill_len > state.prefill_done
                else "resume_swap_decode")
            blocks, _ = kv.swap_in(rid)
            transfer = self.swap_transfer_s(blocks)
            self.pending_delay_s += transfer
            if state.handoff_pending:
                # the restore of a handed-off prompt is the receiving
                # half of the handoff transfer, not preemption traffic
                state.handoff_pending = False
                self.stats.handoff_in_count += 1
                self.stats.handoff_time_s += transfer
            state.swapped_on = None
            return
        credit = self._prefix_credit(state)
        if credit is None:
            allocated = kv.allocate(rid, self._paged_admit_target(state))
        else:
            # credit the reused prompt positions as already computed:
            # prefill resumes at the matched offset, so both
            # prefill_tokens_processed and TTFT genuinely drop
            state.prefill_done = credit
            allocated = kv.allocate_prefix(
                rid, self._paged_admit_target(state),
                state.request.prompt_token_ids) is not None
        if not allocated:
            raise InvariantError(  # pragma: no cover
                f"admission gate admitted request {rid} on "
                f"instance {self.instance_id}, but its KV table "
                "cannot be allocated")

    def evict(self, victim: RequestState, now: float,
              scheduler: SchedulerPolicy) -> None:
        """Remove ``victim`` from the batch.  In ``swap`` mode its blocks
        park in the host tier and it re-queues — or, with
        ``swap_priority``, waits in this instance's parked list, resumed
        ahead of new admissions; ``recompute`` mode discards them."""
        if self.preemption_mode != "swap":
            super().evict(victim, now, scheduler)
            return
        self.batch.remove(victim)
        if victim.prefill_len > victim.prefill_done:
            self._num_prefilling -= 1
        lifecycle.transition(
            victim, "evict_swap_prefill"
            if victim.phase == lifecycle.PREFILLING
            else "evict_swap_decode")
        blocks, _ = self.kv.swap_out(victim.request.request_id)
        self.pending_delay_s += self.swap_transfer_s(blocks)
        victim.swap_outs += 1
        victim.swapped_on = self.instance_id
        victim.preemptions += 1
        if self.swap_priority:
            self.parked.append(victim)
        else:
            scheduler.push(victim)

    def _begin_handoff(self, state: RequestState) -> None:
        """Export a finished prompt's KV blocks for a decode instance.

        The export is a swap-out on this instance's PCIe link: the
        transfer serializes ahead of the next step here (the link is
        busy), and the engine delays the request's arrival at its decode
        instance by its *ready offset* — when one step completes several
        prompts (mixed mode), their transfers share the one link, so the
        k-th handoff is ready only after the k-1 before it have drained,
        exactly matching the serial ``pending_delay_s`` charge.  The
        decode instance pays its own swap-in when it admits the request.
        """
        lifecycle.transition(state, "handoff_export")
        self.batch.remove(state)
        num_blocks, cached_tokens, _ = \
            self.kv.export_handoff(state.request.request_id)
        transfer = self.swap_transfer_s(num_blocks)
        self.pending_delay_s += transfer
        state.handoffs += 1
        self.stats.handoff_out_count += 1
        self.stats.handoff_time_s += transfer
        ready_offset = transfer + (self.pending_handoffs[-1][2]
                                   if self.pending_handoffs else 0.0)
        self.pending_handoffs.append((state, cached_tokens, ready_offset))

    def _grow_to(self, state: RequestState, target: int, now: float,
                 scheduler: SchedulerPolicy) -> bool:
        """Allocate blocks so ``state`` covers ``target`` cached positions
        before its next append.  When the pool runs dry, evict the
        lowest-priority, most recently admitted member of an *equal or
        lower* priority class than the grower and retry (its blocks swap
        out or drop per the preemption mode).  Capacity pressure never
        evicts a strictly higher-priority member — when the grower itself
        is the lowest class present, it is the one that yields (no
        priority inversion through block growth).

        Mixed mode additionally requires an equal-priority victim to
        have been admitted *no earlier* than the grower.  Without this,
        two requests too big to co-reside can destroy each other
        forever: the newcomer's chunk growth evicts the old resident
        (discarding its nearly-finished context), the resident
        re-admits and returns the favour, and neither ever finishes —
        a livelock chunked admission makes reachable because it admits
        on first-chunk fit rather than whole-prompt fit.  Restricting
        equal-priority eviction to members no older than the grower
        makes the oldest-admitted member of the highest class
        un-evictable, so it always advances and the run provably
        terminates.  Exclusive mode keeps the PR 2 rule unchanged (the
        bit-identical regime), which can livelock: see
        ``test_exclusive_mode_growth_livelock`` in
        ``tests/test_fold_oracle.py``.

        Returns whether any member was evicted."""
        kv = self.kv
        mixed = self.prefill_mode == "mixed"
        evicted = False
        while (state in self.batch
               and not kv.allocate(state.request.request_id, target)):
            others = [s for s in self.batch if s is not state]
            if not others:
                raise InvariantError(
                    f"request {state.request.request_id} cannot grow to "
                    f"{target} cached positions alone in instance "
                    f"{self.instance_id}'s KV block pool; validation "
                    "should have rejected it")
            candidates = [
                s for s in others
                if s.request.priority < state.request.priority
                or (s.request.priority == state.request.priority
                    and (not mixed
                         or s.last_admitted_s >= state.last_admitted_s))]
            victim = (min(candidates,
                          key=lambda s: (s.request.priority,
                                         -s.last_admitted_s))
                      if candidates else state)
            self.evict(victim, now, scheduler)
            evicted = True
        return evicted

    def _plan_exclusive(self, now: float, scheduler: SchedulerPolicy
                        ) -> Tuple[str, Any, int, Seconds, str, int]:
        """The decode capacity pass, then the plan: before a pure decode
        step every batch member needs a block slot for the token position
        it is about to append.  A member whose table already covers it is
        skipped: growing it would change nothing."""
        if not self._num_prefilling:
            kv = self.kv
            max_seq = kv.layout.max_seq_len
            for state in list(self.batch):
                target = min(state.context_len + 1, max_seq)
                if (state in self.batch  # else already evicted for room
                        and kv.table(state.request.request_id).cached_tokens
                        < target):
                    self._grow_to(state, target, now, scheduler)
        return super()._plan_exclusive(now, scheduler)

    def _plan_mixed_step(self, now: float, scheduler: SchedulerPolicy
                         ) -> Tuple[List[RequestState],
                                    List[Tuple[RequestState, int]]]:
        """The mixed capacity pass: every request advancing in the step
        needs blocks for the positions it appends (one per decode, a
        whole chunk per prefilling member).  An eviction frees budget and
        invalidates the split, so replan until one whole pass allocates
        without evicting; the batch shrinks on every eviction, so the loop
        terminates.  Returns the final ``(decoders, chunks)`` plan."""
        max_seq = self.kv.layout.max_seq_len
        while True:
            decoders, chunks = super()._plan_mixed_step(now, scheduler)
            evicted = False
            targets = [(s, s.context_len + 1) for s in decoders]
            targets += [(s, s.context_len + c) for s, c in chunks]
            for state, target in targets:
                if state not in self.batch:
                    continue  # already evicted to make room
                if self._grow_to(state, min(target, max_seq), now, scheduler):
                    evicted = True
            if not evicted:
                return decoders, chunks

    def _fold_growth_window(self, members: Sequence[RequestState], kmax: int
                            ) -> Tuple[int, List[Tuple[int, int]]]:
        """Bound a decode fold of at most ``kmax`` steps by its block
        growth.

        Step 0 of the fold already grew every member (the ordinary
        capacity pass).  At fold step ``j`` a member with context ``c``
        needs ``min(c + j + 1, max_seq)`` cached positions, so holding
        ``held`` blocks it claims one more at step ``held * bs - c`` and
        every ``bs`` steps after that, until its target reaches the
        context window.  Only the free list pays for claims: a fold never
        reclaims a cached prefix block, so the prefix index stays as the
        per-step chain leaves it.  Returns the step bound, cut just before
        the first step whose claims the free list cannot cover, and the
        ``(step, member index)`` claims inside it in the order the
        per-step chain makes them: step by step, batch order within one.
        Each member's claims are one arithmetic series, so the list is
        built member by member and sorted once; the fold's completion
        (:meth:`_replay_fold_growth`) takes them in one pass.
        """
        kv = self.kv
        bs = kv.block_size_tokens
        max_seq = kv.layout.max_seq_len
        claims: List[Tuple[int, int]] = []
        for i, s in enumerate(members):
            c = s.prefill_done + s.decode_done
            held = len(kv.table(s.request.request_id).device_blocks)
            claims += zip(range(held * bs - c, min(kmax, max_seq - c), bs),
                          repeat(i))
        if len(members) > 1:
            claims.sort()
        free = kv.free_list_blocks
        if len(claims) > free:
            kmax = claims[free][0]
            del claims[bisect_left(claims, (kmax,), 0, free):]
        return kmax, claims

    _fold_window = _fold_growth_window

    def _replay_fold_growth(self, members: Sequence[RequestState],
                            claims: Sequence[Tuple[int, int]],
                            segments: Sequence[Sequence[float]], steps: int
                            ) -> Tuple[float, float, float]:
        """Apply the block growth of a decode fold of ``steps`` steps and
        return its KV aggregates.

        The pool ends as the per-step chain leaves it on the fold's last
        step: the ``claims`` (from :meth:`_fold_growth_window`) before it
        take their blocks off the free list in the chain's order, and
        every member's table then covers its last step's context, all in
        one :meth:`~repro.memory.paged_kv.PagedKVManager.grow_tables`.
        The aggregates are summed in closed form.  Between two change
        points (a claim, a member's first growth step, its context-window
        stop) the blocks held and the ``g`` members growing hold still, so
        a run of ``r`` steps adds ``used × r`` block-steps of occupancy
        and ``r − (r·cached + g·r(r+1)/2)/(blocks·bs)`` of fragmentation,
        one integer numerator over one division.  Runs are summed per
        segment of equal step price (``segments``, as ``(duration, count,
        start)``).  Returns ``(occupancy time, fragmentation time, peak
        occupancy)``: the occupancy time is bit-identical to per-step
        adds, while the fragmentation time, like busy time, may differ
        from them in the last float bits.
        """
        kv = self.kv
        bs = kv.block_size_tokens
        max_seq = kv.layout.max_seq_len
        count = bisect_left(claims, (steps,))  # the claims the fold ran
        # every change point in one stream of (step, what), sorted: a
        # claim (its member's index), a member starting (-1) or stopping
        # (-2) to grow, or a segment ending (-3)
        events = claims[:count]
        rids = []
        targets = []
        for s in members:
            rid = s.request.request_id
            rids.append(rid)
            c = s.prefill_done + s.decode_done
            targets.append((rid, min(c + steps, max_seq)))
            # step j caches c + j + 1 positions once that passes what the
            # table already covers, and never more than the window
            first = max(1, kv.table(rid).cached_tokens - c)
            stop = min(max_seq - c, steps)
            if first < stop:
                events.append((first, -1))
                if stop < steps:
                    events.append((stop, -2))
        claimants = [rids[i] for _, i in claims[:count]]
        end = 0
        for _, n, _ in segments:
            end += int(n)
            events.append((end, -3))
        events.sort()
        used = kv.used_blocks
        blocks = kv.table_blocks
        cached = kv.device_cached_tokens
        growing = pos = seg = used_steps = 0
        frag = used_time = frag_time = 0.0
        for step, what in events:
            if step > pos:
                # the run since the last change point, in closed form
                r = step - pos
                span = blocks * bs
                frag += ((span - cached) * r
                         - growing * r * (r + 1) // 2) / span
                used_steps += used * r
                cached += growing * r
                pos = step
            if what >= 0:
                used += 1
                blocks += 1
            elif what == -1:
                growing += 1
            elif what == -2:
                growing -= 1
            else:
                d = segments[seg][0]
                seg += 1
                used_time += used_steps * d
                frag_time += frag * d
                used_steps = 0
                frag = 0.0
        kv.grow_tables(claimants, targets)
        total = kv.total_blocks
        return used_time / total, frag_time, used / total

    def _account_fold(self, fold: Tuple[Any, ...]) -> Seconds:
        td = super()._account_fold(fold)
        _, steps, segments, _, _, members, claims, _, _ = fold
        kv = self.kv
        acc = self.stats
        if claims is None:
            # a one-step launch or a prefill fold claims no blocks here:
            # the pool holds still
            occupancy = kv.occupancy_fraction
            occ_time = occupancy * td
            frag_time = kv.internal_fragmentation_fraction * td
        else:
            occ_time, frag_time, occupancy = self._replay_fold_growth(
                members, claims, segments, steps)
        acc.kv_occ_time += occ_time
        acc.frag_time += frag_time
        if kv.prefix_sharing:
            # growth comes off the free list, so neither shared nor
            # reclaimable blocks change inside a fold
            acc.shared_kv_time += kv.shared_block_fraction * td
        if occupancy > acc.peak_kv_occupancy:
            acc.peak_kv_occupancy = occupancy
        return td

    def _prefill_completed(self, state: RequestState,
                           finished: List[RequestState]) -> None:
        """Index the finished prompt's blocks on a prefix-sharing pool;
        on a prefill-role instance a request with decode work then hands
        its KV off instead of decoding here."""
        token_ids = state.request.prompt_token_ids
        if self.kv.prefix_sharing and token_ids:
            # the prompt's full blocks now hold real KV — index them so
            # later matching prompts (the conversation's next turn) reuse
            # them instead of re-prefilling
            self.kv.register_prefix(state.request.request_id, token_ids)
        if self.role == "prefill" and state.decode_len > 0:
            self._begin_handoff(state)
        else:
            super()._prefill_completed(state, finished)
