"""Serving metrics: latency percentiles, throughput, utilization, energy.

Two fidelity modes exist.  The default (``metrics_mode="full"``) keeps one
entry per request in the ``*_s`` sequences (typed ``array('d')`` columns,
8 bytes an entry, except ``tpots_s``, a list that holds ``None``
entries), so every percentile is exact — the regime all golden tests
pin.  ``metrics_mode="streaming"`` replaces those unbounded sequences
with O(1)-memory incremental aggregates
(:class:`StreamingQuantile` log-bucketed histograms plus exact
count/sum/min/max), so a million-request replay holds a few hundred
histogram buckets instead of five million floats; percentiles then carry a
bounded relative error (0.5% by construction at the default resolution)
while counters, means and extremes stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence,
                    TYPE_CHECKING, Tuple)

if TYPE_CHECKING:  # pragma: no cover - engine imports metrics
    from repro.serving.instance import RequestState

from repro.energy.power import FpgaPowerModel
from repro.units import Blocks, Bytes, Joules, Seconds, Tokens

#: Accepted values for the engine's ``metrics_mode``.
METRICS_MODES = ("full", "streaming")


def add_left_to_right(values: Iterable[float]) -> float:
    """``sum(values)`` added strictly left to right.

    From Python 3.12 the builtin ``sum`` of floats is compensated
    (Neumaier), so it can differ in the last bit from the plain chain every
    pinned aggregate was recorded with; this keeps one answer on every
    interpreter.  Integers stay integers."""
    total: float = 0
    for value in values:
        total += value
    return total


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


class StreamingQuantile:
    """Bounded-memory quantile estimator over non-negative samples.

    A log-bucketed histogram (the HDR-histogram idea): sample ``v`` lands
    in bucket ``floor(log_base(v))`` with ``base = (1 + e) / (1 - e)``, and
    a percentile query answers with the geometric centre of the bucket
    holding the requested rank — so every reported quantile is within
    relative error ``e`` of the true order statistic *by construction*,
    not in expectation like a reservoir sample.  Count, sum, min and max
    are tracked exactly; memory is one dict entry per occupied bucket
    (a few hundred for second-scale latencies at the default 0.5%).

    >>> q = StreamingQuantile()
    >>> for v in [0.1, 0.2, 0.3, 0.4]:
    ...     q.add(v)
    >>> q.count
    4
    >>> abs(q.percentile(0.5) - 0.25) <= 0.25 * 0.01
    True
    """

    __slots__ = ("relative_error", "count", "total", "min", "max",
                 "_zeros", "_buckets", "_inv_log_base", "_log_base")

    def __init__(self, relative_error: float = 0.005) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        self.relative_error = relative_error
        self._log_base = math.log((1.0 + relative_error)
                                  / (1.0 - relative_error))
        self._inv_log_base = 1.0 / self._log_base
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Record one sample (non-negative; queueing delays can be 0.0)."""
        if value < 0.0:
            raise ValueError("StreamingQuantile tracks non-negative samples")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self._zeros += 1
            return
        index = math.floor(math.log(value) * self._inv_log_base)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Quantile estimate within ``relative_error`` of the exact order
        statistic (0.0 with no samples)."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * (self.count - 1)
        if rank <= 0:
            return float(self.min)
        if rank >= self.count - 1:
            return float(self.max)
        cumulative = self._zeros
        if rank < cumulative:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank < cumulative:
                # geometric centre of [base^index, base^(index+1))
                centre = math.exp((index + 0.5) * self._log_base)
                return float(min(max(centre, self.min), self.max))
        return float(self.max)  # pragma: no cover - rank < count guaranteed


class _MetricsBase:
    """What both metrics dataclasses share: the pool time behind every
    utilization-style ratio and the filtered TPOT view (the view's cache
    is a plain class attribute, not a dataclass field, so it is neither
    compared nor constructed)."""

    makespan_s: Seconds
    num_instances: int
    tpots_s: List[Optional[Seconds]]
    _tpot_view: Optional[Tuple[int, List[float]]] = None

    @property
    def pool_time_s(self) -> Seconds:
        """Instance-seconds the pool was up: ``makespan × instances``."""
        return self.makespan_s * self.num_instances

    def _tpot_values(self) -> List[float]:
        """The non-``None`` TPOT samples, filtered once per batch of
        queries: the view is cached against the list length, so a summary
        asking for several percentiles filters once, while hand-mutated
        metrics still see fresh data."""
        cached = self._tpot_view
        if cached is None or cached[0] != len(self.tpots_s):
            cached = (len(self.tpots_s),
                      [t for t in self.tpots_s if t is not None])
            self._tpot_view = cached
        return cached[1]


@dataclass
class InstanceClassMetrics(_MetricsBase):
    """Aggregate statistics of one instance class inside a cluster run.

    A *class* is a group of identical instances (same node count, same KV
    budget — one :class:`~repro.serving.cluster.InstanceSpec`).  The engine
    emits one of these per class so heterogeneous pools can be judged class
    by class: is the big-instance class earning its nodes, are the small
    instances saturated, where do the swaps happen.  Requests whose
    ``instance_id`` is ``None`` (never ran) belong to no class and are
    excluded from every field here.

    Units match :class:`ServingMetrics`: seconds, tokens, blocks per node.
    """

    label: str
    num_instances: int
    num_nodes: int
    #: Serving role of the class (``"both"`` outside disaggregated
    #: clusters): handoff traffic only makes sense per role — prefill
    #: classes export (``handoffs_out``), decode classes import
    #: (``handoffs_in``) — and a prefill class legitimately completes
    #: zero requests while doing most of the compute.
    role: str = "both"
    requests: int = 0
    generated_tokens: Tokens = 0
    makespan_s: Seconds = 0.0
    busy_time_s: Seconds = 0.0
    batch_time_s: Seconds = 0.0
    ttfts_s: Sequence[Seconds] = field(default_factory=list)
    tpots_s: List[Optional[Seconds]] = field(default_factory=list)
    #: Streaming-mode fallback for :attr:`mean_ttft_s` when the per-request
    #: lists are not kept (per-class percentiles are full-fidelity only).
    ttft_count: int = 0
    ttft_sum_s: Seconds = 0.0
    preemptions: int = 0
    mean_kv_occupancy: float = 0.0
    peak_kv_occupancy: float = 0.0
    kv_total_blocks: Blocks = 0
    swap_out_count: int = 0
    swap_in_count: int = 0
    #: Prefix-sharing traffic of this class's pools (zero with the
    #: feature off): prompts that reused at least one cached block, and
    #: the prefill tokens those reuses skipped.
    prefix_hits: int = 0
    prefill_tokens_saved: int = 0
    handoffs_out: int = 0
    handoffs_in: int = 0
    handoff_time_s: Seconds = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of this class's instance-time spent executing steps."""
        capacity = self.pool_time_s
        if capacity <= 0:
            return 0.0
        return self.busy_time_s / capacity

    @property
    def mean_running_batch(self) -> float:
        """Time-weighted mean co-resident requests per instance of this
        class over the makespan (idle time counts as zero)."""
        capacity = self.pool_time_s
        if capacity <= 0:
            return 0.0
        return self.batch_time_s / capacity

    @property
    def mean_ttft_s(self) -> Seconds:
        if self.ttfts_s:
            return add_left_to_right(self.ttfts_s) / len(self.ttfts_s)
        if self.ttft_count:
            return self.ttft_sum_s / self.ttft_count
        return 0.0

    def ttft_percentile_s(self, fraction: float) -> Seconds:
        return percentile(self.ttfts_s, fraction)

    def tpot_percentile_s(self, fraction: float) -> Seconds:
        return percentile(self._tpot_values(), fraction)


@dataclass
class ServingMetrics(_MetricsBase):
    """Aggregate statistics of one serving simulation.

    Engine runs (:class:`repro.serving.engine.TokenServingEngine`) fill
    every field; hand-built metrics may leave the token-level and step
    accounting fields empty, and :meth:`summary` then omits them.

    ``tpots_s`` is aligned index-for-index with ``ttfts_s`` (one entry per
    request that generated a token); an entry is ``None`` for a request with
    fewer than two generated tokens, which has no inter-token gap.  ``None``
    entries are excluded from the TPOT percentiles and count as *vacuously*
    meeting the TPOT SLO in :meth:`slo_attainment` — explicitly, not by
    smuggling a 0.0 into the distribution.

    Step accounting (engine runs only):

    * ``busy_time_s`` — seconds instances spent executing steps (including
      serialized swap transfers), summed over the pool.  This is the ground
      truth behind :attr:`instance_utilization`: unlike per-request service
      times it never double-counts the time a preempted request spends
      re-queued, so the utilization it yields is ≤ 1 by construction;
    * ``prefill_tokens_processed`` — prompt tokens actually computed
      (recomputed prefills after a discarding preemption count again);
    * ``decode_step_time_s`` / ``prefill_step_time_s`` /
      ``mixed_step_time_s`` — busy seconds split by step kind (pure decode,
      pure prefill, mixed prefill+decode); the ``*_time_share`` properties
      normalize them by ``busy_time_s``.

    KV-cache occupancy fields (engine runs only):

    * ``kv_mode`` — ``"none"``, ``"reserve"`` (worst-case reservations) or
      ``"paged"`` (fixed-size block allocation);
    * ``mean_running_batch`` — time-weighted mean number of co-resident
      requests per instance over the makespan (the *batch occupancy* a KV
      regime sustains; idle time counts as zero);
    * ``mean_kv_occupancy`` / ``peak_kv_occupancy`` — time-weighted mean and
      peak fraction of the device block pool allocated (paged mode);
    * ``mean_kv_fragmentation`` — time-weighted fraction of allocated block
      capacity not covering cached tokens (partially-filled tail blocks);
    * ``swap_out_count`` / ``swap_in_count`` / ``swapped_bytes`` /
      ``swap_time_s`` — host-tier traffic of swap-based preemption:
      transfers, PCIe bytes (summed over nodes) and the seconds those
      transfers occupied instances;
    * ``handoff_count`` / ``handoff_time_s`` — prefill→decode KV handoffs
      on disaggregated clusters and the PCIe seconds they cost (export on
      the prefiller plus import on the decoder).  A handoff rides the swap
      machinery, so its transfers are *also* counted in the swap fields
      and in ``busy_time_s`` (they serialize ahead of instance steps);
      these two fields isolate the disaggregation share.
    """

    num_requests: int
    num_instances: int
    num_nodes_per_instance: int
    makespan_s: Seconds
    generated_tokens: Tokens
    queueing_delays_s: Sequence[Seconds] = field(default_factory=list)
    end_to_end_latencies_s: Sequence[Seconds] = field(default_factory=list)
    service_times_s: Sequence[Seconds] = field(default_factory=list)
    ttfts_s: Sequence[Seconds] = field(default_factory=list)
    tpots_s: List[Optional[Seconds]] = field(default_factory=list)
    preemptions: int = 0
    policy: str = "fifo"
    prefill_mode: str = "exclusive"
    busy_time_s: Seconds = 0.0
    prefill_tokens_processed: int = 0
    decode_step_time_s: Seconds = 0.0
    prefill_step_time_s: Seconds = 0.0
    mixed_step_time_s: Seconds = 0.0
    kv_mode: str = "none"
    kv_block_size: int = 0
    kv_total_blocks: Blocks = 0
    mean_running_batch: float = 0.0
    mean_kv_occupancy: float = 0.0
    peak_kv_occupancy: float = 0.0
    mean_kv_fragmentation: float = 0.0
    swap_out_count: int = 0
    swap_in_count: int = 0
    swapped_bytes: Bytes = 0
    swap_time_s: Seconds = 0.0
    handoff_count: int = 0
    handoff_time_s: Seconds = 0.0
    #: Whether the run had hash-based prefix sharing enabled on its paged
    #: pools (the counters below stay zero with it off, but the flag
    #: distinguishes "off" from "on but nothing matched").
    kv_prefix_sharing: bool = False
    #: Requests that reused at least one cached prefix block at admission.
    prefix_hits: int = 0
    #: Prompt tokens credited as already computed by prefix reuse — prefill
    #: work the cluster did *not* redo (compare ``prefill_tokens_processed``).
    prefill_tokens_saved: int = 0
    #: Shared blocks copied on first divergent write (copy-on-write).
    cow_copies: int = 0
    #: Time-weighted fraction of the device pools holding shared or
    #: reclaimable cached blocks, normalized by busy time.
    mean_kv_shared_fraction: float = 0.0
    #: Cluster shape (e.g. ``"2x1n,1x2n"``) and routing policy of the run.
    cluster: str = ""
    router: str = ""
    #: One entry per instance class (engine runs only; single-class pools
    #: get exactly one).  ``num_nodes_per_instance`` is 0 when classes mix
    #: node counts — per-class numbers live here instead.
    per_class: List[InstanceClassMetrics] = field(default_factory=list)
    #: ``"full"`` (per-request lists, exact percentiles — the golden
    #: regime) or ``"streaming"`` (incremental aggregates, O(1) memory).
    metrics_mode: str = "full"
    #: Streaming-mode aggregates keyed ``"queueing_delay"``, ``"latency"``,
    #: ``"service_time"``, ``"ttft"``, ``"tpot"``; ``None`` in full mode.
    #: The per-request lists stay empty when this is set — every
    #: latency/percentile accessor transparently falls through to these.
    streams: Optional[Dict[str, StreamingQuantile]] = None
    #: The (ttft_slo_s, tpot_slo_s) pair pinned at run time in streaming
    #: mode.  Joint SLO attainment needs the per-request *pair* of TTFT and
    #: TPOT, which marginal aggregates cannot recover, so streaming runs
    #: count attainment online against exactly one pinned pair.
    slo_pin: Optional[Tuple[float, float]] = None
    #: Requests meeting the pinned SLO pair (streaming mode).
    slo_good_requests: int = 0
    _slo_cache: Optional[Tuple[int, int, float, float, float]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def throughput_tokens_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.generated_tokens / self.makespan_s

    @property
    def requests_per_second(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.num_requests / self.makespan_s

    @property
    def mean_queueing_delay_s(self) -> Seconds:
        if self.queueing_delays_s:
            return (add_left_to_right(self.queueing_delays_s)
                    / len(self.queueing_delays_s))
        if self.streams is not None:
            return self.streams["queueing_delay"].mean
        return 0.0

    @property
    def instance_utilization(self) -> float:
        """Fraction of instance-time spent actually serving requests:
        ``busy_time_s / pool_time_s`` (``makespan × instances``), which is
        ≤ 1 by construction (steps never overlap on an instance and all
        finish within the makespan)."""
        capacity = self.pool_time_s
        if capacity <= 0:
            return 0.0
        return self.busy_time_s / capacity

    @property
    def decode_time_share(self) -> float:
        """Fraction of busy time spent in pure decode steps."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.decode_step_time_s / self.busy_time_s

    @property
    def prefill_time_share(self) -> float:
        """Fraction of busy time spent in pure prefill steps."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.prefill_step_time_s / self.busy_time_s

    @property
    def mixed_time_share(self) -> float:
        """Fraction of busy time spent in mixed prefill+decode steps."""
        if self.busy_time_s <= 0:
            return 0.0
        return self.mixed_step_time_s / self.busy_time_s

    def latency_percentile_s(self, fraction: float) -> Seconds:
        if not self.end_to_end_latencies_s and self.streams is not None:
            return self.streams["latency"].percentile(fraction)
        return percentile(self.end_to_end_latencies_s, fraction)

    # ------------------------------------------------------------------
    # token-level metrics (engine runs only)
    # ------------------------------------------------------------------
    @property
    def has_token_metrics(self) -> bool:
        """Whether token-level (TTFT/TPOT) data exists in either mode."""
        if self.ttfts_s:
            return True
        return self.streams is not None and self.streams["ttft"].count > 0

    @property
    def mean_ttft_s(self) -> Seconds:
        if self.ttfts_s:
            return add_left_to_right(self.ttfts_s) / len(self.ttfts_s)
        if self.streams is not None:
            return self.streams["ttft"].mean
        return 0.0

    def ttft_percentile_s(self, fraction: float) -> Seconds:
        """Time-to-first-token percentile (arrival to first generated token)."""
        if not self.ttfts_s and self.streams is not None:
            return self.streams["ttft"].percentile(fraction)
        return percentile(self.ttfts_s, fraction)

    def tpot_percentile_s(self, fraction: float) -> Seconds:
        """Time-per-output-token percentile (mean inter-token gap after the
        first token, one value per request).  Requests with fewer than two
        generated tokens have no inter-token gap and are excluded instead of
        contributing a bias-inducing 0.0."""
        if not self.tpots_s and self.streams is not None:
            return self.streams["tpot"].percentile(fraction)
        return percentile(self._tpot_values(), fraction)

    def slo_attainment(self, ttft_slo_s: Seconds, tpot_slo_s: Seconds) -> float:
        """Fraction of requests meeting both the TTFT and TPOT SLOs.

        Requires token-level data; the i-th entries of ``ttfts_s`` and
        ``tpots_s`` describe the same request (the engine emits them sorted
        by request id).  A ``None`` TPOT (single-token request) meets the
        TPOT SLO vacuously — there is no inter-token gap to violate it.
        The result for one SLO pair is cached against the list lengths, so
        an attainment query followed by the goodput built on it scans the
        per-request lists once, not twice.

        Raises ``ValueError`` when both lists are populated with different
        lengths (``zip(strict=True)`` semantics, spelled out explicitly):
        silently zip-truncating mismatched hand-built metrics would pair
        entries from different requests and overstate attainment.

        In streaming mode the per-request pairs no longer exist, so
        attainment is counted online against the SLO pair pinned at run
        time (``slo_pin``); querying any other pair raises ``ValueError``
        — a silently wrong number would be worse than no number.
        """
        if not self.ttfts_s:
            if self.streams is not None:
                eligible = self.streams["ttft"].count
                if eligible == 0:
                    return 0.0
                if self.slo_pin is None:
                    raise ValueError(
                        "streaming metrics cannot answer arbitrary SLO "
                        "queries after the fact; pin (ttft_slo_s, "
                        "tpot_slo_s) on the engine run to count "
                        "attainment online")
                if (ttft_slo_s, tpot_slo_s) != self.slo_pin:
                    raise ValueError(
                        f"streaming run pinned SLOs {self.slo_pin}; "
                        f"attainment for ({ttft_slo_s}, {tpot_slo_s}) "
                        "was not counted (re-run with that pin)")
                return self.slo_good_requests / eligible
            return 0.0
        tpots: List[Optional[float]] = self.tpots_s
        if tpots and len(tpots) != len(self.ttfts_s):
            raise ValueError(
                f"ttfts_s has {len(self.ttfts_s)} entries but tpots_s has "
                f"{len(tpots)}; per-request lists must align index-for-index "
                "(use None for requests without a TPOT sample)")
        cached = self._slo_cache
        if (cached is not None
                and cached[:4] == (len(self.ttfts_s), len(tpots),
                                   ttft_slo_s, tpot_slo_s)):
            return cached[4]
        if not tpots:
            tpots = [None] * len(self.ttfts_s)
        good = sum(1 for ttft, tpot in zip(self.ttfts_s, tpots)
                   if ttft <= ttft_slo_s
                   and (tpot is None or tpot <= tpot_slo_s))
        result = good / len(self.ttfts_s)
        self._slo_cache = (len(self.ttfts_s), len(self.tpots_s),
                           ttft_slo_s, tpot_slo_s, result)
        return result

    def slo_goodput_rps(self, ttft_slo_s: Seconds, tpot_slo_s: Seconds) -> float:
        """SLO-meeting requests served per second of makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return (self.slo_attainment(ttft_slo_s, tpot_slo_s)
                * self.num_requests / self.makespan_s)

    def energy_joules(self, power_model: Optional[FpgaPowerModel] = None,
                      nodes_per_card: int = 2) -> Joules:
        """Total deployment energy over the makespan (all instances powered).

        Heterogeneous clusters sum per-class (each class has its own node
        count, hence its own per-instance power draw); the homogeneous
        formula is the single-class special case of the same sum.
        """
        power_model = power_model or FpgaPowerModel()
        if self.per_class:
            return add_left_to_right(
                power_model.total_power_watts(c.num_nodes, nodes_per_card)
                * c.num_instances * self.makespan_s
                for c in self.per_class)
        per_instance = power_model.total_power_watts(self.num_nodes_per_instance,
                                                     nodes_per_card)
        return per_instance * self.num_instances * self.makespan_s

    def tokens_per_joule(self, power_model: Optional[FpgaPowerModel] = None,
                         nodes_per_card: int = 2) -> float:
        energy = self.energy_joules(power_model, nodes_per_card)
        if energy <= 0:
            return 0.0
        return self.generated_tokens / energy

    def summary(self) -> Dict[str, float]:
        out = {
            "requests": float(self.num_requests),
            "makespan_s": self.makespan_s,
            "throughput_tok_s": self.throughput_tokens_per_second,
            "requests_per_s": self.requests_per_second,
            "mean_queue_delay_s": self.mean_queueing_delay_s,
            "p50_latency_s": self.latency_percentile_s(0.50),
            "p95_latency_s": self.latency_percentile_s(0.95),
            "p99_latency_s": self.latency_percentile_s(0.99),
            "instance_utilization": self.instance_utilization,
        }
        if self.has_token_metrics:
            out.update({
                "mean_ttft_s": self.mean_ttft_s,
                "p50_ttft_s": self.ttft_percentile_s(0.50),
                "p95_ttft_s": self.ttft_percentile_s(0.95),
                "p99_ttft_s": self.ttft_percentile_s(0.99),
                "p50_tpot_s": self.tpot_percentile_s(0.50),
                "p99_tpot_s": self.tpot_percentile_s(0.99),
                "preemptions": float(self.preemptions),
            })
        if self.mean_running_batch > 0:  # engine runs only
            out["mean_running_batch"] = self.mean_running_batch
        if self.busy_time_s > 0:  # engine runs only
            out.update({
                "prefill_tokens": float(self.prefill_tokens_processed),
                "decode_time_share": self.decode_time_share,
                "prefill_time_share": self.prefill_time_share,
            })
            if self.mixed_step_time_s > 0:
                out["mixed_time_share"] = self.mixed_time_share
        if self.kv_mode == "paged":
            out.update({
                "kv_total_blocks": float(self.kv_total_blocks),
                "mean_kv_occupancy": self.mean_kv_occupancy,
                "peak_kv_occupancy": self.peak_kv_occupancy,
                "mean_kv_fragmentation": self.mean_kv_fragmentation,
                "swap_outs": float(self.swap_out_count),
                "swap_ins": float(self.swap_in_count),
                "swapped_mib": self.swapped_bytes / (1 << 20),
                "swap_time_s": self.swap_time_s,
            })
        if self.kv_prefix_sharing:  # sharing-enabled paged runs only
            out.update({
                "prefix_hits": float(self.prefix_hits),
                "prefill_tokens_saved": float(self.prefill_tokens_saved),
                "cow_copies": float(self.cow_copies),
                "mean_kv_shared_fraction": self.mean_kv_shared_fraction,
            })
        if self.handoff_count:  # disaggregated clusters only
            out.update({
                "handoffs": float(self.handoff_count),
                "handoff_time_s": self.handoff_time_s,
            })
        return out


class StreamingMetricsCollector:
    """O(1)-memory accumulator the engine feeds one finished request at a
    time in ``metrics_mode="streaming"``.

    Replaces the per-request record list: counters (requests, tokens,
    preemptions, per-class totals) and means stay exact, latency
    distributions go through :class:`StreamingQuantile`, and joint SLO
    attainment is counted online against the SLO pair pinned at
    construction (it cannot be recovered from marginal distributions
    afterwards).  ``class_of_instance`` maps instance id → class label so
    per-class counters survive without records.
    """

    __slots__ = ("count", "generated_tokens", "preemptions", "max_finish_s",
                 "slo", "slo_good", "queueing", "latency", "service",
                 "ttft", "tpot", "class_of_instance", "per_class")

    def __init__(self, slo: Optional[Tuple[float, float]] = None,
                 class_of_instance: Optional[Dict[int, str]] = None) -> None:
        self.count = 0
        self.generated_tokens = 0
        self.preemptions = 0
        self.max_finish_s = 0.0
        self.slo = slo
        self.slo_good = 0
        self.queueing = StreamingQuantile()
        self.latency = StreamingQuantile()
        self.service = StreamingQuantile()
        self.ttft = StreamingQuantile()
        self.tpot = StreamingQuantile()
        self.class_of_instance = class_of_instance or {}
        # label -> [requests, generated_tokens, preemptions,
        #           ttft_count, ttft_sum_s]
        self.per_class: Dict[str, List[float]] = {}

    def add(self, state: "RequestState", now: float) -> None:
        """Fold in one finished request (``state`` is the engine's
        :class:`~repro.serving.instance.RequestState` at completion)."""
        request = state.request
        arrival = request.arrival_s
        admitted = state.admitted_s if state.admitted_s is not None else now
        decode_len = state.decode_len
        self.count += 1
        self.generated_tokens += decode_len
        self.preemptions += state.preemptions
        if now > self.max_finish_s:
            self.max_finish_s = now
        self.queueing.add(admitted - arrival)
        self.latency.add(now - arrival)
        self.service.add(now - admitted)
        first_token = state.first_token_s
        ttft = tpot = None
        if first_token is not None:
            ttft = first_token - arrival
            self.ttft.add(ttft)
            if decode_len > 1:
                tpot = (now - first_token) / (decode_len - 1)
                self.tpot.add(tpot)
            slo = self.slo
            if (slo is not None and ttft <= slo[0]
                    and (tpot is None or tpot <= slo[1])):
                self.slo_good += 1
        label = self.class_of_instance.get(state.instance_id)
        if label is not None:
            entry = self.per_class.get(label)
            if entry is None:
                entry = self.per_class[label] = [0, 0, 0, 0, 0.0]
            entry[0] += 1
            entry[1] += decode_len
            entry[2] += state.preemptions
            if ttft is not None:
                entry[3] += 1
                entry[4] += ttft

    def streams(self) -> Dict[str, StreamingQuantile]:
        """The aggregate dict :class:`ServingMetrics` exposes as
        ``streams``."""
        return {"queueing_delay": self.queueing, "latency": self.latency,
                "service_time": self.service, "ttft": self.ttft,
                "tpot": self.tpot}
