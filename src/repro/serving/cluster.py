"""Heterogeneous instance pools and the pluggable cluster-routing layer.

A serving deployment is rarely a row of identical boxes: mixing a few big
(many-node, fast-prefill) instances with many small (cheap, plentiful) ones
serves a mixed request population better than either extreme — *if* the
cluster routes each request to an instance class that suits it.  This module
provides the two pieces the engine needs for that:

* **cluster shape** — :class:`InstanceSpec` describes one *class* of
  instances (how many, how many accelerator nodes each, optional per-node
  KV-budget override, optional serving role) and :class:`ClusterSpec` is an
  ordered list of them.  The text form follows the grammar
  ``<count>x<nodes>n[@<size>MiB][:<role>]``: ``"2x1n,2x2n,1x4n"`` is two
  1-node, two 2-node and one 4-node instance, ``"2x2n@32MiB"`` overrides
  the per-node KV budget of that class, and ``"1x4n:prefill,4x1n:decode"``
  is a *disaggregated* cluster — the 4-node class only prefills and hands
  each finished prompt's paged KV blocks to a 1-node decode instance over
  PCIe.  Specs round-trip through :func:`parse_cluster_spec` and are what
  the ``serve --instances`` flag accepts;
* **routing** — a :class:`Router` decides, at every event boundary, the
  order in which instances at a step boundary get to pull work from the
  shared waiting queue, and (via :meth:`Router.placement_ok`) may veto
  placing a specific request on a specific instance class.

Routing model
-------------

The cluster keeps **one shared waiting queue** (the scheduler policy's
heap); requests are never pinned to a per-instance queue.  Routing happens
at *dispatch* time: when an event leaves one or more instances at a step
boundary, the router orders them, and each admits greedily from the queue
head in that order (subject to its KV gate and the router's placement
veto).  Two properties fall out:

* **homogeneous pools are router-independent** — with a single instance
  class there is nothing to differentiate, so the engine runs the exact
  pre-cluster dispatch order and stays bit-identical to the PR 1–3 engines
  (pinned by golden-timestamp tests across every router);
* **no request is ever dropped or duplicated** — routing only reorders
  *who pulls next*; the queue, admission and completion bookkeeping are the
  same single-pool machinery regardless of router (pinned by conservation
  property tests).

Provided routers (``serve --router``):

* ``round_robin`` — rotate first pick by cumulative admissions, so every
  instance gets a fair share of requests;
* ``least_loaded`` — fewest responsible requests first (running batch plus
  parked swap-priority victims);
* ``kv_aware`` — freest KV capacity first; an instance holding the queue
  head's swapped-out blocks always gets first pick (swap affinity);
* ``class_affinity`` — SJF-style size matching: short prompts to small
  instances, long prompts to big ones, with the prompt-length thresholds
  derived from the trace so each class's share of prompts matches its share
  of cluster nodes;
* ``disaggregated`` — role matching for prefill/decode-tagged clusters:
  fresh requests go to prefill-capable instances, handed-off requests to
  the decode instance holding their KV, least-loaded first within a role;
* ``prefix_aware`` — cache-status-aware: the instance whose prefix index
  holds the longest match for the queue head's prompt pulls first (swap
  affinity still wins outright; ties fall back to least-loaded).  Only
  useful with ``--kv-prefix-sharing``; without it every match is zero and
  the router degrades to least-loaded.

Units: node counts are accelerator nodes per instance, KV budgets are bytes
per node, prompt lengths are tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.units import Bytes, require_count

if TYPE_CHECKING:  # pragma: no cover - cluster is imported by instance
    from repro.serving.instance import InstanceRuntime, RequestState
    from repro.workloads.traces import Request

#: Router sort key: heterogeneous tuples of ints/floats compared
#: lexicographically (ties always break on ``instance_id`` afterwards).
RankKey = Tuple[float, ...]

#: Router names accepted by the engine and the ``serve --router`` flag.
ROUTER_NAMES = ("round_robin", "least_loaded", "kv_aware", "class_affinity",
                "disaggregated", "prefix_aware")

#: Serving roles an :class:`InstanceSpec` may carry.  ``"both"`` (default)
#: serves requests end-to-end; ``"prefill"`` computes prompts only and hands
#: the finished KV off; ``"decode"`` imports handed-off KV and generates.
INSTANCE_ROLES = ("both", "prefill", "decode")

_SPEC_PATTERN = re.compile(
    r"^(\d+)x(\d+)n(?:@(\d+(?:\.\d+)?)MiB)?(?::(\w+))?$")


@dataclass(frozen=True)
class InstanceSpec:
    """One class of identical instances inside a cluster.

    ``kv_budget_bytes`` optionally overrides the per-node KV byte budget of
    this class only (None inherits the cluster-wide default, which itself
    defaults to each node's HBM share net of weights — note that the same
    byte budget holds a *different* number of cached tokens per class,
    because each node of a bigger instance stores fewer heads per token).

    ``role`` tags the class for disaggregated serving: ``"prefill"``
    instances compute prompts and hand each finished prompt's paged KV
    blocks to a decode-capable instance; ``"decode"`` instances only accept
    requests whose prompt is already computed; ``"both"`` (the default)
    serves requests end-to-end, exactly as before roles existed.
    """

    count: int
    num_nodes: int
    kv_budget_bytes: Optional[Bytes] = None
    role: str = "both"

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("instance count must be positive")
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if (self.kv_budget_bytes is not None and require_count(
                self.kv_budget_bytes, "kv_budget_bytes", "byte") < 0):
            raise ValueError("kv_budget_bytes cannot be negative")
        if self.role not in INSTANCE_ROLES:
            raise ValueError(f"unknown instance role {self.role!r}; "
                             f"known: {', '.join(INSTANCE_ROLES)}")

    @property
    def label(self) -> str:
        """Class label used in metrics and routing (e.g. ``"2n"``; the
        per-class KV-budget override and the serving role are part of the
        class identity, so they show up in the label — two same-node-count
        classes with different budgets or roles must not collapse into one
        metrics row)."""
        label = f"{self.num_nodes}n"
        if self.kv_budget_bytes is not None:
            label += f"/{self.kv_budget_bytes / (1 << 20):g}MiB"
        if self.role != "both":
            label += f":{self.role}"
        return label

    @property
    def total_nodes(self) -> int:
        return self.count * self.num_nodes

    def __str__(self) -> str:
        text = f"{self.count}x{self.num_nodes}n"
        if self.kv_budget_bytes is not None:
            text += f"@{self.kv_budget_bytes / (1 << 20):g}MiB"
        if self.role != "both":
            text += f":{self.role}"
        return text


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered list of instance classes; instance ids are assigned in
    spec order (spec 0's instances first), which keeps single-class
    clusters identical to the flat ``num_instances`` pools they replace."""

    specs: Tuple[InstanceSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("cluster needs at least one instance spec")

    @staticmethod
    def homogeneous(num_instances: int, num_nodes: int) -> "ClusterSpec":
        """The single-class cluster of ``num_instances`` ×
        ``num_nodes``-node instances (what the engine's
        ``num_instances``/``num_nodes_per_instance`` shorthand means)."""
        return ClusterSpec((InstanceSpec(num_instances, num_nodes),))

    @property
    def num_instances(self) -> int:
        return sum(spec.count for spec in self.specs)

    @property
    def total_nodes(self) -> int:
        """Accelerator nodes across the whole cluster — the budget a
        node-equivalent homogeneous pool must match for fair comparisons."""
        return sum(spec.total_nodes for spec in self.specs)

    @property
    def is_heterogeneous(self) -> bool:
        """True when the pool mixes instance classes — the regime where the
        router is consulted.  Single-class pools keep the exact pre-cluster
        dispatch order (and therefore bit-identical timestamps).  Serving
        roles are part of class identity: a disaggregated cluster is
        heterogeneous even when every instance has the same node count."""
        return len({(s.num_nodes, s.kv_budget_bytes, s.role)
                    for s in self.specs}) > 1

    @property
    def has_roles(self) -> bool:
        """True when any class carries a prefill/decode role — the
        disaggregated regime, where finished prompts hand their KV off."""
        return any(spec.role != "both" for spec in self.specs)

    @property
    def labels(self) -> List[str]:
        """Distinct class labels in spec order."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.label not in seen:
                seen.append(spec.label)
        return seen

    def __str__(self) -> str:
        return ",".join(str(spec) for spec in self.specs)


def parse_cluster_spec(text: str) -> ClusterSpec:
    """Parse ``"2x1n,2x2n,1x4n"`` into a :class:`ClusterSpec`.

    Each comma-separated entry is ``<count>x<nodes>n[@<size>MiB][:<role>]``:
    an optional ``@<size>MiB`` overrides the class's per-node KV byte
    budget, an optional ``:<role>`` (``prefill`` / ``decode`` / ``both``)
    tags it for disaggregated serving.  ``str()`` of the result round-trips
    back through this parser.  Raises ``ValueError`` naming the malformed
    entry.
    """
    if not text or not text.strip():
        raise ValueError("empty cluster spec")
    specs: List[InstanceSpec] = []
    for entry in text.split(","):
        entry = entry.strip()
        match = _SPEC_PATTERN.match(entry)
        if match is None:
            raise ValueError(
                f"bad instance spec {entry!r}: expected "
                "<count>x<nodes>n[@<size>MiB][:<role>], e.g. '2x1n' (two "
                "one-node instances), '2x2n@32MiB' (KV-budget override) or "
                "'1x4n:prefill' (disaggregated role)")
        budget = (None if match.group(3) is None
                  else round(float(match.group(3)) * (1 << 20)))
        role = match.group(4) or "both"
        if role not in INSTANCE_ROLES:
            raise ValueError(
                f"bad instance spec {entry!r}: unknown role {role!r}; "
                f"known: {', '.join(INSTANCE_ROLES)}")
        try:
            specs.append(InstanceSpec(count=int(match.group(1)),
                                      num_nodes=int(match.group(2)),
                                      kv_budget_bytes=budget,
                                      role=role))
        except ValueError as exc:
            raise ValueError(f"bad instance spec {entry!r}: {exc}") from None
    return ClusterSpec(tuple(specs))


# ---------------------------------------------------------------------------
# routers
# ---------------------------------------------------------------------------
class Router:
    """Cluster-routing policy: who pulls from the shared queue, and where
    may a given request land.

    The engine consults a router only on heterogeneous pools (see the
    module docstring); all hooks are deterministic functions of cluster
    state, so runs stay exactly reproducible.

    Subclasses override :meth:`rank`; ties always break on ``instance_id``
    so every router degenerates to the pre-cluster dispatch order when its
    ranking key cannot distinguish instances.
    """

    name = "base"

    def prepare(self, runtimes: Sequence["InstanceRuntime"],
                trace: Iterable["Request"]) -> None:
        """Called once per run before the clock starts, with the built
        instance runtimes and the full trace (routers may precompute
        per-request placement from it — the same oracle standing the SJF
        scheduler uses)."""

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        """Sort key for one boundary instance (smaller dispatches first);
        ``head`` is the current queue head (may be None)."""
        return ()

    def dispatch_order(self, candidates: List["InstanceRuntime"],
                       head: Optional["RequestState"]
                       ) -> List["InstanceRuntime"]:
        """Order the instances at a step boundary for this event."""
        return sorted(candidates,
                      key=lambda r: (self.rank(r, head), r.instance_id))

    def placement_ok(self, runtime: "InstanceRuntime",
                     state: "RequestState") -> bool:
        """May ``state`` be admitted on ``runtime``?  A vetoed head is not
        admitted (nor preempted for) there and waits for an instance the
        router accepts; routers must accept at least one class that can
        serve the request, or the run would stall."""
        return True

    def handoff_target(self, runtimes: Sequence["InstanceRuntime"],
                       state: "RequestState") -> Optional["InstanceRuntime"]:
        """The decode-capable instance a finished prompt's KV should move
        to: the least-loaded one whose pool can hold the request at full
        context (ties by instance id).  Returns None when no decode-capable
        instance fits — the engine treats that as a bug, because trace
        validation already proved one exists."""
        candidates = [r for r in runtimes
                      if r.role in ("decode", "both")
                      and r.can_ever_serve(state.request)]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.load, r.instance_id))


class RoundRobinRouter(Router):
    """Fair rotation: the instance that has admitted the fewest requests so
    far pulls first (cumulative admissions; ties by instance id)."""

    name = "round_robin"

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        return (runtime.admission_count,)


class LeastLoadedRouter(Router):
    """The instance responsible for the fewest requests right now (running
    batch plus parked swap-priority victims) pulls first."""

    name = "least_loaded"

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        return (runtime.load,)


class KVAwareRouter(Router):
    """The instance with the freest KV capacity pulls first; an instance
    holding the queue head's swapped-out blocks always outranks the rest
    (swap affinity — nobody else could resume that request anyway)."""

    name = "kv_aware"

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        affinity = 0 if (head is not None
                         and runtime.holds_swapped(head)) else 1
        return (affinity, -runtime.kv_free_fraction)


class PrefixAwareRouter(Router):
    """Cache-status-aware routing: the instance holding the longest
    registered prefix of the queue head's prompt pulls first, so multi-turn
    follow-ups land where their KV blocks already live (rtp-llm's flexlb
    policy).  Swap affinity still outranks everything — only the holder can
    resume a swapped request — and ties fall back to least-loaded."""

    name = "prefix_aware"

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        affinity = 0 if (head is not None
                         and runtime.holds_swapped(head)) else 1
        matched = (runtime.matched_prefix_tokens(head.request)
                   if head is not None else 0)
        return (affinity, -matched, runtime.load)


class ClassAffinityRouter(Router):
    """SJF-style size matching: short prompts to small instances, long
    prompts to big ones.

    At :meth:`prepare` time the router sorts the trace by prompt length and
    cuts it at the largest *relative* jumps between consecutive lengths
    (K-1 cuts for K classes): on multi-tenant traffic those jumps are the
    boundaries between traffic modes, so a handful of long bulk prompts
    lands in the big class and the interactive mass in the small one.  A
    cut may not strand a class: every boundary must leave the classes
    below it at least half their node-share of requests, so a freak jump
    near the bottom of a unimodal distribution cannot assign the whole
    trace to the big class (when no jump qualifies, the boundary falls
    back to the node-share quantile itself).  Using the trace is the same
    oracle standing the SJF scheduler uses for job sizes (a stand-in for a
    prompt-length predictor, which production routers have for free: the
    prompt is in hand before routing).

    Placement is asymmetric:

    * **downward is forbidden** — a request preferring a big class is never
      placed on a smaller instance.  One long prompt's exclusive prefill
      would stall every short request resident there, which is exactly the
      tail this router exists to remove;
    * **upward is free** — a short request may land on a bigger instance.
      The :meth:`rank` order dispatches small classes first and idle
      instances take part in every dispatch round, so shorts only reach
      the big class when no small instance is at a boundary with room —
      spilling there is then strictly better than waiting.

    The net effect on a mixed workload: the small classes serve a
    long-prompt-free diet (their short requests never stall behind a bulk
    prefill), while the big class's fast prefill absorbs the bulk prompts
    plus whatever interactive overflow the smalls cannot take.  Two safety
    valves keep placement live: a request whose preferred class cannot
    hold it (KV capacity) is bumped to the smallest class that can, and a
    swapped-out request always routes to the instance holding its blocks
    regardless of class.
    """

    name = "class_affinity"

    def __init__(self) -> None:
        #: request_id -> preferred class key (num_nodes).
        self._preferred: Dict[int, int] = {}

    def prepare(self, runtimes: Sequence["InstanceRuntime"],
                trace: Iterable["Request"]) -> None:
        # size preferences steer *fresh* requests, and on a role-tagged
        # cluster only prefill-capable instances may take those — sizing
        # the cuts by decode-only classes would prefer classes whose role
        # gate then refuses every fresh request, stalling the queue head
        # forever (handed-off requests bypass the size rule via their
        # swapped_on pin, so decode classes need no preference here)
        placeable = [r for r in runtimes if r.role in ("prefill", "both")]
        by_class: Dict[int, List["InstanceRuntime"]] = {}
        for runtime in placeable:
            by_class.setdefault(runtime.num_nodes, []).append(runtime)
        class_nodes = sorted(by_class)
        ordered = sorted(trace, key=lambda r: (r.prefill_len, r.request_id))
        # cut the sorted prompt lengths at the largest relative jumps (mode
        # boundaries on multi-tenant traffic); relative rather than
        # absolute so the cuts are scale-free.  A zero-length prompt below
        # a positive one is an infinite relative jump — the strongest
        # possible mode boundary — not a division-by-zero crash, and a
        # single-request or all-equal-length trace simply has no jumps
        # (every boundary falls back to its node-share quantile).
        lengths = [r.prefill_len for r in ordered]
        jumps = [(lengths[i] / lengths[i - 1] if lengths[i - 1] > 0
                  else float("inf"), i)
                 for i in range(1, len(ordered))
                 if lengths[i] > lengths[i - 1]]
        jumps.sort(key=lambda jump: (-jump[0], jump[1]))
        total_nodes = sum(nodes * len(by_class[nodes])
                          for nodes in class_nodes)
        cuts: List[int] = []
        share = 0
        for nodes in class_nodes[:-1]:
            share += nodes * len(by_class[nodes])
            # the classes below this boundary must keep at least half
            # their node-share of requests — a freak jump near the bottom
            # of a unimodal distribution must not strand the small classes
            floor = len(ordered) * share / (2 * total_nodes)
            previous = cuts[-1] if cuts else 0
            cut = next((i for _, i in jumps if i > previous and i >= floor),
                       None)
            if cut is None:  # no qualifying jump: node-share quantile
                cut = max(previous + 1,
                          round(len(ordered) * share / total_nodes))
            cuts.append(cut)
        self._preferred = {}
        class_index = 0
        for position, request in enumerate(ordered):
            while class_index < len(cuts) and position >= cuts[class_index]:
                class_index += 1
            nodes = class_nodes[min(class_index, len(class_nodes) - 1)]
            # feasibility bump: some instance of the preferred node class
            # must be able to serve the request alone; otherwise prefer
            # the smallest node class that can (searching both directions
            # — a big class may carry the smaller KV budget), so a request
            # validation accepted is never vetoed everywhere
            if not any(rt.can_ever_serve(request) for rt in by_class[nodes]):
                nodes = next(
                    (candidate for candidate in class_nodes
                     if any(rt.can_ever_serve(request)
                            for rt in by_class[candidate])),
                    nodes)
            self._preferred[request.request_id] = nodes

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        # small classes first: they pick up their short requests before a
        # big instance (dispatched later) sweeps the queue
        return (runtime.num_nodes,)

    def placement_ok(self, runtime: "InstanceRuntime",
                     state: "RequestState") -> bool:
        if state.swapped_on is not None:
            return state.swapped_on == runtime.instance_id
        preferred = self._preferred.get(state.request.request_id)
        if preferred is None:  # unseen request (not in the prepared trace)
            return True
        if runtime.role == "decode":
            # the size preference only ranks prefill-capable classes (see
            # prepare); a decode instance's own role gate decides what it
            # may take, and vetoing here on size would compare against a
            # scale it was never part of
            return True
        # never downward (a long prompt would stall a smaller instance);
        # upward spill is free — rank order already biases shorts to the
        # small classes whenever one is at a boundary
        return runtime.num_nodes >= preferred


class DisaggregatedRouter(Router):
    """Role matching for prefill/decode-tagged clusters.

    Fresh requests (prompt not yet computed) route to prefill-capable
    instances; a handed-off request routes to the decode instance whose
    host tier holds its KV (nobody else could resume it).  Within a role
    the least-loaded instance pulls first, so decode load spreads evenly
    across the small instances while the prefill class drains the prompt
    queue.  On a role-less cluster every instance is role-``both``, the
    role test never discriminates, and the router degenerates to
    least-loaded ordering.

    The role *constraints* themselves (a decode instance never runs a
    prefill, a prefill instance never decodes, a request whose KV lives
    on one instance is resumed only there) are enforced by the instance
    runtimes, not here — they hold under every router, so this router
    vetoes nothing and only adds the ordering that makes a disaggregated
    cluster perform.
    """

    name = "disaggregated"

    @staticmethod
    def _role_matches(runtime: "InstanceRuntime",
                      head: "RequestState") -> bool:
        if head.swapped_on is not None:
            return head.swapped_on == runtime.instance_id
        if head.prefill_remaining > 0:
            return runtime.role in ("prefill", "both")
        return runtime.role in ("decode", "both")

    def rank(self, runtime: "InstanceRuntime",
             head: Optional["RequestState"]) -> RankKey:
        match = 0 if (head is not None
                      and self._role_matches(runtime, head)) else 1
        return (match, runtime.load)


def make_router(router: Union[str, Router]) -> Router:
    """Instantiate a router by name (or pass a :class:`Router` through)."""
    if isinstance(router, Router):
        return router
    routers = {
        "round_robin": RoundRobinRouter,
        "least_loaded": LeastLoadedRouter,
        "kv_aware": KVAwareRouter,
        "class_affinity": ClassAffinityRouter,
        "disaggregated": DisaggregatedRouter,
        "prefix_aware": PrefixAwareRouter,
    }
    if router not in routers:
        raise ValueError(f"unknown router {router!r}; "
                         f"known: {', '.join(sorted(routers))}")
    return routers[router]()
