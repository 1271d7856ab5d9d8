"""Per-layer host-time attribution, recorded from outside the simulator.

:class:`LayerTracer` replaces public functions of each simulator layer with
timing wrappers for the duration of one replay and restores them afterwards.
Nothing under ``src/`` knows about it: the wrappers call the original
function with the original arguments and return its result unchanged, so a
traced replay simulates exactly what an untraced one does.

Spans are not kept one by one.  Each finished call is folded into an edge
keyed ``(function, calling function)`` holding its call count, total time
and self time (total minus the time its own wrapped callees took).  A
layer's self time is the sum over the edges of its functions; a call
*enters* a layer when its caller belongs to another layer (or to no
wrapped function at all).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.multi_node import LoopLynxSystem
from repro.memory.paged_kv import PagedKVManager
from repro.serving import engine as engine_module
from repro.serving.cluster import Router
from repro.serving.events import BucketedEventQueue
from repro.serving.instance import InstanceRuntime
from repro.serving.metrics import StreamingMetricsCollector
from repro.serving.schedulers import SchedulerPolicy
from repro.workloads import traces

from replay_workloads import prefix_token_hit_ratio

#: The layers, in reporting order.
LAYERS = (
    "workloads.traces",
    "serving.engine",
    "serving.events",
    "serving.instance",
    "serving.instance.pricing",
    "core.multi_node",
    "serving.schedulers",
    "serving.cluster",
    "memory.paged_kv",
    "serving.metrics",
)

#: PagedKVManager's public block-management surface.  ``swap_transfer_s``
#: is left out on purpose: it prices a transfer (the runtime's pricing
#: layer memoizes it) and manages no blocks.
_PAGED_KV_METHODS = (
    "blocks_needed", "holds", "table", "blocks_missing", "can_allocate",
    "allocate", "free", "match_prefix_tokens", "allocate_prefix",
    "register_prefix", "swap_out", "can_swap_in", "swap_in",
    "export_handoff", "import_handoff", "max_request_tokens", "validate",
)
_PAGED_KV_PROPERTIES = (
    "used_blocks", "free_blocks", "cached_blocks", "shared_blocks",
    "shared_block_fraction", "occupancy_fraction",
    "internal_fragmentation_fraction",
)

Edge = Tuple[str, Optional[str]]


def layer_of(function: Optional[str]) -> Optional[str]:
    """``"serving.events:push"`` -> ``"serving.events"``."""
    return None if function is None else function.split(":", 1)[0]


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class LayerTracer:
    """Install timing wrappers around each layer's public functions.

    Use as a context manager; the original attributes are restored on exit
    even when the replay raises.
    """

    def __init__(self) -> None:
        #: (function, calling function) -> [calls, total_s, self_s]
        self.edges: Dict[Edge, List[float]] = {}
        #: counters read off return values (launches, failed allocations)
        self.counts: Dict[str, int] = {
            "launches": 0, "folded_launches": 0,
            "alloc_attempts": 0, "alloc_failures": 0}
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, func: Callable[..., Any],
             observe: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """A wrapper timing every call of ``func`` as a span called
        ``name`` (``observe`` sees each return value)."""
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        # updated=(): a wrapped class must not copy its namespace over
        @functools.wraps(func, updated=())
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (name, parent[0])
                else:
                    key = (name, None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if observe is not None:
                observe(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, layer: str,
               observe: Optional[Callable[[Any], None]] = None) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            name = f"{layer}:{owner.__name__}.{attr}"
        else:  # a module
            original = getattr(owner, attr)
            name = f"{layer}:{attr}"
        if isinstance(original, property):
            replacement: Any = property(self.wrap(name, original.fget))
        else:
            replacement = self.wrap(name, original, observe)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_hierarchy(self, base: type, attrs: Tuple[str, ...],
                         layer: str) -> None:
        """Wrap ``attrs`` on ``base`` and on every subclass overriding them."""
        for cls in _subclasses(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    self._patch(cls, attr, layer)

    def _patch_stream_iter(self) -> None:
        """Time each ``next()`` on a StreamingTrace iterator: the lazy
        generator does its work there, not in ``__iter__`` itself."""
        original = traces.StreamingTrace.__iter__
        wrap = self.wrap

        def traced_iter(trace: traces.StreamingTrace) -> Any:
            step = wrap("workloads.traces:StreamingTrace.__next__",
                        original(trace).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        self._restore.append((traces.StreamingTrace, "__iter__", original))
        traces.StreamingTrace.__iter__ = traced_iter

    # ------------------------------------------------------------------
    def _observe_launch(self, launch: Any) -> None:
        if launch is not None:
            self.counts["launches"] += 1
            if launch.completes_at_s is not None:
                self.counts["folded_launches"] += 1

    def _observe_alloc(self, result: Any) -> None:
        # allocate() returns False, allocate_prefix() None, on failure
        self.counts["alloc_attempts"] += 1
        if result is None or result is False:
            self.counts["alloc_failures"] += 1

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._uninstall()

    def _install(self) -> None:
        self._patch(traces, "synthetic_azure_trace", "workloads.traces")
        self._patch(traces, "multi_turn_trace", "workloads.traces")
        self._patch_stream_iter()
        self._patch(engine_module.TokenServingEngine, "run", "serving.engine")
        for attr in ("push", "push_many", "pop"):
            self._patch(BucketedEventQueue, attr, "serving.events")
        self._patch(InstanceRuntime, "dispatch", "serving.instance",
                    self._observe_launch)
        self._patch(InstanceRuntime, "complete_step", "serving.instance")
        for attr in ("step_latency_s", "prefill_chunk_latency_s",
                     "mixed_step_latency_s", "swap_transfer_s"):
            self._patch(InstanceRuntime, attr, "serving.instance.pricing")
        for attr in ("decode_step_latency_s", "mixed_step_latency_s"):
            self._patch(LoopLynxSystem, attr, "core.multi_node")
        self._patch_hierarchy(SchedulerPolicy, ("push", "pop", "peek"),
                              "serving.schedulers")
        self._patch_hierarchy(
            Router, ("dispatch_order", "placement_ok", "handoff_target",
                     "prepare"), "serving.cluster")
        for attr in _PAGED_KV_METHODS + _PAGED_KV_PROPERTIES:
            observe = (self._observe_alloc
                       if attr in ("allocate", "allocate_prefix") else None)
            self._patch(PagedKVManager, attr, "memory.paged_kv", observe)
        self._patch(StreamingMetricsCollector, "add", "serving.metrics")
        # the engine builds records through its own module global
        self._patch(engine_module, "ServedRequest", "serving.metrics")

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float, num_requests: int,
                      result_digest: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of one traced replay.

        ``wall_s`` is the traced wall time the spans ran inside (trace
        set-up plus ``engine.run``), the base of every ``self_share``.
        """
        self_s = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        posted = 0
        for (function, caller), (calls, _, own) in self.edges.items():
            layer = layer_of(function)
            self_s[layer] += own
            if layer_of(caller) != layer:
                entries[layer] += calls
            if function.endswith(".push") and layer == "serving.events" and (
                    layer_of(caller) != layer or caller.endswith(".push_many")):
                # re-filing pushes made inside the queue are not posts
                posted += calls
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = self_s[layer] / wall_s
            out[f"{layer}.calls_per_request"] = entries[layer] / num_requests
        counts = self.counts
        launches = counts["launches"]
        out.update({
            "serving.events.posted_per_request": posted / num_requests,
            "serving.instance.launches_per_request": launches / num_requests,
            "serving.instance.folded_launch_fraction":
                counts["folded_launches"] / launches if launches else 0.0,
            "serving.instance.pricing.miss_ratio":
                (entries["core.multi_node"]
                 / entries["serving.instance.pricing"]
                 if entries["serving.instance.pricing"] else 0.0),
            "core.multi_node.evals": entries["core.multi_node"],
            "memory.paged_kv.ops_per_request":
                entries["memory.paged_kv"] / num_requests,
            "memory.paged_kv.alloc_fail_ratio":
                (counts["alloc_failures"] / counts["alloc_attempts"]
                 if counts["alloc_attempts"] else 0.0),
            "memory.paged_kv.prefix_token_hit_ratio":
                prefix_token_hit_ratio(result_digest),
            "memory.paged_kv.swap_outs": result_digest["swap_outs"],
        })
        return out

    def edge_table(self) -> List[Dict[str, Any]]:
        """The aggregated span edges, for the result file."""
        return [{"function": function, "caller": caller, "calls": calls,
                 "total_s": total, "self_s": own}
                for (function, caller), (calls, total, own)
                in sorted(self.edges.items(), key=lambda kv: -kv[1][2])]
