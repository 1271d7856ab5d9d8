"""The serving engine's event queue: one binary heap of event tuples.

The engine posts ``(time, posted, seq, kind, payload)`` tuples: step
completions and KV-handoff arrivals (arrivals lazy-merge beside the queue
and never enter it).  Pops come out sorted by the whole tuple, time first;
equal-time events are ordered by the engine's tie-break fields (the time
an event was posted, then a sequence number), which is exactly the order
the engine's golden-timestamp tests pin.

Folding and the cut keep the queue shallow: at most a few dozen events
are pending on any replay workload, so a plain ``heapq`` list is all the
structure it needs (see ``docs/performance.md``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, Iterator, List, Tuple

from repro.units import Seconds

#: An event tuple: time first, then the tie-break fields and the payload.
Event = Tuple[Any, ...]


class EventQueue:
    """Min-queue over event tuples whose first field is the time."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over all pending events in arbitrary order (invariant
        checks scan the frontier; callers must not rely on order)."""
        return iter(self._heap)

    def push(self, event: Event) -> None:
        heappush(self._heap, event)

    def push_many(self, events: Iterable[Event]) -> None:
        """Post a batch of events, each through :meth:`push`."""
        for event in events:
            self.push(event)

    def peek_time(self) -> Seconds:
        """Earliest pending event time.  Queue must be non-empty."""
        time: Seconds = self._heap[0][0]  # a typed name, not an Any return
        return time

    def pop(self) -> Event:
        """Remove and return the earliest event (ties by the tuple's
        tie-break fields); raises ``IndexError`` when empty."""
        return heappop(self._heap)


# ``replaybench/replay_tracer.py`` imports this name and wraps ``push``,
# ``push_many`` and ``pop`` through the class ``__dict__``.
BucketedEventQueue = EventQueue
