"""Two-level bucketed event queue for the serving engine's main loop.

The engine's event loop is dominated by pushes and pops of
``(time, posted, seq, kind, payload)`` tuples.  A single global binary
heap pays ``O(log n)`` per operation with ``n`` = every pending event in the
simulation.  But the event stream of a serving simulation is strongly
*near-sorted*: almost every event posted lands within a few step
durations of the current clock, with a thin tail (KV handoffs, far-out
arrivals folded into the loop elsewhere) landing further out.

:class:`BucketedEventQueue` exploits that shape with a calendar-queue
style split:

* a **near-future ring** of ``nb`` time buckets, each a tiny min-heap
  holding only the events that fall inside its bucket window — pushes
  into the ring cost ``O(log k)`` with ``k`` = bucket occupancy, which
  is a handful of events instead of the whole frontier;
* a **far heap** for events beyond the ring horizon (and for everything
  while the queue is still auto-tuning its bucket width).

Ordering contract — identical to ``heapq`` over the same tuples: pops
come out sorted by the whole tuple, time first.  Equal-time events are
ordered by the engine's tie-break fields (the time an event was posted,
then a sequence number), which is exactly the order the engine's
golden-timestamp tests pin.  The queue is a drop-in
replacement: the replay is bit-identical to the heap version.

Bucket width is auto-tuned from the first events observed (a deterministic
function of simulated values only — no wall-clock, no RNG): until enough
spread has been seen, the queue degenerates to a plain heap, which is
always correct.

Invariant (why the ring's ``index % nb`` slot mapping never collides):
every ring event satisfies ``bucket(t) ∈ [base, base + nb)`` at push
time, where ``base`` is the current consumption bucket.  ``base`` only
advances past *empty* buckets, and pushes gate anything at or beyond
``base + nb`` into the far heap, so at any instant all ring events live
inside one window of width ``nb`` and each slot holds exactly one
bucket's worth of events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, Iterator, List, Optional, Tuple

#: An event tuple: time first, then the tie-break fields and the payload.
Event = Tuple[Any, ...]

# Number of distinct event times buffered before the bucket width is
# derived from their spread; until then the queue runs in plain-heap
# mode (always correct, just not accelerated).
_WARMUP_EVENTS = 16

# The ring covers nb * width seconds of simulated future; with width
# tuned to roughly one step duration this spans several steps ahead,
# which is where nearly all step-completion events land.
_DEFAULT_RING_BUCKETS = 256


class BucketedEventQueue:
    """Min-queue over event tuples whose first field is the time."""

    __slots__ = (
        "_nb",
        "_ring",
        "_base",
        "_ring_count",
        "_far",
        "_width",
        "_inv_width",
        "_warmup_times",
    )

    def __init__(
        self,
        width_s: Optional[float] = None,
        ring_buckets: int = _DEFAULT_RING_BUCKETS,
    ) -> None:
        if ring_buckets < 2:
            raise ValueError("ring_buckets must be >= 2")
        self._nb = ring_buckets
        self._ring: List[List[Event]] = [[] for _ in range(ring_buckets)]
        self._base = 0
        self._ring_count = 0
        self._far: List[Event] = []
        self._width = 0.0
        self._inv_width = 0.0
        # distinct event times seen while auto-tuning; None once engaged
        self._warmup_times: Optional[List[float]] = []
        if width_s is not None:
            if width_s <= 0.0:
                raise ValueError("width_s must be positive")
            self._width = width_s
            self._inv_width = 1.0 / width_s
            self._warmup_times = None

    # ------------------------------------------------------------------
    # introspection

    def __len__(self) -> int:
        return self._ring_count + len(self._far)

    def __bool__(self) -> bool:
        return (self._ring_count + len(self._far)) > 0

    def __iter__(self) -> Iterator[Event]:
        """Iterate over all pending events in arbitrary order.

        Used by invariant checks that scan the frontier (for example
        counting in-flight handoffs); callers must not rely on order.
        """
        for slot in self._ring:
            yield from slot
        yield from self._far

    # ------------------------------------------------------------------
    # internals

    def _engage(self) -> None:
        """Derive the bucket width from the warm-up sample and activate
        the ring, re-filing any buffered events."""
        times = self._warmup_times
        assert times is not None  # mypy narrowing  # repro-lint: disable=R005
        span = max(times) - min(times)
        if span <= 0.0:
            return  # degenerate stream so far; stay in heap mode
        # Aim the window so the warm-up spread (≈ one step-duration
        # frontier) occupies a small prefix of the ring, leaving most of
        # the ring for the near future.
        width = span / float(_WARMUP_EVENTS)
        self._width = width
        self._inv_width = 1.0 / width
        self._warmup_times = None
        pending = self._far
        self._far = []
        if pending:
            self._base = int(pending[0][0] * self._inv_width)
        for event in pending:
            self.push(event)

    # ------------------------------------------------------------------
    # core operations

    def push(self, event: Event) -> None:
        inv_width = self._inv_width
        if inv_width == 0.0:
            heappush(self._far, event)
            times = self._warmup_times
            if times is not None:
                t = event[0]
                if t not in times:
                    times.append(t)
                    if len(times) >= _WARMUP_EVENTS:
                        self._engage()
            return
        base = self._base
        bucket = int(event[0] * inv_width)
        if bucket >= base + self._nb:
            heappush(self._far, event)
            return
        if bucket < base:
            # The event's natural bucket has already been consumed (its
            # time is at/behind the frontier); file it in the current
            # bucket, whose internal heap restores exact ordering.
            bucket = base
        heappush(self._ring[bucket % self._nb], event)
        self._ring_count += 1

    def push_many(self, events: Iterable[Event]) -> None:
        """Post a batch of events.

        Same-timestamp batches (the common case at a step boundary:
        the step-completion plus any KV-handoff arrivals priced at the
        same instant) resolve their bucket once and append cheaply.
        """
        for event in events:
            self.push(event)

    def peek_time(self) -> float:
        """Earliest pending event time.  Queue must be non-empty."""
        far = self._far
        if self._ring_count:
            base, nb, ring = self._base, self._nb, self._ring
            slot = ring[base % nb]
            while not slot:
                base += 1
                slot = ring[base % nb]
            self._base = base
            t = slot[0][0]
            if far and far[0][0] < t:
                return far[0][0]
            return t
        return far[0][0]

    def pop(self) -> Event:
        """Remove and return the earliest event (ties by sequence)."""
        far = self._far
        if self._ring_count:
            base, nb, ring = self._base, self._nb, self._ring
            slot = ring[base % nb]
            while not slot:
                base += 1
                slot = ring[base % nb]
            self._base = base
            if far and far[0] < slot[0]:
                return heappop(far)
            self._ring_count -= 1
            return heappop(slot)
        if far:
            return heappop(far)
        raise IndexError("pop from an empty BucketedEventQueue")
