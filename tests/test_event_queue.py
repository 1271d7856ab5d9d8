"""EventQueue: the engine's event heap, checked against ``heapq``.

Any interleaving of pushes and pops must produce the pop sequence a
binary heap over the same tuples would: sorted by the whole tuple, equal
times broken by the sequence number.  ``push_many`` must post each event
through ``push``, because the replay tracer counts posts on ``push``.
"""

import heapq
import random

import pytest

from repro.serving.events import EventQueue


def _drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


def _random_events(rng, n, *, near_sorted=True):
    """Engine-shaped stream: mostly near-future events, a thin far tail."""
    events = []
    clock = 0.0
    for seq in range(n):
        if near_sorted:
            clock += rng.expovariate(4.0)
            horizon = rng.expovariate(1.0 if rng.random() < 0.9 else 0.01)
            t = clock + horizon
        else:
            t = rng.uniform(0.0, 1000.0)
        events.append((t, seq, rng.randrange(3), None))
    return events


class TestOrderingAgainstHeap:
    @pytest.mark.parametrize("seed", range(8))
    def test_push_all_then_drain_matches_heap(self, seed):
        rng = random.Random(seed)
        events = _random_events(rng, 500, near_sorted=bool(seed % 2))
        queue = EventQueue()
        for event in events:
            queue.push(event)
        assert len(queue) == len(events)
        assert _drain(queue) == sorted(events)

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_push_pop_matches_heap(self, seed):
        """The engine's access pattern: pops interleave with pushes whose
        times are at/ahead of the pop frontier."""
        rng = random.Random(1000 + seed)
        queue = EventQueue()
        heap = []
        seq = 0
        clock = 0.0
        for _ in range(2000):
            if heap and (rng.random() < 0.5 or len(heap) > 64):
                expected = heapq.heappop(heap)
                assert queue.peek_time() == expected[0]
                assert queue.pop() == expected
                clock = expected[0]
            else:
                t = clock + rng.expovariate(2.0 if rng.random() < 0.9
                                            else 0.02)
                event = (t, seq, rng.randrange(3), None)
                seq += 1
                heapq.heappush(heap, event)
                queue.push(event)
        assert _drain(queue) == sorted(heap)

    def test_equal_time_events_pop_in_sequence_order(self):
        queue = EventQueue()
        queue.push_many([(5.0, seq, 0, None) for seq in (4, 1, 3, 0, 2)])
        assert [e[1] for e in _drain(queue)] == [0, 1, 2, 3, 4]

    def test_push_behind_the_frontier_still_sorts(self):
        """An event priced behind the last pop (same-instant handoff
        arrivals) must come out before later events regardless."""
        queue = EventQueue()
        for seq, t in enumerate([1.0, 2.0, 3.0, 4.0, 50.0]):
            queue.push((t, seq, 0, None))
        assert queue.pop()[0] == 1.0
        assert queue.pop()[0] == 2.0
        queue.push((1.5, 99, 0, None))
        assert [e[0] for e in _drain(queue)] == [1.5, 3.0, 4.0, 50.0]


class TestIntrospection:
    def test_len_bool_and_iter(self):
        queue = EventQueue()
        assert not queue
        events = [(0.05, 0, 0, None), (0.15, 1, 0, None), (99.0, 2, 0, None)]
        queue.push_many(events)
        assert queue and len(queue) == 3
        assert sorted(iter(queue)) == sorted(events)
        assert _drain(queue) == sorted(events)
        assert len(queue) == 0 and not queue

    def test_push_many_posts_through_push(self):
        pushed = []

        class Recording(EventQueue):
            def push(self, event):
                pushed.append(event)
                super().push(event)

        events = [(1.0, 0, 0, None), (1.0, 1, 0, None)]
        Recording().push_many(events)
        assert pushed == events

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
