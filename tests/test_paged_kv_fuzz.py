"""Randomized property tests for :class:`PagedKVManager`.

Each test case drives one seeded random sequence of operations —
allocate / allocate_prefix / grow / free / register_prefix / swap_out /
swap_in / export_handoff→import_handoff / a fold's batched grow_tables —
against a pair of pools (so handoffs cross pools, as on a disaggregated
cluster) and a lightweight reference model.  A swap-in and a batched
claim must hand out blocks in the order one take per block would, and the
block-accounting invariants are checked after *every* operation:

* no block is simultaneously free and in a table (and never in two tiers
  at once: free list, reclaimable cache, live tables are disjoint);
* ``used_blocks + free_blocks == total_blocks`` and the three tiers
  partition the physical pool exactly;
* with sharing on, every block's refcount equals the number of block
  tables referencing it (and ``shared_blocks`` counts the ≥2 ones);
* freeing or handing off a request never releases a block another
  request still holds;
* the running counters behind ``internal_fragmentation_fraction`` give
  exactly the value a rescan of every block table gives.

The whole battery runs with prefix sharing both off (the historical
private-blocks manager) and on (hash-indexed reuse + copy-on-write), 100
seeds each — ≥200 distinct op sequences per CI run.
"""

import random

import pytest

from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.sanitize import check_kv_invariants

BLOCK_SIZE = 4
POOL_BLOCKS = 24
MAX_SEQ = 256
OPS_PER_SEQUENCE = 60
SEEDS = range(100)

#: Shared prompt vocabularies: prompts drawn from the same family share a
#: prefix, which is what exercises matching, refcounts and COW.
FAMILIES = 4


def _manager(prefix_sharing):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=MAX_SEQ, num_nodes=2)
    budget = POOL_BLOCKS * BLOCK_SIZE * layout.bytes_per_token_per_node()
    return PagedKVManager(layout, block_size_tokens=BLOCK_SIZE,
                          budget_bytes=budget,
                          prefix_sharing=prefix_sharing)


def check_invariants(manager):
    """The four pinned invariants (plus index consistency), white-box.

    PR 8 promoted the checker itself into the library —
    :func:`repro.sanitize.check_kv_invariants` — so sanitized engine runs
    apply exactly what this battery pins; the fuzz harness now drives the
    promoted checker (a violation surfaces as ``SanitizerError``)."""
    check_kv_invariants(manager)


def _fragmentation_by_rescan(manager):
    """``internal_fragmentation_fraction`` recomputed from the block
    tables (the manager keeps running counters instead)."""
    allocated_tokens = sum(len(t.device_blocks)
                           for t in manager._tables.values()) * BLOCK_SIZE
    if allocated_tokens == 0:
        return 0.0
    cached = sum(t.cached_tokens for t in manager._tables.values()
                 if not t.is_swapped)
    return 1.0 - cached / allocated_tokens


def _blocks_held_by_others(manager, request_id):
    """Device blocks any *other* request's table references."""
    held = set()
    for rid, table in manager._tables.items():
        if rid != request_id:
            held.update(table.device_blocks)
    return held


def _prompt_ids(rng):
    """A prompt from one of a few shared families: a common family prefix
    (drives matches and refcounts) plus an optional divergent tail (drives
    partial matches and copy-on-write)."""
    family = rng.randrange(FAMILIES)
    prefix_len = rng.randint(1, 10 * BLOCK_SIZE)
    ids = [family * 100_000 + i for i in range(prefix_len)]
    if rng.random() < 0.5:
        tail = rng.randint(1, 3 * BLOCK_SIZE)
        ids += [900_000 + rng.randrange(1_000_000) for _ in range(tail)]
    return tuple(ids)


def _take_order(manager, count):
    """The blocks ``count`` single-block takes would hand out: the free
    list's tail, last first, then reclaimable cached blocks, oldest
    first."""
    order = manager._free[::-1][:count]
    return order + list(manager._reclaimable)[:count - len(order)]


class Reference:
    """Minimal mirror of the documented per-request contract: which pool
    holds each request, whether it is swapped, and its cached-token floor
    (sharing can only raise ``cached_tokens``, never lower it)."""

    def __init__(self):
        self.state = {}  # rid -> [pool_index, swapped, cached_floor]

    def check(self, managers):
        for rid, (pool, swapped, floor) in self.state.items():
            manager = managers[pool]
            assert manager.holds(rid)
            table = manager.table(rid)
            assert table.is_swapped == swapped
            assert table.cached_tokens >= floor
            if not swapped:
                assert len(table.device_blocks) * manager.block_size_tokens \
                    >= table.cached_tokens
        for pool, manager in enumerate(managers):
            for rid in manager._tables:
                assert rid in self.state and self.state[rid][0] == pool
            assert (manager.internal_fragmentation_fraction
                    == _fragmentation_by_rescan(manager))
            # every call that raises the used count updates the peak
            assert manager.peak_used_blocks >= manager.used_blocks


@pytest.mark.parametrize("prefix_sharing", [False, True],
                         ids=["sharing-off", "sharing-on"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_op_sequences(seed, prefix_sharing):
    rng = random.Random(seed * 2 + int(prefix_sharing))
    managers = [_manager(prefix_sharing), _manager(prefix_sharing)]
    reference = Reference()
    prompts = {}  # rid -> token ids
    next_rid = 0

    def live(predicate):
        matches = [rid for rid, s in reference.state.items() if predicate(s)]
        return rng.choice(matches) if matches else None

    for _ in range(OPS_PER_SEQUENCE):
        op = rng.choice(("new", "new", "new", "grow", "grow", "free", "free",
                         "register", "swap_out", "swap_in", "handoff",
                         "claim"))
        if op == "new":
            pool = rng.randrange(2)
            manager = managers[pool]
            rid = next_rid
            ids = _prompt_ids(rng)
            target = len(ids)
            before_free = manager.free_blocks
            if prefix_sharing:
                matched = manager.allocate_prefix(rid, target, ids)
                ok = matched is not None
            else:
                ok = manager.allocate(rid, target)
                matched = 0 if ok else None
            if ok:
                next_rid += 1
                prompts[rid] = ids
                reference.state[rid] = [pool, False, target]
                assert (matched or 0) <= max(0, len(ids) - 1)
            else:
                # all-or-nothing: a refused allocation has no side effects
                assert not manager.holds(rid)
                assert manager.free_blocks == before_free
        elif op == "grow":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool, _, floor = reference.state[rid]
            manager = managers[pool]
            target = min(manager.table(rid).cached_tokens
                         + rng.randint(1, 2 * BLOCK_SIZE), MAX_SEQ)
            if manager.allocate(rid, target):
                reference.state[rid][2] = max(floor, target)
        elif op == "free":
            rid = live(lambda s: True)
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            others = _blocks_held_by_others(manager, rid)
            released = manager.free(rid)
            assert released >= 0
            # invariant 4: nothing another request holds was released
            assert not others & set(manager._free)
            assert not others & set(manager._reclaimable)
            for table in manager._tables.values():
                assert others >= others & set(table.device_blocks)
            del reference.state[rid]
        elif op == "register":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            managers[pool].register_prefix(rid, prompts[rid])
        elif op == "swap_out":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            if not manager.table(rid).device_blocks:
                continue
            others = _blocks_held_by_others(manager, rid)
            manager.swap_out(rid)
            assert not others & set(manager._free)
            reference.state[rid][1] = True
        elif op == "swap_in":
            rid = live(lambda s: s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            manager = managers[pool]
            if manager.can_swap_in(rid):
                # the whole table comes back in one pass, in the order one
                # take per block would give: free list first (its tail),
                # then the oldest reclaimable cached blocks
                needed = manager.table(rid).host_blocks
                expected = _take_order(manager, needed)
                manager.swap_in(rid)
                assert manager.table(rid).device_blocks == expected
                reference.state[rid][1] = False
            else:
                with pytest.raises(RuntimeError):
                    manager.swap_in(rid)
        elif op == "claim":
            # a fold's batched growth: blocks off the free list only, in
            # claim order, then every target's cached positions raised
            pool = rng.randrange(2)
            manager = managers[pool]
            rids = [rid for rid, s in reference.state.items()
                    if s[0] == pool and not s[1]]
            if not rids:
                continue
            rids = rng.sample(rids, min(len(rids), 3))
            count = rng.randint(0, min(manager.free_list_blocks, 6))
            claimants = [rng.choice(rids) for _ in range(count)]
            expected = {rid: list(manager.table(rid).device_blocks)
                        for rid in rids}
            for rid, block in zip(claimants, _take_order(manager, count)):
                expected[rid].append(block)
            targets = []
            for rid in rids:
                cover = min(len(expected[rid]) * BLOCK_SIZE, MAX_SEQ)
                cached = manager.table(rid).cached_tokens
                targets.append((rid, rng.randint(min(cached, cover), cover)))
            manager.grow_tables(claimants, targets)
            for rid, target in targets:
                assert manager.table(rid).device_blocks == expected[rid]
                assert manager.table(rid).cached_tokens >= target
                reference.state[rid][2] = max(reference.state[rid][2],
                                              target)
        elif op == "handoff":
            rid = live(lambda s: not s[1])
            if rid is None:
                continue
            pool = reference.state[rid][0]
            source = managers[pool]
            if not source.table(rid).device_blocks:
                continue
            others = _blocks_held_by_others(source, rid)
            _, cached_tokens, _ = source.export_handoff(rid)
            assert not others & set(source._free)
            assert not others & set(source._reclaimable) or prefix_sharing
            assert not source.holds(rid)
            target = managers[1 - pool]
            target.import_handoff(rid, cached_tokens)
            reference.state[rid] = [1 - pool, True, 0]
        for manager in managers:
            check_invariants(manager)
        reference.check(managers)

    # drain: freeing everything returns the pool to a clean state
    for rid in list(reference.state):
        pool = reference.state[rid][0]
        managers[pool].free(rid)
        del reference.state[rid]
        for manager in managers:
            check_invariants(manager)
    for manager in managers:
        assert manager.used_blocks == 0
        assert manager.free_blocks == manager.total_blocks
        if not prefix_sharing:
            assert len(manager._free) == manager.total_blocks


def test_sequence_count_meets_ci_floor():
    """The parametrization above is the CI contract: ≥200 randomized op
    sequences per run, split evenly across sharing off/on."""
    assert len(SEEDS) * 2 >= 200
