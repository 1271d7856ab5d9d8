"""Differential test: paged fold growth against the per-step walker.

A decode fold on a paged pool claims its blocks and sums its KV aggregates
in :meth:`PagedRuntime._replay_fold_growth`: one batched
:meth:`PagedKVManager.grow_tables` and one closed-form sum per run between
change points.  This module keeps the walker that did the same job step by
step, with one :meth:`PagedKVManager.allocate` per claimed block, as the
reference, and checks the two against each other on random fold shapes:

* block sizes 1–32, members near the context window, claims cut short by
  a small free list, several pricing segments per fold, prefix sharing on
  and off (with shared and reclaimable prefix blocks in the pool);
* each fold truncated at a random step, as a cut leaves it.

For every shape the occupancy time and the peak are bit-equal, the
fragmentation time agrees within 1e-12 relative, and the pools end
identical: block tables, free-list order, refcounts, the prefix index,
``table_blocks``, ``device_cached_tokens`` and ``peak_used_blocks``.
"""

import copy
import math
import random

import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.errors import InvariantError
from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.sanitize import check_kv_invariants
from repro.serving.instance import PagedRuntime, RequestState
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import Request

SEEDS = range(150)
SYSTEM = LoopLynxSystem.paper_configuration(num_nodes=1)


def reference_window(kv, members, kmax):
    """The growth window as a sorted list of every ``(step, member)``
    claim, cut at the first step the free list cannot cover."""
    bs = kv.block_size_tokens
    max_seq = kv.layout.max_seq_len
    claims = []
    for i, s in enumerate(members):
        c = s.prefill_done + s.decode_done
        held = len(kv.table(s.request.request_id).device_blocks)
        last = min(kmax, max_seq - c) - 1
        claims.extend((j, i) for j in range(held * bs - c, last + 1, bs))
    claims.sort()
    free = kv.free_list_blocks
    if len(claims) > free:
        kmax = claims[free][0]
        del claims[free:]
        while claims and claims[-1][0] >= kmax:
            claims.pop()
    return kmax, claims


def reference_replay(kv, members, claims, segments, steps):
    """The per-step walker: integer counters stepped through the fold,
    then one allocate per claim in the chain's order."""
    bs = kv.block_size_tokens
    max_seq = kv.layout.max_seq_len
    delta = {}
    for j, _ in claims:
        if j >= steps:
            break
        delta.setdefault(j, [0, 0])[0] += 1
    for s in members:
        c = s.prefill_done + s.decode_done
        first = max(1, kv.table(s.request.request_id).cached_tokens - c)
        stop = min(max_seq - c, steps)
        if first < stop:
            delta.setdefault(first, [0, 0])[1] += 1
            if stop < steps:
                delta.setdefault(stop, [0, 0])[1] -= 1
    used = kv.used_blocks
    blocks = kv.table_blocks
    cached = kv.device_cached_tokens
    growing = 0
    used_time = 0.0
    frag_time = 0.0
    j = 0
    for d, n, _ in segments:
        used_sum = 0
        frag_sum = 0.0
        for _ in range(n):
            if j:
                change = delta.get(j)
                if change is not None:
                    used += change[0]
                    blocks += change[0]
                    growing += change[1]
                cached += growing
            used_sum += used
            frag_sum += 1.0 - cached / (blocks * bs)
            j += 1
        used_time += used_sum * d
        frag_time += frag_sum * d
    grows = [(members[i], j + 1) for j, i in claims if j < steps]
    grows += [(s, steps) for s in members]
    for s, ahead in grows:
        target = min(s.prefill_done + s.decode_done + ahead, max_seq)
        reference_allocate(kv, s.request.request_id, target)
    total = kv.total_blocks
    return used_time / total, frag_time, used / total


def reference_allocate(kv, request_id, target_tokens):
    """One growth the way allocate made it: one free-list pop per block
    (the fold never reclaims a cached prefix block), then the cached
    positions and the peak."""
    table = kv.table(request_id)
    missing = kv.blocks_needed(target_tokens) - len(table.device_blocks)
    assert missing <= kv.free_list_blocks
    for _ in range(missing):
        block = kv._free.pop()
        if kv.prefix_sharing:
            kv._ref[block] = 1
        table.device_blocks.append(block)
    kv.table_blocks += max(0, missing)
    if target_tokens > table.cached_tokens:
        kv.device_cached_tokens += target_tokens - table.cached_tokens
        table.cached_tokens = target_tokens
    kv.peak_used_blocks = max(kv.peak_used_blocks, kv.used_blocks)


def _pool_state(kv):
    return (
        {rid: (list(t.device_blocks), t.host_blocks, t.cached_tokens)
         for rid, t in kv._tables.items()},
        list(kv._free), list(kv._ref.items()), list(kv._reclaimable),
        dict(kv._prefix_index), kv._multi_ref, kv.table_blocks,
        kv.device_cached_tokens, kv.peak_used_blocks,
    )


def _random_fold(rng, prefix_sharing):
    """A pool and a batch just past a decode fold's first step (every
    member already grown to its next position), as a launch leaves them,
    plus the fold's step bound before the growth window."""
    bs = rng.randint(1, 32)
    max_seq = bs * rng.randint(2, 12) + rng.randrange(bs)
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=max_seq, num_nodes=1)
    num_members = rng.randint(1, 8)
    per_member = -(-max_seq // bs)
    # room for the shared prompt and one member at full context
    pool_blocks = 2 * per_member + rng.randint(
        0, (num_members - 1) * per_member + 4)
    kv = PagedKVManager(
        layout, block_size_tokens=bs,
        budget_bytes=pool_blocks * bs * layout.bytes_per_token_per_node(),
        prefix_sharing=prefix_sharing)
    # prompt 0 seeds a registered prefix the members may share; freeing it
    # leaves the blocks no member reuses in the reclaimable tier
    prompt = tuple(range(rng.randint(bs, max_seq)))
    if prefix_sharing and kv.allocate_prefix(0, len(prompt), prompt) \
            is not None:
        kv.register_prefix(0, prompt)
    members = []
    for rid in range(1, num_members + 1):
        context = rng.choice((rng.randint(1, max_seq - 1),
                              rng.randint(max(1, max_seq - 3 * bs),
                                          max_seq)))
        prefill = rng.randint(1, context)
        state = RequestState(Request(
            rid, 0.0, Scenario(prefill, rng.randint(context - prefill + 1,
                                                    context - prefill + 400)),
            prompt_token_ids=prompt[:prefill] if prefill <= len(prompt)
            else None))
        state.prefill_done = prefill
        state.decode_done = context - prefill
        target = min(context + 1, max_seq)
        token_ids = state.request.prompt_token_ids
        if prefix_sharing and token_ids:
            ok = kv.allocate_prefix(rid, target, token_ids) is not None
        else:
            ok = kv.allocate(rid, target)
        if not ok:
            break
        members.append(state)
    if prefix_sharing:
        kv.free(0)
    kmax = min(s.decode_len - s.decode_done for s in members) \
        if members else 0
    return kv, members, rng.randint(1, kmax) if kmax else 0


def _random_segments(rng, steps):
    """``steps`` split into pricing segments ``[duration, count, start]``;
    a segment may be empty, as a transfer-lengthened first step leaves
    one."""
    segments = []
    left = steps
    t = rng.uniform(0.0, 100.0)
    while left:
        n = rng.randint(0 if segments else 1, left)
        d = rng.uniform(1e-4, 5e-2)
        segments.append([d, n, t])
        for _ in range(n):
            t += d
        left -= n
    return segments


@pytest.mark.parametrize("prefix_sharing", [False, True],
                         ids=["sharing-off", "sharing-on"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fold_growth_matches_the_per_step_walker(seed, prefix_sharing):
    rng = random.Random(seed * 2 + int(prefix_sharing))
    kv, members, kmax = _random_fold(rng, prefix_sharing)
    runtime = PagedRuntime(0, SYSTEM, kv)
    bound, claims = runtime._fold_growth_window(members, kmax)
    assert (bound, claims) == reference_window(kv, members, kmax)
    if bound < 1:
        return
    # a cut keeps the fold's first steps
    steps = rng.randint(1, bound) if rng.random() < 0.5 else bound
    segments = _random_segments(rng, steps)
    ref_kv, ref_members = copy.deepcopy((kv, members))
    want = reference_replay(ref_kv, ref_members, claims, segments, steps)
    got = runtime._replay_fold_growth(members, claims, segments, steps)
    assert got[0] == want[0]  # occupancy time: integer sums, bit-equal
    assert math.isclose(got[1], want[1], rel_tol=1e-12, abs_tol=0.0)
    assert got[2] == want[2]
    assert _pool_state(kv) == _pool_state(ref_kv)
    check_kv_invariants(kv)


def test_sequence_count():
    """≥300 random fold shapes per run, split over sharing off and on."""
    assert len(SEEDS) * 2 >= 300


def _pool(prefix_sharing=False, blocks=8, bs=4):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=64, num_nodes=1)
    return PagedKVManager(
        layout, block_size_tokens=bs,
        budget_bytes=blocks * bs * layout.bytes_per_token_per_node(),
        prefix_sharing=prefix_sharing)


@pytest.mark.parametrize("prefix_sharing", [False, True])
def test_claims_come_off_the_free_list_in_claim_order(prefix_sharing):
    batched, single = _pool(prefix_sharing), _pool(prefix_sharing)
    for kv in (batched, single):
        assert kv.allocate(1, 3) and kv.allocate(2, 4)
    batched.grow_tables([2, 1, 2], [(1, 8), (2, 12)])
    for rid, target in ((2, 5), (1, 5), (2, 9), (1, 8), (2, 12)):
        reference_allocate(single, rid, target)
    assert _pool_state(batched) == _pool_state(single)


def test_claims_past_the_free_list_raise():
    kv = _pool(blocks=3)
    assert kv.allocate(1, 4)
    before = _pool_state(kv)
    with pytest.raises(InvariantError, match="overrun the free list"):
        kv.grow_tables([1, 1, 1], [(1, 16)])
    assert _pool_state(kv) == before


def test_targets_past_the_claimed_blocks_raise():
    kv = _pool()
    assert kv.allocate(1, 4)
    with pytest.raises(InvariantError, match="do not cover"):
        kv.grow_tables([1], [(1, 9)])
