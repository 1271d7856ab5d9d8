"""Tests for the datapack, link and ring-network models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.datapack import Datapack, pack_int8_vector, unpack_int8_vector
from repro.network.link import LinkConfig, RingLink
from repro.network.ring import RingAllGather, RingNetwork


class TestDatapack:
    def test_lane_range_enforced(self):
        with pytest.raises(ValueError):
            Datapack(payload=(200,))
        pack = Datapack(payload=(-128, 127, 0))
        assert pack.num_lanes == 3
        assert pack.num_bytes == 3

    def test_pack_pads_last_datapack(self):
        vector = np.arange(40, dtype=np.int8)
        packs = pack_int8_vector(vector, lanes=32)
        assert len(packs) == 2
        assert packs[1].payload[8:] == tuple([0] * 24)

    def test_unpack_restores_vector(self):
        vector = np.arange(-20, 45, dtype=np.int8)
        packs = pack_int8_vector(vector)
        restored = unpack_int8_vector(packs, len(vector))
        assert np.array_equal(restored, vector)

    def test_unpack_respects_sequence_order(self):
        vector = np.arange(64, dtype=np.int8)
        packs = pack_int8_vector(vector)
        shuffled = list(reversed(packs))
        restored = unpack_int8_vector(shuffled, 64)
        assert np.array_equal(restored, vector)

    def test_unpack_too_short_rejected(self):
        packs = pack_int8_vector(np.arange(8, dtype=np.int8))
        with pytest.raises(ValueError):
            unpack_int8_vector(packs, 100)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, length, seed):
        rng = np.random.default_rng(seed)
        vector = rng.integers(-128, 128, size=length).astype(np.int8)
        packs = pack_int8_vector(vector, source_node=3)
        assert all(p.source_node == 3 for p in packs)
        assert np.array_equal(unpack_int8_vector(packs, length), vector)


class TestRingLink:
    def test_default_matches_paper_bandwidth(self):
        config = LinkConfig()
        assert config.bandwidth_bytes_per_s == pytest.approx(8.49e9)
        assert config.bytes_per_cycle == pytest.approx(8.49e9 / 285e6)

    def test_transfer_cycles_include_hop_latency(self):
        link = RingLink(LinkConfig(hop_latency_cycles=100), 0, 1)
        with_hop = link.transfer_cycles(1024)
        without_hop = link.transfer_cycles(1024, include_hop_latency=False)
        assert with_hop == pytest.approx(without_hop + 100)

    def test_zero_bytes_free(self):
        link = RingLink(LinkConfig(), 0, 1)
        assert link.transfer_cycles(0) == 0.0

    def test_negative_bytes_rejected(self):
        link = RingLink(LinkConfig(), 0, 1)
        with pytest.raises(ValueError):
            link.transfer_cycles(-5)

    def test_send_accounting(self):
        link = RingLink(LinkConfig(), 0, 1)
        link.send(100)
        link.send(50)
        assert link.bytes_sent == 150
        assert link.messages == 2

    def test_datapack_cycles(self):
        link = RingLink(LinkConfig(), 0, 1)
        assert link.datapack_cycles(4) == pytest.approx(link.transfer_cycles(128))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            LinkConfig(hop_latency_cycles=-1)


class TestRingNetwork:
    def test_single_node_needs_no_sync(self):
        ring = RingNetwork(1)
        assert ring.rounds() == 0
        assert ring.allgather_cycles(1024) == 0.0
        result = ring.synchronize(1024, compute_cycles=100)
        assert result.exposed_cycles == 0.0
        assert result.total_cycles == 100

    def test_rounds_are_nodes_minus_one(self):
        assert RingNetwork(4).rounds() == 3
        assert RingNetwork(2).rounds() == 1

    def test_allgather_cycles_grow_with_nodes(self):
        two = RingNetwork(2).allgather_cycles(4096)
        four = RingNetwork(4).allgather_cycles(4096)
        assert four > two

    def test_hiding_reduces_exposed_cycles(self):
        ring_hidden = RingNetwork(4)
        ring_exposed = RingNetwork(4)
        hidden = ring_hidden.synchronize(4096, compute_cycles=50_000, blocks=8,
                                         hide_transfers=True)
        exposed = ring_exposed.synchronize(4096, compute_cycles=50_000, blocks=8,
                                           hide_transfers=False)
        assert hidden.exposed_cycles < exposed.exposed_cycles
        assert exposed.exposed_cycles == pytest.approx(
            ring_exposed.allgather_cycles(4096))

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError):
            RingNetwork(0)


class TestRingAllGather:
    def test_all_buffers_converge(self):
        gather = RingAllGather(num_nodes=4, subvector_len=16)
        subvectors = [np.full(16, i + 1, dtype=np.int8) for i in range(4)]
        results = gather.run(subvectors)
        assert gather.buffers_consistent()
        expected = np.concatenate(subvectors)
        for result in results:
            assert np.array_equal(result, expected)

    def test_offsets_follow_origin_node(self):
        gather = RingAllGather(num_nodes=3, subvector_len=4)
        subvectors = [np.arange(4, dtype=np.int8) + 10 * i for i in range(3)]
        results = gather.run(subvectors)
        assert np.array_equal(results[0][4:8], subvectors[1])
        assert np.array_equal(results[2][8:12], subvectors[2])

    def test_wrong_number_of_subvectors_rejected(self):
        gather = RingAllGather(2, 4)
        with pytest.raises(ValueError):
            gather.run([np.zeros(4, dtype=np.int8)])

    def test_wrong_shape_rejected(self):
        gather = RingAllGather(2, 4)
        with pytest.raises(ValueError):
            gather.run([np.zeros(4, dtype=np.int8), np.zeros(5, dtype=np.int8)])

    def test_single_node_gather_is_identity(self):
        gather = RingAllGather(1, 8)
        vector = np.arange(8, dtype=np.int8)
        results = gather.run([vector])
        assert np.array_equal(results[0], vector)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_gather_property(self, nodes, length, seed):
        rng = np.random.default_rng(seed)
        gather = RingAllGather(nodes, length)
        subvectors = [rng.integers(-128, 128, size=length).astype(np.int8)
                      for _ in range(nodes)]
        results = gather.run(subvectors)
        expected = np.concatenate(subvectors)
        assert gather.buffers_consistent()
        assert all(np.array_equal(r, expected) for r in results)
