"""Tests for the Chord substrate and the T-Chord bootstrap."""

from __future__ import annotations

import pytest

from repro.core import BootstrapConfig, IDSpace
from repro.overlays import (
    ChordBootstrapSimulation,
    ChordNetwork,
    ChordRouter,
    perfect_fingers,
)
from repro.overlays.chord import successor_of
from repro.simulator import RandomSource

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


class TestSuccessorOf:
    def test_basic(self):
        ids = [10, 20, 30]
        assert successor_of(ids, 15) == 20
        assert successor_of(ids, 20) == 20
        assert successor_of(ids, 31) == 10  # wraps

    def test_single(self):
        assert successor_of([5], 99) == 5


class TestPerfectFingers:
    def test_small_ring(self, space):
        ids = sorted([100, 2**20, 2**40, 2**63])
        fingers = perfect_fingers(space, ids, 100)
        # Finger for exponent 19 targets 100 + 2^19 < 2^20 -> 2^20.
        assert fingers[19] == 2**20
        # Exponent 63 wraps past everything back to ... successor of
        # 100 + 2^63 which is > 2^63 -> wraps to 100?? no: 100+2^63 is
        # within the space; successor among ids is 100 (wrap).
        assert 63 not in fingers or fingers[63] != 100

    def test_excludes_self_pointers(self, space):
        ids = [10, 20]
        fingers = perfect_fingers(space, ids, 10)
        assert all(f != 10 for f in fingers.values())

    def test_low_fingers_are_successor(self, space):
        rng = RandomSource(5).derive("x")
        ids = sorted(rng.getrandbits(64) for _ in range(20))
        own = ids[3]
        succ = ids[4]
        fingers = perfect_fingers(space, ids, own)
        # Small exponents (gap smaller than successor distance) must
        # point at the immediate successor.
        assert fingers[0] == succ


class TestChordRouterIdeal:
    @pytest.fixture(scope="class")
    def network(self):
        space = IDSpace()
        rng = RandomSource(9).derive("ids")
        ids = [rng.getrandbits(64) for _ in range(64)]
        return ChordNetwork.ideal(space, ids)

    def test_lookup_resolves_successor(self, network):
        space = IDSpace()
        rng = RandomSource(10).derive("keys")
        ids = sorted(n for n in network._routers)
        stats = network.lookup_many(
            (space.random_id(rng) for _ in range(200)),
            (rng.choice(ids) for _ in range(200)),
        )
        assert stats.success_rate == 1.0
        # O(log N) hops: log2(64) = 6; allow slack.
        assert stats.mean_hops <= 8

    def test_responsible_is_key_successor(self, network):
        space = IDSpace()
        rng = RandomSource(11).derive("keys")
        ids = sorted(network._routers)
        for _ in range(30):
            key = space.random_id(rng)
            assert network.responsible_for(key) == successor_of(ids, key)

    def test_empty_rejected(self, space):
        with pytest.raises(ValueError):
            ChordNetwork(space, {})


class TestChordRouterUnit:
    def test_deliver_when_key_in_own_span(self, space):
        router = ChordRouter(
            space, 100, successors=[200], fingers={}, predecessor=50
        )
        assert router.next_hop(75) is None  # (50, 100]
        assert router.next_hop(100) is None

    def test_forward_to_successor(self, space):
        router = ChordRouter(
            space, 100, successors=[200], fingers={}, predecessor=50
        )
        assert router.next_hop(150) == 200

    def test_closest_preceding_finger(self, space):
        router = ChordRouter(
            space,
            100,
            successors=[200],
            fingers={10: 1000, 14: 90000},
            predecessor=50,
        )
        # Key far away: take the finger with most progress short of it.
        assert router.next_hop(100000) == 90000

    def test_no_contacts_delivers(self, space):
        router = ChordRouter(space, 100, [], {}, predecessor=None)
        assert router.next_hop(500) is None


class TestChordBootstrap:
    def test_converges_and_routes(self):
        sim = ChordBootstrapSimulation(48, config=FAST, seed=15)
        samples = sim.run(40)
        assert samples[-1].is_perfect
        assert samples[-1].finger_fraction == 0.0
        # Convergence is logarithmic-ish: well under the budget.
        assert samples[-1].cycle <= 20
        network = sim.to_network()
        space = FAST.space
        rng = RandomSource(16).derive("keys")
        ids = list(sim.nodes)
        stats = network.lookup_many(
            (space.random_id(rng) for _ in range(100)),
            (rng.choice(ids) for _ in range(100)),
        )
        assert stats.success_rate == 1.0

    def test_finger_fraction_decays(self):
        sim = ChordBootstrapSimulation(48, config=FAST, seed=17)
        samples = sim.run(40)
        fractions = [s.finger_fraction for s in samples]
        assert fractions[0] > fractions[-1]

    @pytest.mark.parametrize("size", [0, 1])
    def test_rejects_fewer_than_two_nodes(self, size):
        with pytest.raises(ValueError, match="need size >= 2"):
            ChordBootstrapSimulation(size, config=FAST)

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_rejects_an_empty_cycle_budget(self, max_cycles):
        sim = ChordBootstrapSimulation(16, config=FAST, seed=18)
        with pytest.raises(ValueError, match="max_cycles must be >= 1"):
            sim.run(max_cycles)
        assert sim.samples == []

    def test_measure_totals_positive(self):
        sim = ChordBootstrapSimulation(16, config=FAST, seed=18)
        sample = sim.measure()
        assert sample.total_fingers > 0
        assert sample.total_ring > 0
        assert not sample.is_perfect
