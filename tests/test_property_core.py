"""Property-based tests for the ``repro.core`` contracts.

These are the invariants the array-backed engine's kernels must
preserve (see ``tests/test_engine_fast.py`` for the point-for-point
kernel equivalences); hypothesis explores the input space the
example-based suites cannot enumerate:

* ``freshest_by_id``/``dedupe_by_id`` idempotence and freshest-wins;
* ``LeafSet`` size bounds, balanced successor/predecessor split, and
  update monotonicity;
* ``PrefixTable`` slot-occupancy bounds and fill-only semantics;
* kernel/core agreement on arbitrary (not merely random-unique) ids;
* perfect tables are fixed points of UPDATELEAFSET + UPDATEPREFIXTABLE
  over a static id set, on ``BootstrapNode`` and on the fast engine's
  flat ``FastNodeState`` -- and stop being one once an id is killed
  (every cycle engine skips messages to settled receivers on exactly
  this).

Guarded on the optional ``hypothesis`` dependency: the module skips
cleanly where only the core test requirements are installed.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import (  # noqa: E402
    BootstrapConfig,
    BootstrapMessage,
    BootstrapNode,
    IDSpace,
    LeafSet,
    NodeDescriptor,
    PrefixTable,
    ReferenceTables,
)
from repro.core.descriptor import dedupe_by_id, freshest_by_id  # noqa: E402
from repro.core.leafset import select_balanced_ids  # noqa: E402
from repro.engine_fast import FastBootstrapSimulation, kernels  # noqa: E402

SPACE = IDSpace()  # 64-bit, hex digits (the paper's geometry)
SMALL_SPACE = IDSpace(bits=8, digit_bits=2)  # dense collisions

ids_64 = st.integers(min_value=0, max_value=SPACE.size - 1)
ids_8 = st.integers(min_value=0, max_value=SMALL_SPACE.size - 1)

descriptors = st.builds(
    NodeDescriptor,
    node_id=ids_8,
    address=st.integers(min_value=0, max_value=7),
    timestamp=st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    ),
)

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDescriptorMerge:
    @COMMON
    @given(st.lists(descriptors, max_size=40))
    def test_freshest_by_id_idempotent(self, descs):
        once = freshest_by_id(descs)
        twice = freshest_by_id(once.values())
        assert once == twice

    @COMMON
    @given(st.lists(descriptors, max_size=40))
    def test_freshest_by_id_keeps_maximal_timestamp(self, descs):
        best = freshest_by_id(descs)
        for desc in descs:
            kept = best[desc.node_id]
            assert kept.timestamp >= desc.timestamp
            assert kept.node_id == desc.node_id

    @COMMON
    @given(st.lists(descriptors, max_size=40))
    def test_dedupe_by_id_idempotent_and_unique(self, descs):
        deduped = dedupe_by_id(descs)
        assert len({d.node_id for d in deduped}) == len(deduped)
        assert dedupe_by_id(deduped) == deduped


class TestLeafSetInvariants:
    @COMMON
    @given(
        own=ids_8,
        batches=st.lists(
            st.lists(descriptors, max_size=20), min_size=1, max_size=5
        ),
        size=st.sampled_from([2, 4, 8]),
    )
    def test_update_respects_bounds_and_balance(self, own, batches, size):
        leaf = LeafSet(SMALL_SPACE, own, size)
        seen = set()
        for batch in batches:
            leaf.update(batch)
            seen.update(
                d.node_id for d in batch if d.node_id != own
            )
            members = leaf.member_ids()
            # Size bound and provenance.
            assert len(members) <= size
            assert own not in members
            assert members <= seen
            # The balanced rule: membership equals the pure selection
            # function applied to everything ever offered.
            assert members == select_balanced_ids(
                SMALL_SPACE, own, seen, size // 2
            )

    @COMMON
    @given(own=ids_8, batch=st.lists(descriptors, max_size=30))
    def test_update_is_idempotent_on_membership(self, own, batch):
        leaf = LeafSet(SMALL_SPACE, own, 4)
        leaf.update(batch)
        first = leaf.member_ids()
        changed = leaf.update(batch)
        assert leaf.member_ids() == first
        assert changed is False

    @COMMON
    @given(own=ids_8, batch=st.lists(descriptors, max_size=30))
    def test_closest_half_is_prefix_of_distance_order(self, own, batch):
        leaf = LeafSet(SMALL_SPACE, own, 8)
        leaf.update(batch)
        ordered = [d.node_id for d in leaf.sorted_by_distance()]
        half = [d.node_id for d in leaf.closest_half()]
        assert half == ordered[: (len(ordered) + 1) // 2]


class TestPrefixTableInvariants:
    @COMMON
    @given(
        own=ids_8,
        batch=st.lists(descriptors, max_size=60),
        k=st.sampled_from([1, 2, 3]),
    )
    def test_slot_occupancy_bounded_by_k(self, own, batch, k):
        table = PrefixTable(SMALL_SPACE, own, k)
        added = table.update(batch)
        assert added == len(table)
        assert own not in table
        for (row, col), count in table.occupancy().items():
            assert 1 <= count <= k
            for desc in table.slot_entries(row, col):
                assert SMALL_SPACE.prefix_slot(own, desc.node_id) == (
                    row,
                    col,
                )

    @COMMON
    @given(own=ids_8, batch=st.lists(descriptors, max_size=60))
    def test_update_only_fills_never_evicts(self, own, batch):
        table = PrefixTable(SMALL_SPACE, own, 2)
        table.update(batch)
        before = table.member_ids()
        table.update(batch)  # replay adds nothing, removes nothing
        assert table.member_ids() == before


class TestKernelCoreAgreement:
    """The fast engine's kernels against the reference selection
    functions, over adversarial (clustered, duplicate-free) id sets."""

    @COMMON
    @given(
        ids=st.lists(ids_64, unique=True, max_size=80),
        origin=ids_64,
        half_capacity=st.sampled_from([1, 5, 10]),
    )
    def test_select_balanced_matches_core(self, ids, origin, half_capacity):
        ids = [i for i in ids if i != origin]
        assert kernels.select_balanced(
            ids, origin, SPACE.size - 1, SPACE.half, half_capacity
        ) == select_balanced_ids(SPACE, origin, ids, half_capacity)

    @COMMON
    @given(ids=st.lists(ids_64, unique=True, max_size=80), origin=ids_64)
    def test_rank_matches_idspace(self, ids, origin):
        assert kernels.rank_ids(ids, origin, SPACE.size - 1) == (
            SPACE.sort_by_ring_distance(origin, ids)
        )

    @COMMON
    @given(ids=st.lists(ids_64, unique=True, max_size=80), origin=ids_64)
    def test_prefix_slots_match_idspace(self, ids, origin):
        ids = [i for i in ids if i != origin]
        packed = kernels.prefix_slots(
            ids, origin, SPACE.bits, SPACE.digit_bits, SPACE.digit_base - 1
        )
        for nid, slot in zip(ids, packed, strict=True):
            row, col = SPACE.prefix_slot(origin, nid)
            assert slot == (row << SPACE.digit_bits) | col


#: Eight-bit ids in two-bit digits: populations of a few dozen crowd
#: every prefix slot past ``k`` and wrap the leaf sets around the ring.
SMALL_CONFIG = dict(id_bits=8, digit_bits=2, random_samples=4)


def _descriptor(node_id: int) -> NodeDescriptor:
    return NodeDescriptor(node_id, node_id)


def _perfect_node(config, live, own, fill_order) -> BootstrapNode:
    """A node holding its perfect tables for the *live* id set: the
    leaf set is fed exactly the perfect leaf ids, the prefix table
    every live id in *fill_order* (first come, first served, so which
    ``min(k, available)`` ids land in each slot follows the order)."""
    reference = ReferenceTables(
        config.space, live, config.leaf_set_size, config.entries_per_slot
    )
    node = BootstrapNode(_descriptor(own), config, None, random.Random(0))
    node.leaf_set.update(map(_descriptor, reference.perfect_leaf_ids(own)))
    node.prefix_table.update(map(_descriptor, fill_order))
    assert node.leaf_set.member_ids() == reference.perfect_leaf_ids(own)
    assert node.prefix_table.occupancy() == reference.perfect_prefix_counts(own)
    return node


@st.composite
def static_networks(draw):
    """``(config, ids, own)``: a static id set and one of its nodes."""
    config = BootstrapConfig(
        leaf_set_size=draw(st.sampled_from([2, 4, 8])),
        entries_per_slot=draw(st.sampled_from([1, 2, 3])),
        **SMALL_CONFIG,
    )
    ids = draw(st.lists(ids_8, unique=True, min_size=2, max_size=60))
    return config, ids, draw(st.sampled_from(ids))


class TestPerfectTablesAreFixedPoints:
    @COMMON
    @given(network=static_networks(), data=st.data())
    def test_no_message_from_the_live_set_changes_them(self, network, data):
        """Whatever the senders, payload order and duplicates, messages
        carrying only live ids leave a perfect node's leaf set and
        prefix table exactly as they were: every such id is resident
        or beaten by residents."""
        config, ids, own = network
        node = _perfect_node(config, ids, own, data.draw(st.permutations(ids)))
        leaf = node.leaf_set.member_ids()
        prefix = node.prefix_table.member_ids()
        messages = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.lists(st.sampled_from(ids), max_size=40),
                ),
                min_size=1,
                max_size=6,
            )
        )
        for sender, payload in messages:
            node.absorb(
                BootstrapMessage(
                    sender=_descriptor(sender),
                    descriptors=tuple(map(_descriptor, payload)),
                )
            )
            assert node.leaf_set.member_ids() == leaf
            assert node.prefix_table.member_ids() == prefix

    @COMMON
    @given(network=static_networks(), data=st.data())
    def test_a_killed_neighbour_is_readmitted(self, network, data):
        """The counterexample behind the kill gate: a node perfect for
        the live ids re-admits a killed neighbour that a message still
        carries -- dead ids circulate after a kill, so perfect tables
        stop being a fixed point."""
        config, ids, own = network
        others = [nid for nid in ids if nid != own]
        space = config.space
        # The ring-nearest other id tops its side's ranking, and every
        # side with a candidate keeps at least one entry.
        killed = min(others, key=lambda nid: (space.ring_distance(own, nid), nid))
        live = [nid for nid in ids if nid != killed]
        node = _perfect_node(config, live, own, data.draw(st.permutations(live)))
        node.absorb(
            BootstrapMessage(
                sender=_descriptor(data.draw(st.sampled_from(live))),
                descriptors=(_descriptor(killed),),
            )
        )
        assert killed in node.leaf_set.member_ids()


def _perfect_state(config, live, own, fill_order):
    """The fast engine's twin of :func:`_perfect_node`: a
    ``FastNodeState`` holding its perfect tables for *live*, with the
    simulation whose ``_absorb`` applies messages to it."""
    sim = FastBootstrapSimulation(ids=live, config=config)
    state = sim.nodes[own]
    reference = sim.reference
    sim._leaf_update(state, sorted(reference.perfect_leaf_ids(own)), None)
    space = config.space
    others = [nid for nid in fill_order if nid != own]
    slots = kernels.prefix_slots(
        others, own, space.bits, space.digit_bits, space.digit_base - 1
    )
    for nid, slot in zip(others, slots, strict=True):
        held = state.prefix_slots.setdefault(slot, [])
        if len(held) < config.entries_per_slot:
            held.append(nid)
            state.prefix_ids.add(nid)
    assert state.leaf_members == reference.perfect_leaf_ids(own)
    assert {slot: len(held) for slot, held in state.prefix_slots.items()} == {
        (row << space.digit_bits) | col: count
        for (row, col), count in reference.perfect_prefix_counts(own).items()
    }
    return sim, state


class TestPerfectFastStatesAreFixedPoints:
    @COMMON
    @given(network=static_networks(), data=st.data())
    def test_no_message_from_the_live_set_changes_them(self, network, data):
        """The fast engine's ``_absorb`` leaves a perfect state alone
        for any message of live ids: close part, slotted tail part and
        envelope sender, duplicates included (a message never carries
        its destination's own id)."""
        config, ids, own = network
        sim, state = _perfect_state(
            config, ids, own, data.draw(st.permutations(ids))
        )
        leaf = set(state.leaf_members)
        slots = {slot: list(held) for slot, held in state.prefix_slots.items()}
        prefix = set(state.prefix_ids)
        others = st.sampled_from([nid for nid in ids if nid != own])
        space = config.space
        messages = data.draw(
            st.lists(
                st.tuples(
                    others,
                    st.lists(others, max_size=30),
                    st.lists(others, max_size=30),
                ),
                min_size=1,
                max_size=6,
            )
        )
        for sender, close, tail in messages:
            tail_slots = kernels.prefix_slots(
                tail, own, space.bits, space.digit_bits, space.digit_base - 1
            )
            sim._absorb(state, (close, tail, tail_slots), sender)
            assert state.leaf_members == leaf
            assert state.prefix_slots == slots
            assert state.prefix_ids == prefix
