"""Bit-level pins for the exact protocol kernel (CREATEMESSAGE, UPDATELEAFSET).

The engines' differential suites compare node *ids* only, and the live
stack only ever puts addresses on the wire, so neither would notice a
message that carried a stale copy of a descriptor, or a leaf set that
iterated its members in a different order.  This module keeps the
straightforward implementations of both transitions -- a full ranking
sort plus a separate balanced selection per message, and a reselect on
every UPDATELEAFSET that sees a new id -- as oracles, and checks the
production code against them element for element: order, descriptor
objects and timestamps.
"""

from __future__ import annotations

import random
from heapq import nsmallest

import pytest

from repro.core import (
    BootstrapConfig,
    BootstrapMessage,
    BootstrapNode,
    IDSpace,
    LeafSet,
    NodeDescriptor,
    PrefixTable,
)
from repro.core.leafset import select_balanced_ids, split_balanced_ids

SPACES = [IDSpace(), IDSpace(bits=16, digit_bits=2)]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def oracle_select_balanced_ids(space, own_id, candidate_ids, half_capacity):
    mask = space.size - 1
    half_ring = space.half
    successors = []
    predecessors = []
    for node_id in candidate_ids:
        if node_id == own_id:
            continue
        forward = (node_id - own_id) & mask
        if forward <= half_ring:
            successors.append((forward, node_id))
        else:
            predecessors.append((mask + 1 - forward, node_id))
    take_succ = min(half_capacity, len(successors))
    take_pred = min(half_capacity, len(predecessors))
    spare = (half_capacity - take_succ) + (half_capacity - take_pred)
    if spare:
        extra_succ = min(spare, len(successors) - take_succ)
        take_succ += extra_succ
        spare -= extra_succ
        take_pred += min(spare, len(predecessors) - take_pred)
    chosen = {node_id for _, node_id in nsmallest(take_succ, successors)}
    chosen.update(
        node_id for _, node_id in nsmallest(take_pred, predecessors)
    )
    return chosen


class OracleLeafSet:
    """UPDATELEAFSET that reselects whenever a new id shows up, and a
    SELECTPEER view that re-sorts on every call."""

    def __init__(self, space, own_id, size):
        self._space = space
        self._own_id = own_id
        self._half = size // 2
        self._mask = space.size - 1
        self._members = {}

    def __iter__(self):
        return iter(self._members.values())

    def remove(self, node_id):
        return self._members.pop(node_id, None) is not None

    def update(self, descriptors):
        own = self._own_id
        merged = dict(self._members)
        new_candidates = False
        refreshed = False
        for desc in descriptors:
            if desc.node_id == own:
                continue
            current = merged.get(desc.node_id)
            if current is None:
                merged[desc.node_id] = desc
                new_candidates = True
            elif desc.timestamp > current.timestamp:
                merged[desc.node_id] = desc
                refreshed = True
        if not new_candidates:
            if refreshed:
                self._members = merged
            return False
        chosen_ids = oracle_select_balanced_ids(
            self._space, self._own_id, merged, self._half
        )
        selected = {node_id: merged[node_id] for node_id in chosen_ids}
        changed = selected.keys() != self._members.keys()
        self._members = selected
        return changed

    def closest_half(self):
        own = self._own_id
        mask = self._mask

        def key(desc):
            forward = (desc.node_id - own) & mask
            backward = (own - desc.node_id) & mask
            return (min(forward, backward), desc.node_id)

        ordered = sorted(self._members.values(), key=key)
        if not ordered:
            return []
        half = (len(ordered) + 1) // 2
        return ordered[:half]


def oracle_create_message(
    self,
    peer,
    *,
    is_reply,
    feed_prefix_table=True,
    include_prefix_part=True,
    optimize_close_part=True,
):
    """CREATEMESSAGE as it read before the single-sort kernel, with
    ``self`` the node whose state it reads."""
    config = self.config
    peer_id = peer.node_id

    # Union of all locally available information, freshest per id.
    if feed_prefix_table:
        union = {d.node_id: d for d in self.prefix_table.descriptors()}
    else:
        union = {}
    for desc in self.leaf_set:
        union[desc.node_id] = desc
    for desc in self._sampler.sample(config.random_samples):
        union.setdefault(desc.node_id, desc)
    own = self.descriptor.refreshed(self._now)
    union[own.node_id] = own
    # The peer gains nothing from its own descriptor.
    union.pop(peer_id, None)

    mask = self._space.size - 1
    decorated = sorted(
        (
            min((nid - peer_id) & mask, (peer_id - nid) & mask),
            nid,
        )
        for nid in union
    )
    ranked = [union[nid] for _, nid in decorated]
    if optimize_close_part:
        close_ids = oracle_select_balanced_ids(
            self._space, peer_id, union, config.half_leaf_set
        )
        close_part = []
        rest = []
        for d in ranked:
            if d.node_id in close_ids:
                close_part.append(d)
            else:
                rest.append(d)
    else:
        shuffled = list(union.values())
        self._rng.shuffle(shuffled)
        close_part = shuffled[: config.leaf_set_size]
        close_ids = {d.node_id for d in close_part}
        rest = [d for d in ranked if d.node_id not in close_ids]

    prefix_part = []
    if include_prefix_part:
        space = self._space
        bits = space.bits
        digit_bits = space.digit_bits
        base_mask = space.digit_base - 1
        k = config.entries_per_slot
        occupancy = {}
        for desc in rest:
            nid = desc.node_id
            diff = peer_id ^ nid
            row = (bits - diff.bit_length()) // digit_bits
            shift = bits - (row + 1) * digit_bits
            slot = (row << digit_bits) | ((nid >> shift) & base_mask)
            count = occupancy.get(slot, 0)
            if count < k:
                occupancy[slot] = count + 1
                prefix_part.append(desc)

    payload = tuple(close_part) + tuple(prefix_part)
    return BootstrapMessage(
        sender=own, descriptors=payload, is_reply=is_reply
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


class ScriptedSampler:
    """Returns whatever ``script`` holds, capped at the requested count,
    so two CREATEMESSAGE runs from the same state see the same samples."""

    def __init__(self):
        self.script: list[NodeDescriptor] = []

    def sample(self, count):
        return list(self.script[:count])


def same_objects(left, right):
    """Element-for-element identity, not just equality."""
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


def assert_same_message(new, old):
    assert new.is_reply == old.is_reply
    assert new.sender == old.sender
    assert new.sender.timestamp == old.sender.timestamp
    assert [d.node_id for d in new.descriptors] == [
        d.node_id for d in old.descriptors
    ]
    # The sender's own entry is a fresh refreshed() copy per message;
    # every other entry must be the very object the node holds.
    own_id = new.sender.node_id
    for a, b in zip(new.descriptors, old.descriptors):
        if a.node_id == own_id:
            assert a == b and a.timestamp == b.timestamp
        else:
            assert a is b


def random_descriptor(rng, space, ids, tag):
    node_id = rng.choice(ids) if ids and rng.random() < 0.5 else (
        rng.getrandbits(space.bits)
    )
    return NodeDescriptor(
        node_id=node_id,
        address=(tag, rng.getrandbits(16)),
        timestamp=float(rng.randrange(6)),
    )


def random_node(rng, space):
    config = BootstrapConfig(
        id_bits=space.bits,
        digit_bits=space.digit_bits,
        leaf_set_size=rng.choice([2, 4, 8, 20]),
        entries_per_slot=rng.choice([1, 2, 3]),
        random_samples=rng.choice([0, 3, 30]),
    )
    sampler = ScriptedSampler()
    own = NodeDescriptor(
        node_id=rng.getrandbits(space.bits), address="own", timestamp=0.0
    )
    node = BootstrapNode(own, config, sampler, random.Random(rng.random()))
    node.set_time(float(rng.randrange(10)))
    return node, sampler


def populate(rng, node, space, n_leaf, n_prefix):
    """Fill the node's tables, with some ids held by both under
    different timestamps and addresses."""
    leaf = [random_descriptor(rng, space, [], "leaf") for _ in range(n_leaf)]
    node.leaf_set.update(leaf)
    shared = [d.node_id for d in node.leaf_set]
    for _ in range(n_prefix):
        node.prefix_table.add(random_descriptor(rng, space, shared, "pfx"))


def script_samples(rng, node, sampler, space):
    known = (
        [d.node_id for d in node.leaf_set]
        + [d.node_id for d in node.prefix_table.descriptors()]
        + [node.node_id]
    )
    sampler.script = [
        random_descriptor(rng, space, known, "smp")
        for _ in range(rng.randrange(0, 40))
    ]


def pick_peer(rng, node, sampler, space):
    pools = [
        list(node.leaf_set),
        node.prefix_table.descriptors(),
        sampler.script,
    ]
    pool = rng.choice(pools)
    if pool and rng.random() < 0.8:
        return rng.choice(pool)
    return NodeDescriptor(
        node_id=rng.getrandbits(space.bits), address="peer"
    )


def check_message(node, peer, **flags):
    """Run the production path and the oracle from the same state."""
    is_reply = flags.pop("is_reply", False)
    state = node._rng.getstate()
    if flags:
        new = node._create_message(peer, is_reply=is_reply, **flags)
    else:
        new = node.create_message(peer, is_reply=is_reply)
    after = node._rng.getstate()
    node._rng.setstate(state)
    old = oracle_create_message(node, peer, is_reply=is_reply, **flags)
    assert node._rng.getstate() == after
    assert_same_message(new, old)
    return new


# ----------------------------------------------------------------------
# CREATEMESSAGE
# ----------------------------------------------------------------------


class TestCreateMessageMatchesOracle:
    @pytest.mark.parametrize("space", SPACES, ids=["b64", "b16"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_states(self, space, seed):
        rng = random.Random(seed)
        for _ in range(15):
            node, sampler = random_node(rng, space)
            # Unions from a handful of ids (below c) to well above it.
            populate(rng, node, space, rng.randrange(0, 30),
                     rng.randrange(0, 120))
            for _ in range(4):
                script_samples(rng, node, sampler, space)
                peer = pick_peer(rng, node, sampler, space)
                check_message(node, peer, is_reply=rng.random() < 0.5)

    def test_union_below_c(self, space, small_config):
        rng = random.Random(3)
        node = BootstrapNode(
            NodeDescriptor(node_id=rng.getrandbits(64), address="own"),
            small_config,
            ScriptedSampler(),
            random.Random(1),
        )
        node.leaf_set.update(
            [NodeDescriptor(node_id=rng.getrandbits(64), address=i)
             for i in range(2)]
        )
        peer = NodeDescriptor(node_id=rng.getrandbits(64), address="p")
        message = check_message(node, peer)
        # Two members and the sender: all of it fits the close part.
        assert len(message.descriptors) == 3 < small_config.leaf_set_size

    def test_leaf_copy_wins_over_prefix_copy(self, space, small_config):
        sampler = ScriptedSampler()
        node = BootstrapNode(
            NodeDescriptor(node_id=1 << 60, address="own"),
            small_config,
            sampler,
            random.Random(1),
        )
        shared = 5 << 60
        node.prefix_table.add(
            NodeDescriptor(node_id=shared, address="pfx", timestamp=9.0)
        )
        leaf_copy = NodeDescriptor(node_id=shared, address="leaf",
                                   timestamp=1.0)
        node.leaf_set.update([leaf_copy])
        # A fresher sample never displaces a copy the node already holds.
        sampler.script = [
            NodeDescriptor(node_id=shared, address="smp", timestamp=20.0)
        ]
        peer = NodeDescriptor(node_id=9 << 60, address="peer")
        message = check_message(node, peer)
        held = [d for d in message.descriptors if d.node_id == shared]
        assert held == [leaf_copy] and held[0] is leaf_copy

    @pytest.mark.parametrize(
        "flags",
        [
            {"feed_prefix_table": False},
            {"include_prefix_part": False},
            {"optimize_close_part": False},
            {"optimize_close_part": False, "feed_prefix_table": False},
        ],
        ids=["no-feedback", "no-prefix-part", "unoptimized", "both"],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_ablation_paths(self, flags, seed):
        # optimize_close_part=False shuffles the union, so it also pins
        # the union's insertion order, not just its contents.
        rng = random.Random(100 + seed)
        space = SPACES[seed % 2]
        for _ in range(10):
            node, sampler = random_node(rng, space)
            populate(rng, node, space, rng.randrange(0, 25),
                     rng.randrange(0, 80))
            for _ in range(3):
                script_samples(rng, node, sampler, space)
                peer = pick_peer(rng, node, sampler, space)
                check_message(node, peer, **dict(flags))


class TestUnionCacheInvalidation:
    """Every way the maintenance layer and the overlays touch a node's
    tables must reach the next message."""

    def fresh_node(self, seed=0, space=None):
        rng = random.Random(seed)
        space = space or IDSpace()
        node, sampler = random_node(rng, space)
        populate(rng, node, space, 20, 60)
        return rng, node, sampler, space

    def message_ids(self, node, peer):
        return [d.node_id for d in check_message(node, peer).descriptors]

    def test_leaf_set_remove(self):
        rng, node, sampler, space = self.fresh_node(1)
        peer = NodeDescriptor(node_id=rng.getrandbits(64), address="p")
        self.message_ids(node, peer)
        for desc in list(node.leaf_set):
            node.prefix_table.forget(desc.node_id)
            assert node.leaf_set.remove(desc.node_id)
            assert desc.node_id not in self.message_ids(node, peer)

    def test_prefix_table_forget_and_clear(self):
        rng, node, sampler, space = self.fresh_node(2)
        peer = NodeDescriptor(node_id=rng.getrandbits(64), address="p")
        self.message_ids(node, peer)
        leaf_ids = {d.node_id for d in node.leaf_set}
        victim = next(
            d.node_id for d in node.prefix_table.descriptors()
            if d.node_id not in leaf_ids
        )
        assert node.prefix_table.forget(victim)
        assert victim not in self.message_ids(node, peer)
        node.prefix_table.clear()
        assert set(self.message_ids(node, peer)) <= leaf_ids | {node.node_id}

    def test_restart(self):
        rng, node, sampler, space = self.fresh_node(3)
        peer = NodeDescriptor(node_id=rng.getrandbits(64), address="p")
        self.message_ids(node, peer)
        sampler.script = [
            NodeDescriptor(node_id=rng.getrandbits(64), address=i)
            for i in range(3)
        ]
        node.restart()
        sampler.script = []
        ids = self.message_ids(node, peer)
        assert sorted(ids) == sorted(
            [d.node_id for d in node.leaf_set] + [node.node_id]
        )

    def test_refresh_reaches_the_message(self):
        rng, node, sampler, space = self.fresh_node(4)
        peer = NodeDescriptor(node_id=rng.getrandbits(64), address="p")
        self.message_ids(node, peer)
        member = next(iter(node.leaf_set))
        fresher = NodeDescriptor(
            node_id=member.node_id, address="moved", timestamp=99.0
        )
        assert node.leaf_set.update([fresher]) is False
        message = check_message(node, peer)
        held = [d for d in message.descriptors if d.node_id == member.node_id]
        assert all(d is fresher for d in held)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_stream(self, seed):
        rng, node, sampler, space = self.fresh_node(
            10 + seed, SPACES[seed % 2]
        )
        for _ in range(60):
            op = rng.randrange(8)
            if op == 0:
                node.absorb(BootstrapMessage(
                    sender=random_descriptor(rng, space, [], "snd"),
                    descriptors=tuple(
                        random_descriptor(
                            rng, space, [d.node_id for d in node.leaf_set],
                            "abs",
                        )
                        for _ in range(rng.randrange(1, 30))
                    ),
                ))
            elif op == 1 and len(node.leaf_set):
                node.leaf_set.remove(rng.choice(list(node.leaf_set)).node_id)
            elif op == 2 and len(node.prefix_table):
                node.prefix_table.forget(
                    rng.choice(node.prefix_table.descriptors()).node_id
                )
            elif op == 3 and rng.random() < 0.2:
                node.prefix_table.clear()
            elif op == 4 and rng.random() < 0.2:
                script_samples(rng, node, sampler, space)
                node.restart()
            elif op == 5:
                node.set_time(node._now + 1.0)
            elif op == 6:
                node.prefix_table.add(
                    random_descriptor(rng, space, [], "add")
                )
            script_samples(rng, node, sampler, space)
            check_message(node, pick_peer(rng, node, sampler, space),
                          is_reply=rng.random() < 0.5)


class TestSplitBalancedIds:
    @pytest.mark.parametrize("space", SPACES, ids=["b64", "b16"])
    @pytest.mark.parametrize("half", [0, 1, 2, 4, 10])
    def test_matches_rank_then_select(self, space, half):
        rng = random.Random(half)
        mask = space.size - 1
        for n in (0, 1, 3, 7, 25, 90):
            origin = rng.getrandbits(space.bits)
            ids = {rng.getrandbits(space.bits) for _ in range(n)}
            ids.discard(origin)
            # Both sides of exactly half a ring away.
            ids.add((origin + space.half) & mask)
            ids.discard(origin)
            ranked = sorted(
                ids,
                key=lambda i: (min((i - origin) & mask, (origin - i) & mask),
                               i),
            )
            chosen = oracle_select_balanced_ids(space, origin, ids, half)
            close, rest = split_balanced_ids(
                ids, origin, mask, space.half, half
            )
            assert close == [i for i in ranked if i in chosen]
            assert rest == [i for i in ranked if i not in chosen]
            assert set(close) == select_balanced_ids(
                space, origin, ids, half
            )


# ----------------------------------------------------------------------
# UPDATELEAFSET and the SELECTPEER view
# ----------------------------------------------------------------------


class TestLeafSetMatchesAlwaysReselect:
    @pytest.mark.parametrize("space", SPACES, ids=["b64", "b16"])
    @pytest.mark.parametrize("size", [2, 4, 8, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_update_streams(self, space, size, seed):
        rng = random.Random(seed * 97 + size)
        own = rng.getrandbits(space.bits)
        fast = LeafSet(space, own, size)
        oracle = OracleLeafSet(space, own, size)
        # A bounded id pool, so ids come back as refreshes and stale
        # copies; the owner's id shows up too.
        pool = [rng.getrandbits(space.bits) for _ in range(3 * size + 10)]
        pool.append(own)
        for step in range(300):
            if step % 7 == 3 and rng.random() < 0.5:
                members = [d.node_id for d in oracle]
                victim = (
                    rng.choice(members) if members and rng.random() < 0.8
                    else rng.choice(pool)
                )
                assert fast.remove(victim) == oracle.remove(victim)
            else:
                batch = [
                    NodeDescriptor(
                        node_id=rng.choice(pool),
                        address=rng.getrandbits(8),
                        timestamp=float(rng.randrange(step // 10 + 2)),
                    )
                    for _ in range(rng.randrange(1, 2 * size + 4))
                ]
                assert fast.update(batch) == oracle.update(batch)
            assert same_objects(list(fast), list(oracle))
            assert same_objects(fast.closest_half(), oracle.closest_half())

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("side", [1, -1])
    def test_admission_bound_edges(self, side, offset):
        # A newcomer one step inside the farthest member on its side
        # must be admitted, one step outside must not.
        space = IDSpace(bits=16, digit_bits=2)
        mask = space.size - 1
        own = 1000
        members = [(own + d) & mask for d in (10, 20)]
        members += [(own - d) & mask for d in (10, 20)]
        newcomer = (own + side * (20 + offset)) & mask
        fast = LeafSet(space, own, 4)
        oracle = OracleLeafSet(space, own, 4)
        batch = [NodeDescriptor(node_id=i, address=i) for i in members]
        assert fast.update(batch) == oracle.update(batch)
        batch = [NodeDescriptor(node_id=newcomer, address="new")]
        assert fast.update(batch) == oracle.update(batch) == (offset < 0)
        assert same_objects(list(fast), list(oracle))

    def test_backfilled_side_admits_everything(self):
        # Only one predecessor exists, so the successor side holds the
        # backfill and any new predecessor, however far, gets in.
        space = IDSpace(bits=16, digit_bits=2)
        mask = space.size - 1
        own = 1000
        members = [(own + d) & mask for d in (10, 20, 30)] + [own - 5]
        fast = LeafSet(space, own, 4)
        oracle = OracleLeafSet(space, own, 4)
        batch = [NodeDescriptor(node_id=i, address=i) for i in members]
        assert fast.update(batch) == oracle.update(batch)
        far = [NodeDescriptor(node_id=(own - 30000) & mask, address="far")]
        assert fast.update(far) == oracle.update(far) is True
        assert same_objects(list(fast), list(oracle))

    def test_closest_half_cache_drops_on_refresh(self, space):
        ls = LeafSet(space, 0, 4)
        old = NodeDescriptor(node_id=10, address="a", timestamp=1.0)
        ls.update([old])
        assert ls.closest_half() == [old]
        new = NodeDescriptor(node_id=10, address="b", timestamp=2.0)
        assert ls.update([new]) is False
        assert ls.closest_half()[0] is new

    def test_prefix_table_version_moves_on_every_change(self, space):
        table = PrefixTable(space, 0, 2)
        seen = [table.version]
        table.add(NodeDescriptor(node_id=1 << 60, address="a"))
        seen.append(table.version)
        table.update([NodeDescriptor(node_id=2 << 60, address="b")])
        seen.append(table.version)
        table.forget(1 << 60)
        seen.append(table.version)
        table.clear()
        seen.append(table.version)
        assert len(set(seen)) == 5
        # Nothing added, nothing to invalidate.
        before = table.version
        table.update([NodeDescriptor(node_id=0, address="own")])
        table.add(NodeDescriptor(node_id=0, address="own"))
        assert not table.forget(3 << 60)
        assert table.version == before

    def test_leaf_set_version_moves_on_every_change(self, space):
        ls = LeafSet(space, 0, 2)
        seen = [ls.version]
        ls.update([NodeDescriptor(node_id=10, address="a")])
        seen.append(ls.version)
        # Same membership, fresher advertisement: a replaced entry.
        ls.update([NodeDescriptor(node_id=10, address="b", timestamp=1.0)])
        seen.append(ls.version)
        ls.remove(10)
        seen.append(ls.version)
        assert len(set(seen)) == 4
        # Nothing held changes, nothing to invalidate.
        before = ls.version
        ls.update([NodeDescriptor(node_id=0, address="own")])
        ls.update([NodeDescriptor(node_id=20, address="c")])
        moved = ls.version
        ls.update([NodeDescriptor(node_id=20, address="c")])
        assert not ls.remove(30)
        assert moved != before and ls.version == moved
