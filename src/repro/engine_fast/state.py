"""Flat per-node state for the array-backed engine.

Everything the reference engine stores as :class:`NodeDescriptor`
objects inside :class:`LeafSet`/:class:`PrefixTable`/:class:`PartialView`
containers is held here as plain integers: a node's leaf set is a set of
ids, its prefix table a mapping of packed ``(row, column)`` slots to
bounded id lists, a NEWSCAST view a dict of ``id -> timestamp``.
Addresses never matter to a simulation's observable trajectory (they are
opaque and only echoed back), and timestamps matter only to NEWSCAST's
freshest-wins merge, so those are the only two fields retained anywhere.

The randomness contracts are the load-bearing part: every class here
consumes its ``random.Random`` stream with *exactly* the call pattern of
its reference counterpart (same branch structure, same draw counts), so
a fast run replays the reference run's decisions bit-for-bit.  Comments
below name the mirrored reference method for each such site.
"""

from __future__ import annotations

import random
from operator import itemgetter

__all__ = [
    "randbelow_of",
    "FastRegistry",
    "FastOracleSampler",
    "FastNewscastView",
    "FastNodeState",
]


def randbelow_of(rng: random.Random):
    """Bound uniform-int draw for *rng* without wrapper overhead.

    ``rng.randrange(n)`` and ``rng.choice(seq)`` both delegate to
    ``Random._randbelow(n)``; binding it directly skips their pure
    argument-validation layers while consuming the *identical* bits
    from the stream (this equivalence is what the differential suite
    pins).  Falls back to ``randrange`` if a Python implementation
    ever drops the private method.
    """
    randbelow = getattr(rng, "_randbelow", None)
    return randbelow if randbelow is not None else rng.randrange


class FastRegistry:
    """Id-only mirror of :class:`repro.sampling.oracle.MembershipRegistry`.

    Keeps the dense list + position index layout (swap-with-last
    removal) because the oracle's rejection sampling indexes into that
    list: identical layout is what makes the sampled *ids* identical.
    """

    __slots__ = ("_ids", "_positions")

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._positions: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._positions

    def add(self, node_id: int) -> bool:
        """Register *node_id* as live (mirrors ``MembershipRegistry.add``)."""
        if node_id in self._positions:
            return False
        self._positions[node_id] = len(self._ids)
        self._ids.append(node_id)
        return True

    def remove(self, node_id: int) -> bool:
        """Deregister with swap-with-last, preserving the reference
        registry's dense ordering exactly."""
        pos = self._positions.pop(node_id, None)
        if pos is None:
            return False
        last = self._ids.pop()
        if pos < len(self._ids):
            self._ids[pos] = last
            self._positions[last] = pos
        return True

    def sample(
        self,
        count: int,
        rng: random.Random,
        exclude_id: int | None = None,
    ) -> list[int]:
        """Uniform distinct live ids; branch-for-branch replica of
        ``MembershipRegistry.sample_descriptors`` (including the
        no-randomness whole-pool path) so RNG consumption matches."""
        pool = self._ids
        n = len(pool)
        if count <= 0 or n == 0:
            return []
        exclude_present = (
            exclude_id is not None and exclude_id in self._positions
        )
        available = n - (1 if exclude_present else 0)
        if available <= 0:
            return []
        if count >= available:
            return [nid for nid in pool if nid != exclude_id]
        out: list[int] = []
        seen = set()
        # Inlined ``Random._randbelow_with_getrandbits`` (draw k bits,
        # reject >= n): the pool size is fixed across this call's
        # ``count`` draws, so the bit width is computed once and each
        # draw is a single C-level ``getrandbits`` in the common case.
        # Bit consumption is identical to ``rng.randrange(n)``.
        getrandbits = rng.getrandbits
        k = n.bit_length()
        while len(out) < count:
            idx = getrandbits(k)
            while idx >= n:
                idx = getrandbits(k)
            if idx in seen:
                continue
            nid = pool[idx]
            if nid == exclude_id:
                continue
            seen.add(idx)
            out.append(nid)
        return out


class FastOracleSampler:
    """Per-node endpoint over :class:`FastRegistry` (mirrors
    :class:`repro.sampling.oracle.OracleSampler`)."""

    __slots__ = ("_registry", "_own_id", "_rng")

    def __init__(
        self, registry: FastRegistry, own_id: int, rng: random.Random
    ) -> None:
        self._registry = registry
        self._own_id = own_id
        self._rng = rng

    def sample(self, count: int) -> list[int]:
        """Uniform random live peer ids, excluding the owner."""
        return self._registry.sample(count, self._rng, exclude_id=self._own_id)


class FastNewscastView:
    """Id/timestamp mirror of :class:`repro.sampling.newscast.NewscastNode`
    plus its :class:`~repro.sampling.view.PartialView`.

    The entry dict's *insertion order* is observable through
    ``random.choice``/``random.sample`` over the materialised pool, so
    the merge below reproduces the reference dict mechanics exactly:
    existing keys keep their position, new keys append in arrival
    order, and a capacity overflow rebuilds the dict freshest-first
    with id tiebreak.
    """

    __slots__ = ("own_id", "capacity", "entries", "rng", "now", "_randbelow")

    def __init__(self, own_id: int, capacity: int, rng: random.Random) -> None:
        self.own_id = own_id
        self.capacity = capacity
        self.entries: dict[int, float] = {}
        self.rng = rng
        self.now = 0.0
        self._randbelow = randbelow_of(rng)

    def __len__(self) -> int:
        return len(self.entries)

    def select_peer(self) -> int | None:
        """Mirror of ``NewscastNode.select_peer`` (one ``choice`` over
        the materialised view)."""
        if not self.entries:
            return None
        keys = list(self.entries)
        return keys[self._randbelow(len(keys))]

    def payload(self) -> list[tuple[int, float]]:
        """Mirror of ``NewscastNode.gossip_payload``: the whole view in
        insertion order plus the freshly-stamped own advertisement."""
        pairs = list(self.entries.items())
        pairs.append((self.own_id, self.now))
        return pairs

    def merge(self, pairs: list[tuple[int, float]]) -> None:
        """Mirror of ``PartialView.merge`` (freshest per id, truncate to
        the ``capacity`` freshest, ties broken by id)."""
        entries = self.entries
        own = self.own_id
        for nid, ts in pairs:
            if nid == own:
                continue
            current = entries.get(nid)
            if current is None or ts > current:
                entries[nid] = ts
        if len(entries) > self.capacity:
            # Ids are unique, so sorting the pairs orders them by id;
            # the stable timestamp sort then gives (-timestamp, id).
            survivors = sorted(entries.items())
            survivors.sort(key=itemgetter(1), reverse=True)
            self.entries = dict(survivors[: self.capacity])

    def sample(self, count: int) -> list[int]:
        """Mirror of ``PartialView.random_sample`` (the bootstrap layer's
        ``cr`` source when ``sampler="newscast"``)."""
        if count <= 0 or not self.entries:
            return []
        pool = list(self.entries)
        if count >= len(pool):
            return pool
        return self.rng.sample(pool, count)


class FastNodeState:
    """One bootstrap node as flat data (mirrors
    :class:`repro.core.protocol.BootstrapNode` state).

    ``leaf_sorted`` caches the distance-ranked leaf ids between
    membership changes, as the reference ``LeafSet.closest_half()``
    caches its list.  ``prefix_slots`` keys are
    packed ``(row << digit_bits) | column`` ints.  ``version`` changes
    whenever the leaf membership or the prefix ids do (the engine
    bumps it), so a stamp taken from the state can tell when it is
    stale.
    """

    __slots__ = (
        "node_id",
        "rng",
        "randbelow",
        "sampler",
        "leaf_members",
        "leaf_sorted",
        "leaf_full",
        "succ_count",
        "succ_max",
        "pred_count",
        "pred_max",
        "prefix_slots",
        "prefix_ids",
        "started",
        "version",
    )

    def __init__(self, node_id: int, rng: random.Random, sampler) -> None:
        self.node_id = node_id
        self.rng = rng
        self.randbelow = randbelow_of(rng)
        self.sampler = sampler
        self.leaf_members: set = set()
        self.leaf_sorted: list[int] | None = None
        # Per-side admission bounds (valid only when ``leaf_full``): a
        # non-member can change the balanced selection only if its side
        # is below half capacity or it is closer than that side's worst
        # kept distance -- UPDATELEAFSET only ever improves, so ids
        # failing the test are provably no-ops and the engine skips the
        # reselect kernel for them.
        self.leaf_full = False
        self.succ_count = 0
        self.succ_max = -1
        self.pred_count = 0
        self.pred_max = -1
        self.prefix_slots: dict[int, list[int]] = {}
        self.prefix_ids: set = set()
        self.started = False
        self.version = 0
