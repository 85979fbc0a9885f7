"""The bootstrapping protocol (the paper's primary contribution).

This module implements the node-local protocol of Figure 2 as a pure
state machine, :class:`BootstrapNode`.  It owns a leaf set and a prefix
table and exposes exactly the transitions the paper names:

* ``SELECTPEER``        -> :meth:`BootstrapNode.select_peer`
* ``CREATEMESSAGE(q)``  -> :meth:`BootstrapNode.create_message`
* ``UPDATELEAFSET``/``UPDATEPREFIXTABLE`` -> :meth:`BootstrapNode.absorb`
* active thread body    -> :meth:`BootstrapNode.initiate_exchange` +
  :meth:`BootstrapNode.handle_reply`
* passive thread body   -> :meth:`BootstrapNode.handle_request`

No engine, transport or clock lives here: the cycle engines and the
asyncio peer (on UDP, or on the virtual clock's loopback fabric) all
drive the same object.  Randomness is injected (``random.Random``), as
is the peer sampling service (anything satisfying :class:`Sampler`).

Design notes / faithful-reading decisions
-----------------------------------------
* ``CREATEMESSAGE`` takes "the union of the leaf set, ``cr`` random
  samples taken from the sampling service, the current prefix table, and
  its own descriptor (in other words, all locally available
  information)", sorts it by ring distance from the *destination*, keeps
  the first ``c``, then appends every union member sharing a digit
  prefix with the destination (bounded by the full prefix-table size).
* At protocol start each node initialises its leaf set "with a set of
  random nodes" from the sampling service; the paper does not fix the
  count, we use ``c`` (one leaf set's worth) and document it.
* The passive thread creates its answer *before* applying the received
  descriptors (Figure 2 lines 3-6), which we preserve: the answer
  reflects the responder's pre-exchange state.
* If the leaf set is ever empty (possible only transiently under
  catastrophic failure experiments), ``select_peer`` falls back to one
  fresh random sample so the protocol cannot deadlock.  The paper does
  not discuss this case; the fallback never triggers in the paper's
  scenarios.
"""

from __future__ import annotations

import random
from typing import Protocol

from .config import BootstrapConfig
from .descriptor import NodeDescriptor
from .idspace import slot_tables
from .leafset import LeafSet, split_balanced_ids
from .messages import BootstrapMessage
from .prefixtable import PrefixTable

__all__ = ["Sampler", "BootstrapNode", "ProtocolStats"]


class Sampler(Protocol):
    """Minimal view of the peer sampling service the protocol needs.

    Section 3's NEWSCAST and the idealised oracle sampler both satisfy
    this structurally (no inheritance required).
    """

    def sample(self, count: int) -> list[NodeDescriptor]:
        """Return up to *count* descriptors of (approximately) uniform
        random live peers.  May return fewer when the underlying view is
        small; must never include duplicates of the same node id."""
        ...


class ProtocolStats:
    """Per-node message and convergence accounting.

    The simulators aggregate these to report the cost figures the paper
    argues qualitatively ("cheap", "small number of iterations").
    """

    __slots__ = (
        "requests_sent",
        "replies_sent",
        "requests_received",
        "replies_received",
        "descriptors_sent",
        "descriptors_received",
        "leaf_updates",
        "prefix_entries_added",
    )

    def __init__(self) -> None:
        self.requests_sent = 0
        self.replies_sent = 0
        self.requests_received = 0
        self.replies_received = 0
        self.descriptors_sent = 0
        self.descriptors_received = 0
        self.leaf_updates = 0
        self.prefix_entries_added = 0

    @property
    def messages_sent(self) -> int:
        """Total messages put on the wire by this node."""
        return self.requests_sent + self.replies_sent

    @property
    def messages_received(self) -> int:
        """Total messages delivered to this node."""
        return self.requests_received + self.replies_received

    def snapshot(self) -> dict:
        """Plain-dict copy for traces."""
        return {name: getattr(self, name) for name in self.__slots__}


class BootstrapNode:
    """Node-local state machine of the bootstrapping protocol.

    Parameters
    ----------
    descriptor:
        This node's own descriptor (id + address).
    config:
        Protocol parameters (``b``, ``k``, ``c``, ``cr``, ``Δ``).
    sampler:
        Peer sampling service endpoint for this node.
    rng:
        Source of the protocol's only randomness (peer selection).
    """

    __slots__ = (
        "descriptor",
        "config",
        "leaf_set",
        "prefix_table",
        "stats",
        "_sampler",
        "_rng",
        "_space",
        "_started",
        "_now",
        "_table_union",
        "_table_stamp",
    )

    def __init__(
        self,
        descriptor: NodeDescriptor,
        config: BootstrapConfig,
        sampler: Sampler,
        rng: random.Random,
    ) -> None:
        space = config.space
        space.validate(descriptor.node_id)
        self.descriptor = descriptor
        self.config = config
        self._space = space
        self._sampler = sampler
        self._rng = rng
        self.leaf_set = LeafSet(space, descriptor.node_id, config.leaf_set_size)
        self.prefix_table = PrefixTable(
            space, descriptor.node_id, config.entries_per_slot
        )
        self.stats = ProtocolStats()
        self._started = False
        self._now = 0.0
        # The prefix table as CREATEMESSAGE's union starts it, and the
        # table version it was built from.
        self._table_union: dict[int, NodeDescriptor] = {}
        self._table_stamp = -1

    # ------------------------------------------------------------------
    # Identity and lifecycle
    # ------------------------------------------------------------------

    @property
    def node_id(self) -> int:
        """This node's overlay identifier."""
        return self.descriptor.node_id

    @property
    def address(self):
        """This node's transport address."""
        return self.descriptor.address

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (loosely synchronised start)."""
        return self._started

    def set_time(self, now: float) -> None:
        """Advance the node's notion of time (stamps its advertisements)."""
        self._now = now

    def start(self) -> None:
        """Begin the protocol (paper Section 4, last paragraph).

        "At start time, all nodes use the peer sampling service to
        initialize their leaf sets with a set of random nodes, and clear
        their prefix table."
        """
        self.prefix_table.clear()
        seed_peers = self._sampler.sample(self.config.leaf_set_size)
        self.leaf_set.update(seed_peers)
        self._started = True

    def restart(self) -> None:
        """Forget all protocol state and start again (used when a pool
        is re-purposed for a new overlay instance)."""
        self.leaf_set = LeafSet(
            self._space, self.node_id, self.config.leaf_set_size
        )
        self.prefix_table.clear()
        self.stats = ProtocolStats()
        self._started = False
        self.start()

    # ------------------------------------------------------------------
    # SELECTPEER
    # ------------------------------------------------------------------

    def select_peer(self) -> NodeDescriptor | None:
        """Pick the next gossip partner (paper's SELECTPEER).

        "sorts the leaf set according to distance from the node's own ID
        in the ring of all possible IDs, and then picks a random element
        from the first half of the sorted list."
        """
        candidates = self.leaf_set.closest_half()
        if candidates:
            return self._rng.choice(candidates)
        # Fallback outside the paper's scenarios: an empty leaf set would
        # otherwise stall the node forever.
        fallback = self._sampler.sample(1)
        return fallback[0] if fallback else None

    # ------------------------------------------------------------------
    # CREATEMESSAGE
    # ------------------------------------------------------------------

    def create_message(
        self, peer: NodeDescriptor, is_reply: bool = False
    ) -> BootstrapMessage:
        """Build the optimised descriptor set for *peer* (CREATEMESSAGE).

        The method "takes the union of the leaf set, ``cr`` random
        samples taken from the sampling service, the current prefix
        table, and its own descriptor", keeps the ``c`` entries closest
        to the peer on the ring, and "adds to the message all node
        descriptors that are potentially useful for the peer for its
        prefix table".  Usefulness is decided by filling a hypothetical
        prefix table centred on the peer from the union: whatever lands
        in a slot is sent.  This realises the paper's stated bound ("not
        fixed but is bounded by the size of the full prefix table, and
        usually is smaller in practice") constructively -- at most ``k``
        descriptors per peer slot, and only for slots the union can
        populate at all.
        """
        return self._create_message(peer, is_reply=is_reply)

    def skip_message(self) -> None:
        """CREATEMESSAGE's random draws, without the message.

        The ``cr`` samples come from this node's sampler stream, which
        its later picks and messages read too; a cycle engine that
        skips a build (its receiver is settled, see
        :mod:`repro.simulator.bootstrap_sim`) still draws them, so the
        rest of the run stays identical.
        """
        self._sampler.sample(self.config.random_samples)

    def _create_message(
        self,
        peer: NodeDescriptor,
        *,
        is_reply: bool,
        feed_prefix_table: bool = True,
        include_prefix_part: bool = True,
        optimize_close_part: bool = True,
    ) -> BootstrapMessage:
        """CREATEMESSAGE with ablation hooks.

        The keyword flags exist solely for the ablation study
        (:mod:`repro.baselines.ablations`); the protocol proper always
        uses the defaults.

        ``feed_prefix_table``
            Include the current prefix table in the union ("the
            gradually improving prefix table is fed back into the ring
            building process").
        ``include_prefix_part``
            Append the prefix-targeted descriptors for the peer.
        ``optimize_close_part``
            Select the ``c`` union members closest to the peer; when
            disabled a uniform random ``c`` are sent instead.

        Interpretation note: "closest to the peer" uses the same
        balanced rule as UPDATELEAFSET (``c/2`` nearest successors plus
        ``c/2`` nearest predecessors of the peer, backfilled), not raw
        bidirectional ring distance.  The two differ exactly when one
        of the peer's sides sits across a large identifier gap; the raw
        rule then starves that side -- a sender's ``c`` ring-closest
        descriptors may *never* include the peer's farther-side
        neighbours, leaving a permanent leaf-set hole at small ``c``.
        The balanced rule sends precisely what the peer's
        UPDATELEAFSET retains, which is the stated point of the
        optimisation and matches the paper's always-perfect
        convergence.
        """
        config = self.config
        peer_id = peer.node_id

        # Union of all locally available information, freshest per id:
        # prefix table, then the leaf set (whose copy wins), then the
        # samples, then our own refreshed descriptor.
        union = dict(self._table_descriptors()) if feed_prefix_table else {}
        for desc in self.leaf_set:
            union[desc.node_id] = desc
        for desc in self._sampler.sample(config.random_samples):
            union.setdefault(desc.node_id, desc)
        own = self.descriptor.refreshed(self._now)
        union[own.node_id] = own
        # The peer gains nothing from its own descriptor.
        union.pop(peer_id, None)

        # Both parts are in (ring distance to peer, id) order.
        space = self._space
        mask = space.size - 1
        if optimize_close_part:
            close_ids, rest = split_balanced_ids(
                union, peer_id, mask, space.half, config.half_leaf_set
            )
            close_part = [union[nid] for nid in close_ids]
        else:
            shuffled = list(union.values())
            self._rng.shuffle(shuffled)
            close_part = shuffled[: config.leaf_set_size]
            close_set = {d.node_id for d in close_part}
            # A zero-capacity split is a plain ranking.
            _, ranked = split_balanced_ids(union, peer_id, mask, space.half, 0)
            rest = [nid for nid in ranked if nid not in close_set]

        # Prefix-targeted part: fill a hypothetical table for the peer
        # from the remaining union members; whatever finds a slot is
        # "potentially useful for the peer for its prefix table".
        # Union ids are unique and never equal to the peer (popped
        # above), so "does this descriptor land in a slot?" reduces to
        # counting occupancy per packed (row, column) up to k.
        prefix_part: list[NodeDescriptor] = []
        if include_prefix_part:
            digit_bits = space.digit_bits
            base_mask = space.digit_base - 1
            row_of, shift_of = slot_tables(space.bits, digit_bits)
            k = config.entries_per_slot
            occupancy: dict[int, int] = {}
            get = occupancy.get
            for nid in rest:
                row = row_of[(peer_id ^ nid).bit_length()]
                slot = (row << digit_bits) | ((nid >> shift_of[row]) & base_mask)
                count = get(slot, 0)
                if count < k:
                    occupancy[slot] = count + 1
                    prefix_part.append(union[nid])

        payload = tuple(close_part) + tuple(prefix_part)
        return BootstrapMessage(
            sender=own, descriptors=payload, is_reply=is_reply
        )

    def _table_descriptors(self) -> dict[int, NodeDescriptor]:
        """The prefix table's descriptors by id, in table order.

        The prefix table is the bulk of every CREATEMESSAGE union and
        changes far less often than the leaf set (whose members'
        timestamps refresh on most absorbs), so it is flattened once
        and reused until the table bumps ``version`` -- which every
        mutation does, including the direct calls the maintenance layer
        makes.  Callers copy the dict before adding to it.
        """
        table = self.prefix_table
        if table.version != self._table_stamp:
            self._table_union = {d.node_id: d for d in table.descriptors()}
            self._table_stamp = table.version
        return self._table_union

    # ------------------------------------------------------------------
    # UPDATELEAFSET + UPDATEPREFIXTABLE
    # ------------------------------------------------------------------

    def absorb(self, message: BootstrapMessage) -> None:
        """Apply a received message to the local state (Figure 2 lines
        7-8 / 5-6): UPDATELEAFSET then UPDATEPREFIXTABLE."""
        descriptors = list(message.all_descriptors())
        self.stats.descriptors_received += len(descriptors)
        if self.leaf_set.update(descriptors):
            self.stats.leaf_updates += 1
        self.stats.prefix_entries_added += self.prefix_table.update(
            descriptors
        )

    # ------------------------------------------------------------------
    # Thread bodies (driven by an engine)
    # ------------------------------------------------------------------

    def initiate_exchange(
        self,
    ) -> tuple[NodeDescriptor, BootstrapMessage] | None:
        """One iteration of the active thread, up to the send.

        Returns ``(peer, request)`` for the engine to deliver, or
        ``None`` when no peer is available.  The engine feeds the
        eventual answer to :meth:`handle_reply`.
        """
        peer = self.select_peer()
        if peer is None:
            return None
        return peer, self.request(peer)

    def request(self, peer: NodeDescriptor) -> BootstrapMessage:
        """The active thread's message to *peer*, counted as sent."""
        request = self.create_message(peer, is_reply=False)
        self.stats.requests_sent += 1
        self.stats.descriptors_sent += request.payload_size
        return request

    def handle_request(self, message: BootstrapMessage) -> BootstrapMessage:
        """One iteration of the passive thread.

        Creates the answer from the *pre-exchange* state (Figure 2
        passive lines 3-4), then absorbs the received descriptors.
        """
        self.stats.requests_received += 1
        reply = self.reply(message.sender)
        self.absorb(message)
        return reply

    def reply(self, requester: NodeDescriptor) -> BootstrapMessage:
        """The passive thread's answer to *requester*, counted as sent."""
        reply = self.create_message(requester, is_reply=True)
        self.stats.replies_sent += 1
        self.stats.descriptors_sent += reply.payload_size
        return reply

    def handle_reply(self, message: BootstrapMessage) -> None:
        """Completion of the active thread: absorb the answer."""
        self.stats.replies_received += 1
        self.absorb(message)

    def __repr__(self) -> str:
        return (
            f"BootstrapNode(id={self.node_id:#x}, "
            f"leaf={len(self.leaf_set)}/{self.config.leaf_set_size}, "
            f"prefix_entries={len(self.prefix_table)})"
        )
