"""Adapters binding the protocol state machines to the cycle engine.

The protocol objects in :mod:`repro.core` and :mod:`repro.sampling` are
engine-agnostic; these thin actors translate their transitions into the
:class:`~repro.simulator.engine.RequestReplyActor` interface.

Settled receivers
-----------------
In a static network a node whose tables were perfect at the last
measurement is a fixed point: UPDATELEAFSET and UPDATEPREFIXTABLE
change nothing it holds.  :class:`SettledNodes` is the set of such
nodes a :class:`~repro.simulator.bootstrap_sim.BootstrapSimulation`
shares with its :class:`BootstrapActor` population, and the actors
build no message addressed to one: a request to a settled target and
a reply to a settled requester travel as :class:`Unbuilt`, and a
settled receiver absorbs nothing.  The skipped build still draws its
``cr`` samples (:meth:`BootstrapNode.skip_message`); peer selection,
drop coins and transport accounting run as before.  The simulation
owns the gates (see its module docstring).
"""

from __future__ import annotations

from collections.abc import Container, Hashable, Iterable

from ..core.descriptor import NodeDescriptor
from ..core.messages import BootstrapMessage
from ..core.protocol import BootstrapNode
from ..sampling.newscast import NewscastNode
from .engine import RequestReplyActor

__all__ = ["BootstrapActor", "NewscastActor", "SettledNodes", "Unbuilt"]


class SettledNodes:
    """Node ids whose tables were perfect at the last measurement.

    :meth:`record` stamps each node with its leaf-set object and the
    leaf-set and prefix-table versions, and membership holds only while
    the stamp still matches: a write from outside the cycle engine
    (:meth:`BootstrapNode.restart`, the maintenance layer's evictions)
    unsettles the node at once.  Nodes that have not started are never
    recorded, since their start clears the prefix table.
    """

    __slots__ = ("_stamps",)

    def __init__(self) -> None:
        self._stamps: dict[int, tuple] = {}

    def __contains__(self, node_id: object) -> bool:
        stamp = self._stamps.get(node_id)  # type: ignore[arg-type]
        if stamp is None:
            return False
        node, leaf_set, leaf_version, table_version = stamp
        return (
            node.leaf_set is leaf_set
            and leaf_set.version == leaf_version
            and node.prefix_table.version == table_version
        )

    def record(self, nodes: Iterable[BootstrapNode]) -> None:
        """Replace the set with the started nodes among *nodes*."""
        self._stamps = {
            node.node_id: (
                node,
                node.leaf_set,
                node.leaf_set.version,
                node.prefix_table.version,
            )
            for node in nodes
            if node.started
        }

    def clear(self) -> None:
        """Forget every node (membership changed)."""
        self._stamps = {}


class Unbuilt:
    """A message the cycle engine did not build because its receiver is
    settled.  Only the sender travels, so a target can still tell whom
    it answers."""

    __slots__ = ("sender",)

    def __init__(self, sender: NodeDescriptor) -> None:
        self.sender = sender


class BootstrapActor(RequestReplyActor):
    """Drives a :class:`BootstrapNode` through the cycle engine.

    The loosely synchronised start (paper Section 4, last paragraph) is
    modelled by starting the node at its first activation: the engine
    activates nodes in uniform random order within cycle 0, which is
    exactly "each node at a different random time within an interval of
    length Δ".

    ``settled`` holds the ids of the settled nodes (module docstring);
    it is empty unless a simulation shares its :class:`SettledNodes`,
    so an actor on its own builds every message.
    """

    __slots__ = ("node", "settled")

    def __init__(self, node: BootstrapNode) -> None:
        self.node = node
        self.settled: Container[int] = frozenset()

    def set_time(self, now: float) -> None:
        self.node.set_time(now)

    def begin_exchange(
        self,
    ) -> tuple[Hashable, BootstrapMessage | Unbuilt] | None:
        node = self.node
        if not node.started:
            node.start()
        peer = node.select_peer()
        if peer is None:
            return None
        if peer.node_id in self.settled:
            node.skip_message()
            return peer.node_id, Unbuilt(node.descriptor)
        return peer.node_id, node.request(peer)

    def answer(
        self, request: BootstrapMessage | Unbuilt
    ) -> BootstrapMessage | Unbuilt:
        node = self.node
        requester = request.sender
        if requester.node_id in self.settled:
            node.skip_message()
            reply: BootstrapMessage | Unbuilt = Unbuilt(node.descriptor)
        else:
            reply = node.reply(requester)
        if type(request) is not Unbuilt:
            node.stats.requests_received += 1
            node.absorb(request)
        return reply

    def complete(self, reply: BootstrapMessage | Unbuilt) -> None:
        if type(reply) is not Unbuilt:
            self.node.handle_reply(reply)


class NewscastActor(RequestReplyActor):
    """Drives a :class:`NewscastNode` through the cycle engine.

    The payload of an exchange is the tuple of descriptors produced by
    :meth:`NewscastNode.gossip_payload`; answers are built from the
    responder's pre-merge view, mirroring a symmetric UDP exchange.
    """

    __slots__ = ("node",)

    def __init__(self, node: NewscastNode) -> None:
        self.node = node

    def set_time(self, now: float) -> None:
        self.node.set_time(now)

    def begin_exchange(self) -> tuple[Hashable, tuple] | None:
        peer = self.node.select_peer()
        if peer is None:
            return None
        return peer.node_id, self.node.gossip_payload()

    def answer(self, request: Iterable) -> tuple:
        reply = self.node.gossip_payload()
        self.node.merge(request)
        return reply

    def complete(self, reply: Iterable) -> None:
        self.node.merge(reply)
