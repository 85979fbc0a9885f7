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

Build after the coin
--------------------
Both actors build through the engine's lazy hooks
(:meth:`~repro.simulator.engine.RequestReplyActor.pick`, ``respond``,
``send``), so a message the network loses is never built.  A lost
bootstrap message still draws its ``cr`` samples, and an answer is
still built from the responder's pre-exchange state: its draft carries
the request, which ``send`` applies only after building the answer.
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
    settled (or the network lost it).  Only the sender travels, so a
    target can still tell whom it answers."""

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
    so an actor on its own builds every delivered message.  A lost
    message goes unbuilt only while CREATEMESSAGE is the protocol's
    own (``skips_lost``): ablation variants override it, and some
    draw randomness in it that :meth:`BootstrapNode.skip_message`
    does not.
    """

    __slots__ = ("node", "settled", "skips_lost")

    def __init__(self, node: BootstrapNode) -> None:
        self.node = node
        self.settled: Container[int] = frozenset()
        self.skips_lost = (
            type(node).create_message is BootstrapNode.create_message
        )

    def set_time(self, now: float) -> None:
        self.node.set_time(now)

    def pick(
        self,
    ) -> tuple[Hashable, tuple[NodeDescriptor, None]] | None:
        node = self.node
        if not node.started:
            node.start()
        peer = node.select_peer()
        if peer is None:
            return None
        return peer.node_id, (peer, None)

    def respond(
        self, request: BootstrapMessage | Unbuilt
    ) -> tuple[NodeDescriptor, BootstrapMessage | Unbuilt]:
        return request.sender, request

    def send(
        self,
        draft: tuple[NodeDescriptor, BootstrapMessage | Unbuilt | None],
        delivered: bool,
    ) -> BootstrapMessage | Unbuilt:
        peer, request = draft
        node = self.node
        if peer.node_id in self.settled or (self.skips_lost and not delivered):
            node.skip_message()
            message: BootstrapMessage | Unbuilt = Unbuilt(node.descriptor)
        elif request is None:
            message = node.request(peer)
        else:
            message = node.reply(peer)
        if request is not None and type(request) is not Unbuilt:
            node.stats.requests_received += 1
            node.absorb(request)
        return message

    def complete(self, reply: BootstrapMessage | Unbuilt) -> None:
        if type(reply) is not Unbuilt:
            self.node.handle_reply(reply)


class NewscastActor(RequestReplyActor):
    """Drives a :class:`NewscastNode` through the cycle engine.

    The payload of an exchange is the tuple of descriptors produced by
    :meth:`NewscastNode.gossip_payload`; answers are built from the
    responder's pre-merge view, mirroring a symmetric UDP exchange.
    A payload the network loses is never built.
    """

    __slots__ = ("node",)

    def __init__(self, node: NewscastNode) -> None:
        self.node = node

    def set_time(self, now: float) -> None:
        self.node.set_time(now)

    def pick(self) -> tuple[Hashable, None] | None:
        peer = self.node.select_peer()
        if peer is None:
            return None
        return peer.node_id, None

    def respond(self, request: Iterable) -> Iterable:
        return request

    def send(self, draft: Iterable | None, delivered: bool) -> tuple | None:
        payload = self.node.gossip_payload() if delivered else None
        if draft is not None:
            self.node.merge(draft)
        return payload

    def complete(self, reply: Iterable) -> None:
        self.node.merge(reply)
