"""Node descriptors: the currency exchanged by every gossip protocol here.

A descriptor bundles a node's overlay identifier with the address needed
to reach it and a logical timestamp recording when the information was
produced.  NEWSCAST (Section 3 of the paper) keeps the *freshest*
descriptors by timestamp; the bootstrapping protocol itself only needs
``(node_id, address)`` but carries timestamps through unchanged so the
two layers can share one message vocabulary.

Addresses are deliberately opaque: the simulators use integer node
indices, while the asyncio prototype uses ``(host, port)`` tuples.  Any
hashable value works.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterable

__all__ = ["NodeDescriptor", "freshest_by_id", "dedupe_by_id"]


@dataclass(frozen=True)
class NodeDescriptor:
    """Immutable advertisement of a single node.

    Attributes
    ----------
    node_id:
        The node's overlay identifier (an integer in some
        :class:`~repro.core.idspace.IDSpace`).
    address:
        Transport-level address.  Opaque and hashable; equal addresses
        mean "the same endpoint".
    timestamp:
        Logical creation time of this descriptor.  Larger is fresher.
        Gossip layers refresh their own descriptor's timestamp each time
        they advertise themselves.
    """

    node_id: int
    address: Hashable
    timestamp: float = 0.0

    def refreshed(self, timestamp: float) -> NodeDescriptor:
        """Return a copy of this descriptor stamped with *timestamp*."""
        return NodeDescriptor(self.node_id, self.address, timestamp)

    def is_fresher_than(self, other: NodeDescriptor) -> bool:
        """Return whether this descriptor supersedes *other*.

        Only meaningful for descriptors of the same node; the caller is
        responsible for grouping by ``node_id`` first.
        """
        return self.timestamp > other.timestamp

    def __repr__(self) -> str:  # keep simulator dumps readable
        return (
            f"NodeDescriptor(id={self.node_id:#x}, "
            f"addr={self.address!r}, ts={self.timestamp})"
        )


def freshest_by_id(
    descriptors: Iterable[NodeDescriptor],
) -> dict[int, NodeDescriptor]:
    """Collapse *descriptors* to one per node id, keeping the freshest.

    This is the merge rule shared by NEWSCAST views and the bootstrap
    protocol's local caches: stale advertisements of a node never
    overwrite newer ones.
    """
    best: dict[int, NodeDescriptor] = {}
    for desc in descriptors:
        current = best.get(desc.node_id)
        if current is None or desc.timestamp > current.timestamp:
            best[desc.node_id] = desc
    return best


def dedupe_by_id(
    descriptors: Iterable[NodeDescriptor],
) -> list[NodeDescriptor]:
    """Return *descriptors* with duplicate node ids removed (freshest
    wins), preserving no particular order guarantees beyond determinism
    for a deterministic input order."""
    return list(freshest_by_id(descriptors).values())
