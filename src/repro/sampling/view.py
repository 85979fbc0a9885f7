"""Bounded partial views for gossip membership protocols.

NEWSCAST's node state is a small set of node descriptors ("approximately
30 IP addresses, along with the ports, timestamps, and descriptors such
as node IDs") from which it keeps "a fixed number of freshest addresses
(based on timestamps)" after every exchange.  :class:`PartialView`
implements that bounded freshest-first container.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from operator import attrgetter

from ..core.descriptor import NodeDescriptor

__all__ = ["PartialView"]

_node_id = attrgetter("node_id")
_timestamp = attrgetter("timestamp")


class PartialView:
    """Fixed-capacity descriptor cache keeping the freshest per node.

    Parameters
    ----------
    owner_id:
        Identifier of the owning node; its own descriptor is never
        stored (a node need not sample itself).
    capacity:
        Maximum number of descriptors retained (NEWSCAST's view size).
    """

    __slots__ = ("_owner_id", "_capacity", "_entries")

    def __init__(self, owner_id: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"view capacity must be >= 1, got {capacity}")
        self._owner_id = owner_id
        self._capacity = capacity
        self._entries: dict[int, NodeDescriptor] = {}

    @property
    def capacity(self) -> int:
        """Maximum number of descriptors retained."""
        return self._capacity

    @property
    def owner_id(self) -> int:
        """Identifier of the owning node."""
        return self._owner_id

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __iter__(self) -> Iterator[NodeDescriptor]:
        return iter(self._entries.values())

    def descriptors(self) -> list[NodeDescriptor]:
        """All retained descriptors (order unspecified but stable)."""
        return list(self._entries.values())

    def member_ids(self) -> set[int]:
        """Identifiers currently in the view (fresh set)."""
        return set(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def remove(self, node_id: int) -> bool:
        """Forget *node_id*; returns whether it was present."""
        return self._entries.pop(node_id, None) is not None

    # ------------------------------------------------------------------
    # The NEWSCAST merge rule
    # ------------------------------------------------------------------

    def merge(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Fold *descriptors* into the view, keeping the ``capacity``
        freshest entries (one per node, freshest timestamp wins)."""
        entries = self._entries
        owner = self._owner_id
        for desc in descriptors:
            if desc.node_id == owner:
                continue
            current = entries.get(desc.node_id)
            if current is None or desc.timestamp > current.timestamp:
                entries[desc.node_id] = desc
        if len(entries) > self._capacity:
            # Keep the freshest `capacity` entries; ties broken by id so
            # the outcome is deterministic for deterministic inputs.
            # Two stable C-keyed sorts (id, then timestamp descending)
            # give the (-timestamp, id) order without a Python key call
            # per entry.
            survivors = sorted(entries.values(), key=_node_id)
            survivors.sort(key=_timestamp, reverse=True)
            self._entries = {
                d.node_id: d for d in survivors[: self._capacity]
            }

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def random_descriptor(
        self, rng: random.Random
    ) -> NodeDescriptor | None:
        """A uniform random entry, or ``None`` when empty."""
        if not self._entries:
            return None
        return rng.choice(list(self._entries.values()))

    def random_sample(
        self, count: int, rng: random.Random
    ) -> list[NodeDescriptor]:
        """Up to *count* distinct uniform random entries."""
        if count <= 0 or not self._entries:
            return []
        pool = list(self._entries.values())
        if count >= len(pool):
            return pool
        return rng.sample(pool, count)

    def oldest(self) -> NodeDescriptor | None:
        """The stalest entry (smallest timestamp); ``None`` when empty.

        Not used by plain NEWSCAST but handy for healing policies and
        tests that reason about freshness."""
        if not self._entries:
            return None
        return min(self._entries.values(), key=lambda d: (d.timestamp, d.node_id))

    def __repr__(self) -> str:
        return (
            f"PartialView(owner={self._owner_id:#x}, "
            f"{len(self._entries)}/{self._capacity})"
        )
