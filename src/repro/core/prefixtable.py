"""The prefix (routing) table built by the bootstrapping service.

Section 4 of the paper:

    "The prefix table of a given node contains up to ``k`` IDs for all
    pairs ``(i, j)``, where ``i`` is the length (in digits) of the
    longest common prefix of the ID and the node's own ID, and ``j`` is
    the first differing digit.  The entries may be less than ``k`` if
    there are not enough node IDs with the desired prefix and digit
    among the participating nodes."

This is the table underlying Pastry, Kademlia, Tapestry and Bamboo
routing.  Note that for row ``i`` the column equal to the node's own
``i``-th digit can never be occupied (such an identifier would share a
longer prefix), so a table over base-``2**b`` digits has
``num_digits x (2**b - 1)`` usable slots.

``UPDATEPREFIXTABLE`` "takes a set of node descriptors and fills in any
missing table entries from this set" -- it only *fills*, never evicts,
which is what :meth:`PrefixTable.update` implements.  (Eviction policies
such as proximity optimisation belong to the overlay consuming the
table, not to the bootstrap.)
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .descriptor import NodeDescriptor
from .idspace import IDSpace, slot_tables

__all__ = ["PrefixTable"]


class PrefixTable:
    """Per-node prefix table with up to ``k`` descriptors per slot.

    Parameters
    ----------
    space:
        Identifier space (defines digit geometry).
    own_id:
        The owning node's identifier; determines every other
        identifier's slot.
    entries_per_slot:
        Paper's ``k``.

    ``version`` changes whenever an entry is added or removed, so a
    cache built from the table can tell when it is stale.
    """

    __slots__ = ("_space", "_own_id", "_k", "_slots", "_ids", "_bits",
                 "_digit_bits", "_num_digits", "_base_mask", "_row_of",
                 "_shift_of", "version")

    def __init__(
        self, space: IDSpace, own_id: int, entries_per_slot: int
    ) -> None:
        if entries_per_slot < 1:
            raise ValueError(
                f"entries_per_slot must be >= 1, got {entries_per_slot}"
            )
        space.validate(own_id)
        self._space = space
        self._own_id = own_id
        self._k = entries_per_slot
        # slot -> {node_id: descriptor}; slots created lazily since only
        # ~log_base(N) rows are ever populated in practice.
        self._slots: dict[tuple[int, int], dict[int, NodeDescriptor]] = {}
        self._ids: set[int] = set()
        # Cached geometry for the hot path.
        self._bits = space.bits
        self._digit_bits = space.digit_bits
        self._num_digits = space.num_digits
        self._base_mask = space.digit_base - 1
        self._row_of, self._shift_of = slot_tables(space.bits, space.digit_bits)
        self.version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def own_id(self) -> int:
        """Identifier of the owning node."""
        return self._own_id

    @property
    def entries_per_slot(self) -> int:
        """Paper's ``k``."""
        return self._k

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ids

    def member_ids(self) -> set[int]:
        """All identifiers stored anywhere in the table (fresh set)."""
        return set(self._ids)

    def descriptors(self) -> list[NodeDescriptor]:
        """Every stored descriptor (all slots flattened)."""
        return [
            desc
            for slot in self._slots.values()
            for desc in slot.values()
        ]

    def iter_slots(
        self,
    ) -> Iterator[tuple[tuple[int, int], list[NodeDescriptor]]]:
        """Yield ``((row, column), descriptors)`` for each non-empty slot."""
        for key, slot in self._slots.items():
            yield key, list(slot.values())

    def slot_entries(self, row: int, column: int) -> list[NodeDescriptor]:
        """Descriptors stored at ``(row, column)`` (possibly empty)."""
        slot = self._slots.get((row, column))
        return list(slot.values()) if slot else []

    def occupancy(self) -> dict[tuple[int, int], int]:
        """Map of slot -> number of stored entries, for convergence
        accounting against the reference tables."""
        return {key: len(slot) for key, slot in self._slots.items() if slot}

    # ------------------------------------------------------------------
    # Slot geometry
    # ------------------------------------------------------------------

    def slot_for(self, node_id: int) -> tuple[int, int]:
        """The ``(row, column)`` where *node_id* belongs in this table."""
        own = self._own_id
        diff = own ^ node_id
        if diff == 0:
            raise ValueError("a node has no slot for its own identifier")
        row = (self._bits - diff.bit_length()) // self._digit_bits
        shift = self._bits - (row + 1) * self._digit_bits
        column = (node_id >> shift) & self._base_mask
        return row, column

    # ------------------------------------------------------------------
    # The paper's UPDATEPREFIXTABLE
    # ------------------------------------------------------------------

    def add(self, desc: NodeDescriptor) -> bool:
        """Insert *desc* if its slot has room and the id is new.

        Returns ``True`` when an entry was actually added.
        """
        return self.update((desc,)) == 1

    def update(self, descriptors: Iterable[NodeDescriptor]) -> int:
        """Fill missing entries from *descriptors* (UPDATEPREFIXTABLE).

        Returns the number of entries added.  Descriptors are taken in
        order, so within a batch the first to reach a slot wins it.
        """
        own = self._own_id
        ids = self._ids
        slots = self._slots
        k = self._k
        digit_bits = self._digit_bits
        base_mask = self._base_mask
        row_of = self._row_of
        shift_of = self._shift_of
        added = 0
        for desc in descriptors:
            node_id = desc.node_id
            if node_id in ids or node_id == own:
                continue
            row = row_of[(own ^ node_id).bit_length()]
            key = (row, (node_id >> shift_of[row]) & base_mask)
            slot = slots.get(key)
            if slot is None:
                slots[key] = {node_id: desc}
            elif len(slot) >= k:
                continue
            else:
                slot[node_id] = desc
            ids.add(node_id)
            added += 1
        if added:
            self.version += 1
        return added

    def clear(self) -> None:
        """Empty the table (protocol start: "clear their prefix table")."""
        self._slots.clear()
        self._ids.clear()
        self.version += 1

    def forget(self, node_id: int) -> bool:
        """Drop *node_id* if present (used by churn handling in the
        overlays layer; the bootstrap protocol itself never evicts).

        Returns ``True`` when an entry was removed.
        """
        if node_id not in self._ids:
            return False
        key = self.slot_for(node_id)
        slot = self._slots.get(key)
        if slot is not None:
            slot.pop(node_id, None)
            if not slot:
                del self._slots[key]
        self._ids.discard(node_id)
        self.version += 1
        return True

    # ------------------------------------------------------------------
    # Routing view
    # ------------------------------------------------------------------

    def route_candidates(self, target_id: int) -> list[NodeDescriptor]:
        """Descriptors in the slot matching *target_id*'s next digit.

        This is the prefix-routing step: the slot at
        ``row = |common prefix(own, target)|`` and
        ``column = target's digit at that row`` holds nodes that share
        one more digit with the target than we do.  The paper leans on
        this even before convergence: "the prefix tables -- even before
        completed -- can already fulfil a kind of routing function".
        Returns an empty list when the target equals our own id or the
        slot is empty.
        """
        if target_id == self._own_id:
            return []
        row, column = self.slot_for(target_id)
        return self.slot_entries(row, column)

    def best_match(self, target_id: int) -> NodeDescriptor | None:
        """The stored descriptor sharing the longest prefix with
        *target_id* (ties broken by smaller ring distance is unnecessary
        here; any maximal-prefix entry works for greedy routing)."""
        best: NodeDescriptor | None = None
        best_len = -1
        space = self._space
        for slot in self._slots.values():
            for desc in slot.values():
                cpl = space.common_prefix_digits(desc.node_id, target_id)
                if cpl > best_len:
                    best = desc
                    best_len = cpl
        return best

    def __repr__(self) -> str:
        return (
            f"PrefixTable(own={self._own_id:#x}, k={self._k}, "
            f"entries={len(self._ids)}, slots={len(self._slots)})"
        )
