"""The leaf set: a node's closest ring neighbours.

Section 4 of the paper:

    "Method UPDATELEAFSET takes a set of node descriptors (addresses and
    corresponding IDs) and tries to improve the leaf set using these
    descriptors.  First, it merges the set given as a parameter, and the
    current leaf set, and then sorts this set according to distance from
    the node's own ID in the ring of all possible IDs.  Note that all
    IDs can be classified as successors and predecessors: if an ID is
    closer in the increasing direction, it is a successor, otherwise it
    is a predecessor.  Then, in an effort to collect an equal amount of
    successors and predecessors, the method attempts to keep an equal
    number (c/2) of closest successors and predecessors.  If there are
    not enough successors or predecessors, then the leaf set is filled
    with the closest elements in the other direction."

:class:`LeafSet` implements exactly that rule.  It also provides the
sorted-by-distance view that ``SELECTPEER`` needs ("picks a random
element from the first half of the sorted list").
"""

from __future__ import annotations

from heapq import nsmallest
from collections.abc import Iterable

from .descriptor import NodeDescriptor
from .idspace import IDSpace

__all__ = [
    "LeafSet",
    "balanced_counts",
    "select_balanced_ids",
    "split_balanced_ids",
]


def balanced_counts(
    n_succ: int, n_pred: int, half_capacity: int
) -> tuple[int, int]:
    """How many successors and predecessors the balanced rule keeps out
    of *n_succ* / *n_pred* candidates: *half_capacity* per side, the
    shortfall of one side backfilled from the other."""
    take_succ = min(half_capacity, n_succ)
    take_pred = min(half_capacity, n_pred)
    spare = (half_capacity - take_succ) + (half_capacity - take_pred)
    if spare:
        extra = min(spare, n_succ - take_succ)
        take_succ += extra
        spare -= extra
        take_pred += min(spare, n_pred - take_pred)
    return take_succ, take_pred


def select_balanced_ids(
    space: IDSpace, own_id: int, candidate_ids: Iterable[int], half_capacity: int
) -> set[int]:
    """The paper's leaf-set selection rule, as a pure function on ids.

    Keeps the *half_capacity* closest successors and *half_capacity*
    closest predecessors of *own_id* among *candidate_ids*, backfilling
    from the other direction when one side runs short.  Shared between
    :class:`LeafSet` and the reference-table oracle so that "perfect
    leaf set" means exactly "what UPDATELEAFSET converges to given every
    identifier".
    """
    mask = space.size - 1
    half_ring = space.half

    successors: list[tuple[int, int]] = []
    predecessors: list[tuple[int, int]] = []
    for node_id in candidate_ids:
        if node_id == own_id:
            continue
        forward = (node_id - own_id) & mask
        if forward <= half_ring:
            successors.append((forward, node_id))
        else:
            predecessors.append((mask + 1 - forward, node_id))

    take_succ, take_pred = balanced_counts(
        len(successors), len(predecessors), half_capacity
    )
    # nsmallest instead of a full sort: candidate pools are much larger
    # than the c/2-ish take.  Distances are unique per side, so the
    # selected sets match the sorted-prefix rule exactly.  The insertion
    # order (successors, then predecessors, each closest first) fixes
    # the set's iteration order, which LeafSet's member order inherits.
    chosen = {node_id for _, node_id in nsmallest(take_succ, successors)}
    chosen.update(
        node_id for _, node_id in nsmallest(take_pred, predecessors)
    )
    return chosen


def split_balanced_ids(
    ids: Iterable[int],
    origin: int,
    mask: int,
    half_ring: int,
    half_capacity: int,
) -> tuple[list[int], list[int]]:
    """Partition *ids* around *origin* into ``(close, rest)``.

    ``close`` is :func:`select_balanced_ids`'s pick and ``rest`` every
    other id, both in ``(ring distance to origin, id)`` order -- the
    layout of a CREATEMESSAGE payload.  *ids* must not contain
    *origin*; *mask* is ``space.size - 1`` and *half_ring* is
    ``space.half``.

    One sort does both jobs.  An id's ring distance is its forward
    distance when it is a successor and its backward distance
    otherwise, so each id is decorated once with its side-relative
    distance.  Within one side, ranked order is distance order, so the
    balanced pick is simply the first ``take`` ids of each side in
    ranked order.
    """
    size = mask + 1
    decorated = []
    append = decorated.append
    n_succ = 0
    for nid in ids:
        forward = (nid - origin) & mask
        if forward <= half_ring:
            append((forward, nid))
            n_succ += 1
        else:
            append((size - forward, nid))
    decorated.sort()
    take_succ, take_pred = balanced_counts(
        n_succ, len(decorated) - n_succ, half_capacity
    )
    close: list[int] = []
    rest: list[int] = []
    walked = 0
    for _, nid in decorated:
        if not (take_succ or take_pred):
            break
        walked += 1
        if (nid - origin) & mask <= half_ring:
            if take_succ:
                take_succ -= 1
                close.append(nid)
                continue
        elif take_pred:
            take_pred -= 1
            close.append(nid)
            continue
        rest.append(nid)
    rest.extend([nid for _, nid in decorated[walked:]])
    return close, rest


class LeafSet:
    """Balanced set of the closest successors and predecessors.

    Parameters
    ----------
    space:
        The identifier space (ring geometry).
    own_id:
        Identifier of the node owning this leaf set.  Never stored in
        the set itself.
    size:
        Paper's ``c``: total capacity.  ``c/2`` per direction.

    ``version`` changes whenever an entry is added, removed or
    replaced, so a stamp taken from the set can tell when it is stale.
    """

    __slots__ = (
        "_space",
        "_own_id",
        "_size",
        "_half",
        "_members",
        "_mask",
        "_closest",
        "_succ_bound",
        "_pred_bound",
        "version",
    )

    def __init__(self, space: IDSpace, own_id: int, size: int) -> None:
        if size < 2 or size % 2 != 0:
            raise ValueError(f"leaf-set size must be even and >= 2, got {size}")
        space.validate(own_id)
        self._space = space
        self._own_id = own_id
        self._size = size
        self._half = size // 2
        self._mask = space.size - 1
        self._members: dict[int, NodeDescriptor] = {}
        # closest_half()'s list, built on first use after a change.
        self._closest: list[NodeDescriptor] | None = None
        # Per-side admission bounds: a newcomer can change the balanced
        # selection only if its side-relative distance is below its
        # side's bound.  See _set_bounds.
        self._succ_bound = self._pred_bound = space.size
        self.version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def own_id(self) -> int:
        """Identifier of the owning node."""
        return self._own_id

    @property
    def capacity(self) -> int:
        """Maximum number of members (paper's ``c``)."""
        return self._size

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def __iter__(self):
        return iter(self._members.values())

    def member_ids(self) -> set[int]:
        """The identifiers currently held (a fresh set)."""
        return set(self._members)

    def descriptors(self) -> list[NodeDescriptor]:
        """All member descriptors, in unspecified (but stable) order."""
        return list(self._members.values())

    def get(self, node_id: int) -> NodeDescriptor | None:
        """Return the descriptor held for *node_id*, or ``None``."""
        return self._members.get(node_id)

    def remove(self, node_id: int) -> bool:
        """Evict *node_id*; returns whether it was a member.

        The bootstrap protocol itself never evicts (UPDATELEAFSET only
        improves); this exists for the *maintenance* layer that takes
        over once the overlay is built and must purge failed
        neighbours.
        """
        if self._members.pop(node_id, None) is None:
            return False
        self._closest = None
        self._succ_bound = self._pred_bound = self._mask + 1
        self.version += 1
        return True

    # ------------------------------------------------------------------
    # The paper's UPDATELEAFSET
    # ------------------------------------------------------------------

    def update(self, descriptors: Iterable[NodeDescriptor]) -> bool:
        """Merge *descriptors* into the leaf set (paper's UPDATELEAFSET).

        Returns ``True`` when membership changed (a useful convergence
        signal for experiments; the protocol itself never needs it).

        The reselect is skipped when no newcomer passes its side's
        admission bound (see :meth:`_set_bounds`): UPDATELEAFSET would
        then keep exactly the current members.  It would also rebuild
        them in the current order, because the selection inserts the
        same ids in the same sorted sequence, so skipping changes
        nothing observable.
        """
        own = self._own_id
        members = self._members
        merged: dict[int, NodeDescriptor] = dict(members)
        mask = self._mask
        half_ring = self._space.half
        succ_bound = self._succ_bound
        pred_bound = self._pred_bound
        new_candidates = False
        admitted = False
        refreshed = False
        for desc in descriptors:
            node_id = desc.node_id
            if node_id == own:
                continue
            current = merged.get(node_id)
            if current is None:
                merged[node_id] = desc
                new_candidates = True
                if not admitted:
                    forward = (node_id - own) & mask
                    if forward <= half_ring:
                        admitted = forward < succ_bound
                    else:
                        admitted = mask + 1 - forward < pred_bound
            elif desc.timestamp > current.timestamp:
                # Same node, fresher advertisement: keep the new address
                # but membership is unchanged.
                merged[node_id] = desc
                refreshed = refreshed or node_id in members
        if not admitted:
            if refreshed:
                # Membership identical, only descriptor contents moved.
                if new_candidates:
                    merged = {node_id: merged[node_id] for node_id in members}
                self._members = merged
                self._closest = None
                self.version += 1
            return False

        selected = self._select(merged)
        changed = selected.keys() != members.keys()
        self._members = selected
        self._closest = None
        self._set_bounds()
        self.version += 1
        return changed

    def _set_bounds(self) -> None:
        """Recompute the per-side admission bounds after a reselect.

        A full leaf set whose side holds at least ``c/2`` members admits
        a newcomer on that side only if it is closer than the side's
        farthest member: anything farther would lose to every member,
        and the other side's backfill count cannot change either.  A
        side holding fewer than ``c/2``, or a set that is not full,
        admits everything (the bound is the ring size).
        """
        size = self._mask + 1
        succ_bound = pred_bound = size
        if len(self._members) >= self._size:
            own = self._own_id
            mask = self._mask
            half_ring = self._space.half
            succ_count = succ_max = pred_max = 0
            for node_id in self._members:
                forward = (node_id - own) & mask
                if forward <= half_ring:
                    succ_count += 1
                    if forward > succ_max:
                        succ_max = forward
                elif size - forward > pred_max:
                    pred_max = size - forward
            if succ_count >= self._half:
                succ_bound = succ_max
            if self._size - succ_count >= self._half:
                pred_bound = pred_max
        self._succ_bound = succ_bound
        self._pred_bound = pred_bound

    def _select(
        self, candidates: dict[int, NodeDescriptor]
    ) -> dict[int, NodeDescriptor]:
        """Keep the c/2 closest successors and c/2 closest predecessors,
        backfilling from the other direction when one side runs short."""
        chosen_ids = select_balanced_ids(
            self._space, self._own_id, candidates, self._half
        )
        return {node_id: candidates[node_id] for node_id in chosen_ids}

    # ------------------------------------------------------------------
    # Views used by the protocol
    # ------------------------------------------------------------------

    def sorted_by_distance(self) -> list[NodeDescriptor]:
        """Members ordered by ring distance from the owner (closest
        first, ties broken by identifier)."""
        own = self._own_id
        mask = self._mask

        def key(desc: NodeDescriptor) -> tuple[int, int]:
            forward = (desc.node_id - own) & mask
            backward = (own - desc.node_id) & mask
            return (min(forward, backward), desc.node_id)

        return sorted(self._members.values(), key=key)

    def closest_half(self) -> list[NodeDescriptor]:
        """The first half of :meth:`sorted_by_distance`.

        ``SELECTPEER`` draws uniformly from this list.  We round the
        half up (``ceil(n/2)``) so that a leaf set holding a single
        member still yields a peer during the very first cycles.

        The list is cached until the held descriptors next change, so
        callers must not mutate it.
        """
        closest = self._closest
        if closest is None:
            ordered = self.sorted_by_distance()
            closest = self._closest = ordered[: (len(ordered) + 1) // 2]
        return closest

    def successors(self) -> list[NodeDescriptor]:
        """Members in the increasing direction, closest first."""
        own = self._own_id
        mask = self._mask
        half_ring = self._space.half
        out = [
            desc
            for desc in self._members.values()
            if ((desc.node_id - own) & mask) <= half_ring
        ]
        out.sort(key=lambda d: (d.node_id - own) & mask)
        return out

    def predecessors(self) -> list[NodeDescriptor]:
        """Members in the decreasing direction, closest first."""
        own = self._own_id
        mask = self._mask
        half_ring = self._space.half
        out = [
            desc
            for desc in self._members.values()
            if ((desc.node_id - own) & mask) > half_ring
        ]
        out.sort(key=lambda d: (own - d.node_id) & mask)
        return out

    def covers(self, target_id: int) -> bool:
        """Return whether *target_id* falls inside the arc spanned by the
        current leaf set (used by leaf-set routing in the overlays)."""
        if not self._members:
            return False
        succ = self.successors()
        pred = self.predecessors()
        own = self._own_id
        mask = self._mask
        hi = succ[-1].node_id if succ else own
        lo = pred[-1].node_id if pred else own
        # target within [lo, hi] going clockwise through own.
        span = (hi - lo) & mask
        offset = (target_id - lo) & mask
        return offset <= span

    def __repr__(self) -> str:
        return (
            f"LeafSet(own={self._own_id:#x}, size={self._size}, "
            f"members={len(self._members)})"
        )
