"""Pool-resident structure-of-arrays state for the vector engine.

One object per node -- half a dozen small arrays each -- would make
every wave kernel re-assemble slabs from per-node pieces, and past
~2^16 nodes the engine's ceiling would be exactly that object layer:
allocator traffic for tiny arrays, pointer-chasing gathers, and a
Python attribute hop per touched field.  This module keeps the whole
population in one **arena** per simulation instead:

* fixed-width per-node fields (own id, leaf table + length,
  occupancy counts, admission windows, flags) live in preallocated
  contiguous slabs indexed by a dense node *rank*;
* variable-length per-node tables (prefix ids/slots and their dense
  id-universe indices) live as windows over shared growable buffers
  (:class:`_VarPool`), with per-rank offset/length/capacity cursors;
* under the NEWSCAST sampler, each rank's view is a row of
  :class:`ViewSlab` (ids and timestamps in view order), so a cycle's
  gossip merges and every peer-sampling draw are slab passes too;
* the wave kernels read and write these slabs for a whole wave at
  once: the wave absorb installs every receiver's prefix admissions
  through one batched pool write (:meth:`_VarPool.write_many`) and
  reselects every touched leaf row in one padded frame, so no Python
  step runs per receiver;
* the chunk start writes every starting node of a chunk the same way:
  one slab write empties their prefix windows and occupancy rows, and
  one padded reselect seeds their leaf rows;
* :class:`ArenaState` is a read-only two-word handle ``(arena, rank)``
  exposing one node's fields as properties over the slabs -- the
  engine suite replays every start and exchange through
  ``BootstrapNode`` and compares its tables with these rows;
* :class:`SlabMeasure` recomputes convergence deficits for all dirty
  ranks in one slab scan instead of a Python loop per node, against
  perfect tables that :func:`perfect_tables` derives for the whole
  live population in array passes over the sorted live ids (the
  object-level ``ReferenceTables`` oracle is never built here).

Ranks are recycled through a free list on node death, windows are
compacted when a pool buffer fills, and slabs double when the
population outgrows them -- so churn-heavy schedules keep the arena's
footprint proportional to the live population's tables, not to the
membership event count.
"""

from __future__ import annotations

import numpy as _np

from ..engine_fast import kernels

__all__ = [
    "Arena",
    "ArenaState",
    "SlabMeasure",
    "ViewSlab",
    "perfect_tables",
]

#: Live ranks per array pass in :func:`perfect_tables`: scratch stays
#: O(block x c) for the leaf windows and O(block x digit base) for the
#: prefix bands, whatever the population.
_PACK_BLOCK = 2048


class _VarPool:
    """Variable-length per-rank windows over one shared buffer.

    Each rank owns a ``(offset, length, capacity)`` window; writes that
    fit the capacity are in-place, larger writes relocate the window to
    the buffer tail with geometric headroom, and a full buffer is
    compacted into a fresh one sized at 1.25x the in-use capacity.
    Nothing outside the pool holds a window across a write: readers
    slice (:meth:`view`) or gather (``kernels.segment_take``) afresh,
    so relocation and compaction never leave a stale alias behind.
    """

    __slots__ = ("buf", "off", "len", "cap", "tail")

    def __init__(self, capacity: int, dtype, item_hint: int) -> None:
        self.off = _np.zeros(capacity, dtype=_np.intp)
        self.len = _np.zeros(capacity, dtype=_np.intp)
        self.cap = _np.zeros(capacity, dtype=_np.intp)
        self.buf = _np.empty(max(64, capacity * item_hint), dtype=dtype)
        self.tail = 0

    def grow_ranks(self, capacity: int) -> None:
        """Extend the per-rank cursor arrays (new ranks own nothing)."""
        for name in ("off", "len", "cap"):
            old = getattr(self, name)
            arr = _np.zeros(capacity, dtype=_np.intp)
            arr[: old.size] = old
            setattr(self, name, arr)

    def view(self, rank: int):
        o = self.off[rank]
        return self.buf[o:o + self.len[rank]]

    def release(self, rank: int) -> None:
        self.off[rank] = 0
        self.len[rank] = 0
        self.cap[rank] = 0

    def write(self, rank: int, arr, n_ranks: int) -> None:
        n = arr.size
        if n <= self.cap[rank]:
            o = self.off[rank]
            self.buf[o:o + n] = arr
            self.len[rank] = n
            return
        newcap = max(8, n + (n >> 2))
        if self.tail + newcap > self.buf.size:
            self._compact(_np.array([rank]), n_ranks, newcap)
        o = self.tail
        self.buf[o:o + n] = arr
        self.off[rank] = o
        self.len[rank] = n
        self.cap[rank] = newcap
        self.tail = o + newcap

    def write_many(self, ranks, flat, lens, n_ranks: int) -> None:
        """:meth:`write` for many distinct *ranks* at once: rank
        ``ranks[i]``'s new window is the next ``lens[i]`` entries of
        *flat*.  Windows that fit are scattered in place; the rest are
        relocated together to the tail (one compaction first if the
        buffer cannot hold them), then one scatter fills every
        window."""
        grow = lens > self.cap[ranks]
        if grow.any():
            g_ranks = ranks[grow]
            g_lens = lens[grow]
            newcaps = _np.maximum(8, g_lens + (g_lens >> 2))
            need = int(newcaps.sum())
            if self.tail + need > self.buf.size:
                self._compact(g_ranks, n_ranks, need)
            ends = self.tail + _np.cumsum(newcaps)
            self.off[g_ranks] = ends - newcaps
            self.cap[g_ranks] = newcaps
            self.tail = int(ends[-1])
        self.len[ranks] = lens
        offs = _np.cumsum(lens) - lens
        within = kernels._arange(flat.size) - _np.repeat(offs, lens)
        self.buf[_np.repeat(self.off[ranks], lens) + within] = flat

    def _compact(self, abandoned, n_ranks: int, extra: int) -> None:
        """Copy every in-use window (except the *abandoned* ranks',
        which their caller is about to relocate) into a fresh buffer
        with 1.25x headroom over the kept capacities plus *extra*.
        Windows stabilise once the protocol converges, so modest
        headroom costs a few extra warm-up compactions while keeping
        the pool's resident slack (the bytes-per-node gate's biggest
        term) small.  Windows keep their rank order: one cumsum over
        the kept capacities places them, one gather moves them."""
        caps = self.cap[:n_ranks].copy()
        caps[abandoned] = 0
        kept = _np.flatnonzero(caps)
        k_caps = caps[kept]
        ends = _np.cumsum(k_caps)
        used = int(ends[-1]) if kept.size else 0
        total = used + extra
        old = self.buf
        buf = _np.empty(max(64, total + (total >> 2)), dtype=old.dtype)
        k_lens = self.len[kept]
        new_offs = ends - k_caps
        # A fresh ramp, not ``kernels._arange``: that cache would stay
        # pinned at the whole pool's size.
        within = _np.arange(int(k_lens.sum())) - _np.repeat(
            _np.cumsum(k_lens) - k_lens, k_lens
        )
        buf[_np.repeat(new_offs, k_lens) + within] = old[
            _np.repeat(self.off[kept], k_lens) + within
        ]
        self.off[kept] = new_offs
        self.buf = buf
        self.tail = used


class ViewSlab:
    """NEWSCAST views as rank rows.

    Row ``r`` holds rank ``r``'s view: its first ``len[r]`` columns of
    ``ids`` are the view's members in view order (the order peer picks
    and samples index), and ``ts`` their timestamps (cycle numbers).
    A recycled rank's row is rewritten by its node's seeding.
    """

    __slots__ = ("ids", "ts", "len")

    def __init__(self, capacity: int, width: int) -> None:
        self.ids = _np.zeros((capacity, width), dtype=_np.uint64)
        self.ts = _np.zeros((capacity, width), dtype=_np.int64)
        self.len = _np.zeros(capacity, dtype=_np.intp)

    def grow(self, capacity: int) -> None:
        """Extend the slabs to *capacity* rows (new rows are empty)."""
        for name in ("ids", "ts"):
            old = getattr(self, name)
            arr = _np.zeros((capacity, old.shape[1]), dtype=old.dtype)
            arr[: old.shape[0]] = old
            setattr(self, name, arr)
        length = _np.zeros(capacity, dtype=_np.intp)
        length[: self.len.size] = self.len
        self.len = length


class Arena:
    """The population's slabs (see the module docstring for layout)."""

    __slots__ = (
        "n_slots",
        "node_ids",
        "leaf",
        "leaf_len",
        "leaf_full",
        "started",
        "stats_dirty",
        "succ_count",
        "succ_max",
        "pred_count",
        "pred_max",
        "accept_lo",
        "accept_hi",
        "slot_count",
        "p_ids",
        "p_slots",
        "p_dense",
        "p_dense_valid",
        "leaf_dense",
        "leaf_dense_valid",
        "dense_universe",
        "def_leaf",
        "def_prefix",
        "def_valid",
        "views",
        "free",
        "n_ranks",
    )

    def __init__(self, n_slots: int, leaf_width: int, capacity: int) -> None:
        self.n_slots = n_slots
        self.free: list[int] = []
        self.n_ranks = 0
        cap = max(4, capacity)
        self.node_ids = _np.empty(cap, dtype=_np.uint64)
        self.leaf = _np.empty((cap, leaf_width), dtype=_np.uint64)
        self.leaf_len = _np.zeros(cap, dtype=_np.intp)
        self.leaf_full = _np.zeros(cap, dtype=bool)
        self.started = _np.zeros(cap, dtype=bool)
        self.stats_dirty = _np.zeros(cap, dtype=bool)
        self.succ_count = _np.zeros(cap, dtype=_np.int64)
        self.succ_max = _np.zeros(cap, dtype=_np.int64)
        self.pred_count = _np.zeros(cap, dtype=_np.int64)
        self.pred_max = _np.zeros(cap, dtype=_np.int64)
        self.accept_lo = _np.zeros(cap, dtype=_np.uint64)
        self.accept_hi = _np.zeros(cap, dtype=_np.uint64)
        # Occupancy fits int16 with lots of slack (``k`` is tiny); it
        # is the widest fixed-cost field, so the narrow dtype halves
        # the dominant flat per-node footprint.
        self.slot_count = _np.zeros((cap, n_slots), dtype=_np.int16)
        self.p_ids = _VarPool(cap, _np.uint64, 16)
        self.p_slots = _VarPool(cap, _np.int16, 16)
        # Pool-resident dense-index caches: each rank's
        # ``universe.searchsorted`` of its prefix/leaf table, refreshed
        # only when the table or the universe changes, so the wave
        # absorb's novelty keys are pure ragged gathers.  int32: dense
        # indices are bounded by the universe size.
        self.p_dense = _VarPool(cap, _np.int32, 16)
        self.p_dense_valid = _np.zeros(cap, dtype=bool)
        self.leaf_dense = _np.empty((cap, leaf_width), dtype=_np.int32)
        self.leaf_dense_valid = _np.zeros(cap, dtype=bool)
        self.dense_universe = None
        # Cached per-rank convergence deficits (see SlabMeasure).
        self.def_leaf = _np.zeros(cap, dtype=_np.int64)
        self.def_prefix = _np.zeros(cap, dtype=_np.int64)
        self.def_valid = _np.zeros(cap, dtype=bool)
        #: The NEWSCAST views (:class:`ViewSlab`), or ``None`` under the
        #: oracle sampler.
        self.views: ViewSlab | None = None

    @property
    def capacity(self) -> int:
        """Allocated rank slots (grows geometrically, never shrinks)."""
        return self.node_ids.size

    def _grow(self) -> None:
        cap = self.node_ids.size * 2
        for name in (
            "node_ids",
            "leaf_len",
            "leaf_full",
            "started",
            "stats_dirty",
            "succ_count",
            "succ_max",
            "pred_count",
            "pred_max",
            "accept_lo",
            "accept_hi",
            "def_leaf",
            "def_prefix",
            "def_valid",
            "p_dense_valid",
            "leaf_dense_valid",
        ):
            old = getattr(self, name)
            arr = _np.zeros(cap, dtype=old.dtype)
            arr[: old.size] = old
            setattr(self, name, arr)
        for name in ("leaf", "slot_count", "leaf_dense"):
            old = getattr(self, name)
            arr = _np.zeros((cap, old.shape[1]), dtype=old.dtype)
            arr[: old.shape[0]] = old
            setattr(self, name, arr)
        self.p_ids.grow_ranks(cap)
        self.p_slots.grow_ranks(cap)
        self.p_dense.grow_ranks(cap)
        if self.views is not None:
            self.views.grow(cap)

    def allocate(self, node_id: int) -> int:
        """Claim a rank (recycling freed ones) and reset its row to a
        brand-new node's state."""
        if self.free:
            rank = self.free.pop()
        else:
            if self.n_ranks == self.node_ids.size:
                self._grow()
            rank = self.n_ranks
            self.n_ranks += 1
        self.node_ids[rank] = node_id
        self.leaf_len[rank] = 0
        self.leaf_full[rank] = False
        self.started[rank] = False
        self.stats_dirty[rank] = True
        self.succ_count[rank] = 0
        self.succ_max[rank] = -1
        self.pred_count[rank] = 0
        self.pred_max[rank] = -1
        self.accept_lo[rank] = 0
        self.accept_hi[rank] = 0
        self.slot_count[rank, :] = 0
        self.p_ids.len[rank] = 0
        self.p_slots.len[rank] = 0
        self.p_dense.len[rank] = 0
        self.p_dense_valid[rank] = False
        self.leaf_dense_valid[rank] = False
        self.def_valid[rank] = False
        if self.views is not None:
            self.views.len[rank] = 0
        return rank

    def release(self, rank: int) -> None:
        """Return a dead node's rank to the free list and its pool
        windows to the next compaction."""
        self.free.append(rank)
        self.p_ids.release(rank)
        self.p_slots.release(rank)
        self.p_dense.release(rank)
        self.p_dense_valid[rank] = False
        self.leaf_dense_valid[rank] = False


class ArenaState:
    """A read-only node handle: one node's fields as properties over
    the arena slabs.

    Scalar getters that feed Python ring arithmetic (``succ_max`` and
    friends) return built-in ints -- the 64-bit ring mask overflows
    ``int64`` -- while array-valued fields return slab views.

    The handle has no setters: the batched writers (the chunk start,
    the wave absorb's prefix install and leaf reselect) write the
    arena's columns for many ranks at once, and each marks the ranks
    it writes stale (``stats_dirty``), so :class:`SlabMeasure`'s cached
    deficit -- and the cycle's settled-receiver test built on it --
    never describes old tables.  The id-table getters
    (``leaf``/``prefix_ids``/``prefix_slots``) slice the slabs afresh
    on every access, so a handle never pins a superseded pool buffer
    and caches nothing.  Under the NEWSCAST sampler the node's view is
    its rank's row of :attr:`Arena.views`, which only the cycle's slab
    passes read and write (the handle has no view property).
    """

    __slots__ = ("arena", "rank", "node_id")

    def __init__(self, arena: Arena, rank: int, node_id: int) -> None:
        self.arena = arena
        self.rank = rank
        self.node_id = node_id

    @property
    def leaf(self):
        """Sorted leaf-set ids: a view into the arena's leaf slab."""
        a = self.arena
        r = self.rank
        return a.leaf[r, : a.leaf_len[r]]

    @property
    def leaf_full(self) -> bool:
        """Whether the leaf set has reached both balanced quotas."""
        return bool(self.arena.leaf_full[self.rank])

    @property
    def started(self) -> bool:
        """Whether this node has run its bootstrap seeding."""
        return bool(self.arena.started[self.rank])

    @property
    def succ_count(self) -> int:
        """Current number of successor-side leaf entries."""
        return int(self.arena.succ_count[self.rank])

    @property
    def succ_max(self) -> int:
        """Worst kept successor distance (``-1`` with none)."""
        return int(self.arena.succ_max[self.rank])

    @property
    def pred_count(self) -> int:
        """Current number of predecessor-side leaf entries."""
        return int(self.arena.pred_count[self.rank])

    @property
    def pred_max(self) -> int:
        """Worst kept predecessor distance (``-1`` with none)."""
        return int(self.arena.pred_max[self.rank])

    @property
    def accept_lo(self):
        """Lower edge of the leaf admission window (ring distance)."""
        return self.arena.accept_lo[self.rank]

    @property
    def accept_hi(self):
        """Upper edge of the leaf admission window (ring distance)."""
        return self.arena.accept_hi[self.rank]

    @property
    def prefix_ids(self):
        """Sorted resident prefix-table ids (pooled-slab view)."""
        return self.arena.p_ids.view(self.rank)

    @property
    def prefix_slots(self):
        """Slot index of each resident id, aligned with prefix_ids."""
        return self.arena.p_slots.view(self.rank)

    @property
    def slot_count(self):
        """Per-slot occupancy: a row view of the occupancy slab."""
        return self.arena.slot_count[self.rank]


def perfect_tables(ids, space, c: int, k: int):
    """Every live node's perfect leaf set and perfect prefix-slot
    demands, as flat arrays in *ids* order.

    *ids* is the live identifier set ("the actual set of IDs in the
    network") as an ascending, duplicate-free ``uint64`` array; *space*
    is its :class:`~repro.core.idspace.IDSpace`, *c* and *k* the
    paper's leaf-set size and entries per slot.  Returns ``(leaf,
    leaf_lens, slots, need, slot_lens)``: node ``i``'s perfect leaf ids
    are the ``leaf_lens[i]`` entries of *leaf* following those of
    nodes ``0..i-1``, and its prefix slots -- packed ``(row <<
    digit_bits) | digit`` in row, then digit order -- and their demands
    ``min(k, live ids in the slot)`` are laid out the same way in
    *slots* / *need* by *slot_lens*.

    Node for node this equals ``ReferenceTables.perfect_leaf_ids`` /
    ``perfect_prefix_counts`` (pinned by ``tests/test_perfect_tables.py``),
    but costs a few array passes per :data:`_PACK_BLOCK` ranks instead
    of a Python selection and a trie walk per node.
    """
    n = ids.size
    if not n:
        raise ValueError("perfect tables need at least one identifier")
    blocks = []
    for lo in range(0, n, _PACK_BLOCK):
        hi = min(n, lo + _PACK_BLOCK)
        blocks.append(
            _perfect_leaf(ids, lo, hi, space, c)
            + _perfect_prefix(ids, lo, hi, space, k)
        )
    return tuple(
        _np.concatenate(column) for column in zip(*blocks, strict=True)
    )


def _perfect_leaf(ids, lo: int, hi: int, space, c: int):
    """``(leaf ids, lengths)`` for the nodes at sorted positions
    ``[lo, hi)``.

    The candidate window is ``ReferenceTables.perfect_leaf_ids``'s: the
    c nearest ids on each side, or every other id once ``n - 1 <= 2c``,
    so no id repeats in a row.  Its columns run clockwise (offsets
    ``+1..+c``, then ``-c..-1``), so the forward distance grows along
    each row: the successors (``forward <= half``) are a prefix of the
    row, nearest first, and the predecessors the rest, nearest last.
    The balanced rule then keeps the first ``take_succ`` and the last
    ``take_pred`` columns.
    """
    n = ids.size
    if n - 1 > 2 * c:
        offsets = _np.concatenate((_np.arange(1, c + 1), _np.arange(-c, 0)))
    else:
        offsets = _np.arange(1, n)
    width = offsets.size
    cand = ids[(_np.arange(lo, hi)[:, None] + offsets) % n]
    forward = (cand - ids[lo:hi, None]) & _np.uint64(space.size - 1)
    n_succ = (forward <= _np.uint64(space.half)).sum(axis=1)
    take_succ, take_pred = kernels.balanced_counts_arrays(
        n_succ, width - n_succ, c // 2
    )
    col = _np.arange(width)
    keep = (col < take_succ[:, None]) | (col >= (width - take_pred)[:, None])
    return cand[keep], take_succ + take_pred


def _perfect_prefix(ids, lo: int, hi: int, space, k: int):
    """``(packed slots, demands, lengths)`` for the nodes at sorted
    positions ``[lo, hi)``: ``DigitTrie.slot_counts_for``, level by
    level for the whole block.

    A node's depth-``r`` block -- the ids sharing its first ``r``
    digits -- is a contiguous run ``[start, end)`` of *ids*.
    Searchsorting the block's interior digit-band boundaries splits it
    into per-digit populations; the non-empty ones other than the
    node's own digit are its slots ``(r, digit)``.  The own digit's band
    is the next depth's block, and a node stops once its block holds
    only itself -- where the trie walk meets a sole occupant (ids are
    unique, so every node stops by depth ``num_digits``).  Block ends
    are inherited, never computed: the top band of an all-ones block
    ends at ``2^bits``, which ``uint64`` cannot hold.
    """
    n = ids.size
    db = space.digit_bits
    base = space.digit_base
    own = ids[lo:hi]
    start = _np.zeros(hi - lo, dtype=_np.intp)
    end = _np.full(hi - lo, n, dtype=_np.intp)
    active = _np.flatnonzero(end - start >= 2)
    steps = _np.arange(1, base, dtype=_np.uint64)
    rows = [_np.empty(0, dtype=_np.intp)]
    slots = [_np.empty(0, dtype=_np.intp)]
    need = [_np.empty(0, dtype=_np.intp)]
    depth = 0
    while active.size:
        shift = space.bits - (depth + 1) * db
        node = own[active]
        prefix = node & _np.uint64(space.size - (1 << (shift + db)))
        bounds = _np.empty((active.size, base + 1), dtype=_np.intp)
        bounds[:, 0] = start[active]
        bounds[:, base] = end[active]
        bounds[:, 1:base] = ids.searchsorted(
            prefix[:, None] + (steps << _np.uint64(shift))
        )
        counts = _np.diff(bounds, axis=1)
        digit = ((node >> _np.uint64(shift)) & _np.uint64(base - 1)).astype(
            _np.intp
        )
        at = _np.arange(active.size)
        start[active] = bounds[at, digit]
        end[active] = bounds[at, digit + 1]
        counts[at, digit] = 0
        r, j = _np.nonzero(counts)
        rows.append(active[r])
        slots.append((depth << db) | j)
        need.append(_np.minimum(counts[r, j], k))
        active = active[end[active] - start[active] >= 2]
        depth += 1
    row = _np.concatenate(rows)
    order = _np.argsort(row, kind="stable")
    return (
        _np.concatenate(slots)[order],
        _np.concatenate(need)[order],
        _np.bincount(row, minlength=hi - lo),
    )


class SlabMeasure:
    """Convergence deficits and totals as array passes over the bound
    ranks.

    A per-node walk would pay a Python iteration plus a dict probe
    per node even when its cached deficit is clean.  Bound to an
    arena, the dirty set is just ``stats_dirty[ranks] |
    ~def_valid[ranks]`` -- one vector op -- and only the dirty ranks'
    deficits are recomputed, batched:

    * leaf deficits by a segmented sort-merge of the resident leaf
      slab against the flattened perfect-leaf table;
    * prefix deficits by occupancy lookups against the perfect slot
      demands -- or, under liveness filtering, one global
      ``bincount`` over the alive resident entries' composite
      ``rank * n_slots + slot`` keys (occupancy equals the
      resident-slot histogram by invariant, so the filter only drops
      dead entries).

    The perfect tables come from one :func:`perfect_tables` pass over
    the bound population's sorted ids on the first measurement after a
    (re)bind, sliced per bound rank; the sample's totals are sums of
    the same arrays.  The tracker binds a fresh measurer after every
    membership change, which invalidates every bound rank's cached
    deficit (the perfect tables, and possibly the liveness filter,
    changed).
    """

    def __init__(self, arena: Arena, states, config) -> None:
        self._arena = arena
        self._config = config
        self._ranks = _np.fromiter(
            (state.rank for state in states), dtype=_np.intp
        )
        arena.def_valid[self._ranks] = False
        self._totals: tuple[int, int] | None = None

    def _pack(self) -> None:
        config = self._config
        ids = self._arena.node_ids[self._ranks]
        order = _np.argsort(ids)
        self._live = ids[order]
        leaf, leaf_lens, slots, need, slot_lens = perfect_tables(
            self._live,
            config.space,
            config.leaf_set_size,
            config.entries_per_slot,
        )
        # The packer's segments are in live-id order; bound rank j's is
        # segment where[j].
        where = _np.empty(order.size, dtype=_np.intp)
        where[order] = _np.arange(order.size)
        self._pl = leaf
        self._pl_lens = leaf_lens[where]
        self._pl_offs = (_np.cumsum(leaf_lens) - leaf_lens)[where]
        self._pp_slots = slots
        self._pp_need = need
        self._pp_lens = slot_lens[where]
        self._pp_offs = (_np.cumsum(slot_lens) - slot_lens)[where]
        self._totals = (int(leaf_lens.sum()), int(need.sum()))

    def measure(self, check_live: bool) -> tuple[int, int, int, int]:
        """Network-wide ``(missing_leaf, total_leaf, missing_prefix,
        total_prefix)``."""
        if self._totals is None:
            self._pack()
        ranks = self._ranks
        arena = self._arena
        dirty = arena.stats_dirty[ranks] | ~arena.def_valid[ranks]
        if dirty.any():
            d = _np.nonzero(dirty)[0]
            self._recompute(d, check_live)
            arena.stats_dirty[ranks[d]] = False
            arena.def_valid[ranks[d]] = True
        total_leaf, total_prefix = self._totals
        return (
            int(arena.def_leaf[ranks].sum()),
            total_leaf,
            int(arena.def_prefix[ranks].sum()),
            total_prefix,
        )

    def _recompute(self, d, check_live: bool) -> None:
        arena = self._arena
        ranks = self._ranks[d]
        md = d.size
        # Leaf deficit: merge resident and perfect entries on
        # (segment, id); an adjacent resident/perfect pair is a hit.
        lens_r = arena.leaf_len[ranks]
        rows = arena.leaf[ranks]
        in_row = kernels._arange(rows.shape[1])[None, :] < lens_r[:, None]
        res_ids = rows[in_row]
        res_seg = _np.repeat(kernels._arange(md), lens_r)
        p_lens = self._pl_lens[d]
        perf_ids = kernels.segment_take(self._pl, self._pl_offs[d], p_lens)
        perf_seg = _np.repeat(kernels._arange(md), p_lens)
        ids = _np.concatenate((res_ids, perf_ids))
        seg = _np.concatenate((res_seg, perf_seg))
        flag = _np.zeros(ids.size, dtype=_np.int8)
        flag[res_ids.size:] = 1
        order = _np.lexsort((flag, ids, seg))
        seg_s = seg[order]
        ids_s = ids[order]
        flag_s = flag[order]
        hit = (
            (seg_s[1:] == seg_s[:-1])
            & (ids_s[1:] == ids_s[:-1])
            & (flag_s[1:] > flag_s[:-1])
        )
        matches = _np.bincount(seg_s[1:][hit], minlength=md)
        arena.def_leaf[ranks] = p_lens - matches
        # Prefix deficit: perfect slot demands against occupancy.
        pp_lens_d = self._pp_lens[d]
        slots_sel = kernels.segment_take(
            self._pp_slots, self._pp_offs[d], pp_lens_d
        )
        need_sel = kernels.segment_take(
            self._pp_need, self._pp_offs[d], pp_lens_d
        )
        seg2 = _np.repeat(kernels._arange(md), pp_lens_d)
        n_slots = arena.n_slots
        if check_live:
            pool = arena.p_ids
            plen = pool.len[ranks]
            resp_ids = kernels.segment_take(pool.buf, pool.off[ranks], plen)
            spool = arena.p_slots
            resp_slots = kernels.segment_take(
                spool.buf, spool.off[ranks], spool.len[ranks]
            )
            resp_seg = _np.repeat(kernels._arange(md), plen)
            live = self._live
            if live.size and resp_ids.size:
                pos = _np.minimum(
                    live.searchsorted(resp_ids), live.size - 1
                )
                alive = live[pos] == resp_ids
            else:
                alive = _np.zeros(resp_ids.size, dtype=bool)
            key = resp_seg * n_slots + resp_slots.astype(_np.intp)
            counts = _np.bincount(key[alive], minlength=md * n_slots)
            have = counts[seg2 * n_slots + slots_sel]
        else:
            have = arena.slot_count[ranks[seg2], slots_sel]
        deficit = need_sel - have
        _np.maximum(deficit, 0, out=deficit)
        arena.def_prefix[ranks] = _np.bincount(
            seg2, weights=deficit, minlength=md
        ).astype(_np.int64)
