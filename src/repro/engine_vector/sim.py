"""The vectorised-semantics cycle engine (``engine="vector"``).

:class:`VectorBootstrapSimulation` is the third engine behind the
engine seam.  It shares the simulation shell
(:class:`~repro.simulator.bootstrap_sim.CycleSimulation`: constructor
checks, spawn identifiers, ``run``) with the reference and fast
engines, and runs the paper's protocol (Figure 2) under
**wave-synchronous activation**:

* A cycle activates the nodes in a uniformly random order, in waves.
  Every message of a wave is built (CREATEMESSAGE) from wave-start
  state, then the wave's surviving messages are absorbed
  (UPDATELEAFSET + UPDATEPREFIXTABLE) in arrival order.  With wave size
  ``W`` of ``n`` nodes, a message misses a same-wave update with
  probability about ``W/n`` per exchange.
* Node state lives in one pool-resident arena of sorted ``uint64`` id
  slabs (:mod:`repro.engine_vector.arena`), and every per-exchange
  operation -- message-union dedup, ring ranking, balanced selection,
  prefix-slot capping, absorb novelty scans, and convergence
  measurement -- is an array operation over a whole wave (the
  geometry kernels are shared with :mod:`repro.engine_fast.kernels`).
* Starts and peer picks run per *chunk* of the activation order, a
  chunk ending where the earliest flush can fall.  The chunk's
  starting nodes clear their prefix tables and seed their leaf rows
  together (``_NumpyOps.start_chunk``), then every pick of the chunk
  is one pass (``_NumpyOps.select_wave``), an empty leaf set reading
  its request sample row.  No absorb lands inside a chunk, so each
  node starts and picks on exactly the tables its own turn would see.
* Messages to a **settled** receiver are neither built nor absorbed.
  A node is settled when the tracker's cached deficit is valid for its
  current tables and zero on both (``_NumpyOps.settled_ranks``).  In a
  static network such a node is a fixed point: every id a message can
  carry is live, and is either resident or beaten by residents, so
  UPDATELEAFSET and UPDATEPREFIXTABLE would change nothing.  The rule
  therefore has two gates.  It never applies once any node has been
  killed, since dead ids keep circulating and a node perfect for the
  live ids re-admits them.  It also waits out a membership change
  until the next ``measure()`` has re-based the deficits on the new
  perfect tables.  The transport accounting, drop coins and RNG draws
  of a skipped message are unchanged, so trajectories are too.  A
  network that is never measured skips nothing.
* Only messages that will be absorbed are built.  The flush reads a
  wave's drop coins before it builds: a lost request builds neither
  message, a lost reply builds no reply.  Every built message then has
  exactly one absorb, and the transport accounting, coins and RNG
  draws are those of the full exchange.  Each message's known union
  (own id, leaf set, prefix table) is rebuilt in the wave's one union
  sort from the arena's dense slabs; no node handle caches it.
* Under the NEWSCAST sampler the views are arena rows too
  (:class:`~repro.engine_vector.arena.ViewSlab`: ids and timestamps
  in view order).  A gossip cycle walks its shuffled order and cuts it
  into conflict-free batches, flushing before any exchange that would
  read or write a view an earlier merge of the batch wrote.  The
  merges of a batch touch distinct views, so they commute and run as
  one padded frame with the view rule: freshest timestamp per id;
  over capacity, the ``(-timestamp, id)`` best; otherwise the old
  order with new ids appended in payload order.  Peer-sampling draws
  are gathers from the rows, one per wave.

Under that activation the engine *is* the protocol: replayed exchange
by exchange through one :class:`~repro.core.protocol.BootstrapNode` per
id, every SELECTPEER pick, every message payload (ids, order and prefix
slots) and every receiver's leaf set and prefix table come out equal
(``tests/replay.py``; the engine suite runs it on every pinned
trajectory).  Likewise every NEWSCAST merge, seed and sample equals
one dict-backed view per node replayed in activation order.  What
differs from the reference engine is only which exchanges run when
and with which randomness:

* activation order -- waves instead of strictly sequential exchanges;
* RNG streams -- all exchange randomness comes from **one generator
  per simulation** (:mod:`repro.engine_vector.rng`): the activation
  permutation, peer picks, drop coins, and peer-sampling draws of a
  cycle are bulk draws (a NEWSCAST sample is realised from pre-drawn
  uniforms by a partial Fisher-Yates walk over the view), and the
  idealised oracle's ``cr`` fresh samples per message are drawn
  **with replacement** from the live pool (and may include the
  sender; duplicates vanish in the message union).

So trajectories match the reference engine in distribution, not bit
for bit (each seed's trajectory is deterministic on its own); the
tolerance bands of ``tests/test_engine_vector.py`` measure exactly
that relaxation.  Membership randomness (initial identifier draw,
spawn identifiers, NEWSCAST view seeding) still uses the reference
seed tree, so a given seed simulates the *same network* on all three
engines.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.convergence import ConvergenceSample
from ..core.reference import ReferenceTables
from ..engine_fast import kernels
from ..engine_fast.state import FastRegistry
from ..simulator.bootstrap_sim import CycleSimulation
from ..simulator.network import NetworkModel, RELIABLE, TransportStats
from ..simulator.random_source import derive_seed
from .arena import Arena, ArenaState, SlabMeasure, ViewSlab
from .rng import NumpyDrawSource

__all__ = [
    "VectorBootstrapSimulation",
    "VectorConvergenceTracker",
]


class _Layer:
    """One gossip layer's bookkeeping: the activation order cache
    (node ids for the bootstrap layer, arena ranks for NEWSCAST), the
    transport accounting and the cycle counter."""

    __slots__ = ("stats", "order", "dirty", "cycle")

    def __init__(self) -> None:
        self.stats = TransportStats()
        self.order: list[int] = []
        self.dirty = True
        self.cycle = 0


#: Exchanges whose NEWSCAST peer picks are read from the view rows in
#: one pass (a conflict-free batch runs ~20-40 exchanges at N=512).
_PICK_CHUNK = 64

def _as_ids(ids: list[int]):
    """A list of identifiers as a uint64 array."""
    return _np.fromiter(ids, dtype=_np.uint64, count=len(ids))


def _first_occurrence(keys):
    """Boolean mask keeping the first occurrence of each key, in
    input order (stable argsort: equal keys stay in input order)."""
    order = _np.argsort(keys, kind="stable")
    ks = keys[order]
    first = _np.empty(ks.size, dtype=bool)
    first[0] = True
    _np.not_equal(ks[1:], ks[:-1], out=first[1:])
    keep = _np.zeros(ks.size, dtype=bool)
    keep[order[first]] = True
    return keep


class _NumpyOps:
    """Array-native node transitions over the population's arena.

    A cycle runs :meth:`start_chunk` and :meth:`select_wave` per chunk
    of its activation order and :meth:`create_wave_flat` and
    :meth:`absorb_wave_flat` per wave, and the tracker measures through
    :meth:`slab_measurer`.  Node handles are read-only
    :class:`~repro.engine_vector.arena.ArenaState` views over the
    arena's slabs; every transition writes the slabs for a whole chunk
    or wave at once.  Each transition equals the paper's protocol
    applied to the same state: the engine suite replays every start,
    pick and exchange through ``BootstrapNode`` and compares.
    """

    def __init__(self, config: BootstrapConfig, capacity: int = 64) -> None:
        space = config.space
        self._mask = space.size - 1
        self._mu = _np.uint64(self._mask)
        self._half_ring = space.half
        self._half_u = _np.uint64(space.half)
        self._bits = space.bits
        self._digit_bits = space.digit_bits
        self._base_mask = space.digit_base - 1
        self._k = config.entries_per_slot
        self._c = config.leaf_set_size
        self._half_c = config.half_leaf_set
        self._n_slots = space.num_digits * space.digit_base
        self._config = config
        self.arena = Arena(self._n_slots, self._c, capacity)

    # -- state / pool plumbing -----------------------------------------

    def new_state(self, node_id: int) -> ArenaState:
        arena = self.arena
        return ArenaState(arena, arena.allocate(node_id), node_id)

    def release_state(self, state: ArenaState) -> None:
        """Return a killed node's rank to the arena (``kill_node``)."""
        self.arena.release(state.rank)

    def slab_measurer(self, states) -> SlabMeasure:
        """A slab-scan measurer bound to *states*, packing its own
        perfect tables (the tracker's hook; see :class:`SlabMeasure`)."""
        return SlabMeasure(self.arena, states, self._config)

    def settled_ranks(self):
        """Per-rank mask of the *settled* ranks, ``arena.n_ranks`` long:
        a cached deficit that is valid, measured against the rank's
        current tables (not ``stats_dirty``) and zero on both the leaf
        set and the prefix table.  The cycle driver skips messages to
        settled receivers while the network is static (see the module
        docstring for the rule and its gates)."""
        a = self.arena
        n = a.n_ranks
        mask = a.def_valid[:n] & ~a.stats_dirty[:n]
        mask &= a.def_leaf[:n] == 0
        mask &= a.def_prefix[:n] == 0
        return mask

    # -- NEWSCAST view rows --------------------------------------------

    def seed_view(self, rank: int, ids: list[int]) -> None:
        """Install a fresh NEWSCAST view in *rank*'s row: *ids* --
        distinct, none the node's own, at most the view width, as the
        membership registry samples them -- in order, timestamp 0."""
        views = self.arena.views
        count = len(ids)
        views.ids[rank, :count] = _np.array(ids, dtype=_np.uint64)
        views.ts[rank, :count] = 0
        views.len[rank] = count

    def view_picks(self, ranks, u) -> list:
        """NEWSCAST SELECTPEER for the views of *ranks*, one pre-drawn
        uniform each: the member at ``min(int(u * len), len - 1)`` in
        view order, ``None`` for an empty view."""
        views = self.arena.views
        lens = views.len[ranks]
        at = _np.minimum((u * lens).astype(_np.intp), lens - 1)
        peers = views.ids[ranks, _np.maximum(at, 0)].tolist()
        if lens.all():
            return peers
        return [
            peer if size else None
            for peer, size in zip(peers, lens.tolist(), strict=True)
        ]

    def view_samples(self, ranks, count: int, floats):
        """*count* distinct members of each view of *ranks*, from its
        row of pre-drawn *floats*: ``(rows, lens)``, row ``i``'s sample
        being ``rows[i, :lens[i]]`` in draw order.

        A view no longer than *count* is its whole row in view order.
        A longer one is walked by a partial Fisher-Yates shuffle that
        consumes its floats in column order -- step ``j`` swaps column
        ``j`` with ``j + min(int(f_j * span), span - 1)``, ``span = len
        - j``, the distribution of ``random.sample`` -- one vectorised
        step per sampled column over every such row."""
        views = self.arena.views
        rows = views.ids[ranks]
        size = views.len[ranks]
        lens = _np.minimum(size, count)
        part = _np.flatnonzero(size > count)
        if part.size:
            scratch = rows[part]
            span = size[part]
            f = floats[part]
            at = kernels._arange(part.size)
            for j in range(count):
                swap = j + _np.minimum((f[:, j] * span).astype(_np.intp), span - 1)
                chosen = scratch[at, swap]
                scratch[at, swap] = scratch[:, j]
                scratch[:, j] = chosen
                span -= 1
            rows[part] = scratch
        return rows, lens

    def merge_views(self, recv: list[int], send: list[int], now: int) -> None:
        """A batch of NEWSCAST merges: rank ``recv[i]`` merges the
        payload of rank ``send[i]`` -- that view plus its own id stamped
        *now* -- read from the batch-start rows.  The receivers are
        distinct, so the merges commute and run as one padded frame.

        Row ``i`` is the receiver's row, the sender's row and the
        sender's stamped id; padding holds the receiver's own id, which
        never enters its view.  One row-wise stable sort by id brings
        each id's two copies together, the receiver's first: the first
        copy survives, at its own column, with the fresher timestamp
        of the two.  A second row-wise stable sort orders the
        survivors: by column when the view stays within capacity (the
        old order, then new ids in payload order), by ``-timestamp``
        over the id order -- ``(-timestamp, id)`` -- when it overflows,
        keeping the best ``width``."""
        views = self.arena.views
        node_ids = self.arena.node_ids
        recv = _np.array(recv, dtype=_np.intp)
        send = _np.array(send, dtype=_np.intp)
        m = recv.size
        width = views.ids.shape[1]
        frame_w = 2 * width + 1
        own = node_ids[recv][:, None]
        col = kernels._arange(width)[None, :]
        valid = _np.ones((m, frame_w), dtype=bool)
        _np.less(col, views.len[recv][:, None], out=valid[:, :width])
        _np.less(col, views.len[send][:, None], out=valid[:, width:-1])
        ids = _np.where(
            valid,
            _np.concatenate(
                (views.ids[recv], views.ids[send], node_ids[send][:, None]),
                axis=1,
            ),
            own,
        )
        ts = _np.concatenate(
            (views.ts[recv], views.ts[send], _np.full((m, 1), now)), axis=1
        )
        rows = kernels._arange(m)[:, None]
        order = _np.argsort(ids, axis=1, kind="stable")
        ids = ids[rows, order]
        ts = ts[rows, order]
        repeat = _np.zeros((m, frame_w), dtype=bool)
        _np.equal(ids[:, 1:], ids[:, :-1], out=repeat[:, 1:])
        _np.maximum(
            ts[:, :-1], _np.where(repeat[:, 1:], ts[:, 1:], 0), out=ts[:, :-1]
        )
        keep = ~repeat & (ids != own)
        count = keep.sum(axis=1)
        best = _np.argsort(
            _np.where(
                keep,
                _np.where((count > width)[:, None], -ts, order),
                frame_w,
            ),
            axis=1,
            kind="stable",
        )[:, :width]
        views.ids[recv] = ids[rows, best]
        views.ts[recv] = ts[rows, best]
        views.len[recv] = _np.minimum(count, width)

    # -- protocol transitions ------------------------------------------

    def start_chunk(self, states, seeds) -> None:
        """The protocol's start for a chunk of nodes at once: "clear
        their prefix table" and "initialize their leaf sets with a set
        of random nodes".

        *seeds* is ``(rows, lens)``: node ``j``'s seed ids are
        ``rows[j, :lens[j]]``, in any order and possibly repeated.  The
        prefix windows and occupancy rows are emptied in one slab write
        each.  The seeds that are novel for their node -- not its own
        id, not already in the leaf row it may have absorbed into
        before its turn, first copy only -- join every node's leaf row
        through one :meth:`_reselect_leaves` frame."""
        a = self.arena
        m = len(states)
        ranks = _np.fromiter(
            (state.rank for state in states), dtype=_np.intp, count=m
        )
        a.p_ids.len[ranks] = 0
        a.p_slots.len[ranks] = 0
        a.p_dense_valid[ranks] = False
        a.slot_count[ranks] = 0
        a.stats_dirty[ranks] = True
        a.started[ranks] = True
        rows, lens = seeds
        valid = kernels._arange(rows.shape[1])[None, :] < lens[:, None]
        valid &= rows != a.node_ids[ranks][:, None]
        seg = _np.nonzero(valid)[0]
        ids = rows[valid]
        order = _np.lexsort((ids, seg))
        seg = seg[order]
        ids = ids[order]
        novel = _np.ones(ids.size, dtype=bool)
        _np.not_equal(ids[1:], ids[:-1], out=novel[1:])
        novel[1:] |= seg[1:] != seg[:-1]
        held = ranks[seg]
        novel &= ~(
            (a.leaf[held] == ids[:, None])
            & (kernels._arange(self._c)[None, :] < a.leaf_len[held][:, None])
        ).any(axis=1)
        if novel.any():
            self._reselect_leaves(ranks, seg[novel], ids[novel])

    def _union_wave(self, ranks, universe, samples):
        """Every job's CREATEMESSAGE union in one sort.

        *ranks* are the jobs' sender ranks (one sender may own several
        jobs) and *samples* the wave's sample slab (see
        :meth:`create_wave_flat`).  Returns ``(u, lens, u_dense)``: the
        concatenated per-job unions, their lengths, and the unions'
        dense ``universe`` indices.

        Each job contributes composite keys ``(job * len(universe) +
        dense) * 2 + flag``: flag 0 for its own id, its leaf row and its
        prefix window (gathers from the arena's dense slabs), flag 1 for
        its samples.  One sort brings each job's copies of an id
        together, known copies first; the first copy survives.  So a
        known id appears once -- the known union -- and a sample only
        when the job does not know it and has not sampled it already.
        A job's union is its known ids, then its novel samples, each
        in id order.
        """
        m_count = ranks.size
        u_size = universe.size
        seg = kernels._arange(m_count)
        parts = [
            (seg * u_size + universe.searchsorted(self.arena.node_ids[ranks]))
            * 2
        ]
        for keys in (
            self._leaf_keys(ranks, universe, u_size),
            self._resident_keys(ranks, universe, u_size),
        ):
            if keys is not None:
                parts.append(keys * 2)
        _, s_dense, s_lens = samples
        if s_dense.size:
            parts.append(
                (_np.repeat(seg, s_lens) * u_size + s_dense) * 2 + 1
            )
        keys = _np.sort(_np.concatenate(parts))
        pair = keys >> 1
        first = _np.empty(keys.size, dtype=bool)
        first[0] = True
        _np.not_equal(pair[1:], pair[:-1], out=first[1:])
        novel = first & (keys & 1).astype(bool)
        known = first & ~novel
        k_seg = pair[known] // u_size
        f_seg = pair[novel] // u_size
        k_counts = _np.bincount(k_seg, minlength=m_count)
        f_counts = _np.bincount(f_seg, minlength=m_count)
        # Known ids land after the novel samples of earlier jobs, novel
        # samples after every known id up to their own job's.
        u_dense = _np.empty(int(k_counts.sum() + f_counts.sum()), dtype=_np.intp)
        u_dense[
            kernels._arange(k_seg.size)
            + (_np.cumsum(f_counts) - f_counts)[k_seg]
        ] = pair[known] - k_seg * u_size
        u_dense[
            kernels._arange(f_seg.size) + _np.cumsum(k_counts)[f_seg]
        ] = pair[novel] - f_seg * u_size
        return universe[u_dense], k_counts + f_counts, u_dense

    def create_wave_flat(self, jobs, universe, samples):
        """CREATEMESSAGE for a whole wave of exchanges in one
        segmented batch, returned in flat slab form.

        *jobs* is a list of ``(state, peer_id)`` message specifications,
        *universe* the sorted id universe (see :meth:`absorb_wave_flat`)
        and *samples* the jobs' fresh samples as one ragged slab
        ``(ids, dense, lens)``: job ``j``'s ``lens[j]`` sample ids, in
        any order and possibly repeated, with their dense *universe*
        indices.  Whichever peer-sampling service drew them, the build
        is the same: the oracle leg gathers the slab from the cycle's
        batch buffer, the NEWSCAST leg from the view rows
        (:meth:`view_samples`).  The result is
        ``(ids_flat, slots_flat, dense_flat, bounds)`` -- message ``m``
        of the wave is rows ``bounds[m]:bounds[m + 1]`` of each slab.

        All messages are built from wave-start state (the cycle loop
        applies the wave's absorbs afterwards), which is the vector
        engine's scheduling relaxation: a message cannot see updates
        applied earlier *within the same wave* -- with wave size ``W``
        of ``n`` nodes, the probability that this hides a same-cycle
        update that the strictly sequential engines would have exposed
        is about ``W/n`` per exchange.  The payoff is that ranking,
        balanced selection, slot geometry and the prefix cap each run
        as one segmented numpy pass over every message of the wave,
        amortising per-call dispatch that otherwise dominates the
        engine.

        Per message the construction is exactly CREATEMESSAGE: one
        row-wise rank keyed ``(message, ring distance)`` orders every
        union at once, the balanced-close thresholds become per-row
        broadcasts, and the first-``k``-per-slot cap runs once with
        segment-shifted slot keys so equal slots never group across
        messages.  Equal ring distances keep union position; the known
        union is id-sorted, so only an exact cross-side tie between a
        known id and a fresh sample could order differently from
        CREATEMESSAGE's ``(distance, id)`` -- measure-zero for random
        identifiers.
        """
        m_count = len(jobs)
        u, lens, u_dense = self._union_wave(
            _np.fromiter(
                (state.rank for state, _ in jobs), dtype=_np.intp, count=m_count
            ),
            universe,
            samples,
        )
        peer_list = _np.array([peer for _, peer in jobs], dtype=_np.uint64)
        seg_base = kernels._arange(m_count) * self._n_slots
        # Rank every union at once, natively in a padded 2-D frame
        # (row = message, columns = union in segment order).  The
        # ``(message, ring distance)`` lexsort is equivalent to one
        # row-wise argsort over the padded distance matrix (sentinel =
        # ring max, strictly above any real distance, so padding ranks
        # last) -- same stable positional tie-break, ~4x cheaper than
        # the two radix passes of the two-key lexsort -- and the
        # balanced-close thresholds become per-row broadcasts instead
        # of segment-repeated slabs.
        l_max = int(lens.max())
        valid = kernels._arange(l_max)[None, :] < lens[:, None]
        sentinel = _np.uint64(0xFFFFFFFFFFFFFFFF)
        pad_u = _np.full((m_count, l_max), sentinel)
        pad_u[valid] = u
        if self._mask == 0xFFFFFFFFFFFFFFFF:
            fw = pad_u - peer_list[:, None]
            bw = -fw
        else:
            fw = (pad_u - peer_list[:, None]) & self._mu
            bw = (-fw) & self._mu
        dist = _np.where(valid, _np.minimum(fw, bw), sentinel)
        order2d = _np.argsort(dist, axis=1, kind="stable")
        ranked = _np.take_along_axis(pad_u, order2d, axis=1)
        succ = _np.take_along_axis(fw <= self._half_u, order2d, axis=1)
        succ &= valid
        cs = _np.cumsum(succ, axis=1)
        has_p = ranked[:, 0] == peer_list
        n_succ_seg = cs[:, -1] - has_p
        ts, tp = kernels.balanced_counts_arrays(
            n_succ_seg, lens - has_p - n_succ_seg, self._half_c
        )
        # Running successor count ``cs`` and predecessor count
        # ``col + 1 - cs`` against per-row thresholds: keep the first
        # ``ts`` successors / ``tp`` predecessors in distance order.
        # The peer itself ranks first (distance zero, unique) and is
        # excluded from both the close part and the tail.
        pred = (kernels._arange(l_max)[None, :] + 1) - cs
        keep = _np.where(
            succ, cs <= (ts + has_p)[:, None], pred <= tp[:, None]
        )
        keep &= valid
        keep[:, 0] &= ~has_p
        rest2 = valid & ~keep
        rest2[:, 0] &= ~has_p
        slots = kernels.prefix_slots_arrays(
            ranked,
            peer_list[:, None],
            self._bits,
            self._digit_bits,
            self._base_mask,
        )
        # One cap pass over every tail; per-segment key shifts keep
        # equal slots of different messages in separate groups.  The
        # cap preserves input order, so kept ids stay grouped by
        # message and split back on per-segment kept counts.  int32
        # keys when the shifted range fits: the stable argsort inside
        # the cap is a radix sort, noticeably faster on 4-byte keys.
        shifted = slots + seg_base[:, None]
        if m_count * self._n_slots <= 0x7FFFFFFF:
            shifted = shifted.astype(_np.int32)
        pad_dense = _np.empty((m_count, l_max), dtype=_np.intp)
        pad_dense[valid] = u_dense
        ranked_dense = _np.take_along_axis(pad_dense, order2d, axis=1)
        tail_all, tail_keys, tail_dense = kernels.prefix_part_with_slots(
            ranked[rest2], shifted[rest2], self._k, ranked_dense[rest2]
        )
        tail_seg = tail_keys // self._n_slots
        tail_slots = tail_keys - tail_seg * self._n_slots
        tail_counts = _np.bincount(tail_seg, minlength=m_count)
        tail_offs = _np.zeros(m_count + 1, dtype=_np.intp)
        _np.cumsum(tail_counts, out=tail_offs[1:])
        # Batched per-message assembly: row-major boolean compress
        # keeps the close ids grouped by message, and so are the
        # capped tail ids, so scattering both slabs through computed
        # destinations interleaves them as ``close_m, tail_m`` per
        # message without a per-message Python loop.
        close_all = ranked[keep]
        close_slots_all = slots[keep]
        close_counts = keep.sum(axis=1)
        close_offs = _np.zeros(m_count + 1, dtype=_np.intp)
        _np.cumsum(close_counts, out=close_offs[1:])
        bounds = close_offs + tail_offs
        c_dest = _np.repeat(bounds[:-1], close_counts) + (
            kernels._arange(close_all.size)
            - _np.repeat(close_offs[:-1], close_counts)
        )
        t_dest = _np.repeat(
            bounds[:-1] + close_counts, tail_counts
        ) + (
            kernels._arange(tail_all.size)
            - _np.repeat(tail_offs[:-1], tail_counts)
        )
        ids_flat = _np.empty(int(bounds[-1]), dtype=_np.uint64)
        slots_flat = _np.empty(int(bounds[-1]), dtype=_np.int64)
        ids_flat[c_dest] = close_all
        ids_flat[t_dest] = tail_all
        slots_flat[c_dest] = close_slots_all
        slots_flat[t_dest] = tail_slots
        # Thread each id's dense universe index through to the wave
        # absorb: its candidate slab then keys straight off the
        # message payloads instead of re-searching the universe.
        dense_flat = _np.empty(int(bounds[-1]), dtype=_np.intp)
        dense_flat[c_dest] = ranked_dense[keep]
        dense_flat[t_dest] = tail_dense
        return ids_flat, slots_flat, dense_flat, bounds

    def _absorb_candidates(
        self, ranks, cand_ids, cand_slots, cand_dense, cand_seg, universe
    ) -> None:
        """The core of the wave absorb: gate, dedup, cap and apply one
        assembled candidate slab (see :meth:`absorb_wave_flat` for the
        semantics argument).  *ranks* are the receivers' arena ranks,
        one per segment."""
        n_seg = ranks.size
        u_size = universe.size
        ckey = cand_seg * u_size + cand_dense
        if n_seg * u_size <= 0x7FFFFFFF:
            # 4-byte keys keep the stable radix argsort below fast.
            ckey = ckey.astype(_np.int32)
        # Duplicate copies of an id within a segment all face
        # identical gates -- the slot, its occupancy, and the
        # admission window are functions of (receiver, id) alone --
        # so the first-occurrence dedup commutes with the gate masks
        # and runs on the small gated subsets instead of the whole
        # candidate slab (a repeated id is a no-op in the protocol's
        # in-order updates; here only the first copy survives the
        # subset dedup, and every copy carries the same verdict).
        own_arr, full_arr, lo_arr, hi_arr, occ_slab = self._seg_columns(
            ranks
        )
        # UPDATEPREFIXTABLE: the cheap occupancy gate first (a gather
        # and a compare); dedup, novelty against the resident slab and
        # the grouped first-come cap touch open-slot candidates only
        # -- in the converged steady state almost every slot a
        # candidate maps to is already at capacity, so the expensive
        # sort/search machinery shrinks to a sliver of the wave.
        slot_key = cand_seg * self._n_slots + cand_slots
        open_mask = occ_slab[slot_key] < self._k
        if open_mask.any():
            o_idx = _np.nonzero(open_mask)[0]
            o_idx = o_idx[_first_occurrence(ckey[o_idx])]
            o_key = ckey[o_idx]
            res_key = self._resident_keys(ranks, universe, u_size)
            if res_key is not None:
                pos = _np.minimum(
                    res_key.searchsorted(o_key), res_key.size - 1
                )
                o_idx = o_idx[res_key[pos] != o_key]
        else:
            o_idx = _np.empty(0, dtype=_np.intp)
        if o_idx.size:
            c_key = slot_key[o_idx]
            order2 = _np.argsort(c_key, kind="stable")
            ss = c_key[order2]
            cm = ss.size
            idx = _np.arange(cm)
            new_group = _np.empty(cm, dtype=bool)
            new_group[0] = True
            _np.not_equal(ss[1:], ss[:-1], out=new_group[1:])
            group_start = _np.maximum.accumulate(
                _np.where(new_group, idx, 0)
            )
            keep_sorted = (idx - group_start) < (self._k - occ_slab[ss])
            if keep_sorted.any():
                adm_idx = o_idx[_np.sort(order2[keep_sorted])]
                self._install_admitted(
                    ranks,
                    cand_seg[adm_idx],
                    cand_slots[adm_idx],
                    cand_dense[adm_idx],
                    universe,
                )
        # UPDATELEAFSET: the wave-start admission windows gate first,
        # then dedup + one leaf-slab novelty scan over the gated
        # subset, then one batched balanced reselect over every touched
        # segment.
        fw = (cand_ids - own_arr[cand_seg]) & self._mu
        leaf_cand = ~full_arr[cand_seg] | (fw < lo_arr[cand_seg]) | (
            fw > hi_arr[cand_seg]
        )
        if not leaf_cand.any():
            return
        l_idx = _np.nonzero(leaf_cand)[0]
        l_idx = l_idx[_first_occurrence(ckey[l_idx])]
        lf_key = self._leaf_keys(ranks, universe, u_size)
        if lf_key is not None:
            q = ckey[l_idx]
            pos = _np.minimum(
                lf_key.searchsorted(q), lf_key.size - 1
            )
            f_idx = l_idx[lf_key[pos] != q]
        else:
            f_idx = l_idx
        if f_idx.size:
            self._reselect_leaves(ranks, cand_seg[f_idx], cand_ids[f_idx])

    def _install_admitted(
        self, ranks, a_seg, a_slots, a_dense, universe
    ) -> None:
        """UPDATEPREFIXTABLE's install for every admitting receiver of a
        wave as one slab pass.

        The admissions arrive capped and grouped by segment (*a_seg*
        non-decreasing), each with its slot and dense ``universe``
        index.  Occupancy takes one ``np.add.at``.  Each touched rank's
        sorted prefix window merges with its admissions in one sort of
        composite ``segment * len(universe) + dense`` keys -- admitted
        ids are novel, so the keys are distinct -- and the merged ids,
        slots and dense indices go back through one batched pool write
        each, leaving the touched ranks' dense caches valid."""
        a = self.arena
        u_size = universe.size
        t_seg, counts = _np.unique(a_seg, return_counts=True)
        t_ranks = ranks[t_seg]
        _np.add.at(a.slot_count, (ranks[a_seg], a_slots), 1)
        self._sync_dense_universe(universe)
        self._refresh_prefix_dense(t_ranks, universe)
        old_lens = a.p_ids.len[t_ranks]
        old_dense = kernels.segment_take(
            a.p_dense.buf, a.p_dense.off[t_ranks], old_lens
        )
        old_slots = kernels.segment_take(
            a.p_slots.buf, a.p_slots.off[t_ranks], old_lens
        )
        local = kernels._arange(t_seg.size)
        order = _np.argsort(
            _np.concatenate(
                (
                    _np.repeat(local, old_lens) * u_size + old_dense,
                    _np.repeat(local, counts) * u_size + a_dense,
                )
            )
        )
        dense = _np.concatenate((old_dense, a_dense))[order]
        slots = _np.concatenate((old_slots, a_slots))[order]
        lens = old_lens + counts
        n_ranks = a.n_ranks
        a.p_ids.write_many(t_ranks, universe[dense], lens, n_ranks)
        a.p_slots.write_many(t_ranks, slots, lens, n_ranks)
        a.p_dense.write_many(t_ranks, dense, lens, n_ranks)
        a.p_dense_valid[t_ranks] = True
        a.stats_dirty[t_ranks] = True

    def _reselect_leaves(self, ranks, f_seg, f_ids) -> None:
        """UPDATELEAFSET's balanced reselect for every touched rank of a
        wave -- or every seeded node of a start chunk
        (:meth:`start_chunk`) -- as one padded frame.

        Row ``i`` holds a touched rank's leaf row followed by its fresh
        candidates (*f_seg* non-decreasing).  One row-wise sort by ring
        distance (padding at a sentinel above any real distance) puts
        each side's candidates nearest first, so running successor /
        predecessor counts against the balanced take-counts mark the
        kept columns -- the selection :func:`select_balanced_arrays`
        makes per node (distances within a side are distinct; a row of
        at most ``c`` candidates keeps them all).  A second row-wise
        sort restores id order.  Only rows whose leaf actually changed
        are written, with their side counts, worst kept distances,
        fullness and admission windows, and only they drop their
        dense cache and dirty their deficit: a rejected-everything
        reselect leaves the rank untouched, its dense cache and cached
        deficit still valid."""
        a = self.arena
        c = self._c
        mu = self._mu
        t_seg, counts = _np.unique(f_seg, return_counts=True)
        t_ranks = ranks[t_seg]
        m = t_seg.size
        old_len = a.leaf_len[t_ranks]
        old = a.leaf[t_ranks]
        width = c + int(counts.max())
        frame = _np.empty((m, width), dtype=_np.uint64)
        frame[:, :c] = old
        within = kernels._arange(f_ids.size) - _np.repeat(
            _np.cumsum(counts) - counts, counts
        )
        frame.reshape(-1)[
            _np.repeat(kernels._arange(m) * width + c, counts) + within
        ] = f_ids
        col = kernels._arange(width)[None, :]
        valid = (col < old_len[:, None]) | (
            (col >= c) & (col < (c + counts)[:, None])
        )
        own = a.node_ids[t_ranks][:, None]
        if self._mask == 0xFFFFFFFFFFFFFFFF:
            fw = frame - own
            bw = -fw
        else:
            fw = (frame - own) & mu
            bw = (-fw) & mu
        sentinel = _np.uint64(0xFFFFFFFFFFFFFFFF)
        order = _np.argsort(
            _np.where(valid, _np.minimum(fw, bw), sentinel),
            axis=1,
            kind="stable",
        )
        ranked = _np.take_along_axis(frame, order, axis=1)
        fw = _np.take_along_axis(fw, order, axis=1)
        bw = _np.take_along_axis(bw, order, axis=1)
        n_valid = old_len + counts
        in_row = col < n_valid[:, None]
        succ = (fw <= self._half_u) & in_row
        cs = _np.cumsum(succ, axis=1)
        ts, tp = kernels.balanced_counts_arrays(
            cs[:, -1], n_valid - cs[:, -1], self._half_c
        )
        keep = _np.where(
            succ, cs <= ts[:, None], (col + 1 - cs) <= tp[:, None]
        )
        keep &= in_row
        new = _np.sort(_np.where(keep, ranked, sentinel), axis=1)[:, :c]
        new_len = keep.sum(axis=1)
        changed = (new_len != old_len) | (
            (new != old) & (col[:, :c] < new_len[:, None])
        ).any(axis=1)
        if not changed.any():
            return
        keep = keep[changed]
        succ = succ[changed]
        kept_succ = keep & succ
        kept_pred = keep & ~succ
        n_succ = kept_succ.sum(axis=1)
        n_pred = kept_pred.sum(axis=1)
        succ_max = _np.where(kept_succ, fw[changed], 0).max(axis=1)
        pred_max = _np.where(kept_pred, bw[changed], 0).max(axis=1)
        new_len = new_len[changed]
        cr = t_ranks[changed]
        a.leaf[cr] = new[changed]
        a.leaf_len[cr] = new_len
        a.succ_count[cr] = n_succ
        a.pred_count[cr] = n_pred
        a.succ_max[cr] = _np.where(n_succ > 0, succ_max.astype(_np.int64), -1)
        a.pred_max[cr] = _np.where(n_pred > 0, pred_max.astype(_np.int64), -1)
        full = new_len >= c
        a.leaf_full[cr] = full
        # Admission window of the full rows: a short side accepts its
        # whole half-ring, a full side only below/above its worst kept
        # distance (pred_max >= 1 on a full side, so the upper edge fits
        # the ring's unsigned width).
        fr = cr[full]
        a.accept_lo[fr] = _np.where(
            n_succ[full] < self._half_c,
            _np.uint64(self._half_ring + 1),
            succ_max[full],
        )
        a.accept_hi[fr] = _np.where(
            n_pred[full] < self._half_c,
            self._half_u,
            mu - pred_max[full] + _np.uint64(1),
        )
        a.leaf_dense_valid[cr] = False
        a.stats_dirty[cr] = True

    def absorb_wave_flat(self, wave, specs, universe) -> None:
        """One wave's absorbs as a segmented slab pass.

        *wave* is :meth:`create_wave_flat`'s return value; *specs* is
        the arrival-ordered list of ``(state, message_index,
        sender_id)`` absorbs (the cycle builds only delivered messages,
        so each message has one); *universe* is the sorted uint64 array of
        **every identifier ever admitted** to the network (dead ids
        stay: they persist in tables and messages).  One vectorised
        gather through the message bounds assembles the candidate slab
        (payload rows, then the envelope sender row after each message
        that has one).

        The wave's candidates are laid out as one contiguous id slab
        with per-segment offset/length arrays -- a segment is one
        receiving node, its messages kept in arrival order -- and the
        per-exchange novelty/dedup/cap scans become whole-wave kernel
        calls:

        * every id maps to its dense ``universe`` index, so the
          composite key ``segment * len(universe) + dense`` makes the
          concatenated (per-node sorted) resident tables a *globally*
          sorted slab -- novelty for the whole wave is a single
          ``searchsorted``, not one per message;
        * first-occurrence dedup per ``(segment, id)`` reproduces the
          protocol's in-order scan exactly: a repeated id is always a
          no-op there (admitted ids are resident, rejected ids face the
          same full slot);
        * slot capping is a stable grouped rank -- first come, first
          served per slot, as UPDATEPREFIXTABLE fills --
          keyed by ``segment * n_slots + slot`` against a
          concatenated occupancy slab, so first-come order within a
          receiver is preserved across its messages; the capped
          admissions of every receiver are installed together
          (:meth:`_install_admitted`: one occupancy ``add.at``, one
          composite-key merge with the resident windows, one batched
          pool write);
        * UPDATELEAFSET applies the wave-start admission windows and
          folds each segment's surviving candidates through one
          balanced reselect, every touched segment's in one padded
          frame (:meth:`_reselect_leaves`).  This is bit-identical to
          the sequential merges because balanced selection is an
          associative fold: take-counts are monotone in the candidate
          set, so an id a sequential intermediate window would have
          dropped is dropped by the final reselect too (and ids the
          stale wave-start window over-admits are exactly those).

        The result equals ``BootstrapNode.absorb`` (UPDATELEAFSET, then
        UPDATEPREFIXTABLE) replayed per spec in arrival order, on every
        receiver (pinned by the engine suite's exchange-log replay).
        """
        if not specs:
            return
        ids_flat, slots_flat, dense_flat, bounds = wave
        # Group by receiver, first-appearance segment order; each
        # receiver's messages stay in wave order (live handles and
        # ranks are one-to-one, so the rank is the receiver's key).
        count = len(specs)
        rk = _np.fromiter(
            (spec[0].rank for spec in specs), dtype=_np.intp, count=count
        )
        _, first, inverse = _np.unique(
            rk, return_index=True, return_inverse=True
        )
        appearance = _np.argsort(first)
        seg_of = _np.empty(first.size, dtype=_np.intp)
        seg_of[appearance] = kernels._arange(first.size)
        seg = seg_of[inverse]
        order = _np.argsort(seg, kind="stable")
        ranks = rk[first[appearance]]
        aseg = seg[order]
        mi_arr = _np.fromiter(
            (spec[1] for spec in specs), dtype=_np.intp, count=count
        )[order]
        senders = _np.fromiter(
            (spec[2] for spec in specs), dtype=_np.uint64, count=count
        )[order]
        owners = self.arena.node_ids[rk[order]]
        sflag = senders != owners
        s_ids = senders[sflag]
        s_slots = kernels.prefix_slots_arrays(
            s_ids,
            owners[sflag],
            self._bits,
            self._digit_bits,
            self._base_mask,
        )
        s_dense = universe.searchsorted(s_ids).astype(_np.intp)
        b0 = bounds[mi_arr]
        mlen = bounds[mi_arr + 1] - b0
        plen = mlen + sflag
        cum = _np.cumsum(plen)
        total = int(cum[-1])
        if not total:
            return
        # Ragged gather: positions below a message's length read its
        # payload rows from the wave slabs; the one position past the
        # end (present when the flag is set) reads the precomputed
        # sender row appended after the slabs.
        within = kernels._arange(total) - _np.repeat(cum - plen, plen)
        pay = within < _np.repeat(mlen, plen)
        src = _np.where(
            pay,
            _np.repeat(b0, plen) + within,
            ids_flat.size + _np.repeat(_np.cumsum(sflag) - sflag, plen),
        )
        cand_ids = _np.concatenate((ids_flat, s_ids))[src]
        cand_slots = _np.concatenate((slots_flat, s_slots))[src]
        cand_dense = _np.concatenate((dense_flat, s_dense))[src]
        self._absorb_candidates(
            ranks,
            cand_ids,
            cand_slots,
            cand_dense,
            _np.repeat(aseg, plen),
            universe,
        )

    # -- wave-absorb slab gathers -----------------------------------------

    def _seg_columns(self, ranks):
        """The wave absorb's per-segment columns (own id, leaf-full
        flag, admission window) as one fancy index each, plus the
        receivers' occupancy rows as one flat slab."""
        a = self.arena
        return (
            a.node_ids[ranks],
            a.leaf_full[ranks],
            a.accept_lo[ranks],
            a.accept_hi[ranks],
            a.slot_count[ranks].reshape(-1),
        )

    def _sync_dense_universe(self, universe) -> None:
        """Invalidate every pooled dense-index cache when the
        membership universe was rebuilt (identity-keyed: holding the
        reference also keeps the old object alive, so its id cannot be
        recycled)."""
        a = self.arena
        if a.dense_universe is not universe:
            a.p_dense_valid[:] = False
            a.leaf_dense_valid[:] = False
            a.dense_universe = universe

    def _resident_keys(self, ranks, universe, u_size):
        """Concatenated ``segment * u_size + dense`` keys of the
        resident prefix ids of every rank of *ranks* (segment ``i`` is
        ``ranks[i]``; a rank may repeat) -- sorted, because each table
        is sorted and segments concatenate in order -- or ``None``
        when none has any.

        One ragged pool gather: each rank's dense indices live in a
        pool mirroring ``p_ids``, refreshed in one batched
        ``searchsorted`` over just the stale ranks, so the steady-state
        path is a ``segment_take`` and an add."""
        a = self.arena
        pool = a.p_ids
        lens = pool.len[ranks]
        if not int(lens.sum()):
            return None
        self._sync_dense_universe(universe)
        self._refresh_prefix_dense(ranks, universe)
        dense = kernels.segment_take(
            a.p_dense.buf, a.p_dense.off[ranks], lens
        )
        return _np.repeat(
            kernels._arange(ranks.size), lens
        ) * u_size + dense

    def _refresh_prefix_dense(self, ranks, universe) -> None:
        """Re-derive the dense prefix windows of the stale ranks among
        *ranks* in one batched ``searchsorted`` and one pool write (the
        universe is already synced).  A rank may repeat in *ranks* --
        a sender owns two jobs of a wave -- and is written once."""
        a = self.arena
        stale = _np.unique(ranks[~a.p_dense_valid[ranks]])
        if stale.size:
            pool = a.p_ids
            s_lens = pool.len[stale]
            flat = kernels.segment_take(pool.buf, pool.off[stale], s_lens)
            a.p_dense.write_many(
                stale, universe.searchsorted(flat), s_lens, a.n_ranks
            )
            a.p_dense_valid[stale] = True

    def _leaf_keys(self, ranks, universe, u_size):
        """Composite leaf keys via the fixed-width ``leaf_dense`` slab
        (see :meth:`_resident_keys`; the stale-rank refresh scatters
        straight into the slab rows)."""
        a = self.arena
        lens = a.leaf_len[ranks]
        total = int(lens.sum())
        if not total:
            return None
        self._sync_dense_universe(universe)
        width = a.leaf.shape[1]
        stale = _np.unique(ranks[~a.leaf_dense_valid[ranks]])
        if stale.size:
            s_lens = a.leaf_len[stale]
            flat = kernels.segment_take(
                a.leaf.ravel(), stale * width, s_lens
            )
            dense_flat = universe.searchsorted(flat).astype(_np.int32)
            s_offs = _np.cumsum(s_lens) - s_lens
            within = kernels._arange(flat.size) - _np.repeat(
                s_offs, s_lens
            )
            a.leaf_dense.ravel()[
                _np.repeat(stale * width, s_lens) + within
            ] = dense_flat
            a.leaf_dense_valid[stale] = True
        dense = kernels.segment_take(
            a.leaf_dense.ravel(), ranks * width, lens
        )
        return _np.repeat(
            kernels._arange(ranks.size), lens
        ) * u_size + dense

    def select_wave(self, states, u, fallback):
        """SELECTPEER for one chunk of started nodes in a single pass,
        one pre-drawn uniform of *u* each.

        A non-empty leaf set picks uniformly over its closest half: the
        chunk's leaf rows are ranked in one row-wise stable sort by
        ring distance and each row reads column ``min(int(u * half),
        half - 1)`` of its ranking.  An empty leaf set falls back to the
        peer sampling service: ``fallback(rows)`` hands over the sample
        rows ``(ids, lens)`` of the chunk rows *rows* that need one,
        and the pick is the first id of the row that is not the node
        itself (``None`` if there is none).  Returns one entry per
        state.
        """
        a = self.arena
        m = len(states)
        ranks = _np.fromiter(
            (state.rank for state in states), dtype=_np.intp, count=m
        )
        # The rows are id-sorted, so ties keep id order -- the
        # ``(distance, id)`` ranking -- and padding, at a sentinel
        # distance no real entry reaches, ranks last.
        leaf = a.leaf[ranks]
        lens = a.leaf_len[ranks]
        own = a.node_ids[ranks]
        if self._mask == 0xFFFFFFFFFFFFFFFF:
            fw = leaf - own[:, None]
            bw = -fw
        else:
            fw = (leaf - own[:, None]) & self._mu
            bw = (-fw) & self._mu
        dist = _np.minimum(fw, bw)
        dist[kernels._arange(leaf.shape[1])[None, :] >= lens[:, None]] = (
            _np.uint64(0xFFFFFFFFFFFFFFFF)
        )
        order = _np.argsort(dist, axis=1, kind="stable")
        half = (lens + 1) // 2
        pick = _np.minimum((u * half).astype(_np.intp), half - 1)
        rows = kernels._arange(m)
        peers = leaf[rows, order[rows, pick]].tolist()
        empty = _np.flatnonzero(lens == 0)
        if empty.size:
            ids, f_lens = fallback(empty)
            usable = (ids != own[empty][:, None]) & (
                kernels._arange(ids.shape[1])[None, :] < f_lens[:, None]
            )
            for j, row, ok in zip(
                empty.tolist(), ids.tolist(), usable.tolist(), strict=True
            ):
                peers[j] = next(
                    (nid for nid, hit in zip(row, ok, strict=True) if hit), None
                )
        return peers


# ----------------------------------------------------------------------
# Tracker and simulation
# ----------------------------------------------------------------------


class VectorConvergenceTracker:
    """Convergence measurement over vector-engine node states.

    Produces the same :class:`ConvergenceSample` metric as the
    reference tracker.  The ops' slab measurer
    (:class:`~repro.engine_vector.arena.SlabMeasure`) packs its own
    perfect tables and recomputes deficits as array passes over the
    arena's slabs; the tracker binds a fresh one after every
    membership change.
    """

    def __init__(self, ops, states) -> None:
        self._ops = ops
        self.samples: list[ConvergenceSample] = []
        self.rebind(states)

    def rebind(self, states) -> None:
        """Swap the population after a membership change, keeping the
        sample history."""
        self._slab = self._ops.slab_measurer(states)

    def measure(self, cycle: float, check_live: bool) -> ConvergenceSample:
        """Take one network-wide measurement and append it to
        :attr:`samples` (same metric as the reference tracker;
        *check_live* enables dead-entry filtering once any node has
        been killed)."""
        missing_leaf, total_leaf, missing_prefix, total_prefix = (
            self._slab.measure(check_live)
        )
        sample = ConvergenceSample(
            cycle=cycle,
            missing_leaf=missing_leaf,
            total_leaf=total_leaf,
            missing_prefix=missing_prefix,
            total_prefix=total_prefix,
        )
        self.samples.append(sample)
        return sample


class VectorBootstrapSimulation(CycleSimulation):
    """Whole-cycle-batched twin of :class:`BootstrapSimulation`.

    Same parameters and experiment surface as the other engines; see
    the module docstring for the relaxed (distributional) equivalence
    contract and :mod:`repro.engine_vector.rng` for the RNG stream.
    """

    engine_name = "vector"

    def __init__(
        self,
        size: int | None = None,
        *,
        ids: Sequence[int] | None = None,
        config: BootstrapConfig = PAPER_CONFIG,
        seed: int = 1,
        network: NetworkModel = RELIABLE,
        sampler: str = "oracle",
        newscast_view_size: int = 30,
        wave: int | None = None,
    ) -> None:
        if wave is not None and wave < 1:
            raise ValueError(f"wave must be >= 1, got {wave}")
        # Wave size: how many exchanges are message-built together
        # from wave-start state per batch (None = ``max(1, n // 16)``,
        # scaling with the population so the ``W/n`` staleness ratio
        # stays size-independent); see ``create_wave_flat``.
        self._wave = wave
        self._ops = _NumpyOps(
            config, capacity=len(ids) if ids is not None else int(size or 0)
        )
        self._draws = NumpyDrawSource(derive_seed(seed, "vector-rng"))
        super().__init__(
            size, ids, config, seed, network, sampler, newscast_view_size
        )
        self.tracker = VectorConvergenceTracker(
            self._ops, self.nodes.values()
        )

    def _open(self) -> None:
        self._c = self.config.leaf_set_size
        self._cr = self.config.random_samples
        self.registry = FastRegistry()
        self._pool = None
        # Every identifier ever admitted, in admission order; the
        # sorted numpy form is the wave absorb's dense id universe
        # (dead ids stay -- they persist in tables and messages).
        self._ids_ever: list[int] = []
        self._universe = None
        self._reference: ReferenceTables | None = None
        self._ever_killed = False
        self._boot = _Layer()
        self._news: _Layer | None = None
        if self.sampler_kind == "newscast":
            self._news = _Layer()
            arena = self._ops.arena
            arena.views = ViewSlab(arena.capacity, self._newscast_view_size)

    # ------------------------------------------------------------------
    # Membership (same seed-tree names as the reference)
    # ------------------------------------------------------------------

    def _admit(self, node_id: int):
        self._ids_ever.append(node_id)
        self._universe = None
        self._reference = None
        self.registry.add(node_id)
        if self._news is not None:
            self._news.dirty = True
        state = self._ops.new_state(node_id)
        self.nodes[node_id] = state
        self._boot.dirty = True
        return state

    def _seed_view(self, node_id: int, rng) -> None:
        self._ops.seed_view(
            self.nodes[node_id].rank,
            self.registry.sample(
                self._newscast_view_size, rng, exclude_id=node_id
            ),
        )

    def kill_node(self, node_id: int) -> bool:
        """Crash *node_id*: it stops sending, answering, and being a
        valid table entry.  Returns whether the node was live."""
        state = self.nodes.pop(node_id, None)
        if state is None:
            return False
        # Recycle the dead node's rank and pool windows.  The tracker
        # rebinds before its next measurement (membership is dirty),
        # so no live consumer still resolves the stale handle.
        self._ops.release_state(state)
        self.registry.remove(node_id)
        self._boot.dirty = True
        if self._news is not None:
            # The view row goes with the rank; the next node to claim
            # the rank seeds it afresh.
            self._news.dirty = True
        self._reference = None
        self._membership_dirty = True
        self._ever_killed = True
        return True

    def _wave_universe(self):
        """The sorted dense id universe of the wave kernels."""
        universe = self._universe
        if universe is None:
            count = len(self._ids_ever)
            # ``unique``, not ``sort``: a killed id may be re-admitted.
            universe = self._universe = _np.unique(
                _np.fromiter(self._ids_ever, dtype=_np.uint64, count=count)
            )
        return universe

    @property
    def reference(self) -> ReferenceTables:
        """Perfect tables of the live identifier set (the object-level
        oracle), built on first access after a membership change.  The
        engine's own measurement never builds them: its slab measurer
        packs the same tables as arrays."""
        if self._reference is None:
            self._reference = self._perfect_tables()
        return self._reference

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """One Δ interval: NEWSCAST gossips first (when live), then
        every bootstrap node performs one exchange."""
        if self._news is not None:
            self._newscast_cycle()
        self._bootstrap_cycle()

    def _bootstrap_cycle(self) -> None:
        layer = self._boot
        nodes = self.nodes
        ops = self._ops
        draws = self._draws
        if layer.dirty:
            layer.order = list(nodes)
            self._pool = _as_ids(layer.order)
            layer.dirty = False
        order = list(layer.order)
        draws.shuffle(order)
        n = len(order)
        if n == 0:
            layer.cycle += 1
            return
        states = [nodes[nid] for nid in order]
        ranks = _np.fromiter(
            (state.rank for state in states), dtype=_np.intp, count=n
        )
        # Activation positions of the nodes that start this cycle.
        to_start = _np.flatnonzero(~ops.arena.started[ranks])
        n_start = to_start.size
        cr = self._cr
        oracle = self.sampler_kind == "oracle"
        peer_u = draws.floats(n)
        drop_p = self.network.drop_probability
        req_coins = rep_coins = None
        if drop_p:
            req_coins = draws.floats(n)
            rep_coins = draws.floats(n)
        # Start seeds: row ``k`` for the ``k``-th starting node in
        # activation order.  The fallback picks of empty leaf sets read
        # the node's request sample row: id-sorted for the oracle, in
        # draw order for NEWSCAST.
        if oracle:
            if n_start:
                start_rows = self._pool[draws.index_matrix(n, n_start, self._c)]
                start_lens = _np.full(n_start, self._c, dtype=_np.intp)
            # Request row ``i`` and reply row ``n + i`` of exchange
            # ``i``: ids drawn with replacement from the live pool, and
            # their dense universe indices.
            index = draws.index_matrix(n, 2 * n, cr)
            sample_buf = (
                self._pool[index],
                self._wave_universe().searchsorted(self._pool)[index],
            )

            def fallback(rows):
                return (
                    _np.sort(sample_buf[0][rows], axis=1),
                    _np.full(rows.size, cr, dtype=_np.intp),
                )

        else:
            start_f = draws.float_matrix(n_start, self._c) if n_start else None
            sample_f = draws.float_matrix(2 * n, cr)
            if n_start:
                # The views stand still during the bootstrap cycle, so
                # one gather draws every seed row.
                start_rows, start_lens = ops.view_samples(
                    ranks[to_start], self._c, start_f
                )

            def fallback(rows):
                return ops.view_samples(ranks[rows], cr, sample_f[rows])

        stats = layer.stats
        get = nodes.get
        wave = self._wave or max(1, n // 16)
        pending: list[tuple] = []

        # Settled receivers are fixed points while the network is
        # static: no message can change a node holding its perfect
        # tables, so messages to one are neither built nor absorbed.
        # Not after any kill (dead ids circulate and would be
        # re-admitted), and not while a membership change awaits the
        # measurement that re-bases the cached deficits.  No settled
        # rank is written during the cycle (its absorbs are the
        # skipped ones), so one query serves the whole cycle.
        settled = None
        if not self._ever_killed and not self._membership_dirty:
            mask = ops.settled_ranks()
            if mask.any():
                settled = mask.tolist()

        def flush() -> None:
            # The drop coins are read before anything is built: a lost
            # request builds neither message, a lost reply builds no
            # reply, and nothing is built for a settled receiver, while
            # the transport accounting covers every exchange.  So each
            # job is absorbed exactly once -- job ``k`` is spec ``k``,
            # in arrival order -- and the wave is drained in one
            # segmented slab pass.  Its samples travel as one ragged
            # slab: oracle rows gathered from the batch buffer, NEWSCAST
            # samples gathered from the view rows (float row ``i`` for
            # the request of exchange ``i``, ``n + i`` for its reply).
            jobs = []
            rows = []
            specs: list[tuple] = []
            for i_, nid_, state_, peer_, target_ in pending:
                if drop_p and req_coins[i_] < drop_p:
                    stats.requests_dropped += 1
                    stats.suppressed_replies += 1
                    continue
                if settled is None or not settled[target_.rank]:
                    specs.append((target_, len(jobs), nid_))
                    jobs.append((state_, peer_))
                    rows.append(i_)
                stats.replies_sent += 1
                if drop_p and rep_coins[i_] < drop_p:
                    stats.replies_dropped += 1
                    continue
                if settled is None or not settled[state_.rank]:
                    specs.append((state_, len(jobs), peer_))
                    jobs.append((target_, nid_))
                    rows.append(n + i_)
            pending.clear()
            if not jobs:
                return
            universe_w = self._wave_universe()
            row_idx = _np.array(rows, dtype=_np.intp)
            if oracle:
                buf_rows, dense = sample_buf
                samples_w = (
                    buf_rows[row_idx].reshape(-1),
                    dense[row_idx].reshape(-1),
                    _np.full(row_idx.size, cr, dtype=_np.intp),
                )
            else:
                rows_w, lens = ops.view_samples(
                    _np.fromiter(
                        (state.rank for state, _ in jobs),
                        dtype=_np.intp,
                        count=len(jobs),
                    ),
                    cr,
                    sample_f[row_idx],
                )
                ids = rows_w[kernels._arange(rows_w.shape[1]) < lens[:, None]]
                samples_w = (ids, universe_w.searchsorted(ids), lens)
            wave_buf = ops.create_wave_flat(jobs, universe_w, samples_w)
            ops.absorb_wave_flat(wave_buf, specs, universe_w)

        # The order runs in chunks, each ending where the earliest flush
        # can fall (``wave - len(pending)`` nodes on), so no absorb
        # lands between a chunk's starts and picks and its nodes'
        # turns: a node that absorbed before its turn still clears its
        # prefix table at its turn, and each pick sees the tables the
        # sequential walk would.
        start_at = 0
        lo = 0
        while lo < n:
            hi = min(lo + wave - len(pending), n)
            end = start_at + int(to_start[start_at:].searchsorted(hi))
            if end > start_at:
                ops.start_chunk(
                    [states[p] for p in to_start[start_at:end].tolist()],
                    (start_rows[start_at:end], start_lens[start_at:end]),
                )
                start_at = end
            picks = ops.select_wave(
                states[lo:hi],
                peer_u[lo:hi],
                lambda rows, base=lo: fallback(rows + base),
            )
            for i, peer_id in enumerate(picks, lo):
                if peer_id is None:
                    continue
                target = get(peer_id)
                stats.exchanges += 1
                stats.requests_sent += 1
                if target is None:
                    # Void target: the request's content is
                    # unobservable (nobody absorbs it) and the batched
                    # samples are pre-drawn, so the message build is
                    # skipped outright.
                    if drop_p and req_coins[i] < drop_p:
                        stats.requests_dropped += 1
                    else:
                        stats.void_requests += 1
                    stats.suppressed_replies += 1
                    continue
                pending.append((i, order[i], states[i], peer_id, target))
            if len(pending) >= wave:
                flush()
            lo = hi
        if pending:
            flush()
        layer.cycle += 1

    def _newscast_cycle(self) -> None:
        """One NEWSCAST gossip cycle over the view rows.

        The exchanges run in the shuffled order, cut into batches that
        touch no view twice for writing: a batch is flushed before an
        exchange whose initiator's view, or (for a delivered request)
        whose target's view, an earlier merge of the batch wrote.
        Every read of a batch then sees the batch-start rows -- exactly
        what the sequential exchange would see -- and the batch's
        merges, on distinct views, run together
        (:meth:`_NumpyOps.merge_views`).  Peer picks are read from the
        rows a chunk at a time; a pick is used only while its view is
        unwritten, so it is the sequential pick."""
        layer = self._news
        ops = self._ops
        draws = self._draws
        if layer.dirty:
            layer.order = [state.rank for state in self.nodes.values()]
            layer.dirty = False
        order = list(layer.order)
        draws.shuffle(order)
        n = len(order)
        if n == 0:
            layer.cycle += 1
            return
        peer_u = draws.floats(n)
        drop_p = self.network.drop_probability
        req_coins = rep_coins = None
        if drop_p:
            req_coins = draws.floats(n)
            rep_coins = draws.floats(n)
        now = layer.cycle
        stats = layer.stats
        get = self.nodes.get
        ranks = _np.array(order, dtype=_np.intp)
        written: set[int] = set()
        recv: list[int] = []
        send: list[int] = []
        i = 0
        while i < n:
            hi = min(n, i + _PICK_CHUNK)
            picks = ops.view_picks(ranks[i:hi], peer_u[i:hi])
            j = i
            while j < hi:
                r = order[j]
                if r in written:
                    break
                peer = picks[j - i]
                if peer is None:
                    j += 1
                    continue
                lost = drop_p and req_coins[j] < drop_p
                target = None if lost else get(peer)
                if target is not None and target.rank in written:
                    break
                stats.exchanges += 1
                stats.requests_sent += 1
                if lost:
                    stats.requests_dropped += 1
                    stats.suppressed_replies += 1
                elif target is None:
                    stats.void_requests += 1
                    stats.suppressed_replies += 1
                else:
                    t = target.rank
                    recv.append(t)
                    send.append(r)
                    written.add(t)
                    stats.replies_sent += 1
                    if drop_p and rep_coins[j] < drop_p:
                        stats.replies_dropped += 1
                    else:
                        recv.append(r)
                        send.append(t)
                        written.add(r)
                j += 1
            if j < hi:
                ops.merge_views(recv, send, now)
                recv = []
                send = []
                written.clear()
            i = j
        if recv:
            ops.merge_views(recv, send, now)
        layer.cycle += 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self) -> ConvergenceSample:
        """Measure convergence now (rebinding the tracker to the live
        population first if membership changed)."""
        if self._membership_dirty:
            self.tracker.rebind(self.nodes.values())
            self._membership_dirty = False
        return self.tracker.measure(
            float(self._boot.cycle), self._ever_killed
        )
