"""The vectorised-semantics cycle engine (``engine="vector"``).

:class:`VectorBootstrapSimulation` is the third engine behind the
engine seam.  It exposes the same constructor, membership-mutation
surface (``kill_node``/``spawn_node``/``absorb_pool``) and
``run``/``measure`` API as the reference and fast engines, but it
deliberately **breaks the bit-identity contract** those two share:

* All exchange randomness comes from **one generator per simulation**
  (:mod:`repro.engine_vector.rng`): the activation permutation, peer
  picks, drop coins, and peer-sampling draws of a cycle are bulk
  draws, not per-node stream consumption.
* The idealised oracle's ``cr`` fresh samples per message are drawn
  **with replacement** from the live pool (and may include the
  sender); duplicates vanish in the message union, so for ``cr << N``
  the effect is a vanishing reduction of effective fresh samples.
* On the numpy leg, per-node state lives in sorted ``uint64`` id
  arrays and every per-exchange operation -- message-union dedup, ring
  ranking, balanced selection, prefix-slot capping, absorb novelty
  scans, and convergence measurement -- is an array operation (the
  geometry kernels are shared with :mod:`repro.engine_fast.kernels`).

What is preserved -- and what the statistical-equivalence harness
(``tests/test_engine_vector.py``) pins against the reference engine --
is the *distribution* of trajectories: exchanges stay sequential
within a cycle in a uniformly random activation order, message
construction follows the paper's CREATEMESSAGE exactly, UPDATELEAFSET
and UPDATEPREFIXTABLE semantics are unchanged, and message-drop coins
are i.i.d. per transmission.  Mean convergence curves,
convergence-cycle summaries, and transport loss fractions match the
reference engine within tight tolerances; individual trajectories do
not (and per-seed results differ between the numpy leg and the
pure-Python fallback leg, each being deterministic on its own).

Membership randomness (initial identifier draw, spawn identifiers,
NEWSCAST view seeding) still uses the reference seed tree, so a given
seed simulates the *same network* on all three engines -- differences
between engines are purely exchange randomness, which is what makes
the statistical comparison well-conditioned.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .. import seams
from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.convergence import ConvergenceSample
from ..core.reference import ReferenceTables
from ..engine_fast import kernels
from ..engine_fast.state import FastRegistry
from ..simulator.bootstrap_sim import SAMPLER_KINDS, SimulationResult
from ..simulator.network import NetworkModel, RELIABLE, TransportStats
from ..simulator.random_source import RandomSource, derive_seed
from . import rng as vrng
from .arena import Arena, ArenaState, SlabMeasure
from .rng import make_draw_source, sample_distinct

try:  # pragma: no cover - exercised via both backend parametrisations
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "ABSORB_MODES",
    "STATE_MODES",
    "VectorBootstrapSimulation",
    "VectorConvergenceTracker",
    "VectorNewscastView",
    "absorb_mode",
    "state_mode",
]

#: Absorb dispatch modes: ``batch`` drains each wave's surviving
#: absorbs through one segmented slab pass (``absorb_wave``);
#: ``single`` replays the per-exchange scalar path.  The two are
#: **bit-identical** (pinned by ``tests/test_engine_vector.py``); the
#: seam exists so the equivalence stays testable and the scalar path
#: stays debuggable.
ABSORB_MODES = ("batch", "single")


def absorb_mode(override: str | None = None) -> str:
    """Resolve the absorb dispatch mode (``REPRO_VECTOR_ABSORB``).

    *override* (a constructor argument) wins over the environment;
    unset means ``batch``.
    """
    mode = override
    if mode is None:
        mode = seams.get("REPRO_VECTOR_ABSORB") or "batch"
    if mode not in ABSORB_MODES:
        raise ValueError(
            f"absorb mode must be one of {ABSORB_MODES}, got {mode!r}"
        )
    return mode


#: State layouts for the numpy leg: ``arena`` keeps the whole
#: population in pool-resident structure-of-arrays slabs
#: (:mod:`repro.engine_vector.arena`); ``pernode`` keeps the original
#: per-node array objects.  The two are **bit-identical** (pinned by
#: ``tests/test_engine_vector_arena.py``); the seam keeps the
#: equivalence testable and the per-node layout debuggable.  The
#: pure-Python fallback leg keeps its set state under either value.
STATE_MODES = ("arena", "pernode")


def state_mode(override: str | None = None) -> str:
    """Resolve the state layout (``REPRO_VECTOR_STATE``).

    *override* (a constructor argument) wins over the environment;
    unset means ``arena``.
    """
    mode = override
    if mode is None:
        mode = seams.get("REPRO_VECTOR_STATE") or "arena"
    if mode not in STATE_MODES:
        raise ValueError(
            f"state mode must be one of {STATE_MODES}, got {mode!r}"
        )
    return mode


class _Layer:
    """One gossip layer's bookkeeping (order cache + transport
    accounting + cycle counter)."""

    __slots__ = ("stats", "order", "dirty", "cycle")

    def __init__(self) -> None:
        self.stats = TransportStats()
        self.order: list[int] = []
        self.dirty = True
        self.cycle = 0


class VectorNewscastView:
    """NEWSCAST view for the vector engine: the same freshest-wins
    merge mechanics as the reference/fast views, but peer picks and
    view samples are realised from pre-drawn uniforms instead of an
    owned ``random.Random`` stream."""

    __slots__ = ("own_id", "capacity", "entries", "now")

    def __init__(self, own_id: int, capacity: int) -> None:
        self.own_id = own_id
        self.capacity = capacity
        self.entries: dict[int, float] = {}
        self.now = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    def select_peer(self, u: float) -> int | None:
        """Uniform pick over the view from one pre-drawn float."""
        if not self.entries:
            return None
        keys = list(self.entries)
        return keys[min(int(u * len(keys)), len(keys) - 1)]

    def payload(self) -> list[tuple[int, float]]:
        """The whole view plus the freshly-stamped own advertisement."""
        pairs = list(self.entries.items())
        pairs.append((self.own_id, self.now))
        return pairs

    def merge(self, pairs: list[tuple[int, float]]) -> None:
        """Freshest per id, truncated to the ``capacity`` freshest
        (ties broken by id) -- identical to the reference merge."""
        entries = self.entries
        own = self.own_id
        for nid, ts in pairs:
            if nid == own:
                continue
            current = entries.get(nid)
            if current is None or ts > current:
                entries[nid] = ts
        if len(entries) > self.capacity:
            survivors = sorted(
                entries.items(), key=lambda p: (-p[1], p[0])
            )[: self.capacity]
            self.entries = dict(survivors)

    def sample(self, count: int, floats: Sequence[float]) -> list[int]:
        """*count* distinct view members from pre-drawn uniforms."""
        if count <= 0 or not self.entries:
            return []
        return sample_distinct(list(self.entries), count, floats)

    def seed(self, ids: Iterable[int]) -> None:
        """Install an initial membership sample (timestamp 0)."""
        self.merge([(nid, 0.0) for nid in ids])


# ----------------------------------------------------------------------
# numpy leg: sorted-array node state + vectorised transitions
# ----------------------------------------------------------------------


class _ArrayState:
    """One node as sorted numpy arrays.

    ``leaf`` and ``prefix_ids`` are ascending uint64 id arrays (sorted
    by *id*, which makes novelty scans a ``searchsorted``);
    ``prefix_slots`` is parallel to ``prefix_ids`` (packed slot of each
    entry in this node's table) and ``slot_count`` the per-slot
    occupancy, so capacity checks and convergence measurement are pure
    fancy indexing.  ``leaf_ranked`` caches the distance-ranked leaf
    ids between membership changes (SELECTPEER's pick order); the
    ``succ_*``/``pred_*`` bounds are the UPDATELEAFSET no-op filter
    (same invariant as the fast engine's ``FastNodeState``).
    """

    __slots__ = (
        "node_id",
        "own_u64",
        "leaf",
        "leaf_ranked",
        "leaf_full",
        "succ_count",
        "succ_max",
        "pred_count",
        "pred_max",
        "accept_lo",
        "accept_hi",
        "prefix_ids",
        "prefix_slots",
        "slot_count",
        "known",
        "stats_dirty",
        "started",
        "dense_cache",
    )

    def __init__(self, node_id: int, n_slots: int) -> None:
        self.node_id = node_id
        self.own_u64 = _np.array([node_id], dtype=_np.uint64)
        self.leaf = _np.empty(0, dtype=_np.uint64)
        self.leaf_ranked: _np.ndarray | None = None
        self.leaf_full = False
        self.succ_count = 0
        self.succ_max = -1
        self.pred_count = 0
        self.pred_max = -1
        # UPDATELEAFSET admission window (valid when ``leaf_full``): a
        # candidate can change the balanced selection iff its forward
        # distance is below ``accept_lo`` (successor side) or above
        # ``accept_hi`` (predecessor side).
        self.accept_lo = _np.uint64(0)
        self.accept_hi = _np.uint64(0)
        self.prefix_ids = _np.empty(0, dtype=_np.uint64)
        self.prefix_slots = _np.empty(0, dtype=_np.int64)
        self.slot_count = _np.zeros(n_slots, dtype=_np.int64)
        # Cached sorted union of leaf + prefix + own id (the message
        # base); rebuilt lazily after membership changes.
        self.known: _np.ndarray | None = None
        # Measurement cache validity (see VectorConvergenceTracker):
        # cleared whenever either table mutates.
        self.stats_dirty = True
        self.started = False
        # Universe-dense index cache for the wave kernels, keyed per
        # table; entries self-invalidate by object identity (every
        # mutation rebinds the table array).
        self.dense_cache: dict = {}


def _not_in_sorted(sorted_arr, values):
    """Boolean mask of *values* entries absent from *sorted_arr*."""
    if sorted_arr.size == 0:
        return _np.ones(values.size, dtype=bool)
    pos = _np.searchsorted(sorted_arr, values)
    return sorted_arr[_np.minimum(pos, sorted_arr.size - 1)] != values


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
    """Array-native node transitions (the vector engine's fast leg)."""

    kind = "numpy"

    def __init__(self, config: BootstrapConfig) -> None:
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
        self._row_of, self._shift_of = kernels.slot_tables(
            space.bits, space.digit_bits
        )

    # -- state / pool plumbing -----------------------------------------

    def new_state(self, node_id: int) -> _ArrayState:
        return _ArrayState(node_id, self._n_slots)

    def live_pool(self, ids: list[int]):
        return _np.fromiter(ids, dtype=_np.uint64, count=len(ids))

    def gather(self, pool, index_matrix):
        return pool[index_matrix]

    def oracle_samples(self, pool, index_matrix, pool_dense=None):
        """Message-sample rows, batch-sorted with duplicate masks so
        per-message union folding needs no ``np.unique``.  With
        *pool_dense* (the live pool's universe-dense indices) the rows'
        dense indices ride along, sorted by the same order -- the
        dense map is strictly monotone in the id, so sorting each
        independently yields parallel arrays -- and the wave union
        needs no per-wave ``searchsorted`` against the universe."""
        rows = pool[index_matrix]
        dup = _np.zeros(rows.shape, dtype=bool)
        dense = None if pool_dense is None else pool_dense[index_matrix]
        if rows.shape[1] > 1:
            rows.sort(axis=1)
            _np.equal(rows[:, 1:], rows[:, :-1], out=dup[:, 1:])
            if dense is not None:
                dense.sort(axis=1)
        if dense is None:
            return rows, dup
        return rows, dup, dense

    def msg_row(self, buf, i: int):
        if len(buf) == 3:
            rows, dup, dense = buf
            return rows[i], dup[i], dense[i]
        rows, dup = buf
        return rows[i], dup[i]

    def as_ids(self, ids: list[int]):
        return _np.fromiter(ids, dtype=_np.uint64, count=len(ids))

    # -- protocol transitions ------------------------------------------

    def start_node(self, state: _ArrayState, samples) -> None:
        """Protocol start: wipe the prefix table, seed the leaf set."""
        state.prefix_ids = _np.empty(0, dtype=_np.uint64)
        state.prefix_slots = _np.empty(0, dtype=_np.int64)
        state.slot_count[:] = 0
        state.known = None
        state.stats_dirty = True
        fresh = _np.unique(samples)
        fresh = fresh[fresh != state.own_u64[0]]
        fresh = fresh[_not_in_sorted(state.leaf, fresh)]
        if fresh.size:
            self._merge_fresh(state, fresh)
        state.started = True

    def select_peer(self, state: _ArrayState, u: float, fallback):
        """SELECTPEER: uniform over the closest half of the ranked
        leaf set; an empty leaf set falls back to the first fresh
        sample that is not the node itself."""
        ranked = state.leaf_ranked
        if ranked is None:
            leaf = state.leaf
            if leaf.size:
                fw = (leaf - state.own_u64[0]) & self._mu
                dist = _np.minimum(fw, (-fw) & self._mu)
                ranked = leaf[_np.lexsort((leaf, dist))]
            else:
                ranked = leaf
            state.leaf_ranked = ranked
        if ranked.size:
            half = (ranked.size + 1) // 2
            return int(ranked[min(int(u * half), half - 1)])
        own = state.node_id
        if type(fallback) is tuple:
            fallback = fallback[0]
        for nid in fallback.tolist():
            if nid != own:
                return nid
        return None

    def create_message(self, state: _ArrayState, peer_id: int, samples):
        """CREATEMESSAGE over resident arrays: the cached known-id
        union plus the novel fresh samples, then the shared close/rest
        and prefix-cap kernels.  Returns ``(close, tail, tail_slots)``
        arrays; the slots are the receiver's UPDATEPREFIXTABLE keys (a
        message is only absorbed by the peer it was created for)."""
        union = self._union(state, samples)
        # One slot pass for the whole union: the tail's capping keys
        # and the absorb side's close-part keys fall out together.
        slots = kernels.prefix_slots_arrays(
            union, peer_id, self._bits, self._digit_bits, self._base_mask
        )
        close, rest, close_slots, rest_slots = kernels.close_and_rest_with_aux(
            union,
            slots,
            peer_id,
            self._mask,
            self._half_ring,
            self._half_c,
            True,
        )
        tail, tail_slots = kernels.prefix_part_with_slots(
            rest, rest_slots, self._k
        )
        return (
            _np.concatenate((close, tail)),
            _np.concatenate((close_slots, tail_slots)),
        )

    def _union(self, state: _ArrayState, samples):
        """The CREATEMESSAGE base: the cached known union plus any
        fresh samples (unsorted tail; uniqueness is all the kernels
        need)."""
        known = state.known
        if known is None:
            known = state.known = _np.unique(
                _np.concatenate(
                    (state.leaf, state.prefix_ids, state.own_u64)
                )
            )
        if type(samples) is tuple:
            # Oracle leg: a pre-sorted row plus its duplicate mask
            # (both produced once per cycle for the whole batch; a
            # third element, the dense universe indices, rides along
            # on the numpy leg and is only used by the wave path).
            row, dup = samples[0], samples[1]
            pos = _np.minimum(
                known.searchsorted(row), known.size - 1
            )
            fresh = row[(known[pos] != row) & ~dup]
        elif samples.size:
            s = _np.unique(samples)
            pos = _np.minimum(known.searchsorted(s), known.size - 1)
            fresh = s[known[pos] != s]
        else:
            return known
        if fresh.size:
            return _np.concatenate((known, fresh))
        return known

    @staticmethod
    def _dense(state, field, values, universe):
        """Cached ``universe.searchsorted(values)`` for a node's
        slowly-changing id table.  Keyed on the identity of both the
        universe (rebuilt on membership change) and the table array
        (rebound on every mutation -- per-node arrays by assignment,
        arena views by the setters dropping their cached view), so a
        stale entry can never be returned; in the converged steady
        state every wave hits, turning the wave kernels' biggest
        ``searchsorted`` slabs into pure gathers.  Stored as int32 --
        dense indices are bounded by the universe size (< 2^31 at any
        reachable population), and the narrow dtype halves what is
        otherwise the largest per-node cache."""
        hit = state.dense_cache.get(field)
        if (
            hit is not None
            and hit[0] is universe
            and hit[1] is values
        ):
            return hit[2]
        dense = universe.searchsorted(values).astype(_np.int32)
        state.dense_cache[field] = (universe, values, dense)
        return dense

    def _seg_columns(self, states):
        """The wave absorb's per-segment scalar columns (own id,
        leaf-full flag, admission window) plus the concatenated
        occupancy slab, one entry/row per receiving state.  The arena
        layout overrides this with pure slab gathers."""
        own = _np.array(
            [state.node_id for state in states], dtype=_np.uint64
        )
        full = _np.array(
            [state.leaf_full for state in states], dtype=bool
        )
        lo = _np.array(
            [state.accept_lo for state in states], dtype=_np.uint64
        )
        hi = _np.array(
            [state.accept_hi for state in states], dtype=_np.uint64
        )
        occ = _np.concatenate([state.slot_count for state in states])
        return own, full, lo, hi, occ

    def _union_wave(self, jobs, universe, samples=None):
        """Every job's CREATEMESSAGE union in one slab pass.

        Returns ``(u, lens, u_dense)``: the concatenated per-job
        unions, their lengths, and the unions' dense ``universe``
        indices (``None`` on the fallback path).  On the oracle leg
        (equal-length pre-sorted sample rows, all ids drawn from the
        live pool and therefore present in *universe*) the per-job
        novelty scans collapse into a single ``searchsorted`` of the
        wave's sample slab against the concatenated known slab, keyed
        ``segment * len(universe) + dense`` exactly like the wave
        absorb; anything else falls back to the scalar :meth:`_union`
        per job.  *samples* is the optional ``(sample_buf,
        row_indices)`` fast path from :meth:`create_wave_flat`: the
        rows (and their duplicate masks and dense indices) are
        gathered straight from the batch buffer, skipping the
        per-message stack of the jobs' row views -- the gathered
        values are identical by construction.
        """
        if universe is None or (
            samples is None
            and any(type(s) is not tuple for _, _, s in jobs)
        ):
            unions = [
                self._union(state, samples) for state, _, samples in jobs
            ]
            lens = _np.array([u.size for u in unions], dtype=_np.intp)
            return _np.concatenate(unions), lens, None
        m_count = len(jobs)
        knowns = []
        denses = []
        dense = self._dense
        for state, _, _ in jobs:
            known = state.known
            if known is None:
                known = state.known = _np.unique(
                    _np.concatenate(
                        (state.leaf, state.prefix_ids, state.own_u64)
                    )
                )
                known = state.known
            knowns.append(known)
            denses.append(dense(state, "known", known, universe))
        k_lens = _np.array([k.size for k in knowns], dtype=_np.intp)
        kn = _np.concatenate(knowns)
        kn_dense = _np.concatenate(denses)
        if samples is not None:
            buf, row_idx = samples
            rows = buf[0][row_idx]
            dups = buf[1][row_idx]
        else:
            rows = _np.stack([s[0] for _, _, s in jobs])
            dups = _np.stack([s[1] for _, _, s in jobs])
        cr = rows.shape[1]
        if not cr:
            return kn, k_lens, kn_dense
        u_size = universe.size
        row_flat = rows.ravel()
        if samples is not None and len(buf) == 3:
            row_dense = buf[2][row_idx].reshape(-1)
        elif samples is None and len(jobs[0][2]) == 3:
            # The oracle buffer already carries the rows' dense
            # indices (gathered from the live pool's, once per cycle).
            row_dense = _np.stack(
                [s[2] for _, _, s in jobs]
            ).reshape(-1)
        else:
            row_dense = universe.searchsorted(row_flat).astype(_np.intp)
        seg_of_kn = _np.repeat(kernels._arange(m_count), k_lens)
        seg_of_row = _np.repeat(kernels._arange(m_count), cr)
        if m_count * u_size <= (1 << 23):
            # Small frames (the bench sizes): one boolean membership
            # plane per job beats the composite-key binary search --
            # scatter the knowns, gather the samples.  Same booleans,
            # ~5x cheaper in the converged steady state where the
            # whole pass exists only to discover nothing is novel.
            # Past ~8 MB of plane the zeroing and cache misses eat the
            # win and the binary search takes over (identical output).
            plane = _np.zeros(m_count * u_size, dtype=bool)
            plane[seg_of_kn * u_size + kn_dense] = True
            novel = ~plane[seg_of_row * u_size + row_dense]
            novel &= ~dups.ravel()
        else:
            kn_key = seg_of_kn * u_size + kn_dense
            row_key = seg_of_row * u_size + row_dense
            pos = _np.minimum(
                kn_key.searchsorted(row_key), kn_key.size - 1
            )
            novel = (kn_key[pos] != row_key) & ~dups.ravel()
        if not novel.any():
            # Converged steady state: every sample is already known,
            # so the unions are exactly the cached known slab.
            return kn, k_lens, kn_dense
        fresh_counts = novel.reshape(m_count, cr).sum(axis=1)
        lens = k_lens + fresh_counts
        offs = _np.cumsum(lens) - lens
        u = _np.empty(int(lens.sum()), dtype=_np.uint64)
        u_dense = _np.empty(u.size, dtype=_np.intp)
        k_within = kernels._arange(kn.size) - _np.repeat(
            _np.cumsum(k_lens) - k_lens, k_lens
        )
        k_dest = _np.repeat(offs, k_lens) + k_within
        u[k_dest] = kn
        u_dense[k_dest] = kn_dense
        fresh_ids = row_flat[novel]
        f_within = kernels._arange(fresh_ids.size) - _np.repeat(
            _np.cumsum(fresh_counts) - fresh_counts, fresh_counts
        )
        f_dest = _np.repeat(offs + k_lens, fresh_counts) + f_within
        u[f_dest] = fresh_ids
        u_dense[f_dest] = row_dense[novel]
        return u, lens, u_dense

    def create_wave_flat(self, jobs, universe=None, samples=None):
        """CREATEMESSAGE for a whole wave of exchanges in one
        segmented batch, returned in flat slab form.

        *jobs* is a list of ``(state, peer_id, samples)`` message
        specifications; the result is ``(ids_flat, slots_flat,
        dense_flat, bounds)`` -- message ``m`` of the wave is rows
        ``bounds[m]:bounds[m + 1]`` of each slab (``dense_flat`` is
        ``None`` off the oracle leg).  *samples*, when given, is
        ``(sample_buf, row_indices)`` -- the cycle's batch sample
        buffer plus each job's row in it -- letting the union gather
        the wave's sample rows in three fancy-index ops instead of
        re-stacking the jobs' per-message views.  All messages are built from
        wave-start state (the cycle loop applies the wave's absorbs
        afterwards), which is the vector engine's scheduling
        relaxation: a message cannot see updates applied earlier
        *within the same wave* -- with wave size ``W`` of ``n``
        nodes, the probability that this hides a same-cycle update
        that the strictly sequential engines would have exposed is
        about ``W/n`` per exchange.  The payoff is that ranking,
        balanced selection, slot geometry and the prefix cap each run
        as one segmented numpy pass over every message of the wave,
        amortising per-call dispatch that otherwise dominates the
        engine.

        Per message the construction is exactly CREATEMESSAGE: one
        row-wise rank keyed ``(message, ring distance)`` orders every
        union at once, the balanced-close thresholds become per-row
        broadcasts, and the first-``k``-per-slot cap runs once with
        segment-shifted slot keys so equal slots never group across
        messages.
        """
        m_count = len(jobs)
        u, lens, u_dense = self._union_wave(jobs, universe, samples)
        peer_list = _np.array(
            [peer for _, peer, _ in jobs], dtype=_np.uint64
        )
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
        rest_ids = ranked[rest2]
        rest_keys = shifted[rest2]
        if u_dense is not None:
            pad_dense = _np.empty((m_count, l_max), dtype=_np.intp)
            pad_dense[valid] = u_dense
            ranked_dense = _np.take_along_axis(
                pad_dense, order2d, axis=1
            )
            tail_all, tail_keys, tail_dense = kernels.prefix_part_with_slots(
                rest_ids, rest_keys, self._k, ranked_dense[rest2]
            )
        else:
            tail_all, tail_keys = kernels.prefix_part_with_slots(
                rest_ids, rest_keys, self._k
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
        if u_dense is None:
            return ids_flat, slots_flat, None, bounds
        # Thread each id's dense universe index through to the wave
        # absorb: its candidate slab then keys straight off the
        # message payloads instead of re-searching the universe.
        dense_flat = _np.empty(int(bounds[-1]), dtype=_np.intp)
        dense_flat[c_dest] = ranked_dense[keep]
        dense_flat[t_dest] = tail_dense
        return ids_flat, slots_flat, dense_flat, bounds

    def create_wave(self, jobs, universe=None):
        """Per-message view of :meth:`create_wave_flat`: the same
        construction, sliced into one ``(ids, slots[, dense])`` tuple
        per job for the scalar absorb paths and per-message
        comparisons."""
        ids_flat, slots_flat, dense_flat, bounds = self.create_wave_flat(
            jobs, universe
        )
        bl = bounds.tolist()
        if dense_flat is None:
            return [
                (ids_flat[bl[m]:bl[m + 1]], slots_flat[bl[m]:bl[m + 1]])
                for m in range(len(jobs))
            ]
        return [
            (
                ids_flat[bl[m]:bl[m + 1]],
                slots_flat[bl[m]:bl[m + 1]],
                dense_flat[bl[m]:bl[m + 1]],
            )
            for m in range(len(jobs))
        ]

    def absorb(self, state: _ArrayState, message, sender_id: int) -> None:
        """UPDATELEAFSET + UPDATEPREFIXTABLE of one message, all in
        array ops: novelty via ``searchsorted`` on the sorted resident
        arrays, slot capping via a stable grouped rank against current
        occupancy (first-come in message order, exactly the reference's
        sequential fill), then one balanced reselect when a novel id
        lands inside the admission window (ids outside it provably
        cannot change the balanced selection).  The envelope sender is
        processed last on a scalar path (it may duplicate a payload
        id)."""
        ids, slots = message[0], message[1]
        if ids.size:
            prefix_ids = state.prefix_ids
            if prefix_ids.size:
                pos = _np.minimum(
                    prefix_ids.searchsorted(ids), prefix_ids.size - 1
                )
                novel = prefix_ids[pos] != ids
                nids = ids[novel]
                nslots = slots[novel]
            else:
                nids, nslots = ids, slots
            if nids.size:
                # Slots already at capacity cannot admit; in the
                # converged steady state this empties the candidate
                # set and skips the grouped-rank machinery entirely.
                open_slot = state.slot_count[nslots] < self._k
                if open_slot.any():
                    self._fill_slots(
                        state, nids[open_slot], nslots[open_slot]
                    )
            if state.leaf_full:
                fw = (ids - state.own_u64[0]) & self._mu
                cand = ids[
                    (fw < state.accept_lo) | (fw > state.accept_hi)
                ]
                if cand.size:
                    leaf = state.leaf
                    pos = _np.minimum(
                        leaf.searchsorted(cand), leaf.size - 1
                    )
                    fresh = cand[leaf[pos] != cand]
                    if fresh.size:
                        self._merge_fresh(state, fresh)
            else:
                fresh = ids[_not_in_sorted(state.leaf, ids)]
                if fresh.size:
                    self._merge_fresh(state, fresh)
        self._absorb_single(state, sender_id)

    def absorb_wave(self, jobs, universe) -> None:
        """One wave's surviving absorbs as a segmented slab pass.

        *jobs* is the arrival-ordered list of ``(state, message,
        sender_id)`` absorbs of one wave; *universe* is the sorted
        uint64 array of **every identifier ever admitted** to the
        network (dead ids stay: they persist in tables and messages).
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
        * first-occurrence dedup per ``(segment, id)`` via one
          ``lexsort`` reproduces the sequential scan exactly: a
          repeated id is always a no-op on the scalar path (admitted
          ids are resident, rejected ids face the same full slot);
        * slot capping is the same stable grouped rank as the scalar
          fill, keyed by ``segment * n_slots + slot`` against a
          concatenated occupancy slab, so first-come order within a
          receiver is preserved across its messages;
        * UPDATELEAFSET applies the wave-start admission windows and
          folds each segment's surviving candidates through one
          balanced reselect.  This is bit-identical to the sequential
          merges because balanced selection is an associative fold:
          take-counts are monotone in the candidate set, so an id a
          sequential intermediate window would have dropped is dropped
          by the final reselect too (and ids the stale wave-start
          window over-admits are exactly those, see ``_ArrayState``).

        The result is bit-identical to replaying ``absorb`` per job
        (the ``single`` mode; pinned by the engine test suite).
        """
        if not jobs:
            return
        # Group jobs by receiver, first-appearance segment order;
        # each receiver's messages stay in wave order.
        seg_of: dict[int, int] = {}
        per_seg: list[tuple[_ArrayState, list[tuple]]] = []
        for state, message, sender in jobs:
            s = seg_of.get(id(state))
            if s is None:
                s = seg_of[id(state)] = len(per_seg)
                per_seg.append((state, []))
            per_seg[s][1].append((message, sender))
        n_seg = len(per_seg)
        # Envelope senders join the candidate stream after their
        # message's payload; their slots are one batched mixed-origin
        # kernel call (the scalar path computes them one at a time).
        sender_ids: list[int] = []
        sender_owner: list[int] = []
        for state, msgs in per_seg:
            own = state.node_id
            for _, sender in msgs:
                if sender != own:
                    sender_ids.append(sender)
                    sender_owner.append(own)
        s_ids = _np.array(sender_ids, dtype=_np.uint64)
        s_slots = kernels.prefix_slots_arrays(
            s_ids,
            _np.array(sender_owner, dtype=_np.uint64),
            self._bits,
            self._digit_bits,
            self._base_mask,
        )
        s_dense = universe.searchsorted(s_ids).astype(_np.intp)
        id_pieces: list[_np.ndarray] = []
        slot_pieces: list[_np.ndarray] = []
        dense_pieces: list[_np.ndarray] = []
        has_dense = True
        seg_len = _np.zeros(n_seg, dtype=_np.intp)
        si = 0
        for s, (state, msgs) in enumerate(per_seg):
            own = state.node_id
            total = 0
            for msg, sender in msgs:
                ids = msg[0]
                id_pieces.append(ids)
                slot_pieces.append(msg[1])
                if len(msg) == 3:
                    dense_pieces.append(msg[2])
                else:
                    has_dense = False
                total += ids.size
                if sender != own:
                    id_pieces.append(s_ids[si:si + 1])
                    slot_pieces.append(s_slots[si:si + 1])
                    dense_pieces.append(s_dense[si:si + 1])
                    si += 1
                    total += 1
            seg_len[s] = total
        cand_ids = _np.concatenate(id_pieces)
        m = cand_ids.size
        if not m:
            return
        cand_slots = _np.concatenate(slot_pieces)
        cand_seg = _np.repeat(kernels._arange(n_seg), seg_len)
        # Messages from the batched create carry their ids' dense
        # indices; then the candidate slab needs no universe search
        # (only the handful of envelope senders were looked up above).
        if has_dense:
            cand_dense = _np.concatenate(dense_pieces)
        else:
            cand_dense = universe.searchsorted(cand_ids).astype(_np.intp)
        self._absorb_candidates(
            per_seg, cand_ids, cand_slots, cand_dense, cand_seg, universe
        )

    def _resident_keys(self, per_seg, universe, u_size):
        """Concatenated ``segment * u_size + dense`` keys of every
        receiver's resident prefix ids -- sorted, because each table
        is sorted and segments concatenate in order -- or ``None``
        when no receiver has any.  The arena layout overrides this
        (and :meth:`_leaf_keys`) with ragged slab gathers over
        pool-resident dense caches: no per-segment Python at all."""
        dense = self._dense
        pieces = [state.prefix_ids for state, _ in per_seg]
        lens = _np.array([p.size for p in pieces], dtype=_np.intp)
        if not int(lens.sum()):
            return None
        return _np.repeat(
            kernels._arange(len(per_seg)), lens
        ) * u_size + _np.concatenate(
            [
                dense(state, "prefix", p, universe)
                for (state, _), p in zip(per_seg, pieces)
            ]
        )

    def _leaf_keys(self, per_seg, universe, u_size):
        """Concatenated composite keys of every receiver's leaf set
        (see :meth:`_resident_keys`), or ``None`` when all empty."""
        dense = self._dense
        pieces = [state.leaf for state, _ in per_seg]
        lens = _np.array([p.size for p in pieces], dtype=_np.intp)
        if not int(lens.sum()):
            return None
        return _np.repeat(
            kernels._arange(len(per_seg)), lens
        ) * u_size + _np.concatenate(
            [
                dense(state, "leaf", p, universe)
                for (state, _), p in zip(per_seg, pieces)
            ]
        )

    def _absorb_candidates(
        self, per_seg, cand_ids, cand_slots, cand_dense, cand_seg, universe
    ) -> None:
        """The shared core of the wave absorb: gate, dedup, cap and
        apply one assembled candidate slab (see :meth:`absorb_wave`
        for the semantics argument)."""
        n_seg = len(per_seg)
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
        # candidate slab (the scalar replay's "repeated id is a
        # no-op" shows up here as: only the first copy survives the
        # subset dedup, and every copy carries the same verdict).
        own_arr, full_arr, lo_arr, hi_arr, occ_slab = self._seg_columns(
            [state for state, _ in per_seg]
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
            res_key = self._resident_keys(per_seg, universe, u_size)
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
                a_seg = cand_seg[adm_idx]
                bounds = _np.searchsorted(
                    a_seg, kernels._arange(n_seg + 1)
                )
                segs = _np.nonzero(bounds[1:] > bounds[:-1])[0]
                a_ids = cand_ids[adm_idx]
                a_slots = cand_slots[adm_idx]
                for s in segs.tolist():
                    lo, hi = bounds[s], bounds[s + 1]
                    self._apply_admitted(
                        per_seg[s][0], a_ids[lo:hi], a_slots[lo:hi]
                    )
        # UPDATELEAFSET: the wave-start admission windows gate first,
        # then dedup + one leaf-slab novelty scan over the gated
        # subset, one balanced reselect per touched segment.
        fw = (cand_ids - own_arr[cand_seg]) & self._mu
        leaf_cand = ~full_arr[cand_seg] | (fw < lo_arr[cand_seg]) | (
            fw > hi_arr[cand_seg]
        )
        if not leaf_cand.any():
            return
        l_idx = _np.nonzero(leaf_cand)[0]
        l_idx = l_idx[_first_occurrence(ckey[l_idx])]
        lf_key = self._leaf_keys(per_seg, universe, u_size)
        if lf_key is not None:
            q = ckey[l_idx]
            pos = _np.minimum(
                lf_key.searchsorted(q), lf_key.size - 1
            )
            f_idx = l_idx[lf_key[pos] != q]
        else:
            f_idx = l_idx
        if not f_idx.size:
            return
        f_seg = cand_seg[f_idx]
        fbounds = _np.searchsorted(f_seg, kernels._arange(n_seg + 1))
        fsegs = _np.nonzero(fbounds[1:] > fbounds[:-1])[0]
        f_ids = cand_ids[f_idx]
        for s in fsegs.tolist():
            lo, hi = fbounds[s], fbounds[s + 1]
            self._merge_fresh(per_seg[s][0], f_ids[lo:hi])

    def absorb_wave_flat(self, wave, specs, universe) -> None:
        """:meth:`absorb_wave` fed straight from the flat wave slabs.

        *wave* is :meth:`create_wave_flat`'s return value; *specs* is
        the arrival-ordered list of surviving ``(state, message_index,
        sender_id)`` absorbs.  Semantics are exactly
        :meth:`absorb_wave` over the equivalent sliced messages -- the
        candidate slab is simply assembled by one vectorised gather
        through the message bounds (payload rows, then the envelope
        sender row after each message that has one) instead of
        per-message tuple views and re-concatenation.
        """
        if not specs:
            return
        ids_flat, slots_flat, dense_flat, bounds = wave
        # Group by receiver, first-appearance segment order; each
        # receiver's messages stay in wave order.
        seg_of: dict[int, int] = {}
        per_seg: list[tuple[_ArrayState, None]] = []
        seg_msgs: list[list[tuple[int, int]]] = []
        for state, mi_, sender in specs:
            s = seg_of.get(id(state))
            if s is None:
                s = seg_of[id(state)] = len(per_seg)
                per_seg.append((state, None))
                seg_msgs.append([])
            seg_msgs[s].append(
                (mi_, sender if sender != state.node_id else -1)
            )
        n_seg = len(per_seg)
        mi_list: list[int] = []
        aseg: list[int] = []
        sender_ids: list[int] = []
        sender_owner: list[int] = []
        has_s: list[bool] = []
        for s, msgs in enumerate(seg_msgs):
            own = per_seg[s][0].node_id
            for mi_, sender in msgs:
                mi_list.append(mi_)
                aseg.append(s)
                if sender >= 0:
                    has_s.append(True)
                    sender_ids.append(sender)
                    sender_owner.append(own)
                else:
                    has_s.append(False)
        s_ids = _np.array(sender_ids, dtype=_np.uint64)
        s_slots = kernels.prefix_slots_arrays(
            s_ids,
            _np.array(sender_owner, dtype=_np.uint64),
            self._bits,
            self._digit_bits,
            self._base_mask,
        )
        s_dense = universe.searchsorted(s_ids).astype(_np.intp)
        mi_arr = _np.array(mi_list, dtype=_np.intp)
        b0 = bounds[mi_arr]
        mlen = bounds[mi_arr + 1] - b0
        sflag = _np.array(has_s)
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
        if dense_flat is not None:
            cand_dense = _np.concatenate((dense_flat, s_dense))[src]
        else:
            cand_dense = universe.searchsorted(cand_ids).astype(_np.intp)
        cand_seg = _np.repeat(_np.array(aseg, dtype=_np.intp), plen)
        self._absorb_candidates(
            per_seg, cand_ids, cand_slots, cand_dense, cand_seg, universe
        )

    def _fill_slots(self, state: _ArrayState, nids, nslots) -> None:
        """Admit novel ids into the prefix table, first-come per slot
        up to ``k``, honouring existing occupancy."""
        order = _np.argsort(nslots, kind="stable")
        ss = nslots[order]
        m = ss.size
        idx = _np.arange(m)
        new_group = _np.empty(m, dtype=bool)
        new_group[0] = True
        _np.not_equal(ss[1:], ss[:-1], out=new_group[1:])
        group_start = _np.maximum.accumulate(_np.where(new_group, idx, 0))
        keep_sorted = (idx - group_start) < (self._k - state.slot_count[ss])
        if not keep_sorted.any():
            return
        kept = order[keep_sorted]
        self._apply_admitted(state, nids[kept], nslots[kept])

    def _apply_admitted(self, state: _ArrayState, kids, kslots) -> None:
        """Install already-capped admissions into the resident arrays
        (shared by the scalar fill and the segmented wave absorb)."""
        _np.add.at(state.slot_count, kslots, 1)
        # Sorted-insert instead of re-sorting the whole table: kids is
        # small, the resident arrays stay id-sorted.
        ksort_order = _np.argsort(kids, kind="stable")
        ksort = kids[ksort_order]
        pos = state.prefix_ids.searchsorted(ksort)
        state.prefix_ids = _np.insert(state.prefix_ids, pos, ksort)
        state.prefix_slots = _np.insert(
            state.prefix_slots, pos, kslots[ksort_order]
        )
        state.stats_dirty = True
        known = state.known
        if known is not None:
            # Admitted ids are novel to the prefix table but may
            # already sit in the known union via the leaf set.
            kpos = _np.minimum(known.searchsorted(ksort), known.size - 1)
            add = known[kpos] != ksort
            if add.all():
                state.known = _np.insert(
                    known, known.searchsorted(ksort), ksort
                )
            elif add.any():
                sub = ksort[add]
                state.known = _np.insert(
                    known, known.searchsorted(sub), sub
                )

    def _merge_fresh(self, state: _ArrayState, fresh) -> None:
        """Reselect the leaf membership after novel candidates."""
        candidates = _np.concatenate((state.leaf, fresh))
        if candidates.size <= self._c:
            self._set_leaf(state, _np.sort(candidates))
        else:
            self._set_leaf(
                state,
                _np.sort(
                    kernels.select_balanced_arrays(
                        candidates,
                        state.node_id,
                        self._mask,
                        self._half_ring,
                        self._half_c,
                    )
                ),
            )

    def _set_leaf(self, state: _ArrayState, arr) -> None:
        if arr.size == state.leaf.size and _np.array_equal(arr, state.leaf):
            # The balanced reselect rejected every candidate: nothing
            # changed, so the ranked/known caches and the tracker's
            # cached deficit all stay valid.
            return
        state.leaf = arr
        state.leaf_ranked = None
        state.known = None
        state.stats_dirty = True
        fw = (arr - state.own_u64[0]) & self._mu
        succ = fw <= self._half_u
        n_succ = int(succ.sum())
        state.succ_count = n_succ
        state.pred_count = arr.size - n_succ
        state.succ_max = int(fw[succ].max()) if n_succ else -1
        if arr.size - n_succ:
            state.pred_max = int((((-fw) & self._mu)[~succ]).max())
        else:
            state.pred_max = -1
        state.leaf_full = arr.size >= self._c
        if state.leaf_full:
            # Admission window (see _ArrayState): a short side accepts
            # its whole half-ring, a full side only below/above its
            # worst kept distance.
            if state.succ_count < self._half_c:
                state.accept_lo = _np.uint64(self._half_ring + 1)
            else:
                state.accept_lo = _np.uint64(state.succ_max)
            if state.pred_count < self._half_c:
                state.accept_hi = self._half_u
            else:
                # pred_max >= 1 when the side is full, so this always
                # fits the ring's unsigned width.
                state.accept_hi = _np.uint64(
                    self._mask - state.pred_max + 1
                )

    def _absorb_single(self, state: _ArrayState, nid: int) -> None:
        """Scalar absorb of one id (the envelope sender)."""
        own = state.node_id
        if nid == own:
            return
        value = _np.uint64(nid)
        prefix_ids = state.prefix_ids
        pos = int(prefix_ids.searchsorted(value))
        if pos == prefix_ids.size or int(prefix_ids[pos]) != nid:
            row = self._row_of[(own ^ nid).bit_length()]
            slot = (row << self._digit_bits) | (
                (nid >> self._shift_of[row]) & self._base_mask
            )
            if state.slot_count[slot] < self._k:
                state.slot_count[slot] += 1
                state.prefix_ids = _np.insert(prefix_ids, pos, value)
                state.prefix_slots = _np.insert(
                    state.prefix_slots, pos, slot
                )
                state.stats_dirty = True
                known = state.known
                if known is not None:
                    kpos = int(known.searchsorted(value))
                    if kpos == known.size or int(known[kpos]) != nid:
                        state.known = _np.insert(known, kpos, value)
        fw = (nid - own) & self._mask
        if state.leaf_full:
            if not (fw < int(state.accept_lo) or fw > int(state.accept_hi)):
                return
        leaf = state.leaf
        lpos = int(leaf.searchsorted(value))
        if lpos == leaf.size or int(leaf[lpos]) != nid:
            self._merge_fresh(state, _np.array([nid], dtype=_np.uint64))

    # -- convergence measurement ---------------------------------------

    def live_view(self, ids: Sequence[int]):
        return _np.fromiter(ids, dtype=_np.uint64, count=len(ids))

    def pack_perfect(self, reference: ReferenceTables, node_id: int):
        """Cacheable per-node perfect-table arrays."""
        leaf = _np.fromiter(
            sorted(reference.perfect_leaf_ids(node_id)), dtype=_np.uint64
        )
        items = reference.perfect_prefix_counts(node_id).items()
        db = self._digit_bits
        pslots = _np.array(
            [(row << db) | col for (row, col), _ in items], dtype=_np.int64
        )
        needed = _np.array([need for _, need in items], dtype=_np.int64)
        return leaf, pslots, needed

    def node_missing(
        self, state: _ArrayState, packed, live, check_live: bool
    ) -> tuple[int, int]:
        """(missing leaf entries, missing prefix entries) of one node.

        Perfect ids are live by construction, so dead leaf entries
        never match and need no explicit filtering; prefix occupancy
        is live-filtered only when the run has ever killed a node.
        """
        perfect_leaf, pslots, needed = packed
        missing_leaf = perfect_leaf.size
        if state.leaf.size and missing_leaf:
            pos = _np.searchsorted(state.leaf, perfect_leaf)
            present = (
                state.leaf[_np.minimum(pos, state.leaf.size - 1)]
                == perfect_leaf
            )
            missing_leaf -= int(present.sum())
        if not pslots.size:
            return missing_leaf, 0
        have = None
        if check_live and state.prefix_ids.size:
            alive = ~_not_in_sorted(live, state.prefix_ids)
            if not alive.all():
                counts = _np.bincount(
                    state.prefix_slots[alive], minlength=self._n_slots
                )
                have = counts[pslots]
        if have is None:
            have = state.slot_count[pslots]
        missing_prefix = int(_np.maximum(needed - have, 0).sum())
        return missing_leaf, missing_prefix


class _ArenaOps(_NumpyOps):
    """The numpy transitions bound to pool-resident arena state.

    Every protocol kernel is inherited unchanged --
    :class:`~repro.engine_vector.arena.ArenaState` exposes the exact
    ``_ArrayState`` attribute surface as properties over the slabs --
    which is what makes the two layouts bit-identical by construction.
    What the arena layout adds is the batched plumbing the per-node
    layout cannot offer: rank allocation and recycling, whole-chunk
    peer selection (:meth:`select_wave`), and the slab-scan
    convergence measurer (:meth:`slab_measurer`).
    """

    def __init__(self, config: BootstrapConfig, capacity: int = 64) -> None:
        super().__init__(config)
        self._config = config
        self.arena = Arena(self._n_slots, self._c, capacity)

    def new_state(self, node_id: int) -> ArenaState:
        arena = self.arena
        return ArenaState(arena, arena.allocate(node_id), node_id)

    def release_state(self, state: ArenaState) -> None:
        """Return a killed node's rank (the cycle driver's hook)."""
        self.arena.release(state.rank)

    def slab_measurer(self, states) -> SlabMeasure:
        """A slab-scan measurer bound to *states*, packing its own
        perfect tables (the tracker's hook; see :class:`SlabMeasure`)."""
        return SlabMeasure(self.arena, states, self._config)

    def _seg_columns(self, states):
        """The wave absorb's per-segment columns as slab gathers: one
        fancy index per column instead of a Python listcomp each, and
        the occupancy slab as a single 2-D row gather."""
        a = self.arena
        ranks = _np.fromiter(
            (state.rank for state in states),
            dtype=_np.intp,
            count=len(states),
        )
        return (
            a.node_ids[ranks],
            a.leaf_full[ranks],
            a.accept_lo[ranks],
            a.accept_hi[ranks],
            a.slot_count[ranks].reshape(-1),
        )

    def _sync_dense_universe(self, universe) -> None:
        """Invalidate every pooled dense-index cache when the
        membership universe was rebuilt (identity-keyed exactly like
        :meth:`_NumpyOps._dense`; holding the reference also keeps the
        old object alive, so its id cannot be recycled)."""
        a = self.arena
        if a.dense_universe is not universe:
            a.p_dense_valid[:] = False
            a.leaf_dense_valid[:] = False
            a.dense_universe = universe

    def _resident_keys(self, per_seg, universe, u_size):
        """Composite resident-prefix keys as one ragged pool gather.

        The base implementation walks the receivers in Python -- a
        view plus a dense-cache probe per segment, the absorb's
        biggest remaining scalar tax at 2^14+ nodes.  Here each rank's
        dense indices live in a pool mirroring ``p_ids`` (refreshed in
        one batched ``searchsorted`` over just the stale ranks), so
        the steady-state path is a ``segment_take`` and an add over
        values identical to the base path's."""
        a = self.arena
        ranks = _np.fromiter(
            (state.rank for state, _ in per_seg),
            dtype=_np.intp,
            count=len(per_seg),
        )
        pool = a.p_ids
        lens = pool.len[ranks]
        if not int(lens.sum()):
            return None
        self._sync_dense_universe(universe)
        stale = _np.unique(ranks[~a.p_dense_valid[ranks]])
        if stale.size:
            s_lens = pool.len[stale]
            flat = kernels.segment_take(pool.buf, pool.off[stale], s_lens)
            dense_flat = universe.searchsorted(flat).astype(_np.int32)
            offs = _np.cumsum(s_lens) - s_lens
            n_ranks = a.n_ranks
            for j, r in enumerate(stale.tolist()):
                o = int(offs[j])
                a.p_dense.write(
                    r, dense_flat[o:o + int(s_lens[j])], n_ranks
                )
            a.p_dense_valid[stale] = True
        dense = kernels.segment_take(
            a.p_dense.buf, a.p_dense.off[ranks], lens
        )
        return _np.repeat(
            kernels._arange(ranks.size), lens
        ) * u_size + dense

    def _leaf_keys(self, per_seg, universe, u_size):
        """Composite leaf keys via the fixed-width ``leaf_dense`` slab
        (see :meth:`_resident_keys`; the stale-rank refresh scatters
        straight into the slab rows)."""
        a = self.arena
        ranks = _np.fromiter(
            (state.rank for state, _ in per_seg),
            dtype=_np.intp,
            count=len(per_seg),
        )
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

    def _rank_rows(self, rows) -> None:
        """Recompute the ranked-leaf cache of every rank in *rows* as
        one segmented lexsort (the same ``(distance, id)`` keys as the
        scalar path; slab padding ranks last via a sentinel distance
        no real entry can reach -- ring distances never exceed the
        half ring)."""
        a = self.arena
        leaf = a.leaf[rows]
        lens = a.leaf_len[rows]
        own = a.node_ids[rows]
        if self._mask == 0xFFFFFFFFFFFFFFFF:
            fw = leaf - own[:, None]
            bw = -fw
        else:
            fw = (leaf - own[:, None]) & self._mu
            bw = (-fw) & self._mu
        dist = _np.minimum(fw, bw)
        width = leaf.shape[1]
        pad = kernels._arange(width)[None, :] >= lens[:, None]
        dist[pad] = _np.uint64(0xFFFFFFFFFFFFFFFF)
        count = rows.size
        seg = _np.repeat(kernels._arange(count), width)
        order = _np.lexsort((leaf.ravel(), dist.ravel(), seg))
        a.ranked[rows] = leaf.ravel()[order].reshape(count, width)
        a.ranked_valid[rows] = True

    def select_wave(self, states, u):
        """SELECTPEER for one chunk of the shuffled order in a single
        kernel pass.

        Returns one entry per state: the peer id where the batched
        path decides, ``None`` where the scalar path must (a missing
        or unstarted node, or an empty leaf set falling back to the
        fresh samples).  Each pick is bit-identical to
        :meth:`_NumpyOps.select_peer` on the same pre-drawn uniform:
        the ranking keys match and ``floor(u * half)`` is the same
        IEEE product either way.
        """
        out = [None] * len(states)
        a = self.arena
        started = a.started
        leaf_len = a.leaf_len
        idx = []
        rks = []
        for j, state in enumerate(states):
            if state is None:
                continue
            r = state.rank
            if started[r] and leaf_len[r] > 0:
                idx.append(j)
                rks.append(r)
        if not idx:
            return out
        ranks = _np.array(rks, dtype=_np.intp)
        stale = ranks[~a.ranked_valid[ranks]]
        if stale.size:
            self._rank_rows(stale)
        half = (a.leaf_len[ranks] + 1) // 2
        pick = _np.minimum((u[idx] * half).astype(_np.intp), half - 1)
        peers = a.ranked[ranks, pick]
        for j, peer in zip(idx, peers.tolist()):
            out[j] = peer
        return out


# ----------------------------------------------------------------------
# pure-Python leg: set/dict node state over the shared list kernels
# ----------------------------------------------------------------------


class _SetState:
    """One node as plain sets and dicts (the no-numpy leg's state;
    same layout as the fast engine's ``FastNodeState`` minus the
    per-node RNG plumbing the vector engine replaces)."""

    __slots__ = (
        "node_id",
        "leaf_members",
        "leaf_sorted",
        "leaf_full",
        "succ_count",
        "succ_max",
        "pred_count",
        "pred_max",
        "prefix_slots",
        "prefix_ids",
        "stats_dirty",
        "started",
    )

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.leaf_members: set = set()
        self.leaf_sorted: list[int] | None = None
        self.leaf_full = False
        self.succ_count = 0
        self.succ_max = -1
        self.pred_count = 0
        self.pred_max = -1
        self.prefix_slots: dict[int, list[int]] = {}
        self.prefix_ids: set = set()
        # Set when either table actually mutates (prefix admission or
        # leaf membership change), cleared by the tracker when it
        # recomputes this node's deficit; see the tracker cache.
        self.stats_dirty = True
        self.started = False


class _PythonOps:
    """The same transitions over set state and the list kernels
    (which fall back to pure Python when numpy is absent).  Mirrors
    the fast engine's per-exchange logic with the per-call RNG
    replaced by pre-drawn samples."""

    kind = "python"

    def __init__(self, config: BootstrapConfig) -> None:
        space = config.space
        self._mask = space.size - 1
        self._half_ring = space.half
        self._bits = space.bits
        self._digit_bits = space.digit_bits
        self._base_mask = space.digit_base - 1
        self._k = config.entries_per_slot
        self._c = config.leaf_set_size
        self._half_c = config.half_leaf_set
        self._slot_tables = kernels.slot_tables(space.bits, space.digit_bits)
        self._row_of, self._shift_of = self._slot_tables

    # -- state / pool plumbing -----------------------------------------

    def new_state(self, node_id: int) -> _SetState:
        return _SetState(node_id)

    def live_pool(self, ids: list[int]) -> list[int]:
        return ids

    def gather(self, pool: list[int], index_matrix):
        return [[pool[i] for i in row] for row in index_matrix]

    def oracle_samples(self, pool: list[int], index_matrix, pool_dense=None):
        return self.gather(pool, index_matrix)

    def msg_row(self, buf, i: int):
        return buf[i]

    def as_ids(self, ids: list[int]) -> list[int]:
        return ids

    # -- protocol transitions ------------------------------------------

    def start_node(self, state: _SetState, samples: list[int]) -> None:
        state.prefix_slots.clear()
        state.prefix_ids.clear()
        state.stats_dirty = True
        own = state.node_id
        members = state.leaf_members
        # dict.fromkeys, not set(): dedup that preserves sample order,
        # so the merge sees a hash-seed-independent sequence.
        fresh = [
            nid
            for nid in dict.fromkeys(samples)
            if nid != own and nid not in members
        ]
        if fresh:
            self._merge_fresh(state, fresh)
        state.started = True

    def select_peer(self, state: _SetState, u: float, fallback):
        ranked = state.leaf_sorted
        if ranked is None:
            ranked = state.leaf_sorted = kernels.rank_ids(
                list(state.leaf_members), state.node_id, self._mask
            )
        if ranked:
            half = (len(ranked) + 1) // 2
            return ranked[min(int(u * half), half - 1)]
        own = state.node_id
        for nid in fallback:
            if nid != own:
                return nid
        return None

    def create_message(self, state: _SetState, peer_id: int, samples):
        union = set(state.prefix_ids)
        union |= state.leaf_members
        union.update(samples)
        union.add(state.node_id)
        union.discard(peer_id)
        close, rest = kernels.close_and_rest(
            union, peer_id, self._mask, self._half_ring, self._half_c
        )
        tail, tail_slots = kernels.prefix_part(
            rest,
            peer_id,
            self._bits,
            self._digit_bits,
            self._base_mask,
            self._k,
            self._slot_tables,
        )
        return close, tail, tail_slots

    def create_wave(self, jobs, universe=None):
        """Wave creation on the fallback leg: the same wave-start-state
        scheduling semantics as the numpy leg, built message by
        message (there is nothing to batch without numpy; *universe*
        is the numpy leg's dense id map and is unused here)."""
        return [
            self.create_message(state, peer_id, samples)
            for state, peer_id, samples in jobs
        ]

    def absorb_wave(self, jobs, universe=None) -> None:
        """Wave absorb on the fallback leg: the scalar path per job
        (there is nothing to batch without numpy; *universe* is the
        numpy leg's dense id map and is unused here)."""
        for state, message, sender in jobs:
            self.absorb(state, message, sender)

    def absorb(self, state: _SetState, message, sender_id: int) -> None:
        close, tail, tail_slots = message
        own = state.node_id
        members = state.leaf_members
        prefix_ids = state.prefix_ids
        table = state.prefix_slots
        digit_bits = self._digit_bits
        base_mask = self._base_mask
        row_of = self._row_of
        shift_of = self._shift_of
        k = self._k
        fresh: list[int] = []
        effective = not state.leaf_full
        resident_before = len(prefix_ids)

        def scan_unslotted(ids) -> None:
            nonlocal effective
            for nid in ids:
                if nid not in prefix_ids:
                    row = row_of[(own ^ nid).bit_length()]
                    slot = (row << digit_bits) | (
                        (nid >> shift_of[row]) & base_mask
                    )
                    held = table.get(slot)
                    if held is None:
                        table[slot] = [nid]
                        prefix_ids.add(nid)
                    elif len(held) < k:
                        held.append(nid)
                        prefix_ids.add(nid)
                if nid not in members:
                    fresh.append(nid)
                    if not effective:
                        effective = self._can_affect_leaf(state, nid)

        scan_unslotted(close)
        for nid, slot in zip(tail, tail_slots, strict=True):
            if nid not in prefix_ids:
                held = table.get(slot)
                if held is None:
                    table[slot] = [nid]
                    prefix_ids.add(nid)
                elif len(held) < k:
                    held.append(nid)
                    prefix_ids.add(nid)
            if nid not in members:
                fresh.append(nid)
                if not effective:
                    effective = self._can_affect_leaf(state, nid)
        if sender_id != own:
            scan_unslotted((sender_id,))
        if len(prefix_ids) != resident_before:
            # Admissions only ever add, so a length change is exactly
            # "the table mutated" -- the tracker's cached deficit for
            # this node is stale.  Leaf changes dirty via _set_leaf.
            state.stats_dirty = True
        if fresh and effective:
            self._merge_fresh(state, fresh)

    def _can_affect_leaf(self, state: _SetState, nid: int) -> bool:
        fw = (nid - state.node_id) & self._mask
        if fw <= self._half_ring:
            return state.succ_count < self._half_c or fw < state.succ_max
        return (
            state.pred_count < self._half_c
            or self._mask + 1 - fw < state.pred_max
        )

    def _merge_fresh(self, state: _SetState, fresh: list[int]) -> None:
        candidates = state.leaf_members | set(fresh)
        if len(candidates) <= self._c:
            self._set_leaf(state, candidates)
        else:
            self._set_leaf(
                state,
                kernels.select_balanced(
                    candidates,
                    state.node_id,
                    self._mask,
                    self._half_ring,
                    self._half_c,
                ),
            )

    def _set_leaf(self, state: _SetState, members: set) -> None:
        if members == state.leaf_members:
            # Reselect kept the same membership: caches and the
            # tracker's cached deficit stay valid.
            return
        state.leaf_members = members
        state.leaf_sorted = None
        state.stats_dirty = True
        own = state.node_id
        mask = self._mask
        half_ring = self._half_ring
        succ_count = pred_count = 0
        succ_max = pred_max = -1
        for nid in members:
            fw = (nid - own) & mask
            if fw <= half_ring:
                succ_count += 1
                if fw > succ_max:
                    succ_max = fw
            else:
                bw = mask + 1 - fw
                pred_count += 1
                if bw > pred_max:
                    pred_max = bw
        state.succ_count = succ_count
        state.succ_max = succ_max
        state.pred_count = pred_count
        state.pred_max = pred_max
        state.leaf_full = len(members) >= self._c

    # -- convergence measurement ---------------------------------------

    def live_view(self, ids: Sequence[int]) -> set:
        return set(ids)

    def pack_perfect(self, reference: ReferenceTables, node_id: int):
        db = self._digit_bits
        packed_slots = [
            ((row << db) | col, need)
            for (row, col), need in reference.perfect_prefix_counts(
                node_id
            ).items()
        ]
        return reference.perfect_leaf_ids(node_id), packed_slots

    def node_missing(
        self, state: _SetState, packed, live: set, check_live: bool
    ) -> tuple[int, int]:
        perfect_leaf, packed_slots = packed
        members = state.leaf_members
        if check_live and not members <= live:
            members = members & live
        missing_leaf = len(perfect_leaf - members)
        missing_prefix = 0
        slots = state.prefix_slots
        if check_live and not state.prefix_ids <= live:
            for slot, needed in packed_slots:
                held = slots.get(slot)
                have = sum(1 for nid in held if nid in live) if held else 0
                if have < needed:
                    missing_prefix += needed - have
        else:
            for slot, needed in packed_slots:
                held = slots.get(slot)
                have = len(held) if held else 0
                if have < needed:
                    missing_prefix += needed - have
        return missing_leaf, missing_prefix


# ----------------------------------------------------------------------
# Tracker and simulation
# ----------------------------------------------------------------------


class VectorConvergenceTracker:
    """Convergence measurement over vector-engine node states.

    Produces the same :class:`ConvergenceSample` metric as the
    reference tracker.  Arena-backed ops supply a slab measurer that
    packs its own perfect tables and recomputes deficits as array
    passes over the slabs (:class:`~repro.engine_vector.arena.SlabMeasure`);
    the per-node layout and the fallback leg delegate the per-node
    arithmetic to their ops (vectorised on numpy, set-based on the
    fallback), against the live set's :class:`ReferenceTables`.

    *reference* is a zero-argument callable returning those tables.
    Only the per-node path calls it, once per (re)bind, so the arena
    leg never builds them.
    """

    def __init__(self, ops, reference, states) -> None:
        self._ops = ops
        self._reference_of = reference
        self.samples: list[ConvergenceSample] = []
        self.rebind(states)

    def rebind(self, states) -> None:
        """Swap the population after a membership change, keeping the
        sample history."""
        maker = getattr(self._ops, "slab_measurer", None)
        self._slab = maker(states) if maker is not None else None
        if self._slab is not None:
            return
        self._states = list(states)
        self._reference = self._reference_of()
        self._live = self._ops.live_view(self._reference.ids)
        self._packed: dict[int, object] = {}
        # Per-node deficits are cached between measurements and
        # recomputed only for nodes whose tables changed
        # (``stats_dirty``); membership events land here and wipe the
        # cache, so liveness filtering always sees fresh values.
        self._deficits: dict[int, tuple[int, int]] = {}

    def measure(self, cycle: float, check_live: bool) -> ConvergenceSample:
        """Take one network-wide measurement and append it to
        :attr:`samples` (same metric as the reference tracker;
        *check_live* enables dead-entry filtering once any node has
        been killed)."""
        if self._slab is not None:
            missing_leaf, total_leaf, missing_prefix, total_prefix = (
                self._slab.measure(check_live)
            )
        else:
            ops = self._ops
            reference = self._reference
            live = self._live
            packed_cache = self._packed
            deficits = self._deficits
            missing_leaf = 0
            missing_prefix = 0
            for state in self._states:
                node_id = state.node_id
                if state.stats_dirty or node_id not in deficits:
                    packed = packed_cache.get(node_id)
                    if packed is None:
                        packed = packed_cache[node_id] = ops.pack_perfect(
                            reference, node_id
                        )
                    deficits[node_id] = ops.node_missing(
                        state, packed, live, check_live
                    )
                    state.stats_dirty = False
                ml, mp = deficits[node_id]
                missing_leaf += ml
                missing_prefix += mp
            total_leaf, total_prefix = reference.totals()
        sample = ConvergenceSample(
            cycle=cycle,
            missing_leaf=missing_leaf,
            total_leaf=total_leaf,
            missing_prefix=missing_prefix,
            total_prefix=total_prefix,
        )
        self.samples.append(sample)
        return sample


class VectorBootstrapSimulation:
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
        absorb: str | None = None,
        state: str | None = None,
    ) -> None:
        if sampler not in SAMPLER_KINDS:
            raise ValueError(
                f"sampler must be one of {SAMPLER_KINDS}, got {sampler!r}"
            )
        if wave is not None and wave < 1:
            raise ValueError(f"wave must be >= 1, got {wave}")
        if ids is None:
            if size is None or size < 2:
                raise ValueError("need size >= 2 or an explicit id list")
        self.config = config
        self.seed = seed
        self.network = network
        self.sampler_kind = sampler
        # Wave size: how many exchanges are message-built together
        # from wave-start state per batch (None = ``max(1, n // 16)``,
        # scaling with the population so the ``W/n`` staleness ratio
        # stays size-independent); see ``create_wave``.
        self._wave = wave
        # Absorb dispatch: ``batch`` drains each wave through the
        # segmented slab pass (bit-identical to ``single``).
        self.absorb_mode = absorb_mode(absorb)
        # State layout: ``arena`` binds the numpy leg to pool-resident
        # slabs (bit-identical to ``pernode``); the fallback leg keeps
        # its set state under either value.
        self.state_mode = state_mode(state)
        self.backend = vrng.backend()
        if self.backend != "numpy":
            self._ops = _PythonOps(config)
        elif self.state_mode == "arena":
            self._ops = _ArenaOps(
                config,
                capacity=len(ids) if ids is not None else int(size or 0),
            )
        else:
            self._ops = _NumpyOps(config)
        self._source = RandomSource(seed)
        self._draws = make_draw_source(derive_seed(seed, "vector-rng"))
        space = config.space
        self._space = space
        self._c = config.leaf_set_size
        self._cr = config.random_samples

        if ids is None:
            id_list = space.random_unique_ids(size, self._source.derive("ids"))
        else:
            id_list = list(ids)
            if len(set(id_list)) != len(id_list):
                raise ValueError("identifier list contains duplicates")
            for node_id in id_list:
                space.validate(node_id)
            if len(id_list) < 2:
                raise ValueError("need at least 2 identifiers")

        self.registry = FastRegistry()
        self.nodes: dict[int, object] = {}
        self.newscast: dict[int, VectorNewscastView] = {}
        self._next_address = 0
        self._unstarted: set = set()
        self._pool = None
        # Every identifier ever admitted, in admission order; the
        # sorted numpy form is the wave absorb's dense id universe
        # (dead ids stay -- they persist in tables and messages).
        self._ids_ever: list[int] = []
        self._universe = None

        self._boot = _Layer()
        self._news: _Layer | None = None
        if sampler == "newscast":
            self._news = _Layer()
        self._newscast_view_size = newscast_view_size

        for node_id in id_list:
            self._admit(node_id)
        if sampler == "newscast":
            self._seed_newscast_views()

        self._reference: ReferenceTables | None = None
        self.tracker = VectorConvergenceTracker(
            self._ops, lambda: self.reference, self.nodes.values()
        )
        self._membership_dirty = False
        self._ever_killed = False

    # ------------------------------------------------------------------
    # Node admission / removal (same seed-tree names as the reference)
    # ------------------------------------------------------------------

    def _admit(self, node_id: int):
        self._space.validate(node_id)
        self._next_address += 1
        self._ids_ever.append(node_id)
        self._universe = None
        self.registry.add(node_id)
        if self.sampler_kind == "newscast":
            self.newscast[node_id] = VectorNewscastView(
                node_id, self._newscast_view_size
            )
            assert self._news is not None
            self._news.dirty = True
        state = self._ops.new_state(node_id)
        self.nodes[node_id] = state
        self._unstarted.add(node_id)
        self._boot.dirty = True
        return state

    def _seed_newscast_views(self) -> None:
        """Initial NEWSCAST views: same seed-tree derivation as the
        reference, so all engines start from identical views."""
        rng = self._source.derive("newscast-seed")
        for view in self.newscast.values():
            view.seed(
                self.registry.sample(
                    self._newscast_view_size, rng, exclude_id=view.own_id
                )
            )

    # ------------------------------------------------------------------
    # Membership mutation (the schedule-facing surface)
    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        """Current number of live nodes."""
        return len(self.nodes)

    @property
    def live_ids(self) -> list[int]:
        """Identifiers of live nodes (admission order)."""
        return list(self.nodes)

    def kill_node(self, node_id: int) -> bool:
        """Crash *node_id* (mirrors ``BootstrapSimulation.kill_node``)."""
        state = self.nodes.pop(node_id, None)
        if state is None:
            return False
        release = getattr(self._ops, "release_state", None)
        if release is not None:
            # Arena leg: recycle the dead node's rank and pool
            # windows.  The tracker rebinds before its next
            # measurement (membership is dirty), so no live consumer
            # still resolves the stale handle.
            release(state)
        self.registry.remove(node_id)
        self._unstarted.discard(node_id)
        self._boot.dirty = True
        if self._news is not None:
            self.newscast.pop(node_id, None)
            self._news.dirty = True
        self._reference = None
        self._membership_dirty = True
        self._ever_killed = True
        return True

    def spawn_node(self, node_id: int | None = None):
        """Join a brand-new node (same seed-tree derivations as the
        reference, so spawned identifiers match across engines)."""
        if node_id is None:
            rng = self._source.derive(("spawn", self._next_address))
            node_id = self._space.random_id(rng)
            while node_id in self.nodes:
                node_id = self._space.random_id(rng)
        elif node_id in self.nodes:
            raise ValueError(f"identifier {node_id:#x} already live")
        state = self._admit(node_id)
        if self.sampler_kind == "newscast":
            rng = self._source.derive(("newscast-join", node_id))
            self.newscast[node_id].seed(
                self.registry.sample(
                    self._newscast_view_size, rng, exclude_id=node_id
                )
            )
        self._reference = None
        self._membership_dirty = True
        return state

    def absorb_pool(self, ids: Iterable[int]) -> list[object]:
        """Merge a pool of identifiers into this network."""
        return [self.spawn_node(node_id) for node_id in ids]

    def _wave_universe(self):
        """The sorted dense id universe for the wave absorb (numpy
        leg; the fallback leg's wave loop ignores it)."""
        if self.backend != "numpy":
            return None
        universe = self._universe
        if universe is None:
            count = len(self._ids_ever)
            universe = self._universe = _np.sort(
                _np.fromiter(self._ids_ever, dtype=_np.uint64, count=count)
            )
        return universe

    @property
    def reference(self) -> ReferenceTables:
        """Perfect tables of the live identifier set (the object-level
        oracle), built on first access after a membership change.  The
        per-node layout and the fallback leg measure against them; the
        arena leg packs its own arrays and never builds them."""
        reference = self._reference
        if reference is None:
            reference = self._reference = ReferenceTables(
                self._space,
                self.nodes.keys(),
                self.config.leaf_set_size,
                self.config.entries_per_slot,
            )
        return reference

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._boot.cycle

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
            self._pool = ops.live_pool(layer.order)
            layer.dirty = False
        order = list(layer.order)
        draws.shuffle(order)
        n = len(order)
        if n == 0:
            layer.cycle += 1
            return
        cr = self._cr
        oracle = self.sampler_kind == "oracle"
        peer_u = draws.floats(n)
        drop_p = self.network.drop_probability
        req_coins = rep_coins = None
        if drop_p:
            req_coins = draws.floats(n)
            rep_coins = draws.floats(n)
        n_start = len(self._unstarted)
        if oracle:
            start_rows = (
                ops.gather(self._pool, draws.index_matrix(n, n_start, self._c))
                if n_start
                else None
            )
            universe_ = self._wave_universe()
            sample_buf = ops.oracle_samples(
                self._pool,
                draws.index_matrix(n, 2 * n, cr),
                None if universe_ is None else universe_.searchsorted(self._pool),
            )
        else:
            start_f = draws.float_matrix(n_start, self._c) if n_start else None
            sample_f = draws.float_matrix(2 * n, cr)
        newscast = self.newscast
        stats = layer.stats
        get = nodes.get
        msg_row = ops.msg_row
        select_peer = ops.select_peer
        select_wave = getattr(ops, "select_wave", None)
        create_wave = ops.create_wave
        absorb = ops.absorb
        wave = self._wave or max(1, n // 16)
        batch = self.absorb_mode == "batch"
        pending: list[tuple] = []
        # Batched SELECTPEER bookkeeping (arena leg): picks are
        # precomputed one wave-sized chunk at a time and invalidated
        # whenever node state mutates across nodes (a flush); a
        # ``None`` pick defers to the scalar path, which decides
        # identically.
        sel_buf: list = []
        sel_lo = sel_hi = 0

        create_wave_flat = (
            getattr(ops, "create_wave_flat", None) if batch else None
        )
        absorb_wave_flat = getattr(ops, "absorb_wave_flat", None)

        def flush() -> None:
            nonlocal sel_hi
            universe_w = self._wave_universe()
            jobs = []
            for _, nid_, state_, peer_, target_, rq, rp in pending:
                jobs.append((state_, peer_, rq))
                jobs.append((target_, nid_, rp))
            # Drop coins decide which absorbs survive; the survivors
            # are collected in arrival order and drained in one wave
            # (the segmented slab pass, bit-identical to replaying
            # ``absorb`` per survivor -- the ``single`` mode).
            if create_wave_flat is not None and universe_w is not None:
                # Fast lane (numpy batch leg): the wave stays in its
                # flat slab form end to end -- no per-message tuple
                # views, no re-concatenation inside the wave absorb.
                # On the oracle leg the jobs' sample rows are handed
                # over as (buffer, row index) so the union gathers
                # them in one pass instead of re-stacking the views.
                samples_w = None
                if oracle:
                    req_idx = _np.fromiter(
                        (p[0] for p in pending),
                        dtype=_np.intp,
                        count=len(pending),
                    )
                    row_idx = _np.empty(
                        2 * req_idx.size, dtype=_np.intp
                    )
                    row_idx[0::2] = req_idx
                    row_idx[1::2] = req_idx + n
                    samples_w = (sample_buf, row_idx)
                wave_buf = create_wave_flat(jobs, universe_w, samples_w)
                specs: list[tuple] = []
                for j, (
                    i_, nid_, state_, peer_, target_, _rq, _rp,
                ) in enumerate(pending):
                    if drop_p and req_coins[i_] < drop_p:
                        stats.requests_dropped += 1
                        stats.suppressed_replies += 1
                        continue
                    specs.append((target_, 2 * j, nid_))
                    stats.replies_sent += 1
                    if drop_p and rep_coins[i_] < drop_p:
                        stats.replies_dropped += 1
                        continue
                    specs.append((state_, 2 * j + 1, peer_))
                absorb_wave_flat(wave_buf, specs, universe_w)
            else:
                messages = create_wave(jobs, universe_w)
                absorbs: list[tuple] = []
                for j, (
                    i_, nid_, state_, peer_, target_, _rq, _rp,
                ) in enumerate(pending):
                    if drop_p and req_coins[i_] < drop_p:
                        stats.requests_dropped += 1
                        stats.suppressed_replies += 1
                        continue
                    absorbs.append((target_, messages[2 * j], nid_))
                    stats.replies_sent += 1
                    if drop_p and rep_coins[i_] < drop_p:
                        stats.replies_dropped += 1
                        continue
                    absorbs.append((state_, messages[2 * j + 1], peer_))
                if batch and len(absorbs) > 1:
                    ops.absorb_wave(absorbs, universe_w)
                else:
                    for state_, message_, sender_ in absorbs:
                        absorb(state_, message_, sender_)
            pending.clear()
            # Absorbs may have reshaped leaf sets: any precomputed
            # peer picks past this point are stale.
            sel_hi = 0

        start_ptr = 0
        for i, nid in enumerate(order):
            state = get(nid)
            if state is None:
                continue
            if oracle:
                req_row = msg_row(sample_buf, i)
            else:
                req_row = ops.as_ids(newscast[nid].sample(cr, sample_f[i]))
            if not state.started:
                if oracle:
                    seeds = start_rows[start_ptr]
                else:
                    seeds = ops.as_ids(
                        newscast[nid].sample(self._c, start_f[start_ptr])
                    )
                start_ptr += 1
                ops.start_node(state, seeds)
                self._unstarted.discard(nid)
            if select_wave is not None:
                if i >= sel_hi:
                    hi = min(i + wave, n)
                    sel_buf = select_wave(
                        [get(chunk_nid) for chunk_nid in order[i:hi]],
                        peer_u[i:hi],
                    )
                    sel_lo = i
                    sel_hi = hi
                peer_id = sel_buf[i - sel_lo]
                if peer_id is None:
                    # Scalar fallback: the node started this chunk or
                    # its leaf set is empty (fresh-sample fallback).
                    peer_id = select_peer(state, peer_u[i], req_row)
            else:
                peer_id = select_peer(state, peer_u[i], req_row)
            if peer_id is None:
                continue
            target = get(peer_id)
            stats.exchanges += 1
            stats.requests_sent += 1
            if target is None:
                # Void target: the request's content is unobservable
                # (nobody absorbs it) and the batched samples are
                # pre-drawn, so the message build is skipped outright.
                if drop_p and req_coins[i] < drop_p:
                    stats.requests_dropped += 1
                else:
                    stats.void_requests += 1
                stats.suppressed_replies += 1
                continue
            if oracle:
                rep_row = msg_row(sample_buf, n + i)
            else:
                rep_row = ops.as_ids(
                    newscast[peer_id].sample(cr, sample_f[n + i])
                )
            pending.append((i, nid, state, peer_id, target, req_row, rep_row))
            if len(pending) >= wave:
                flush()
        if pending:
            flush()
        layer.cycle += 1

    def _newscast_cycle(self) -> None:
        layer = self._news
        views = self.newscast
        draws = self._draws
        now = float(layer.cycle)
        if layer.dirty:
            layer.order = list(views)
            layer.dirty = False
        order = list(layer.order)
        draws.shuffle(order)
        n = len(order)
        if n == 0:
            layer.cycle += 1
            return
        for view in views.values():
            view.now = now
        peer_u = draws.floats(n)
        drop_p = self.network.drop_probability
        req_coins = rep_coins = None
        if drop_p:
            req_coins = draws.floats(n)
            rep_coins = draws.floats(n)
        stats = layer.stats
        get = views.get
        for i, nid in enumerate(order):
            view = get(nid)
            if view is None:
                continue
            peer_id = view.select_peer(peer_u[i])
            if peer_id is None:
                continue
            request = view.payload()
            stats.exchanges += 1
            stats.requests_sent += 1
            if drop_p and req_coins[i] < drop_p:
                stats.requests_dropped += 1
                stats.suppressed_replies += 1
                continue
            target = get(peer_id)
            if target is None:
                stats.void_requests += 1
                stats.suppressed_replies += 1
                continue
            reply = target.payload()
            target.merge(request)
            stats.replies_sent += 1
            if drop_p and rep_coins[i] < drop_p:
                stats.replies_dropped += 1
                continue
            view.merge(reply)
        layer.cycle += 1

    # ------------------------------------------------------------------
    # Measurement and experiment running (reference API)
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

    def run(
        self,
        max_cycles: int = 60,
        *,
        stop_when_perfect: bool = True,
        schedules: Sequence[object] = (),
        measure_every: int = 1,
    ) -> SimulationResult:
        """Run the experiment (same semantics and parameters as
        ``BootstrapSimulation.run``)."""
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        if measure_every < 1:
            raise ValueError(
                f"measure_every must be >= 1, got {measure_every}"
            )
        started_at = self._boot.cycle
        for cycle_index in range(max_cycles):
            for schedule in schedules:
                schedule.apply(self, cycle_index)
            self.run_cycle()
            if (cycle_index + 1) % measure_every == 0:
                sample = self.measure()
                if stop_when_perfect and sample.is_perfect:
                    break
        if not self.tracker.samples:
            self.measure()
        return self._result(started_at)

    def _result(self, started_at: int = 0) -> SimulationResult:
        converged_at = next(
            (
                s.cycle
                for s in self.tracker.samples
                if s.cycle > started_at and s.is_perfect
            ),
            None,
        )
        return SimulationResult(
            samples=tuple(self.tracker.samples),
            converged_at=converged_at,
            population=self.population,
            transport=self._boot.stats.snapshot(),
            config=self.config,
            seed=self.seed,
            cycles_run=self._boot.cycle - started_at,
            started_at_cycle=started_at,
            engine="vector",
        )
