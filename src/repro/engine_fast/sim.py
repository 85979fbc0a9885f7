"""The array-backed cycle engine (drop-in twin of the reference one).

:class:`FastBootstrapSimulation` shares the simulation shell
(:class:`~repro.simulator.bootstrap_sim.CycleSimulation`: constructor
checks, spawn identifiers, ``run``) with
:class:`repro.simulator.bootstrap_sim.BootstrapSimulation`, and produces
**bit-identical** :class:`~repro.simulator.bootstrap_sim.SimulationResult`
trajectories for any ``(seed, size, network, sampler, schedules)``.
That identity is the engine's contract, pinned by the differential
suite (``tests/test_engine_fast.py``) and the golden fixtures
(``tests/golden/``).

How it can be both identical and faster
---------------------------------------
The reference engine's observable trajectory (convergence samples,
transport counters, converged-at cycle) is a function of *node ids
only*: descriptor addresses are opaque and merely echoed, and
timestamps influence nothing but NEWSCAST's freshest-wins merge.  So
this engine discards descriptor objects entirely -- leaf sets become id
sets, prefix tables become packed-slot id lists, messages become id
lists -- and re-derives the exact same decisions from the exact same
RNG streams (see :mod:`repro.engine_fast.state` for the per-stream
contracts).  The per-exchange geometry (ring ranking, balanced
selection) runs through the batch kernels in
:mod:`repro.engine_fast.kernels`, numpy-vectorised when available.

What stays shared with the reference implementation: the identifier
geometry (:class:`~repro.core.idspace.IDSpace`), the perfect-table
oracle (:class:`~repro.core.reference.ReferenceTables`), the network
model, the failure schedules, and the result/sample dataclasses --
the differential harness therefore compares genuinely independent
implementations of the *protocol kernel*, not two copies of one code
path.

Settled receivers
-----------------
Like the reference engine (see :mod:`repro.simulator.bootstrap_sim`
for the argument), the cycle builds no request to a target and no
reply to a requester that the last :meth:`measure` found perfect, and
such a receiver absorbs nothing; the skipped build still draws its
``cr`` samples.  The gates are the reference's: measured, no node ever
killed, no membership change since that measurement, and the node had
started.  No table write happens outside this engine (there is no
``restart`` and no maintenance layer over flat state), so no table
stamps are needed: a settled node's state changes only through the
absorbs the rule skips.

Work nobody reads
-----------------
Each message is built after its drop coin, in both gossip layers: a
lost request builds neither message, a lost reply builds no reply,
and a skipped bootstrap build still draws its ``cr`` samples, so the
sampler streams stay in step with the reference engine's.  A reply is
still built before the request it answers is absorbed.  Every built
message is therefore absorbed exactly once (barring a request to a
killed node).  :class:`FastConvergenceTracker` recomputes only the
nodes whose ``FastNodeState.version`` moved since their last
measurement; the engine bumps it wherever leaf membership or prefix
ids change (``_set_leaf``, ``_absorb``, ``_start_node``).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.convergence import ConvergenceSample
from ..core.reference import ReferenceTables
from ..simulator.bootstrap_sim import CycleSimulation
from ..simulator.network import NetworkModel, RELIABLE, TransportStats
from . import kernels
from .state import (
    FastNewscastView,
    FastNodeState,
    FastOracleSampler,
    FastRegistry,
)

__all__ = ["FastBootstrapSimulation", "FastConvergenceTracker"]


class _Layer:
    """One gossip layer's engine bookkeeping (mirrors
    :class:`~repro.simulator.engine.CycleEngine`'s buffers)."""

    __slots__ = ("rng", "stats", "order", "scratch", "dirty", "cycle")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.stats = TransportStats()
        self.order: list[int] = []
        self.scratch: list[int] = []
        self.dirty = False
        self.cycle = 0


class FastConvergenceTracker:
    """Convergence measurement over :class:`FastNodeState` populations.

    Produces the same :class:`ConvergenceSample` values as
    :class:`repro.core.convergence.ConvergenceTracker` -- the deficits
    are sums over id sets, which is all the fast engine stores -- and
    the same :attr:`settled` list: the measured states with zero
    deficit.  Like the reference tracker it recomputes only the states
    whose ``version`` moved since their last measurement.
    """

    def __init__(
        self,
        reference: ReferenceTables,
        states: Iterable[FastNodeState],
        digit_bits: int,
    ) -> None:
        self._digit_bits = digit_bits
        self.samples: list[ConvergenceSample] = []
        self.settled: list[FastNodeState] = []
        self.rebind(reference, states)

    def rebind(
        self, reference: ReferenceTables, states: Iterable[FastNodeState]
    ) -> None:
        """Swap reference and population, keeping the sample history."""
        self._reference = reference
        self._states = [s for s in states if s.node_id in reference]
        self._live = set(reference.ids)
        # node_id -> [(packed slot, perfect count)]; membership is
        # static between rebinds, so the trie walk and the slot packing
        # are paid once per node instead of once per measurement.
        self._packed_perfect: dict[int, list] = {}
        # Per state (aligned with _states): (version, leaf, prefix)
        # of its last measurement, valid while the reference is.
        self._deficits: list[tuple[int, int, int] | None] = [None] * len(
            self._states
        )

    def _perfect_slots(self, node_id: int) -> list:
        packed = self._packed_perfect.get(node_id)
        if packed is None:
            digit_bits = self._digit_bits
            packed = [
                ((row << digit_bits) | col, needed)
                for (row, col), needed in self._reference
                .perfect_prefix_counts(node_id)
                .items()
            ]
            self._packed_perfect[node_id] = packed
        return packed

    def measure(self, cycle: float) -> ConvergenceSample:
        """Take one network-wide measurement, append it to
        :attr:`samples` and list the perfect states in :attr:`settled`
        (same metric as the reference tracker)."""
        deficits = self._deficits
        deficit = self._deficit
        missing_leaf = 0
        missing_prefix = 0
        settled = self.settled = []
        for index, state in enumerate(self._states):
            cached = deficits[index]
            if cached is not None and cached[0] == state.version:
                _, leaf, prefix = cached
            else:
                leaf, prefix = deficit(state)
                deficits[index] = (state.version, leaf, prefix)
            if leaf or prefix:
                missing_leaf += leaf
                missing_prefix += prefix
            else:
                settled.append(state)
        total_leaf, total_prefix = self._reference.totals()
        sample = ConvergenceSample(
            cycle=cycle,
            missing_leaf=missing_leaf,
            total_leaf=total_leaf,
            missing_prefix=missing_prefix,
            total_prefix=total_prefix,
        )
        self.samples.append(sample)
        return sample

    def _deficit(self, state: FastNodeState) -> tuple[int, int]:
        """``(missing leaf, missing prefix)`` of one state, counting
        only live ids."""
        live = self._live
        members = state.leaf_members
        current = members if members <= live else members & live
        leaf = len(self._reference.perfect_leaf_ids(state.node_id) - current)
        prefix = 0
        slots = state.prefix_slots
        if state.prefix_ids <= live:
            for slot, needed in self._perfect_slots(state.node_id):
                held = slots.get(slot)
                have = len(held) if held else 0
                if have < needed:
                    prefix += needed - have
        else:
            for slot, needed in self._perfect_slots(state.node_id):
                held = slots.get(slot)
                have = sum(1 for nid in held if nid in live) if held else 0
                if have < needed:
                    prefix += needed - have
        return leaf, prefix


class FastBootstrapSimulation(CycleSimulation):
    """Array-backed twin of :class:`BootstrapSimulation`.

    Accepts the same parameters (minus ``node_factory``, which is the
    reference engine's ablation hook) and honours the same failure
    schedules.  See the module docstring for the identity contract.
    """

    engine_name = "fast"

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
    ) -> None:
        super().__init__(
            size, ids, config, seed, network, sampler, newscast_view_size
        )
        self.reference = self._perfect_tables()
        self.tracker = FastConvergenceTracker(
            self.reference, self.nodes.values(), self._digit_bits
        )

    def _open(self) -> None:
        space = self._space
        config = self.config
        # Cached geometry and parameters for the exchange hot path.
        self._mask = space.size - 1
        self._half_ring = space.half
        self._bits = space.bits
        self._digit_bits = space.digit_bits
        self._base_mask = space.digit_base - 1
        self._k = config.entries_per_slot
        self._cr = config.random_samples
        self._half_c = config.half_leaf_set
        self._c = config.leaf_set_size
        self._slot_tables = kernels.slot_tables(space.bits, space.digit_bits)
        self._row_of, self._shift_of = self._slot_tables

        self.registry = FastRegistry()
        self.newscast: dict[int, FastNewscastView] = {}
        self._boot = _Layer(self._source.derive("bootstrap-engine"))
        self._news: _Layer | None = None
        if self.sampler_kind == "newscast":
            self._news = _Layer(self._source.derive("newscast-engine"))
        # Settled receivers (module docstring): ids recorded at each
        # measure while _settle holds, which a kill ends for good.
        self._settled: set[int] = set()
        self._settle = True

    # ------------------------------------------------------------------
    # Membership (same seed-tree names as the reference)
    # ------------------------------------------------------------------

    def _admit(self, node_id: int) -> FastNodeState:
        self.registry.add(node_id)
        if self._news is not None:
            view = FastNewscastView(
                node_id,
                self._newscast_view_size,
                self._source.derive(("newscast", node_id)),
            )
            self.newscast[node_id] = view
            self._news.dirty = True
            node_sampler = view
        else:
            node_sampler = FastOracleSampler(
                self.registry,
                node_id,
                self._source.derive(("sampler", node_id)),
            )
        state = FastNodeState(
            node_id, self._source.derive(("node", node_id)), node_sampler
        )
        self.nodes[node_id] = state
        self._boot.dirty = True
        self._settled = set()
        return state

    def _seed_view(self, node_id: int, rng: random.Random) -> None:
        ids = self.registry.sample(
            self._newscast_view_size, rng, exclude_id=node_id
        )
        self.newscast[node_id].merge([(nid, 0.0) for nid in ids])

    def kill_node(self, node_id: int) -> bool:
        """Crash *node_id*: it stops sending, answering, and being a
        valid table entry.  Returns whether the node was live."""
        state = self.nodes.pop(node_id, None)
        if state is None:
            return False
        self.registry.remove(node_id)
        self._boot.dirty = True
        if self._news is not None:
            self.newscast.pop(node_id, None)
            self._news.dirty = True
        self._membership_dirty = True
        self._settle = False
        self._settled = set()
        return True

    # ------------------------------------------------------------------
    # Protocol transitions over flat state
    # ------------------------------------------------------------------

    def _start_node(self, state: FastNodeState) -> None:
        """Protocol start (mirrors ``BootstrapNode.start``): *clear the
        prefix table*, then seed the leaf set with one leaf set's worth
        of samples.  The clear matters: a node can absorb requests as a
        passive target before its own first activation, and the paper's
        start step wipes that prefix state (but keeps the leaf set)."""
        state.prefix_slots.clear()
        state.prefix_ids.clear()
        state.version += 1
        self._leaf_update(state, state.sampler.sample(self._c), None)
        state.started = True

    def _select_peer(self, state: FastNodeState) -> int | None:
        """SELECTPEER: uniform pick from the closest half of the
        distance-ranked leaf set (ranking cached between updates; the
        pick consumes the same bits as the reference's ``choice``)."""
        ranked = state.leaf_sorted
        if ranked is None:
            ranked = state.leaf_sorted = kernels.rank_ids(
                list(state.leaf_members), state.node_id, self._mask
            )
        if ranked:
            half = (len(ranked) + 1) // 2
            return ranked[state.randbelow(half)]
        fallback = state.sampler.sample(1)
        return fallback[0] if fallback else None

    def _create_message(
        self, state: FastNodeState, peer_id: int
    ) -> tuple[list[int], list[int], list[int]]:
        """CREATEMESSAGE as a batch kernel: union of leaf ids, prefix
        ids, ``cr`` fresh samples and the own id; balanced-closest part
        first, then the prefix-useful part (first ``k`` per peer slot in
        ranked order) -- the reference message layout exactly.

        Returns ``(close_ids, prefix_ids, prefix_slots)``.  The slots
        of the prefix part fall out of the capping kernel for free, and
        a message is only ever absorbed by the peer it was created for,
        so they are directly the receiver's UPDATEPREFIXTABLE keys; the
        close part ships without slots (the receiver computes them only
        for ids it does not already hold, a set that empties as the run
        converges)."""
        union = set(state.prefix_ids)
        union |= state.leaf_members
        union.update(state.sampler.sample(self._cr))
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

    def _leaf_update(
        self,
        state: FastNodeState,
        incoming: list[int],
        sender_id: int | None,
    ) -> None:
        """UPDATELEAFSET membership semantics: reselect only when the
        merge introduces at least one new identifier."""
        own = state.node_id
        members = state.leaf_members
        fresh = [
            nid
            for nid in incoming
            if nid != own and nid not in members
        ]
        if sender_id is not None and sender_id != own and sender_id not in members:
            fresh.append(sender_id)
        if not fresh:
            return
        self._merge_fresh(state, members, fresh)

    def _merge_fresh(
        self, state: FastNodeState, members: set, fresh: list[int]
    ) -> None:
        """Reselect the leaf membership after *fresh* novel ids joined
        the candidate pool (shared tail of UPDATELEAFSET)."""
        candidates = members | set(fresh)
        if len(candidates) <= self._c:
            # Balanced selection keeps everything while the merged set
            # fits the capacity (backfill fills whichever side is
            # short), so the kernel call can be skipped outright.
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

    def _set_leaf(self, state: FastNodeState, members: set) -> None:
        """Install a new leaf membership and refresh the cached
        ranking and per-side admission bounds."""
        state.leaf_members = members
        state.leaf_sorted = None
        state.version += 1
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

    def _absorb(
        self,
        state: FastNodeState,
        message: tuple[list[int], list[int], list[int]],
        sender_id: int,
    ) -> None:
        """UPDATELEAFSET then UPDATEPREFIXTABLE over payload + envelope
        sender (mirrors ``BootstrapNode.absorb``).  *state* must be the
        destination the message was created for: the prefix part's slot
        keys were computed against its identifier.

        One pass does both updates: the leaf novelty scan and the
        prefix fill visit the same ids (never the destination's own id,
        so no own-id guard is needed).  Slots are computed locally only
        for *novel* close-part ids and the envelope sender."""
        close, tail, tail_slots = message
        own = state.node_id
        members = state.leaf_members
        prefix_ids = state.prefix_ids
        held_before = len(prefix_ids)
        table = state.prefix_slots
        digit_bits = self._digit_bits
        base_mask = self._base_mask
        row_of = self._row_of
        shift_of = self._shift_of
        k = self._k
        mask = self._mask
        half_ring = self._half_ring
        half_c = self._half_c
        full = state.leaf_full
        succ_short = state.succ_count < half_c
        succ_max = state.succ_max
        pred_short = state.pred_count < half_c
        pred_max = state.pred_max
        fresh: list[int] = []
        # `effective` tracks whether any novel id can actually change
        # the balanced selection (see FastNodeState's bound fields);
        # when none can, the reselect below is provably a no-op and is
        # skipped -- the common case once leaf sets converge.
        effective = not full

        def can_affect_leaf(nid: int) -> bool:
            # The admission test in one place: a non-member can change
            # the balanced selection only if its side is short or it
            # beats that side's worst kept distance.  (`full` is
            # handled by the `effective` initialisation above.)
            fw = (nid - own) & mask
            if fw <= half_ring:
                return succ_short or fw < succ_max
            return pred_short or mask + 1 - fw < pred_max

        def scan_unslotted(ids) -> None:
            # Shared UPDATEPREFIXTABLE + UPDATELEAFSET scan for ids
            # whose slot was not shipped with the message (the close
            # part and the envelope sender).
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
                        effective = can_affect_leaf(nid)

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
                    effective = can_affect_leaf(nid)
        # Envelope sender: never the destination itself, may duplicate
        # a payload id (its own advertisement inside the payload);
        # processed last, matching the reference's payload-then-sender
        # order (it competes for prefix slots after the tail ids).
        scan_unslotted((sender_id,))
        if len(prefix_ids) != held_before:
            state.version += 1
        if fresh and effective:
            self._merge_fresh(state, members, fresh)

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """One Δ interval: NEWSCAST gossips first (when live), then
        every bootstrap node performs one exchange -- the reference
        engine order."""
        if self._news is not None:
            self._newscast_cycle()
        self._bootstrap_cycle()

    def _bootstrap_cycle(self) -> None:
        layer = self._boot
        nodes = self.nodes
        if layer.dirty:
            layer.order = list(nodes)
            layer.dirty = False
        scratch = layer.scratch
        scratch[:] = layer.order
        rng = layer.rng
        rng.shuffle(scratch)
        stats = layer.stats
        drop_p = self.network.drop_probability
        get = nodes.get
        rand = rng.random
        select_peer = self._select_peer
        create_message = self._create_message
        absorb = self._absorb
        settled = self._settled
        cr = self._cr
        for nid in scratch:
            state = get(nid)
            if state is None:
                continue
            if not state.started:
                self._start_node(state)
            peer_id = select_peer(state)
            if peer_id is None:
                continue
            stats.exchanges += 1
            stats.requests_sent += 1
            # Each message is built after its coin (module docstring);
            # a lost or settled-bound one still draws its samples.
            if drop_p and rand() < drop_p:
                state.sampler.sample(cr)
                stats.requests_dropped += 1
                stats.suppressed_replies += 1
                continue
            if peer_id in settled:
                state.sampler.sample(cr)
                request = None
            else:
                request = create_message(state, peer_id)
            target = get(peer_id)
            if target is None:
                stats.void_requests += 1
                stats.suppressed_replies += 1
                continue
            stats.replies_sent += 1
            lost = drop_p and rand() < drop_p
            if lost:
                stats.replies_dropped += 1
            if lost or nid in settled:
                target.sampler.sample(cr)
                reply = None
            else:
                reply = create_message(target, nid)
            if request is not None:
                absorb(target, request, nid)
            if reply is not None:
                absorb(state, reply, peer_id)
        layer.cycle += 1

    def _newscast_cycle(self) -> None:
        layer = self._news
        views = self.newscast
        now = float(layer.cycle)
        if layer.dirty:
            layer.order = list(views)
            layer.dirty = False
        scratch = layer.scratch
        scratch[:] = layer.order
        for view in views.values():
            view.now = now
        rng = layer.rng
        rng.shuffle(scratch)
        stats = layer.stats
        drop_p = self.network.drop_probability
        get = views.get
        rand = rng.random
        for nid in scratch:
            view = get(nid)
            if view is None:
                continue
            peer_id = view.select_peer()
            if peer_id is None:
                continue
            stats.exchanges += 1
            stats.requests_sent += 1
            if drop_p and rand() < drop_p:
                stats.requests_dropped += 1
                stats.suppressed_replies += 1
                continue
            request = view.payload()
            target = get(peer_id)
            if target is None:
                stats.void_requests += 1
                stats.suppressed_replies += 1
                continue
            stats.replies_sent += 1
            if drop_p and rand() < drop_p:
                stats.replies_dropped += 1
                target.merge(request)
                continue
            reply = target.payload()
            target.merge(request)
            view.merge(reply)
        layer.cycle += 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self) -> ConvergenceSample:
        """Measure convergence now (rebuilding the reference first if
        membership changed) and record the settled nodes."""
        if self._membership_dirty:
            self._refresh_reference()
        sample = self.tracker.measure(float(self._boot.cycle))
        if self._settle:
            self._settled = {
                state.node_id for state in self.tracker.settled if state.started
            }
        return sample
