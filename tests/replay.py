"""Exchange-log replay: the vector engine against ``BootstrapNode``.

:class:`ExchangeReplay` pins the vector engine's batched kernels to
the paper's protocol (Figure 2) itself.  It wraps one simulation's ops
instance and intercepts every transition the cycle path makes:

* ``new_state`` -- a node admitted, or a killed id re-admitted;
* each ``start_chunk`` -- the chunk's starting nodes in activation
  order, each with its seed ids;
* each ``create_wave_flat`` job -- sender, peer, and the job's sample
  ids sliced from the wave's ragged sample slab;
* each ``absorb_wave_flat`` spec, in arrival order;
* each ``select_wave`` pick with its uniform draw, and the fallback
  sample row an empty leaf set reads;
* each cycle's ``settled_ranks`` query.

Each is replayed through one ``BootstrapNode`` per id, fed its samples
by a :class:`ScriptedSampler`, and checked as it happens:

* every start, replayed through ``BootstrapNode.start`` in activation
  order, leaves the node's leaf ids and prefix ids equal to the
  arena's, and no node starts ahead of the chunk that picks for it;

* every message's payload ids, in order, equal
  ``BootstrapNode.create_message``'s, and its slots equal
  ``IDSpace.prefix_slot(peer, id)``;
* after every wave, every receiver's leaf ids and prefix ids equal the
  arena's;
* every pick from a non-empty leaf set equals
  ``leaf_set.closest_half()[min(int(u * half), half - 1)]``, and every
  pick from an empty one equals ``BootstrapNode.select_peer``'s
  fallback fed the engine's sample row without the node's own id;
* every node the engine reports settled holds, in its replayed node,
  exactly the perfect tables of ``sim.reference``, and no message of
  that cycle is built for it -- so the messages the engine skips are
  ones the protocol would have absorbed without effect.

Messages are built from wave-start state and absorbed afterwards in
arrival order, so this checks the protocol under wave-synchronous
activation; activation order and RNG streams are the engine's own.

:class:`NewscastReplay` does the same for the NEWSCAST layer: it keeps
one dict-backed :class:`VectorNewscastView` per node, re-runs every
gossip exchange of each cycle through them in activation order from
the engine's own draws, and checks every merge's receiver view (ids in
order and timestamps), every seeded view and every peer-sampling draw
against the engine's view rows.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import accumulate

from repro.core import BootstrapNode, NodeDescriptor

__all__ = [
    "ExchangeReplay",
    "NewscastReplay",
    "ScriptedSampler",
    "VectorNewscastView",
    "node_from_state",
    "packed_slot",
    "sample_distinct",
    "snapshot",
]


class _Descriptors(dict):
    """Descriptors by id (address = id, timestamp 0), each made on its
    first lookup."""

    def __missing__(self, node_id: int) -> NodeDescriptor:
        desc = self[node_id] = NodeDescriptor(node_id, node_id)
        return desc


class ScriptedSampler:
    """A peer sampling service that returns whatever ids it was last
    handed (:meth:`script`), whatever *count* is asked for.  It owns
    the one descriptor per id that its nodes share."""

    def __init__(self) -> None:
        self._script: list[NodeDescriptor] = []
        self._descriptors = _Descriptors()

    def descriptor(self, node_id: int) -> NodeDescriptor:
        """The descriptor of *node_id*."""
        return self._descriptors[node_id]

    def script(self, ids) -> None:
        """Set the descriptors the next :meth:`sample` returns."""
        self._script = list(map(self._descriptors.__getitem__, ids))

    def sample(self, count: int) -> list[NodeDescriptor]:
        return self._script


def protocol_node(node_id: int, config, sampler) -> BootstrapNode:
    """A fresh ``BootstrapNode`` for *node_id* sampling from *sampler*."""
    return BootstrapNode(
        sampler.descriptor(node_id), config, sampler, random.Random(0)
    )


def node_from_state(state, config, sampler) -> BootstrapNode:
    """A ``BootstrapNode`` holding exactly *state*'s arena tables: its
    leaf ids (at most ``c``, so the balanced update keeps them all) and
    its prefix ids (at most ``k`` per slot, so every one is admitted)."""
    node = protocol_node(state.node_id, config, sampler)
    node.leaf_set.update(map(sampler.descriptor, state.leaf.tolist()))
    node.prefix_table.update(
        map(sampler.descriptor, state.prefix_ids.tolist())
    )
    assert_tables_equal(node, state)
    return node


def packed_slot(space, peer: int, node_id: int) -> int:
    """``IDSpace.prefix_slot(peer, node_id)`` packed as ``(row <<
    digit_bits) | column`` -- the engine's slot key for *node_id* in
    *peer*'s prefix table."""
    row, col = space.prefix_slot(peer, node_id)
    return (row << space.digit_bits) | col


def snapshot(sim) -> dict:
    """*sim*'s table content per node: the leaf ids and the sorted
    ``(id, slot)`` prefix entries."""
    return {
        node_id: (
            state.leaf.tolist(),
            sorted(
                zip(
                    state.prefix_ids.tolist(),
                    state.prefix_slots.tolist(),
                    strict=True,
                )
            ),
        )
        for node_id, state in sim.nodes.items()
    }


def assert_perfect(node: BootstrapNode, reference, cycle=None) -> None:
    """*node*'s leaf set and prefix-slot occupancy are exactly its
    perfect tables in *reference*."""
    node_id = node.node_id
    assert node.leaf_set.member_ids() == reference.perfect_leaf_ids(node_id), (
        f"cycle {cycle}: settled leaf set of {node_id:#x}"
    )
    assert node.prefix_table.occupancy() == (
        reference.perfect_prefix_counts(node_id)
    ), f"cycle {cycle}: settled prefix table of {node_id:#x}"


def assert_tables_equal(node: BootstrapNode, state, cycle=None) -> None:
    """*node*'s leaf and prefix ids equal *state*'s arena rows."""
    assert sorted(node.leaf_set.member_ids()) == state.leaf.tolist(), (
        f"cycle {cycle}: leaf set of {state.node_id:#x}"
    )
    assert sorted(node.prefix_table.member_ids()) == (
        state.prefix_ids.tolist()
    ), f"cycle {cycle}: prefix table of {state.node_id:#x}"


class ExchangeReplay:
    """Replay *sim*'s exchanges through ``BootstrapNode`` as they run.

    Construct it on a fresh simulation (before its first cycle); it
    wraps the simulation's ops instance in place and asserts at every
    transition (see the module docstring).  :attr:`messages`,
    :attr:`receivers`, :attr:`picks` and :attr:`fallbacks` (picks from
    an empty leaf set) count what was checked, :attr:`skipped` the
    settled receivers, one per node and cycle, and
    :attr:`absorbed_starts` / :attr:`spawned_starts` the starts of
    nodes that absorbed a message before their turn / joined after the
    simulation was built.
    """

    WRAPPED = (
        "new_state", "start_chunk", "select_wave",
        "create_wave_flat", "absorb_wave_flat", "settled_ranks",
    )

    def __init__(self, sim) -> None:
        self.sim = sim
        self.config = sim.config
        self.space = sim.config.space
        self.sampler = ScriptedSampler()
        self.nodes: dict[int, BootstrapNode] = {}
        for node_id, state in sim.nodes.items():
            assert not state.started and not state.leaf.size
            self.nodes[node_id] = self._fresh(node_id)
        self.messages = self.receivers = self.picks = self.skipped = 0
        self.fallbacks = self.absorbed_starts = self.spawned_starts = 0
        self._initial = set(self.nodes)
        self._unpicked: set[int] = set()
        self._wave = None
        self._settled: set[int] = set()
        self._settled_cycle = None
        self._slots: dict[int, dict[int, int]] = {}
        self._ops = {name: getattr(sim._ops, name) for name in self.WRAPPED}
        for name in self.WRAPPED:
            setattr(sim._ops, name, getattr(self, name))

    def _fresh(self, node_id: int) -> BootstrapNode:
        return protocol_node(node_id, self.config, self.sampler)

    def _slots_for(self, peer: int, ids: list[int]) -> list[int]:
        """:func:`packed_slot` of each of *ids*, memoised per peer:
        messages to one peer repeat most of their ids cycle to cycle."""
        table = self._slots.setdefault(peer, {})
        for nid in set(ids).difference(table):
            table[nid] = packed_slot(self.space, peer, nid)
        return list(map(table.__getitem__, ids))

    # -- the wrapped transitions ---------------------------------------

    def new_state(self, node_id):
        state = self._ops["new_state"](node_id)
        self.nodes[node_id] = self._fresh(node_id)
        return state

    def start_chunk(self, states, seeds) -> None:
        self._ops["start_chunk"](states, seeds)
        rows, lens = seeds
        for state, row, size in zip(states, rows, lens.tolist(), strict=True):
            node_id = state.node_id
            node = self.nodes[node_id]
            if node.leaf_set.member_ids() or node.prefix_table.member_ids():
                self.absorbed_starts += 1
            if node_id not in self._initial:
                self.spawned_starts += 1
            self.sampler.script(row[:size].tolist())
            node.start()
            assert state.started
            assert_tables_equal(node, state, self.sim.cycle)
            self._unpicked.add(node_id)

    def select_wave(self, states, u, fallback):
        rows_read = {}

        def recorded(rows):
            ids, lens = fallback(rows)
            for j, row, size in zip(rows.tolist(), ids, lens.tolist(), strict=True):
                rows_read[j] = row[:size].tolist()
            return ids, lens

        # A node starts at its turn: no node is started ahead of the
        # chunk that picks for it.
        self._unpicked.difference_update(state.node_id for state in states)
        assert not self._unpicked, f"cycle {self.sim.cycle}: started early"
        picks = self._ops["select_wave"](states, u, recorded)
        for j, (state, draw, pick) in enumerate(
            zip(states, u.tolist(), picks, strict=True)
        ):
            node = self.nodes[state.node_id]
            assert node.started, f"cycle {self.sim.cycle}: unstarted pick"
            if node.leaf_set.closest_half():
                self._check_pick(state, draw, pick)
            else:
                self._check_fallback(state, rows_read.pop(j), pick)
        assert not rows_read, f"cycle {self.sim.cycle}: unused fallback rows"
        return picks

    def _check_pick(self, state, u: float, pick: int) -> None:
        candidates = self.nodes[state.node_id].leaf_set.closest_half()
        half = len(candidates)
        expected = candidates[min(int(u * half), half - 1)].node_id
        assert pick == expected, (
            f"cycle {self.sim.cycle}: SELECTPEER of {state.node_id:#x}"
        )
        self.picks += 1

    def _check_fallback(self, state, row: list[int], pick) -> None:
        """An empty leaf set asks the sampling service for one peer;
        the engine's sample row, without the node itself, is what the
        service answers."""
        node_id = state.node_id
        self.sampler.script([nid for nid in row if nid != node_id])
        expected = self.nodes[node_id].select_peer()
        assert pick == (None if expected is None else expected.node_id), (
            f"cycle {self.sim.cycle}: fallback SELECTPEER of {node_id:#x}"
        )
        self.fallbacks += 1

    def settled_ranks(self):
        mask = self._ops["settled_ranks"]()
        flagged = mask.tolist()
        cycle = self.sim.cycle
        settled = {
            node_id
            for node_id, state in self.sim.nodes.items()
            if flagged[state.rank]
        }
        if settled:
            reference = self.sim.reference
            for node_id in settled:
                assert_perfect(self.nodes[node_id], reference, cycle)
        self._settled = settled
        self._settled_cycle = cycle
        self.skipped += len(settled)
        return mask

    def create_wave_flat(self, jobs, universe, samples):
        if self._settled_cycle == self.sim.cycle:
            for _, peer in jobs:
                assert peer not in self._settled, (
                    f"cycle {self.sim.cycle}: message built for settled "
                    f"{peer:#x}"
                )
        wave = self._ops["create_wave_flat"](jobs, universe, samples)
        ids_flat, slots_flat, dense_flat, bounds = wave
        ids_all = ids_flat.tolist()
        slots_all = slots_flat.tolist()
        dense_ids = universe[dense_flat].tolist()
        s_ids = samples[0].tolist()
        s_cuts = [0, *accumulate(samples[2].tolist())]
        cuts = bounds.tolist()
        messages = []
        for j, (state, peer) in enumerate(jobs):
            self.sampler.script(s_ids[s_cuts[j]:s_cuts[j + 1]])
            message = self.nodes[state.node_id].create_message(
                self.sampler.descriptor(peer)
            )
            expected = [d.node_id for d in message.descriptors]
            lo, hi = cuts[j], cuts[j + 1]
            assert (
                ids_all[lo:hi] == expected
                and slots_all[lo:hi] == self._slots_for(peer, expected)
                and dense_ids[lo:hi] == expected
            ), (
                f"cycle {self.sim.cycle}: message {j} "
                f"{state.node_id:#x} -> {peer:#x}"
            )
            messages.append(message)
        self._wave = (wave, jobs, messages)
        self.messages += len(jobs)
        return wave

    def absorb_wave_flat(self, wave, specs, universe) -> None:
        self._ops["absorb_wave_flat"](wave, specs, universe)
        built, jobs, messages = self._wave
        assert wave is built
        receivers = {}
        for state, index, sender in specs:
            sender_state, peer = jobs[index]
            assert (state.node_id, sender) == (peer, sender_state.node_id)
            self.nodes[peer].absorb(messages[index])
            receivers[peer] = state
        cycle = self.sim.cycle
        for peer, state in receivers.items():
            assert_tables_equal(self.nodes[peer], state, cycle)
        self.receivers += len(receivers)

    # -- whole-population check ----------------------------------------

    def check_all(self) -> None:
        """Every live node's tables equal its replayed node's."""
        for node_id, state in self.sim.nodes.items():
            assert_tables_equal(self.nodes[node_id], state, self.sim.cycle)


# ----------------------------------------------------------------------
# NEWSCAST: the dict view oracle and its replay
# ----------------------------------------------------------------------


def sample_distinct(
    pool: Sequence[int], count: int, floats: Sequence[float]
) -> list[int]:
    """*count* distinct elements of *pool* via a partial Fisher-Yates
    walk consuming ``floats[:count]`` -- the distribution of
    ``random.sample`` realised from pre-drawn uniforms."""
    n = len(pool)
    if count >= n:
        return list(pool)
    scratch = list(pool)
    out: list[int] = []
    for j in range(count):
        span = n - j
        i = j + min(int(floats[j] * span), span - 1)
        scratch[j], scratch[i] = scratch[i], scratch[j]
        out.append(scratch[j])
    return out


class VectorNewscastView:
    """One NEWSCAST view as an insertion-ordered dict: the same
    freshest-wins merge mechanics as the reference/fast views, with
    peer picks and samples realised from pre-drawn uniforms."""

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


def view_row(views, rank: int) -> tuple[list[int], list[int]]:
    """Rank *rank*'s NEWSCAST row: ``(ids, timestamps)`` in view order."""
    size = int(views.len[rank])
    return views.ids[rank, :size].tolist(), views.ts[rank, :size].tolist()


def view_entries(view: VectorNewscastView) -> tuple[list[int], list[float]]:
    """*view*'s ``(ids, timestamps)`` in view order."""
    return list(view.entries), list(view.entries.values())


class _RecordingDraws:
    """A draw source that logs every shuffled order and float vector it
    hands out (the NEWSCAST cycle's draws), delegating the rest."""

    def __init__(self, draws) -> None:
        self._draws = draws
        self.log: list = []

    def shuffle(self, items) -> None:
        self._draws.shuffle(items)
        self.log.append(list(items))

    def floats(self, count: int):
        out = self._draws.floats(count)
        self.log.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self._draws, name)


class NewscastReplay:
    """Replay *sim*'s NEWSCAST layer through one
    :class:`VectorNewscastView` per node as it runs.

    Construct it on a fresh NEWSCAST simulation (before its first
    cycle).  It re-derives every initial view from the seed tree, then
    wraps the simulation so that:

    * every seeded row (``seed_view``: an initial view, a join, a
      recycled rank) equals the oracle view seeded with the same ids;
    * every gossip cycle is re-run exchange by exchange through the
      oracle views, in the engine's activation order and from its own
      draws.  Each merge's receiver and sender (so every delivered
      exchange's peer pick) and the receiver's view after the merge --
      ids in order, timestamps -- equal the engine's row right after
      the batch that applied it; the layer's transport counters and,
      at the cycle's end, every view equal the oracle's;
    * every peer-sampling draw (``view_samples``) equals the oracle
      view's ``sample`` from the same floats.

    :attr:`merges`, :attr:`samples`, :attr:`seeded` and
    :attr:`recycled` count what was checked (a recycled rank is one
    seeded for a second node).
    """

    def __init__(self, sim) -> None:
        assert sim.cycle == 0
        self.sim = sim
        self.width = sim._newscast_view_size
        self.views: dict[int, VectorNewscastView] = {}
        rng = sim._source.derive("newscast-seed")
        for node_id in sim.nodes:
            view = self.views[node_id] = VectorNewscastView(node_id, self.width)
            view.seed(
                sim.registry.sample(self.width, rng, exclude_id=node_id)
            )
        self._owners = {state.rank: nid for nid, state in sim.nodes.items()}
        self.merges = self.samples = self.recycled = 0
        self.seeded = len(self.views)
        self._log: list[tuple] = []
        self._draws = sim._draws = _RecordingDraws(sim._draws)
        ops = sim._ops
        self._ops = {
            name: getattr(ops, name)
            for name in ("seed_view", "merge_views", "view_samples")
        }
        for name in self._ops:
            setattr(ops, name, getattr(self, name))
        self._cycle = sim._newscast_cycle
        sim._newscast_cycle = self.newscast_cycle
        self.check_all()

    # -- the wrapped transitions ---------------------------------------

    def seed_view(self, rank: int, ids) -> None:
        self._ops["seed_view"](rank, ids)
        node_id = int(self.sim._ops.arena.node_ids[rank])
        if rank in self._owners:
            self.recycled += 1
        self._owners[rank] = node_id
        view = self.views[node_id] = VectorNewscastView(node_id, self.width)
        view.seed(ids)
        self.seeded += 1
        assert view_row(self.sim._ops.arena.views, rank) == (
            view_entries(view)
        ), f"seeded view of {node_id:#x}"

    def merge_views(self, recv, send, now: int) -> None:
        self._ops["merge_views"](recv, send, now)
        arena = self.sim._ops.arena
        ids = arena.node_ids
        for r, s in zip(recv, send, strict=True):
            self._log.append(
                (int(ids[r]), int(ids[s]), view_row(arena.views, r))
            )

    def view_samples(self, ranks, count: int, floats):
        rows, lens = self._ops["view_samples"](ranks, count, floats)
        ids = self.sim._ops.arena.node_ids
        for i, rank in enumerate(ranks.tolist()):
            expected = self.views[int(ids[rank])].sample(
                count, floats[i].tolist()
            )
            assert rows[i, : lens[i]].tolist() == expected, (
                f"cycle {self.sim.cycle}: sample of {int(ids[rank]):#x}"
            )
        self.samples += len(ranks)
        return rows, lens

    def newscast_cycle(self) -> None:
        sim = self.sim
        layer = sim._news
        before = layer.stats.snapshot()
        now = layer.cycle
        mark = len(self._draws.log)
        self._log = []
        self._cycle()
        draws = self._draws.log[mark:]
        del self._draws.log[:]
        for node_id in [nid for nid in self.views if nid not in sim.nodes]:
            del self.views[node_id]
        if not draws:
            assert not sim.nodes
            return
        node_ids = sim._ops.arena.node_ids
        order = [int(node_ids[rank]) for rank in draws[0]]
        assert sorted(order) == sorted(sim.nodes)
        drop = sim.network.drop_probability
        expected, counts = self._replay(
            order, *draws[1:], drop=drop, now=float(now)
        )
        assert len(self._log) == len(expected), f"cycle {now}: merge count"
        for got, want in zip(self._log, expected, strict=True):
            assert got == want, f"cycle {now}: merge {got[:2]} vs {want[:2]}"
        after = layer.stats.snapshot()
        assert {key: after[key] - before[key] for key in counts} == counts, (
            f"cycle {now}: transport"
        )
        self.merges += len(expected)
        self.check_all()

    def _replay(self, order, peer_u, req=None, rep=None, *, drop, now):
        """One sequential NEWSCAST cycle through the oracle views: the
        merge log ``(receiver, sender, receiver view)`` and the
        transport counters."""
        views = self.views
        for view in views.values():
            view.now = now
        counts = Counter(
            dict.fromkeys(
                (
                    "exchanges",
                    "requests_sent",
                    "requests_dropped",
                    "replies_sent",
                    "replies_dropped",
                    "suppressed_replies",
                    "void_requests",
                ),
                0,
            )
        )
        log = []
        for i, nid in enumerate(order):
            view = views[nid]
            peer = view.select_peer(float(peer_u[i]))
            if peer is None:
                continue
            request = view.payload()
            counts["exchanges"] += 1
            counts["requests_sent"] += 1
            if drop and req[i] < drop:
                counts["requests_dropped"] += 1
                counts["suppressed_replies"] += 1
                continue
            target = views.get(peer)
            if target is None:
                counts["void_requests"] += 1
                counts["suppressed_replies"] += 1
                continue
            reply = target.payload()
            target.merge(request)
            log.append((peer, nid, view_entries(target)))
            counts["replies_sent"] += 1
            if drop and rep[i] < drop:
                counts["replies_dropped"] += 1
                continue
            view.merge(reply)
            log.append((nid, peer, view_entries(view)))
        return log, dict(counts)

    def check_all(self) -> None:
        """Every live node's view row equals its oracle view."""
        views = self.sim._ops.arena.views
        assert set(self.views) == set(self.sim.nodes)
        for node_id, state in self.sim.nodes.items():
            assert view_row(views, state.rank) == view_entries(
                self.views[node_id]
            ), f"cycle {self.sim.cycle}: view of {node_id:#x}"
