"""The vector engine's arena: pinned trajectories, a measure oracle,
and the slab lifecycle.

The whole population lives in one pool-resident structure-of-arrays
arena (``repro.engine_vector.arena``); this module pins it three ways:

* **digest rows** -- one sha256 per (sampler, drop rate, schedule) run
  over every ``ConvergenceSample``, the transport snapshot and every
  node's final tables, recorded while the engine still carried a
  per-node layout and a scalar absorb dispatch beside the arena and the
  wave absorb (all four combinations read the same rows).  The same
  run is replayed exchange by exchange through ``BootstrapNode``
  (``tests/replay.py``), so every pinned trajectory is also the
  protocol's, wave by wave;
* **the measure oracle** -- under churn, catastrophe, massive join and
  spawn-only growth on both samplers, every sample the slab measurer
  reports equals one recomputed from ``ReferenceTables(live ids)`` and
  each node's arena-resident leaf and prefix arrays, while the engine
  itself never builds ``ReferenceTables``;
* **the lifecycle** -- freed-rank recycling under churn, slab doubling
  when the population outgrows the initial capacity, variable-length
  window relocation and pool compaction, and empty-population cycles;
* **settled receivers** -- a batched start invalidates the started
  ranks' cached deficits, messages to settled nodes are skipped only
  while the network is static, and the transport accounting does not
  notice;
* **built means absorbed** -- under drops every message the cycle
  builds is absorbed exactly once, with the transport accounting of
  the full exchanges;
* **NEWSCAST rows** -- every gossip exchange replayed through one
  dict-backed view per node in activation order (``NewscastReplay``)
  under churn, catastrophe and massive join, with and without drops.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.core import BootstrapConfig, ConvergenceSample, ReferenceTables  # noqa: E402
from repro.engine_vector import VectorBootstrapSimulation  # noqa: E402
from repro.simulator import NetworkModel  # noqa: E402
from repro.simulator.failures import (  # noqa: E402
    CatastrophicFailure,
    Churn,
    MassiveJoin,
)

from .replay import ExchangeReplay, NewscastReplay, snapshot  # noqa: E402

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


class _SpawnOnly:
    """Spawn-only growth: *count* joins every cycle, nobody leaves."""

    def __init__(self, count: int) -> None:
        self.count = count

    def apply(self, sim, cycle: int) -> None:
        for _ in range(self.count):
            sim.spawn_node()


#: Digest-row schedules, each with the starting population it runs at:
#: every kind of membership change, from below the paper leaf-set
#: window (n - 1 <= 2c) to a population past two slab doublings.
DIGEST_SCHEDULES = {
    "churn": (96, lambda: [Churn(rate=0.05)]),
    "catastrophe": (256, lambda: [CatastrophicFailure(at_cycle=4, fraction=0.3)]),
    "massive-join": (30, lambda: [MassiveJoin(at_cycle=3, count=30)]),
    "spawn-only": (48, lambda: [_SpawnOnly(count=4)]),
}

#: sha256 of one paper-config run per (sampler, drop, schedule) row:
#: every ``ConvergenceSample``, the final transport snapshot and every
#: live node's final leaf set and ``(id, slot)`` prefix entries.  The
#: rows were recorded when the engine still carried a per-node state
#: layout and a scalar absorb dispatch beside the arena and the wave
#: absorb, and read the same under all four combinations; a change
#: that moves any row changes the engine's trajectories.
DIGESTS = {
    "newscast/0.0/catastrophe": (
        "8d979e4963f92cbddf5ee2ef04894fb3fdf22c6660db4f9b1facee478e8e61e5"
    ),
    "newscast/0.0/churn": (
        "1d0325f4fcc106ea828ed43c468de341c886e299902484e1c75877835fd00468"
    ),
    "newscast/0.0/massive-join": (
        "52da1e7fa8bb1fc6a9e1d725504e8efc0ed8b276efb91ab913fdb4ad936a3a6b"
    ),
    "newscast/0.0/spawn-only": (
        "d3af1c86624876389c75b089f7137fbc9972b3ce75092553bde613734504f823"
    ),
    "newscast/0.2/catastrophe": (
        "b8ce71fc72ce6ac57a8e0cc97d2debfa1bff9207bcbdcee5b15466826d2ab28e"
    ),
    "newscast/0.2/churn": (
        "8eb7283ad5afb6c48c48453044c687be8f6b920c0c8d6aab3a067f95b5753d66"
    ),
    "newscast/0.2/massive-join": (
        "5f90b5f59f4a6b485a67e572477efa27e94a26470bd33efb0b617a7ff62c964e"
    ),
    "newscast/0.2/spawn-only": (
        "bfca3383c2c983a9190739dc439caff8e71251dba80cb404b82cc16ac4b1b944"
    ),
    "oracle/0.0/catastrophe": (
        "d18e210227ecade9fb801ba998352312e664780804f27c1cf27d93122e26d7bd"
    ),
    "oracle/0.0/churn": (
        "a84b054e6c62f90505e9bd2c65bf0b48b98801b43af384bedc6ad01822ccf9b0"
    ),
    "oracle/0.0/massive-join": (
        "c1a93e3c0fccd654b18e06763dd913e785d47bf9a2b5d37a427874cc031f8ee5"
    ),
    "oracle/0.0/spawn-only": (
        "201650b4877d93818ec9fed232136eba046acd059b33a015dfbfc45da6fa5aaf"
    ),
    "oracle/0.2/catastrophe": (
        "4f440c721718b45013ed0ee2f7545aef77f3f3ff938764e46452950ff6d0a6c2"
    ),
    "oracle/0.2/churn": (
        "ea30350187c5ea16a8eb6cf7f84842e66128dbd6d6463366bfb06ef3ef9d6018"
    ),
    "oracle/0.2/massive-join": (
        "5ee6d1508c500267049610ed4018efbc6a01ecede64cac120b8fb3463b8352d3"
    ),
    "oracle/0.2/spawn-only": (
        "a17e38c8ab7db9ef131d2e5c8cdb6a5437baefbc40fe0d9f5fae807465d33236"
    ),
}


#: Rows whose runs pass through a static stretch with settled nodes:
#: before the catastrophe's kill, and after the massive join is
#: measured.  Churn kills from cycle 0 and spawn-only growth leaves the
#: membership changed at every cycle start, so those rows never skip.
SKIPPING_SCHEDULES = {"catastrophe", "massive-join"}


def trajectory_digest(sampler: str, drop: float, schedule: str):
    """The row's sha256, from a run replayed through ``BootstrapNode``
    as it goes (the replay asserts at every start and wave), and the
    replay with its counts of what it checked."""
    size, schedules = DIGEST_SCHEDULES[schedule]
    sim = VectorBootstrapSimulation(
        size,
        seed=29,
        network=NetworkModel(drop_probability=drop),
        sampler=sampler,
    )
    replay = ExchangeReplay(sim)
    result = sim.run(14, stop_when_perfect=False, schedules=schedules())
    replay.check_all()
    assert replay.messages and replay.receivers and replay.picks
    tables = sorted(
        (node_id, leaf, prefix) for node_id, (leaf, prefix) in snapshot(sim).items()
    )
    payload = repr(([s.as_row() for s in result.samples], result.transport, tables))
    return hashlib.sha256(payload.encode()).hexdigest(), replay


class TestTrajectoryDigests:
    @pytest.mark.parametrize("row", sorted(DIGESTS))
    def test_row_unchanged(self, row):
        sampler, drop, schedule = row.split("/")
        digest, replay = trajectory_digest(sampler, float(drop), schedule)
        assert digest == DIGESTS[row]
        if schedule in SKIPPING_SCHEDULES:
            assert replay.skipped > 0
        else:
            assert replay.skipped == 0
        # Every row starts nodes that absorbed before their turn; every
        # row whose schedule joins nodes starts them mid-run.
        assert replay.absorbed_starts > 0
        assert (replay.spawned_starts > 0) == (schedule != "catastrophe")


def oracle_sample(sim) -> ConvergenceSample:
    """*sim*'s current sample recomputed the object-level way: perfect
    tables from ``ReferenceTables`` over the live ids, deficits from
    each node's leaf and prefix arrays.  Dead ids never match a perfect
    leaf id and are filtered out of the prefix occupancy."""
    config = sim.config
    reference = ReferenceTables(
        config.space, sim.nodes.keys(), config.leaf_set_size, config.entries_per_slot
    )
    digit_bits = config.space.digit_bits
    missing_leaf = missing_prefix = 0
    for node_id, state in sim.nodes.items():
        perfect_leaf = set(reference.perfect_leaf_ids(node_id))
        missing_leaf += len(perfect_leaf - set(state.leaf.tolist()))
        held = Counter(
            slot
            for nid, slot in zip(
                state.prefix_ids.tolist(), state.prefix_slots.tolist(), strict=True
            )
            if nid in sim.nodes
        )
        for (row, digit), need in reference.perfect_prefix_counts(node_id).items():
            missing_prefix += max(0, need - held[(row << digit_bits) | digit])
    total_leaf, total_prefix = reference.totals()
    return ConvergenceSample(
        cycle=float(sim.cycle),
        missing_leaf=missing_leaf,
        total_leaf=total_leaf,
        missing_prefix=missing_prefix,
        total_prefix=total_prefix,
    )


class TestMeasureOracle:
    """The slab measurer packs its perfect tables in array passes over
    the sorted live ids and recomputes only dirty ranks; every sample
    it reports must equal the object-level recomputation, under every
    kind of membership change, on both samplers."""

    SCHEDULES = {
        "churn": lambda: [Churn(rate=0.05)],
        "catastrophe": lambda: [CatastrophicFailure(at_cycle=5, fraction=0.5)],
        "massive-join": lambda: [MassiveJoin(at_cycle=5, count=40)],
        "spawn-only": lambda: [_SpawnOnly(count=3)],
    }

    @pytest.mark.parametrize("sampler", ["oracle", "newscast"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_every_sample_matches_reference_tables(self, schedule, sampler):
        sim = VectorBootstrapSimulation(
            40,
            seed=17,
            config=FAST,
            network=NetworkModel(drop_probability=0.1),
            sampler=sampler,
        )
        schedules = self.SCHEDULES[schedule]()
        for cycle in range(16):
            for entry in schedules:
                entry.apply(sim, cycle)
            sim.run_cycle()
            assert sim.measure() == oracle_sample(sim), f"cycle {cycle}"

    def test_forced_wave_samples_match_reference_tables(self):
        """A wave far above the ``n // 16`` default, under churn on a
        reliable network."""
        sim = VectorBootstrapSimulation(48, seed=23, config=FAST, wave=12)
        churn = Churn(rate=0.1)
        for cycle in range(14):
            churn.apply(sim, cycle)
            sim.run_cycle()
            assert sim.measure() == oracle_sample(sim), f"cycle {cycle}"

    def test_measure_after_mutation_rebuilds_reference(self):
        sim = VectorBootstrapSimulation(16, config=FAST, seed=3)
        sim.run_cycle()
        victim = sim.live_ids[0]
        sim.kill_node(victim)
        sample = sim.measure()
        assert victim not in sim.reference
        assert (sample.total_leaf, sample.total_prefix) == (
            sim.reference.totals()
        )

    def test_engine_never_builds_reference_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the vector engine built ReferenceTables")

        monkeypatch.setattr(ReferenceTables, "__init__", refuse)
        sim = VectorBootstrapSimulation(24, seed=5, config=FAST)
        result = sim.run(
            8, stop_when_perfect=False, schedules=[Churn(rate=0.1)]
        )
        assert len(result.samples) == 8


class TestArenaLifecycle:
    def test_churn_recycles_freed_ranks(self):
        """Sustained kill/spawn churn must not leak ranks: the arena's
        rank count stays pinned at the live population, dead ranks
        cycling through the free list instead of growing the slabs."""
        sim = VectorBootstrapSimulation(24, seed=5, config=FAST)
        arena = sim._ops.arena
        sim.run(10, stop_when_perfect=False)
        assert arena.n_ranks == 24
        for _ in range(30):
            sim.kill_node(sim.live_ids[0])
            sim.spawn_node()
            sim.run_cycle()
        assert arena.n_ranks == 24
        assert arena.free == []
        assert len(sim.nodes) == 24
        # The recycled ranks' tables are live, consistent state.
        for state in sim.nodes.values():
            leaf = state.leaf
            assert np.all(leaf[1:] > leaf[:-1])
            counts = np.bincount(
                state.prefix_slots, minlength=state.slot_count.size
            )
            assert np.array_equal(counts, state.slot_count)
        sim.measure()

    def test_population_growth_doubles_slabs(self):
        """Spawning past the initial capacity doubles every slab while
        preserving existing node state bit-for-bit."""
        sim = VectorBootstrapSimulation(16, seed=7, config=FAST)
        arena = sim._ops.arena
        assert arena.capacity == 16
        sim.run(8, stop_when_perfect=False)
        before = snapshot(sim)
        survivors = list(before)
        for _ in range(40):
            sim.spawn_node()
        assert arena.capacity >= 56
        after = snapshot(sim)
        assert {nid: after[nid] for nid in survivors} == before
        sim.run(8, stop_when_perfect=False)
        assert len(sim.nodes) == 56
        sim.measure()

    def test_varpool_relocation_and_compaction(self):
        """Window rewrites relocate with headroom; a full buffer
        compacts without corrupting any other rank's window."""
        from repro.engine_vector.arena import _VarPool

        pool = _VarPool(4, np.uint64, 2)
        assert pool.buf.size == 64
        rows = {
            0: np.arange(100, 130, dtype=np.uint64),
            1: np.arange(200, 230, dtype=np.uint64),
        }
        pool.write(0, rows[0], 4)
        # Second write overflows the 64-item buffer -> compaction.
        pool.write(1, rows[1], 4)
        assert pool.view(0).tolist() == rows[0].tolist()
        assert pool.view(1).tolist() == rows[1].tolist()
        # Growing rewrite relocates rank 0; rank 1 must survive.
        rows[0] = np.arange(300, 350, dtype=np.uint64)
        pool.write(0, rows[0], 4)
        assert pool.view(0).tolist() == rows[0].tolist()
        assert pool.view(1).tolist() == rows[1].tolist()
        # Shrinking rewrite stays in place (capacity is retained).
        offset = int(pool.off[0])
        rows[0] = np.arange(400, 410, dtype=np.uint64)
        pool.write(0, rows[0], 4)
        assert int(pool.off[0]) == offset
        assert pool.view(0).tolist() == rows[0].tolist()
        # Released windows read back empty and their space is
        # reclaimed by the next compaction.
        pool.release(1)
        assert pool.view(1).size == 0
        rows[2] = np.arange(500, 560, dtype=np.uint64)
        pool.write(2, rows[2], 4)
        assert pool.view(2).tolist() == rows[2].tolist()
        assert pool.view(0).tolist() == rows[0].tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_varpool_random_ops_keep_every_window(self, seed):
        """Random single and batched writes (fitting, growing,
        shrinking, empty) and releases, on a pool small enough to
        compact every few steps: after each step every rank reads back
        its last write, and the in-use windows stay disjoint inside
        the buffer."""
        from repro.engine_vector.arena import _VarPool

        rng = np.random.default_rng(seed)
        n_ranks = 12
        pool = _VarPool(n_ranks, np.uint64, 1)
        model = {rank: [] for rank in range(n_ranks)}
        compactions = 0
        for step in range(400):
            before = pool.buf
            op = rng.integers(3)
            if op == 0:
                rank = int(rng.integers(n_ranks))
                row = rng.integers(0, 1 << 63, size=rng.integers(0, 40))
                pool.write(rank, row.astype(np.uint64), n_ranks)
                model[rank] = row.tolist()
            elif op == 1:
                ranks = rng.permutation(n_ranks)[: rng.integers(1, n_ranks)]
                lens = rng.integers(0, 40, size=ranks.size)
                flat = rng.integers(0, 1 << 63, size=int(lens.sum()))
                pool.write_many(ranks, flat.astype(np.uint64), lens, n_ranks)
                lo = 0
                for rank, length in zip(ranks.tolist(), lens.tolist(), strict=True):
                    model[rank] = flat[lo:lo + length].tolist()
                    lo += length
            else:
                rank = int(rng.integers(n_ranks))
                pool.release(rank)
                model[rank] = []
            compactions += pool.buf is not before
            spans = []
            for rank, row in model.items():
                assert pool.view(rank).tolist() == row, (step, rank)
                assert int(pool.len[rank]) == len(row)
                assert len(row) <= int(pool.cap[rank])
                if pool.cap[rank]:
                    spans.append((int(pool.off[rank]), int(pool.cap[rank])))
            spans.sort()
            for (o1, c1), (o2, _) in zip(spans, spans[1:], strict=False):
                assert o1 + c1 <= o2
            assert not spans or spans[-1][0] + spans[-1][1] <= pool.tail
            assert pool.tail <= pool.buf.size
        # The walk really compacted, many times over.
        assert compactions > 10

    def test_empty_population_cycles(self):
        """Killing every node leaves a recoverable arena: cycles over
        the empty population are no-ops, every rank sits on the free
        list, and a respawned population runs normally.  (Measuring an
        empty population raises on every engine -- reference tables
        need at least one identifier -- so that contract is pinned
        here rather than a zero sample.)"""
        sim = VectorBootstrapSimulation(8, seed=11, config=FAST)
        sim.run(5, stop_when_perfect=False)
        for node_id in list(sim.live_ids):
            sim.kill_node(node_id)
        assert sim.live_ids == []
        sim.run_cycle()
        with pytest.raises(ValueError, match="at least one identifier"):
            sim.measure()
        arena = sim._ops.arena
        assert sorted(arena.free) == list(range(8))
        for _ in range(4):
            sim.spawn_node()
        sim.run_cycle()
        sim.measure()
        assert len(sim.nodes) == 4


def _converged(size: int, seed: int) -> VectorBootstrapSimulation:
    """A static paper-config run measured to perfect tables."""
    sim = VectorBootstrapSimulation(size, seed=seed)
    assert sim.run(40).converged_at is not None
    return sim


class TestBatchedStartDirtiesTheDeficit:
    """Node handles cannot write; the chunk start writes the arena's
    columns for many ranks at once and must still reach the next
    measurement: a stale cached deficit would both misreport the sample
    and make the node look settled."""

    def test_start_clears_occupancy(self):
        sim = _converged(64, 3)
        ops = sim._ops
        states = list(sim.nodes.values())[:3]
        ranks = np.array([state.rank for state in states])
        assert ops.settled_ranks()[ranks].all()
        # Seeded with their own leaf ids, the leaf rows stay as they
        # are: only the prefix tables are cleared.
        leaves = [state.leaf.copy() for state in states]
        lens = np.array([leaf.size for leaf in leaves])
        rows = np.zeros((len(states), int(lens.max())), dtype=np.uint64)
        for row, leaf in zip(rows, leaves, strict=True):
            row[: leaf.size] = leaf
        ops.start_chunk(states, (rows, lens))
        for state, leaf in zip(states, leaves, strict=True):
            assert state.leaf.tolist() == leaf.tolist()
            assert state.prefix_ids.size == state.prefix_slots.size == 0
            assert not state.slot_count.any()
        assert ops.arena.stats_dirty[ranks].all()
        assert not ops.settled_ranks()[ranks].any()
        sample = sim.measure()
        assert sample.missing_leaf == 0 and sample.missing_prefix > 0
        assert sample == oracle_sample(sim)


class _KernelSpy:
    """Counts the jobs of every ``create_wave_flat`` call and the calls
    to ``absorb_wave_flat`` and ``settled_ranks`` on *sim*'s ops."""

    def __init__(self, sim) -> None:
        self.jobs: list[int] = []
        self.absorbs = self.queries = 0
        ops = sim._ops
        create, absorb, settled = (
            ops.create_wave_flat, ops.absorb_wave_flat, ops.settled_ranks
        )

        def create_spy(jobs, universe, samples):
            self.jobs.append(len(jobs))
            return create(jobs, universe, samples)

        def absorb_spy(wave, specs, universe):
            self.absorbs += 1
            return absorb(wave, specs, universe)

        def settled_spy():
            self.queries += 1
            return settled()

        ops.create_wave_flat = create_spy
        ops.absorb_wave_flat = absorb_spy
        ops.settled_ranks = settled_spy

    def built(self) -> int:
        """Messages built since the last call."""
        total = sum(self.jobs)
        self.jobs.clear()
        return total


class TestSettledReceivers:
    def test_settled_cycles_call_no_kernel(self):
        sim = _converged(128, 5)
        spy = _KernelSpy(sim)
        before = sim.run(1, stop_when_perfect=False).transport["sent"]
        assert spy.built() == 0 and spy.absorbs == 0
        result = sim.run(3, stop_when_perfect=False)
        assert spy.built() == 0 and spy.absorbs == 0
        assert spy.queries == 4
        # Skipped messages are still sent: 2 per node and cycle.
        assert result.transport["sent"] - before == 3 * 2 * 128
        assert result.samples[-1].is_perfect

    def test_unmeasured_network_skips_nothing(self):
        sim = VectorBootstrapSimulation(128, seed=5)
        spy = _KernelSpy(sim)
        for _ in range(6):
            sim.run_cycle()
            assert spy.built() == 2 * 128

    def test_spawn_builds_every_message_next_cycle(self):
        sim = _converged(128, 5)
        spy = _KernelSpy(sim)
        sim.run_cycle()
        sim.measure()
        assert spy.built() == 0
        sim.spawn_node()
        sim.run_cycle()
        assert spy.built() == 2 * 129
        # Measured again, the settled nodes the joiner left alone skip.
        sim.measure()
        sim.run_cycle()
        assert spy.built() < 2 * 129

    def test_no_skip_after_a_kill(self):
        sim = _converged(128, 5)
        spy = _KernelSpy(sim)
        sim.kill_node(sim.live_ids[0])
        queries = spy.queries
        stats = sim._boot.stats
        for _ in range(8):
            exchanges, voids = stats.exchanges, stats.void_requests
            sim.run_cycle()
            sim.measure()
            live_targets = (stats.exchanges - exchanges) - (
                stats.void_requests - voids
            )
            assert spy.built() == 2 * live_targets
        assert spy.queries == queries


#: ``result.transport`` drop accounting of one lossy churn run per
#: sampler, recorded from a cycle that built every message whatever
#: its drop coins said: equal values show that building only absorbed
#: messages leaves the accounting alone.
LOSSY_TRANSPORT = {
    "newscast": {"requests_dropped": 166, "replies_dropped": 131, "suppressed_replies": 320},
    "oracle": {"requests_dropped": 178, "replies_dropped": 125, "suppressed_replies": 304},
}


class TestEveryBuiltMessageIsAbsorbed:
    """The cycle reads the drop coins before it builds: a lost request
    builds neither message and a lost reply builds no reply, so each
    wave's jobs and absorb specs pair one to one, while the transport
    accounting still covers every exchange."""

    @pytest.mark.parametrize("sampler", sorted(LOSSY_TRANSPORT))
    def test_each_job_is_absorbed_once(self, sampler):
        sim = VectorBootstrapSimulation(
            96,
            seed=29,
            network=NetworkModel(drop_probability=0.2),
            sampler=sampler,
        )
        waves: list[list] = []
        ops = sim._ops
        create, absorb = ops.create_wave_flat, ops.absorb_wave_flat

        def create_spy(jobs, universe, samples):
            waves.append([len(jobs), None])
            return create(jobs, universe, samples)

        def absorb_spy(wave, specs, universe):
            waves[-1][1] = sorted(index for _, index, _ in specs)
            return absorb(wave, specs, universe)

        ops.create_wave_flat = create_spy
        ops.absorb_wave_flat = absorb_spy
        result = sim.run(10, stop_when_perfect=False, schedules=[Churn(rate=0.05)])
        assert len(waves) > 10
        for jobs, absorbed in waves:
            assert absorbed == list(range(jobs))
        transport = result.transport
        assert {key: transport[key] for key in LOSSY_TRANSPORT[sampler]} == (
            LOSSY_TRANSPORT[sampler]
        )
        # Churn kills from the first cycle, so no receiver is settled:
        # every delivered message, and only those, was built.
        assert sum(jobs for jobs, _ in waves) == transport["delivered"]


class TestNewscastReplay:
    """The NEWSCAST view rows against one dict-backed view per node,
    exchange by exchange (``tests/replay.py``)."""

    @pytest.mark.parametrize("drop", [0.0, 0.2])
    @pytest.mark.parametrize("schedule", ["churn", "catastrophe", "massive-join"])
    def test_views_equal_the_dict_views(self, schedule, drop):
        size, schedules = DIGEST_SCHEDULES[schedule]
        sim = VectorBootstrapSimulation(
            size,
            seed=29,
            network=NetworkModel(drop_probability=drop),
            sampler="newscast",
        )
        replay = NewscastReplay(sim)
        sim.run(14, stop_when_perfect=False, schedules=schedules())
        assert replay.merges and replay.samples
        if schedule == "massive-join":
            assert replay.seeded == 60
        if schedule == "churn":
            # Kill -> spawn recycled ranks, each re-seeded and checked.
            assert replay.recycled > 0

    def test_partial_samples_and_protocol_replay_together(self):
        """``cr`` below the view length: every bootstrap sample is a
        partial Fisher-Yates walk over the view, and the message
        replay runs beside the view replay."""
        sim = VectorBootstrapSimulation(
            48,
            seed=13,
            config=FAST,
            network=NetworkModel(drop_probability=0.2),
            sampler="newscast",
        )
        views = NewscastReplay(sim)
        messages = ExchangeReplay(sim)
        sim.run(12, stop_when_perfect=False, schedules=[Churn(rate=0.05)])
        messages.check_all()
        assert views.samples and views.recycled and messages.messages
        assert FAST.random_samples < sim._newscast_view_size
