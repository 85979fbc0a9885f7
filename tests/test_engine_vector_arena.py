"""The pool-resident arena state layout: bit-identity and lifecycle.

The arena (``repro.engine_vector.arena``) re-homes the numpy leg's
per-node ``_ArrayState`` arrays into population-wide SoA slabs; the
``ArenaState`` handle exposes the identical attribute surface, so every
transition kernel runs unchanged on either layout.  That construction
makes bit-identity a *testable* claim rather than a hope, and this
module pins it:

* the differential suite runs the same seeds under
  ``state="arena"`` and ``state="pernode"`` across sizes x drops x
  samplers x churn/growth schedules x absorb modes and requires the
  full observable trajectory -- every table, every measurement, the
  final transport counters -- to be **equal**, not statistically close;
* the sample suite runs churn, catastrophe, massive join and
  spawn-only growth on both samplers and requires every
  ``ConvergenceSample`` to be equal -- the arena leg's perfect tables
  come from the array packer, the pernode leg's from
  ``ReferenceTables``, so this is an end-to-end oracle test of the
  packer -- and pins that the arena leg never builds
  ``ReferenceTables`` at all;
* the lifecycle suite exercises the arena's memory management edges:
  freed-rank recycling under churn, slab doubling when the population
  outgrows the initial capacity, variable-length window relocation and
  pool compaction, and empty-population cycles;
* the seam suite pins ``REPRO_VECTOR_STATE`` resolution (default,
  environment, constructor override, rejection) and the fallback leg's
  indifference to the layout choice.
"""

from __future__ import annotations

import pytest

from repro import engine_vector
from repro.core import BootstrapConfig, ReferenceTables
from repro.engine_vector import STATE_MODES, VectorBootstrapSimulation, state_mode
from repro.engine_vector.sim import _ArenaOps, _PythonOps
from repro.simulator import NetworkModel
from repro.simulator.failures import CatastrophicFailure, Churn, MassiveJoin

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


@pytest.fixture
def numpy_backend():
    """Pin the numpy leg (the arena is numpy-only)."""
    if engine_vector.backend() != "numpy":
        pytest.skip("numpy not installed")
    engine_vector.set_backend("numpy")
    yield
    engine_vector.set_backend("auto")


def snapshot(sim):
    """Normalised table content per node (layout-agnostic)."""
    nodes = {}
    for node_id, state in sim.nodes.items():
        nodes[node_id] = (
            state.leaf.tolist(),
            sorted(
                zip(
                    state.prefix_ids.tolist(),
                    state.prefix_slots.tolist(),
                    strict=True,
                )
            ),
        )
    return nodes


class TestArenaPernodeBitIdentity:
    """The tentpole contract: same seed, same trajectory, to the bit.

    Both layouts drive the same kernels over the same RNG stream; the
    only thing allowed to differ is where the bytes live.  Any
    divergence in a table, a measurement, or a transport counter is an
    arena bug by definition."""

    CONFIGS = [
        dict(size=48, drop=0.0, sampler="oracle", events="none",
             absorb="batch"),
        dict(size=40, drop=0.2, sampler="oracle", events="churn",
             absorb="batch"),
        dict(size=40, drop=0.1, sampler="newscast", events="churn",
             absorb="batch"),
        dict(size=48, drop=0.0, sampler="oracle", events="churn",
             absorb="single"),
        dict(size=32, drop=0.0, sampler="oracle", events="growth",
             absorb="batch"),
        dict(size=64, drop=0.0, sampler="oracle", events="none",
             absorb="batch", wave=8),
    ]

    def _trace(self, state, *, size, drop, sampler, events, absorb,
               wave=None, seed=21, cycles=25):
        sim = VectorBootstrapSimulation(
            size,
            seed=seed,
            config=FAST,
            network=NetworkModel(drop_probability=drop),
            sampler=sampler,
            wave=wave,
            absorb=absorb,
            state=state,
        )
        assert sim.state_mode == state
        snaps = []
        for cycle in range(cycles):
            if events == "churn" and cycle == 8:
                sim.kill_node(sim.live_ids[0])
                sim.spawn_node()
            if events == "growth" and cycle == 6:
                # Outgrow the initial arena capacity (== the starting
                # population), forcing a slab doubling mid-run.
                sim.kill_node(sim.live_ids[0])
                for _ in range(size // 2):
                    sim.spawn_node()
            sim.run_cycle()
            if cycle % 5 == 4:
                snaps.append((snapshot(sim), sim.measure()))
        snaps.append(sim._boot.stats.snapshot())
        return snaps

    @pytest.mark.parametrize(
        "config", CONFIGS,
        ids=lambda c: f"n{c['size']}-d{c['drop']}-{c['sampler']}"
            f"-{c['events']}-{c['absorb']}"
            + (f"-w{c['wave']}" if c.get("wave") else ""),
    )
    def test_arena_equals_pernode(self, config, numpy_backend):
        assert self._trace("arena", **config) == (
            self._trace("pernode", **config)
        )


class _SpawnOnly:
    """Spawn-only growth: *count* joins every cycle, nobody leaves."""

    def __init__(self, count: int) -> None:
        self.count = count

    def apply(self, sim, cycle: int) -> None:
        for _ in range(self.count):
            sim.spawn_node()


class TestSamplesUnderMembershipChange:
    """Sample-level oracle for the arena leg's perfect-table packer.

    The arena leg derives perfect tables and totals from one array
    pass over the sorted live ids; the pernode leg still asks
    ``ReferenceTables`` per node.  Under every kind of membership
    change, on both samplers, every ``ConvergenceSample`` must be
    equal."""

    SCHEDULES = {
        "churn": lambda: [Churn(rate=0.05)],
        "catastrophe": lambda: [CatastrophicFailure(at_cycle=5, fraction=0.5)],
        "massive-join": lambda: [MassiveJoin(at_cycle=5, count=40)],
        "spawn-only": lambda: [_SpawnOnly(count=3)],
    }

    @pytest.mark.parametrize("sampler", ["oracle", "newscast"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_arena_samples_equal_pernode(self, schedule, sampler,
                                         numpy_backend):
        def samples(state):
            sim = VectorBootstrapSimulation(
                40,
                seed=17,
                config=FAST,
                network=NetworkModel(drop_probability=0.1),
                sampler=sampler,
                state=state,
            )
            result = sim.run(
                16,
                stop_when_perfect=False,
                schedules=self.SCHEDULES[schedule](),
            )
            return result.samples

        arena_samples = samples("arena")
        assert len(arena_samples) == 16
        assert arena_samples == samples("pernode")

    @pytest.mark.parametrize("state", STATE_MODES)
    def test_measure_after_mutation_rebuilds_reference(self, state,
                                                       numpy_backend):
        sim = VectorBootstrapSimulation(16, config=FAST, seed=3, state=state)
        sim.run_cycle()
        victim = sim.live_ids[0]
        sim.kill_node(victim)
        sample = sim.measure()
        assert victim not in sim.reference
        assert (sample.total_leaf, sample.total_prefix) == (
            sim.reference.totals()
        )

    def test_arena_leg_never_builds_reference_tables(self, monkeypatch,
                                                     numpy_backend):
        def refuse(*args, **kwargs):
            raise AssertionError("the arena leg built ReferenceTables")

        monkeypatch.setattr(ReferenceTables, "__init__", refuse)
        sim = VectorBootstrapSimulation(24, seed=5, config=FAST)
        result = sim.run(
            8, stop_when_perfect=False, schedules=[Churn(rate=0.1)]
        )
        assert len(result.samples) == 8


class TestStateSeam:
    def test_state_modes_catalogued(self):
        assert STATE_MODES == ("arena", "pernode")

    def test_default_is_arena(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTOR_STATE", raising=False)
        assert state_mode() == "arena"

    def test_env_selects_pernode(self, monkeypatch, numpy_backend):
        monkeypatch.setenv("REPRO_VECTOR_STATE", "pernode")
        sim = VectorBootstrapSimulation(16, seed=3, config=FAST)
        assert sim.state_mode == "pernode"
        assert not isinstance(sim._ops, _ArenaOps)

    def test_constructor_overrides_env(self, monkeypatch, numpy_backend):
        monkeypatch.setenv("REPRO_VECTOR_STATE", "pernode")
        sim = VectorBootstrapSimulation(16, seed=3, config=FAST, state="arena")
        assert sim.state_mode == "arena"
        assert isinstance(sim._ops, _ArenaOps)

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_STATE", "slab")
        with pytest.raises(ValueError, match="state mode"):
            state_mode()
        with pytest.raises(ValueError, match="state mode"):
            VectorBootstrapSimulation(16, seed=3, config=FAST, state="soa")

    def test_python_leg_records_but_ignores_layout(self):
        engine_vector.set_backend("python")
        try:
            sim = VectorBootstrapSimulation(
                16, seed=3, config=FAST, state="arena"
            )
            assert sim.state_mode == "arena"
            assert isinstance(sim._ops, _PythonOps)
        finally:
            engine_vector.set_backend("auto")


class TestArenaLifecycle:
    def test_churn_recycles_freed_ranks(self, numpy_backend):
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
        import numpy as np

        for state in sim.nodes.values():
            leaf = state.leaf
            assert np.all(leaf[1:] > leaf[:-1])
            counts = np.bincount(
                state.prefix_slots, minlength=state.slot_count.size
            )
            assert np.array_equal(counts, state.slot_count)
        sim.measure()

    def test_population_growth_doubles_slabs(self, numpy_backend):
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

    def test_varpool_relocation_and_compaction(self, numpy_backend):
        """Window rewrites relocate with headroom; a full buffer
        compacts without corrupting any other rank's window."""
        import numpy as np

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

    def test_empty_population_cycles(self, numpy_backend):
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
