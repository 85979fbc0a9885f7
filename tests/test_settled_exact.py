"""Settled receivers in the exact engines (reference and fast).

In a static network, a node whose tables were perfect at the last
``measure()`` is a fixed point of UPDATELEAFSET + UPDATEPREFIXTABLE,
so both exact engines build no message addressed to it and absorb
nothing there (module docstrings of :mod:`repro.simulator.bootstrap_sim`
and :mod:`repro.engine_fast.sim`).  These tests spy on the build and
absorb entry points to pin when the skip happens and when it must
not, and pin the trajectory digest that the skip must leave alone.
The vector engine's twin is ``TestSettledReceivers`` in
``tests/test_engine_vector_arena.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.ablations import UnoptimizedCloseNode
from repro.core import BootstrapMessage
from repro.engine_fast import FastBootstrapSimulation
from repro.service import BootstrappingService
from repro.simulator import BootstrapSimulation, NetworkModel

ENGINES = {"reference": BootstrapSimulation, "fast": FastBootstrapSimulation}

N = 64


class _Spy:
    """Counts CREATEMESSAGE builds and absorbs on one simulation."""

    def __init__(self, sim, monkeypatch) -> None:
        self.builds = 0
        self.absorbs = 0
        if isinstance(sim, BootstrapSimulation):
            owner = type(next(iter(sim.nodes.values())))
            build, absorb = "create_message", "absorb"
        else:
            owner, build, absorb = sim, "_create_message", "_absorb"
        monkeypatch.setattr(owner, build, self._counted(getattr(owner, build), "builds"))
        monkeypatch.setattr(owner, absorb, self._counted(getattr(owner, absorb), "absorbs"))

    def _counted(self, method, counter: str):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return method(*args, **kwargs)

        return wrapper

    def take(self) -> tuple[int, int]:
        """``(builds, absorbs)`` since the last call."""
        counts = (self.builds, self.absorbs)
        self.builds = self.absorbs = 0
        return counts


def _converged(engine: str, size: int = N, seed: int = 5, **kwargs):
    sim = ENGINES[engine](size, seed=seed, **kwargs)
    assert sim.run(40).converged
    return sim


def _stats(sim):
    return sim.engine.stats if isinstance(sim, BootstrapSimulation) else sim._boot.stats


def _absorb_everyone(sim, node_id: int) -> None:
    """Apply one message carrying every other live id to *node_id*."""
    others = [nid for nid in sim.live_ids if nid != node_id]
    if isinstance(sim, BootstrapSimulation):
        descriptors = tuple(sim.nodes[nid].descriptor for nid in others)
        sim.nodes[node_id].absorb(
            BootstrapMessage(sender=descriptors[0], descriptors=descriptors)
        )
    else:
        sim._absorb(sim.nodes[node_id], (others, [], []), others[0])


def _digest(result) -> str:
    rows = repr([sample.as_row() for sample in result.samples])
    return hashlib.sha256(rows.encode()).hexdigest()


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestSettledReceivers:
    def test_settled_cycles_build_and_absorb_nothing(self, engine, monkeypatch):
        sim = _converged(engine)
        spy = _Spy(sim, monkeypatch)
        before = _stats(sim).snapshot()["sent"]
        result = sim.run(3, stop_when_perfect=False)
        assert spy.take() == (0, 0)
        # Skipped messages are still sent: 2 per node and cycle.
        assert result.transport["sent"] - before == 3 * 2 * N
        assert result.samples[-1].is_perfect

    def test_unmeasured_run_builds_every_message(self, engine, monkeypatch):
        sim = ENGINES[engine](N, seed=5)
        spy = _Spy(sim, monkeypatch)
        for _ in range(8):
            sim.run_cycle()
            assert spy.take() == (2 * N, 2 * N)

    def test_no_skip_after_a_kill(self, engine, monkeypatch):
        sim = _converged(engine)
        spy = _Spy(sim, monkeypatch)
        sim.kill_node(sim.live_ids[0])
        stats = _stats(sim)
        for _ in range(6):
            exchanges, voids = stats.exchanges, stats.void_requests
            sim.run_cycle()
            sim.measure()
            answered = (stats.exchanges - exchanges) - (stats.void_requests - voids)
            # Every request is built; every answered exchange builds a
            # reply and absorbs both messages (reliable network).
            assert spy.take() == (
                stats.exchanges - exchanges + answered,
                2 * answered,
            )

    def test_spawn_builds_every_message_next_cycle(self, engine, monkeypatch):
        sim = _converged(engine)
        spy = _Spy(sim, monkeypatch)
        sim.run_cycle()
        sim.measure()
        assert spy.take() == (0, 0)
        sim.spawn_node()
        sim.run_cycle()
        assert spy.take() == (2 * (N + 1), 2 * (N + 1))
        # Measured again, the settled nodes the joiner left alone skip.
        sim.measure()
        sim.run_cycle()
        assert spy.take()[0] < 2 * (N + 1)

    def test_unstarted_node_is_never_settled(self, engine):
        """A joiner handed perfect tables before its first activation
        is perfect at the measurement but not settled: its start clears
        the prefix table, which only absorbing can refill."""
        sim = _converged(engine)
        joiner = sim.spawn_node()
        sim.measure()
        _absorb_everyone(sim, joiner.node_id)
        sim.measure()
        assert joiner in sim.tracker.settled
        assert joiner.node_id not in sim._settled
        assert sim.run(10).converged

    def test_skip_leaves_the_trajectory_alone(self, engine):
        """A lossy NEWSCAST run measured every cycle equals the same
        run measured only at its end, where nothing is ever skipped."""
        kwargs = dict(sampler="newscast", network=NetworkModel(drop_probability=0.2))
        skipping = ENGINES[engine](N, seed=9, **kwargs)
        settled = 0
        for _ in range(12):
            measured = skipping.run(1, stop_when_perfect=False)
            settled = max(settled, len(skipping.tracker.settled))
        assert settled > 0 and measured.samples[-1].is_perfect
        building = ENGINES[engine](N, seed=9, **kwargs)
        for _ in range(11):
            building.run_cycle()
        unmeasured = building.run(1, stop_when_perfect=False)
        assert unmeasured.samples[-1] == measured.samples[-1]
        assert unmeasured.transport == measured.transport


class TestReferenceOnlyGates:
    def test_ablation_node_never_skips(self, monkeypatch):
        sim = BootstrapSimulation(N, seed=5, node_factory=UnoptimizedCloseNode)
        spy = _Spy(sim, monkeypatch)
        settled = 0
        for _ in range(10):
            sim.run_cycle()
            assert spy.take() == (2 * N, 2 * N)
            sim.measure()
            settled = max(settled, len(sim.tracker.settled))
        # Perfect nodes existed, and were still sent full messages.
        assert settled > 0

    def test_outside_write_unsettles_the_node(self, monkeypatch):
        """An eviction from outside the engine (the maintenance
        layer's kind of write) makes the node absorb again, which
        restores its perfect tables."""
        sim = _converged("reference")
        spy = _Spy(sim, monkeypatch)
        node = next(iter(sim.nodes.values()))
        victim = next(iter(node.leaf_set)).node_id
        assert node.leaf_set.remove(victim)
        sim.run_cycle()
        assert spy.take() != (0, 0)
        for _ in range(10):
            if sim.measure().is_perfect:
                break
            sim.run_cycle()
        assert victim in node.leaf_set

    def test_rebootstrap_matches_a_pool_never_measured(self):
        """``service.rebootstrap`` restarts every node of a converged
        pool; none may stay settled on its old stamp, so the rerun
        equals the rerun of a pool that was never measured."""
        service = BootstrappingService()
        converged = service.bootstrap(N, seed=5)
        assert converged.converged
        cycles = converged.simulation.cycle
        rerun = service.rebootstrap(converged).result

        pool = BootstrapSimulation(N, seed=5)
        for _ in range(cycles):
            pool.run_cycle()
        for node in pool.nodes.values():
            node.restart()
        fresh = pool.run(60)
        assert rerun.samples[-len(fresh.samples):] == fresh.samples
        assert rerun.converged_at == fresh.converged_at
        assert rerun.transport == fresh.transport


class TestDigestPin:
    """The spot-check digest of the verify recipe, on both engines:
    perfection comes at cycle 6, so 14 of the 20 cycles skip."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_digest(self, engine):
        result = ENGINES[engine](512, seed=7).run(20, stop_when_perfect=False)
        assert result.converged_at == 6
        assert _digest(result).startswith("f2f3cf787cf8a8c1")
