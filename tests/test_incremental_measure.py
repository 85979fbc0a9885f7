"""The exact trackers' incremental measure against a cold recompute.

:class:`~repro.core.convergence.ConvergenceTracker` and
:class:`~repro.engine_fast.FastConvergenceTracker` recompute a node's
deficit only when its tables changed since its last measurement (the
reference keys the cache by the leaf-set and prefix-table objects and
their ``version``; the fast engine by ``FastNodeState.version``).
After every cycle of each scenario below, the simulation's cached
tracker must give the same sample and the same settled ids, in the
same order, as a tracker built fresh over the same reference and
nodes.
"""

from __future__ import annotations

import pytest

from repro.core import ConvergenceTracker
from repro.engine_fast import FastBootstrapSimulation, FastConvergenceTracker
from repro.simulator import BootstrapSimulation, NetworkModel

ENGINES = {"reference": BootstrapSimulation, "fast": FastBootstrapSimulation}

N = 64

LOSSY_NEWSCAST = dict(
    sampler="newscast", network=NetworkModel(drop_probability=0.2)
)


def _cold(sim):
    """A tracker with an empty cache over *sim*'s reference and nodes."""
    if isinstance(sim, BootstrapSimulation):
        return ConvergenceTracker(sim.reference, sim.nodes.values())
    return FastConvergenceTracker(
        sim.reference, sim.nodes.values(), sim.config.space.digit_bits
    )


class _Recomputes:
    """Counts the per-node deficit recomputes of *sim*'s tracker."""

    def __init__(self, sim, monkeypatch) -> None:
        self.count = 0
        tracker = sim.tracker
        deficit = tracker._deficit

        def counted(node):
            self.count += 1
            return deficit(node)

        monkeypatch.setattr(tracker, "_deficit", counted)


def _measure_and_check(sim) -> None:
    sample = sim.measure()
    settled = [node.node_id for node in sim.tracker.settled]
    cold = _cold(sim)
    assert cold.measure(sample.cycle) == sample
    assert [node.node_id for node in cold.settled] == settled


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestMatchesColdRecompute:
    def test_lossy_newscast_run(self, engine, monkeypatch):
        sim = ENGINES[engine](N, seed=3, **LOSSY_NEWSCAST)
        recomputes = _Recomputes(sim, monkeypatch)
        for _ in range(14):
            sim.run_cycle()
            _measure_and_check(sim)
        assert sim.tracker.samples[-1].is_perfect
        # The cache was read: fewer recomputes than node-measurements.
        assert 0 < recomputes.count < 14 * N

    def test_kill_and_spawn(self, engine):
        sim = ENGINES[engine](N, seed=4, **LOSSY_NEWSCAST)
        for cycle in range(16):
            if cycle in (3, 9):
                sim.kill_node(sim.live_ids[cycle])
            if cycle in (5, 9, 11):
                sim.spawn_node()
            sim.run_cycle()
            _measure_and_check(sim)
            if cycle == 12:
                # A kill between measures, with nothing run after it.
                sim.kill_node(sim.live_ids[-1])
                _measure_and_check(sim)
        assert sim.population == N  # three kills, three spawns


class TestReferenceOutsideWrites:
    """Writes the reference engine allows from outside its cycles."""

    def test_restart(self):
        sim = BootstrapSimulation(N, seed=5)
        for cycle in range(14):
            sim.run_cycle()
            _measure_and_check(sim)
            if cycle in (4, 8):
                for node in list(sim.nodes.values())[: N // 4]:
                    node.restart()
                _measure_and_check(sim)
        assert sim.tracker.samples[-1].is_perfect

    def test_restart_of_a_node_measured_perfect(self):
        sim = BootstrapSimulation(N, seed=5)
        assert sim.run(40).converged
        node = next(iter(sim.nodes.values()))
        node.restart()
        _measure_and_check(sim)
        assert node not in sim.tracker.settled

    def test_leaf_remove_and_prefix_forget(self):
        sim = BootstrapSimulation(N, seed=6, **LOSSY_NEWSCAST)
        nodes = list(sim.nodes.values())
        for cycle in range(14):
            sim.run_cycle()
            _measure_and_check(sim)
            node = nodes[cycle % N]
            leaf = next(iter(node.leaf_set), None)
            if leaf is not None:
                assert node.leaf_set.remove(leaf.node_id)
                _measure_and_check(sim)
            entry = next(iter(node.prefix_table.member_ids()), None)
            if entry is not None:
                assert node.prefix_table.forget(entry)
                _measure_and_check(sim)

    def test_leaf_remove_on_a_settled_node(self):
        """Only the leaf-set stamp moves: the prefix table is intact."""
        sim = BootstrapSimulation(N, seed=5)
        assert sim.run(40).converged
        node = sim.tracker.settled[0]
        prefix_version = node.prefix_table.version
        assert node.leaf_set.remove(next(iter(node.leaf_set)).node_id)
        assert node.prefix_table.version == prefix_version
        _measure_and_check(sim)
        assert not sim.tracker.samples[-1].is_perfect
