"""The simulation shell every cycle engine shares.

:class:`~repro.simulator.bootstrap_sim.CycleSimulation` owns the
argument checks, the identifier derivation, the membership surface and
the experiment loop of all three engines, so one contract holds for
each of them.  Every test here runs on every entry of
``ENGINE_KINDS``; the vector cases skip without numpy.
"""

from __future__ import annotations

import pytest

from repro.core import BootstrapConfig
from repro.simulator import ENGINE_KINDS, BootstrapSimulation
from repro.simulator.bootstrap_sim import SAMPLER_KINDS

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


def _engine_class(kind: str):
    if kind == "fast":
        from repro.engine_fast import FastBootstrapSimulation

        return FastBootstrapSimulation
    if kind == "vector":
        pytest.importorskip("numpy")
        from repro.engine_vector import VectorBootstrapSimulation

        return VectorBootstrapSimulation
    return BootstrapSimulation


@pytest.fixture(params=ENGINE_KINDS)
def engine(request):
    """The simulation class of one engine kind."""
    return _engine_class(request.param)


class TestArguments:
    def test_constructor_rejects_bad_arguments(self, engine):
        with pytest.raises(ValueError, match="size >= 2"):
            engine(1, config=FAST)
        with pytest.raises(ValueError, match="size >= 2"):
            engine(config=FAST)
        with pytest.raises(ValueError, match="duplicates"):
            engine(ids=[1, 1, 2], config=FAST)
        with pytest.raises(ValueError, match="outside"):
            engine(ids=[1, FAST.space.size], config=FAST)
        with pytest.raises(ValueError, match="at least 2"):
            engine(ids=[1], config=FAST)
        with pytest.raises(ValueError, match="sampler"):
            engine(16, config=FAST, sampler="psychic")

    def test_run_rejects_empty_budget_and_period(self, engine):
        sim = engine(16, config=FAST)
        with pytest.raises(ValueError, match="max_cycles"):
            sim.run(0)
        with pytest.raises(ValueError, match="measure_every"):
            sim.run(5, measure_every=0)
        assert sim.cycle == 0


class TestMembership:
    @pytest.mark.parametrize("sampler", SAMPLER_KINDS)
    def test_rejected_spawn_admits_nothing(self, engine, sampler):
        sim = engine(16, config=FAST, seed=3, sampler=sampler)
        live = sim.live_ids
        for bad in (1 << 70, FAST.space.size, -1):
            with pytest.raises(ValueError, match="outside"):
                sim.spawn_node(bad)
        with pytest.raises(ValueError, match="already live"):
            sim.spawn_node(live[0])
        assert len(sim.registry) == sim.population == 16
        assert sim.live_ids == live
        result = sim.run(3, stop_when_perfect=False)
        assert result.cycles_run == 3
        assert result.population == 16

    def test_absorb_pool_returns_the_new_nodes(self, engine):
        sim = engine(ids=[10, 20, 30], config=FAST)
        new_nodes = sim.absorb_pool([300, 100, 200])
        assert [node.node_id for node in new_nodes] == [300, 100, 200]
        assert sim.population == 6
        assert sim.live_ids == [10, 20, 30, 300, 100, 200]
        assert len(sim.registry) == 6

    def test_spawned_ids_come_from_the_seed_tree(self, engine):
        sim = engine(16, config=FAST, seed=4)
        spawned = [sim.spawn_node().node_id for _ in range(3)]
        twin = BootstrapSimulation(16, config=FAST, seed=4)
        assert sim.live_ids[:16] == twin.live_ids
        assert spawned == [twin.spawn_node().node_id for _ in range(3)]


class TestResult:
    def test_result_names_the_engine(self, engine):
        sim = engine(16, config=FAST, seed=2)
        assert sim.run(2, stop_when_perfect=False).engine == sim.engine_name

    def test_converged_at_ignores_earlier_runs(self, engine):
        sim = engine(32, config=FAST, seed=1)
        first = sim.run(40)
        assert first.converged
        started = sim.cycle
        second = sim.run(3, stop_when_perfect=False)
        assert second.started_at_cycle == started
        assert second.cycles_run == 3
        # The earlier perfect samples stay in the history, but this
        # run's convergence is its own first perfect measurement.
        assert second.samples[: len(first.samples)] == first.samples
        assert second.converged_at == started + 1
        assert second.cycles_to_converge == 1
