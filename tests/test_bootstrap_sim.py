"""Integration tests for the cycle-driven bootstrap simulation."""

from __future__ import annotations

import pytest

from repro import BootstrapSimulation, PAPER_LOSSY
from repro.core import BootstrapConfig


FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


class TestConstruction:
    def test_requires_size_or_ids(self):
        with pytest.raises(ValueError):
            BootstrapSimulation()
        with pytest.raises(ValueError):
            BootstrapSimulation(1)

    def test_explicit_ids(self):
        sim = BootstrapSimulation(ids=[10, 20, 30], config=FAST)
        assert sim.population == 3
        assert set(sim.live_ids) == {10, 20, 30}

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            BootstrapSimulation(ids=[1, 1, 2], config=FAST)

    def test_rejects_invalid_ids(self):
        with pytest.raises(ValueError):
            BootstrapSimulation(ids=[1, 2**64], config=FAST)

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValueError):
            BootstrapSimulation(8, sampler="psychic", config=FAST)

    def test_population_registered_everywhere(self):
        sim = BootstrapSimulation(16, config=FAST, seed=3)
        assert sim.population == 16
        assert len(sim.registry) == 16
        assert sim.engine.population == 16


class TestConvergence:
    def test_converges_small(self):
        result = BootstrapSimulation(48, config=FAST, seed=1).run(30)
        assert result.converged
        assert result.final_sample.is_perfect
        assert result.converged_at <= 15

    def test_decay_is_monotone_ish(self):
        """Missing fractions must trend strongly downward (reliable
        network, static membership)."""
        result = BootstrapSimulation(64, config=FAST, seed=2).run(30)
        leaf = [s.leaf_fraction for s in result.samples]
        assert leaf[0] > leaf[-1]
        assert all(
            later <= earlier * 1.5 + 1e-9
            for earlier, later in zip(leaf, leaf[1:], strict=False)
        )

    def test_deterministic_given_seed(self):
        r1 = BootstrapSimulation(32, config=FAST, seed=9).run(30)
        r2 = BootstrapSimulation(32, config=FAST, seed=9).run(30)
        assert r1.converged_at == r2.converged_at
        assert [s.missing_leaf for s in r1.samples] == [
            s.missing_leaf for s in r2.samples
        ]
        assert r1.transport == r2.transport

    def test_different_seeds_differ(self):
        r1 = BootstrapSimulation(32, config=FAST, seed=1).run(30)
        r2 = BootstrapSimulation(32, config=FAST, seed=2).run(30)
        assert [s.missing_leaf for s in r1.samples] != [
            s.missing_leaf for s in r2.samples
        ]

    def test_newscast_sampler_converges(self):
        result = BootstrapSimulation(
            48, config=FAST, seed=4, sampler="newscast"
        ).run(40)
        assert result.converged

    def test_lossy_converges_slower(self):
        reliable = BootstrapSimulation(48, config=FAST, seed=5).run(60)
        lossy = BootstrapSimulation(
            48, config=FAST, seed=5, network=PAPER_LOSSY
        ).run(60)
        assert reliable.converged and lossy.converged
        assert lossy.converged_at >= reliable.converged_at

    def test_loss_accounting_matches_paper(self):
        result = BootstrapSimulation(
            64, config=FAST, seed=6, network=PAPER_LOSSY
        ).run(60)
        transport = result.transport
        assert transport["overall_loss_fraction"] == pytest.approx(
            0.28, abs=0.04
        )
        assert transport["wire_loss_fraction"] == pytest.approx(
            0.20, abs=0.03
        )

    def test_messages_per_node_per_cycle_about_two(self):
        result = BootstrapSimulation(48, config=FAST, seed=7).run(30)
        assert result.messages_per_node_per_cycle() == pytest.approx(
            2.0, abs=0.1
        )

    def test_budget_respected_without_convergence(self):
        result = BootstrapSimulation(48, config=FAST, seed=8).run(
            2, stop_when_perfect=False
        )
        assert result.cycles_run == 2
        assert len(result.samples) == 2

    def test_measure_every(self):
        result = BootstrapSimulation(32, config=FAST, seed=8).run(
            10, stop_when_perfect=False, measure_every=2
        )
        assert [s.cycle for s in result.samples] == [2, 4, 6, 8, 10]


class TestMembershipMutation:
    def test_kill_node(self):
        sim = BootstrapSimulation(16, config=FAST, seed=3)
        victim = sim.live_ids[0]
        assert sim.kill_node(victim)
        assert not sim.kill_node(victim)
        assert sim.population == 15
        assert victim not in sim.registry
        assert sim.engine.get_actor(victim) is None

    def test_spawn_node(self):
        sim = BootstrapSimulation(16, config=FAST, seed=3)
        node = sim.spawn_node()
        assert sim.population == 17
        assert node.node_id in sim.registry

    def test_spawn_with_explicit_id(self):
        sim = BootstrapSimulation(ids=[10, 20], config=FAST)
        sim.spawn_node(30)
        assert 30 in sim.registry
        with pytest.raises(ValueError):
            sim.spawn_node(30)

    def test_measure_after_mutation_rebuilds_reference(self):
        sim = BootstrapSimulation(16, config=FAST, seed=3)
        sim.run_cycle()
        victim = sim.live_ids[0]
        sim.kill_node(victim)
        sample = sim.measure()
        assert victim not in sim.reference
        assert sample.total_leaf == sim.reference.totals()[0]

    def test_absorb_pool(self):
        sim = BootstrapSimulation(ids=[10, 20, 30], config=FAST)
        new_nodes = sim.absorb_pool([100, 200])
        assert sim.population == 5
        assert {n.node_id for n in new_nodes} == {100, 200}

    def test_catastrophe_without_restart_plateaus(self):
        """The protocol has no eviction: after a massive failure, dead
        entries permanently occupy leaf-set slots, so perfection against
        the survivor set is unreachable without a restart.  This is why
        the paper's architecture re-bootstraps from scratch instead of
        repairing."""
        sim = BootstrapSimulation(48, config=FAST, seed=13)
        for _ in range(3):
            sim.run_cycle()
        import random as _random

        rng = _random.Random(0)
        for victim in rng.sample(sim.live_ids, 24):
            sim.kill_node(victim)
        result = sim.run(25)
        assert not result.converged
        assert result.final_sample.missing_leaf > 0

    def test_catastrophe_recovery_via_restart(self):
        """The paper's recovery story: survivors re-run the bootstrap
        from scratch over the (still functional) sampling layer and
        converge to the survivors' perfect tables."""
        sim = BootstrapSimulation(48, config=FAST, seed=13)
        for _ in range(3):
            sim.run_cycle()
        import random as _random

        rng = _random.Random(0)
        for victim in rng.sample(sim.live_ids, 24):
            sim.kill_node(victim)
        for node in sim.nodes.values():
            node.restart()
        result = sim.run(40)
        assert result.converged

    def test_newscast_mode_kill_and_spawn(self):
        sim = BootstrapSimulation(
            24, config=FAST, seed=3, sampler="newscast"
        )
        victim = sim.live_ids[0]
        sim.kill_node(victim)
        assert victim not in sim.newscast
        node = sim.spawn_node()
        assert node.node_id in sim.newscast
        assert len(sim.newscast[node.node_id].view) > 0
