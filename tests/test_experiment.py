"""Tests for declarative experiment specs and repeat running."""

from __future__ import annotations

import pytest

from repro import ExperimentSpec, run_experiment, run_repeats
from repro.core import BootstrapConfig
from repro.simulator import NetworkModel, paper_repeat_counts

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


class TestSpec:
    def test_defaults(self):
        spec = ExperimentSpec(size=32)
        assert spec.size == 32
        assert spec.network.drop_probability == 0.0
        assert spec.sampler == "oracle"

    def test_with_seed(self):
        spec = ExperimentSpec(size=32, seed=1)
        assert spec.with_seed(2).seed == 2
        assert spec.seed == 1

    def test_describe(self):
        spec = ExperimentSpec(
            size=32, network=NetworkModel(drop_probability=0.2), config=FAST
        )
        desc = spec.describe()
        assert desc["size"] == 32
        assert desc["drop"] == 0.2
        assert desc["c"] == 8

    @pytest.mark.parametrize("size", [8.7, 32.0, True, "32", None])
    def test_non_integer_size_is_rejected(self, size):
        # 8.7 used to build a 9-node network on every engine.
        with pytest.raises(ValueError, match="size must be an integer"):
            ExperimentSpec(size=size)

    def test_small_size_is_left_to_the_run(self):
        spec = ExperimentSpec(size=1, config=FAST)
        with pytest.raises(ValueError, match="size >= 2"):
            run_experiment(spec)

    @pytest.mark.parametrize("field", ["max_cycles", "measure_every"])
    @pytest.mark.parametrize("value", [0, -3, 2.0, True])
    def test_cycle_counts_are_checked_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            ExperimentSpec(size=32, **{field: value})


class TestRunning:
    def test_run_experiment(self):
        spec = ExperimentSpec(size=32, seed=5, config=FAST, max_cycles=30)
        result = run_experiment(spec)
        assert result.converged
        assert result.population == 32

    def test_run_repeats_independent(self):
        spec = ExperimentSpec(size=24, seed=5, config=FAST, max_cycles=30)
        results = run_repeats(spec, 3)
        assert len(results) == 3
        seeds = {r.seed for r in results}
        assert len(seeds) == 3  # each repeat re-seeded
        assert all(r.converged for r in results)

    def test_run_repeats_deterministic(self):
        spec = ExperimentSpec(size=24, seed=5, config=FAST, max_cycles=30)
        a = run_repeats(spec, 2)
        b = run_repeats(spec, 2)
        assert [r.converged_at for r in a] == [r.converged_at for r in b]

    def test_run_repeats_validates(self):
        spec = ExperimentSpec(size=24, config=FAST)
        with pytest.raises(ValueError):
            run_repeats(spec, 0)

    def test_schedules_factory_fresh_per_repeat(self):
        from repro import MassiveJoin

        spec = ExperimentSpec(size=16, seed=5, config=FAST, max_cycles=25)
        results = run_repeats(
            spec, 2, schedules_factory=lambda: [MassiveJoin(1, 4)]
        )
        assert all(r.population == 20 for r in results)


class TestRepeatPolicy:
    def test_paper_scaling(self):
        """Repeats shrink with size, mirroring the paper's 50/10/4."""
        base = paper_repeat_counts(1024, budget=50)
        mid = paper_repeat_counts(4096, budget=50)
        big = paper_repeat_counts(16384, budget=50)
        assert base == 50
        assert mid == 12
        assert big == 3
        assert base > mid > big >= 1

    def test_minimum_one(self):
        assert paper_repeat_counts(10**9, budget=50) == 1
