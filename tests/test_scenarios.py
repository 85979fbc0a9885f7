"""Tests for the declarative scenario layer.

Three load-bearing properties:

* **registry completeness** -- every registered scenario builds
  (expands to a consistent shard list), survives a JSON round-trip
  with an identical expansion, and actually runs at smoke size with
  every axis preserved;
* **determinism** -- scenario execution is byte-identical for any
  worker count, on the columnar transport;
* **rescaling** -- :meth:`ScenarioSpec.smoke` / :meth:`with_grid`
  preserve the declarative shape (axes survive, overrides validate).
"""

from __future__ import annotations

import json

import pytest

from repro.core import BootstrapConfig
from repro.runtime import ScheduleSpec, SweepGrid
from repro.scenarios import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register,
    render_scenario_report,
    run_scenario,
    scenario_names,
)

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)

#: The families the CI smoke and this suite must always cover.
REQUIRED_SCENARIOS = (
    "figure3",
    "figure4",
    "churn",
    "drop_analysis",
    "catastrophe",
    "massive_join",
    "newscast",
    "engines_shootout",
    "scalability",
    "paper_scale",
)


#: Scenarios whose engine axis includes ``vector``, which needs numpy
#: (the ``fast`` extra); on a bare install they are skipped.
NEEDS_NUMPY = ("engines_shootout", "paper_scale")
try:
    import numpy  # noqa: F401
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the vector engine needs numpy"
)


def tiny(name: str) -> ScenarioSpec:
    """A seconds-scale variant of a registry scenario for this suite."""
    return get_scenario(name).smoke(max_size=32, max_cycles=12)


class TestRegistry:
    def test_required_scenarios_registered(self):
        names = scenario_names()
        for required in REQUIRED_SCENARIOS:
            assert required in names, f"{required} missing from registry"

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="figure3"):
            get_scenario("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get_scenario("figure3"))

    @pytest.mark.parametrize(
        "spec", all_scenarios(), ids=[s.name for s in all_scenarios()]
    )
    def test_every_scenario_builds_and_round_trips(self, spec):
        shards = spec.grid.expand()
        assert len(shards) == len(spec.grid) > 0
        # Shard indices are dense and ordered (the merge contract).
        assert [s.shard for s in shards] == list(range(len(shards)))
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.name == spec.name
        assert clone.analyses == spec.analyses
        assert clone.claim == spec.claim
        assert clone.grid.expand() == shards, (
            f"{spec.name}: JSON round-trip changed the expansion"
        )

    @pytest.mark.parametrize(
        "spec", all_scenarios(), ids=[s.name for s in all_scenarios()]
    )
    def test_every_scenario_smoke_runs(self, spec):
        if spec.name in NEEDS_NUMPY and not HAVE_NUMPY:
            pytest.skip("the vector engine needs numpy")
        smoke = spec.smoke(max_size=32, max_cycles=12)
        # The rescaling preserves every axis...
        assert smoke.grid.sampler_axis == spec.grid.sampler_axis
        assert smoke.grid.engine_axis == spec.grid.engine_axis
        assert len(smoke.grid.schedule_axis) == len(spec.grid.schedule_axis)
        # ...and the run produces one column per shard plus a report
        # covering the scenario's selected analyses.
        result = run_scenario(smoke)
        assert len(result.columns) == len(smoke.grid)
        report = render_scenario_report(result)
        assert smoke.name in report
        assert "claim:" in report


class TestScenarioSpec:
    def test_analyses_validated(self):
        grid = SweepGrid(sizes=(16,), config=FAST)
        with pytest.raises(ValueError, match="unknown analysis"):
            ScenarioSpec(
                name="x", title="", claim="", grid=grid,
                analyses=("haruspicy",),
            )
        with pytest.raises(ValueError, match="at least one analysis"):
            ScenarioSpec(
                name="x", title="", claim="", grid=grid, analyses=(),
            )

    def test_with_grid_overrides_and_validates(self):
        spec = get_scenario("figure3").with_grid(
            sizes=(16, 24), replicas=(2, 1), engine="fast"
        )
        assert spec.grid.sizes == (16, 24)
        assert spec.grid.engine_axis == ("fast",)
        with pytest.raises(ValueError):
            get_scenario("engines_shootout").with_grid(engine="fast")

    def test_smoke_clamps_join_bursts(self):
        smoke = get_scenario("join_burst").smoke(max_size=32)
        counts = [
            dict(spec.params)["count"]
            for schedule_set in smoke.grid.schedule_axis
            for spec in schedule_set
        ]
        assert counts and all(count <= 16 for count in counts)

    def test_smoke_dedupes_clamped_sizes(self):
        smoke = get_scenario("scalability").smoke(max_size=64)
        assert smoke.grid.sizes == (64,)
        assert isinstance(smoke.grid.replicas, int)


class TestRunScenario:
    @needs_numpy
    def test_accepts_name_and_spec(self):
        by_name = run_scenario("engines_shootout", smoke=True)
        by_spec = run_scenario(get_scenario("engines_shootout").smoke())
        assert json.dumps(
            by_name.aggregate.to_dict(), sort_keys=True
        ) == json.dumps(by_spec.aggregate.to_dict(), sort_keys=True)

    def test_workers_byte_identical(self):
        spec = ScenarioSpec(
            name="determinism",
            title="worker equivalence probe",
            claim="",
            grid=SweepGrid(
                sizes=(24,),
                replicas=2,
                base_seed=11,
                max_cycles=20,
                config=FAST,
                engines=("reference", "fast"),
                schedule_sets=((), (ScheduleSpec.of("churn", rate=0.05),)),
            ),
            analyses=("convergence", "quality"),
        )
        sequential = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=4)
        assert json.dumps(
            sequential.aggregate.to_dict(), sort_keys=True
        ) == json.dumps(parallel.aggregate.to_dict(), sort_keys=True)

    @needs_numpy
    def test_columns_for_filters(self):
        result = run_scenario(tiny("engines_shootout"))
        fast = result.columns_for(engine="fast")
        assert fast and all(run.engine == "fast" for run in fast)
        assert result.columns_for(engine="fast", size=32) == fast
        assert result.columns_for(engine="event") == []

    @needs_numpy
    def test_report_sections_follow_analyses(self):
        result = run_scenario(tiny("churn"))
        report = render_scenario_report(result)
        assert "table quality" in report
        assert "cycles to perfect tables" not in report
        shootout = render_scenario_report(
            run_scenario(tiny("engines_shootout"))
        )
        assert "cycles to perfect tables" in shootout
        assert "cycles per CPU-second" in shootout
