"""Differential harness: the array-backed engine versus the reference.

The fast engine's contract is *bit-identical trajectories*: for any
``(seed, size, network, sampler, schedules)`` both engines must produce
the same convergence samples, the same transport counters, and the same
membership -- not approximately, exactly.  These tests enforce the
contract across every experiment axis (size x drop x sampler x failure
schedule) and on both kernel backends (numpy and the pure-Python
fallback), plus the kernel-level equivalences against the reference
``repro.core`` implementations that the engine's correctness argument
leans on.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.core import BootstrapConfig, IDSpace
from repro.core.leafset import select_balanced_ids
from repro.engine_fast import FastBootstrapSimulation, FastRegistry, kernels
from repro.runtime import (
    RunSpec,
    ScheduleSpec,
    SweepGrid,
    SweepRunner,
    execute_run,
    merge_columns,
)
from repro.sampling.oracle import MembershipRegistry
from repro.simulator import (
    ENGINE_KINDS,
    BootstrapSimulation,
    ExperimentSpec,
    NetworkModel,
    build_simulation,
)

from .conftest import make_descriptor

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Run the decorated test under each kernel backend."""
    if request.param == "numpy" and kernels.backend() != "numpy":
        pytest.skip("numpy not installed")
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend("auto")


def run_both(spec: ExperimentSpec, schedules=()):
    """Execute *spec* on both engines and assert identical results."""
    ref = execute_run(
        RunSpec(experiment=spec.with_engine("reference"), schedules=schedules)
    ).result
    fast = execute_run(
        RunSpec(experiment=spec.with_engine("fast"), schedules=schedules)
    ).result
    assert ref.engine == "reference" and fast.engine == "fast"
    assert fast.samples == ref.samples
    assert fast.converged_at == ref.converged_at
    assert fast.transport == ref.transport
    assert fast.population == ref.population
    assert fast.cycles_run == ref.cycles_run
    return ref, fast


class TestTrajectoryIdentity:
    """The headline contract, axis by axis."""

    @pytest.mark.parametrize("size", [24, 48])
    @pytest.mark.parametrize("drop", [0.0, 0.25])
    def test_size_by_drop(self, size, drop, backend):
        run_both(
            ExperimentSpec(
                size=size,
                seed=5,
                config=FAST,
                network=NetworkModel(drop_probability=drop),
                max_cycles=40,
            )
        )

    @pytest.mark.parametrize("drop", [0.0, 0.2])
    def test_newscast_sampler(self, drop, backend):
        run_both(
            ExperimentSpec(
                size=32,
                seed=7,
                config=FAST,
                network=NetworkModel(drop_probability=drop),
                sampler="newscast",
                max_cycles=40,
            )
        )

    @pytest.mark.parametrize(
        "schedule",
        [
            ScheduleSpec.of("churn", rate=0.05),
            ScheduleSpec.of("catastrophe", at_cycle=3, fraction=0.4),
            ScheduleSpec.of("massive_join", at_cycle=2, count=16),
        ],
        ids=lambda s: s.kind,
    )
    def test_failure_schedules(self, schedule, backend):
        run_both(
            ExperimentSpec(
                size=48,
                seed=11,
                config=FAST,
                network=NetworkModel(drop_probability=0.2),
                max_cycles=25,
                stop_when_perfect=False,
            ),
            schedules=(schedule,),
        )

    def test_churn_under_newscast(self):
        run_both(
            ExperimentSpec(
                size=48,
                seed=13,
                config=FAST,
                network=NetworkModel(drop_probability=0.2),
                sampler="newscast",
                max_cycles=25,
                stop_when_perfect=False,
            ),
            schedules=(ScheduleSpec.of("churn", rate=0.05),),
        )

    def test_explicit_ids_and_measure_every(self):
        rng = random.Random(3)
        ids = [rng.getrandbits(64) for _ in range(24)]
        ref = BootstrapSimulation(ids=ids, config=FAST, seed=9)
        fast = FastBootstrapSimulation(ids=ids, config=FAST, seed=9)
        r = ref.run(30, measure_every=3)
        f = fast.run(30, measure_every=3)
        assert f.samples == r.samples
        assert f.transport == r.transport

    def test_membership_mutation_api(self):
        """kill/spawn/absorb_pool mirror the reference bit-for-bit."""
        ref = BootstrapSimulation(32, config=FAST, seed=21)
        fast = FastBootstrapSimulation(32, config=FAST, seed=21)
        ref.run(3, stop_when_perfect=False)
        fast.run(3, stop_when_perfect=False)
        victims = ref.live_ids[:5]
        assert fast.live_ids == ref.live_ids
        for nid in victims:
            assert ref.kill_node(nid) and fast.kill_node(nid)
        assert not ref.kill_node(victims[0])
        assert not fast.kill_node(victims[0])
        spawned_ref = ref.spawn_node()
        spawned_fast = fast.spawn_node()
        assert spawned_fast.node_id == spawned_ref.node_id
        ref.absorb_pool([1, 2, 3])
        fast.absorb_pool([1, 2, 3])
        r = ref.run(25, stop_when_perfect=False)
        f = fast.run(25, stop_when_perfect=False)
        assert f.samples == r.samples
        assert f.population == r.population


class TestSweepParity:
    """The engine seam at the runtime layer: a whole grid's merged
    statistics are byte-identical across engines (and workers)."""

    def grid(self, engine: str) -> SweepGrid:
        return SweepGrid(
            sizes=(24, 32),
            drop_rates=(0.0, 0.2),
            replicas=2,
            base_seed=9,
            max_cycles=40,
            config=FAST,
            engine=engine,
        )

    def test_merged_aggregates_identical(self):
        ref = merge_columns(SweepRunner(workers=1).run_grid_columns(self.grid("reference")))
        fast = merge_columns(SweepRunner(workers=1).run_grid_columns(self.grid("fast")))
        assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
            fast.to_dict(), sort_keys=True
        )

    def test_fast_engine_parallel_workers(self):
        sequential = merge_columns(
            SweepRunner(workers=1).run_grid_columns(self.grid("fast"))
        )
        parallel = merge_columns(
            SweepRunner(workers=4).run_grid_columns(self.grid("fast"))
        )
        assert json.dumps(sequential.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_run_spec_engine_property(self):
        spec = self.grid("fast").expand()[0]
        assert spec.engine == "fast"


class TestEngineSeam:
    """Selection and validation of the engine parameter."""

    def test_engine_kinds(self):
        assert set(ENGINE_KINDS) == {"reference", "fast", "vector"}

    def test_build_simulation_dispatch(self):
        ref = build_simulation(ExperimentSpec(size=16, config=FAST))
        fast = build_simulation(
            ExperimentSpec(size=16, config=FAST, engine="fast")
        )
        assert isinstance(ref, BootstrapSimulation)
        assert isinstance(fast, FastBootstrapSimulation)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec(size=16, engine="warp")
        with pytest.raises(ValueError, match="engine"):
            SweepGrid(sizes=(16,), engine="warp")

    def test_describe_includes_engine(self):
        assert ExperimentSpec(size=16, engine="fast").describe()["engine"] == "fast"

    def test_result_records_engine(self):
        spec = ExperimentSpec(size=16, config=FAST, max_cycles=20)
        assert execute_run(RunSpec(experiment=spec)).result.engine == "reference"
        assert (
            execute_run(
                RunSpec(experiment=spec.with_engine("fast"))
            ).result.engine
            == "fast"
        )


class TestKernels:
    """Kernel outputs equal the reference ``repro.core`` computations."""

    @pytest.fixture(params=[IDSpace(), IDSpace(bits=16, digit_bits=2)],
                    ids=["64bit", "16bit"])
    def any_space(self, request):
        return request.param

    def ids_in(self, space: IDSpace, n: int, seed: int):
        rng = random.Random(seed)
        return space.random_unique_ids(n, rng)

    @pytest.mark.parametrize("n", [0, 1, 7, 40, 300])
    def test_rank_ids_matches_idspace_sort(self, any_space, n, backend):
        ids = self.ids_in(any_space, n, 50 + n)
        origin = random.Random(1).getrandbits(any_space.bits)
        assert kernels.rank_ids(ids, origin, any_space.size - 1) == (
            any_space.sort_by_ring_distance(origin, ids)
        )

    @pytest.mark.parametrize("n", [0, 1, 9, 40, 300])
    @pytest.mark.parametrize("half_capacity", [1, 4, 10])
    def test_select_balanced_matches_core(
        self, any_space, n, half_capacity, backend
    ):
        ids = self.ids_in(any_space, n, 80 + n)
        origin = random.Random(2).getrandbits(any_space.bits)
        ids = [i for i in ids if i != origin]
        assert kernels.select_balanced(
            ids, origin, any_space.size - 1, any_space.half, half_capacity
        ) == select_balanced_ids(any_space, origin, ids, half_capacity)

    @pytest.mark.parametrize("n", [0, 1, 25, 300])
    def test_close_and_rest_is_a_partition(self, any_space, n, backend):
        ids = self.ids_in(any_space, n, 7 + n)
        origin = random.Random(4).getrandbits(any_space.bits)
        ids = [i for i in ids if i != origin]
        mask = any_space.size - 1
        close, rest = kernels.close_and_rest(
            ids, origin, mask, any_space.half, 4
        )
        ranked = kernels.rank_ids(ids, origin, mask)
        assert sorted(close + rest) == sorted(ids)
        chosen = select_balanced_ids(any_space, origin, ids, 4)
        assert close == [i for i in ranked if i in chosen]
        assert rest == [i for i in ranked if i not in chosen]

    @pytest.mark.parametrize("n", [0, 1, 30, 400])
    def test_prefix_slots_match_idspace(self, any_space, n, backend):
        ids = self.ids_in(any_space, n, 11 + n)
        origin = random.Random(5).getrandbits(any_space.bits)
        ids = [i for i in ids if i != origin]
        slots = kernels.prefix_slots(
            ids,
            origin,
            any_space.bits,
            any_space.digit_bits,
            any_space.digit_base - 1,
        )
        expected = [
            (row << any_space.digit_bits) | col
            for row, col in (any_space.prefix_slot(origin, i) for i in ids)
        ]
        assert slots == expected

    @pytest.mark.parametrize("n", [0, 1, 30, 400])
    @pytest.mark.parametrize("k", [1, 3])
    def test_prefix_part_caps_first_k_per_slot(self, any_space, n, k, backend):
        ids = self.ids_in(any_space, n, 23 + n)
        origin = random.Random(6).getrandbits(any_space.bits)
        ids = [i for i in ids if i != origin]
        kept, kept_slots = kernels.prefix_part(
            ids,
            origin,
            any_space.bits,
            any_space.digit_bits,
            any_space.digit_base - 1,
            k,
        )
        # Oracle: walk in order, keep first k per slot.
        occupancy = {}
        expected = []
        for nid in ids:
            slot = any_space.prefix_slot(origin, nid)
            if occupancy.get(slot, 0) < k:
                occupancy[slot] = occupancy.get(slot, 0) + 1
                expected.append(nid)
        assert kept == expected
        assert kept_slots == kernels.prefix_slots(
            kept,
            origin,
            any_space.bits,
            any_space.digit_bits,
            any_space.digit_base - 1,
        )

    def test_backend_selection(self):
        assert kernels.backend() in ("numpy", "python")
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")
        kernels.set_backend("python")
        assert kernels.backend() == "python"
        kernels.set_backend("auto")

    def test_set_backend_auto_restores_session_default(self, monkeypatch):
        """'auto' restores the import-time REPRO_FAST_BACKEND pin, not
        a hardcoded preference (an operator pin must survive tests that
        force-and-reset a backend)."""
        monkeypatch.setattr(kernels, "_DEFAULT_BACKEND", "python")
        try:
            kernels.set_backend("python")
            kernels.set_backend("auto")
            assert kernels.backend() == "python"
        finally:
            monkeypatch.undo()
            kernels.set_backend("auto")


class TestFastRegistry:
    """The id-only registry replays the reference registry's sampling."""

    def test_mirrors_reference_sampling(self):
        ref = MembershipRegistry()
        fast = FastRegistry()
        rng = random.Random(17)
        ids = [rng.getrandbits(64) for _ in range(60)]
        for nid in ids:
            assert ref.add(make_descriptor(nid)) == fast.add(nid)
        assert not fast.add(ids[0])
        for nid in ids[10:30]:
            assert ref.remove(nid) == fast.remove(nid)
        assert not fast.remove(ids[10])
        assert len(ref) == len(fast) == 40
        r1, r2 = random.Random(99), random.Random(99)
        for count in (0, 5, 20, 39, 40, 100):
            got = fast.sample(count, r2, exclude_id=ids[0])
            want = [
                d.node_id
                for d in ref.sample_descriptors(count, r1, exclude_id=ids[0])
            ]
            assert got == want
        # Identical residual RNG state: consumption matched exactly.
        assert r1.random() == r2.random()

    def test_exclusion_edge_cases(self):
        fast = FastRegistry()
        rng = random.Random(1)
        assert fast.sample(5, rng) == []
        fast.add(7)
        assert fast.sample(5, rng, exclude_id=7) == []
        assert fast.sample(5, rng, exclude_id=None) == [7]
        assert 7 in fast and 8 not in fast


class TestResultMetadata:
    def test_simulation_result_engine_default(self):
        spec = ExperimentSpec(size=16, config=FAST, max_cycles=20)
        result = execute_run(RunSpec(experiment=spec)).result
        assert replace(result, engine="fast").engine == "fast"
