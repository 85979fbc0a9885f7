"""Tests for the parallel experiment runtime.

The two load-bearing properties:

* determinism -- the merged statistics of a sweep are byte-identical
  for any worker count under the same base seed;
* failure propagation -- a crashing shard surfaces as a
  :class:`ShardError` naming the shard, for both execution paths.
"""

from __future__ import annotations

import json
import pickle
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from repro.core import BootstrapConfig
from repro.runtime import (
    RunSpec,
    ScheduleSpec,
    ShardError,
    SweepGrid,
    SweepRunner,
    execute_run,
    expand_repeats,
    merge_columns,
    replica_seed,
    throughput_summary,
)
from repro.simulator import ExperimentSpec, run_repeats
from repro.simulator.random_source import derive_seed

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


def fast_grid(**overrides) -> SweepGrid:
    defaults = dict(
        sizes=(24, 32),
        drop_rates=(0.0, 0.2),
        replicas=2,
        base_seed=9,
        max_cycles=40,
        config=FAST,
    )
    defaults.update(overrides)
    return SweepGrid(**defaults)


class TestScheduleSpec:
    def test_builds_fresh_instances(self):
        spec = ScheduleSpec.of("massive_join", at_cycle=1, count=4)
        a = spec.build()
        b = spec.build()
        assert a is not b
        assert a.at_cycle == 1 and a.count == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            ScheduleSpec.of("meteor_strike", at_cycle=1)

    def test_applies_during_run(self):
        run_spec = RunSpec(
            experiment=ExperimentSpec(
                size=16, seed=5, config=FAST, max_cycles=25
            ),
            schedules=(ScheduleSpec.of("massive_join", at_cycle=1, count=4),),
        )
        outcome = execute_run(run_spec)
        assert outcome.result.population == 20


class TestExpansion:
    def test_grid_shards_are_ordered_and_seeded(self):
        grid = fast_grid()
        specs = grid.expand()
        assert len(specs) == len(grid) == 8
        assert [s.shard for s in specs] == list(range(8))
        # Seeds are distinct and a pure function of the coordinates.
        seeds = [s.experiment.seed for s in specs]
        assert len(set(seeds)) == len(seeds)
        assert specs == grid.expand()

    def test_expand_repeats_matches_legacy_derivation(self):
        spec = ExperimentSpec(size=24, seed=5, config=FAST)
        specs = expand_repeats(spec, 3)
        assert [s.experiment.seed for s in specs] == [
            derive_seed(5, ("repeat", index)) for index in range(3)
        ]
        assert replica_seed(5, 1) == derive_seed(5, ("repeat", 1))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fast_grid(sizes=())
        with pytest.raises(ValueError):
            fast_grid(replicas=0)
        with pytest.raises(ValueError):
            expand_repeats(ExperimentSpec(size=24, config=FAST), 0)

    def test_run_spec_is_picklable(self):
        spec = fast_grid(
            schedules=(ScheduleSpec.of("churn", rate=0.01),)
        ).expand()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestDeterminism:
    def test_parallel_merge_byte_identical(self):
        """The acceptance property: workers=4 equals workers=1 to the
        byte on merged statistics for the same base seed."""
        grid = fast_grid()
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=4).run_grid_columns(grid))

        def as_bytes(aggregate):
            return json.dumps(aggregate.to_dict(), sort_keys=True).encode()

        assert as_bytes(sequential) == as_bytes(parallel)

    def test_run_repeats_workers_equivalent(self):
        """``run_repeats`` is in-process; its parallel form is the
        same shard list through the pool, curve for curve."""
        spec = ExperimentSpec(size=24, seed=5, config=FAST, max_cycles=30)
        sequential = run_repeats(spec, 3)
        parallel = SweepRunner(workers=2).run_columns(
            expand_repeats(spec, 3)
        )
        assert [r.converged_at for r in sequential] == [
            r.converged_at for r in parallel
        ]
        assert [r.leaf_series() for r in sequential] == [
            r.leaf_series() for r in parallel
        ]
        assert [r.prefix_series() for r in sequential] == [
            r.prefix_series() for r in parallel
        ]

    def test_results_in_shard_order(self):
        grid = fast_grid(sizes=(32, 24), replicas=1)
        results = SweepRunner(workers=2).run_grid_columns(grid)
        assert [r.shard for r in results] == list(range(len(results)))
        assert [r.size for r in results] == [32, 32, 24, 24]


class TestScheduleSpecParams:
    def test_non_scalar_params_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not a JSON scalar"):
            ScheduleSpec.of("churn", rate=[0.01])
        with pytest.raises(ValueError, match="not a JSON scalar"):
            ScheduleSpec.of(
                "catastrophe", at_cycle=1, fraction=complex(0.5)
            )

    def test_error_names_param_and_type(self):
        with pytest.raises(
            ValueError, match=r"rate=\{.*\}.*churn.*got dict"
        ):
            ScheduleSpec.of("churn", rate={"value": 0.01})

    def test_scalars_and_none_accepted(self):
        spec = ScheduleSpec.of(
            "churn", rate=0.25, start_cycle=1, end_cycle=None
        )
        churn = spec.build()
        assert churn.rate == 0.25 and churn.end_cycle is None

    def test_dict_round_trip(self):
        spec = ScheduleSpec.of("massive_join", at_cycle=2, count=8)
        assert ScheduleSpec.from_dict(spec.to_dict()) == spec


class TestScheduleSpecParse:
    def test_parse_with_params(self):
        spec = ScheduleSpec.parse("churn:rate=0.01,start_cycle=2")
        assert spec.kind == "churn"
        assert dict(spec.params) == {"rate": 0.01, "start_cycle": 2}

    def test_parse_without_params(self):
        assert ScheduleSpec.parse("churn") == ScheduleSpec.of("churn")

    def test_parse_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError, match="catastrophe"):
            ScheduleSpec.parse("meteor_strike:size=1")

    def test_parse_malformed_pair(self):
        with pytest.raises(ValueError, match="kind:key=val"):
            ScheduleSpec.parse("churn:rate")


class TestMultiAxisGrid:
    def axes_grid(self, **overrides) -> SweepGrid:
        defaults = dict(
            sizes=(24,),
            replicas=2,
            base_seed=9,
            max_cycles=15,
            config=FAST,
            samplers=("oracle", "newscast"),
            schedule_sets=((), (ScheduleSpec.of("churn", rate=0.05),)),
            engines=("reference", "fast"),
        )
        defaults.update(overrides)
        return SweepGrid(**defaults)

    def test_cartesian_expansion_order(self):
        """Axis nesting is documented and pinned: size, drop, sampler,
        schedule set, engine, replica -- innermost last."""
        grid = self.axes_grid()
        specs = grid.expand()
        assert len(specs) == len(grid) == 16
        assert [s.shard for s in specs] == list(range(16))
        coords = [
            (s.sampler, s.schedules, s.engine, s.replica) for s in specs
        ]
        expected = [
            (sampler, schedules, engine, replica)
            for sampler in grid.sampler_axis
            for schedules in grid.schedule_axis
            for engine in grid.engine_axis
            for replica in range(2)
        ]
        assert coords == expected
        assert specs == grid.expand()

    def test_variant_axes_share_seeds(self):
        """Paired comparisons: the same (size, drop, replica) keeps
        one seed across every sampler/schedule/engine variant, and the
        seed matches the single-variant legacy grid's."""
        grid = self.axes_grid()
        legacy = SweepGrid(
            sizes=(24,), replicas=2, base_seed=9, max_cycles=15,
            config=FAST,
        )
        legacy_seeds = {
            s.replica: s.experiment.seed for s in legacy.expand()
        }
        for spec in grid.expand():
            assert spec.experiment.seed == legacy_seeds[spec.replica]

    def test_full_cell_coordinate(self):
        spec = self.axes_grid().expand()[-1]
        size, drop, sampler, schedules, engine = spec.cell
        assert (size, drop) == (24, 0.0)
        assert sampler == "newscast" and engine == "fast"
        assert schedules == (ScheduleSpec.of("churn", rate=0.05),)

    def test_every_axis_workers_byte_identical(self):
        """The acceptance property on the full product: workers=4
        equals workers=1 to the byte when samplers, schedule sets, and
        engines are all swept at once."""
        grid = self.axes_grid()
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=4).run_grid_columns(grid))
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )
        assert len(sequential.cells) == 8

    def test_conflicting_axis_spellings_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            fast_grid(sampler="newscast", samplers=("oracle",))
        with pytest.raises(ValueError, match="not both"):
            fast_grid(engine="fast", engines=("vector",))
        with pytest.raises(ValueError, match="not both"):
            fast_grid(
                schedules=(ScheduleSpec.of("churn", rate=0.1),),
                schedule_sets=((),),
            )
        with pytest.raises(ValueError):
            fast_grid(engines=())
        with pytest.raises(ValueError):
            fast_grid(samplers=("psychic",))

    def test_duplicate_sizes_rejected(self):
        """Duplicate sizes would share cell seeds and silently break
        the positional replicas-per-size mapping."""
        with pytest.raises(ValueError, match="distinct"):
            fast_grid(sizes=(24, 24))
        with pytest.raises(ValueError, match="distinct"):
            fast_grid(sizes=(24, 24), replicas=(2, 5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sizes", [0]),
            ("sizes", [-4]),
            ("sizes", [1]),
            ("sizes", [16.5]),
            ("sizes", ["16"]),
            ("sizes", [True]),
            ("drop_rates", [float("nan")]),
            ("drop_rates", [1.0]),
            ("drop_rates", [-0.1]),
            ("drop_rates", ["0.1"]),
            ("max_cycles", -3),
            ("max_cycles", 0),
            ("max_cycles", 2.5),
            ("base_seed", 7.5),
            ("base_seed", "7"),
            ("base_seed", True),
            ("replicas", True),
            ("replicas", [True, 1]),
        ],
    )
    def test_unrunnable_grid_rejected_when_built(self, field, value):
        """A grid whose runs could only fail (or, for a fractional
        size, run as a nonsense network) is refused at build time, not
        as a shard error after the pool has started."""
        document = {**fast_grid().to_dict(), field: value}
        with pytest.raises(ValueError, match=field.replace("_", "[ _]")):
            SweepGrid.from_dict(json.loads(json.dumps(document)))

    def test_per_size_replicas(self):
        grid = fast_grid(
            sizes=(24, 32), drop_rates=(0.0,), replicas=(2, 1)
        )
        assert len(grid) == 3
        assert [s.size for s in grid.expand()] == [24, 24, 32]
        assert grid.replicas_for(24) == 2 and grid.replicas_for(32) == 1
        with pytest.raises(ValueError, match="align with sizes"):
            fast_grid(replicas=(2,))

    def test_grid_dict_round_trip_preserves_expansion(self):
        grid = self.axes_grid(drop_rates=(0.0, 0.2), replicas=(2,))
        clone = SweepGrid.from_dict(
            json.loads(json.dumps(grid.to_dict()))
        )
        assert clone.expand() == grid.expand()
        assert len(clone) == len(grid)

    def test_grid_from_dict_accepts_singular_spellings(self):
        """Hand-authored documents may use the constructor's singular
        field names; they must not silently fall back to defaults."""
        grid = SweepGrid.from_dict(
            {
                "sizes": [24],
                "engine": "vector",
                "sampler": "newscast",
                "schedules": [
                    {"kind": "churn", "params": {"rate": 0.01}}
                ],
            }
        )
        assert grid.engine_axis == ("vector",)
        assert grid.sampler_axis == ("newscast",)
        assert grid.schedule_axis == (
            (ScheduleSpec.of("churn", rate=0.01),),
        )
        with pytest.raises(ValueError, match="not both"):
            SweepGrid.from_dict(
                {"sizes": [24], "engine": "fast", "engines": ["vector"]}
            )

    def test_cell_lookup_error_names_variant_filters(self):
        grid = fast_grid(sizes=(24,), drop_rates=(0.0,), replicas=1)
        aggregate = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        with pytest.raises(KeyError, match="engine='vector'"):
            aggregate.cell(24, 0.0, engine="vector")

    def test_stop_when_perfect_flows_to_experiments(self):
        grid = fast_grid(stop_when_perfect=False)
        assert all(
            not s.experiment.stop_when_perfect for s in grid.expand()
        )


class TestColumnarTransport:
    """The one wire form: what crosses the pool boundary, and what it
    must still be on the other side."""

    def test_columnar_parallel_byte_identical(self):
        grid = fast_grid(schedules=(ScheduleSpec.of("churn", rate=0.05),))
        sequential = merge_columns(
            SweepRunner(workers=1).run_grid_columns(grid)
        )
        parallel = merge_columns(
            SweepRunner(workers=4).run_grid_columns(grid)
        )
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )

    def test_columns_pickle_round_trip(self):
        grid = fast_grid(sizes=(24,), drop_rates=(0.2,), replicas=1)
        (columns,) = SweepRunner(workers=1).run_grid_columns(grid)
        clone = pickle.loads(pickle.dumps(columns))
        assert clone.leaf_series() == columns.leaf_series()
        assert clone.prefix_series() == columns.prefix_series()
        assert clone.transport == columns.transport
        assert clone.cell == columns.cell
        assert clone.converged_at == columns.converged_at

    def test_round_tripped_columns_stay_foldable(self):
        """Transported buffers must behave exactly like fresh ones:
        writable (a buffer rebuilt as a read-only view of the pickled
        bytes would raise on any in-place consumer, only after
        transport) and folding to the same aggregate."""
        grid = fast_grid(sizes=(24,), drop_rates=(0.2,), replicas=2)
        columns = SweepRunner(workers=1).run_grid_columns(grid)
        clones = [pickle.loads(pickle.dumps(run)) for run in columns]
        for clone in clones:
            for buffer in (clone.cycles, clone.leaf, clone.prefix):
                buffer[0] = buffer[0]  # raises on a read-only view
        assert json.dumps(
            merge_columns(clones).to_dict(), sort_keys=True
        ) == json.dumps(
            merge_columns(columns).to_dict(), sort_keys=True
        )

    def test_throughput_summary_accepts_columns(self):
        grid = fast_grid(sizes=(24,), drop_rates=(0.0,), replicas=2)
        columns = SweepRunner(workers=1).run_grid_columns(grid)
        summary = throughput_summary(columns)
        assert summary is not None and summary.mean > 0


class RecordingPool:
    """A real ``ProcessPoolExecutor`` that records its construction
    size and every ``shutdown`` call (the observability hook the
    fail-fast tests need)."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self.shutdown_calls = []
        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def submit(self, fn, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdown_calls.append(
            {"wait": wait, "cancel_futures": cancel_futures}
        )
        self._pool.shutdown(wait, cancel_futures=cancel_futures)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False


class RecordingFactory:
    """Executor factory capturing the pools the runner creates."""

    def __init__(self) -> None:
        self.pools = []

    def __call__(self, max_workers: int) -> RecordingPool:
        pool = RecordingPool(max_workers)
        self.pools.append(pool)
        return pool


class TestFailurePropagation:
    def test_sequential_shard_failure(self):
        bad = RunSpec(
            experiment=ExperimentSpec(size=1, seed=3, config=FAST), shard=7
        )
        with pytest.raises(ShardError, match="shard 7") as excinfo:
            SweepRunner(workers=1).run_columns([bad])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_shard_failure(self):
        good = RunSpec(
            experiment=ExperimentSpec(
                size=16, seed=3, config=FAST, max_cycles=20
            ),
            shard=0,
        )
        bad = RunSpec(
            experiment=ExperimentSpec(size=1, seed=3, config=FAST), shard=1
        )
        with pytest.raises(ShardError, match="shard 1"):
            SweepRunner(workers=2).run_columns([good, bad])

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=-1)

    def test_parallel_failure_provenance_and_prompt_cancellation(self):
        """A real process-pool sweep with one poisoned shard: the
        ShardError names that shard and chains the worker exception,
        and the runner shuts the pool down with ``cancel_futures`` so
        queued shards never start."""
        good = ExperimentSpec(size=16, seed=3, config=FAST, max_cycles=15)
        bad = ExperimentSpec(size=1, seed=3, config=FAST)
        specs = [
            RunSpec(experiment=good, shard=0),
            RunSpec(experiment=bad, shard=1),
        ] + [
            RunSpec(experiment=good.with_seed(10 + i), shard=2 + i)
            for i in range(6)
        ]
        factory = RecordingFactory()
        runner = SweepRunner(workers=2, executor_factory=factory)
        with pytest.raises(ShardError, match="shard 1") as excinfo:
            runner.run_columns(specs)
        assert excinfo.value.spec is specs[1]
        assert isinstance(excinfo.value.__cause__, ValueError)
        (pool,) = factory.pools
        # Fail-fast: the first shutdown is the runner's explicit
        # cancel-everything call, before the context-manager exit.
        assert pool.shutdown_calls[0] == {
            "wait": True, "cancel_futures": True,
        }

    def test_late_failing_shard_surfaces_before_slow_early_shard(self):
        """Error surfacing follows *completion* order: a failing shard
        submitted late raises immediately even while an
        earlier-submitted shard is still running -- collection must
        not sit in ``future.result()`` on the slow healthy one.  The
        fake pool makes this deterministic: shard 0's future never
        resolves at all, so any submission-order collection would
        block forever."""

        class StalledFirstPool:
            """Fake executor: the first submitted future never
            resolves; the last one fails at submit time."""

            def __init__(self, max_workers: int) -> None:
                self.futures = []
                self.shutdown_calls = []

            def submit(self, fn, spec):
                future = Future()
                index = len(self.futures)
                self.futures.append(future)
                if index == 1:
                    future.set_exception(
                        ValueError("poisoned late shard")
                    )
                elif index > 1:
                    future.set_result(None)
                # index 0 stays pending forever: the slow shard.
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.shutdown_calls.append(
                    {"wait": wait, "cancel_futures": cancel_futures}
                )
                if cancel_futures:
                    for future in self.futures:
                        future.cancel()

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.shutdown()
                return False

        spec = ExperimentSpec(size=16, seed=3, config=FAST)
        specs = expand_repeats(spec, 3)
        pools = []

        def factory(max_workers):
            pool = StalledFirstPool(max_workers)
            pools.append(pool)
            return pool

        runner = SweepRunner(workers=3, executor_factory=factory)
        with pytest.raises(ShardError, match="shard 1") as excinfo:
            runner.run_columns(specs)
        assert excinfo.value.spec is specs[1]
        (pool,) = pools
        assert pool.shutdown_calls[0] == {
            "wait": True, "cancel_futures": True,
        }
        # The never-resolved slow shard was cancelled, not awaited.
        assert pool.futures[0].cancelled()

    def test_failing_sink_cancels_queued_shards(self):
        """A sink that raises on the streaming path propagates its own
        exception and cancels every queued shard, exactly like a
        failing shard does."""
        delivered = []

        def sink(columns):
            delivered.append(columns)
            raise RuntimeError("collector rejected the fold")

        factory = RecordingFactory()
        runner = SweepRunner(workers=2, executor_factory=factory)
        with pytest.raises(RuntimeError, match="collector rejected"):
            runner.stream_columns(fast_grid().expand(), sink)
        assert len(delivered) == 1
        (pool,) = factory.pools
        assert pool.shutdown_calls[0] == {
            "wait": True, "cancel_futures": True,
        }

    def test_pool_size_clamped_to_shard_count(self):
        """workers > shard count must still merge byte-identically
        while only spawning as many processes as there are shards."""
        grid = fast_grid(sizes=(24,), drop_rates=(0.0,), replicas=3)
        factory = RecordingFactory()
        oversubscribed = SweepRunner(workers=16, executor_factory=factory)
        parallel = merge_columns(oversubscribed.run_grid_columns(grid))
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        assert json.dumps(parallel.to_dict(), sort_keys=True) == (
            json.dumps(sequential.to_dict(), sort_keys=True)
        )
        (pool,) = factory.pools
        assert pool.max_workers == 3

    def test_parallel_empty_sweep(self):
        factory = RecordingFactory()
        runner = SweepRunner(workers=4, executor_factory=factory)
        assert runner.run_columns([]) == []
        assert factory.pools == []


class TestSweepAxes:
    """Every grid axis exercised through the runner: churn schedules,
    the NEWSCAST sampler backend, and the engine seam -- each pinned by
    the same workers-equivalence property as the plain size x drop
    sweeps."""

    def test_churn_schedule_workers_equivalent(self):
        grid = fast_grid(
            sizes=(24,),
            max_cycles=20,
            schedules=(ScheduleSpec.of("churn", rate=0.05),),
        )
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=2).run_grid_columns(grid))
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )
        # Churn actually fired: the population turned over but stayed
        # stationary in expectation.
        results = SweepRunner(workers=1).run_grid_columns(grid)
        assert all(r.population > 0 for r in results)
        assert any(
            r.transport_counters()["void_requests"] > 0 for r in results
        ), "churn never produced a request to a departed node"

    def test_newscast_sampler_workers_equivalent(self):
        grid = fast_grid(sizes=(24,), replicas=2, sampler="newscast")
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=2).run_grid_columns(grid))
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )
        for cell in sequential.cells:
            assert cell.converged_runs == cell.runs

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_engine_axis_workers_equivalent(self, engine):
        grid = fast_grid(sizes=(24,), engine=engine)
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=2).run_grid_columns(grid))
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )

    def test_full_axis_product_identical_across_engines(self):
        """size x drop x churn x sampler, both engines, one assertion:
        the merged sweep statistics agree byte-for-byte."""
        def run(engine):
            grid = fast_grid(
                sizes=(24, 32),
                replicas=1,
                max_cycles=15,
                sampler="newscast",
                schedules=(ScheduleSpec.of("churn", rate=0.05),),
                engine=engine,
            )
            merged = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
            return json.dumps(merged.to_dict(), sort_keys=True)

        assert run("reference") == run("fast")

    def test_run_repeats_on_fast_engine(self):
        spec = ExperimentSpec(
            size=24, seed=5, config=FAST, max_cycles=30, engine="fast"
        )
        reference = run_repeats(spec.with_engine("reference"), 2)
        fast = run_repeats(spec, 2)
        assert [r.samples for r in reference] == [r.samples for r in fast]
        assert all(r.engine == "fast" for r in fast)


class TestMerge:
    def test_cells_grouped_and_summarized(self):
        grid = fast_grid()
        aggregate = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        assert len(aggregate.cells) == 4
        cell = aggregate.cell(24, 0.2)
        assert cell.runs == 2
        assert cell.converged_runs == cell.runs
        assert cell.cycles is not None and cell.cycles.count == 2
        assert cell.mean_leaf.points[0][1] > 0
        # Lossy cells lose messages; reliable cells do not.
        assert cell.overall_loss_fraction > 0.2
        assert aggregate.cell(24, 0.0).overall_loss_fraction == 0.0
        with pytest.raises(KeyError):
            aggregate.cell(999)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_columns([])

    def test_throughput_excluded_from_merge(self):
        grid = fast_grid(sizes=(24,), drop_rates=(0.0,), replicas=2)
        results = SweepRunner(workers=1).run_grid_columns(grid)
        merged = json.dumps(merge_columns(results).to_dict())
        assert "wall" not in merged
        summary = throughput_summary(results)
        assert summary is not None and summary.mean > 0
