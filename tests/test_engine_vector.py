"""Statistical-equivalence harness: the vector engine versus the
reference.

The vector engine's contract is weaker than the fast engine's: it is
deterministic per ``(seed, backend)`` but runs a documented
seeded-but-different RNG stream (one generator per simulation, bulk
draws, with-replacement oracle sampling, wave-batched message builds),
so trajectories are *distributionally* -- not bit-level -- equivalent
to the reference engine.  These tests pin that contract:

* mean convergence-cycle summaries, mean convergence curves, and
  transport loss fractions across sizes x drops x samplers x failure
  schedules stay within documented tolerances of the reference engine,
  on both the numpy leg and the pure-Python fallback leg;
* the batched message construction is *exactly* equal to the fallback
  leg's list-kernel construction for identical node state (the
  fallback kernels are themselves pinned bit-level to the reference
  implementations by ``tests/test_engine_fast.py``), so the
  statistical tolerances only have to absorb RNG-stream differences,
  never arithmetic ones;
* determinism per seed, engine provenance, the engine seam, and
  worker-count invariance through the sweep runner.

Tolerances: the per-config reference/vector deltas are deterministic
for fixed seeds (``random.Random`` and numpy's PCG64 are stable across
the supported interpreter matrix); the bands below are the measured
deltas plus roughly a two-sigma allowance of the 6-8-repeat mean noise
(per-run convergence sd is ~1-3 cycles depending on config), so they
fail on systematic drift, not on the known sampling noise.
"""

from __future__ import annotations

import json

import pytest

from repro import engine_vector
from repro.analysis import Series, mean_series
from repro.analysis.series import _step_value
from repro.core import BootstrapConfig, IDSpace
from repro.engine_vector import VectorBootstrapSimulation
from repro.engine_vector.rng import sample_distinct
from repro.engine_vector.sim import VectorNewscastView, _PythonOps
from repro.runtime import (
    RunSpec,
    ScheduleSpec,
    SweepGrid,
    SweepRunner,
    execute_run,
    merge_columns,
)
from repro.simulator import (
    ENGINE_KINDS,
    ExperimentSpec,
    NetworkModel,
    build_simulation,
)

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)

#: Equivalence bands (see the module docstring for how they are set).
CONV_TOL = 4.0      # |mean converged_at delta|, cycles
CURVE_TOL = 0.10    # max |mean missing-leaf fraction delta| at any cycle
LOSS_TOL = 0.025    # |mean overall loss fraction delta|
CHURN_TOL = 0.06    # |mean steady-state missing fraction delta|


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Run the decorated test under each vector-engine leg."""
    if request.param == "numpy" and engine_vector.backend() != "numpy":
        pytest.skip("numpy not installed")
    engine_vector.set_backend(request.param)
    yield request.param
    engine_vector.set_backend("auto")


def run_batch(engine, *, size, drop=0.0, sampler="oracle", schedules=(),
              repeats=6, max_cycles=40, stop=True):
    """Independent seeded runs of one configuration on *engine*."""
    results = []
    for index in range(repeats):
        spec = ExperimentSpec(
            size=size,
            seed=201 + index,
            config=FAST,
            network=NetworkModel(drop_probability=drop),
            sampler=sampler,
            max_cycles=max_cycles,
            stop_when_perfect=stop,
            engine=engine,
        )
        results.append(
            execute_run(RunSpec(experiment=spec, schedules=schedules)).result
        )
    return results


#: Reference results are engine-leg independent; compute each config
#: once per session, not once per backend parametrisation.
_REFERENCE_CACHE = {}


def reference_batch(**config):
    key = json.dumps(
        {k: repr(v) for k, v in sorted(config.items())}, sort_keys=True
    )
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = run_batch("reference", **config)
    return _REFERENCE_CACHE[key]


def mean_conv(results):
    assert all(r.converged for r in results)
    return sum(r.cycles_to_converge for r in results) / len(results)


def mean_leaf_curve(results):
    return mean_series(
        "mean", [Series.from_pairs("r", r.leaf_series()) for r in results]
    )


def max_curve_delta(a, b):
    xs = {x for x, _ in a.points} | {x for x, _ in b.points}
    return max(abs(_step_value(a, x) - _step_value(b, x)) for x in xs)


def mean_loss(results):
    return sum(
        r.transport["overall_loss_fraction"] for r in results
    ) / len(results)


EQUIVALENCE_CONFIGS = {
    "small": dict(size=32),
    "mid": dict(size=64),
    "lossy": dict(size=48, drop=0.25, repeats=8),
    "newscast": dict(size=48, sampler="newscast"),
    "newscast_lossy": dict(
        size=48, drop=0.25, sampler="newscast", repeats=8
    ),
    "massive_join": dict(
        size=64,
        schedules=(ScheduleSpec.of("massive_join", at_cycle=2, count=16),),
    ),
}


class TestStatisticalEquivalence:
    """The headline contract: sizes x drops x samplers x schedules."""

    @pytest.mark.parametrize(
        "config", EQUIVALENCE_CONFIGS.values(),
        ids=list(EQUIVALENCE_CONFIGS),
    )
    def test_convergence_and_curves_match_reference(self, config, backend):
        reference = reference_batch(**config)
        vector = run_batch("vector", **config)
        assert all(r.engine == "vector" for r in vector)
        # Convergence-cycle summary.
        delta = mean_conv(vector) - mean_conv(reference)
        assert abs(delta) <= CONV_TOL, (
            f"mean convergence drifted by {delta:+.2f} cycles"
        )
        # Mean convergence curve, under step semantics.
        curve_delta = max_curve_delta(
            mean_leaf_curve(reference), mean_leaf_curve(vector)
        )
        assert curve_delta <= CURVE_TOL, (
            f"mean leaf curve drifted by {curve_delta:.3f}"
        )
        # Transport loss fraction (the paper's 28%-loss arithmetic).
        loss_delta = mean_loss(vector) - mean_loss(reference)
        assert abs(loss_delta) <= LOSS_TOL, (
            f"loss fraction drifted by {loss_delta:+.4f}"
        )

    def test_churn_steady_state_quality(self, backend):
        config = dict(
            size=48,
            schedules=(ScheduleSpec.of("churn", rate=0.05),),
            max_cycles=15,
            stop=False,
        )
        reference = reference_batch(**config)
        vector = run_batch("vector", **config)
        for attribute in ("leaf_fraction", "prefix_fraction"):
            ref_mean = sum(
                getattr(r.final_sample, attribute) for r in reference
            ) / len(reference)
            vec_mean = sum(
                getattr(r.final_sample, attribute) for r in vector
            ) / len(vector)
            assert abs(vec_mean - ref_mean) <= CHURN_TOL, (
                f"steady-state {attribute} drifted "
                f"({ref_mean:.3f} -> {vec_mean:.3f})"
            )

    def test_catastrophe_steady_state_quality(self, backend):
        """After losing 30% of the pool, no engine reaches *perfect*
        tables (dead entries are never evicted by the bootstrap alone),
        so equivalence is pinned on the steady-state deficit instead."""
        config = dict(
            size=64,
            schedules=(
                ScheduleSpec.of("catastrophe", at_cycle=3, fraction=0.3),
            ),
            max_cycles=25,
            stop=False,
        )
        reference = reference_batch(**config)
        vector = run_batch("vector", **config)
        for attribute in ("leaf_fraction", "prefix_fraction"):
            ref_mean = sum(
                getattr(r.final_sample, attribute) for r in reference
            ) / len(reference)
            vec_mean = sum(
                getattr(r.final_sample, attribute) for r in vector
            ) / len(vector)
            assert abs(vec_mean - ref_mean) <= CHURN_TOL, (
                f"post-catastrophe {attribute} drifted "
                f"({ref_mean:.3f} -> {vec_mean:.3f})"
            )

    def test_forced_wave_size_stays_equivalent(self, backend):
        """A deliberately large wave (heavier scheduling staleness
        than the n//16 default) must not change the statistics."""
        reference = reference_batch(size=64)
        convs = []
        for index in range(6):
            sim = VectorBootstrapSimulation(
                64, seed=201 + index, config=FAST, wave=8
            )
            result = sim.run(40)
            assert result.converged
            convs.append(result.cycles_to_converge)
        delta = sum(convs) / len(convs) - mean_conv(reference)
        assert abs(delta) <= CONV_TOL

    def test_default_wave_scales_with_population(self, backend):
        """The default wave is ``max(1, n // 16)`` -- scaling with the
        population, with no flat cap -- pinned bit-identically: the
        default trajectory equals the explicit one at a size where the
        old ``min(64, n // 16)`` cap would have clamped it (1200 nodes
        -> wave 75, formerly 64)."""
        size = 1200 if backend == "numpy" else 80

        def trajectory(wave):
            sim = VectorBootstrapSimulation(
                size, seed=7, config=FAST, wave=wave
            )
            points = []
            for _ in range(12):
                sim.run_cycle()
                sample = sim.measure()
                points.append(
                    (sample.missing_leaf, sample.missing_prefix)
                )
            return points

        assert trajectory(None) == trajectory(max(1, size // 16))

    def test_population_identical_to_reference(self, backend):
        """Membership randomness shares the reference seed tree: the
        same seed simulates the same network on every engine, even
        through spawn-driven schedules."""
        schedules = (ScheduleSpec.of("massive_join", at_cycle=1, count=8),)
        spec = ExperimentSpec(
            size=24, seed=9, config=FAST, max_cycles=6,
            stop_when_perfect=False,
        )
        ref = execute_run(
            RunSpec(experiment=spec, schedules=schedules)
        )
        vec = execute_run(
            RunSpec(experiment=spec.with_engine("vector"),
                    schedules=schedules)
        )
        # Rebuild the simulations to inspect the id sets directly.
        ref_sim = build_simulation(spec)
        vec_sim = build_simulation(spec.with_engine("vector"))
        ref_sim.run(6, stop_when_perfect=False,
                    schedules=[s.build() for s in schedules])
        vec_sim.run(6, stop_when_perfect=False,
                    schedules=[s.build() for s in schedules])
        assert set(ref_sim.live_ids) == set(vec_sim.live_ids)
        assert ref.result.population == vec.result.population


class TestDeterminism:
    def test_same_seed_same_backend_identical(self, backend):
        spec = ExperimentSpec(
            size=48, seed=31, config=FAST, max_cycles=30, engine="vector"
        )
        first = execute_run(RunSpec(experiment=spec)).result
        second = execute_run(RunSpec(experiment=spec)).result
        assert first.samples == second.samples
        assert first.transport == second.transport
        assert first.converged_at == second.converged_at

    def test_backends_run_distinct_documented_streams(self):
        if engine_vector.backend() != "numpy":
            pytest.skip("numpy not installed")
        spec = ExperimentSpec(
            size=48, seed=31, config=FAST, max_cycles=30, engine="vector"
        )
        engine_vector.set_backend("numpy")
        try:
            numpy_run = execute_run(RunSpec(experiment=spec)).result
        finally:
            engine_vector.set_backend("auto")
        engine_vector.set_backend("python")
        try:
            python_run = execute_run(RunSpec(experiment=spec)).result
        finally:
            engine_vector.set_backend("auto")
        # Different legs, different (equally valid) trajectories; the
        # odds of a collision over a full run are negligible.
        assert numpy_run.samples != python_run.samples

    def test_workers_equivalent_through_sweep_runner(self, backend):
        grid = SweepGrid(
            sizes=(24, 32),
            drop_rates=(0.0, 0.2),
            replicas=2,
            base_seed=9,
            max_cycles=40,
            config=FAST,
            engine="vector",
        )
        sequential = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
        parallel = merge_columns(SweepRunner(workers=2).run_grid_columns(grid))
        assert json.dumps(sequential.to_dict(), sort_keys=True) == (
            json.dumps(parallel.to_dict(), sort_keys=True)
        )


class TestEngineSeam:
    def test_engine_kinds_include_vector(self):
        assert "vector" in ENGINE_KINDS

    def test_build_simulation_dispatch(self):
        sim = build_simulation(
            ExperimentSpec(size=16, config=FAST, engine="vector")
        )
        assert isinstance(sim, VectorBootstrapSimulation)
        assert sim.engine_name == "vector"

    def test_result_records_engine(self):
        spec = ExperimentSpec(
            size=16, config=FAST, max_cycles=20, engine="vector"
        )
        assert execute_run(RunSpec(experiment=spec)).result.engine == "vector"

    def test_cli_accepts_vector_engine(self, capsys):
        from repro.cli import main

        assert main(
            ["bootstrap", "--size", "32", "--seed", "3",
             "--max-cycles", "25", "--engine", "vector"]
        ) == 0
        assert "bootstrap" in capsys.readouterr().out

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="size >= 2"):
            VectorBootstrapSimulation(1, config=FAST)
        with pytest.raises(ValueError, match="sampler"):
            VectorBootstrapSimulation(16, config=FAST, sampler="psychic")
        with pytest.raises(ValueError, match="wave"):
            VectorBootstrapSimulation(16, config=FAST, wave=0)
        with pytest.raises(ValueError, match="duplicates"):
            VectorBootstrapSimulation(ids=[1, 1, 2], config=FAST)

    def test_set_backend_validation(self):
        with pytest.raises(ValueError, match="auto"):
            engine_vector.set_backend("fortran")


class TestBatchedConstructionExactness:
    """The numpy leg's wave-batched CREATEMESSAGE must equal the
    fallback leg's list-kernel construction element for element --
    both inspect identical node state, so any difference would be an
    arithmetic bug, not stream noise."""

    @staticmethod
    def _twin_states(seed=5, size=40):
        """The same converged node population materialised under both
        legs (same master seed, so identical ids)."""
        if engine_vector.backend() != "numpy":
            pytest.skip("numpy not installed")
        engine_vector.set_backend("numpy")
        try:
            numpy_sim = VectorBootstrapSimulation(
                size, seed=seed, config=FAST
            )
            numpy_sim.run(30)
        finally:
            engine_vector.set_backend("auto")
        return numpy_sim

    def test_single_message_matches_list_kernels(self):
        import numpy as np

        numpy_sim = self._twin_states()
        ops = numpy_sim._ops
        space = FAST.space
        pops = _PythonOps(FAST)
        ids = list(numpy_sim.nodes)
        pool = numpy_sim._pool
        rng = np.random.default_rng(7)
        for index in range(20):
            state = numpy_sim.nodes[ids[index % len(ids)]]
            peer = ids[(index * 5 + 1) % len(ids)]
            if peer == state.node_id:
                peer = ids[(index * 5 + 2) % len(ids)]
            samples = pool[rng.integers(0, pool.size, size=10)]
            msg_ids, msg_slots = ops.create_message(state, peer, samples)
            # Rebuild the same state on the fallback leg.
            twin = pops.new_state(state.node_id)
            twin.leaf_members = set(state.leaf.tolist())
            twin.prefix_ids = set(state.prefix_ids.tolist())
            for nid, slot in zip(
                state.prefix_ids.tolist(), state.prefix_slots.tolist(), strict=True
            ):
                twin.prefix_slots.setdefault(int(slot), []).append(nid)
            close, tail, tail_slots = pops.create_message(
                twin, peer, samples.tolist()
            )
            assert msg_ids.tolist() == close + tail
            digit_bits = space.digit_bits
            expected_close_slots = [
                (row << digit_bits) | col
                for row, col in (
                    space.prefix_slot(peer, nid) for nid in close
                )
            ]
            assert msg_slots.tolist() == expected_close_slots + tail_slots

    def test_wave_equals_per_message_construction(self):
        import numpy as np

        numpy_sim = self._twin_states(seed=11)
        ops = numpy_sim._ops
        ids = list(numpy_sim.nodes)
        pool = numpy_sim._pool
        rng = np.random.default_rng(3)
        jobs = []
        for index in range(16):
            state = numpy_sim.nodes[ids[(index * 3) % len(ids)]]
            peer = ids[(index * 7 + 2) % len(ids)]
            if peer == state.node_id:
                peer = ids[(index * 7 + 3) % len(ids)]
            jobs.append(
                (state, peer, pool[rng.integers(0, pool.size, size=10)])
            )
        batched = ops.create_wave(jobs)
        for (state, peer, samples), (wave_ids, wave_slots) in zip(
            jobs, batched, strict=True
        ):
            single_ids, single_slots = ops.create_message(
                state, peer, samples
            )
            assert wave_ids.tolist() == single_ids.tolist()
            assert wave_slots.tolist() == single_slots.tolist()

    def test_array_state_invariants_after_run(self):
        import numpy as np

        numpy_sim = self._twin_states(seed=13)
        for state in numpy_sim.nodes.values():
            leaf = state.leaf
            prefix = state.prefix_ids
            assert np.all(leaf[1:] > leaf[:-1])
            assert np.all(prefix[1:] > prefix[:-1])
            assert leaf.size <= FAST.leaf_set_size
            # Occupancy bookkeeping agrees with the resident slots.
            counts = np.bincount(
                state.prefix_slots, minlength=state.slot_count.size
            )
            assert np.array_equal(counts, state.slot_count)
            assert int(state.slot_count.max(initial=0)) <= (
                FAST.entries_per_slot
            )


class TestBatchedAbsorbExactness:
    """The segmented slab absorb (``absorb_wave``) must be
    *bit-identical* to draining the same wave through the scalar
    absorb loop, on both legs.

    The comparison is over observable content -- leaf members, the
    resident ``(id, slot)`` prefix pairs, measurements, and transport
    counters -- never over internal cache flags: the no-change leaf
    short-circuit means batch and single may legitimately disagree
    about ``stats_dirty`` while every table and every statistic is
    equal."""

    CONFIGS = [
        dict(size=48, drop=0.0, sampler="oracle", churn=False),
        dict(size=40, drop=0.2, sampler="oracle", churn=True),
        dict(size=40, drop=0.1, sampler="newscast", churn=True),
    ]

    @staticmethod
    def _snapshot(sim):
        """Normalised table content per node (backend-agnostic)."""
        nodes = {}
        for node_id, state in sim.nodes.items():
            if sim.backend == "numpy":
                leaf = state.leaf.tolist()
                pairs = sorted(
                    zip(
                        state.prefix_ids.tolist(),
                        state.prefix_slots.tolist(), strict=True
                    )
                )
            else:
                leaf = sorted(state.leaf_members)
                pairs = sorted(
                    (nid, slot)
                    for slot, members in state.prefix_slots.items()
                    for nid in members
                )
            nodes[node_id] = (leaf, pairs)
        return nodes

    def _trace(self, mode, *, size, drop, sampler, churn, seed=21,
               cycles=25):
        sim = VectorBootstrapSimulation(
            size,
            seed=seed,
            config=FAST,
            network=NetworkModel(drop_probability=drop),
            sampler=sampler,
            absorb=mode,
        )
        assert sim.absorb_mode == mode
        snaps = []
        for cycle in range(cycles):
            if churn and cycle == 8:
                sim.kill_node(sim.live_ids[0])
                sim.spawn_node()
            sim.run_cycle()
            if cycle % 5 == 4:
                snaps.append((self._snapshot(sim), sim.measure()))
        snaps.append(sim._boot.stats.snapshot())
        return snaps

    @pytest.mark.parametrize(
        "config", CONFIGS,
        ids=lambda c: f"n{c['size']}-d{c['drop']}-{c['sampler']}"
            + ("-churn" if c["churn"] else ""),
    )
    def test_batch_equals_single(self, config, backend):
        assert self._trace("batch", **config) == (
            self._trace("single", **config)
        )


class TestAbsorbSeam:
    def test_default_is_batch(self, monkeypatch):
        from repro.engine_vector.sim import absorb_mode

        monkeypatch.delenv("REPRO_VECTOR_ABSORB", raising=False)
        assert absorb_mode() == "batch"

    def test_env_selects_single(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_ABSORB", "single")
        sim = VectorBootstrapSimulation(16, seed=3, config=FAST)
        assert sim.absorb_mode == "single"

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_ABSORB", "single")
        sim = VectorBootstrapSimulation(
            16, seed=3, config=FAST, absorb="batch"
        )
        assert sim.absorb_mode == "batch"

    def test_invalid_mode_rejected(self, monkeypatch):
        from repro.engine_vector.sim import absorb_mode

        monkeypatch.setenv("REPRO_VECTOR_ABSORB", "vectorised")
        with pytest.raises(ValueError, match="absorb mode"):
            absorb_mode()
        with pytest.raises(ValueError, match="absorb mode"):
            VectorBootstrapSimulation(
                16, seed=3, config=FAST, absorb="slab"
            )


class TestTrackerRecomputationRegression:
    """Absorbs that change nothing must not dirty the convergence
    cache.

    Before the incremental dirty tracking, *every* absorbed message
    re-flagged its receiver, so each post-convergence measurement
    recomputed ~all per-node deficits even though no table had
    changed.  Now a steady-state cycle (perfect tables, reliable
    network: every admission is a duplicate, every leaf reselect is a
    no-op) must recompute exactly zero."""

    def test_steady_state_measures_hit_the_cache(self, backend):
        sim = VectorBootstrapSimulation(32, seed=9, config=FAST)
        result = sim.run(40)
        assert result.converged_at is not None
        ops = sim._ops
        calls = []
        original = ops.node_missing

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        ops.node_missing = counting
        try:
            for _ in range(5):
                sim.run_cycle()
                sample = sim.measure()
                assert sample.is_perfect
        finally:
            del ops.node_missing
        assert calls == []


class TestVectorNewscastView:
    def test_merge_keeps_freshest_with_id_tiebreak(self):
        view = VectorNewscastView(own_id=1, capacity=2)
        view.merge([(2, 1.0), (3, 2.0), (4, 2.0), (1, 9.0)])
        assert set(view.entries) == {3, 4}
        view.merge([(3, 5.0)])
        assert view.entries[3] == 5.0

    def test_select_and_sample_bounds(self):
        view = VectorNewscastView(own_id=1, capacity=8)
        assert view.select_peer(0.5) is None
        view.seed([10, 11, 12])
        assert view.select_peer(0.999999) in {10, 11, 12}
        assert view.select_peer(0.0) in {10, 11, 12}
        sampled = view.sample(2, [0.9, 0.1])
        assert len(sampled) == len(set(sampled)) == 2
        assert set(sampled) <= {10, 11, 12}
        assert view.sample(0, []) == []

    def test_payload_carries_own_stamp(self):
        view = VectorNewscastView(own_id=7, capacity=4)
        view.seed([1])
        view.now = 3.0
        assert (7, 3.0) in view.payload()


class TestDrawHelpers:
    def test_sample_distinct_is_distinct_subset(self):
        pool = list(range(100, 130))
        floats = [0.999999, 0.0, 0.5, 0.25, 0.75]
        sampled = sample_distinct(pool, 5, floats)
        assert len(sampled) == len(set(sampled)) == 5
        assert set(sampled) <= set(pool)
        assert sample_distinct(pool, 40, floats) == pool

    def test_prefix_slot_packing_matches_idspace(self):
        space = IDSpace()
        import numpy as np

        from repro.engine_fast import kernels

        if kernels.backend() != "numpy":
            pytest.skip("numpy not installed")
        rng = np.random.default_rng(5)
        origin = int(rng.integers(0, 2**63))
        ids = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        ids = ids[ids != origin]
        slots = kernels.prefix_slots_arrays(
            ids, origin, space.bits, space.digit_bits,
            space.digit_base - 1,
        )
        for nid, packed in zip(ids.tolist(), slots.tolist(), strict=True):
            row, col = space.prefix_slot(origin, nid)
            assert packed == (row << space.digit_bits) | col
