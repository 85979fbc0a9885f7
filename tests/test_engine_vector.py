"""The vector engine: exact against the protocol, statistical against
the reference engine.

The vector engine runs the paper's protocol under wave-synchronous
activation on its own RNG streams (one generator per simulation, bulk
draws, with-replacement oracle sampling, wave-batched message builds),
so it is deterministic per seed but its trajectories are
*distributionally* -- not bit-level -- equivalent to the reference
engine's.  These tests pin that contract:

* **exactly, against ``BootstrapNode``**: the exchange-log replay
  (``tests/replay.py``) re-runs every exchange of a simulation through
  one ``BootstrapNode`` per id and requires equal SELECTPEER picks,
  equal message payloads (ids, order and prefix slots) and equal
  receiver tables after every wave -- on both samplers, with drops,
  churn, joins, slab growth, a re-admitted id, 32-bit ids and waves of
  one and eight exchanges (the trajectory digests of
  ``tests/test_engine_vector_arena.py`` run it too).  Wave builds from
  deliberately messy sample slabs equal ``BootstrapNode.create_message``
  on the same arena state;
* **statistically, against the reference engine**: mean
  convergence-cycle summaries, mean convergence curves, and transport
  loss fractions across sizes x drops x samplers x failure schedules
  stay within documented tolerances.  With the protocol itself pinned
  exactly, the four bands measure only the relaxation -- wave
  activation order and RNG streams -- never an arithmetic difference;
* determinism per seed, engine provenance, the engine seam, the
  convergence cache, and worker-count invariance through the sweep
  runner.

Tolerances: the per-config reference/vector deltas are deterministic
for fixed seeds (``random.Random`` and numpy's PCG64 are stable across
the supported interpreter matrix); the bands below are the measured
deltas plus roughly a two-sigma allowance of the 6-8-repeat mean noise
(per-run convergence sd is ~1-3 cycles depending on config), so they
fail on systematic drift, not on the known sampling noise.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.analysis import Series, mean_series  # noqa: E402
from repro.analysis.series import _step_value  # noqa: E402
from repro.core import BootstrapConfig, IDSpace  # noqa: E402
from repro.core.leafset import select_balanced_ids  # noqa: E402
from repro.engine_fast import kernels  # noqa: E402
from repro.engine_vector import VectorBootstrapSimulation  # noqa: E402
from repro.engine_vector.arena import ArenaState, SlabMeasure  # noqa: E402
from repro.engine_vector.sim import _NumpyOps  # noqa: E402
from repro.runtime import (  # noqa: E402
    RunSpec,
    ScheduleSpec,
    SweepGrid,
    SweepRunner,
    execute_run,
    merge_columns,
)
from repro.simulator import (  # noqa: E402
    ENGINE_KINDS,
    ExperimentSpec,
    NetworkModel,
    build_simulation,
)
from repro.simulator.failures import Churn  # noqa: E402

from .replay import (  # noqa: E402
    ExchangeReplay,
    ScriptedSampler,
    VectorNewscastView,
    node_from_state,
    packed_slot,
    sample_distinct,
    snapshot,
    view_entries,
    view_row,
)

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)
NARROW = BootstrapConfig(
    id_bits=32, leaf_set_size=8, entries_per_slot=2, random_samples=10
)

#: Equivalence bands (see the module docstring for how they are set).
CONV_TOL = 4.0      # |mean converged_at delta|, cycles
CURVE_TOL = 0.10    # max |mean missing-leaf fraction delta| at any cycle
LOSS_TOL = 0.025    # |mean overall loss fraction delta|
CHURN_TOL = 0.06    # |mean steady-state missing fraction delta|


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


#: Reference results are shared by several tests; compute each config
#: once per session.
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
    def test_convergence_and_curves_match_reference(self, config):
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

    def test_churn_steady_state_quality(self):
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

    def test_catastrophe_steady_state_quality(self):
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

    def test_forced_wave_size_stays_equivalent(self):
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

    def test_default_wave_scales_with_population(self):
        """The default wave is ``max(1, n // 16)`` -- scaling with the
        population, with no flat cap -- pinned bit-identically: the
        default trajectory equals the explicit one at a size where the
        old ``min(64, n // 16)`` cap would have clamped it (1200 nodes
        -> wave 75, formerly 64)."""
        size = 1200

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

    def test_population_identical_to_reference(self):
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
    def test_same_seed_identical(self):
        spec = ExperimentSpec(
            size=48, seed=31, config=FAST, max_cycles=30, engine="vector"
        )
        first = execute_run(RunSpec(experiment=spec)).result
        second = execute_run(RunSpec(experiment=spec)).result
        assert first.samples == second.samples
        assert first.transport == second.transport
        assert first.converged_at == second.converged_at

    @pytest.mark.parametrize("sampler", ["oracle", "newscast"])
    def test_same_seed_identical_under_churn(self, sampler):
        """Membership changes (rank recycling, measurer rebinds, the
        growing id universe) replay identically per seed too."""
        spec = ExperimentSpec(
            size=32, seed=13, config=FAST, max_cycles=12, sampler=sampler,
            stop_when_perfect=False, engine="vector",
        )
        schedules = (ScheduleSpec.of("churn", rate=0.1),)
        first = execute_run(RunSpec(experiment=spec, schedules=schedules))
        second = execute_run(RunSpec(experiment=spec, schedules=schedules))
        assert first.result.samples == second.result.samples
        assert first.result.transport == second.result.transport
        assert first.result.population == second.result.population

    def test_workers_equivalent_through_sweep_runner(self):
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
        # The shared checks are tests/test_simulation_shell.py's.
        with pytest.raises(ValueError, match="wave"):
            VectorBootstrapSimulation(16, config=FAST, wave=0)


class TestRetiredKnobs:
    """The engine has one production path: no environment variable or
    keyword selects another backend, state layout or absorb dispatch,
    and a stale setting left in a shell changes nothing."""

    RETIRED_SEAMS = (
        "REPRO_VECTOR_BACKEND",
        "REPRO_VECTOR_ABSORB",
        "REPRO_VECTOR_STATE",
        "REPRO_BENCH_VECTOR_SMOKE",
    )

    @staticmethod
    def _run():
        sim = VectorBootstrapSimulation(24, seed=5, config=FAST)
        result = sim.run(10, stop_when_perfect=False)
        return result.samples, result.transport

    @pytest.mark.parametrize("name", RETIRED_SEAMS)
    def test_seam_is_not_declared(self, name):
        from repro import seams

        assert name not in {seam.name for seam in seams.catalog()}
        with pytest.raises(KeyError, match="not a declared seam"):
            seams.get(name)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_VECTOR_BACKEND", "python"),
            ("REPRO_VECTOR_ABSORB", "single"),
            ("REPRO_VECTOR_STATE", "pernode"),
        ],
    )
    def test_stale_env_setting_is_inert(self, monkeypatch, name, value):
        monkeypatch.delenv(name, raising=False)
        expected = self._run()
        monkeypatch.setenv(name, value)
        assert self._run() == expected

    @pytest.mark.parametrize(
        "keyword, value", [("absorb", "single"), ("state", "pernode")]
    )
    def test_constructor_rejects_retired_keyword(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            VectorBootstrapSimulation(16, config=FAST, **{keyword: value})


def converged_sim(seed, size=40):
    """A converged oracle-sampler population to build messages from."""
    sim = VectorBootstrapSimulation(size, seed=seed, config=FAST)
    sim.run(30)
    return sim


def message_jobs(sim, count, seed, sampler="oracle", messy=False):
    """*count* ``(state, peer, sample row)`` jobs over *sim*'s nodes plus
    the wave's sample slab for *sampler*'s leg.

    The oracle leg samples like the engine: a batch buffer of rows
    drawn with replacement from the live pool, its slab gathered from
    the buffer.  The NEWSCAST leg hands
    each job a plain id array, concatenated in draw order as the view
    gathers are.  A *messy* set pairs the jobs like a real wave --
    request ``(a, b)`` then reply ``(b, a)``, each pair's requester the
    previous pair's target, so a state is a requester in one job and a
    target in another -- and, on the NEWSCAST leg, gives each job an
    unsorted sample array that repeats an id and holds the job's own id
    and its peer."""
    ids = list(sim.nodes)
    pool = sim._pool
    universe = sim._wave_universe()
    rng = np.random.default_rng(seed)
    index = rng.integers(0, pool.size, size=(count, FAST.random_samples))
    rows = pool[index]
    dense = universe.searchsorted(pool)[index]
    jobs = []
    for index in range(count):
        if messy and index % 2:
            requester, target = jobs[-1][:2]
            state, peer = sim.nodes[target], requester.node_id
        else:
            state = sim.nodes[ids[(index * 3) % len(ids)]]
            if messy and index:
                state = jobs[-1][0]
            peer = ids[(index * 7 + 2) % len(ids)]
            if peer == state.node_id:
                peer = ids[(index * 7 + 3) % len(ids)]
        row = rows[index]
        if sampler == "newscast" and messy:
            extra = np.array([row[0], state.node_id, peer], dtype=np.uint64)
            row = np.concatenate((row[::-1], extra))
        jobs.append((state, peer, row))
    if sampler == "newscast":
        ids = np.concatenate([row for _, _, row in jobs])
        samples = (
            ids,
            universe.searchsorted(ids),
            np.array([row.size for _, _, row in jobs], dtype=np.intp),
        )
    else:
        samples = (
            rows.reshape(-1),
            dense.reshape(-1),
            np.full(count, FAST.random_samples, dtype=np.intp),
        )
    return jobs, samples


def wave_messages(wave):
    """Slice ``create_wave_flat``'s flat slabs into per-message
    ``(ids, slots)`` pairs."""
    ids_flat, slots_flat, _, bounds = wave
    cuts = bounds.tolist()
    return [
        (ids_flat[lo:hi], slots_flat[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)
    ]


class TestBatchedConstructionExactness:
    """The wave-batched CREATEMESSAGE must equal
    ``BootstrapNode.create_message`` on the same node state, message for
    message -- both inspect identical tables, so any difference would be
    an arithmetic bug, not stream noise."""

    #: Both samplers, each with plain jobs and with a messy set (see
    #: ``message_jobs``).
    WAVE_CASES = pytest.mark.parametrize(
        "sampler, messy",
        [
            ("oracle", False),
            ("newscast", False),
            ("oracle", True),
            ("newscast", True),
        ],
        ids=["oracle", "newscast", "oracle-messy", "newscast-messy"],
    )

    @staticmethod
    def _assert_wave_equals_per_message(sim, seed, sampler, messy):
        """The wave build from the sample slab equals
        ``BootstrapNode.create_message`` per job, from a node holding the
        job's arena tables and sampling the job's own sample row."""
        space = sim.config.space
        jobs, samples = message_jobs(sim, 16, seed, sampler, messy)
        wave = sim._ops.create_wave_flat(
            [(state, peer) for state, peer, _ in jobs],
            sim._wave_universe(),
            samples,
        )
        scripted = ScriptedSampler()
        for (state, peer, row), (wave_ids, wave_slots) in zip(
            jobs, wave_messages(wave), strict=True
        ):
            node = node_from_state(state, sim.config, scripted)
            scripted.script(row.tolist())
            message = node.create_message(scripted.descriptor(peer))
            expected = [desc.node_id for desc in message.descriptors]
            assert wave_ids.tolist() == expected
            assert wave_slots.tolist() == [
                packed_slot(space, peer, nid) for nid in expected
            ]

    @WAVE_CASES
    def test_wave_equals_per_message_construction(self, sampler, messy):
        self._assert_wave_equals_per_message(
            converged_sim(seed=11), 3, sampler, messy
        )

    @WAVE_CASES
    def test_wave_equals_per_message_after_churn(self, sampler, messy):
        """After kills and joins the tables hold dead ids and the wave
        universe holds every id ever admitted; the wave build must
        still equal the per-message one."""
        sim = converged_sim(seed=17)
        for _ in range(6):
            sim.kill_node(sim.live_ids[0])
            sim.spawn_node()
        for _ in range(3):
            sim.run_cycle()
        self._assert_wave_equals_per_message(sim, 9, sampler, messy)

    def test_array_state_invariants_after_run(self):
        """Every arena column the wave absorb writes is recomputed here
        from each rank's leaf row and prefix window."""
        assert_arena_invariants(converged_sim(seed=13))

    def test_array_state_invariants_after_churn(self):
        """The same recomputation after kills, joins, drops and rank
        recycling on the NEWSCAST leg, and after a killed id is
        re-admitted (it must not enter the id universe twice)."""
        sim = VectorBootstrapSimulation(
            48,
            seed=13,
            config=FAST,
            network=NetworkModel(drop_probability=0.1),
            sampler="newscast",
        )
        churn = Churn(rate=0.05)
        sim.run(12, stop_when_perfect=False, schedules=[churn])
        assert churn.departures and churn.arrivals
        victim = sim.live_ids[0]
        sim.kill_node(victim)
        sim.run_cycle()
        sim.spawn_node(victim)
        for _ in range(2):
            sim.run_cycle()
        assert_arena_invariants(sim)


def assert_arena_invariants(sim):
    """Recompute the arena's derived columns per live rank: leaf side
    counts, worst kept distances, fullness and admission window from
    the leaf row; slot occupancy and slot keys from the prefix window;
    the dense-index caches wherever their valid flag is set.  The id
    universe itself must be strictly increasing."""
    universe = sim._wave_universe()
    assert np.all(universe[1:] > universe[:-1])
    space = sim.config.space
    mask = space.size - 1
    half = space.half
    half_c = sim.config.half_leaf_set
    c = sim.config.leaf_set_size
    arena = sim._ops.arena
    universe = arena.dense_universe
    for node_id, state in sim.nodes.items():
        rank = state.rank
        leaf = state.leaf
        prefix = state.prefix_ids
        assert np.all(leaf[1:] > leaf[:-1])
        assert np.all(prefix[1:] > prefix[:-1])
        assert leaf.size <= c
        forward = [(nid - node_id) & mask for nid in leaf.tolist()]
        succ = [fw for fw in forward if fw <= half]
        pred = [(-fw) & mask for fw in forward if fw > half]
        assert state.succ_count == len(succ)
        assert state.pred_count == len(pred)
        assert state.succ_max == max(succ, default=-1)
        assert state.pred_max == max(pred, default=-1)
        assert state.leaf_full == (leaf.size >= c)
        if state.leaf_full:
            lo = half + 1 if len(succ) < half_c else max(succ)
            hi = half if len(pred) < half_c else mask - max(pred) + 1
            assert int(state.accept_lo) == lo
            assert int(state.accept_hi) == hi
        # Occupancy agrees with the resident slots, and each slot is
        # the id's (common prefix, next digit) key in this table.
        counts = np.bincount(
            state.prefix_slots, minlength=state.slot_count.size
        )
        assert np.array_equal(counts, state.slot_count)
        assert int(state.slot_count.max(initial=0)) <= (
            sim.config.entries_per_slot
        )
        assert state.prefix_slots.tolist() == [
            (row << space.digit_bits) | col
            for row, col in (
                space.prefix_slot(node_id, nid) for nid in prefix.tolist()
            )
        ]
        if arena.p_dense_valid[rank]:
            assert arena.p_dense.view(rank).tolist() == (
                universe.searchsorted(prefix).tolist()
            )
        if arena.leaf_dense_valid[rank]:
            assert arena.leaf_dense[rank, : leaf.size].tolist() == (
                universe.searchsorted(leaf).tolist()
            )


class TestBatchedAbsorbExactness:
    """The batched wave kernels must equal the protocol replayed one
    exchange at a time: every run below goes through
    :class:`~tests.replay.ExchangeReplay`, which checks each message,
    each SELECTPEER pick and, after every wave, each receiver's leaf set
    and prefix table against ``BootstrapNode``.  Sixteen cycles cover
    every table change of these runs (the last one lands in cycle 14)."""

    CONFIGS = [
        dict(size=48, drop=0.0, sampler="oracle", events="none"),
        dict(size=40, drop=0.2, sampler="oracle", events="churn"),
        dict(size=40, drop=0.1, sampler="newscast", events="churn"),
        dict(size=48, drop=0.0, sampler="oracle", events="churn"),
        dict(size=32, drop=0.0, sampler="oracle", events="growth"),
        dict(size=32, drop=0.1, sampler="newscast", events="growth"),
        dict(size=64, drop=0.0, sampler="oracle", events="none", wave=8),
        # 32-bit ids: the ring arithmetic runs under a real mask
        # instead of uint64 wraparound.
        dict(size=40, drop=0.2, sampler="oracle", events="churn",
             config=NARROW),
        dict(size=32, drop=0.1, sampler="newscast", events="growth",
             config=NARROW),
        # Six nodes, c = 8: no leaf set ever fills, so every candidate
        # bypasses the admission window.
        dict(size=6, drop=0.0, sampler="oracle", events="none"),
        # One exchange per wave: the strictly sequential schedule.
        dict(size=32, drop=0.1, sampler="oracle", events="none", wave=1),
        # A killed id re-admitted while dead copies of it sit in tables:
        # it must enter the id universe once, as a fresh node.
        dict(size=40, drop=0.1, sampler="newscast", events="respawn"),
        # Every node killed, one joins alone -- its start seeds nothing,
        # so its leaf set stays empty and SELECTPEER falls back to the
        # sampling service -- then more join.
        dict(size=24, drop=0.0, sampler="oracle", events="emptied"),
        dict(size=24, drop=0.1, sampler="newscast", events="emptied"),
    ]

    #: Replays by config id, so the positive controls reuse the runs
    #: of the per-config tests (each run is deterministic).
    _runs: dict = {}

    @staticmethod
    def _replay(*, size, drop, sampler, events, wave=None, config=FAST,
                seed=21, cycles=16):
        sim = VectorBootstrapSimulation(
            size,
            seed=seed,
            config=config,
            network=NetworkModel(drop_probability=drop),
            sampler=sampler,
            wave=wave,
        )
        replay = ExchangeReplay(sim)
        victim = None
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
            if events == "respawn" and cycle == 8:
                victim = sim.live_ids[0]
                sim.kill_node(victim)
            if events == "respawn" and cycle == 10:
                sim.spawn_node(victim)
            if events == "emptied" and cycle == 4:
                for node_id in sim.live_ids:
                    sim.kill_node(node_id)
                sim.spawn_node()
            if events == "emptied" and cycle == 5:
                for _ in range(size // 4):
                    sim.spawn_node()
            sim.run_cycle()
        replay.check_all()
        return sim, replay

    @staticmethod
    def _config_id(c) -> str:
        return (
            f"n{c['size']}-d{c['drop']}-{c['sampler']}"
            + ("" if c["events"] == "none" else f"-{c['events']}")
            + (f"-w{c['wave']}" if c.get("wave") else "")
            + (f"-{c['config'].id_bits}bit" if c.get("config") else "")
        )

    @classmethod
    def _run(cls, config):
        key = cls._config_id(config)
        if key not in cls._runs:
            cls._runs[key] = cls._replay(**config)
        return cls._runs[key]

    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id.__func__)
    def test_batch_equals_single(self, config):
        sim, replay = self._run(config)
        assert replay.messages and replay.receivers and replay.picks
        if config["events"] == "respawn":
            universe = sim._wave_universe()
            assert np.all(universe[1:] > universe[:-1])
            assert universe.size == len(set(sim._ids_ever))

    def test_every_batched_path_runs(self):
        """Positive controls over the matrix: the replay checked starts
        of nodes that absorbed a message before their turn, starts of
        nodes that joined mid-run, and picks from an empty leaf set."""
        totals = Counter()
        for config in self.CONFIGS:
            _, replay = self._run(config)
            totals["absorbed"] += replay.absorbed_starts
            totals["spawned"] += replay.spawned_starts
            totals["fallback"] += replay.fallbacks
        assert min(totals.values()) > 0 and len(totals) == 3, totals


class TestTrackerRecomputationRegression:
    """Absorbs that change nothing must not dirty the convergence
    cache.

    Before the incremental dirty tracking, *every* absorbed message
    re-flagged its receiver, so each post-convergence measurement
    recomputed ~all per-node deficits even though no table had
    changed.  Now a steady-state cycle (perfect tables, reliable
    network: every admission is a duplicate, every leaf reselect is a
    no-op) must recompute exactly zero ranks -- and a membership
    change, which changes every node's perfect tables, must recompute
    every bound rank."""

    @staticmethod
    def _count_recomputed(monkeypatch):
        touched = []
        original = SlabMeasure._recompute

        def counting(self, d, check_live):
            touched.append(int(d.size))
            return original(self, d, check_live)

        monkeypatch.setattr(SlabMeasure, "_recompute", counting)
        return touched

    def test_steady_state_measures_hit_the_cache(self, monkeypatch):
        sim = VectorBootstrapSimulation(32, seed=9, config=FAST)
        result = sim.run(40)
        assert result.converged_at is not None
        touched = self._count_recomputed(monkeypatch)
        for _ in range(5):
            sim.run_cycle()
            sample = sim.measure()
            assert sample.is_perfect
        assert sum(touched) == 0
        # Positive control: a kill rebinds the measurer, whose first
        # measurement recomputes every bound rank.
        sim.kill_node(sim.live_ids[0])
        sim.measure()
        assert touched == [sim.population]

    def test_join_recomputes_every_bound_rank(self, monkeypatch):
        """A join changes every node's perfect tables as well: the next
        measurement recomputes every bound rank, newcomer included,
        and the one after that hits the cache again."""
        sim = VectorBootstrapSimulation(32, seed=9, config=FAST)
        assert sim.run(40).converged_at is not None
        touched = self._count_recomputed(monkeypatch)
        sim.spawn_node()
        sim.measure()
        assert touched == [sim.population] == [33]
        sim.measure()
        assert touched == [33]


class TestWaveAbsorbIsBatched:
    """Every leaf write is a slab pass: the wave absorb reselects a
    whole wave's touched leaf rows in one padded frame, and the chunk
    start seeds a whole chunk's starting nodes in another.  No per-node
    leaf transition exists, and node handles cannot write.  Warm cycles
    are where tables change most, so that is where a per-node path
    would show."""

    PER_NODE = ("start_node", "select_peer", "_merge_fresh", "_set_leaf")

    def _warm_run(self, monkeypatch):
        """Three warm cycles from a fresh 64-node network, counting
        chunk starts, the nodes they start, and ``_reselect_leaves``
        calls made inside and outside a chunk start."""
        sim = VectorBootstrapSimulation(64, seed=5, config=FAST)
        counts = Counter()
        starting = []
        reselect = _NumpyOps._reselect_leaves
        start_chunk = _NumpyOps.start_chunk

        def counted_reselect(self, *args):
            counts["start reselects" if starting else "absorb reselects"] += 1
            return reselect(self, *args)

        def counted_start(self, states, seeds):
            counts["chunks"] += 1
            counts["started"] += len(states)
            starting.append(True)
            try:
                return start_chunk(self, states, seeds)
            finally:
                starting.pop()

        monkeypatch.setattr(_NumpyOps, "_reselect_leaves", counted_reselect)
        monkeypatch.setattr(_NumpyOps, "start_chunk", counted_start)
        before = snapshot(sim)
        for _ in range(3):
            sim.run_cycle()
        # Warm indeed: every node started and tables are still filling.
        assert not sim.measure().is_perfect
        assert snapshot(sim) != before
        return counts

    def test_wave_absorb_calls_no_per_node_transition(self, monkeypatch):
        for name in self.PER_NODE:
            assert not hasattr(_NumpyOps, name), name
        setters = [
            name
            for name, value in vars(ArenaState).items()
            if isinstance(value, property) and value.fset is not None
        ]
        assert setters == []
        assert self._warm_run(monkeypatch)["absorb reselects"] > 0

    def test_starts_reselect_once_per_chunk(self, monkeypatch):
        """Positive control: the chunk start seeds all of a chunk's
        starting nodes through one reselect, never one per node."""
        counts = self._warm_run(monkeypatch)
        assert counts["started"] == 64
        assert 0 < counts["start reselects"] <= counts["chunks"]
        assert counts["chunks"] < counts["started"]

    def test_reselect_that_rejects_everything_keeps_caches(self):
        """In one batched reselect, a row whose candidates all lose is
        left untouched -- leaf, clean deficit, valid dense cache --
        while a row given a closer candidate is rewritten, dirty, and
        drops its dense cache."""
        sim = converged_sim(seed=19)
        ops = sim._ops
        arena = ops.arena
        sim.measure()
        space = FAST.space
        kept, moved = list(sim.nodes.values())[:2]
        ranks = np.array([kept.rank, moved.rank])
        universe = sim._wave_universe()
        ops._leaf_keys(ranks, universe, universe.size)
        assert arena.leaf_dense_valid[ranks].all()
        before = {state.rank: state.leaf.copy() for state in (kept, moved)}

        def ring(a, b):
            return min((a - b) % space.size, (b - a) % space.size)

        # The live id farthest from *kept*, and an id right next to
        # *moved* that is not in the network.
        far = max(
            (nid for nid in sim.nodes if nid not in kept.leaf.tolist()),
            key=lambda nid: ring(nid, kept.node_id),
        )
        closer = (moved.node_id + 1) % space.size
        assert closer not in sim.nodes
        ops._reselect_leaves(
            ranks,
            np.array([0, 1], dtype=np.intp),
            np.array([far, closer], dtype=np.uint64),
        )
        assert kept.leaf.tolist() == before[kept.rank].tolist()
        assert not arena.stats_dirty[kept.rank]
        assert arena.leaf_dense_valid[kept.rank]
        leaf = before[moved.rank]
        expected = sorted(
            select_balanced_ids(
                space,
                moved.node_id,
                [*leaf.tolist(), closer],
                FAST.half_leaf_set,
            )
        )
        assert moved.leaf.tolist() == expected != leaf.tolist()
        assert arena.stats_dirty[moved.rank]
        assert not arena.leaf_dense_valid[moved.rank]


def view_sim(capacity, ids=(10, 20, 30, 50, 70, 90)):
    """A NEWSCAST simulation over hand-picked ids with views of
    *capacity*, every row emptied for hand-made views."""
    sim = VectorBootstrapSimulation(
        ids=list(ids),
        config=FAST,
        sampler="newscast",
        newscast_view_size=capacity,
    )
    sim._ops.arena.views.len[:] = 0
    return sim


def set_view(sim, node_id, pairs):
    """Install *pairs* -- ``(id, timestamp)`` in view order -- as
    *node_id*'s row, and return the same view as a dict view."""
    views = sim._ops.arena.views
    rank = sim.nodes[node_id].rank
    views.ids[rank, : len(pairs)] = [nid for nid, _ in pairs]
    views.ts[rank, : len(pairs)] = [ts for _, ts in pairs]
    views.len[rank] = len(pairs)
    view = VectorNewscastView(node_id, views.ids.shape[1])
    view.entries = {nid: float(ts) for nid, ts in pairs}
    return view


def merge_both(sim, receiver, sender, now):
    """One engine merge of *sender*'s payload into *receiver*'s row
    (``_NumpyOps.merge_views``) and the same merge through dict views;
    both views must agree.  Returns the engine row ``(ids, ts)``."""
    views = sim._ops.arena.views
    nodes = sim.nodes
    oracle = {}
    for node_id in (receiver, sender):
        rank = nodes[node_id].rank
        ids, ts = view_row(views, rank)
        oracle[node_id] = set_view(sim, node_id, list(zip(ids, ts, strict=True)))
    oracle[sender].now = float(now)
    oracle[receiver].merge(oracle[sender].payload())
    sim._ops.merge_views([nodes[receiver].rank], [nodes[sender].rank], now)
    row = view_row(views, nodes[receiver].rank)
    assert row == view_entries(oracle[receiver])
    return row


class TestVectorNewscastView:
    """The NEWSCAST view rows, hand-made cases against the dict view
    (the whole-run replay is ``TestNewscastReplay`` in
    ``tests/test_engine_vector_arena.py``)."""

    def test_merge_keeps_freshest_with_id_tiebreak(self):
        sim = view_sim(capacity=2)
        set_view(sim, 10, [(20, 1)])
        set_view(sim, 30, [(10, 9), (50, 2)])
        # Over capacity: (-timestamp, id) order; the receiver's own id
        # never enters its view.
        assert merge_both(sim, 10, 30, now=2) == ([30, 50], [2, 2])
        set_view(sim, 90, [(50, 1)])
        assert merge_both(sim, 10, 90, now=5) == ([90, 30], [5, 2])
        set_view(sim, 20, [(30, 7)])
        assert merge_both(sim, 10, 20, now=6) == ([30, 20], [7, 6])

    def test_select_and_sample_bounds(self):
        sim = view_sim(capacity=8)
        ops = sim._ops
        rank = sim.nodes[10].rank
        ranks = np.array([rank])
        assert ops.view_picks(ranks, np.array([0.5])) == [None]
        set_view(sim, 10, [(30, 0), (50, 0), (70, 0)])
        assert ops.view_picks(ranks, np.array([0.999999])) == [70]
        assert ops.view_picks(ranks, np.array([0.0])) == [30]
        rows, lens = ops.view_samples(ranks, 2, np.array([[0.9, 0.1]]))
        sampled = rows[0, : lens[0]].tolist()
        assert sampled == sample_distinct([30, 50, 70], 2, [0.9, 0.1])
        assert len(set(sampled)) == 2 and set(sampled) <= {30, 50, 70}
        rows, lens = ops.view_samples(ranks, 5, np.zeros((1, 5)))
        assert rows[0, : lens[0]].tolist() == [30, 50, 70]
        _, lens = ops.view_samples(ranks, 0, np.zeros((1, 0)))
        assert lens.tolist() == [0]

    def test_payload_carries_own_stamp(self):
        sim = view_sim(capacity=4)
        set_view(sim, 10, [(30, 0)])
        set_view(sim, 70, [(20, 1)])
        ids, ts = merge_both(sim, 10, 70, now=3)
        assert (70, 3) in zip(ids, ts, strict=True)

    def test_merge_without_new_ids_keeps_order(self):
        """No new id: every entry keeps its position, the fresher
        timestamps are taken in place (neither id order nor
        freshness order)."""
        sim = view_sim(capacity=3)
        set_view(sim, 30, [(50, 0), (70, 0), (10, 0)])
        set_view(sim, 50, [(10, 2), (30, 2), (70, 2)])
        assert merge_both(sim, 30, 50, now=3) == ([50, 70, 10], [3, 2, 2])

    def test_merge_under_capacity_appends_in_payload_order(self):
        sim = view_sim(capacity=5)
        set_view(sim, 10, [(50, 1), (70, 1)])
        set_view(sim, 30, [(90, 2), (20, 2), (70, 0)])
        assert merge_both(sim, 10, 30, now=3) == (
            [50, 70, 90, 20, 30],
            [1, 1, 2, 2, 3],
        )

    def test_recycled_rank_starts_from_its_seeded_row(self):
        sim = VectorBootstrapSimulation(24, seed=3, config=FAST, sampler="newscast")
        sim.run(4, stop_when_perfect=False)
        victim = sim.live_ids[0]
        rank = sim.nodes[victim].rank
        views = sim._ops.arena.views
        # Four gossip cycles in, the victim's view is every other node
        # with fresh timestamps.
        assert views.len[rank] == 23 and views.ts[rank, :23].max() > 0
        sim.kill_node(victim)
        joiner = sim.spawn_node()
        assert joiner.rank == rank
        seeds = sim.registry.sample(
            sim._newscast_view_size,
            sim._source.derive(("newscast-join", joiner.node_id)),
            exclude_id=joiner.node_id,
        )
        assert view_row(views, rank) == (seeds, [0] * len(seeds))


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
