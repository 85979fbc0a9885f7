"""``vector_static`` and ``vector_churn``: the workhorse engine.

Both run :class:`VectorBootstrapSimulation` for a fixed cycle budget
(no early stop, so host time does not depend on when a seed happens
to converge).  ``vector_static`` is the read path -- the *warm* cycles
while tables grow and the *sustained* cycles after perfection.
``vector_churn`` is the same layer with writes beside the reads:
``kill_node``/``spawn_node`` every cycle, the perfect-table oracle
rebuilt on every ``measure()``, drop coins, vector NEWSCAST.
"""

from __future__ import annotations

import random
import statistics
import tracemalloc
from dataclasses import replace

from harness import (
    Context,
    PassOutcome,
    Stopwatch,
    crossing_cycle,
    derive,
    first_perfect,
    mean_missing,
    perfect_metrics,
    sample_rows,
    time_calls,
)
from spans import Tracer, summarize

#: The run counts as converged at this mean missing fraction.  Perfect
#: tables are reported too (per layer), but the vector engine's last
#: few entries have a heavy tail (N=4096 seeds range 13..27+ cycles),
#: far too wide for a regression bound.
STATIC_THRESHOLD = 1e-3
#: Under 1 %/cycle churn without eviction the missing fraction bottoms
#: out near 0.13, so the churn workload targets 80 % completeness.
CHURN_THRESHOLD = 0.2
CHURN_RATE = 0.01
#: ``bytes_per_node`` is measured on a quarter-size population for a
#: few cycles: tracemalloc slows the engine several times over.
MEMORY_CYCLES = 3
MEMORY_SHRINK = 4


class VectorWorkload:
    """Fixed-budget vector-engine runs, with or without churn."""

    def __init__(self, ctx: Context, *, churn: bool) -> None:
        self.ctx = ctx
        self.churn = churn
        self.name = "vector_churn" if churn else "vector_static"
        if churn:
            self.size, self.cycles = (96, 10) if ctx.smoke else (512, 12)
            self.threshold = CHURN_THRESHOLD
        else:
            self.size, self.cycles = (96, 12) if ctx.smoke else (1024, 16)
            self.threshold = STATIC_THRESHOLD
        self._ready: dict[int, object] = {}

    # -- inputs --------------------------------------------------------

    def _spec(self, index: object):
        from repro.simulator.experiment import ExperimentSpec
        from repro.simulator.network import RELIABLE, NetworkModel

        return ExperimentSpec(
            size=self.size,
            seed=derive(self.ctx.seed, self.name, index),
            network=NetworkModel(drop_probability=0.2) if self.churn else RELIABLE,
            sampler="newscast" if self.churn else "oracle",
            max_cycles=self.cycles,
            stop_when_perfect=False,
            engine="vector",
        )

    def _schedules(self) -> list:
        from repro.simulator.failures import Churn

        return [Churn(rate=CHURN_RATE)] if self.churn else []

    def setup(self) -> None:
        from repro.simulator.experiment import build_simulation

        self._ready[0] = build_simulation(self._spec(0))

    # -- one pass ------------------------------------------------------

    def run_pass(self, index: int, tracer: Tracer | None) -> PassOutcome:
        from repro.simulator.experiment import build_simulation

        spec = self._spec(index)
        schedules = self._schedules()
        clock = Stopwatch()
        layer: dict[str, float] = {}
        if tracer is None:
            sim = self._ready.pop(index, None) or build_simulation(spec)
            # The stopwatch rides along as a schedule: one unit per cycle.
            with clock.timed():
                result = sim.run(
                    self.cycles, stop_when_perfect=False, schedules=[clock, *schedules]
                )
            samples = result.samples
            messages = result.transport["sent"]
        else:
            with tracer.span("engine_vector.build"):
                sim = build_simulation(spec)
            with clock.timed():
                for cycle in range(self.cycles):
                    for schedule in schedules:
                        with tracer.span("engine_vector.schedule_apply"):
                            schedule.apply(sim, cycle)
                    with tracer.span("engine_vector.run_cycle"):
                        sim.run_cycle()
                    with tracer.span("engine_vector.measure"):
                        sim.measure()
            samples = tuple(sim.tracker.samples)
            messages = 0
        return self._outcome(clock, sim, samples, schedules, messages, layer)

    def _outcome(self, clock, sim, samples, schedules, messages, layer):
        cycles = [s.cycle for s in samples]
        missing = [mean_missing(s) for s in samples]
        reached = crossing_cycle(cycles, missing, self.threshold)
        perfect_at = first_perfect(samples)
        checks = [
            ("one sample per cycle", cycles == [float(c + 1) for c in range(self.cycles)]),
            (
                "fractions in [0, 1]",
                all(
                    0.0 <= s.leaf_fraction <= 1.0 and 0.0 <= s.prefix_fraction <= 1.0
                    for s in samples
                ),
            ),
        ]
        population = sim.population
        for churn in schedules:
            checks.append(
                (
                    "population follows the churn arithmetic",
                    churn.departures > 0
                    and population == self.size - churn.departures + churn.arrivals,
                )
            )
        if not schedules:
            checks.append(("population unchanged", population == self.size))
        layer["population"] = population
        return PassOutcome(
            units=clock.units,
            node_cycles=float(self.size * self.cycles),
            messages=float(messages),
            cycles_to_converge=float(self.cycles) if reached is None else reached,
            final_completeness=1.0 - missing[-1],
            operations=1,
            failed_operations=0 if reached is not None else 1,
            checks=checks,
            simulated={"samples": sample_rows(samples), "population": population},
            perfect_at=perfect_at,
            layer=layer,
        )

    # -- per-layer metrics (traced run) --------------------------------

    def layer_metrics(self, untraced, traced, tracer: Tracer) -> dict[str, float]:
        node_cycles = sum(p.node_cycles for p in traced)
        cycle_times = tracer.durations("engine_vector.run_cycle")
        warm: list[float] = []
        sustained: list[float] = []
        for index, outcome in enumerate(traced):
            times = cycle_times[index * self.cycles : (index + 1) * self.cycles]
            split = self.cycles if outcome.perfect_at is None else int(outcome.perfect_at)
            warm.extend(times[:split])
            sustained.extend(times[split:])
        passes = len(traced)
        metrics = {
            "engine_vector.build_s": statistics.median(
                tracer.durations("engine_vector.build")
            ),
            "engine_vector.warm_cycle_s": sum(warm) / passes,
            "engine_vector.warm_cycle_ms_p50": statistics.median(warm) * 1e3,
            "engine_vector.measure_s": tracer.total("engine_vector.measure") / passes,
            "engine_vector.schedule_apply_s": (
                tracer.total("engine_vector.schedule_apply") / passes
            ),
            "engine_vector.us_per_node_cycle": sum(cycle_times) / node_cycles * 1e6,
            "engine_vector.node_cycles": node_cycles / passes,
            "engine_vector.live_population_end": traced[-1].layer["population"],
            "engine_vector.final_missing_fraction": statistics.fmean(
                1.0 - p.final_completeness for p in untraced
            ),
            "engine_vector.bytes_per_node": self._bytes_per_node(),
            **perfect_metrics("engine_vector", untraced),
        }
        if sustained:
            summary = summarize(sustained)
            metrics["engine_vector.sustained_cycle_ms_p50"] = summary["p50"] * 1e3
            metrics["engine_vector.sustained_cycle_ms_phi"] = summary["phi"] * 1e3
        metrics.update(self._shared_layers())
        return metrics

    def _bytes_per_node(self) -> float:
        """tracemalloc peak of a build plus a few cycles, per node."""
        from repro.simulator.experiment import build_simulation

        spec = replace(self._spec("memory"), size=self.size // MEMORY_SHRINK)
        tracemalloc.start()
        try:
            sim = build_simulation(spec)
            sim.run(MEMORY_CYCLES, stop_when_perfect=False, schedules=self._schedules())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / spec.size

    def _shared_layers(self) -> dict[str, float]:
        """Layers below the engine that this workload leans on."""
        if self.churn:
            # The perfect-table oracle is rebuilt on every measure()
            # after a membership change -- once per cycle here.
            seed = derive(self.ctx.seed, self.name, "reference")
            return {"core.reference_build_s": reference_build_s(self.size, seed)}
        return kernel_timings(derive(self.ctx.seed, self.name, "kernels"))


def reference_build_s(size: int, seed: int, calls: int = 5) -> float:
    """Host seconds to build the perfect tables of *size* random ids."""
    from repro.core.config import PAPER_CONFIG as config
    from repro.core.reference import ReferenceTables

    ids = config.space.random_unique_ids(size, random.Random(seed))
    build_us = time_calls(
        lambda: ReferenceTables(
            config.space, ids, config.leaf_set_size, config.entries_per_slot
        ),
        calls,
    )
    return build_us / 1e6


def kernel_timings(seed: int, union: int = 110, calls: int = 400) -> dict[str, float]:
    """The shared CREATEMESSAGE kernels on a union of ~110 ids (the
    size a warmed node's leaf set + prefix table + samples reaches)."""
    from repro.core.config import PAPER_CONFIG
    from repro.engine_fast import kernels

    config = PAPER_CONFIG
    space = config.space
    ids = space.random_unique_ids(union + 1, random.Random(seed))
    peer, pool = ids[0], ids[1:]
    mask, half_ring, half = space.size - 1, space.half, config.half_leaf_set
    _, rest = kernels.close_and_rest(pool, peer, mask, half_ring, half)
    return {
        "engine_fast.kernels.close_and_rest_us": time_calls(
            lambda: kernels.close_and_rest(pool, peer, mask, half_ring, half), calls
        ),
        "engine_fast.kernels.prefix_part_us": time_calls(
            lambda: kernels.prefix_part(
                rest,
                peer,
                space.bits,
                space.digit_bits,
                space.digit_base - 1,
                config.entries_per_slot,
            ),
            calls,
        ),
    }
