"""``exact_pair``: the object-level protocol, twice.

The same spec runs on ``engine="reference"`` and then on
``engine="fast"``.  ``core`` + ``sampling`` + ``simulator`` do all the
work in the first half and ``engine_fast`` in the second; the numpy
slab code of the vector engine is idle.  Its output check is the
repo's strongest invariant: the two trajectories are bit-identical.
"""

from __future__ import annotations

import random
import statistics

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
from spans import Tracer
from wl_vector import kernel_timings, reference_build_s

THRESHOLD = 1e-3


class ExactPairWorkload:
    name = "exact_pair"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.size, self.cycles = (64, 12) if ctx.smoke else (256, 16)
        self._ready: dict[int, object] = {}

    def _spec(self, index: object, engine: str):
        from repro.simulator.experiment import ExperimentSpec
        from repro.simulator.network import NetworkModel

        return ExperimentSpec(
            size=self.size,
            seed=derive(self.ctx.seed, self.name, index),
            network=NetworkModel(drop_probability=0.2),
            sampler="newscast",
            max_cycles=self.cycles,
            stop_when_perfect=False,
            engine=engine,
        )

    def setup(self) -> None:
        from repro.simulator.experiment import build_simulation

        self._ready[0] = build_simulation(self._spec(0, "reference"))

    # -- one pass ------------------------------------------------------

    def run_pass(self, index: int, tracer: Tracer | None) -> PassOutcome:
        from repro.simulator.experiment import build_simulation

        clock = Stopwatch()
        layer: dict[str, float] = {}
        if tracer is None:
            reference = self._ready.pop(index, None) or build_simulation(
                self._spec(index, "reference")
            )
            fast = build_simulation(self._spec(index, "fast"))
            results = {}
            for engine, sim in (("reference", reference), ("fast", fast)):
                half = Stopwatch()
                # The stopwatch rides along as a schedule: one unit per cycle.
                with clock.timed(), half.timed():
                    results[engine] = sim.run(
                        self.cycles, stop_when_perfect=False, schedules=[clock]
                    )
                layer[f"{engine}_wall"] = half.wall
            ref_result, fast_result = results["reference"], results["fast"]
            ref_samples, fast_samples = ref_result.samples, fast_result.samples
            transports_equal = ref_result.transport == fast_result.transport
            converged = (ref_result.converged_at, fast_result.converged_at)
            messages = ref_result.transport["sent"] + fast_result.transport["sent"]
            layer["exchanges"] = ref_result.transport["exchanges"]
        else:
            reference, ref_samples = self._traced_reference(index, tracer, clock, layer)
            fast, fast_samples = self._traced_fast(index, tracer, clock)
            # Only run() exposes the fast engine's transport counters.
            transports_equal = True
            converged = (first_perfect(ref_samples), first_perfect(fast_samples))
            messages = 0
        cycles = [s.cycle for s in ref_samples]
        missing = [mean_missing(s) for s in ref_samples]
        reached = crossing_cycle(cycles, missing, THRESHOLD)
        checks = [
            ("fast samples equal reference samples", fast_samples == ref_samples),
            ("fast transport counters equal reference", transports_equal),
            ("fast converged_at equals reference", converged[0] == converged[1]),
        ]
        return PassOutcome(
            units=clock.units,
            node_cycles=float(2 * self.size * self.cycles),
            messages=float(messages),
            cycles_to_converge=float(self.cycles) if reached is None else reached,
            final_completeness=1.0 - missing[-1],
            operations=2,
            failed_operations=0 if reached is not None else 2,
            checks=checks,
            simulated={"samples": sample_rows(ref_samples)},
            perfect_at=converged[0],
            layer=layer,
        )

    def _traced_reference(self, index, tracer, clock, layer):
        """The reference half with a span around every layer call.

        ``run_cycle()`` is NEWSCAST's engine then the bootstrap engine,
        so calling the two engines separately is the same execution;
        the protocol and sampler methods the cycle engine calls are
        wrapped for the duration, which nests ``core`` and ``sampling``
        spans inside ``simulator.run_cycle``.
        """
        from repro.core.protocol import BootstrapNode
        from repro.sampling.newscast import NewscastNode
        from repro.simulator.experiment import build_simulation

        with tracer.span("simulator.build"):
            sim = build_simulation(self._spec(index, "reference"))
        targets = [
            (BootstrapNode, "select_peer", "core.select_peer"),
            (BootstrapNode, "create_message", "core.create_message"),
            (BootstrapNode, "absorb", "core.absorb"),
            (NewscastNode, "sample", "sampling.newscast_sample"),
        ]
        with tracer.patched(targets), clock.timed():
            for _ in range(self.cycles):
                with tracer.span("sampling.newscast_cycle"):
                    sim.newscast_engine.run_cycle()
                with tracer.span("simulator.run_cycle"):
                    sim.engine.run_cycle()
                with tracer.span("simulator.measure"), tracer.span("core.tracker_measure"):
                    sim.measure()
        sent = sum(node.stats.messages_sent for node in sim.nodes.values())
        descriptors = sum(node.stats.descriptors_sent for node in sim.nodes.values())
        layer["descriptors_mean"] = descriptors / sent
        layer["exchanges"] = sim.engine.stats.exchanges
        return sim, tuple(sim.tracker.samples)

    def _traced_fast(self, index, tracer, clock):
        from repro.simulator.experiment import build_simulation

        with tracer.span("engine_fast.build"):
            sim = build_simulation(self._spec(index, "fast"))
        with clock.timed():
            for _ in range(self.cycles):
                with tracer.span("engine_fast.run_cycle"):
                    sim.run_cycle()
                with tracer.span("engine_fast.measure"):
                    sim.measure()
        return sim, tuple(sim.tracker.samples)

    # -- per-layer metrics (traced run) --------------------------------

    def layer_metrics(self, untraced, traced, tracer: Tracer) -> dict[str, float]:
        passes = len(traced)
        exchanges = sum(p.layer["exchanges"] for p in traced)
        ref_cycles = tracer.durations("simulator.run_cycle")
        fast_cycles = tracer.durations("engine_fast.run_cycle")
        ref_wall = statistics.median(p.layer["reference_wall"] for p in untraced)
        fast_wall = statistics.median(p.layer["fast_wall"] for p in untraced)

        def mean_us(name: str) -> float:
            return statistics.fmean(tracer.durations(name)) * 1e6

        metrics = {
            "simulator.build_s": statistics.median(tracer.durations("simulator.build")),
            "simulator.run_cycle_s": sum(ref_cycles) / passes,
            "simulator.run_cycle_ms_p50": statistics.median(ref_cycles) * 1e3,
            "simulator.measure_s": tracer.total("simulator.measure") / passes,
            "simulator.node_cycles": float(self.size * self.cycles),
            "simulator.exchanges": exchanges / passes,
            "simulator.us_per_exchange": sum(ref_cycles) / exchanges * 1e6,
            **perfect_metrics("simulator", untraced),
            "core.select_peer_us": mean_us("core.select_peer"),
            "core.create_message_us": mean_us("core.create_message"),
            "core.absorb_us": mean_us("core.absorb"),
            "core.message_descriptors_mean": statistics.fmean(
                p.layer["descriptors_mean"] for p in traced
            ),
            "core.tracker_measure_ms": mean_us("core.tracker_measure") / 1e3,
            "core.reference_build_s": reference_build_s(
                self.size, derive(self.ctx.seed, self.name, "reference")
            ),
            "sampling.newscast_cycle_s": tracer.total("sampling.newscast_cycle") / passes,
            "sampling.newscast_sample_us": mean_us("sampling.newscast_sample"),
            "sampling.oracle_sample_us": self._oracle_sample_us(),
            "engine_fast.build_s": statistics.median(tracer.durations("engine_fast.build")),
            "engine_fast.run_cycle_s": sum(fast_cycles) / passes,
            "engine_fast.run_cycle_ms_p50": statistics.median(fast_cycles) * 1e3,
            "engine_fast.measure_s": tracer.total("engine_fast.measure") / passes,
            "engine_fast.speedup_vs_reference": ref_wall / fast_wall,
            "engine_fast.reference_wall_s": ref_wall,
            "engine_fast.fast_wall_s": fast_wall,
            "engine_fast.identical": float(
                all(ok for p in untraced + traced for _, ok in p.checks)
            ),
        }
        metrics.update(kernel_timings(derive(self.ctx.seed, self.name, "kernels")))
        return metrics

    def _oracle_sample_us(self) -> float:
        """The idealised sampler this workload bypasses, for contrast
        with NEWSCAST's ``sample`` (same count, same population)."""
        from repro.core.config import PAPER_CONFIG
        from repro.core.descriptor import NodeDescriptor
        from repro.sampling.oracle import MembershipRegistry, OracleSampler

        rng = random.Random(derive(self.ctx.seed, self.name, "oracle"))
        registry = MembershipRegistry()
        ids = PAPER_CONFIG.space.random_unique_ids(self.size, rng)
        for address, node_id in enumerate(ids):
            registry.add(NodeDescriptor(node_id=node_id, address=address))
        sampler = OracleSampler(registry, ids[0], rng)
        count = PAPER_CONFIG.random_samples
        return time_calls(lambda: sampler.sample(count), 2000)
