"""``live_chaos``: the deployable stack under scheduled faults.

``run_chaos_scenario`` on the virtual clock, four legs per pass: a
``clean`` leg (partition_heal's cluster shape with an empty schedule)
and the three registered chaos schedules with ``size`` overridden.
``net.codec``, the hub, ``AsyncPeer``'s retry and liveness timers and
``LocalCluster`` are all driven by real frames; the simulation engines
and ``runtime`` are idle.  The clean leg bypasses the retry path, so a
retry-timer or partition change that taxes the fault-free path shows
as a split between legs.

Virtual seconds (``_vs``) come from the event loop's virtual clock and
are simulated; every ``*_s`` wall here is host time.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import replace

from harness import Context, PassOutcome, Stopwatch, derive, time_calls
from spans import Tracer

FAULTY_LEGS = ("chaos_partition_heal", "chaos_flash_crowd", "chaos_targeted_kill")
COUNTERS = (
    "frames_in",
    "retries_sent",
    "exchanges_ok",
    "exchanges_failed",
    "exchange_skips",
    "fallback_exchanges",
    "stale_demotions",
)


class _Sink:
    """A transport that swallows what a detached peer sends."""

    def send(self, data: bytes, address: object) -> None:
        pass


class LiveChaosWorkload:
    name = "live_chaos"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.size = 16 if ctx.smoke else 48
        self._legs: dict[str, object] = {}
        #: Bootstrap cycle length, virtual seconds (the same on every leg).
        self._delta = 0.0

    def setup(self) -> None:
        from repro.net.chaos import ChaosSchedule
        from repro.scenarios.chaos import get_chaos_scenario

        shape = get_chaos_scenario("chaos_partition_heal")
        self._legs["clean"] = replace(
            shape, name="clean", schedule=ChaosSchedule.of(), size=self.size
        )
        for name in FAULTY_LEGS:
            self._legs[name.removeprefix("chaos_")] = replace(
                get_chaos_scenario(name), size=self.size
            )
        self._delta = shape.cycle_length

    # -- one pass ------------------------------------------------------

    def run_pass(self, index: int, tracer: Tracer | None) -> PassOutcome:
        from repro.net.chaos import run_virtual
        from repro.scenarios.chaos import run_chaos_scenario

        seed = derive(self.ctx.seed, self.name, index)
        clock = Stopwatch()
        layer: dict[str, float] = {}
        reports = []
        for leg, spec in self._legs.items():
            start = time.perf_counter()
            with clock.timed():
                if tracer is None:
                    reports.append(run_chaos_scenario(spec, seed=seed))
                else:
                    with tracer.span(f"net.leg.{leg}"):
                        reports.append(run_virtual(_traced_chaos(spec, seed, tracer)))
            layer[f"leg.{leg}.wall"] = time.perf_counter() - start
        return self._outcome(clock, reports, layer)

    def _outcome(self, clock, reports, layer) -> PassOutcome:
        delta = self._delta
        cycles = [
            (r.converged_at if r.converged else r.faults_done_at + spec.budget) / delta
            for r, spec in zip(reports, self._legs.values(), strict=True)
        ]
        checks = []
        for report in reports:
            checks.append(("no peer crashed", report.crashed_peers == 0))
            checks.append(("no bad frame", report.peer_totals.get("frames_bad", 0) == 0))
        layer["datagrams"] = sum(r.hub_counters["datagrams_sent"] for r in reports)
        layer["datagrams_clean"] = reports[0].hub_counters["datagrams_sent"]
        layer["datagrams_blocked"] = sum(r.hub_counters["datagrams_blocked"] for r in reports)
        for counter in COUNTERS:
            layer[counter] = sum(r.peer_totals.get(counter, 0) for r in reports)
        layer["virtual_s"] = sum(r.warmup + c * delta for r, c in zip(reports, cycles, strict=True))
        return PassOutcome(
            units=clock.units,
            node_cycles=float(sum(r.size * c for r, c in zip(reports, cycles, strict=True))),
            messages=float(sum(r.peer_totals.get("messages_sent", 0) for r in reports)),
            cycles_to_converge=statistics.fmean(cycles),
            final_completeness=1.0
            - statistics.fmean(
                (r.final_leaf_fraction + r.final_prefix_fraction) / 2.0 for r in reports
            ),
            operations=len(reports),
            failed_operations=sum(1 for r in reports if not r.converged),
            checks=checks,
            simulated={"reports": [r.to_dict() for r in reports]},
            layer=layer,
        )

    # -- per-layer metrics (traced run) --------------------------------

    def layer_metrics(self, untraced, traced, tracer: Tracer) -> dict[str, float]:
        from repro.net.chaos import run_virtual

        passes = len(traced)

        def mean(key: str, outcomes=untraced) -> float:
            return statistics.fmean(o.layer[key] for o in outcomes)

        def phase(name: str) -> float:
            return tracer.total(f"net.phase.{name}") / passes

        measures = tracer.durations("net.cluster.measure")
        wall = statistics.median(o.wall for o in untraced)
        exchanges = mean("exchanges_ok") + mean("exchanges_failed") + mean("exchange_skips")
        metrics = {f"net.leg.{leg}.wall_s": mean(f"leg.{leg}.wall") for leg in self._legs}
        metrics.update(
            {
                "net.cluster.create_s": tracer.total("net.cluster.create") / passes,
                "net.cluster.measure_ms_p50": statistics.median(measures) * 1e3,
                "net.cluster.measure_s": sum(measures) / passes,
                "net.phase.warmup_s": phase("warmup"),
                "net.phase.faults_s": phase("faults"),
                "net.phase.converge_s": phase("converge"),
                "net.phase.shutdown_s": phase("shutdown"),
                "net.datagrams_sent": mean("datagrams"),
                "net.datagrams_blocked": mean("datagrams_blocked"),
                "net.useful_exchange_ratio": mean("exchanges_ok") / exchanges,
                "net.msg_overhead_ratio": (
                    (mean("datagrams") - mean("datagrams_clean"))
                    / len(FAULTY_LEGS)
                    / mean("datagrams_clean")
                ),
                "net.virtual_s_per_host_s": mean("virtual_s") / wall,
                "net.virtual_s_to_perfect": statistics.fmean(
                    o.cycles_to_converge for o in untraced
                )
                * self._delta,
                "net.msgs_to_perfect": statistics.fmean(
                    o.messages / (self.size * len(self._legs)) for o in untraced
                ),
                "net.datagrams_per_s": mean("datagrams") / wall,
            }
        )
        for counter in COUNTERS:
            metrics[f"net.{counter}"] = mean(counter)
        micro = run_virtual(self._micro(derive(self.ctx.seed, self.name, "micro")))
        metrics.update(micro)
        metrics["net.codec.est_share"] = (
            mean("frames_in") * micro["net.codec.decode_us"]
            + mean("datagrams") * micro["net.codec.encode_us"]
        ) / 1e6 / wall
        return metrics

    async def _micro(self, seed: int) -> dict[str, float]:
        """Host cost of one frame at each stop of the datapath, on
        frames built from a converged cluster's real messages."""
        from repro.core.config import PAPER_CONFIG
        from repro.net import codec
        from repro.net.chaos import ChaosHub, LinkFaults
        from repro.net.cluster import LocalCluster
        from repro.net.transport import LoopbackHub

        config = PAPER_CONFIG.with_overrides(cycle_length=0.05)
        cluster = await LocalCluster.create(self.size, seed=seed, config=config)
        try:
            cluster.start_sampling_layer()
            await cluster.warmup(0.4)
            cluster.broadcast_start()
            await cluster.await_convergence(4.0)
            peers = cluster.live_peers()
            receivers = peers[1:] + peers[:1]
            messages = [
                sender.bootstrap.create_message(receiver.descriptor)
                for sender, receiver in zip(peers, receivers, strict=True)
            ]
        finally:
            await cluster.shutdown()
        frames = [codec.encode_bootstrap(message) for message in messages]
        rounds = max(1, 1000 // len(frames))

        def each(function, items) -> float:
            return time_calls(lambda: [function(item) for item in items], rounds) / len(items)

        encode_us = each(codec.encode_bootstrap, messages)
        decode_us = each(codec.decode_message, frames)
        plain = LoopbackHub()
        faulty = ChaosHub(
            faults=LinkFaults(drop=0.1, duplicate=0.05, jitter=0.01),
            rng=random.Random(seed),
        )
        # Nothing is registered on either hub, so the queued deliveries
        # find no endpoint; only the send path is timed.
        hub_us = time_calls(lambda: plain.send(frames[0], "a", "b"), 2000)
        chaos_us = time_calls(lambda: faulty.send(frames[0], "a", "b"), 2000)
        await asyncio.sleep(0.1)
        for peer in peers:
            peer.attach(_Sink())
        deliveries = list(zip(receivers, frames, peers, strict=True))
        datagram_us = each(
            lambda d: d[0].on_datagram(d[1], d[2].address), deliveries
        )
        return {
            "net.codec.encode_us": encode_us,
            "net.codec.decode_us": decode_us,
            "net.codec.frame_bytes_mean": statistics.fmean(len(f) for f in frames),
            "net.hub.send_us": hub_us,
            "net.chaos_hub.send_us": chaos_us,
            "net.peer.on_datagram_us": datagram_us,
        }


async def _traced_chaos(spec, seed: int, tracer: Tracer):
    """``run_chaos_scenario``'s deployment story rebuilt from its public
    pieces, with a span around each phase.

    The convergence wait is ``LocalCluster.await_convergence``'s own
    loop (same 0.05 s poll, same final measure), so every timer fires
    exactly as in the untraced run and the report must come out equal.
    """
    from repro.core.config import PAPER_CONFIG
    from repro.net.chaos import ChaosController, ChaosHub
    from repro.net.cluster import LocalCluster
    from repro.scenarios.chaos import ChaosRunReport
    from repro.simulator.random_source import RandomSource

    source = RandomSource(seed)
    hub = ChaosHub(rng=source.derive("chaos-hub"))
    config = PAPER_CONFIG.with_overrides(cycle_length=spec.cycle_length)
    with tracer.span("net.cluster.create"):
        cluster = await LocalCluster.create(
            spec.size,
            seed=seed,
            config=config,
            hub=hub,
            view_size=spec.view_size,
            newscast_interval=spec.newscast_interval,
            seed_contacts=spec.seed_contacts,
        )
    try:
        with tracer.span("net.phase.warmup"):
            if spec.dormant_fraction:
                cluster.hold_back(spec.dormant_fraction, source.derive("dormant"))
            cluster.start_sampling_layer()
            await cluster.warmup(spec.warmup)
        cluster.broadcast_start()
        loop = asyncio.get_running_loop()
        started = loop.time()
        with tracer.span("net.phase.faults"):
            controller = ChaosController(
                cluster, hub, spec.schedule, source.derive("controller")
            )
            events = tuple(await controller.run())
        faults_done_at = loop.time() - started
        with tracer.span("net.phase.converge"):
            deadline = loop.time() + spec.budget
            converged = False
            while loop.time() < deadline:
                with tracer.span("net.cluster.measure"):
                    converged = cluster.measure().is_perfect
                if converged:
                    break
                await asyncio.sleep(0.05)
            else:
                converged = cluster.measure().is_perfect
        converged_at = (loop.time() - started) if converged else None
        final = cluster.measure()
        peer_totals: dict[str, int] = {}
        for peer in cluster.live_peers():
            stats = peer.bootstrap.stats
            for key, value in (
                *peer.resilience_snapshot().items(),
                ("messages_sent", stats.messages_sent),
                ("messages_received", stats.messages_received),
            ):
                peer_totals[key] = peer_totals.get(key, 0) + value
    finally:
        with tracer.span("net.phase.shutdown"):
            crash_report = await cluster.shutdown()
    return ChaosRunReport(
        name=spec.name,
        seed=seed,
        size=spec.size,
        converged=converged,
        warmup=spec.warmup,
        faults_done_at=faults_done_at,
        converged_at=converged_at,
        time_to_functional=(
            converged_at - faults_done_at if converged_at is not None else None
        ),
        final_leaf_fraction=final.leaf_fraction,
        final_prefix_fraction=final.prefix_fraction,
        events=events,
        peer_totals=peer_totals,
        hub_counters=hub.counters(),
        crashed_peers=len(crash_report),
    )
