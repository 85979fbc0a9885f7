"""Experiment E12 -- convergence under faults (the chaos soak).

Section 1 sells the bootstrapping service on operational robustness:
routing substrates are produced "despite catastrophic failures, on
demand".  This benchmark drives the *live* asyncio stack -- real
peers, real frames, the fault-injecting :class:`ChaosHub` fabric --
through the registered chaos scenarios and gates on recovery:

* ``chaos_partition_heal`` -- an asymmetric network partition holds
  for a second of bootstrap, then heals; the cluster must reach
  perfect tables within the budget (the hard re-convergence gate);
* ``chaos_flash_crowd`` -- half the pool joins as one surge;
* ``chaos_targeted_kill`` -- the 50% most-referenced peers die
  abruptly, then restart with fresh state through the seed path;
* ``chaos_lossy_links`` -- every link drops 20% of datagrams from the
  start signal on (the paper's no-retransmission loss claim);
* ``chaos_link_delay`` -- every datagram is delayed 0.2 Δ from the
  start signal on.

Every run executes on the virtual clock with seeded randomness, so
the artefact is deterministic: timestamps are virtual seconds and the
message counters reproduce exactly for a given seed.  The headline
metric is **time-to-functional** (virtual seconds from the last fault
event to network-wide perfect tables); message overhead is reported
as the ratio of datagrams sent under faults to a fault-free baseline
of the same scenario shape.

A second gate checks that the cycle abstraction does not manufacture
the paper's results.  At N=512, the fault-free shape,
``chaos_link_delay`` and ``chaos_lossy_links`` run live, measured once
per Δ, and the reference cycle engine (oracle sampler) runs at the
same size and drop rate.  Both must reach < 1% missing entries within
3 cycles of each other, and perfect tables within 8.  The perfection
cycle is a max-statistic over thousands of entries and carries
several cycles of run-to-run noise, so it gets the loose band.  A
report-only column runs the cycle engine once more with the NEWSCAST
sampler (the live stack's sampling layer, one gossip per cycle), so
the table shows how much of the live tail the sampling layer alone
accounts for.

``REPRO_CHAOS_SMOKE=1`` shrinks the soak clusters to CI size (fault
timelines preserved; the N=512 cross-check is unaffected);
``REPRO_CHAOS_BUDGET`` extends the convergence budget for longer soaks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro import seams
from repro.analysis import render_table
from repro.core import PAPER_CONFIG
from repro.net import ChaosController, ChaosHub, ChaosSchedule, LocalCluster, run_virtual
from repro.scenarios import all_chaos_scenarios, get_chaos_scenario, run_chaos_scenario
from repro.simulator import BootstrapSimulation, NetworkModel, RandomSource

from common import RESULTS_DIR, emit

#: Cluster size of the live-versus-cycle-engine cross-check.
CROSS_CHECK_SIZE = 512
#: Cycles either side may run before the cross-check gives up.
CROSS_CHECK_CYCLES = 90


def run_chaos_suite():
    """Every registered chaos scenario plus its fault-free baseline."""
    smoke = seams.flag("REPRO_CHAOS_SMOKE")
    results = []
    for spec in all_chaos_scenarios():
        report = run_chaos_scenario(spec, smoke=smoke)
        # Same cluster shape and seed with an empty fault timeline:
        # the message-overhead denominator.  The flash-crowd reserve
        # is also released (a dormant half would never converge).
        baseline_spec = dataclasses.replace(
            spec,
            name=f"{spec.name}__baseline",
            schedule=ChaosSchedule(),
            dormant_fraction=0.0,
        )
        baseline = run_chaos_scenario(baseline_spec, smoke=smoke)
        results.append((spec, report, baseline))
    return results


@pytest.mark.benchmark(group="chaos")
def test_chaos_convergence_under_faults(benchmark):
    results = benchmark.pedantic(run_chaos_suite, rounds=1, iterations=1)

    rows = []
    for spec, report, baseline in results:
        # The hard gates: the cluster re-converges after every fault
        # timeline, the recovery metric is recorded, and nothing
        # crashed along the way.
        assert report.converged, f"{spec.name} missed its budget"
        assert report.time_to_functional is not None
        assert report.crashed_peers == 0
        assert baseline.converged, f"{spec.name} baseline did not converge"
        assert len(report.events) == len(spec.schedule)

        sent = report.hub_counters["datagrams_sent"]
        baseline_sent = baseline.hub_counters["datagrams_sent"]
        overhead = sent / baseline_sent if baseline_sent else float("inf")
        rows.append(
            [
                report.name,
                report.size,
                len(report.events),
                f"{report.faults_done_at:.2f}",
                f"{report.time_to_functional:.2f}",
                report.peer_totals["exchanges_ok"],
                report.peer_totals["messages_sent"],
                sent,
                f"{overhead:.2f}x",
            ]
        )

    emit(
        "chaos",
        render_table(
            [
                "scenario",
                "peers",
                "events",
                "faults end (s)",
                "time to functional (s)",
                "exchanges ok",
                "messages sent",
                "datagrams",
                "overhead",
            ],
            rows,
            title=(
                "convergence under faults (virtual-clock chaos soak; "
                "overhead vs the fault-free baseline of the same shape)"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "chaos_report.json").write_text(
        json.dumps(
            {
                "runs": [report.to_dict() for _, report, _ in results],
                "baselines": [b.to_dict() for _, _, b in results],
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


def _landmarks(samples):
    """First cycles, over ``(cycle, sample)`` pairs, at which both
    missing fractions fall below 1% (the robust mid-game landmark) and
    at which every table is perfect."""
    samples = list(samples)
    bulk = next(
        (c for c, s in samples if s.leaf_fraction < 0.01 and s.prefix_fraction < 0.01),
        None,
    )
    return bulk, next((c for c, s in samples if s.is_perfect), None)


async def _live_samples(spec, size):
    """*spec*'s deployment story at *size*: convergence samples at the
    start signal (cycle 0) and once per Δ after it, until perfect."""
    source = RandomSource(spec.seed)
    hub = ChaosHub(rng=source.derive("chaos-hub"))
    cluster = await LocalCluster.create(
        size,
        seed=spec.seed,
        config=PAPER_CONFIG.with_overrides(cycle_length=spec.cycle_length),
        hub=hub,
        view_size=spec.view_size,
        newscast_interval=spec.newscast_interval,
        seed_contacts=spec.seed_contacts,
    )
    try:
        cluster.start_sampling_layer()
        await cluster.warmup(spec.warmup)
        cluster.broadcast_start()
        await ChaosController(cluster, hub, spec.schedule, source.derive("controller")).run()
        samples = [cluster.measure()]
        while not samples[-1].is_perfect and len(samples) <= CROSS_CHECK_CYCLES:
            await asyncio.sleep(spec.cycle_length)
            samples.append(cluster.measure())
        return samples
    finally:
        await cluster.shutdown()


def run_cross_check():
    """Live legs against the cycle engine at the same size and drop."""
    delay = get_chaos_scenario("chaos_link_delay")
    legs = (
        ("fault-free", dataclasses.replace(delay, schedule=ChaosSchedule()), 0.0),
        ("link delay 0.2 Δ", delay, 0.0),
        ("20% drop", get_chaos_scenario("chaos_lossy_links"), 0.2),
    )
    rows = []
    for name, spec, drop in legs:
        live = run_virtual(_live_samples(spec, CROSS_CHECK_SIZE))
        cycle = {
            sampler: BootstrapSimulation(
                CROSS_CHECK_SIZE,
                seed=spec.seed,
                network=NetworkModel(drop_probability=drop),
                sampler=sampler,
                newscast_view_size=spec.view_size,
            ).run(CROSS_CHECK_CYCLES)
            for sampler in ("oracle", "newscast")
        }
        rows.append(
            [
                name,
                *_landmarks(
                    (int(sample.cycle), sample) for sample in cycle["oracle"].samples
                ),
                *_landmarks(enumerate(live)),
                # Report-only: the cycle engine on the live stack's
                # sampling layer.
                *_landmarks(
                    (int(sample.cycle), sample) for sample in cycle["newscast"].samples
                ),
            ]
        )
    return rows


@pytest.mark.benchmark(group="chaos")
def test_live_stack_tracks_cycle_engine(benchmark):
    rows = benchmark.pedantic(run_cross_check, rounds=1, iterations=1)

    for name, cycle_bulk, cycle_at, live_bulk, live_at, _, _ in rows:
        assert cycle_at is not None, f"cycle engine failed: {name}"
        assert live_at is not None, f"live cluster failed: {name}"
        assert abs(cycle_bulk - live_bulk) <= 3, (
            f"{name}: live and cycle engine disagree on the bulk "
            f"({live_bulk} vs {cycle_bulk})"
        )
        assert abs(cycle_at - live_at) <= 8, (
            f"{name}: live and cycle engine disagree on perfection "
            f"({live_at} vs {cycle_at})"
        )

    emit(
        "chaos_cross_check",
        render_table(
            [
                "leg",
                "cycle: <1% missing",
                "cycle: perfect",
                "live: <1% missing",
                "live: perfect",
                "cycle NEWSCAST: <1% missing",
                "cycle NEWSCAST: perfect",
            ],
            rows,
            title=(
                f"live stack vs cycle engine, N={CROSS_CHECK_SIZE}: the "
                "cycle abstraction does not manufacture the results"
            ),
        ),
        engine="reference+live",
    )
