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
  start signal on (the paper's no-retransmission loss claim).

Every run executes on the virtual clock with seeded randomness, so
the artefact is deterministic: timestamps are virtual seconds and the
message counters reproduce exactly for a given seed.  The headline
metric is **time-to-functional** (virtual seconds from the last fault
event to network-wide perfect tables); message overhead is reported
as the ratio of datagrams sent under faults to a fault-free baseline
of the same scenario shape.

``REPRO_CHAOS_SMOKE=1`` shrinks the clusters to CI size (fault
timelines preserved); ``REPRO_CHAOS_BUDGET`` extends the convergence
budget for longer soaks.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import seams
from repro.analysis import render_table
from repro.net import ChaosSchedule
from repro.scenarios import all_chaos_scenarios, run_chaos_scenario

from common import RESULTS_DIR, emit


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
