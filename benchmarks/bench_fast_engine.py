"""Engine shoot-out: the array-backed kernel versus the reference.

Runs the ``engines_shootout`` registry scenario pinned to the
reference and fast engines -- the engine axis puts both contestants on
the *same seeded experiments* -- verifies the trajectories are
**bit-identical** (the differential contract pinned by
``tests/test_engine_fast.py``), and reports the throughput ratio from
the per-shard wall times the runner records.  The gate is
``MIN_SPEEDUP`` for the active kernel backend; the artefact records
the measured ratio so regressions show up as diffs of
``results/fast_engine.txt``.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.scenarios import run_scenario

from common import bench_scenario, bench_sizes, emit, size_label

from repro.engine_fast import kernels

#: Wall-clock noise floors per kernel backend, under the measured
#: ratios so machine load cannot spuriously fail the gate.  Measured
#: at the default sizes (2^10 / 2^12) on a 2-core x86 box: numpy
#: 1.39x / 1.41x, pure-Python fallback 1.61x / 1.47x; the ledger's
#: ``exact_pair`` reads 1.35x.  The ratios sit where they do because
#: the reference shares the single-sort CREATEMESSAGE split the fast
#: engine's Python leg uses, and both engines skip settled receivers.
MIN_SPEEDUP = {"numpy": 1.2, "python": 1.1}


def _shootout_scenario(sizes=None):
    return bench_scenario(
        "engines_shootout",
        sizes=tuple(sizes if sizes is not None else bench_sizes()),
        replicas=1,
        engines=("reference", "fast"),
    )


def _timed_pairs(outcome):
    """Per-size (reference, fast) column pairs of one scenario run.

    Timing stays in-process (``workers=1``): both engines of a size
    run back-to-back on the same core, so shared-machine load cancels
    out of the ratio.
    """
    pairs = {}
    for size in outcome.spec.grid.sizes:
        ref = outcome.columns_for(size=size, engine="reference")[0]
        fast = outcome.columns_for(size=size, engine="fast")[0]
        pairs[size] = (ref, fast)
    return pairs


def run_shootout():
    floor = MIN_SPEEDUP[kernels.backend()]
    pairs = _timed_pairs(run_scenario(_shootout_scenario(), workers=1))
    rows = []
    ratios = {}
    for size, (ref, fast) in pairs.items():
        ratio = ref.wall_seconds / fast.wall_seconds
        if ratio < floor:
            # One retry, keeping the better pair: a single-shot wall
            # ratio absorbs GC pauses and scheduler stalls; a genuine
            # regression fails both attempts.  Only the dipping size
            # is re-timed (a one-size scenario variant), not the whole
            # grid.
            retry = _timed_pairs(
                run_scenario(_shootout_scenario(sizes=(size,)), workers=1)
            )[size]
            retry_ratio = retry[0].wall_seconds / retry[1].wall_seconds
            if retry_ratio > ratio:
                ref, fast = retry
                ratio = retry_ratio
        # The differential contract: identical trajectories, observed
        # through the columnar transport (curves, counters, endpoint).
        assert list(fast.cycles) == list(ref.cycles)
        assert list(fast.leaf) == list(ref.leaf), (
            f"{size_label(size)}: fast engine diverged from the reference"
        )
        assert list(fast.prefix) == list(ref.prefix)
        assert fast.transport == ref.transport
        assert fast.converged_at == ref.converged_at
        ratios[size] = ratio
        cycles = ref.cycles_run
        rows.append(
            [
                size_label(size),
                cycles,
                f"{cycles / ref.wall_seconds:.2f}",
                f"{cycles / fast.wall_seconds:.2f}",
                f"{ratio:.2f}x",
            ]
        )
    return rows, ratios


@pytest.mark.benchmark(group="fast_engine")
def test_fast_engine_speedup(benchmark):
    rows, ratios = benchmark.pedantic(run_shootout, rounds=1, iterations=1)

    floor = MIN_SPEEDUP[kernels.backend()]
    for size, ratio in ratios.items():
        assert ratio >= floor, (
            f"{size_label(size)}: fast engine only {ratio:.2f}x the "
            f"reference (floor {floor}x on the {kernels.backend()} backend)"
        )

    text = "\n".join(
        [
            render_table(
                [
                    "size",
                    "cycles",
                    "reference cyc/s",
                    "fast cyc/s",
                    "speedup",
                ],
                rows,
                title=(
                    "engine shoot-out: identical trajectories, "
                    f"array-backed kernel throughput (floor {floor}x)"
                ),
            ),
        ]
    )
    emit("fast_engine", text, engine="reference+fast")
