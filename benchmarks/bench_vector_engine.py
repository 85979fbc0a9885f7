"""Engine shoot-out: the vectorised-semantics engine versus the
reference.

Unlike ``bench_fast_engine.py`` -- whose two contestants are
bit-identical, so a converge-and-stop run is automatically the same
workload -- the vector engine runs a documented seeded-but-different
RNG stream.  The protocol therefore fixes the workload explicitly:
one simulation per engine on the same seed, pinned to
``stop_when_perfect=False`` so neither contestant can shorten its
budget, warmed through the convergence transient, and then the
**sustained** window timed in interleaved reference/vector cycle
pairs.  Pairing is the point: both engines feel the same machine-load
drift within each ~1 s pair, so slow background noise cancels out of
the summed ratio instead of corrupting a subtraction of two runs
taken half a minute apart.  Sustained cycles/sec is the number that
matters for the production north star (long-running service, steady
churn); the full-run ratio -- transient included -- is reported
alongside for transparency.

Gate: the sustained ratio must reach ``MIN_SPEEDUP`` (5.2x).  A
statistical sanity check asserts both engines actually converged
during warm-up, so the sustained window never compares different
workload phases.

A second gate bounds the engine's *memory* footprint: tracemalloc peak
bytes per node over a built-and-warmed simulation must stay under
``MAX_BYTES_PER_NODE``, so the pool-resident slabs cannot silently
regress toward per-object allocator overhead.  The artefact reports
the footprint plus the process's peak RSS for before/after diffing.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.analysis import render_table
from repro.engine_vector import VectorBootstrapSimulation
from repro.simulator import BootstrapSimulation

from common import bench_sizes, emit, size_label

#: Sustained-window floor.  Once a static network has settled, the
#: vector engine skips every message to a settled receiver, so the
#: sustained window times cycles that build no message: measured
#: 137.7x / 100.1x at 2^11 / 2^12, against 16.8x / 13.3x for the full
#: run, the only column that still compares the kernels.  The floor
#: sits far below both and guards only against a gross slowdown of the
#: whole engine, not the kernels' speed (ROADMAP item 12(c)).
MIN_SPEEDUP = 5.2

#: Cycles of warm-up (covers convergence at the bench sizes, ~10-14
#: cycles) and of sustained measurement.
WARMUP_CYCLES = 14
SUSTAIN_CYCLES = 10

#: Memory-profile population and bytes-per-node ceiling (tracemalloc
#: peak over simulation build plus warm-up, divided by the population).
#: Measured ~9.7 KiB/node at 2048 nodes (the peak mixes per-node state
#: with shared structures such as the wave buffers); the ceiling sits
#: ~60% above, so it catches a layout regression -- a pool that stops
#: compacting, a cache pinning superseded buffers -- not allocator
#: noise.
MEM_PROFILE_SIZE = 2048
MAX_BYTES_PER_NODE = 16_000


def shootout_sizes():
    """Bench sizes clamped to the vectorised regime.

    The sustained ratio has an amortisation knee near 2^11 nodes:
    below it each wave's fixed costs (kernel dispatch, the flush glue)
    occupy a double-digit share of the vector cycle and the shoot-out
    measures overhead, not throughput (~8x at 2^10 versus ~9.5x from
    2^11 up).  Sizes under the knee are doubled into the sustained
    regime so the floor gates the engine's steady-state claim.
    """
    return sorted(
        {size if size >= 2048 else 2 * size for size in bench_sizes()}
    )


def _timed_windows(size: int):
    """Per-engine (sustained_wall, full_wall, final_leaf_fraction).

    One simulation per engine on the same seed, warmed through the
    convergence transient (every cycle measured, no early stop), then
    ``SUSTAIN_CYCLES`` raw engine cycles timed in interleaved
    reference/vector pairs.  The paired sums are what the ratio is
    taken over, so machine-load drift slower than one pair (~1 s)
    divides out instead of accumulating across separately-timed runs.
    """
    seed = 100 + size
    ref = BootstrapSimulation(size, seed=seed)
    vec = VectorBootstrapSimulation(size, seed=seed)
    t0 = time.perf_counter()
    ref_res = ref.run(WARMUP_CYCLES, stop_when_perfect=False)
    t1 = time.perf_counter()
    vec_res = vec.run(WARMUP_CYCLES, stop_when_perfect=False)
    t2 = time.perf_counter()
    ref_warm, vec_warm = t1 - t0, t2 - t1
    ref_wall = vec_wall = 0.0
    for _ in range(SUSTAIN_CYCLES):
        t0 = time.perf_counter()
        ref.run_cycle()
        t1 = time.perf_counter()
        vec.run_cycle()
        t2 = time.perf_counter()
        ref_wall += t1 - t0
        vec_wall += t2 - t1
    return {
        "reference": (
            ref_wall,
            ref_warm + ref_wall,
            ref_res.samples[-1].leaf_fraction,
        ),
        "vector": (
            vec_wall,
            vec_warm + vec_wall,
            vec_res.samples[-1].leaf_fraction,
        ),
    }


def _ratios(windows):
    sustained = windows["reference"][0] / windows["vector"][0]
    full = windows["reference"][1] / windows["vector"][1]
    return sustained, full


def run_shootout():
    floor = MIN_SPEEDUP
    rows = []
    ratios = {}
    for size in shootout_sizes():
        windows = _timed_windows(size)
        sustained, full = _ratios(windows)
        # Up to two retries keeping the best pair: the interleaved
        # timing cancels slow load drift, but a single attempt still
        # absorbs GC pauses and scheduler stalls; a genuine
        # regression fails every attempt.
        for _ in range(2):
            if sustained >= floor:
                break
            retry_windows = _timed_windows(size)
            retry_sustained, retry_full = _ratios(retry_windows)
            if retry_sustained > sustained:
                sustained, full = retry_sustained, retry_full
                windows = retry_windows
        # Statistical sanity: the warm-up really covered convergence
        # on both engines, so the sustained windows are comparable.
        assert windows["reference"][2] <= 5e-3, (
            f"{size_label(size)}: reference not converged after warm-up"
        )
        assert windows["vector"][2] <= 5e-3, (
            f"{size_label(size)}: vector engine not converged after "
            "warm-up (statistical regression, not a speed problem)"
        )
        ratios[size] = sustained
        ref_wall = windows["reference"][0]
        sustain_wall = windows["vector"][0]
        rows.append(
            [
                size_label(size),
                f"{SUSTAIN_CYCLES / ref_wall:.2f}",
                f"{SUSTAIN_CYCLES / sustain_wall:.2f}",
                f"{sustained:.2f}x",
                f"{full:.2f}x",
            ]
        )
    return rows, ratios


def memory_profile() -> float:
    """Tracemalloc peak bytes per node: build one simulation and run
    the warm-up window."""
    size = MEM_PROFILE_SIZE
    tracemalloc.start()
    try:
        sim = VectorBootstrapSimulation(size, seed=5)
        sim.run(WARMUP_CYCLES, stop_when_perfect=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / size


def peak_rss_bytes() -> int | None:
    """The process's lifetime peak RSS (report-only; ``None`` where
    the resource module is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def memory_lines(bytes_per_node: float) -> str:
    """Render the memory section of the artefact."""
    rss = peak_rss_bytes()
    rss_part = (
        f"; peak RSS {rss / 2**20:.1f} MiB" if rss is not None else ""
    )
    return (
        f"memory: {bytes_per_node / 1024:.1f} KiB/node (tracemalloc "
        f"peak over build + {WARMUP_CYCLES} warm-up cycles at "
        f"{MEM_PROFILE_SIZE} nodes; ceiling "
        f"{MAX_BYTES_PER_NODE / 1024:.1f} KiB/node{rss_part})"
    )


@pytest.mark.benchmark(group="vector_engine")
def test_vector_engine_speedup(benchmark):
    rows, ratios = benchmark.pedantic(run_shootout, rounds=1, iterations=1)

    for size, ratio in ratios.items():
        assert ratio >= MIN_SPEEDUP, (
            f"{size_label(size)}: vector engine only {ratio:.2f}x the "
            f"reference (floor {MIN_SPEEDUP}x)"
        )

    bytes_per_node = memory_profile()
    assert bytes_per_node <= MAX_BYTES_PER_NODE, (
        f"arena state costs {bytes_per_node:.0f} bytes/node at "
        f"{MEM_PROFILE_SIZE} nodes (ceiling {MAX_BYTES_PER_NODE}); the "
        "pool-resident layout regressed"
    )

    text = render_table(
        [
            "size",
            "reference cyc/s",
            "vector cyc/s",
            "sustained",
            "full run",
        ],
        rows,
        title=(
            "engine shoot-out: vectorised-semantics engine throughput, "
            f"sustained window of {SUSTAIN_CYCLES} post-convergence "
            f"cycles (target >= {MIN_SPEEDUP}x)"
        ),
    )
    text = "\n".join([text, memory_lines(bytes_per_node)])
    emit("vector_engine", text, engine="reference+vector")
