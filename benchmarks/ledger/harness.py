"""Shared pieces of the ledger's workloads: seeds, clocks, pass
outcomes, and the convergence arithmetic every simulation workload
reports.

Host seconds and simulated time are never mixed here: ``Stopwatch``
measures host time only, and everything computed from convergence
samples is in simulated cycles.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Distinct passes of an untraced run (one derived seed each).  Their
#: *simulated* outputs feed the reported metrics, so those are a pure
#: function of ``--seed``; the time that is left repeats the same
#: passes, which adds timing samples only.
FIXED_PASSES = 3
#: Untraced/traced pass pairs of a ``--trace 1`` run.
TRACE_PAIRS = 3


def derive(seed: int, *labels: object) -> int:
    """A 62-bit seed derived from the run seed and *labels*.

    Every input of every workload comes from here, so ``--seed`` is the
    only source of variation and the program only sees generated specs.
    """
    digest = hashlib.sha256(repr((seed, *labels)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Stopwatch:
    """Host wall and CPU seconds of a pass, one ``(wall, cpu)`` entry
    per timed unit.

    A ``timed()`` block is one unit.  Handed to a simulator as the
    first of its ``schedules`` the stopwatch changes nothing, but the
    simulator calls ``apply`` at the start of every cycle, which splits
    the enclosing block into one unit per cycle.

    CPU is user+sys of this process plus every child it has waited
    for, so a CLI child and its pool workers are counted.
    """

    def __init__(self) -> None:
        self.units: list[tuple[float, float]] = []
        self._mark = (0.0, 0.0)

    @property
    def wall(self) -> float:
        return sum(wall for wall, _ in self.units)

    @property
    def cpu(self) -> float:
        return sum(cpu for _, cpu in self.units)

    def _lap(self) -> None:
        now = (time.perf_counter(), _cpu_seconds())
        self.units.append((now[0] - self._mark[0], now[1] - self._mark[1]))
        self._mark = now

    @contextmanager
    def timed(self):
        self._mark = (time.perf_counter(), _cpu_seconds())
        try:
            yield
        finally:
            self._lap()

    def apply(self, sim: object, cycle_index: int) -> None:
        """The schedule protocol: a new cycle ends the previous unit."""
        if cycle_index:
            self._lap()


def time_calls(function: Callable[[], object], calls: int) -> float:
    """Mean host microseconds per call of *function* over *calls* calls."""
    start = time.perf_counter()
    for _ in range(calls):
        function()
    return (time.perf_counter() - start) / calls * 1e6


@dataclass
class Context:
    """What the worker hands every workload."""

    seed: int
    smoke: bool
    scratch: Path


@dataclass
class PassOutcome:
    """One pass of a workload: host time plus its simulated outputs.

    ``simulated`` must be JSON-ready and identical for the same pass
    seed whether or not the pass was traced; the harness checks that.
    """

    #: ``Stopwatch.units`` of the pass: host (wall, cpu) per timed unit.
    units: list[tuple[float, float]]
    node_cycles: float
    messages: float
    cycles_to_converge: float
    final_completeness: float
    operations: int
    failed_operations: int
    checks: list[tuple[str, bool]]
    simulated: dict
    #: First cycle with perfect tables everywhere (``None``: never).
    perfect_at: float | None = None
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(wall for wall, _ in self.units)

    @property
    def cpu(self) -> float:
        return sum(cpu for _, cpu in self.units)


def quiet_seconds(repeats: Sequence[PassOutcome], column: int) -> float:
    """Host seconds of one pass on a quiet host, from its *repeats*.

    Every repeat is the same work on the same input, so it has the
    same units; a busy neighbour on a shared host only ever slows a
    unit down, so the fastest reading of each unit is the one least
    disturbed.  *column* 0 is wall, 1 is CPU.
    """
    return sum(
        min(unit[column] for unit in readings)
        for readings in zip(*(outcome.units for outcome in repeats), strict=True)
    )


def mean_missing(sample) -> float:
    """Mean of a sample's missing-leaf and missing-prefix fractions."""
    return (sample.leaf_fraction + sample.prefix_fraction) / 2.0


def crossing_cycle(
    cycles: Sequence[float], fractions: Sequence[float], threshold: float
) -> float | None:
    """Simulated cycle at which the missing fraction first reaches
    *threshold*, interpolated between measurements.

    The curve starts at (cycle 0, everything missing).  Interpolation
    is log-linear (convergence is roughly exponential) and falls back
    to linear where a fraction is zero.  ``None`` when the curve never
    gets there.
    """
    previous_cycle, previous = 0.0, 1.0
    for cycle, value in zip(cycles, fractions, strict=True):
        if value <= threshold:
            if previous <= threshold:
                return previous_cycle
            if value > 0.0:
                share = math.log(previous / threshold) / math.log(previous / value)
            else:
                share = (previous - threshold) / previous
            return previous_cycle + (cycle - previous_cycle) * share
        previous_cycle, previous = cycle, value
    return None


def sample_rows(samples) -> list[list[float]]:
    """Convergence samples as plain rows (the equality-check form)."""
    return [
        [s.cycle, s.missing_leaf, s.total_leaf, s.missing_prefix, s.total_prefix]
        for s in samples
    ]


def first_perfect(samples) -> float | None:
    return next((s.cycle for s in samples if s.is_perfect), None)


def perfect_metrics(layer: str, outcomes: Sequence[PassOutcome]) -> dict[str, float]:
    """The paper's headline per layer: mean first-perfect cycle of the
    runs that got there, and how many did not within the budget."""
    perfect = [o.perfect_at for o in outcomes if o.perfect_at is not None]
    return {
        f"{layer}.cycles_to_perfect": statistics.fmean(perfect) if perfect else 0.0,
        f"{layer}.not_perfect_runs": float(len(outcomes) - len(perfect)),
    }
