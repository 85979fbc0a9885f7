"""The columnar wire form: what one shard sends back.

Inside a worker a shard's outcome is a
:class:`~repro.runtime.spec.RunResult` -- per-cycle
:class:`ConvergenceSample` objects, the full transport-counter
snapshot, the config, the complete :class:`RunSpec`.  None of that
crosses the process boundary.  :class:`RunColumns` is the one wire
form: the three plotted curves as flat float64 buffers (stdlib
``array('d')``, pickled as raw machine bytes), the summable transport
counters as one integer tuple, and the scalar summary fields -- 3 x
cycles float64 plus counters, about half a kilobyte per run and
independent of the population size.  Everything the merge step
(:class:`repro.runtime.merge.StreamingMerge`) folds comes straight
from these columns; no per-cycle objects are ever rebuilt.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from collections.abc import Sequence

from .spec import RunResult, RunSpec, ScheduleSpec, execute_run

__all__ = [
    "TRANSPORT_COUNTERS",
    "RunColumns",
    "RunTiming",
    "execute_run_columns",
]

#: Transport counters that sum exactly across shards (integers only;
#: derived fractions are recomputed from the sums at merge time).
#: Order is part of the wire format of :attr:`RunColumns.transport`.
TRANSPORT_COUNTERS = (
    "exchanges",
    "requests_sent",
    "requests_dropped",
    "replies_sent",
    "replies_dropped",
    "suppressed_replies",
    "void_requests",
    "intended",
    "sent",
    "delivered",
)


@dataclass(frozen=True, eq=False)
class RunColumns:
    """One shard's outcome as flat columns plus scalar summaries.

    Attributes
    ----------
    shard / replica:
        Position in the sweep, exactly as on :class:`RunSpec`.
    size / drop / sampler / schedules / engine:
        The full grid-cell coordinate (every sweepable axis), so the
        merge step can group replicas without the originating
        :class:`RunSpec`.
    seed:
        The run's master seed (provenance).
    converged_at / population / cycles_run / started_at_cycle:
        Scalar summary fields of the underlying
        :class:`SimulationResult`.
    cycles / leaf / prefix:
        The measurement curves as flat float64 buffers: measurement
        cycle, missing-leaf fraction, missing-prefix fraction.
    transport:
        The summable counters, in :data:`TRANSPORT_COUNTERS` order.
    wall_seconds:
        In-worker wall time (excluded from merged statistics, exactly
        like on :class:`RunResult`).
    """

    shard: int
    replica: int
    size: int
    drop: float
    sampler: str
    schedules: tuple[ScheduleSpec, ...]
    engine: str
    seed: int
    converged_at: float | None
    population: int
    cycles_run: int
    started_at_cycle: int
    cycles: Sequence[float]
    leaf: Sequence[float]
    prefix: Sequence[float]
    transport: tuple[int, ...]
    wall_seconds: float

    @classmethod
    def from_run_result(cls, run: RunResult) -> RunColumns:
        """Flatten one rich :class:`RunResult` into columns.

        This is the worker-side conversion: the rich object never
        crosses the process boundary.
        """
        spec = run.spec
        result = run.result
        samples = result.samples
        return cls(
            shard=spec.shard,
            replica=spec.replica,
            size=spec.size,
            drop=spec.drop,
            sampler=spec.sampler,
            schedules=spec.schedules,
            engine=spec.engine,
            seed=spec.experiment.seed,
            converged_at=result.converged_at,
            population=result.population,
            cycles_run=result.cycles_run,
            started_at_cycle=result.started_at_cycle,
            cycles=array("d", [s.cycle for s in samples]),
            leaf=array("d", [s.leaf_fraction for s in samples]),
            prefix=array("d", [s.prefix_fraction for s in samples]),
            transport=tuple(
                int(result.transport[name]) for name in TRANSPORT_COUNTERS
            ),
            wall_seconds=run.wall_seconds,
        )

    def __reduce__(self):
        """Compact wire form: positional values, raw curve bytes.

        The default dataclass pickle repeats every field name per
        instance and carries each buffer's constructor overhead; for a
        payload whose whole point is being small, that roughly halves
        the win.  Reducing to a positional tuple with the three curves
        as raw float64 machine bytes keeps the pickled run at "data
        plus a few dozen framing bytes".
        """
        return (
            _rebuild_columns,
            (
                self.shard,
                self.replica,
                self.size,
                self.drop,
                self.sampler,
                self.schedules,
                self.engine,
                self.seed,
                self.converged_at,
                self.population,
                self.cycles_run,
                self.started_at_cycle,
                self.cycles.tobytes(),
                self.leaf.tobytes(),
                self.prefix.tobytes(),
                self.transport,
                self.wall_seconds,
            ),
        )

    # -- the same summary surface RunResult exposes --------------------

    @property
    def cell(self) -> tuple[int, float, str, tuple[ScheduleSpec, ...], str]:
        """The grid cell this shard belongs to (all five axes)."""
        return (self.size, self.drop, self.sampler, self.schedules,
                self.engine)

    @property
    def converged(self) -> bool:
        """Whether the run reached perfect tables."""
        return self.converged_at is not None

    @property
    def cycles_to_converge(self) -> float | None:
        """Cycles from the run's start to perfection, or ``None``."""
        if self.converged_at is None:
            return None
        return self.converged_at - self.started_at_cycle

    @property
    def cycles_per_second(self) -> float:
        """Engine throughput of this shard (0 for instant runs)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles_run / self.wall_seconds

    @property
    def final_leaf_fraction(self) -> float:
        """Missing-leaf fraction at the last measurement."""
        return float(self.leaf[-1])

    @property
    def final_prefix_fraction(self) -> float:
        """Missing-prefix fraction at the last measurement."""
        return float(self.prefix[-1])

    def transport_counters(self) -> dict:
        """The summable counters as a name -> value mapping."""
        return dict(zip(TRANSPORT_COUNTERS, self.transport, strict=True))

    def leaf_series(self) -> list[tuple[float, float]]:
        """``(cycle, missing-leaf fraction)`` pairs."""
        return list(zip(map(float, self.cycles), map(float, self.leaf), strict=True))

    def prefix_series(self) -> list[tuple[float, float]]:
        """``(cycle, missing-prefix fraction)`` pairs."""
        return list(zip(map(float, self.cycles), map(float, self.prefix), strict=True))

    def timing(self) -> RunTiming:
        """The shard's throughput scalars, detached from the buffers.

        The streaming collector keeps these (a few machine words per
        shard) after dropping the curve columns, so throughput
        reporting survives the constant-memory fold.
        """
        return RunTiming(
            shard=self.shard,
            engine=self.engine,
            cycles_run=self.cycles_run,
            wall_seconds=self.wall_seconds,
        )


@dataclass(frozen=True)
class RunTiming:
    """One shard's wall-clock scalars (never merged into aggregates).

    Carries exactly what :func:`repro.runtime.merge.throughput_summary`
    reads -- ``wall_seconds`` and the derived ``cycles_per_second`` --
    so the streaming path can report throughput without retaining the
    full :class:`RunColumns`.
    """

    shard: int
    engine: str
    cycles_run: int
    wall_seconds: float

    @property
    def cycles_per_second(self) -> float:
        """Engine throughput of this shard (0 for instant runs)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles_run / self.wall_seconds


def _rebuild_columns(*values) -> RunColumns:
    """Unpickle hook for :meth:`RunColumns.__reduce__`."""
    fields = list(values)
    for index in (12, 13, 14):  # cycles, leaf, prefix
        buffer = array("d")
        buffer.frombytes(fields[index])
        fields[index] = buffer
    return RunColumns(*fields)


def execute_run_columns(spec: RunSpec) -> RunColumns:
    """Execute one shard and return its columnar outcome.

    This is the function worker processes run: the simulation
    executes exactly as under :func:`~repro.runtime.spec.execute_run`,
    and only the flattened columns are pickled back.
    """
    return RunColumns.from_run_result(execute_run(spec))
