"""Process-portable run descriptions for the sweep runner.

A sweep is a grid of independent simulation runs (population sizes x
drop rates x replicas).  Each point of the grid becomes one
:class:`RunSpec` -- a frozen, picklable value that carries *everything*
a worker process needs to execute the run, and nothing else.
:func:`execute_run` turns it into a :class:`RunResult`, the rich
in-process outcome that :mod:`repro.runtime.columns` flattens into the
wire form before anything crosses a process boundary.

Two design rules keep parallel results byte-identical to sequential
ones:

* **Seeds are derived before dispatch.**  A replica's seed is a pure
  function of the base seed and its grid coordinates
  (:func:`replica_seed`), never of worker identity, scheduling order,
  or wall-clock time.
* **Schedules travel as specs, not objects.**  Failure schedules are
  stateful (they record victims as they fire), so sharing instances
  across runs would leak state between shards.  :class:`ScheduleSpec`
  describes a schedule as ``(kind, params)``; every run builds its own
  fresh instance via :meth:`ScheduleSpec.build`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..simulator.experiment import ExperimentSpec, run_experiment
from ..simulator.bootstrap_sim import SimulationResult
from ..simulator.failures import CatastrophicFailure, Churn, MassiveJoin
from ..simulator.random_source import derive_seed

__all__ = [
    "SCHEDULE_KINDS",
    "ScheduleSpec",
    "RunSpec",
    "RunResult",
    "replica_seed",
    "execute_run",
    "schedule_key",
]

#: Registry of schedule kinds a :class:`ScheduleSpec` can instantiate.
SCHEDULE_KINDS: dict[str, type] = {
    "churn": Churn,
    "catastrophe": CatastrophicFailure,
    "massive_join": MassiveJoin,
}

#: Parameter values a :class:`ScheduleSpec` accepts: the JSON scalars.
#: Anything richer (lists, dicts, arbitrary objects) would pickle and
#: hash fine but break the declarative contract -- specs must survive a
#: JSON round-trip (scenario files, CLI) and fail loudly at
#: construction, not deep inside a worker process.
_JSON_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative, picklable description of one failure schedule.

    Parameters
    ----------
    kind:
        A key of :data:`SCHEDULE_KINDS` (``"churn"``,
        ``"catastrophe"``, ``"massive_join"``).
    params:
        Constructor keyword arguments as a sorted tuple of pairs
        (tuples rather than a dict so the spec is hashable).  Values
        must be JSON scalars (``bool``/``int``/``float``/``str`` or
        ``None``); richer values are rejected at construction.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}; "
                f"expected one of {sorted(SCHEDULE_KINDS)}"
            )
        for pair in self.params:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(
                    f"schedule params must be (name, value) pairs, "
                    f"got {pair!r}"
                )
            name, value = pair
            if not isinstance(name, str):
                raise ValueError(
                    f"schedule param names must be strings, got {name!r}"
                )
            if value is not None and not isinstance(value, _JSON_SCALARS):
                raise ValueError(
                    f"schedule param {name}={value!r} of kind "
                    f"{self.kind!r} is not a JSON scalar "
                    f"(bool/int/float/str/None), got "
                    f"{type(value).__name__}; declarative specs must "
                    "survive a JSON round-trip"
                )

    @classmethod
    def of(cls, kind: str, **params: object) -> ScheduleSpec:
        """Build a spec from keyword arguments."""
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def parse(cls, text: str) -> ScheduleSpec:
        """Parse the CLI shorthand ``kind:key=val,...``.

        Examples: ``churn:rate=0.01``,
        ``catastrophe:at_cycle=5,fraction=0.5``, ``massive_join``
        (no parameters).  Values are coerced ``int`` -> ``float`` ->
        ``str`` in that order; unknown kinds raise the same
        kinds-listing :class:`ValueError` as direct construction.
        """
        kind, _, body = text.strip().partition(":")
        params: dict[str, object] = {}
        if body:
            for item in body.split(","):
                name, eq, raw = item.partition("=")
                name = name.strip()
                if not name or not eq:
                    raise ValueError(
                        f"bad schedule parameter {item!r} in {text!r}; "
                        "expected kind:key=val,key=val,..."
                    )
                params[name] = _coerce_scalar(raw.strip())
        return cls.of(kind, **params)

    def build(self) -> object:
        """Instantiate a fresh schedule object for one run."""
        return SCHEDULE_KINDS[self.kind](**dict(self.params))

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ScheduleSpec:
        """Rebuild a spec from :meth:`to_dict` output."""
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"schedule params must be a dict, got {params!r}")
        return cls.of(str(data["kind"]), **params)


def _coerce_scalar(raw: str) -> object:
    """CLI value coercion: ``int``, else ``float``, else ``str``."""
    for convert in (int, float):
        try:
            return convert(raw)
        except ValueError:
            continue
    return raw


def schedule_key(schedules: Sequence[ScheduleSpec]) -> str:
    """Canonical compact rendering of one schedule set.

    Used as the schedules coordinate in cell labels and reports:
    ``"-"`` for the empty set, else ``kind:key=val,...`` fragments
    joined with ``+`` (e.g. ``churn:rate=0.01``).
    """
    if not schedules:
        return "-"
    fragments = []
    for spec in schedules:
        if spec.params:
            body = ",".join(f"{k}={v}" for k, v in spec.params)
            fragments.append(f"{spec.kind}:{body}")
        else:
            fragments.append(spec.kind)
    return "+".join(fragments)


@dataclass(frozen=True)
class RunSpec:
    """One shard of a sweep: a single seeded simulation run.

    Attributes
    ----------
    experiment:
        The fully-seeded :class:`ExperimentSpec` to execute.
    shard:
        Position of this run in the sweep's submission order; results
        are re-ordered by shard after parallel execution so the output
        never depends on completion order.
    replica:
        Replica index within this run's grid cell (size x drop).
    schedules:
        Failure schedules to rebuild fresh inside the worker.
    """

    experiment: ExperimentSpec
    shard: int = 0
    replica: int = 0
    schedules: tuple[ScheduleSpec, ...] = ()

    @property
    def size(self) -> int:
        """Network size of this shard's grid cell."""
        return self.experiment.size

    @property
    def drop(self) -> float:
        """Drop probability of this shard's grid cell."""
        return self.experiment.network.drop_probability

    @property
    def sampler(self) -> str:
        """Peer-sampling backend of this shard's grid cell."""
        return self.experiment.sampler

    @property
    def cell(self) -> tuple[int, float, str, tuple[ScheduleSpec, ...], str]:
        """The full grid-cell coordinate of this shard:
        ``(size, drop, sampler, schedules, engine)``.

        Every axis a multi-axis :class:`~repro.runtime.SweepGrid` can
        sweep appears here, so the merge step groups replicas correctly
        no matter which axes vary.
        """
        return (
            self.size,
            self.drop,
            self.sampler,
            self.schedules,
            self.engine,
        )

    @property
    def engine(self) -> str:
        """Cycle-engine implementation this shard runs on."""
        return self.experiment.engine


@dataclass(frozen=True)
class RunResult:
    """Outcome of one shard, annotated with throughput.

    ``wall_seconds`` is measured inside the worker and excluded from
    merged statistics (it is the one legitimately nondeterministic
    field); it feeds the benchmark harness's cycles/sec reporting.
    """

    spec: RunSpec
    result: SimulationResult
    wall_seconds: float

    @property
    def cycles_per_second(self) -> float:
        """Engine throughput of this shard (0 for instant runs)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.result.cycles_run / self.wall_seconds


def replica_seed(base_seed: int, replica: int) -> int:
    """Seed of *replica* under *base_seed*.

    Matches the historical ``run_repeats`` derivation
    (``derive_seed(seed, ("repeat", index))``) exactly, so sweeps
    re-run through the parallel runner reproduce the seed benchmarks
    bit-for-bit.
    """
    return derive_seed(base_seed, ("repeat", replica))


# repro-check: timing -- wall_seconds is throughput telemetry (RunTiming); it never feeds results
def execute_run(
    spec: RunSpec,
    schedules_factory: Callable[[], Sequence[object]] | None = None,
) -> RunResult:
    """Execute one shard in this process.

    *schedules_factory* is an in-process escape hatch for callers that
    need schedule objects a :class:`ScheduleSpec` cannot describe
    (:func:`repro.simulator.run_repeats`); pooled sweeps never pass it.
    """
    schedules = [s.build() for s in spec.schedules]
    if schedules_factory is not None:
        schedules.extend(schedules_factory())
    start = time.perf_counter()
    result = run_experiment(spec.experiment, schedules)
    elapsed = time.perf_counter() - start
    return RunResult(spec=spec, result=result, wall_seconds=elapsed)
