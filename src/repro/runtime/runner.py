"""The sweep runner: replica-level parallelism over experiment grids.

The paper's results are sweeps of many *independent* seeded runs --
the classic embarrassingly parallel bootstrap workload.  Following the
replica-parallel design of "Parallel Optimisation of Bootstrapping in
R" (Sloan et al.), :class:`SweepRunner` shards a grid of
:class:`~repro.runtime.spec.RunSpec` objects across a
``concurrent.futures.ProcessPoolExecutor``:

* ``workers <= 1`` executes shards inline, in submission order;
* ``workers > 1`` dispatches shards to worker processes and delivers
  each outcome as its shard completes.

Either way every shard runs
:func:`~repro.runtime.columns.execute_run_columns`, every seed is
derived before dispatch, and what comes back is one
:class:`~repro.runtime.columns.RunColumns` (about half a kilobyte),
so the merged statistics of a sweep are **byte-identical** for any
worker count (this invariant is pinned by ``tests/test_runtime.py``).

Shard failures surface as :class:`ShardError`, naming the failing
shard and preserving the original exception as ``__cause__``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..simulator.bootstrap_sim import SAMPLER_KINDS
from ..simulator.experiment import ENGINE_KINDS, ExperimentSpec
from ..simulator.network import NetworkModel, RELIABLE
from ..simulator.random_source import derive_seed
from .columns import RunColumns, execute_run_columns
from .spec import RunSpec, ScheduleSpec, replica_seed

__all__ = [
    "ShardError",
    "SweepGrid",
    "SweepRunner",
    "expand_repeats",
]


class ShardError(RuntimeError):
    """One shard of a sweep failed.

    The original worker exception is chained as ``__cause__``.
    """

    def __init__(self, spec: RunSpec, cause: BaseException) -> None:
        super().__init__(
            f"shard {spec.shard} (size={spec.size}, drop={spec.drop}, "
            f"replica={spec.replica}, seed={spec.experiment.seed}) "
            f"failed: {cause!r}"
        )
        self.spec = spec


@dataclass(frozen=True)
class SweepGrid:
    """A declarative multi-axis experiment grid.

    The full cartesian product is
    ``sizes x drop_rates x samplers x schedule_sets x engines x
    replicas``; every point becomes one :class:`RunSpec`.  The three
    variant axes (samplers, schedule sets, engines) default to a single
    value each, given by the legacy singular fields, so the historical
    ``sizes x drops x replicas`` grids keep their exact expansion.

    Parameters
    ----------
    sizes:
        Network sizes to sweep.
    drop_rates:
        Uniform message-drop probabilities to sweep (0.0 = reliable).
    replicas:
        Independent repeats per grid cell (the paper's "independent
        experiments").  Either one count for every size, or a tuple
        aligned with *sizes* (the paper scales repeats down with size:
        50/10/4 at 2^14/2^16/2^18).
    base_seed:
        Master seed; every cell and replica derives its own seed from
        it deterministically.
    max_cycles:
        Cycle budget per run.
    config:
        Protocol parameters shared by all runs.
    sampler:
        Peer-sampling backend (``"oracle"`` or ``"newscast"``) when the
        sampler axis is not swept.
    schedules:
        Failure schedules applied to every run (rebuilt fresh per run)
        when the schedule axis is not swept.
    engine:
        Cycle-engine implementation (``"reference"``, ``"fast"``, or
        ``"vector"``) when the engine axis is not swept.  Reference and
        fast produce identical trajectories, so switching between them
        only changes how fast the sweep runs; the vector engine is
        deterministic per seed but statistically rather than bit-level
        equivalent.
    samplers:
        Sweep the sampler axis over these backends (mutually exclusive
        with a non-default *sampler*).
    schedule_sets:
        Sweep the schedule axis: each element is one complete schedule
        set -- possibly empty, e.g. ``((), (churn_spec,))`` for a
        with/without-churn comparison (mutually exclusive with a
        non-empty *schedules*).
    engines:
        Sweep the engine axis over these implementations (mutually
        exclusive with a non-default *engine*).
    stop_when_perfect:
        Whether runs end at the first perfect measurement (the paper's
        convergence plots) or exhaust the cycle budget (steady-state
        quality measurements, e.g. under churn).

    Seeds derive from the *stochastic* coordinates only (size, drop,
    replica).  The variant axes deliberately share them: sweeping
    samplers, schedules, or engines compares variants on identical
    seeded populations (paired comparisons), and a legacy grid keeps
    its historical seeds no matter how many variant axes exist.
    """

    sizes: tuple[int, ...]
    drop_rates: tuple[float, ...] = (0.0,)
    replicas: int | tuple[int, ...] = 1
    base_seed: int = 1
    max_cycles: int = 60
    config: BootstrapConfig = PAPER_CONFIG
    sampler: str = "oracle"
    schedules: tuple[ScheduleSpec, ...] = ()
    engine: str = "reference"
    samplers: tuple[str, ...] | None = None
    schedule_sets: tuple[tuple[ScheduleSpec, ...], ...] | None = None
    engines: tuple[str, ...] | None = None
    stop_when_perfect: bool = True

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("grid needs at least one size")
        if len(set(self.sizes)) != len(self.sizes):
            # Duplicate sizes would share cell seeds (identical runs)
            # and collapse into one merged cell -- never what a sweep
            # means -- and would break the positional replicas-per-size
            # mapping silently.
            raise ValueError(f"grid sizes must be distinct, got {self.sizes}")
        for size in self.sizes:
            if isinstance(size, bool) or not isinstance(size, int) or size < 2:
                raise ValueError(
                    f"grid sizes must be integers >= 2, got {size!r}"
                )
        if not self.drop_rates:
            raise ValueError("grid needs at least one drop rate")
        for drop in self.drop_rates:
            # ``not 0 <= drop < 1`` also catches NaN.
            if (
                isinstance(drop, bool)
                or not isinstance(drop, (int, float))
                or not 0.0 <= drop < 1.0
            ):
                raise ValueError(
                    f"grid drop rates must lie in [0, 1), got {drop!r}"
                )
        if (
            isinstance(self.max_cycles, bool)
            or not isinstance(self.max_cycles, int)
            or self.max_cycles < 1
        ):
            raise ValueError(
                f"max_cycles must be an integer >= 1, got {self.max_cycles!r}"
            )
        if isinstance(self.base_seed, bool) or not isinstance(
            self.base_seed, int
        ):
            raise ValueError(
                f"base_seed must be an integer, got {self.base_seed!r}"
            )
        self._validate_replicas()
        self._validate_axis(
            "sampler", self.sampler, "oracle", "samplers", self.samplers,
            SAMPLER_KINDS,
        )
        self._validate_axis(
            "engine", self.engine, "reference", "engines", self.engines,
            ENGINE_KINDS,
        )
        if self.schedule_sets is not None:
            if self.schedules:
                raise ValueError(
                    "give either schedules (one set for every run) or "
                    "schedule_sets (the swept axis), not both"
                )
            if not self.schedule_sets:
                raise ValueError("schedule_sets needs at least one set")

    def _validate_replicas(self) -> None:
        """Replicas: one count, or one count per size."""
        if isinstance(self.replicas, bool):
            raise ValueError(
                f"replicas must be an integer >= 1, got {self.replicas!r}"
            )
        if isinstance(self.replicas, int):
            if self.replicas < 1:
                raise ValueError(
                    f"replicas must be >= 1, got {self.replicas}"
                )
            return
        counts = tuple(self.replicas)  # type: ignore[arg-type]
        if len(counts) != len(self.sizes):
            raise ValueError(
                f"per-size replicas must align with sizes: got "
                f"{len(counts)} counts for {len(self.sizes)} sizes"
            )
        if any(
            isinstance(c, bool) or not isinstance(c, int) or c < 1
            for c in counts
        ):
            raise ValueError(
                f"per-size replicas must be integers >= 1, got {counts!r}"
            )

    @staticmethod
    def _validate_axis(
        singular_name: str,
        singular: str,
        default: str,
        plural_name: str,
        plural: tuple[str, ...] | None,
        kinds: Sequence[str],
    ) -> None:
        """One variant axis: the singular field or the swept tuple."""
        if plural is None:
            values: tuple[str, ...] = (singular,)
        else:
            if singular != default:
                raise ValueError(
                    f"give either {singular_name}= or {plural_name}=, "
                    "not both"
                )
            if not plural:
                raise ValueError(
                    f"{plural_name} needs at least one entry"
                )
            values = plural
        for value in values:
            if value not in kinds:
                raise ValueError(
                    f"{singular_name} must be one of {tuple(kinds)}, "
                    f"got {value!r}"
                )

    # -- effective axes ------------------------------------------------

    @property
    def sampler_axis(self) -> tuple[str, ...]:
        """The sampler variants this grid sweeps."""
        return self.samplers if self.samplers is not None else (self.sampler,)

    @property
    def schedule_axis(self) -> tuple[tuple[ScheduleSpec, ...], ...]:
        """The schedule-set variants this grid sweeps."""
        if self.schedule_sets is not None:
            return self.schedule_sets
        return (self.schedules,)

    @property
    def engine_axis(self) -> tuple[str, ...]:
        """The engine variants this grid sweeps."""
        return self.engines if self.engines is not None else (self.engine,)

    def replicas_for(self, size: int) -> int:
        """Replica count of *size*'s cells (per-size or uniform)."""
        if isinstance(self.replicas, int):
            return self.replicas
        return tuple(self.replicas)[self.sizes.index(size)]  # type: ignore

    def cell_seed(self, size: int, drop: float) -> int:
        """Deterministic per-cell seed (independent of expansion
        order and worker count).  Variant axes share it -- see the
        class docstring's paired-comparison rule."""
        return derive_seed(self.base_seed, f"sweep:{size}:{drop!r}")

    def expand(self) -> list[RunSpec]:
        """Expand the grid into its ordered list of shards.

        Axis nesting, outermost first: size, drop, sampler, schedule
        set, engine, replica.  The order is part of the contract --
        shard indices, and therefore merged-cell order, are a pure
        function of the grid.
        """
        specs: list[RunSpec] = []
        shard = 0
        for size in self.sizes:
            replicas = self.replicas_for(size)
            for drop in self.drop_rates:
                cell_seed = self.cell_seed(size, drop)
                network = (
                    RELIABLE
                    if drop == 0.0
                    else NetworkModel(drop_probability=drop)
                )
                for sampler in self.sampler_axis:
                    for schedules in self.schedule_axis:
                        for engine in self.engine_axis:
                            for replica in range(replicas):
                                experiment = ExperimentSpec(
                                    size=size,
                                    seed=replica_seed(cell_seed, replica),
                                    config=self.config,
                                    network=network,
                                    sampler=sampler,
                                    max_cycles=self.max_cycles,
                                    stop_when_perfect=(
                                        self.stop_when_perfect
                                    ),
                                    label=f"N={size} drop={drop:g}",
                                    engine=engine,
                                )
                                specs.append(
                                    RunSpec(
                                        experiment=experiment,
                                        shard=shard,
                                        replica=replica,
                                        schedules=schedules,
                                    )
                                )
                                shard += 1
        return specs

    def __len__(self) -> int:
        per_cell = (
            len(self.sampler_axis)
            * len(self.schedule_axis)
            * len(self.engine_axis)
        )
        total_replicas = sum(
            self.replicas_for(size) for size in self.sizes
        )
        return total_replicas * len(self.drop_rates) * per_cell

    # -- declarative round-trip ----------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        data: dict[str, object] = {
            "sizes": list(self.sizes),
            "drop_rates": list(self.drop_rates),
            "replicas": (
                self.replicas
                if isinstance(self.replicas, int)
                else list(self.replicas)  # type: ignore[arg-type]
            ),
            "base_seed": self.base_seed,
            "max_cycles": self.max_cycles,
            "config": {
                "id_bits": self.config.id_bits,
                "digit_bits": self.config.digit_bits,
                "entries_per_slot": self.config.entries_per_slot,
                "leaf_set_size": self.config.leaf_set_size,
                "random_samples": self.config.random_samples,
                "cycle_length": self.config.cycle_length,
            },
            "samplers": list(self.sampler_axis),
            "schedule_sets": [
                [spec.to_dict() for spec in schedule_set]
                for schedule_set in self.schedule_axis
            ],
            "engines": list(self.engine_axis),
            "stop_when_perfect": self.stop_when_perfect,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> SweepGrid:
        """Rebuild a grid from :meth:`to_dict` output.

        The round-trip normalises the legacy singular fields onto the
        swept axes, so ``from_dict(g.to_dict())`` expands identically
        to ``g`` (shard list equality), though it need not compare
        equal as a dataclass when ``g`` used the singular spelling.
        """
        replicas = data.get("replicas", 1)
        if not isinstance(replicas, int):
            replicas = tuple(replicas)  # type: ignore[arg-type]
        config = BootstrapConfig(**data.get("config", {}))  # type: ignore
        # Hand-authored documents may use the singular constructor
        # spellings; honour them rather than silently defaulting (a
        # {"engine": "vector"} grid must not quietly come back as a
        # reference-engine grid), with the same both-given rejection
        # the constructor applies.
        for singular, plural in (
            ("sampler", "samplers"),
            ("engine", "engines"),
            ("schedules", "schedule_sets"),
        ):
            if singular in data:
                if plural in data:
                    raise ValueError(
                        f"give either {singular!r} or {plural!r} in a "
                        "grid document, not both"
                    )
                # One singular value is a one-variant axis ("engine":
                # "vector" -> engines: ["vector"]; a "schedules" list
                # is one schedule set -> schedule_sets: [that list]).
                data = {**data, plural: [data[singular]]}
        return cls(
            sizes=tuple(data["sizes"]),  # type: ignore[arg-type]
            drop_rates=tuple(data.get("drop_rates", (0.0,))),  # type: ignore
            replicas=replicas,
            base_seed=data.get("base_seed", 1),  # type: ignore[arg-type]
            max_cycles=data.get("max_cycles", 60),  # type: ignore
            config=config,
            samplers=tuple(data.get("samplers", ("oracle",))),  # type: ignore
            schedule_sets=tuple(
                tuple(ScheduleSpec.from_dict(spec) for spec in schedule_set)
                for schedule_set in data.get("schedule_sets", [[]])
            ),  # type: ignore[arg-type]
            engines=tuple(
                data.get("engines", ("reference",))  # type: ignore
            ),
            stop_when_perfect=bool(data.get("stop_when_perfect", True)),
        )


def expand_repeats(
    spec: ExperimentSpec,
    repeats: int,
    schedules: tuple[ScheduleSpec, ...] = (),
    first_shard: int = 0,
) -> list[RunSpec]:
    """Expand independent repeats of one :class:`ExperimentSpec`.

    Seed derivation matches the historical ``run_repeats`` exactly
    (``derive_seed(spec.seed, ("repeat", index))``), so existing seeded
    sweeps keep their trajectories when moved onto the runner.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return [
        RunSpec(
            experiment=spec.with_seed(replica_seed(spec.seed, index)),
            shard=first_shard + index,
            replica=index,
            schedules=schedules,
        )
        for index in range(repeats)
    ]


class SweepRunner:
    """Executes a list of shards, sequentially or across processes.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` runs shards inline (no subprocesses, no pickling
        requirements); ``N > 1`` fans out over a process pool of ``N``
        workers.
    executor_factory:
        Override for the pool constructor (testing hook); receives
        ``max_workers`` and must return a ``concurrent.futures``
        executor.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        executor_factory: Callable[[int], object] | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._executor_factory = executor_factory

    @property
    def parallel(self) -> bool:
        """Whether this runner dispatches to worker processes."""
        return self.workers > 1

    def run_columns(self, specs: Iterable[RunSpec]) -> list[RunColumns]:
        """Execute every shard; outcomes in submission (shard) order.

        The ordered collection over :meth:`stream_columns`' loop, for
        consumers that want the per-run values (wall times,
        populations, trajectory checks) rather than a fold.
        """
        ordered = list(specs)
        results: list = [None] * len(ordered)
        self._dispatch(ordered, results.__setitem__)
        return results

    def run_grid_columns(self, grid: SweepGrid) -> list[RunColumns]:
        """Expand *grid* and run every shard."""
        return self.run_columns(grid.expand())

    def stream_columns(
        self,
        specs: Iterable[RunSpec],
        sink: Callable[[RunColumns], None],
    ) -> int:
        """Execute shards, feeding each outcome to *sink* as it lands.

        Nothing is buffered here, so collector memory is whatever
        *sink* retains (a :class:`~repro.runtime.merge.StreamingMerge`
        keeps per-cell folds -- constant in the replica count).  On
        the parallel path outcomes arrive in **completion order**, not
        shard order; the streaming merge folds replicas back into
        shard order internally, so merged statistics stay
        byte-identical for any worker count.  Returns the number of
        shards delivered; failures raise :class:`ShardError` and
        cancel queued shards.
        """
        ordered = list(specs)
        self._dispatch(ordered, lambda index, outcome: sink(outcome))
        return len(ordered)

    def _dispatch(
        self,
        ordered: list[RunSpec],
        deliver: Callable[[int, RunColumns], None],
    ) -> None:
        """Run *ordered*, delivering ``(index, outcome)`` pairs: inline
        in submission order, or from a pool in completion order.

        The first shard to fail raises :class:`ShardError` as soon as
        its future resolves -- collection never blocks on a slower,
        earlier-submitted shard before surfacing the error.
        """
        if not self.parallel or not ordered:
            for index, spec in enumerate(ordered):
                try:
                    outcome = execute_run_columns(spec)
                except Exception as exc:
                    raise ShardError(spec, exc) from exc
                deliver(index, outcome)
            return
        factory = self._executor_factory or (
            lambda max_workers: ProcessPoolExecutor(max_workers=max_workers)
        )
        # Never spawn more processes than there are shards to run: a
        # sweep of 3 shards on workers=32 costs 3 interpreter starts,
        # not 32 idle ones.
        max_workers = min(self.workers, len(ordered))
        with factory(max_workers) as pool:  # type: ignore[attr-defined]
            futures = {
                pool.submit(execute_run_columns, spec): index
                for index, spec in enumerate(ordered)
            }
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        raise ShardError(ordered[index], exc) from exc
                    deliver(index, outcome)
            except BaseException:
                # Fail fast: one shutdown call cancels every queued
                # shard atomically and refuses new submissions, so the
                # error surfaces as soon as the shards already running
                # finish (per-future cancel() would race re-dispatch
                # and still sit through the queue).  BaseException also
                # covers a failing *sink* on the streaming path.
                pool.shutdown(cancel_futures=True)
                raise

    def __repr__(self) -> str:
        return f"SweepRunner(workers={self.workers})"
