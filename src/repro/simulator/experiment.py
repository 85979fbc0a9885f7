"""Declarative experiment specifications and sweep running.

The benchmark harness regenerates every figure of the paper from
:class:`ExperimentSpec` objects: a spec pins down network size, seed,
protocol parameters, loss model, and schedules; :func:`run_experiment`
executes it; :func:`run_repeats` handles the paper's independent-repeat
methodology ("we performed 50, 10 and 4 independent experiments" for the
three sizes -- the repeat count scales down with size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence

from ..core.config import BootstrapConfig, PAPER_CONFIG
from . import ENGINE_KINDS
from .bootstrap_sim import BootstrapSimulation, SimulationResult
from .network import NetworkModel, RELIABLE

__all__ = [
    "ENGINE_KINDS",
    "ExperimentSpec",
    "build_simulation",
    "run_experiment",
    "run_repeats",
    "paper_repeat_counts",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun one simulation bit-for-bit.

    Attributes mirror :class:`BootstrapSimulation`'s constructor plus
    the run budget and the engine selection.
    """

    size: int
    seed: int = 1
    config: BootstrapConfig = PAPER_CONFIG
    network: NetworkModel = RELIABLE
    sampler: str = "oracle"
    max_cycles: int = 60
    stop_when_perfect: bool = True
    measure_every: int = 1
    label: str = ""
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        # A size below 2 is left to the engines (a failing run is a
        # shard failure), but a float or bool size would silently
        # build a network of another size.
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise ValueError(f"size must be an integer, got {self.size!r}")
        for name in ("max_cycles", "measure_every"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
            ):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )

    def with_seed(self, seed: int) -> ExperimentSpec:
        """This spec under a different master seed."""
        return replace(self, seed=seed)

    def with_engine(self, engine: str) -> ExperimentSpec:
        """This spec on a different engine implementation."""
        return replace(self, engine=engine)

    def describe(self) -> dict[str, object]:
        """Flat summary for trace headers and reports."""
        return {
            "size": self.size,
            "seed": self.seed,
            "drop": self.network.drop_probability,
            "sampler": self.sampler,
            "max_cycles": self.max_cycles,
            "engine": self.engine,
            **self.config.describe(),
        }


def build_simulation(spec: ExperimentSpec):
    """Instantiate the simulation *spec* selects (the engine seam).

    Returns a :class:`BootstrapSimulation`, a
    :class:`repro.engine_fast.FastBootstrapSimulation`, or a
    :class:`repro.engine_vector.VectorBootstrapSimulation`; all expose
    the same ``run``/``measure``/membership API.  The reference and
    fast engines produce identical trajectories for identical specs;
    the vector engine is deterministic per seed but only
    statistically equivalent (its documented RNG relaxation).
    """
    if spec.engine == "fast":
        # Imported lazily: repro.engine_fast builds on this package.
        from ..engine_fast import FastBootstrapSimulation

        sim_class = FastBootstrapSimulation
    elif spec.engine == "vector":
        # Imported lazily: repro.engine_vector builds on this package.
        from ..engine_vector import VectorBootstrapSimulation

        sim_class = VectorBootstrapSimulation
    else:
        sim_class = BootstrapSimulation
    return sim_class(
        spec.size,
        config=spec.config,
        seed=spec.seed,
        network=spec.network,
        sampler=spec.sampler,
    )


def run_experiment(
    spec: ExperimentSpec,
    schedules: Sequence[object] = (),
) -> SimulationResult:
    """Execute *spec* on its selected engine and return its result."""
    sim = build_simulation(spec)
    return sim.run(
        spec.max_cycles,
        stop_when_perfect=spec.stop_when_perfect,
        schedules=schedules,
        measure_every=spec.measure_every,
    )


def run_repeats(
    spec: ExperimentSpec,
    repeats: int,
    schedules_factory: Callable[[], Sequence[object]] | None = None,
) -> list[SimulationResult]:
    """Run *repeats* independent instances of *spec*, in this process.

    Seeds are derived from the spec's master seed so each repeat is an
    independent network (fresh identifiers, fresh randomness) -- the
    paper's "independent experiments".  A *schedules_factory* is a
    closure producing fresh schedule objects per repeat.  Parallel
    repeats are a :class:`repro.runtime.SweepGrid` with ``replicas=``
    (same seed derivation), which describes schedules with
    :class:`repro.runtime.ScheduleSpec` instead.

    Raises
    ------
    repro.runtime.ShardError
        When any repeat fails (the original exception is chained as
        ``__cause__``).
    """
    # Imported lazily: repro.runtime builds on this module.
    from ..runtime import ShardError, execute_run, expand_repeats

    results = []
    for run_spec in expand_repeats(spec, repeats):
        try:
            results.append(execute_run(run_spec, schedules_factory).result)
        except Exception as exc:
            raise ShardError(run_spec, exc) from exc
    return results


def paper_repeat_counts(size: int, budget: int = 50) -> int:
    """The paper's repeat-count policy, rescaled.

    The authors ran 50/10/4 repeats for sizes 2^14 / 2^16 / 2^18: the
    repeat count shrinks ~linearly in network size so total work per
    size stays comparable.  We apply the same rule relative to the
    smallest size in a sweep: ``max(1, budget // (size / base_size))``
    where *budget* repeats are granted to ``base_size = 1024``.
    """
    base_size = 1024
    scale = max(1, size // base_size)
    return max(1, budget // scale)
