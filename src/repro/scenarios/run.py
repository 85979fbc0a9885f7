"""Executing scenarios and rendering their reports.

:func:`run_scenario` is the single entry point the benchmarks and the
CLI share: expand the scenario's grid, execute every shard through the
parallel runner, and fold each outcome into per-cell accumulators as
it arrives (:class:`~repro.runtime.StreamingMerge`).  The returned
:class:`ScenarioResult` keeps the raw columns (for consumers that need
per-run values: wall times, populations, trajectory equality checks)
next to the merged :class:`~repro.runtime.SweepAggregate`.

With ``checkpoint_dir=`` the same loop also journals every completed
cell to disk and drops the raw columns once folded (constant collector
memory); ``resume=True`` skips journalled cells, re-dispatching only
the missing shards.  The aggregate is byte-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import ascii_semilog, render_table
from ..analysis.stats import Summary
from ..runtime.checkpoint import CheckpointError, CheckpointStore
from ..runtime.columns import RunColumns, RunTiming
from ..runtime.merge import (
    CellAggregate,
    CellKey,
    StreamingMerge,
    SweepAggregate,
    cell_label,
    throughput_summary,
)
from ..runtime.runner import SweepRunner
from .registry import get_scenario
from .spec import ScenarioSpec

__all__ = [
    "ScenarioResult",
    "convergence_rows",
    "render_scenario_report",
    "run_scenario",
]


def convergence_rows(aggregate: SweepAggregate) -> list[list[str]]:
    """Per-cell convergence table rows: label, converged, mean/min/max.

    Shared by the scenario report's ``convergence`` section and the
    CLI ``sweep`` table, so the two outputs cannot drift apart.
    """
    rows = []
    for cell in aggregate.cells:
        cycles = cell.cycles
        rows.append(
            [
                cell.label,
                f"{cell.converged_runs}/{cell.runs}",
                "-" if cycles is None else f"{cycles.mean:.1f}",
                "-" if cycles is None else f"{cycles.minimum:g}",
                "-" if cycles is None else f"{cycles.maximum:g}",
            ]
        )
    return rows


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run: raw columns plus merged cells.

    On a checkpointed run ``columns`` is empty (retaining them would
    defeat the constant-memory fold); ``timings`` carries the
    per-shard wall-clock scalars either way, and ``resumed_cells``
    counts the cells restored from the journal rather than re-run.
    """

    spec: ScenarioSpec
    columns: tuple[RunColumns, ...]
    aggregate: SweepAggregate
    workers: int
    timings: tuple[RunTiming, ...] = field(default=())
    resumed_cells: int = 0

    @property
    def throughput(self) -> Summary | None:
        """Per-shard cycles/sec summary (wall-clock; non-merged)."""
        return throughput_summary(self.timings or self.columns)

    def columns_for(self, **coords: object) -> list[RunColumns]:
        """The raw runs matching the given cell coordinates.

        Keyword filters match :class:`RunColumns` attributes (``size``,
        ``drop``, ``sampler``, ``schedules``, ``engine``, ``replica``);
        omitted coordinates match anything.
        """
        matches = []
        for run in self.columns:
            if all(
                getattr(run, name) == value
                for name, value in coords.items()
            ):
                matches.append(run)
        return matches


def run_scenario(
    scenario: str | ScenarioSpec,
    *,
    workers: int = 1,
    smoke: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> ScenarioResult:
    """Execute a scenario (by registry name or explicit spec).

    ``workers > 1`` shards the grid across a process pool; merged
    statistics are byte-identical for any worker count.  ``smoke=True``
    runs the :meth:`ScenarioSpec.smoke` rescaling instead (every axis
    kept, sizes clamped).

    Shard outcomes fold as they arrive.  With ``checkpoint_dir=`` each
    grid cell is also written to the directory the moment its last
    replica folds, folded columns are dropped, and ``resume=True``
    restores journalled cells instead of re-running their shards.  The
    aggregate stays byte-identical to an uninterrupted (or
    un-checkpointed) run; a directory written for a different grid
    refuses with :class:`CheckpointError`.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if smoke:
        spec = spec.smoke()
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    shards = spec.grid.expand()
    expected: dict[CellKey, int] = {}
    first_shard: dict[CellKey, int] = {}
    for shard in shards:
        cell = shard.cell
        expected[cell] = expected.get(cell, 0) + 1
        first_shard.setdefault(cell, shard.shard)

    done: dict[CellKey, tuple[int, CellAggregate]] = {}
    on_cell = None
    if checkpoint_dir is not None:
        store = CheckpointStore.open(checkpoint_dir, spec.grid, resume=resume)
        done = store.load_cells()
        on_cell = store.write_cell
        for cell, (shard0, _) in done.items():
            if cell not in expected:
                raise CheckpointError(
                    f"checkpoint directory {store.directory} journals "
                    f"cell {cell_label(*cell)!r}, which is not in this "
                    "grid; the journal is corrupt"
                )
            if shard0 != first_shard[cell]:
                raise CheckpointError(
                    f"checkpoint record for cell {cell_label(*cell)!r} "
                    f"claims first shard {shard0}, but the grid expands "
                    f"it at shard {first_shard[cell]}; the journal is "
                    "corrupt"
                )

    merge = StreamingMerge(expected=expected, on_cell=on_cell)
    for shard0, aggregate in done.values():
        merge.preload(shard0, aggregate)

    columns: list[RunColumns] = []
    timings: list[RunTiming] = []

    def sink(run: RunColumns) -> None:
        timings.append(run.timing())
        if checkpoint_dir is None:
            columns.append(run)
        merge.add(run)

    remaining = [shard for shard in shards if shard.cell not in done]
    SweepRunner(workers=workers).stream_columns(remaining, sink)
    # Arrival order is nondeterministic on the parallel path; shard
    # order keeps the throughput report and the raw columns stable.
    columns.sort(key=lambda run: run.shard)
    timings.sort(key=lambda timing: timing.shard)
    return ScenarioResult(
        spec=spec,
        columns=tuple(columns),
        aggregate=merge.finalize(),
        workers=workers,
        timings=tuple(timings),
        resumed_cells=len(done),
    )


def _grid_shape(spec: ScenarioSpec) -> str:
    """One-line axis summary, e.g. ``2 sizes x 2 drops x 3 engines``."""
    grid = spec.grid
    parts = [f"{len(grid.sizes)} sizes"]
    if len(grid.drop_rates) > 1:
        parts.append(f"{len(grid.drop_rates)} drops")
    if len(grid.sampler_axis) > 1:
        parts.append(f"{len(grid.sampler_axis)} samplers")
    if len(grid.schedule_axis) > 1:
        parts.append(f"{len(grid.schedule_axis)} schedule sets")
    if len(grid.engine_axis) > 1:
        parts.append(f"{len(grid.engine_axis)} engines")
    return " x ".join(parts) + f" -> {len(grid)} runs"


def render_scenario_report(result: ScenarioResult) -> str:
    """Render the analysis sections the scenario selected."""
    spec = result.spec
    aggregate = result.aggregate
    sections: list[str] = [
        f"scenario {spec.name}: {spec.title}",
        f"claim: {spec.claim}",
        f"grid: {_grid_shape(spec)}, workers={result.workers}",
    ]
    for analysis in spec.analyses:
        if analysis == "convergence":
            sections.append(
                render_table(
                    ["cell", "converged", "mean cycles", "min", "max"],
                    convergence_rows(aggregate),
                    title="cycles to perfect tables",
                )
            )
        elif analysis == "curves":
            leaf = [
                c.nonzero()
                for c in aggregate.leaf_curves()
                if len(c.nonzero())
            ]
            if leaf:
                sections.append(
                    ascii_semilog(
                        leaf,
                        title="mean missing leaf-set entries per cell",
                    )
                )
            prefix = [
                c.nonzero()
                for c in aggregate.prefix_curves()
                if len(c.nonzero())
            ]
            if prefix:
                sections.append(
                    ascii_semilog(
                        prefix,
                        title="mean missing prefix-table entries per cell",
                    )
                )
        elif analysis == "loss":
            sections.append(
                render_table(
                    ["cell", "overall loss", "wire loss"],
                    [
                        [
                            cell.label,
                            f"{cell.overall_loss_fraction:.3f}",
                            f"{cell.wire_loss_fraction:.3f}",
                        ]
                        for cell in aggregate.cells
                    ],
                    title="message-loss accounting",
                )
            )
        elif analysis == "quality":
            rows = []
            for cell in aggregate.cells:
                final_leaf = cell.mean_leaf.points[-1][1]
                final_prefix = cell.mean_prefix.points[-1][1]
                rows.append(
                    [
                        cell.label,
                        f"{final_leaf:.4f}",
                        f"{final_prefix:.4f}",
                    ]
                )
            sections.append(
                render_table(
                    ["cell", "final missing leaf", "final missing prefix"],
                    rows,
                    title="table quality at the end of the window",
                )
            )
        elif analysis == "throughput":
            sections.append(_throughput_section(result))
    return "\n".join(sections)


def _throughput_section(result: ScenarioResult) -> str:
    """Per-engine cycles-per-CPU-second lines (wall-clock)."""
    lines = []
    engines = []
    runs = result.timings or result.columns
    for run in runs:
        if run.engine not in engines:
            engines.append(run.engine)
    for engine in engines:
        timed = [
            run
            for run in runs
            if run.engine == engine and run.wall_seconds > 0
        ]
        if not timed:
            continue
        total_cycles = sum(run.cycles_run for run in timed)
        total_wall = sum(run.wall_seconds for run in timed)
        rate = total_cycles / total_wall if total_wall > 0 else 0.0
        lines.append(
            f"engine {engine}: {rate:.2f} cycles per CPU-second over "
            f"{len(timed)} timed runs"
        )
    return "\n".join(lines) if lines else "engine throughput: no timed runs"
