"""Merging shard results into analysis-layer aggregates.

The merge step is the deterministic tail of a sweep: it takes the
shard outcomes, in whatever order they complete, and folds them into
the existing analysis primitives:

* per-cell convergence-time :class:`~repro.analysis.stats.Summary`
  (via :func:`repro.analysis.stats.summarize`);
* per-cell mean convergence curves (via
  :func:`repro.analysis.series.mean_series`);
* per-cell transport-counter totals and the derived loss fractions.

The input is the columnar wire form,
:class:`~repro.runtime.columns.RunColumns` -- the fold consumes flat
curve buffers and counter tuples directly and never rebuilds per-cycle
sample objects.

A cell is the full multi-axis coordinate ``(size, drop, sampler,
schedules, engine)``.  Two fields stay out of
:meth:`SweepAggregate.to_dict` by design:

* wall-clock timing, so "same base seed, any worker count =>
  byte-identical merged statistics" holds (throughput lives in
  :func:`throughput_summary`);
* the engine coordinate, so "reference and fast engines => identical
  merged trajectories" stays a byte-comparable property (engine
  provenance lives on the :class:`CellAggregate` dataclass itself).

The production fold is :class:`StreamingMerge`: each arriving
:class:`RunColumns` is folded into per-cell accumulators
(:class:`CellFold`) and dropped, so collector memory is constant in
the replica count (the online-bootstrap trick of Qin et al.,
*Efficient Online Bootstrapping for Large Scale Learning*).  Within a
cell, runs are folded strictly in replica order (out-of-order arrivals
wait in a small pending window), so the result does not depend on
arrival order.

:func:`merge_columns` is the reference fold the streaming one is
tested against: all shard outcomes in memory at once, folded with
:func:`~repro.analysis.series.mean_series` and
:func:`~repro.analysis.stats.summarize` as written.  The streaming
fold performs every floating-point operation in exactly that sequence
and is **byte-identical** to it (``tests/test_streaming_merge.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..analysis.series import Series, mean_series
from ..analysis.stats import Summary, summarize
from .columns import RunColumns, TRANSPORT_COUNTERS
from .spec import ScheduleSpec, schedule_key

__all__ = [
    "CellAggregate",
    "CellFold",
    "StreamingMerge",
    "SweepAggregate",
    "cell_label",
    "merge_columns",
    "throughput_summary",
]

#: The full grid-cell coordinate: (size, drop, sampler, schedules,
#: engine) -- the key both folds group replicas by.
CellKey = tuple[int, float, str, tuple[ScheduleSpec, ...], str]


def cell_label(
    size: int,
    drop: float,
    sampler: str = "oracle",
    schedules: tuple[ScheduleSpec, ...] = (),
    engine: str = "reference",
) -> str:
    """Human-readable cell coordinate for curve labels and tables.

    The historical ``N=<size>[ drop=<p>]`` prefix is kept verbatim;
    non-default variant axes append their coordinate, so legacy
    size x drop sweeps keep their exact labels.
    """
    label = f"N={size}" if drop == 0.0 else f"N={size} drop={drop:g}"
    if sampler != "oracle":
        label += f" {sampler}"
    if schedules:
        label += f" {schedule_key(schedules)}"
    if engine != "reference":
        label += f" [{engine}]"
    return label


@dataclass(frozen=True)
class CellAggregate:
    """Merged statistics of one grid cell (one point of the
    size x drop x sampler x schedules x engine product)."""

    size: int
    drop: float
    runs: int
    converged_runs: int
    cycles: Summary | None
    mean_leaf: Series
    mean_prefix: Series
    transport: tuple[tuple[str, int], ...]
    sampler: str = "oracle"
    schedules: tuple[ScheduleSpec, ...] = ()
    engine: str = "reference"

    @property
    def label(self) -> str:
        """The cell's display label (same as its curve labels)."""
        return cell_label(
            self.size, self.drop, self.sampler, self.schedules, self.engine
        )

    @property
    def all_converged(self) -> bool:
        """Whether every replica reached perfect tables."""
        return self.converged_runs == self.runs

    @property
    def overall_loss_fraction(self) -> float:
        """Share of intended messages lost, cell-wide."""
        counters = dict(self.transport)
        intended = counters.get("intended", 0)
        if not intended:
            return 0.0
        return 1.0 - counters.get("delivered", 0) / intended

    @property
    def wire_loss_fraction(self) -> float:
        """Share of sent messages dropped in flight, cell-wide."""
        counters = dict(self.transport)
        sent = counters.get("sent", 0)
        if not sent:
            return 0.0
        dropped = counters.get("requests_dropped", 0) + counters.get(
            "replies_dropped", 0
        )
        return dropped / sent

    def to_dict(self) -> dict:
        """Stable primitive representation (no timing, no objects).

        The engine coordinate is deliberately omitted: reference and
        fast runs of the same seeds must serialize identically (the
        cross-engine golden property), just as any worker count must.
        """
        return {
            "size": self.size,
            "drop": self.drop,
            "sampler": self.sampler,
            "schedules": [spec.to_dict() for spec in self.schedules],
            "runs": self.runs,
            "converged_runs": self.converged_runs,
            "cycles": (
                None
                if self.cycles is None
                else {
                    "count": self.cycles.count,
                    "mean": self.cycles.mean,
                    "std": self.cycles.std,
                    "min": self.cycles.minimum,
                    "max": self.cycles.maximum,
                    "median": self.cycles.median,
                }
            ),
            "mean_leaf": [list(p) for p in self.mean_leaf.points],
            "mean_prefix": [list(p) for p in self.mean_prefix.points],
            "transport": {name: value for name, value in self.transport},
            "overall_loss_fraction": self.overall_loss_fraction,
            "wire_loss_fraction": self.wire_loss_fraction,
        }

    @classmethod
    def from_dict(
        cls, data: dict, *, engine: str = "reference"
    ) -> CellAggregate:
        """Rebuild an aggregate from :meth:`to_dict` output.

        The checkpoint-restore path: every float survives the JSON
        round-trip exactly (``json`` serialises via ``repr`` and
        ``float(repr(x)) == x`` for finite values), so a restored cell
        serialises back to byte-identical :meth:`to_dict` output.  The
        engine coordinate is deliberately absent from the dict (see
        :meth:`to_dict`); checkpoint records carry it separately.
        """
        size = int(data["size"])
        drop = float(data["drop"])
        sampler = str(data["sampler"])
        schedules = tuple(
            ScheduleSpec.from_dict(spec) for spec in data["schedules"]
        )
        label = cell_label(size, drop, sampler, schedules, engine)
        raw = data["cycles"]
        cycles = (
            None
            if raw is None
            else Summary(
                count=int(raw["count"]),
                mean=raw["mean"],
                std=raw["std"],
                minimum=raw["min"],
                maximum=raw["max"],
                median=raw["median"],
            )
        )
        return cls(
            size=size,
            drop=drop,
            sampler=sampler,
            schedules=schedules,
            engine=engine,
            runs=int(data["runs"]),
            converged_runs=int(data["converged_runs"]),
            cycles=cycles,
            mean_leaf=Series(
                label=label,
                points=tuple(
                    (float(x), float(y)) for x, y in data["mean_leaf"]
                ),
            ),
            mean_prefix=Series(
                label=label,
                points=tuple(
                    (float(x), float(y)) for x, y in data["mean_prefix"]
                ),
            ),
            transport=tuple(
                sorted(
                    (str(name), int(value))
                    for name, value in data["transport"].items()
                )
            ),
        )


@dataclass(frozen=True)
class SweepAggregate:
    """Merged statistics of a whole sweep, cell by cell."""

    cells: tuple[CellAggregate, ...]

    def cell(
        self,
        size: int,
        drop: float = 0.0,
        *,
        sampler: str | None = None,
        schedules: tuple[ScheduleSpec, ...] | None = None,
        engine: str | None = None,
    ) -> CellAggregate:
        """The first aggregate matching the given coordinates.

        The variant axes are filters: ``None`` matches any value, so
        single-variant sweeps keep the historical two-argument lookup.
        """
        for cell in self.cells:
            if cell.size != size or cell.drop != drop:
                continue
            if sampler is not None and cell.sampler != sampler:
                continue
            if schedules is not None and cell.schedules != schedules:
                continue
            if engine is not None and cell.engine != engine:
                continue
            return cell
        coordinate = f"size={size}, drop={drop}"
        for name, value in (
            ("sampler", sampler),
            ("schedules", schedules),
            ("engine", engine),
        ):
            if value is not None:
                coordinate += f", {name}={value!r}"
        raise KeyError(f"no cell ({coordinate}) in sweep")

    def leaf_curves(self) -> list[Series]:
        """Mean missing-leaf curves, one per cell (figure order)."""
        return [cell.mean_leaf for cell in self.cells]

    def prefix_curves(self) -> list[Series]:
        """Mean missing-prefix curves, one per cell (figure order)."""
        return [cell.mean_prefix for cell in self.cells]

    def to_dict(self) -> dict:
        """Stable primitive representation of the whole sweep.

        Two sweeps with the same base seed serialize to identical
        bytes (e.g. via ``json.dumps(..., sort_keys=True)``) no matter
        how many workers executed them.
        """
        return {"cells": [cell.to_dict() for cell in self.cells]}


def merge_columns(columns: Sequence[RunColumns]) -> SweepAggregate:
    """Fold columnar shard outcomes into per-cell aggregates, in batch.

    The reference fold (tests and the perf ledger compare
    :class:`StreamingMerge` against it); sweeps themselves stream.
    Shards are grouped by their full grid cell; cells appear in
    first-shard order and replicas within a cell in shard order, so the
    output is a pure function of the (deterministically seeded) inputs.
    The fold reads flat buffers and counter tuples only -- per-cycle
    sample objects are never rebuilt.
    """
    if not columns:
        raise ValueError("cannot merge an empty result list")
    ordered = sorted(columns, key=lambda c: c.shard)
    by_cell: dict[tuple, list[RunColumns]] = {}
    for run in ordered:
        by_cell.setdefault(run.cell, []).append(run)

    cells: list[CellAggregate] = []
    for (size, drop, sampler, schedules, engine), runs in by_cell.items():
        label = cell_label(size, drop, sampler, schedules, engine)
        converged = [
            r.cycles_to_converge for r in runs if r.converged
        ]
        counters = {name: 0 for name in TRANSPORT_COUNTERS}
        for run in runs:
            for name, value in zip(TRANSPORT_COUNTERS, run.transport, strict=True):
                counters[name] += value
        cells.append(
            CellAggregate(
                size=size,
                drop=drop,
                sampler=sampler,
                schedules=schedules,
                engine=engine,
                runs=len(runs),
                converged_runs=len(converged),
                cycles=summarize(converged) if converged else None,
                mean_leaf=mean_series(
                    label,
                    [
                        Series.from_pairs(label, r.leaf_series())
                        for r in runs
                    ],
                ),
                mean_prefix=mean_series(
                    label,
                    [
                        Series.from_pairs(label, r.prefix_series())
                        for r in runs
                    ],
                ),
                transport=tuple(sorted(counters.items())),
            )
        )
    return SweepAggregate(cells=tuple(cells))


def throughput_summary(
    results: Sequence[object],
) -> Summary | None:
    """Per-shard cycles/sec summary (``None`` for empty input).

    Accepts :class:`RunColumns` and :class:`RunTiming` sequences (each
    exposes ``wall_seconds`` and ``cycles_per_second``).
    Reported separately from the merge because wall-clock timing must
    not contaminate the deterministic aggregates.
    """
    rates = [
        r.cycles_per_second  # type: ignore[attr-defined]
        for r in results
        if r.wall_seconds > 0  # type: ignore[attr-defined]
    ]
    if not rates:
        return None
    return summarize(rates)


class _CurveFold:
    """Incremental pointwise-mean accumulator for one cell's curves.

    Reproduces :func:`~repro.analysis.series.mean_series` bit-for-bit
    while holding only the merged x grid and one running total per
    grid point -- never the folded curves themselves.

    The exactness argument: the batch fold adds each curve's step
    value at every union x, in curve order.  Folding curve k before
    the union grid is complete is safe because a grid point introduced
    later lies strictly between two existing grid points (or outside
    the grid), where every already-folded curve's step function is
    constant -- so the running total at the new point is bitwise equal
    to the total at its predecessor (same floats added in the same
    order), and can simply be copied.
    """

    __slots__ = ("xs", "totals", "count")

    def __init__(self) -> None:
        self.xs: list[float] = []
        self.totals: list[float] = []
        self.count = 0

    def fold(self, label: str, pairs: Sequence[tuple[float, float]]) -> None:
        """Fold one curve (mirrors ``Series.from_pairs`` validation)."""
        points = sorted(pairs)
        if not points:
            raise ValueError(f"series {label!r} is empty")
        for before, after in zip(points, points[1:], strict=False):
            if before[0] == after[0]:
                raise ValueError(
                    f"series {label!r} has duplicate x value {before[0]!r}"
                )
        self._extend_grid(points)
        pos = 0  # points consumed: points[pos-1] is the step value
        n = len(points)
        for i, x in enumerate(self.xs):
            while pos < n and points[pos][0] <= x:
                pos += 1
            self.totals[i] += points[pos - 1][1] if pos else points[0][1]
        self.count += 1

    def _extend_grid(self, points: list[tuple[float, float]]) -> None:
        """Merge the new curve's x values into the grid, copying the
        step-equivalent running totals for inserted points."""
        if not self.xs:
            self.xs = [x for x, _ in points]
            self.totals = [0.0] * len(points)
            return
        xs, totals = self.xs, self.totals
        merged_x: list[float] = []
        merged_t: list[float] = []
        i = j = 0
        while i < len(xs) or j < len(points):
            if i < len(xs) and (
                j >= len(points) or xs[i] <= points[j][0]
            ):
                if j < len(points) and xs[i] == points[j][0]:
                    j += 1
                merged_x.append(xs[i])
                merged_t.append(totals[i])
                i += 1
            else:
                # New grid point: before the first old point every
                # folded curve clamps to its first y, which is exactly
                # the total at the old first point; anywhere else the
                # step values equal those at the predecessor.
                merged_x.append(points[j][0])
                merged_t.append(merged_t[-1] if merged_t else totals[0])
                j += 1
        self.xs, self.totals = merged_x, merged_t

    def mean(self, label: str) -> Series:
        """The folded mean curve (identical to ``mean_series``)."""
        scale = 1.0 / self.count
        return Series(
            label=label,
            points=tuple(
                (x, total * scale)
                for x, total in zip(self.xs, self.totals, strict=True)
            ),
        )


class CellFold:
    """Streaming fold of one grid cell's replicas.

    Runs are *folded* strictly in replica order (the order the batch
    fold processes them, since replicas are the innermost expansion
    axis); arrivals that overtake a slower earlier replica wait in a
    pending window sized by the scheduling skew, not the replica
    count.  Once folded, a run's buffers are dropped -- the fold holds
    the merged curve grid, the transport counter sums, and one scalar
    per converged replica (the exact median needs the values).

    Degenerate grids can expand two *identical* cell coordinates (e.g.
    a smoke rescaling clamping distinct join-burst schedules to the
    same spec), so one fold may legitimately see replicas ``0..R-1``
    several times.  Such blocks carry identical seeds -- the cell seed
    depends only on size/drop/replica -- hence byte-identical run
    values, so the fold cycles the replica cursor back to 0 for each
    block and stays bitwise equal to the batch fold's shard order.
    The wrap only happens once the cell is known complete (at
    :meth:`finalize`, or when the expected arrival count is reached),
    because mid-sweep there is no way to tell "the block ended" from
    "a replica is still in flight".
    """

    def __init__(self, cell: CellKey) -> None:
        self.cell = cell
        self.first_shard: int | None = None
        #: replica index -> runs waiting to fold (more than one entry
        #: per replica only for collapsed duplicate-coordinate cells).
        self._pending: dict[int, list[RunColumns]] = {}
        self._pending_count = 0
        self._seen_shards: set = set()
        self._next = 0
        self._folded = 0
        self._converged: list[float] = []
        self._counters = {name: 0 for name in TRANSPORT_COUNTERS}
        self._leaf = _CurveFold()
        self._prefix = _CurveFold()
        self._final: CellAggregate | None = None

    @property
    def label(self) -> str:
        """The cell's display label."""
        return cell_label(*self.cell)

    @property
    def runs(self) -> int:
        """Runs folded so far (pending arrivals excluded)."""
        return self._folded

    @property
    def arrivals(self) -> int:
        """Runs accepted so far (folded plus pending)."""
        return self._folded + self._pending_count

    @property
    def pending(self) -> tuple[int, ...]:
        """Replica indices waiting for an earlier replica to arrive."""
        return tuple(sorted(self._pending))

    def add(self, run: RunColumns) -> None:
        """Accept one replica (any arrival order)."""
        if run.cell != self.cell:
            raise ValueError(
                f"run from cell {cell_label(*run.cell)!r} folded into "
                f"cell {self.label!r}"
            )
        if self._final is not None:
            raise ValueError(f"cell {self.label!r} is already finalized")
        if run.shard in self._seen_shards:
            raise ValueError(
                f"duplicate replica {run.replica} (shard {run.shard}) "
                f"for cell {self.label!r}"
            )
        self._seen_shards.add(run.shard)
        self._pending.setdefault(run.replica, []).append(run)
        self._pending_count += 1
        self._drain(allow_wrap=False)

    def _drain(self, *, allow_wrap: bool) -> None:
        """Fold every pending run whose turn has come.

        The cursor advances through replica indices; with *allow_wrap*
        (cell known complete) it cycles back to 0 for the next
        duplicate-coordinate block instead of stopping.
        """
        while self._pending:
            bucket = self._pending.get(self._next)
            if bucket:
                bucket.sort(key=lambda run: run.shard)
                self._fold(bucket.pop(0))
                if not bucket:
                    del self._pending[self._next]
                self._next += 1
                continue
            if not allow_wrap:
                return
            if max(self._pending) >= self._next:
                raise ValueError(
                    f"cell {self.label!r} is incomplete: replica "
                    f"{self._next} never arrived but replicas "
                    f"{self.pending} did"
                )
            self._next = 0

    def _fold(self, run: RunColumns) -> None:
        shard = run.shard
        if self.first_shard is None or shard < self.first_shard:
            self.first_shard = shard
        if run.converged:
            self._converged.append(run.cycles_to_converge)
        for name, value in zip(TRANSPORT_COUNTERS, run.transport, strict=True):
            self._counters[name] += value
        label = self.label
        self._leaf.fold(label, run.leaf_series())
        self._prefix.fold(label, run.prefix_series())
        self._folded += 1
        self._pending_count -= 1

    def finalize(self) -> CellAggregate:
        """The cell's merged statistics (idempotent once complete)."""
        if self._final is not None:
            return self._final
        self._drain(allow_wrap=True)
        if not self._folded:
            raise ValueError(f"cell {self.label!r} has no runs to merge")
        size, drop, sampler, schedules, engine = self.cell
        self._final = CellAggregate(
            size=size,
            drop=drop,
            sampler=sampler,
            schedules=schedules,
            engine=engine,
            runs=self._folded,
            converged_runs=len(self._converged),
            cycles=(
                summarize(self._converged) if self._converged else None
            ),
            mean_leaf=self._leaf.mean(self.label),
            mean_prefix=self._prefix.mean(self.label),
            transport=tuple(sorted(self._counters.items())),
        )
        return self._final


class StreamingMerge:
    """Incremental sweep merge: fold shard outcomes as they arrive.

    Feed every arriving :class:`RunColumns` to :meth:`add` (any
    order); :meth:`finalize` returns a :class:`SweepAggregate`
    byte-identical to :func:`merge_columns` over the same runs.

    Parameters
    ----------
    expected:
        Optional map of cell coordinate -> run count (derived from the
        grid expansion).  Required for cell-completion callbacks: a
        cell completes when its arrival count reaches the expected
        count.  When given, arrivals from unknown cells are rejected.
    on_cell:
        Called as ``on_cell(cell, first_shard, aggregate)`` the moment
        a cell completes -- the checkpoint journal hook.  Requires
        *expected*.
    """

    def __init__(
        self,
        *,
        expected: dict[CellKey, int] | None = None,
        on_cell: Callable[[CellKey, int, CellAggregate], None] | None = None,
    ) -> None:
        if on_cell is not None and expected is None:
            raise ValueError(
                "on_cell needs expected replica counts: completion is "
                "unknowable without them"
            )
        self._expected = dict(expected) if expected is not None else None
        self._on_cell = on_cell
        self._folds: dict[CellKey, CellFold] = {}
        self._preloaded: dict[CellKey, tuple[int, CellAggregate]] = {}

    @property
    def preloaded_cells(self) -> int:
        """Cells restored via :meth:`preload` (checkpoint resume)."""
        return len(self._preloaded)

    def preload(self, first_shard: int, aggregate: CellAggregate) -> None:
        """Install an already-merged cell (restored from a checkpoint).

        *first_shard* is the cell's first shard index in the original
        grid expansion; it restores the cell's position in the final
        aggregate's cell order.
        """
        cell: CellKey = (
            aggregate.size,
            aggregate.drop,
            aggregate.sampler,
            aggregate.schedules,
            aggregate.engine,
        )
        if cell in self._preloaded or cell in self._folds:
            raise ValueError(
                f"cell {cell_label(*cell)!r} is already present"
            )
        self._preloaded[cell] = (first_shard, aggregate)

    def add(self, run: RunColumns) -> None:
        """Fold one arriving shard outcome."""
        cell = run.cell
        if cell in self._preloaded:
            raise ValueError(
                f"cell {cell_label(*cell)!r} was restored from a "
                "checkpoint; refusing to fold new runs into it"
            )
        if self._expected is not None and cell not in self._expected:
            raise ValueError(
                f"unexpected cell {cell_label(*cell)!r}: not in the "
                "expected grid"
            )
        fold = self._folds.get(cell)
        if fold is None:
            fold = self._folds[cell] = CellFold(cell)
        fold.add(run)
        if (
            self._expected is not None
            and fold.arrivals == self._expected[cell]
        ):
            aggregate = fold.finalize()
            if self._on_cell is not None:
                self._on_cell(cell, fold.first_shard, aggregate)

    def finalize(self) -> SweepAggregate:
        """Merge everything folded so far, in first-shard cell order.

        Raises if nothing was folded (mirroring
        :func:`merge_columns`) or if any cell has an out-of-order gap
        (a replica that never arrived while later ones did).
        """
        entries: list[tuple[int, CellAggregate]] = list(
            self._preloaded.values()
        )
        for fold in self._folds.values():
            entries.append((fold.first_shard, fold.finalize()))
        if not entries:
            raise ValueError("cannot merge an empty result list")
        entries.sort(key=lambda entry: entry[0])
        return SweepAggregate(
            cells=tuple(aggregate for _, aggregate in entries)
        )
