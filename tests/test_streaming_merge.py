"""Tests for the streaming sweep merge.

The load-bearing property: :class:`StreamingMerge` is **byte-identical**
to the batch :func:`merge_columns` fold -- for every registry scenario
at smoke scale, and for *any* arrival order of the shard outcomes
(hypothesis explores permutations).  Everything the checkpoint/resume
machinery does reduces to this invariant plus exact JSON round-trips.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from array import array

import pytest

from repro.core import BootstrapConfig
from repro.runtime import (
    CellFold,
    RunColumns,
    ScheduleSpec,
    StreamingMerge,
    SweepGrid,
    SweepRunner,
    merge_columns,
)
from repro.scenarios import all_scenarios

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)


def canonical(aggregate) -> str:
    """The byte-comparison form used throughout the suite."""
    return json.dumps(aggregate.to_dict(), sort_keys=True)


@functools.lru_cache(maxsize=None)
def multi_axis_columns() -> tuple:
    """Shard outcomes of a grid exercising every cell axis (cached:
    one simulation pays for every ordering test)."""
    grid = SweepGrid(
        sizes=(16, 24),
        drop_rates=(0.0, 0.1),
        replicas=3,
        base_seed=5,
        max_cycles=15,
        config=FAST,
        schedule_sets=((), (ScheduleSpec.of("churn", rate=0.05),)),
    )
    return tuple(SweepRunner(workers=1).run_grid_columns(grid))


def stream(runs) -> str:
    merge = StreamingMerge()
    for run in runs:
        merge.add(run)
    return canonical(merge.finalize())


class TestByteIdentity:
    def test_in_order_matches_batch(self):
        columns = multi_axis_columns()
        assert stream(columns) == canonical(merge_columns(columns))

    def test_reversed_matches_batch(self):
        columns = multi_axis_columns()
        assert stream(reversed(columns)) == canonical(
            merge_columns(columns)
        )

    def test_interleaved_cells_match_batch(self):
        """Cells arriving interleaved (worker pools do this): replicas
        of different cells alternate."""
        columns = multi_axis_columns()
        by_parity = sorted(
            columns, key=lambda run: (run.shard % 3, run.shard)
        )
        assert stream(by_parity) == canonical(merge_columns(columns))

    @pytest.mark.parametrize(
        "spec",
        all_scenarios(),
        ids=[s.name for s in all_scenarios()],
    )
    def test_every_registry_scenario_smoke(self, spec):
        """The acceptance gate: streaming == batch for every registered
        scenario at smoke scale (one execution, both folds)."""
        smoke = spec.smoke(max_size=32, max_cycles=12)
        columns = SweepRunner(workers=1).run_grid_columns(smoke.grid)
        assert stream(columns) == canonical(merge_columns(columns))

    def test_stream_columns_parallel_matches_batch(self):
        """The as_completed pool path feeds the fold in completion
        order; the aggregate must not notice."""
        columns = multi_axis_columns()
        grid = SweepGrid(
            sizes=(16, 24),
            drop_rates=(0.0, 0.1),
            replicas=3,
            base_seed=5,
            max_cycles=15,
            config=FAST,
            schedule_sets=((), (ScheduleSpec.of("churn", rate=0.05),)),
        )
        merge = StreamingMerge()
        delivered = SweepRunner(workers=2).stream_columns(
            grid.expand(), merge.add
        )
        assert delivered == len(columns)
        assert canonical(merge.finalize()) == canonical(
            merge_columns(columns)
        )


class TestArrivalOrderProperty:
    def test_any_permutation_folds_identically(self):
        """Hypothesis: any arrival order of the shard outcomes folds to
        the same aggregate, byte for byte."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        columns = multi_axis_columns()
        reference = canonical(merge_columns(columns))

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(order=st.permutations(range(len(columns))))
        def check(order):
            assert stream(columns[i] for i in order) == reference

        check()


class TestCompletionCallback:
    def expected_of(self, columns):
        expected = {}
        for run in columns:
            expected[run.cell] = expected.get(run.cell, 0) + 1
        return expected

    def test_on_cell_fires_once_per_cell_with_first_shard(self):
        columns = multi_axis_columns()
        seen = []
        merge = StreamingMerge(
            expected=self.expected_of(columns),
            on_cell=lambda cell, shard, agg: seen.append((cell, shard)),
        )
        for run in reversed(columns):
            merge.add(run)
        batch = merge_columns(columns)
        assert len(seen) == len(batch.cells)
        firsts = {}
        for run in columns:
            firsts.setdefault(run.cell, run.shard)
        assert dict(seen) == firsts

    def test_on_cell_requires_expected(self):
        with pytest.raises(ValueError, match="expected"):
            StreamingMerge(on_cell=lambda *a: None)

    def test_unexpected_cell_rejected(self):
        columns = multi_axis_columns()
        expected = self.expected_of(columns[:3])
        merge = StreamingMerge(expected=expected)
        outsider = next(
            run for run in columns if run.cell not in expected
        )
        with pytest.raises(ValueError, match="unexpected cell"):
            merge.add(outsider)


class TestPreload:
    def test_preloaded_cells_keep_position_and_bytes(self):
        """Restoring some cells from to_dict round-trips and folding
        the rest reproduces the batch aggregate exactly -- the resume
        correctness core."""
        from repro.runtime.merge import CellAggregate

        columns = multi_axis_columns()
        batch = merge_columns(columns)
        # Restore every even-indexed cell through the JSON round-trip.
        firsts = {}
        for run in columns:
            firsts.setdefault(run.cell, run.shard)
        restored_cells = set()
        merge = StreamingMerge()
        for index, cell_aggregate in enumerate(batch.cells):
            if index % 2:
                continue
            clone = CellAggregate.from_dict(
                json.loads(json.dumps(cell_aggregate.to_dict())),
                engine=cell_aggregate.engine,
            )
            key = (
                clone.size, clone.drop, clone.sampler,
                clone.schedules, clone.engine,
            )
            merge.preload(firsts[key], clone)
            restored_cells.add(key)
        assert merge.preloaded_cells == len(restored_cells) > 0
        for run in columns:
            if run.cell not in restored_cells:
                merge.add(run)
        assert canonical(merge.finalize()) == canonical(batch)

    def test_add_into_preloaded_cell_rejected(self):
        columns = multi_axis_columns()
        batch = merge_columns(columns)
        merge = StreamingMerge()
        merge.preload(0, batch.cells[0])
        target = next(
            run
            for run in columns
            if run.cell
            == (
                batch.cells[0].size,
                batch.cells[0].drop,
                batch.cells[0].sampler,
                batch.cells[0].schedules,
                batch.cells[0].engine,
            )
        )
        with pytest.raises(ValueError, match="checkpoint"):
            merge.add(target)

    def test_duplicate_preload_rejected(self):
        batch = merge_columns(multi_axis_columns())
        merge = StreamingMerge()
        merge.preload(0, batch.cells[0])
        with pytest.raises(ValueError, match="already present"):
            merge.preload(0, batch.cells[0])


class TestFoldErrors:
    def test_empty_finalize_matches_batch_error(self):
        with pytest.raises(ValueError, match="empty result list"):
            StreamingMerge().finalize()

    def test_duplicate_replica_rejected(self):
        columns = multi_axis_columns()
        merge = StreamingMerge()
        merge.add(columns[0])
        with pytest.raises(ValueError, match="duplicate replica"):
            merge.add(columns[0])

    def test_gap_reported_at_finalize(self):
        """A replica that never arrived (while later ones did) is an
        error, not a silently smaller cell."""
        columns = multi_axis_columns()
        cell = columns[0].cell
        cell_runs = [run for run in columns if run.cell == cell]
        merge = StreamingMerge()
        merge.add(cell_runs[0])
        merge.add(cell_runs[2])  # replica 1 missing
        with pytest.raises(ValueError, match="never arrived"):
            merge.finalize()

    def test_wrong_cell_into_fold_rejected(self):
        columns = multi_axis_columns()
        fold = CellFold(columns[0].cell)
        outsider = next(
            run for run in columns if run.cell != columns[0].cell
        )
        with pytest.raises(ValueError, match="folded into"):
            fold.add(outsider)

    def test_fold_after_finalize_rejected(self):
        columns = multi_axis_columns()
        cell = columns[0].cell
        cell_runs = [run for run in columns if run.cell == cell]
        fold = CellFold(cell)
        for run in cell_runs:
            fold.add(run)
        assert fold.finalize() is fold.finalize()
        with pytest.raises(ValueError, match="finalized"):
            fold.add(cell_runs[0])


class TestConstantMemoryShape:
    def test_fold_does_not_retain_columns(self):
        """The fold keeps aggregate state only: after folding, no
        :class:`RunColumns` object is reachable from it (the
        constant-memory claim's structural half; the quantitative half
        is :func:`test_fold_peak_memory_is_constant_in_replicas`)."""
        columns = multi_axis_columns()
        cell = columns[0].cell
        cell_runs = [run for run in columns if run.cell == cell]
        fold = CellFold(cell)
        for run in cell_runs:
            fold.add(run)
        def reachable_columns(obj, seen=None):
            seen = set() if seen is None else seen
            if id(obj) in seen:
                return False
            seen.add(id(obj))
            if isinstance(obj, RunColumns):
                return True
            values = []
            if isinstance(obj, dict):
                values = list(obj.values())
            elif isinstance(obj, (list, tuple, set)):
                values = list(obj)
            elif hasattr(obj, "__dict__"):
                values = list(vars(obj).values())
            return any(reachable_columns(v, seen) for v in values)
        assert not reachable_columns(fold)


#: Measurements per synthetic curve (a long fixed-window run).
POINTS = 96


def synth_run(replica: int) -> RunColumns:
    """One synthetic shard outcome of a single cell (no simulation, so
    a measurement around the fold isolates the collector)."""
    jitter = ((replica * 2654435761) % 997) / 997.0
    return RunColumns(
        shard=replica,
        replica=replica,
        size=4096,
        drop=0.0,
        sampler="oracle",
        schedules=(),
        engine="reference",
        seed=1000 + replica,
        converged_at=float(POINTS - 1) if replica % 3 else None,
        population=4096,
        cycles_run=POINTS,
        started_at_cycle=0,
        cycles=array("d", (float(c) for c in range(POINTS))),
        leaf=array(
            "d", ((1.0 + 0.5 * jitter) * 0.9**c for c in range(POINTS))
        ),
        prefix=array(
            "d", ((2.0 + jitter) * 0.85**c for c in range(POINTS))
        ),
        transport=(10, 9, 1, 8, 1, 0, 0, 10, 9, 8),
        wall_seconds=0.5 + jitter,
    )


def test_fold_peak_memory_is_constant_in_replicas():
    """Collector memory does not grow with the curves it has folded:
    what the fold keeps per replica is one converged scalar and one
    shard index (~120 bytes), never the run's buffers.  Quadrupling
    one cell's replicas may therefore add, per replica, at most a
    tenth of what one run's curves weigh."""

    def peak(replicas: int) -> int:
        tracemalloc.start()
        try:
            merge = StreamingMerge()
            for replica in range(replicas):
                merge.add(synth_run(replica))
            merge.finalize()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    curve_bytes = 3 * POINTS * 8
    growth = (peak(384) - peak(96)) / (384 - 96)
    assert growth <= 0.1 * curve_bytes
