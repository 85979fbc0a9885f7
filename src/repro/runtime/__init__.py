"""Parallel experiment runtime.

Shards a multi-axis experiment grid (population sizes x drop rates x
samplers x schedule sets x engines x replicas) across a process pool
with deterministic per-replica seeding, then merges shard results into
the analysis-layer aggregates.  Sequential (``workers=1``) and
parallel (``workers=N``) execution share one code path and produce
byte-identical merged statistics for the same base seed, on every
axis.

Every shard comes back as one :class:`RunColumns` -- three float64
curves plus counters, about half a kilobyte per run whatever the
population size -- and :class:`StreamingMerge` folds each outcome as
it arrives, so collector memory is constant in the replica count.

Typical use::

    from repro.runtime import StreamingMerge, SweepGrid, SweepRunner

    grid = SweepGrid(sizes=(1024, 4096), drop_rates=(0.0, 0.2),
                     replicas=4, base_seed=7,
                     engines=("reference", "vector"))
    merge = StreamingMerge()
    SweepRunner(workers=4).stream_columns(grid.expand(), merge.add)
    aggregate = merge.finalize()

``SweepRunner.run_grid_columns(grid)`` collects the same outcomes as
an ordered list for consumers that want per-run values, and
:class:`CheckpointStore` journals completed cells for kill-safe resume
(see :func:`repro.scenarios.run_scenario`).  :func:`merge_columns` is
the batch reference fold the streaming merge is tested against.
"""

from .checkpoint import CheckpointError, CheckpointStore, grid_digest
from .columns import (
    TRANSPORT_COUNTERS,
    RunColumns,
    RunTiming,
    execute_run_columns,
)
from .merge import (
    CellAggregate,
    CellFold,
    StreamingMerge,
    SweepAggregate,
    cell_label,
    merge_columns,
    throughput_summary,
)
from .runner import ShardError, SweepGrid, SweepRunner, expand_repeats
from .spec import (
    SCHEDULE_KINDS,
    RunResult,
    RunSpec,
    ScheduleSpec,
    execute_run,
    replica_seed,
    schedule_key,
)

__all__ = [
    "SCHEDULE_KINDS",
    "TRANSPORT_COUNTERS",
    "CellAggregate",
    "CellFold",
    "CheckpointError",
    "CheckpointStore",
    "RunColumns",
    "RunResult",
    "RunSpec",
    "RunTiming",
    "ScheduleSpec",
    "ShardError",
    "StreamingMerge",
    "SweepAggregate",
    "SweepGrid",
    "SweepRunner",
    "cell_label",
    "execute_run",
    "execute_run_columns",
    "expand_repeats",
    "grid_digest",
    "merge_columns",
    "replica_seed",
    "schedule_key",
    "throughput_summary",
]
