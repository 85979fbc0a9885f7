"""``sweep_cli_w2``: what a user of the reproduction actually types.

A real CLI child -- ``python -m repro scenarios run --spec-file ...
--workers 2 --checkpoint-dir ... --aggregate-out ...`` -- so the path
is ``cli`` -> ``scenarios`` -> ``runtime`` pool -> streaming merge ->
journal -> aggregate JSON.  The shards are heterogeneous (4x size
spread) and small enough that worker spawn and import are visible.

The traced run cannot put spans inside the child, so it replays the
same grid inline with a span around every ``runtime``/``scenarios``
call, and its canonical aggregate JSON must byte-equal the CLI's.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from harness import Context, PassOutcome, Stopwatch, crossing_cycle, derive
from spans import Tracer

THRESHOLD = 1e-3
WORKERS = 2
SHM = Path("/dev/shm")


def expected_loss(drop: float) -> float:
    """Share of intended messages lost at drop probability *drop*: a
    lost request also suppresses the answer."""
    return (2.0 * drop + (1.0 - drop) * drop) / 2.0


def _shm_segments() -> set[str]:
    return {p.name for p in SHM.glob("psm_*")} if SHM.is_dir() else set()


class SweepCliWorkload:
    name = "sweep_cli_w2"
    #: The inline replay costs the grid's whole CPU time, twice (with
    #: and without spans), so one pair is all a traced run affords.
    trace_pairs = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        if ctx.smoke:
            self.sizes, self.replicas, self.cycles = (32, 64), (2, 1), 10
        else:
            self.sizes, self.replicas, self.cycles = (128, 512), (3, 1), 14
        self.drops = (0.0, 0.2)
        self._python = [sys.executable, "-m", "repro"]

    # -- inputs --------------------------------------------------------

    def _spec_document(self, index: int) -> dict:
        return {
            "name": "ledger_sweep",
            "title": "perf-ledger sweep (generated)",
            "claim": "none: a benchmark input",
            "analyses": ["convergence", "loss"],
            "grid": {
                "sizes": list(self.sizes),
                "drop_rates": list(self.drops),
                "replicas": list(self.replicas),
                "base_seed": derive(self.ctx.seed, self.name, index),
                "max_cycles": self.cycles,
                "engines": ["vector"],
                "stop_when_perfect": False,
            },
        }

    def _write_spec(self, index: int) -> Path:
        path = self.ctx.scratch / f"sweep-spec-{index}.json"
        path.write_text(json.dumps(self._spec_document(index)), encoding="utf-8")
        return path

    def _child(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [*self._python, *args],
            cwd=self.ctx.scratch,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )

    def setup(self) -> None:
        self._write_spec(0)
        listing = self._child("scenarios", "list")
        if listing.returncode != 0:
            raise RuntimeError(f"`repro scenarios list` failed:\n{listing.stderr}")

    @property
    def _shards(self) -> int:
        return sum(self.replicas) * len(self.drops)

    # -- one pass ------------------------------------------------------

    def run_pass(self, index: int, tracer: Tracer | None) -> PassOutcome:
        if tracer is not None:
            return self._replay(index, tracer)
        spec_file = self._write_spec(index)
        journal = self.ctx.scratch / f"sweep-journal-{index}"
        aggregate_file = self.ctx.scratch / f"sweep-aggregate-{index}.json"
        before = _shm_segments()
        clock = Stopwatch()
        with clock.timed():
            done = self._child(
                "scenarios", "run",
                "--spec-file", str(spec_file),
                "--workers", str(WORKERS),
                "--checkpoint-dir", str(journal),
                "--aggregate-out", str(aggregate_file),
            )  # fmt: skip
        if done.returncode != 0:
            raise RuntimeError(
                f"CLI sweep exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
            )
        text = aggregate_file.read_text(encoding="utf-8")
        journalled = len(list(journal.glob("cell-*.json")))
        shutil.rmtree(journal)
        aggregate_file.unlink()
        leaked = _shm_segments() - before
        outcome = self._outcome(clock, text)
        outcome.checks.append(
            ("journal holds every cell", journalled == len(self.sizes) * len(self.drops))
        )
        outcome.checks.append(("no psm_* segment survives in /dev/shm", not leaked))
        return outcome

    def _outcome(self, clock: Stopwatch, aggregate_text: str) -> PassOutcome:
        cells = json.loads(aggregate_text)["cells"]
        crossings = []
        finals = []
        checks = []
        failed = 0
        for cell in cells:
            cycles = [point[0] for point in cell["mean_leaf"]]
            missing = [
                (leaf[1] + prefix[1]) / 2.0
                for leaf, prefix in zip(cell["mean_leaf"], cell["mean_prefix"], strict=True)
            ]
            reached = crossing_cycle(cycles, missing, THRESHOLD)
            if reached is None:
                failed += cell["runs"]
            crossings.append(float(self.cycles) if reached is None else reached)
            finals.append(missing[-1])
            # 0.02, widened to four standard errors on tiny smoke grids.
            tolerance = max(0.02, 2.0 / math.sqrt(cell["transport"]["intended"]))
            checks.append(
                (
                    "overall loss within 0.02 of (2p + (1-p)p)/2",
                    abs(cell["overall_loss_fraction"] - expected_loss(cell["drop"])) <= tolerance,
                )
            )
        checks.append(
            (
                "every shard reached the aggregate",
                sum(cell["runs"] for cell in cells) == self._shards,
            )
        )
        node_cycles = sum(
            size * self.cycles * replicas * len(self.drops)
            for size, replicas in zip(self.sizes, self.replicas, strict=True)
        )
        perfect = [cell["cycles"]["mean"] for cell in cells if cell["cycles"]]
        return PassOutcome(
            units=clock.units,
            node_cycles=float(node_cycles),
            messages=float(sum(cell["transport"]["sent"] for cell in cells)),
            cycles_to_converge=statistics.fmean(crossings),
            final_completeness=1.0 - statistics.fmean(finals),
            operations=self._shards,
            failed_operations=failed,
            checks=checks,
            simulated={"aggregate_sha256": hashlib.sha256(aggregate_text.encode()).hexdigest()},
            layer={
                "perfect_mean": statistics.fmean(perfect) if perfect else 0.0,
                "not_perfect_runs": float(
                    sum(cell["runs"] - cell["converged_runs"] for cell in cells)
                ),
            },
        )

    # -- the traced inline replay --------------------------------------

    def _replay(self, index: int, tracer: Tracer | None) -> PassOutcome:
        """The CLI's work, inline and sequential, one span per call."""
        from repro.runtime import (
            CheckpointStore,
            StreamingMerge,
            execute_run_columns,
            merge_columns,
        )
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.run import ScenarioResult, render_scenario_report

        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        if tracer is not None:
            # The cli layer's own work (argparse, registry, dispatch)
            # happens inside the child; a no-op command is its span.
            with span("cli.startup"):
                self._child("scenarios", "list")
        spec = ScenarioSpec.from_path(self._write_spec(index))
        journal = self.ctx.scratch / f"sweep-replay-journal-{index}"
        layer: dict[str, float] = {}
        clock = Stopwatch()
        with clock.timed():
            with span("runtime.expand"):
                shards = spec.grid.expand()
            columns = []
            for shard in shards:
                with span("runtime.shard_run"):
                    columns.append(execute_run_columns(shard))
            with span("runtime.pickle_roundtrip"):
                blobs = [pickle.dumps(c, pickle.HIGHEST_PROTOCOL) for c in columns]
                for blob in blobs:
                    pickle.loads(blob)
            with span("runtime.merge_stream"):
                merge = StreamingMerge()
                for run in columns:
                    merge.add(run)
                aggregate = merge.finalize()
            with span("runtime.merge_batch"):
                merge_columns(columns)
            first_shard: dict = {}
            for shard in shards:
                first_shard.setdefault(shard.cell, shard.shard)
            store = CheckpointStore.open(journal, spec.grid)
            with span("runtime.checkpoint_write"):
                for cell in aggregate.cells:
                    key = (cell.size, cell.drop, cell.sampler, cell.schedules, cell.engine)
                    store.write_cell(key, first_shard[key], cell)
            with span("runtime.checkpoint_load"):
                store.load_cells()
            with span("scenarios.render_report"):
                render_scenario_report(
                    ScenarioResult(
                        spec=spec, columns=tuple(columns), aggregate=aggregate, workers=1
                    )
                )
            with span("scenarios.aggregate_json"):
                text = json.dumps(aggregate.to_dict(), sort_keys=True)
        layer["pickle_bytes"] = sum(len(blob) for blob in blobs)
        layer["checkpoint_bytes"] = sum(p.stat().st_size for p in journal.iterdir())
        layer["cells"] = len(aggregate.cells)
        shutil.rmtree(journal)
        outcome = self._outcome(clock, text)
        outcome.layer.update(layer)
        return outcome

    # -- per-layer metrics (traced run) --------------------------------

    def _child_wall(self, command: list[str]) -> float:
        """Median wall of three runs of a do-nothing child."""
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run(command, cwd=self.ctx.scratch, stdout=subprocess.DEVNULL, check=True)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)

    def layer_metrics(self, untraced, traced, tracer: Tracer) -> dict[str, float]:
        cli, replay = untraced[0], traced[0]
        plain = self._replay(0, None)
        shard_runs = tracer.durations("runtime.shard_run")
        critical = max(sum(shard_runs) / WORKERS, max(shard_runs))
        startup = self._child_wall([*self._python, "scenarios", "list"])
        bare = self._child_wall([sys.executable, "-c", "pass"])
        with_import = self._child_wall([sys.executable, "-c", "import repro"])

        def ms(name: str) -> float:
            return tracer.total(name) * 1e3

        plumbing = (
            tracer.total("runtime.pickle_roundtrip")
            + tracer.total("runtime.merge_stream")
            + tracer.total("runtime.checkpoint_write")
            + tracer.total("runtime.checkpoint_load")
        )
        return {
            "cli.startup_s": startup,
            "cli.import_repro_s": with_import - bare,
            "runtime.cpu_over_wall": cli.cpu / cli.wall,
            "runtime.expand_s": tracer.total("runtime.expand"),
            "runtime.shard_run_s_sum": sum(shard_runs),
            "runtime.shard_run_s_p50": statistics.median(shard_runs),
            "runtime.shard_run_s_max": max(shard_runs),
            "runtime.critical_path_s": critical,
            "runtime.overhead_s": cli.wall - startup - critical,
            "runtime.pickle_bytes_per_run": replay.layer["pickle_bytes"] / len(shard_runs),
            "runtime.pickle_roundtrip_us": (
                tracer.total("runtime.pickle_roundtrip") / len(shard_runs) * 1e6
            ),
            "runtime.merge_stream_ms": ms("runtime.merge_stream"),
            "runtime.merge_batch_ms": ms("runtime.merge_batch"),
            "runtime.checkpoint_write_ms_per_cell": (
                ms("runtime.checkpoint_write") / replay.layer["cells"]
            ),
            "runtime.checkpoint_load_ms": ms("runtime.checkpoint_load"),
            "runtime.checkpoint_bytes": replay.layer["checkpoint_bytes"],
            "runtime.plumbing_share": plumbing / cli.wall,
            "runtime.cycles_to_perfect": cli.layer["perfect_mean"],
            "runtime.not_perfect_runs": cli.layer["not_perfect_runs"],
            "scenarios.render_report_ms": ms("scenarios.render_report"),
            "scenarios.aggregate_json_ms": ms("scenarios.aggregate_json"),
            # The CLI pass and the inline replay are different
            # executions; the overhead of the spans is the replay with
            # spans against the same replay without.
            "trace_overhead_share": (replay.wall - plain.wall) / plain.wall,
        }
