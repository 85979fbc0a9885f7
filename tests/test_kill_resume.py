"""The kill-and-resume gate: SIGKILL a checkpointed sweep, resume it,
and demand a byte-identical aggregate.

This is the end-to-end crash-safety property the checkpoint machinery
exists for, exercised exactly the way production loses work: a real
CLI subprocess killed with ``SIGKILL`` (no cleanup handlers run, no
atexit, nothing) partway through a multi-cell sweep.  The resumed
process must restore the journalled cells, re-dispatch only the
missing shards, and write an aggregate byte-identical to an
uninterrupted in-process reference -- on both the sequential and the
``workers=2`` pool paths.

The sweep is sized so the timing is safe on slow CI runners: ~5s of
simulation across 4 cells, with the first cell journalled after ~1.5s
-- the kill lands after the first record appears and several seconds
before the sweep could finish.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core import BootstrapConfig
from repro.runtime import SweepGrid
from repro.scenarios import ScenarioSpec, run_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)

#: Calibrated so a kill right after the first cell record appears is
#: always mid-sweep (see module docstring).
GATE_GRID = SweepGrid(
    sizes=(128, 192),
    drop_rates=(0.0, 0.2),
    replicas=2,
    base_seed=77,
    max_cycles=60,
    config=FAST,
)
GATE_SPEC = ScenarioSpec(
    name="kill_gate",
    title="kill-and-resume gate sweep",
    claim="a SIGKILLed sweep resumes byte-identically",
    grid=GATE_GRID,
    analyses=("convergence",),
)
TOTAL_CELLS = 4


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def shm_segments() -> set:
    """POSIX shared-memory segments visible right now."""
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")}


def cli(args, **kwargs):
    # Each sweep gets its own process group so the kill takes out the
    # worker-pool children too (the way a job scheduler preempts a
    # task) -- and so orphaned workers cannot hold the output pipes
    # open past the parent's death.
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "scenarios", "run", *args],
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        **kwargs,
    )


def kill_group(proc) -> None:
    """SIGKILL the sweep and every worker it spawned."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def wait_for_first_record(checkpoint_dir: pathlib.Path, proc) -> int:
    """Poll until a cell record exists (or the sweep exits); return the
    record count observed."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        records = list(checkpoint_dir.glob("cell-*.json"))
        if records:
            return len(records)
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise AssertionError(
                f"sweep exited (rc={proc.returncode}) before journalling "
                f"any cell:\n{out}\n{err}"
            )
        time.sleep(0.01)
    raise AssertionError("no cell record appeared within 120s")


@pytest.fixture(scope="module")
def reference_bytes() -> str:
    """The uninterrupted run's aggregate, computed in-process once."""
    return json.dumps(
        run_scenario(GATE_SPEC).aggregate.to_dict(), sort_keys=True
    )


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory) -> pathlib.Path:
    path = tmp_path_factory.mktemp("kill-gate") / "gate-spec.json"
    path.write_text(GATE_SPEC.to_json(indent=2))
    return path


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "workers2"])
def test_sigkill_then_resume_is_byte_identical(
    tmp_path, spec_file, reference_bytes, workers
):
    shm_before = shm_segments()
    checkpoint_dir = tmp_path / "ckpt"
    aggregate_out = tmp_path / "aggregate.json"

    # Phase 1: start the sweep, SIGKILL it after the first cell record.
    victim = cli(
        [
            "--spec-file", str(spec_file),
            "--checkpoint-dir", str(checkpoint_dir),
            "--workers", str(workers),
        ]
    )
    try:
        records_at_kill = wait_for_first_record(checkpoint_dir, victim)
    finally:
        kill_group(victim)
        victim.communicate()
    assert victim.returncode == -signal.SIGKILL
    assert records_at_kill < TOTAL_CELLS, (
        "the sweep journalled every cell before the kill landed; "
        "the gate never exercised an interruption"
    )
    # A sweep owns no shared-memory segment, so even a SIGKILL (no
    # cleanup handlers, resource tracker killed too) leaves none.
    assert shm_segments() == shm_before

    # Phase 2: resume from the journal and write the aggregate out.
    resumed = cli(
        [
            "--spec-file", str(spec_file),
            "--checkpoint-dir", str(checkpoint_dir),
            "--resume",
            "--workers", str(workers),
            "--aggregate-out", str(aggregate_out),
        ]
    )
    out, err = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, f"resume failed:\n{out}\n{err}"
    restored = len(list(checkpoint_dir.glob("cell-*.json")))
    assert restored == TOTAL_CELLS  # resume repaired the journal
    assert "cells restored" in out
    assert shm_segments() == shm_before

    # The gate itself: byte-identical to the uninterrupted reference.
    assert aggregate_out.read_text() == reference_bytes


def test_resume_against_changed_grid_refuses(tmp_path, spec_file):
    """The digest rule end-to-end: a journal written for one grid
    refuses to resume a different one, with a clear CLI error."""
    checkpoint_dir = tmp_path / "ckpt"
    victim = cli(
        [
            "--spec-file", str(spec_file),
            "--checkpoint-dir", str(checkpoint_dir),
        ]
    )
    try:
        wait_for_first_record(checkpoint_dir, victim)
    finally:
        kill_group(victim)
        victim.communicate()

    changed = GATE_SPEC.with_grid(base_seed=78)
    changed_file = tmp_path / "changed-spec.json"
    changed_file.write_text(changed.to_json(indent=2))
    refused = cli(
        [
            "--spec-file", str(changed_file),
            "--checkpoint-dir", str(checkpoint_dir),
            "--resume",
        ]
    )
    out, err = refused.communicate(timeout=120)
    assert refused.returncode == 2
    assert "different grid" in err
