"""Golden-trajectory regression tests (the drift tripwire).

``tests/golden/*.json`` hold the merged ``Summary``/``mean_series``
statistics of small seeded sweeps, recorded from the **reference**
engine.  Each test recomputes the sweep -- on both engines -- and
compares against the stored artefact byte-for-byte (after a JSON
round-trip, which normalises float rendering).

Any change to protocol semantics, RNG stream layout, seed derivation,
measurement, or merge arithmetic shows up here as a diff against a
committed file, reviewable in the PR that caused it.  To regenerate
after an *intentional* change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py -q

and commit the updated fixtures together with the change that explains
them.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import pytest

from repro import seams
from repro.core import BootstrapConfig
from repro.runtime import ScheduleSpec, SweepGrid, SweepRunner, merge_columns

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

FAST = BootstrapConfig(leaf_set_size=8, entries_per_slot=2, random_samples=10)

#: The pinned grids.  Keep these small: the whole module must stay in
#: the couple-of-seconds range so the tripwire is always armed.
GRIDS = {
    "sweep_size_by_drop": SweepGrid(
        sizes=(24, 32),
        drop_rates=(0.0, 0.2),
        replicas=2,
        base_seed=9,
        max_cycles=40,
        config=FAST,
    ),
    "sweep_churn": SweepGrid(
        sizes=(32,),
        drop_rates=(0.0, 0.2),
        replicas=2,
        base_seed=77,
        max_cycles=20,
        config=FAST,
        schedules=(ScheduleSpec.of("churn", rate=0.05),),
    ),
    "sweep_newscast": SweepGrid(
        sizes=(24,),
        drop_rates=(0.0, 0.2),
        replicas=2,
        base_seed=41,
        max_cycles=40,
        config=FAST,
        sampler="newscast",
    ),
}


def compute(name: str, engine: str) -> dict:
    """Run the named grid on *engine* and return its merged statistics
    as JSON-normalised primitives."""
    grid = GRIDS[name]
    if engine != grid.engine:
        grid = replace(grid, engine=engine)
    aggregate = merge_columns(SweepRunner(workers=1).run_grid_columns(grid))
    return json.loads(json.dumps(aggregate.to_dict(), sort_keys=True))


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_golden_trajectory(name: str, engine: str):
    path = golden_path(name)
    if seams.flag("REPRO_REGEN_GOLDEN"):
        if engine == "reference":  # record from the reference engine only
            path.write_text(
                json.dumps(compute(name, engine), sort_keys=True, indent=1)
                + "\n"
            )
    stored = json.loads(path.read_text())
    assert compute(name, engine) == stored, (
        f"{engine} engine drifted from golden fixture {path.name}; if the "
        "change is intentional, regenerate with REPRO_REGEN_GOLDEN=1 and "
        "commit the new fixture"
    )


def test_fixtures_exist_and_are_wellformed():
    for name in GRIDS:
        data = json.loads(golden_path(name).read_text())
        assert data["cells"], f"{name}: no cells recorded"
        for cell in data["cells"]:
            assert cell["runs"] >= 1
            assert cell["mean_leaf"], "mean series must be non-empty"
