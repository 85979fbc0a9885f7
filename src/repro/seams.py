"""The seam registry: every ``REPRO_*`` environment variable, declared.

The repo's behaviour seams -- engine backends, benchmark scale knobs
-- are environment variables so that operators can flip them without
touching call sites.  Before this module each
seam was an ad-hoc ``os.environ`` read scattered across five modules
and the benchmark harness; nothing guaranteed the set of names stayed
documented, validated, or even spelled consistently.

This registry is the single source of truth.  Every seam is declared
once as a :class:`Seam` (name, kind, allowed values, default, one-line
doc), and every read flows through the typed accessors below:

* :func:`get` -- the raw string (or ``None``), for call sites that
  keep their own validation and error wording;
* :func:`enum` -- validated against the declared choices, with the
  declared default;
* :func:`flag` -- presence-style booleans (set-and-non-empty is on);
* :func:`integer` -- integers with a declared minimum.

The static analyzer (:mod:`repro.devtools`) closes the loop: it flags
any ``os.environ`` / ``os.getenv`` read outside this file, any
``REPRO_*`` literal not declared here, and any declared seam missing
from the README catalog.  Adding a seam therefore means adding a
:class:`Seam` entry *and* a README row -- the analyzer fails the build
until both exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Seam:
    """One declared environment seam.

    ``kind`` is ``"enum"`` (one of :attr:`choices`), ``"flag"``
    (set-and-non-empty means on), or ``"int"`` (integer, at least
    :attr:`minimum` when one is declared).  ``default`` is the raw
    value an unset variable resolves to (``None`` means the call site
    computes its own fallback, e.g. auto-detection).
    """

    name: str
    kind: str
    doc: str
    default: str | None = None
    choices: tuple[str, ...] = ()
    minimum: int | None = None
    testing_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("enum", "flag", "int"):
            raise ValueError(f"seam kind must be enum|flag|int, got {self.kind!r}")
        if self.kind == "enum" and not self.choices:
            raise ValueError(f"enum seam {self.name} declares no choices")


def _registry(*seams: Seam) -> dict[str, Seam]:
    table: dict[str, Seam] = {}
    for seam in seams:
        if seam.name in table:
            raise ValueError(f"duplicate seam {seam.name}")
        table[seam.name] = seam
    return table


#: Every ``REPRO_*`` environment variable the repo reads, in catalog
#: order (engines, benchmark harness, test fixtures).
SEAMS: dict[str, Seam] = _registry(
    Seam(
        name="REPRO_FAST_BACKEND",
        kind="enum",
        choices=("auto", "numpy", "python"),
        default="auto",
        doc=(
            "Kernel backend of the fast engine: numpy, pure python, or "
            "size-thresholded auto-selection (captured once at import)."
        ),
    ),
    Seam(
        name="REPRO_BENCH_WORKERS",
        kind="int",
        minimum=1,
        default="1",
        doc=(
            "Worker processes for benchmark sweeps; results are "
            "byte-identical for any value."
        ),
    ),
    Seam(
        name="REPRO_BENCH_ENGINE",
        kind="enum",
        choices=("reference", "fast", "vector"),
        default="reference",
        doc=(
            "Cycle engine for benchmark sweeps (reference/fast are "
            "trajectory-identical; vector is statistically equivalent)."
        ),
    ),
    Seam(
        name="REPRO_BENCH_FULL",
        kind="flag",
        doc=(
            "Add the 2^14-node size -- the paper's smallest -- to the "
            "benchmark sweeps (minutes instead of seconds)."
        ),
    ),
    Seam(
        name="REPRO_BENCH_PAPER",
        kind="flag",
        doc=(
            "Run the paper's full sweep (2^14, 2^16, 2^18); hours in "
            "pure Python, provided for completeness."
        ),
    ),
    Seam(
        name="REPRO_BENCH_PAPER_STRETCH",
        kind="flag",
        doc=(
            "Add the recorded 2^20 stretch cell to the paper-scale "
            "benchmark (one replica on the vector engine; implies a "
            "multi-gigabyte arena)."
        ),
    ),
    Seam(
        name="REPRO_CHAOS_SMOKE",
        kind="flag",
        doc=(
            "Shrink the chaos soak benchmark to smoke-sized clusters "
            "(the CI chaos leg); scenarios keep their event timelines."
        ),
    ),
    Seam(
        name="REPRO_CHAOS_SEED",
        kind="int",
        minimum=0,
        default=None,
        doc=(
            "Override every chaos scenario's seed (same schedule + "
            "seed => identical fault sequence and message counters)."
        ),
    ),
    Seam(
        name="REPRO_CHAOS_BUDGET",
        kind="int",
        minimum=1,
        default=None,
        doc=(
            "Override the virtual-seconds convergence budget of chaos "
            "runs (soak longer than the registered scenarios do)."
        ),
    ),
    Seam(
        name="REPRO_REGEN_GOLDEN",
        kind="flag",
        testing_only=True,
        doc=(
            "Regenerate the golden trajectory fixtures under "
            "tests/golden/ instead of comparing against them."
        ),
    ),
)


def get(name: str) -> str | None:
    """The raw value of a *declared* seam (``None`` when unset).

    Every environment read in the repo funnels through this line; the
    static analyzer rejects any other ``os.environ`` access.
    """
    if name not in SEAMS:
        raise KeyError(f"{name} is not a declared seam (see repro.seams.SEAMS)")
    return os.environ.get(name)  # repro-check: ignore[env-read] -- the registry's single read site


def enum(name: str, override: str | None = None) -> str | None:
    """A validated enum seam: *override* wins, else the environment,
    else the declared default (which may be ``None`` for auto seams).

    Raises ``ValueError`` naming the seam and its choices on an
    unrecognised value.
    """
    seam = SEAMS[name]
    value = override if override is not None else get(name)
    if value is None or value == "":
        return seam.default
    if value not in seam.choices:
        raise ValueError(
            f"{name} must be one of {'|'.join(seam.choices)}, got {value!r}"
        )
    return value


def flag(name: str) -> bool:
    """A presence flag: set and non-empty means on."""
    if SEAMS[name].kind != "flag":
        raise ValueError(f"{name} is not a flag seam")
    return bool(get(name))


def integer(name: str) -> int | None:
    """An integer seam, validated against the declared minimum.

    Returns ``None`` when the variable is unset (or set to the empty
    string) and no default is declared -- auto seams compute their own
    fallback at the call site.
    """
    seam = SEAMS[name]
    if seam.kind != "int":
        raise ValueError(f"{name} is not an integer seam")
    raw = get(name)
    if raw is None or raw == "":
        raw = seam.default
        if raw is None:
            return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if seam.minimum is not None and value < seam.minimum:
        raise ValueError(f"{name} must be >= {seam.minimum}, got {value}")
    return value


def catalog() -> tuple[Seam, ...]:
    """Every declared seam, in registry (catalog) order."""
    return tuple(SEAMS.values())
