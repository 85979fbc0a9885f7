"""Static invariant analysis (``repro check``).

The repo's core claims -- fast engine bit-identical to the reference,
``workers=N`` byte-identical to ``workers=1``, batch absorb equal to
single absorb -- rest on determinism invariants that differential
tests can only pin *dynamically*: a wall-clock read or an unseeded
RNG call lands silently and surfaces later as a flaky golden
mismatch.  This package makes the invariants *statically* checkable
with four AST passes over ``src/`` and ``benchmarks/``:

``determinism``
    No module-level ``random.*`` draws, wall-clock reads, or
    ``os.urandom`` inside engine code; no iteration over set
    expressions (ordering hazard for bit-identity).
``seams``
    Every environment read flows through :mod:`repro.seams`; every
    ``REPRO_*`` literal is a declared seam; every declared seam is
    documented in the README catalog.
``layering``
    Module-level imports respect the declared layer DAG
    (core/simulator/sampling -> engine_* -> runtime -> scenarios ->
    cli; net/overlays independent of the engines).  Function-local
    imports are exempt -- they are the deliberate dispatch seams.
``lifecycle``
    ``SharedMemory(create=True)`` and ``ProcessPoolExecutor``
    construction is enclosed by a context manager or ``try/finally``
    cleanup in the same function (release-on-all-exits, checked at the
    AST level).

Every rule honours inline waivers with a mandatory reason::

    os.environ.get("X")  # repro-check: ignore[env-read] -- why this is safe

and wall-clock reads can be allowed for a whole function by marking
its ``def`` line ``# repro-check: timing -- reason``.  The analyzer
runs as the ``repro check`` CLI subcommand and as pytest-collectible
tests (``tests/test_devtools_checks.py``), and is gated in CI.
"""

from __future__ import annotations

from .findings import RULES, Finding, SourceFile
from .runner import main, render_report, run_checks

__all__ = [
    "RULES",
    "Finding",
    "SourceFile",
    "main",
    "render_report",
    "run_checks",
]
