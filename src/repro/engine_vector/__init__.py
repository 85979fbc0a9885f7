"""Vectorised-semantics simulation engine (``engine="vector"``).

This package is the third side of the engine seam.  Unlike
:mod:`repro.engine_fast` -- which replays the reference engine's RNG
streams bit-for-bit -- the vector engine relaxes bit-identity to
**distributional** identity: all of a cycle's randomness is drawn in
bulk from one ``numpy.random.Generator`` per simulation, and the whole
population's state lives in one pool-resident structure-of-arrays
arena (:mod:`repro.engine_vector.arena`), so whole waves of exchanges
run as numpy array operations.  Deterministic per seed; statistically
equivalent to the reference engine (mean convergence curves,
convergence-cycle summaries, transport loss fractions), as pinned by
``tests/test_engine_vector.py``.  See :mod:`repro.engine_vector.sim`
for the exact contract and :mod:`repro.engine_vector.rng` for the
stream semantics.

numpy is required: it is the ``fast`` extra.  A bare install keeps the
reference and fast engines; importing this package without numpy
raises a plain ``ImportError`` that says so.
"""

try:
    import numpy  # noqa: F401
except ImportError:
    raise ImportError(
        "the vector engine needs numpy: install the 'fast' extra "
        "(pip install 'repro-bootstrapping-service[fast]'), or use "
        "engine='reference' or engine='fast'"
    ) from None

from .sim import (  # noqa: E402
    VectorBootstrapSimulation,
    VectorConvergenceTracker,
)

__all__ = [
    "VectorBootstrapSimulation",
    "VectorConvergenceTracker",
]
