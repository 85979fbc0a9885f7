"""Batched randomness for the vector engine.

The reference and fast engines spread a run's randomness over many
named ``random.Random`` streams (one per node, per sampler endpoint,
per gossip layer) because their contract is *bit-identical replay*.
The vector engine's contract is **distributional** identity, which
frees it to draw everything a cycle needs -- the activation
permutation, per-exchange peer picks, message-drop coins, and
peer-sampling index matrices -- in a handful of bulk calls against
**one generator per simulation**: a single ``numpy.random.Generator``
(``default_rng`` / PCG64), seeded with ``derive_seed(seed, "vector-rng")``.

The stream is deterministic per seed but differs from the reference
engine's -- that is the documented trade the vector engine makes for
whole-cycle batching (see the package docstring for what is and is not
preserved).
"""

from __future__ import annotations

import numpy as _np

__all__ = ["NumpyDrawSource"]


class NumpyDrawSource:
    """All of a simulation's exchange randomness from one
    ``numpy.random.Generator``."""

    __slots__ = ("_rng",)

    def __init__(self, seed: int) -> None:
        self._rng = _np.random.default_rng(seed)

    def shuffle(self, items: list[int]) -> None:
        """Shuffle a Python list in place (one ``permutation`` draw)."""
        order = self._rng.permutation(len(items))
        items[:] = [items[i] for i in order]

    def floats(self, count: int):
        """*count* uniform floats in ``[0, 1)`` as an ndarray."""
        return self._rng.random(count)

    def index_matrix(self, bound: int, rows: int, cols: int):
        """A ``rows x cols`` matrix of uniform indices below *bound*."""
        if rows == 0 or cols == 0 or bound == 0:
            return _np.empty((rows, cols), dtype=_np.intp)
        return self._rng.integers(0, bound, size=(rows, cols))

    def float_matrix(self, rows: int, cols: int):
        """A ``rows x cols`` matrix of uniform floats in ``[0, 1)``."""
        return self._rng.random((rows, cols))

