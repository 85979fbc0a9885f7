"""Protocol configuration.

Section 4 of the paper closes by enumerating the protocol's parameters:

    "The prefix table is defined by ``b`` (the number of bits in a digit)
    and ``k``, the number of entries for a specific prefix length and
    first differing digit.  The size of the leaf set is ``c``.  Parameter
    ``Δ`` defines the frequency of communication.  Finally, ``cr`` is the
    number of random samples used for improving the messages to be sent."

:class:`BootstrapConfig` captures exactly that parameter set (plus the
identifier width, fixed at 64 bits in the paper's simulations) with the
paper's Section 5 experimental values as defaults: ``b = 4``, ``k = 3``,
``c = 20``, ``cr = 30``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .idspace import IDSpace

__all__ = ["BootstrapConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class BootstrapConfig:
    """Parameters of the bootstrapping protocol (paper Section 4/5).

    Attributes
    ----------
    id_bits:
        Identifier width in bits (paper: 64; "the extra bits play no
        role" beyond covering the longest common prefix of any pair).
    digit_bits:
        Paper's ``b``: bits per digit of the prefix table (paper: 4).
    entries_per_slot:
        Paper's ``k``: number of descriptors kept per (prefix length,
        first differing digit) slot (paper: 3; values > 1 support
        proximity optimisation in the consuming overlay).
    leaf_set_size:
        Paper's ``c``: total leaf-set capacity, split as ``c/2`` closest
        successors and ``c/2`` closest predecessors (paper: 20).
    random_samples:
        Paper's ``cr``: number of fresh peer-sampling-service samples
        blended into every outgoing message (paper: 30).  These samples
        are "free" because the sampling layer runs independently.
    cycle_length:
        Paper's ``Δ``: the period of the active thread, in simulated
        time units.  Cycle-driven experiments treat one cycle as one Δ;
        the asyncio prototype (live or on the virtual clock) uses the
        value directly.
    """

    id_bits: int = 64
    digit_bits: int = 4
    entries_per_slot: int = 3
    leaf_set_size: int = 20
    random_samples: int = 30
    cycle_length: float = 1.0

    def __post_init__(self) -> None:
        if self.entries_per_slot < 1:
            raise ValueError(
                f"entries_per_slot (k) must be >= 1, "
                f"got {self.entries_per_slot}"
            )
        if self.leaf_set_size < 2:
            raise ValueError(
                f"leaf_set_size (c) must be >= 2, got {self.leaf_set_size}"
            )
        if self.leaf_set_size % 2 != 0:
            raise ValueError(
                "leaf_set_size (c) must be even: the protocol keeps c/2 "
                f"successors and c/2 predecessors, got {self.leaf_set_size}"
            )
        if self.random_samples < 0:
            raise ValueError(
                f"random_samples (cr) must be >= 0, got {self.random_samples}"
            )
        if self.cycle_length <= 0:
            raise ValueError(
                f"cycle_length (Δ) must be positive, got {self.cycle_length}"
            )
        # Delegates bits/digit_bits validation to IDSpace.
        IDSpace(self.id_bits, self.digit_bits)

    @property
    def space(self) -> IDSpace:
        """The :class:`IDSpace` induced by ``id_bits`` and ``digit_bits``."""
        return IDSpace(self.id_bits, self.digit_bits)

    @property
    def half_leaf_set(self) -> int:
        """``c/2``: per-direction leaf-set capacity."""
        return self.leaf_set_size // 2

    @property
    def prefix_table_capacity(self) -> int:
        """Upper bound on prefix-table entries: rows x (base-1) x k.

        ``CREATEMESSAGE`` uses this as the bound on the prefix-targeted
        part of a message ("bounded by the size of the full prefix
        table").
        """
        space = self.space
        return (
            space.num_digits * (space.digit_base - 1) * self.entries_per_slot
        )

    def with_overrides(self, **changes: Any) -> BootstrapConfig:
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """Return the parameter set as a plain dict (for trace headers)."""
        return {
            "id_bits": self.id_bits,
            "b": self.digit_bits,
            "k": self.entries_per_slot,
            "c": self.leaf_set_size,
            "cr": self.random_samples,
            "delta": self.cycle_length,
        }


#: The exact parameterisation used in the paper's Section 5 simulations.
PAPER_CONFIG = BootstrapConfig()
