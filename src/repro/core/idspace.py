"""Identifier-space arithmetic for prefix-based overlays.

The paper (Section 4) defines node identifiers as fixed-width unsigned
integers interpreted two ways at once:

* as positions on a **ring** of size ``2**bits`` (used by the leaf set,
  which tracks the closest successors and predecessors), and
* as sequences of base-``2**digit_bits`` **digits** (used by the prefix
  table, indexed by longest-common-prefix length and first differing
  digit).

:class:`IDSpace` bundles both views behind one immutable object so that
every component of the library agrees on the geometry.  The paper's
simulations use 64-bit identifiers with ``b = 4`` (hexadecimal digits);
those are the defaults here.

All functions are pure and operate on plain ``int`` identifiers, which
keeps the protocol inner loops cheap (no wrapper objects on the hot
path).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import random

__all__ = ["IDSpace", "DEFAULT_ID_BITS", "DEFAULT_DIGIT_BITS", "slot_tables"]

DEFAULT_ID_BITS = 64
DEFAULT_DIGIT_BITS = 4


@lru_cache(maxsize=None)
def slot_tables(
    bits: int, digit_bits: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lookup tables for the prefix-slot computation.

    ``row_of[bit_length(own ^ id)]`` is the prefix-table row of *id* in
    *own*'s table, and ``shift_of[row]`` the right-shift that exposes
    the id's digit at that row.  Hot loops index these instead of
    redoing the division and multiplication per id.  One shared pair
    per geometry.
    """
    row_of = tuple((bits - bl) // digit_bits for bl in range(bits + 1))
    rows = bits // digit_bits
    shift_of = tuple(bits - (row + 1) * digit_bits for row in range(rows + 1))
    return row_of, shift_of


@dataclass(frozen=True)
class IDSpace:
    """Geometry of a circular, digit-structured identifier space.

    Parameters
    ----------
    bits:
        Width of an identifier in bits.  Identifiers are integers in
        ``[0, 2**bits)``.
    digit_bits:
        The paper's parameter ``b``: each identifier is also read as a
        sequence of ``bits // digit_bits`` digits of ``digit_bits`` bits
        each, most significant digit first.
    """

    bits: int = DEFAULT_ID_BITS
    digit_bits: int = DEFAULT_DIGIT_BITS

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if self.digit_bits <= 0:
            raise ValueError(
                f"digit_bits must be positive, got {self.digit_bits}"
            )
        if self.bits % self.digit_bits != 0:
            raise ValueError(
                "bits must be a multiple of digit_bits "
                f"(got bits={self.bits}, digit_bits={self.digit_bits})"
            )

    # ------------------------------------------------------------------
    # Basic derived quantities
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of identifiers in the space (``2**bits``)."""
        return 1 << self.bits

    @property
    def num_digits(self) -> int:
        """Number of digits in an identifier (``bits / digit_bits``)."""
        return self.bits // self.digit_bits

    @property
    def digit_base(self) -> int:
        """Radix of a digit (``2**digit_bits``); 16 for the paper's b=4."""
        return 1 << self.digit_bits

    @property
    def half(self) -> int:
        """Half the ring circumference; the successor/predecessor divide."""
        return 1 << (self.bits - 1)

    # ------------------------------------------------------------------
    # Validation and generation
    # ------------------------------------------------------------------

    def contains(self, node_id: int) -> bool:
        """Return whether *node_id* is a valid identifier in this space."""
        return 0 <= node_id < self.size

    def validate(self, node_id: int) -> int:
        """Return *node_id* unchanged, raising ``ValueError`` if invalid."""
        if not self.contains(node_id):
            raise ValueError(
                f"identifier {node_id!r} outside [0, 2**{self.bits})"
            )
        return node_id

    def random_id(self, rng: random.Random) -> int:
        """Draw a uniform identifier using the supplied RNG."""
        return rng.getrandbits(self.bits)

    def random_unique_ids(self, count: int, rng: random.Random) -> list[int]:
        """Draw *count* distinct uniform identifiers.

        The paper assumes "all nodes have unique numeric IDs"; collisions
        for 64-bit identifiers are vanishingly rare at practical sizes but
        we guard against them anyway so simulations are well defined.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > self.size:
            raise ValueError(
                f"cannot draw {count} distinct identifiers from a space "
                f"of size 2**{self.bits}"
            )
        seen = set()
        out: list[int] = []
        while len(out) < count:
            candidate = rng.getrandbits(self.bits)
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out

    # ------------------------------------------------------------------
    # Ring arithmetic (leaf-set view)
    # ------------------------------------------------------------------

    def clockwise_distance(self, start: int, end: int) -> int:
        """Distance travelled going from *start* to *end* in increasing
        direction (with wraparound)."""
        return (end - start) & (self.size - 1)

    def ring_distance(self, a: int, b: int) -> int:
        """Shortest distance between *a* and *b* along the ring."""
        forward = (b - a) & (self.size - 1)
        backward = (a - b) & (self.size - 1)
        return forward if forward < backward else backward

    def is_successor(self, own: int, other: int) -> bool:
        """Classify *other* relative to *own* per the paper's rule.

        "If an ID is closer in the increasing direction, it is a
        successor, otherwise it is a predecessor."  Ties on the exact
        antipode count as successors (the increasing direction is not
        strictly closer, but some deterministic rule is needed; the
        choice is irrelevant for 64-bit spaces in practice).
        """
        forward = (other - own) & (self.size - 1)
        return forward <= self.half

    def between_clockwise(self, left: int, mid: int, right: int) -> bool:
        """Return ``True`` when *mid* lies on the clockwise arc
        ``(left, right]``.  Used by ring-routing components (Chord)."""
        return (
            self.clockwise_distance(left, mid)
            <= self.clockwise_distance(left, right)
            and mid != left
        )

    # ------------------------------------------------------------------
    # Digit / prefix arithmetic (prefix-table view)
    # ------------------------------------------------------------------

    def digit(self, node_id: int, index: int) -> int:
        """Return digit *index* of *node_id* (0 = most significant)."""
        if not 0 <= index < self.num_digits:
            raise IndexError(
                f"digit index {index} outside [0, {self.num_digits})"
            )
        shift = self.bits - (index + 1) * self.digit_bits
        return (node_id >> shift) & (self.digit_base - 1)

    def digits(self, node_id: int) -> list[int]:
        """Return all digits of *node_id*, most significant first."""
        base_mask = self.digit_base - 1
        bits = self.bits
        db = self.digit_bits
        return [
            (node_id >> (bits - (i + 1) * db)) & base_mask
            for i in range(self.num_digits)
        ]

    def common_prefix_digits(self, a: int, b: int) -> int:
        """Length (in digits) of the longest common prefix of *a* and *b*.

        Equal identifiers share all ``num_digits`` digits.  Implemented
        via XOR so it costs O(1) rather than a digit-by-digit loop.
        """
        diff = a ^ b
        if diff == 0:
            return self.num_digits
        # Index of the most significant differing bit, counted from the top.
        leading_equal_bits = self.bits - diff.bit_length()
        return leading_equal_bits // self.digit_bits

    def xor_distance(self, a: int, b: int) -> int:
        """Kademlia's XOR metric over the same identifier space."""
        return a ^ b

    def prefix_slot(self, own: int, other: int) -> tuple[int, int]:
        """Return the prefix-table slot ``(row, column)`` that *other*
        occupies in *own*'s table.

        ``row``    -- length of the longest common prefix (paper's *i*).
        ``column`` -- first differing digit of *other* (paper's *j*).

        Raises ``ValueError`` for ``own == other`` because a node never
        stores itself (there is no first differing digit).
        """
        if own == other:
            raise ValueError("a node has no prefix-table slot for itself")
        row = self.common_prefix_digits(own, other)
        return row, self.digit(other, row)

    def shares_prefix(self, a: int, b: int, min_digits: int = 1) -> bool:
        """Return whether *a* and *b* share at least *min_digits* leading
        digits.  ``CREATEMESSAGE`` uses this to pick descriptors that are
        "potentially useful for the peer for its prefix table"."""
        return self.common_prefix_digits(a, b) >= min_digits

    def id_with_prefix(
        self, prefix_digits: Sequence[int], rng: random.Random
    ) -> int:
        """Draw a uniform identifier whose leading digits equal
        *prefix_digits*.  Useful for workload generators and tests."""
        if len(prefix_digits) > self.num_digits:
            raise ValueError(
                f"prefix of {len(prefix_digits)} digits exceeds "
                f"{self.num_digits}-digit identifiers"
            )
        value = 0
        for digit in prefix_digits:
            if not 0 <= digit < self.digit_base:
                raise ValueError(
                    f"digit {digit} outside [0, {self.digit_base})"
                )
            value = (value << self.digit_bits) | digit
        remaining_bits = self.bits - len(prefix_digits) * self.digit_bits
        suffix = rng.getrandbits(remaining_bits) if remaining_bits else 0
        return (value << remaining_bits) | suffix

    def format_id(self, node_id: int) -> str:
        """Render *node_id* as its digit sequence (hex-like string)."""
        width = max(1, (self.digit_bits + 3) // 4)
        return "".join(
            format(d, f"0{width}x") for d in self.digits(node_id)
        )

    # ------------------------------------------------------------------
    # Sorting helpers used by the protocol
    # ------------------------------------------------------------------

    def sort_by_ring_distance(
        self, origin: int, ids: Iterable[int]
    ) -> list[int]:
        """Return *ids* sorted by ring distance from *origin* (closest
        first).  Ties are broken by the identifier value so the order is
        deterministic."""
        size_mask = self.size - 1

        def key(node_id: int) -> tuple[int, int]:
            forward = (node_id - origin) & size_mask
            backward = (origin - node_id) & size_mask
            return (forward if forward < backward else backward, node_id)

        return sorted(ids, key=key)

    def iter_ring(self, start: int, sorted_ids: Sequence[int]) -> Iterator[int]:
        """Iterate *sorted_ids* (ascending) starting from the first
        identifier >= *start*, wrapping around.  Helper for reference
        leaf-set construction."""
        import bisect

        idx = bisect.bisect_left(sorted_ids, start)
        n = len(sorted_ids)
        for offset in range(n):
            yield sorted_ids[(idx + offset) % n]
