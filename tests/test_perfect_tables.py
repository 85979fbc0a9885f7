"""The vector engine's perfect-table packer against the object oracle.

``repro.engine_vector.arena.perfect_tables`` derives every live node's
perfect leaf set and perfect prefix-slot demands in array passes over
the sorted live ids; ``repro.core.reference.ReferenceTables`` (the
protocol's own selection rule plus a digit trie walk per node) stays
the oracle.  Per node, the leaf ids and the slot -> demand map must be
equal, and the summed arrays must equal ``ReferenceTables.totals()``:

* across the candidate-window edges (n around c and 2c), 256 and 4096
  ids;
* on clustered ids sharing long digit prefixes, on both ends of the
  ring (0 and ``2^bits - 1``, and the all-ones top block at every
  depth), and on an exact antipode pair (``forward == half`` is a
  successor);
* on four geometries, each with the FAST and the paper ``(c, k)``.

The block tests pin that the packer's fixed-size rank blocks are
bit-identical to one pass, whatever the block size.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core import IDSpace  # noqa: E402
from repro.core.reference import ReferenceTables  # noqa: E402
from repro.engine_vector import arena  # noqa: E402

#: (c, k): the small-test FAST config and the paper's Section 5 one.
CK = {"fast": (8, 2), "paper": (20, 3)}
GEOMETRIES = [IDSpace(16, 4), IDSpace(8, 2), IDSpace(64, 8), IDSpace(64, 4)]


def geometry_id(space: IDSpace) -> str:
    return f"b{space.bits}d{space.digit_bits}"


def window_sizes(c: int) -> list[int]:
    return sorted(
        {1, 2, 3, c - 1, c, c + 1, c + 2, 2 * c, 2 * c + 1, 2 * c + 2, 256, 4096}
    )


def pack(ids, space: IDSpace, c: int, k: int):
    return arena.perfect_tables(
        np.array(sorted(ids), dtype=np.uint64), space, c, k
    )


def unpack(ids, space: IDSpace, c: int, k: int):
    """Per node ``(sorted leaf ids, sorted (slot, demand) pairs)`` and
    the two summed totals."""
    ids = sorted(ids)
    leaf, leaf_lens, slots, need, slot_lens = pack(ids, space, c, k)
    leaf_rows = np.split(leaf, np.cumsum(leaf_lens)[:-1])
    cut = np.cumsum(slot_lens)[:-1]
    rows = zip(
        ids, leaf_rows, np.split(slots, cut), np.split(need, cut), strict=True
    )
    per_node = {
        node_id: (
            sorted(leaf_row.tolist()),
            sorted(zip(slot_row.tolist(), need_row.tolist(), strict=True)),
        )
        for node_id, leaf_row, slot_row, need_row in rows
    }
    return per_node, (int(leaf_lens.sum()), int(need.sum()))


def assert_matches_oracle(ids, space: IDSpace, c: int, k: int) -> None:
    reference = ReferenceTables(space, ids, c, k)
    per_node, totals = unpack(ids, space, c, k)
    db = space.digit_bits
    for node_id in reference.ids:
        leaf, demands = per_node[node_id]
        assert leaf == sorted(reference.perfect_leaf_ids(node_id)), hex(node_id)
        expected = sorted(
            ((row << db) | digit, need)
            for (row, digit), need in reference.perfect_prefix_counts(
                node_id
            ).items()
        )
        assert demands == expected, hex(node_id)
    assert totals == reference.totals()


def random_ids(space: IDSpace, n: int, seed: int) -> list[int]:
    return space.random_unique_ids(min(n, space.size), random.Random(seed))


def clustered_ids(space: IDSpace, n: int, seed: int) -> list[int]:
    """Tight clusters sharing long prefixes: 8-14 of the paper
    geometry's 16 digits, half to all-but-two digits elsewhere."""
    rng = random.Random(seed)
    digits = space.num_digits
    ids: list[int] = []
    seen: set[int] = set()
    while len(ids) < n:
        shared = rng.randint(digits // 2, digits - 2)
        prefix = [rng.randrange(space.digit_base) for _ in range(shared)]
        for _ in range(rng.randint(1, 12)):
            node_id = space.id_with_prefix(prefix, rng)
            if node_id not in seen and len(ids) < n:
                seen.add(node_id)
                ids.append(node_id)
    return ids


def ring_end_ids(space: IDSpace, n: int, seed: int) -> list[int]:
    """0, ``2^bits - 1`` and their neighbours, the first id of the
    all-ones block at every depth (whose top band ends at ``2^bits``),
    topped up with random ids."""
    top = space.size - 1
    ids = {0, 1, 2, top, top - 1, top - 2}
    for depth in range(1, space.num_digits):
        block = space.size - (1 << (space.bits - depth * space.digit_bits))
        ids.update((block, block + 1))
    rng = random.Random(seed)
    while len(ids) < n:
        ids.add(space.random_id(rng))
    return sorted(ids)


@pytest.mark.parametrize("space", GEOMETRIES, ids=geometry_id)
@pytest.mark.parametrize("ck", sorted(CK))
class TestPackerEqualsReferenceTables:
    def test_random_ids_across_window_edges(self, space, ck):
        c, k = CK[ck]
        for n in window_sizes(c):
            if n > space.size:
                continue
            assert_matches_oracle(random_ids(space, n, seed=n), space, c, k)

    def test_clustered_ids(self, space, ck):
        c, k = CK[ck]
        for n in (c + 1, 2 * c + 2, 200):
            assert_matches_oracle(
                clustered_ids(space, n, seed=n), space, c, k
            )

    def test_ring_ends(self, space, ck):
        c, k = CK[ck]
        for n in (c, 2 * c + 1, 150):
            assert_matches_oracle(ring_end_ids(space, n, seed=n), space, c, k)

    def test_antipode_is_a_successor(self, space, ck):
        """Node 0 with its exact antipode and c + 2 ids just below it:
        the antipode is kept only because ``forward == half`` counts as
        a successor (as a predecessor it would be the farthest one)."""
        c, k = CK[ck]
        ids = [0, space.half] + [space.size - 1 - i for i in range(c + 2)]
        assert_matches_oracle(ids, space, c, k)
        per_node, _ = unpack(ids, space, c, k)
        assert space.half in per_node[0][0]
        # Antipode pairs scattered through a random population.
        rng = random.Random(c)
        pairs = {space.random_id(rng) & (space.half - 1) for _ in range(12)}
        ids = sorted(pairs | {p + space.half for p in pairs})
        assert_matches_oracle(ids, space, c, k)


class TestPackerShape:
    def test_empty_population_is_refused(self):
        with pytest.raises(ValueError, match="at least one identifier"):
            arena.perfect_tables(
                np.empty(0, dtype=np.uint64), IDSpace(), *CK["paper"]
            )

    def test_single_node_has_empty_tables(self):
        leaf, leaf_lens, slots, need, slot_lens = pack(
            [7], IDSpace(), *CK["paper"]
        )
        assert leaf.size == slots.size == need.size == 0
        assert leaf_lens.tolist() == slot_lens.tolist() == [0]

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_are_bit_identical(self, monkeypatch, block):
        cases = [
            (IDSpace(), CK["paper"], random_ids(IDSpace(), 300, seed=1)),
            (IDSpace(16, 4), CK["fast"], ring_end_ids(IDSpace(16, 4), 17, 2)),
            (IDSpace(64, 8), CK["fast"], clustered_ids(IDSpace(64, 8), 90, 3)),
            (IDSpace(8, 2), CK["paper"], [5]),
        ]
        whole = [pack(ids, space, *ck) for space, ck, ids in cases]
        monkeypatch.setattr(arena, "_PACK_BLOCK", block)
        for (space, ck, ids), expected in zip(cases, whole, strict=True):
            got = pack(ids, space, *ck)
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
