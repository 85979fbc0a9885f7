"""Tests for node descriptors and freshest-wins merging."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import NodeDescriptor, dedupe_by_id, freshest_by_id


class TestNodeDescriptor:
    def test_fields(self):
        desc = NodeDescriptor(node_id=5, address="a", timestamp=1.5)
        assert desc.node_id == 5
        assert desc.address == "a"
        assert desc.timestamp == 1.5

    def test_frozen(self):
        desc = NodeDescriptor(node_id=5, address="a")
        with pytest.raises(AttributeError):
            desc.node_id = 6

    def test_equality_and_hash(self):
        a = NodeDescriptor(node_id=5, address="a", timestamp=1.0)
        b = NodeDescriptor(node_id=5, address="a", timestamp=1.0)
        c = NodeDescriptor(node_id=5, address="a", timestamp=2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_refreshed_keeps_identity(self):
        desc = NodeDescriptor(node_id=5, address="a", timestamp=1.0)
        fresh = desc.refreshed(9.0)
        assert fresh.node_id == 5
        assert fresh.address == "a"
        assert fresh.timestamp == 9.0
        assert desc.timestamp == 1.0  # original untouched

    @pytest.mark.parametrize("address", ["a", 7, ("host", 80)])
    def test_refreshed_is_a_plain_reconstruction(self, address):
        desc = NodeDescriptor(node_id=5, address=address, timestamp=1.0)
        fresh = desc.refreshed(9.0)
        built = NodeDescriptor(node_id=5, address=address, timestamp=9.0)
        assert type(fresh) is NodeDescriptor
        assert fresh == built
        assert hash(fresh) == hash(built)
        assert fresh.address is desc.address
        assert desc.refreshed(desc.timestamp) == desc

    def test_is_fresher_than(self):
        old = NodeDescriptor(node_id=5, address="a", timestamp=1.0)
        new = NodeDescriptor(node_id=5, address="a", timestamp=2.0)
        assert new.is_fresher_than(old)
        assert not old.is_fresher_than(new)
        assert not old.is_fresher_than(old)

    def test_repr_contains_id(self):
        desc = NodeDescriptor(node_id=255, address=1)
        assert "0xff" in repr(desc)

    def test_tuple_address(self):
        desc = NodeDescriptor(node_id=1, address=("127.0.0.1", 9000))
        assert desc.address == ("127.0.0.1", 9000)


class TestFreshestById:
    def test_empty(self):
        assert freshest_by_id([]) == {}

    def test_keeps_freshest(self):
        descs = [
            NodeDescriptor(node_id=1, address="old", timestamp=1.0),
            NodeDescriptor(node_id=1, address="new", timestamp=2.0),
            NodeDescriptor(node_id=2, address="only", timestamp=0.0),
        ]
        best = freshest_by_id(descs)
        assert best[1].address == "new"
        assert best[2].address == "only"

    def test_first_wins_on_equal_timestamp(self):
        descs = [
            NodeDescriptor(node_id=1, address="first", timestamp=1.0),
            NodeDescriptor(node_id=1, address="second", timestamp=1.0),
        ]
        assert freshest_by_id(descs)[1].address == "first"

    def test_dedupe_by_id_counts(self):
        descs = [
            NodeDescriptor(node_id=i % 3, address=i, timestamp=i)
            for i in range(9)
        ]
        deduped = dedupe_by_id(descs)
        assert len(deduped) == 3
        assert {d.node_id for d in deduped} == {0, 1, 2}
        # Freshest (largest timestamp) per id survived.
        by_id = {d.node_id: d for d in deduped}
        assert by_id[0].timestamp == 6
        assert by_id[2].timestamp == 8

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(
                    min_value=0, max_value=100, allow_nan=False
                ),
            )
        )
    )
    def test_freshest_dominates(self, pairs):
        descs = [
            NodeDescriptor(node_id=nid, address=i, timestamp=ts)
            for i, (nid, ts) in enumerate(pairs)
        ]
        best = freshest_by_id(descs)
        for desc in descs:
            assert best[desc.node_id].timestamp >= desc.timestamp
