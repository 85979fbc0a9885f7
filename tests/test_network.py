"""Tests for network models and the paper's loss accounting."""

from __future__ import annotations

import random

import pytest

from repro.simulator import PAPER_LOSSY, RELIABLE, NetworkModel, TransportStats


class TestNetworkModel:
    def test_reliable(self, rng):
        assert RELIABLE.reliable
        assert not any(RELIABLE.should_drop(rng) for _ in range(100))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NetworkModel(drop_probability=1.0)
        with pytest.raises(ValueError):
            NetworkModel(drop_probability=-0.1)

    def test_drop_rate_statistical(self):
        rng = random.Random(0)
        model = NetworkModel(drop_probability=0.2)
        drops = sum(model.should_drop(rng) for _ in range(20000))
        assert 0.18 < drops / 20000 < 0.22

    def test_expected_overall_loss_paper_value(self):
        """The paper's 'elementary calculation': 28% at p=0.2."""
        assert PAPER_LOSSY.expected_overall_loss() == pytest.approx(0.28)

    def test_expected_overall_loss_zero(self):
        assert RELIABLE.expected_overall_loss() == 0.0


class TestTransportStats:
    def test_pair_loss_accounting(self):
        """Re-derive the 28% figure from raw counters."""
        stats = TransportStats()
        # 100 exchanges: 20 requests dropped (answers suppressed),
        # of the 80 answered, 16 replies dropped.
        stats.exchanges = 100
        stats.requests_sent = 100
        stats.requests_dropped = 20
        stats.suppressed_replies = 20
        stats.replies_sent = 80
        stats.replies_dropped = 16
        assert stats.intended == 200
        assert stats.sent == 180
        assert stats.delivered == 80 + 64
        assert stats.overall_loss_fraction == pytest.approx(0.28)
        assert stats.wire_loss_fraction == pytest.approx(36 / 180)

    def test_void_requests_reduce_delivery(self):
        stats = TransportStats()
        stats.exchanges = 10
        stats.requests_sent = 10
        stats.void_requests = 10
        stats.suppressed_replies = 10
        assert stats.delivered == 0
        assert stats.overall_loss_fraction == 1.0

    def test_zero_exchange_edge(self):
        stats = TransportStats()
        assert stats.overall_loss_fraction == 0.0
        assert stats.wire_loss_fraction == 0.0

    def test_snapshot_keys(self):
        stats = TransportStats()
        snap = stats.snapshot()
        for key in (
            "exchanges",
            "intended",
            "sent",
            "delivered",
            "overall_loss_fraction",
            "wire_loss_fraction",
        ):
            assert key in snap
