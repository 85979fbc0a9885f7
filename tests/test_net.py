"""Tests for the asyncio transports, peer, and cluster."""

from __future__ import annotations

import asyncio
import math
import random
import struct

import pytest

from repro.core import PAPER_CONFIG
from repro.net import (
    AsyncPeer,
    ChaosHub,
    LinkFaults,
    LocalCluster,
    LoopbackHub,
    LoopbackTransport,
    UdpTransport,
    codec,
    run_virtual,
)
from .conftest import make_descriptor


def run(coro):
    return asyncio.run(coro)


class _RecordingHub(LoopbackHub):
    """A loopback fabric that counts the bootstrap frames sent on it."""

    def __init__(self) -> None:
        super().__init__()
        self.bootstrap_frames = 0

    def send(self, data, source, target) -> None:
        if codec.decode_message(data).layer == codec.LAYER_BOOTSTRAP:
            self.bootstrap_frames += 1
        super().send(data, source, target)


class TestLoopbackHub:
    def test_delivery(self):
        async def scenario():
            hub = LoopbackHub()
            received = []
            LoopbackTransport(hub, "a", lambda d, s: received.append((d, s)))
            sender = LoopbackTransport(hub, "b", lambda d, s: None)
            sender.send(b"hello", "a")
            await asyncio.sleep(0.01)
            return received

        assert run(scenario()) == [(b"hello", "b")]

    def test_unregistered_target_dropped(self):
        async def scenario():
            hub = LoopbackHub()
            sender = LoopbackTransport(hub, "b", lambda d, s: None)
            sender.send(b"hello", "ghost")
            await asyncio.sleep(0.01)
            return hub.datagrams_sent

        assert run(scenario()) == 1

    def test_closed_transport_stops_receiving(self):
        async def scenario():
            hub = LoopbackHub()
            received = []
            receiver = LoopbackTransport(
                hub, "a", lambda d, s: received.append(d)
            )
            sender = LoopbackTransport(hub, "b", lambda d, s: None)
            receiver.close()
            sender.send(b"x", "a")
            await asyncio.sleep(0.01)
            return received

        assert run(scenario()) == []

    def test_duplicate_address_rejected(self):
        async def scenario():
            hub = LoopbackHub()
            LoopbackTransport(hub, "a", lambda d, s: None)
            with pytest.raises(ValueError):
                LoopbackTransport(hub, "a", lambda d, s: None)

        run(scenario())


class TestAsyncPeer:
    def test_bad_frames_counted_not_fatal(self):
        async def scenario():
            hub = LoopbackHub()
            config = PAPER_CONFIG.with_overrides(cycle_length=0.05)
            peer = AsyncPeer(
                make_descriptor(1, address=0),
                config,
                rng=random.Random(0),
            )
            peer.attach(LoopbackTransport(hub, 0, peer.on_datagram))
            peer.on_datagram(b"garbage", 99)
            assert peer.frames_bad == 1
            assert peer.frames_in == 1
            await peer.stop()

        run(scenario())

    @pytest.mark.parametrize("timestamp", [math.inf, math.nan])
    def test_non_finite_timestamp_counted_view_untouched(self, timestamp):
        """A NEWSCAST frame carrying an ``inf``- or NaN-stamped record
        is a bad frame: nothing of it reaches the view, where an ``inf``
        entry would win every later merge and ride every payload."""

        async def scenario():
            hub = LoopbackHub()
            peer = AsyncPeer(
                make_descriptor(1, address=0),
                PAPER_CONFIG.with_overrides(cycle_length=0.05),
                rng=random.Random(0),
            )
            peer.attach(LoopbackTransport(hub, 0, peer.on_datagram))
            peer.seed([make_descriptor(7, address=7, timestamp=3.0)])
            before = peer.newscast.view.descriptors()
            frame = codec.encode_message(
                codec.LAYER_NEWSCAST,
                0,
                make_descriptor(2, address=9, timestamp=1.0),
                (make_descriptor(99, address=99, timestamp=2.0),),
            )
            finite = struct.pack(">d", 2.0)
            assert frame.count(finite) == 1
            bad = frame.replace(finite, struct.pack(">d", timestamp))
            peer.on_datagram(bad, 9)
            assert peer.frames_bad == 1
            assert peer.frames_in == 1
            assert peer.newscast.view.descriptors() == before
            await peer.stop()

        run(scenario())

    def test_start_requires_transport(self):
        peer = AsyncPeer(make_descriptor(1, address=0))
        with pytest.raises(RuntimeError):
            peer.start()

    def test_bootstrap_requires_started_peer(self):
        peer = AsyncPeer(make_descriptor(1, address=0))
        with pytest.raises(RuntimeError):
            peer.start_bootstrap()


class TestPeerResilience:
    def make_peer(self, hub, address=0, node_id=1):
        config = PAPER_CONFIG.with_overrides(cycle_length=0.05)
        peer = AsyncPeer(
            make_descriptor(node_id, address=address),
            config,
            rng=random.Random(node_id),
        )
        peer.attach(LoopbackTransport(hub, address, peer.on_datagram))
        return peer

    def test_bad_bootstrap_payload_counted_not_fatal(self, monkeypatch):
        """A well-framed bootstrap message whose payload decode raises
        CodecError is dropped and counted, never propagated."""

        async def scenario():
            hub = LoopbackHub()
            peer = self.make_peer(hub)

            def explode(wire):
                raise codec.CodecError("hostile payload")

            monkeypatch.setattr(codec, "decode_bootstrap", explode)
            frame = codec.encode_message(
                codec.LAYER_BOOTSTRAP,
                0,
                make_descriptor(2, address=9),
                (),
            )
            peer.on_datagram(frame, 9)
            assert peer.frames_bad == 1
            assert peer.frames_in == 1
            await peer.stop()

        run(scenario())

    def run_against_dead_contact(self, start_calls, cycles=20):
        """A peer whose only contact is unregistered runs *cycles* Δ
        after *start_calls* start signals; returns the bootstrap frames
        it put on the hub, its requests sent, and the tasks alive."""

        async def scenario():
            hub = _RecordingHub()
            peer = self.make_peer(hub)
            peer.seed([make_descriptor(99, address=404)])
            peer.start()
            for _ in range(start_calls):
                peer.start_bootstrap()
            await asyncio.sleep(cycles * peer.config.cycle_length)
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            requests = peer.bootstrap.stats.requests_sent
            await peer.stop()
            return hub.bootstrap_frames, requests, tasks, peer

        return run_virtual(scenario())

    def test_fire_and_forget_one_frame_per_activation(self):
        """No retransmission (Figure 2): each Δ activation puts exactly
        one bootstrap frame on the wire, even when no reply ever comes,
        and the peer runs nothing but its two gossip loops."""
        frames, requests, tasks, peer = self.run_against_dead_contact(1)
        assert requests in (20, 21)
        assert frames == requests
        assert len(tasks) == 2
        assert peer.resilience_snapshot()["exchanges_ok"] == 0

    def test_start_bootstrap_is_idempotent(self):
        """A second start signal while the active thread runs is a
        no-op: it must not double the request rate."""
        frames, requests, tasks, _ = self.run_against_dead_contact(2)
        assert requests in (20, 21)
        assert frames == requests
        assert len(tasks) == 2

    def test_crashing_gossip_task_is_reaped(self):
        """A peer whose gossip loop dies records the exception in
        ``crashes`` instead of leaking an unretrieved-task warning, and
        ``stop`` still completes cleanly."""

        async def scenario():
            hub = LoopbackHub()
            peer = self.make_peer(hub)
            peer.seed([make_descriptor(2, address=9)])

            def explode():
                raise RuntimeError("gossip meltdown")

            peer.newscast.select_peer = explode
            peer.start()
            await asyncio.sleep(0.2)
            await peer.stop()
            return peer.crashes

        crashes = run(scenario())
        assert len(crashes) == 1
        assert isinstance(crashes[0], RuntimeError)


class TestUdpErrors:
    def test_error_received_counted(self):
        transport = UdpTransport(lambda data, addr: None)
        assert transport.errors_received == 0
        transport.error_received(ConnectionRefusedError("icmp"))
        transport.error_received(OSError("unreachable"))
        assert transport.errors_received == 2


class TestLocalCluster:
    def test_loopback_end_to_end(self):
        async def scenario():
            cluster = await LocalCluster.create(24, seed=5)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.4)
                assert cluster.mean_view_size() > 10
                cluster.broadcast_start()
                converged = await cluster.await_convergence(timeout=6.0)
                return converged
            finally:
                await cluster.shutdown()

        assert run(scenario())

    def test_loopback_with_loss_and_latency(self):
        async def scenario():
            hub = ChaosHub(
                faults=LinkFaults(drop=0.2, delay=0.005), rng=random.Random(6)
            )
            cluster = await LocalCluster.create(16, seed=6, hub=hub)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.5)
                cluster.broadcast_start()
                return await cluster.await_convergence(timeout=8.0)
            finally:
                await cluster.shutdown()

        assert run(scenario())

    def test_udp_end_to_end(self):
        async def scenario():
            cluster = await LocalCluster.create_udp(10, seed=7)
            try:
                cluster.start_sampling_layer()
                await cluster.warmup(0.4)
                cluster.broadcast_start()
                return await cluster.await_convergence(timeout=6.0)
            finally:
                await cluster.shutdown()

        assert run(scenario())

    def test_validates_size(self):
        with pytest.raises(ValueError):
            run(LocalCluster.create(1))
