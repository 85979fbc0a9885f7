"""A deployable peer: both gossip layers over one datagram endpoint.

:class:`AsyncPeer` is the asyncio realisation of the paper's node
stack (Figure 1's highlighted layers):

* a NEWSCAST instance gossiping on its own timer -- the persistent,
  "liquid" sampling layer;
* a bootstrap protocol instance whose ``cr`` samples come straight from
  the local NEWSCAST view, started on demand (the administrator's
  start signal) and gossiping on the protocol's Δ timer.

Both layers share one transport; frames are multiplexed by the codec's
layer field.  The wire is fire-and-forget, and so is the active thread,
exactly as Figure 2 has it: each Δ it sends one request and sleeps;
:meth:`AsyncPeer.on_datagram` absorbs the reply if one ever arrives.
There is no retransmission, no per-exchange timeout and no contact
bookkeeping -- a lost message only slows convergence (Figure 4).

Crashed gossip tasks are reaped into :attr:`AsyncPeer.crashes` (never
leaked as "Task exception was never retrieved" warnings), and
:meth:`AsyncPeer.stop` awaits every cancelled task.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Coroutine, Hashable, Iterable
from itertools import chain

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.descriptor import NodeDescriptor
from ..core.protocol import BootstrapNode
from ..sampling.newscast import NewscastNode
from . import codec

__all__ = ["AsyncPeer"]


class AsyncPeer:
    """One node of the deployable stack.

    Parameters
    ----------
    descriptor:
        This node's identity; its ``address`` must match the transport
        the peer is attached to.
    config:
        Bootstrap protocol parameters.  ``config.cycle_length`` is the
        bootstrap Δ in *seconds* here.
    rng:
        Peer-local randomness (selection, timer phases).
    view_size:
        NEWSCAST view size.
    newscast_interval:
        NEWSCAST gossip period in seconds (the paper suggests this
        layer runs on a long, heartbeat-like period; scaled down for
        in-process experiments).
    """

    def __init__(
        self,
        descriptor: NodeDescriptor,
        config: BootstrapConfig = PAPER_CONFIG,
        *,
        rng: random.Random | None = None,
        view_size: int = 30,
        newscast_interval: float = 0.05,
    ) -> None:
        self.descriptor = descriptor
        self.config = config
        self._rng = rng if rng is not None else random.Random()
        self.newscast = NewscastNode(
            descriptor,
            random.Random(self._rng.getrandbits(64)),
            view_size=view_size,
        )
        self.bootstrap = BootstrapNode(
            descriptor,
            config,
            self.newscast,
            random.Random(self._rng.getrandbits(64)),
        )
        self._transport = None
        self._newscast_interval = newscast_interval
        self._tasks: set[asyncio.Task] = set()
        self._active: asyncio.Task | None = None
        self._running = False
        self.frames_in = 0
        self.frames_bad = 0
        #: Unexpected exceptions reaped from gossip tasks (surfaced
        #: here instead of leaking as unretrieved-task warnings).
        self.crashes: list[BaseException] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def node_id(self) -> int:
        """This peer's overlay identifier."""
        return self.descriptor.node_id

    @property
    def address(self) -> Hashable:
        """This peer's transport address."""
        return self.descriptor.address

    def attach(self, transport) -> None:
        """Bind the peer to a transport (its receive handler must call
        :meth:`on_datagram`)."""
        self._transport = transport

    def seed(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Introduce initial contacts (the join/bootstrap list)."""
        self.newscast.seed_view(descriptors)

    def resilience_snapshot(self) -> dict[str, int]:
        """The receive-path counters as a plain dict (for reports);
        ``exchanges_ok`` counts the replies the active thread absorbed."""
        return {
            "frames_in": self.frames_in,
            "frames_bad": self.frames_bad,
            "exchanges_ok": self.bootstrap.stats.replies_received,
            "crashes": len(self.crashes),
        }

    # ------------------------------------------------------------------
    # Datagram dispatch
    # ------------------------------------------------------------------

    def on_datagram(self, data: bytes, source: Hashable) -> None:
        """Handle one received frame (transport receive callback).

        Any :class:`~repro.net.codec.CodecError` -- a malformed frame
        *or* a well-framed message with a malformed bootstrap payload
        -- is counted in :attr:`frames_bad` and dropped; a hostile
        datagram must never kill the receive path.
        """
        self.frames_in += 1
        try:
            wire = codec.decode_message(data)
        except codec.CodecError:
            self.frames_bad += 1
            return
        now = self._now()
        if wire.layer == codec.LAYER_NEWSCAST:
            self.newscast.set_time(now)
            # The answer is built from the pre-merge view, like the
            # in-process exchange.
            reply = None if wire.is_reply else self.newscast.gossip_payload()
            self.newscast.merge(chain(wire.descriptors, (wire.sender,)))
            if reply is not None:
                self._send(
                    codec.encode_message(
                        codec.LAYER_NEWSCAST,
                        1,
                        self.descriptor.refreshed(now),
                        reply,
                    ),
                    wire.sender.address,
                )
        else:
            try:
                message = codec.decode_bootstrap(wire)
            except codec.CodecError:
                self.frames_bad += 1
                return
            self.bootstrap.set_time(now)
            if message.is_reply:
                self.bootstrap.handle_reply(message)
            else:
                reply = self.bootstrap.handle_request(message)
                self._send(
                    codec.encode_bootstrap(reply), message.sender.address
                )

    # ------------------------------------------------------------------
    # Periodic gossip
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the NEWSCAST layer (the always-on substrate)."""
        if self._transport is None:
            raise RuntimeError("attach a transport before starting")
        if self._running:
            return
        self._running = True
        self._spawn(self._newscast_loop())

    def start_bootstrap(self) -> None:
        """Receive the administrator's start signal: initialise the
        bootstrap state and begin its active thread (a no-op while the
        active thread already runs)."""
        if not self._running:
            raise RuntimeError("start the peer before the bootstrap")
        if self._active is not None and not self._active.done():
            return
        self.bootstrap.set_time(self._now())
        if not self.bootstrap.started:
            self.bootstrap.start()
        self._active = self._spawn(self._bootstrap_loop())

    async def stop(self) -> None:
        """Cancel the gossip tasks, await them (exceptions are reaped
        into :attr:`crashes`, never leaked), and close the transport."""
        self._running = False
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()
        if self._transport is not None:
            self._transport.close()

    def _spawn(self, coro: Coroutine) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        """Done-callback of every gossip task: collect its exception
        (if any) so nothing dies silently."""
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.crashes.append(exc)

    async def _newscast_loop(self) -> None:
        interval = self._newscast_interval
        # Uniform phase so a simultaneously-started cluster does not
        # fire in lockstep.
        await asyncio.sleep(self._rng.uniform(0, interval))
        while self._running:
            now = self._now()
            self.newscast.set_time(now)
            peer = self.newscast.select_peer()
            if peer is not None:
                frame = codec.encode_message(
                    codec.LAYER_NEWSCAST,
                    0,
                    self.descriptor.refreshed(now),
                    self.newscast.gossip_payload(),
                )
                self._send(frame, peer.address)
            await asyncio.sleep(interval)

    async def _bootstrap_loop(self) -> None:
        delta = self.config.cycle_length
        # The loosely synchronised start: first activation at a uniform
        # offset within one Δ.
        await asyncio.sleep(self._rng.uniform(0, delta))
        while self._running:
            self.bootstrap.set_time(self._now())
            begun = self.bootstrap.initiate_exchange()
            if begun is not None:
                peer, request = begun
                self._send(codec.encode_bootstrap(request), peer.address)
            await asyncio.sleep(delta)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send(self, data: bytes, address: Hashable) -> None:
        if self._transport is not None:
            self._transport.send(data, address)

    @staticmethod
    def _now() -> float:
        return asyncio.get_event_loop().time()

    def __repr__(self) -> str:
        return (
            f"AsyncPeer(id={self.node_id:#x}, addr={self.address!r}, "
            f"running={self._running})"
        )
