"""A deployable peer: both gossip layers over one datagram endpoint.

:class:`AsyncPeer` is the asyncio realisation of the paper's node
stack (Figure 1's highlighted layers):

* a NEWSCAST instance gossiping on its own timer -- the persistent,
  "liquid" sampling layer;
* a bootstrap protocol instance whose ``cr`` samples come straight from
  the local NEWSCAST view, started on demand (the administrator's
  start signal) and gossiping on the protocol's Δ timer.

Both layers share one transport; frames are multiplexed by the codec's
layer field.  The wire stays fire-and-forget UDP, which the protocol
tolerates by design (Figure 4) -- but the *active* bootstrap thread is
resilient on top of it:

* each request is retried up to :attr:`RetryPolicy.attempts` times
  with jittered exponential backoff before the exchange is abandoned;
* per-contact liveness (:class:`ContactTracker`) demotes descriptors
  that keep failing from the NEWSCAST view, and a periodic sweep
  removes entries that have gone stale (failing and unheard-from
  beyond :attr:`RetryPolicy.stale_after`);
* an exhausted exchange degrades gracefully: the peer falls back to
  one fresh NEWSCAST sample instead of spinning on a dead contact.

Crashed gossip tasks are reaped into :attr:`AsyncPeer.crashes` (never
leaked as "Task exception was never retrieved" warnings), and
:meth:`AsyncPeer.stop` awaits every cancelled task.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from collections.abc import Coroutine, Hashable, Iterable
from itertools import chain

from ..core.config import BootstrapConfig, PAPER_CONFIG
from ..core.descriptor import NodeDescriptor
from ..core.protocol import BootstrapNode
from ..sampling.newscast import NewscastNode
from . import codec

__all__ = ["AsyncPeer", "RetryPolicy", "ContactTracker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff and liveness parameters of the active thread.

    Attributes
    ----------
    attempts:
        Sends per exchange (first transmission included).
    base_timeout:
        Reply timeout of the first attempt, seconds.
    backoff:
        Timeout multiplier per retry (exponential backoff).
    jitter:
        Each attempt's timeout is stretched by a uniform factor in
        ``[1, 1 + jitter]`` (desynchronises retry storms).
    demote_after:
        Consecutive failed exchanges to one contact before its
        descriptor is demoted from the NEWSCAST view.
    stale_after:
        A failing contact unheard-from for this long (seconds) is
        swept from the view by the periodic staleness sweep.
    max_outstanding:
        Cap on concurrently in-flight exchanges; Δ activations beyond
        it are skipped (counted, not queued -- bounded memory under
        blackholes).
    """

    attempts: int = 3
    base_timeout: float = 0.1
    backoff: float = 2.0
    jitter: float = 0.25
    demote_after: int = 2
    stale_after: float = 2.0
    max_outstanding: int = 4

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_timeout <= 0.0:
            raise ValueError(
                f"base_timeout must be > 0, got {self.base_timeout}"
            )
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.demote_after < 1:
            raise ValueError(
                f"demote_after must be >= 1, got {self.demote_after}"
            )
        if self.stale_after <= 0.0:
            raise ValueError(
                f"stale_after must be > 0, got {self.stale_after}"
            )
        if self.max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )

    def timeout_for(self, attempt: int, rng: random.Random) -> float:
        """The reply timeout of zero-based *attempt*, jittered."""
        timeout = self.base_timeout * self.backoff**attempt
        if self.jitter:
            timeout *= 1.0 + self.jitter * rng.random()
        return timeout

    @classmethod
    def for_config(cls, config: BootstrapConfig) -> RetryPolicy:
        """Defaults scaled to the protocol's Δ: a reply is expected
        well within one cycle, so the first timeout is ``2Δ`` and a
        contact is stale after ``40Δ``."""
        delta = config.cycle_length
        return cls(base_timeout=2.0 * delta, stale_after=40.0 * delta)


class ContactTracker:
    """Per-contact liveness bookkeeping, keyed by transport address.

    Heard-from times come from every decoded frame; failures from
    exhausted exchange retries.  A success clears the failure streak
    (the contact proved live again).
    """

    __slots__ = ("_last_heard", "_failures")

    def __init__(self) -> None:
        self._last_heard: dict[Hashable, float] = {}
        self._failures: dict[Hashable, int] = {}

    def note_heard(self, address: Hashable, now: float) -> None:
        """Record an inbound frame from *address* at *now*."""
        self._last_heard[address] = now
        self._failures.pop(address, None)

    def note_failure(self, address: Hashable) -> int:
        """Record one exhausted exchange; returns the failure streak."""
        streak = self._failures.get(address, 0) + 1
        self._failures[address] = streak
        return streak

    def failures(self, address: Hashable) -> int:
        """Current consecutive-failure streak of *address*."""
        return self._failures.get(address, 0)

    def last_heard(self, address: Hashable) -> float | None:
        """When *address* was last heard from (``None`` = never)."""
        return self._last_heard.get(address)

    def forget(self, address: Hashable) -> None:
        """Drop all state for *address* (descriptor was demoted)."""
        self._last_heard.pop(address, None)
        self._failures.pop(address, None)

    def is_stale(self, address: Hashable, now: float, ttl: float) -> bool:
        """Whether *address* is failing and unheard-from beyond *ttl*."""
        if not self._failures.get(address, 0):
            return False
        heard = self._last_heard.get(address)
        return heard is None or now - heard > ttl


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
        Peer-local randomness (selection, jitter).
    view_size:
        NEWSCAST view size.
    newscast_interval:
        NEWSCAST gossip period in seconds (the paper suggests this
        layer runs on a long, heartbeat-like period; scaled down for
        in-process experiments).
    retry:
        Retry/backoff and liveness parameters of the active thread
        (default: :meth:`RetryPolicy.for_config` scaled to Δ).
    """

    def __init__(
        self,
        descriptor: NodeDescriptor,
        config: BootstrapConfig = PAPER_CONFIG,
        *,
        rng: random.Random | None = None,
        view_size: int = 30,
        newscast_interval: float = 0.05,
        retry: RetryPolicy | None = None,
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
        self.retry = retry if retry is not None else RetryPolicy.for_config(
            config
        )
        self._transport = None
        self._newscast_interval = newscast_interval
        self._tasks: set[asyncio.Task] = set()
        self._exchanges: set[asyncio.Task] = set()
        self._pending: dict[Hashable, list[asyncio.Future]] = {}
        self._contacts = ContactTracker()
        self._running = False
        self.frames_in = 0
        self.frames_bad = 0
        self.retries_sent = 0
        self.exchanges_ok = 0
        self.exchanges_failed = 0
        self.exchange_skips = 0
        self.fallback_exchanges = 0
        self.stale_demotions = 0
        self.bootstrap_stalls = 0
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

    @property
    def contacts(self) -> ContactTracker:
        """Per-contact liveness state (read-mostly; for tests/reports)."""
        return self._contacts

    def attach(self, transport) -> None:
        """Bind the peer to a transport (its receive handler must call
        :meth:`on_datagram`)."""
        self._transport = transport

    def seed(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Introduce initial contacts (the join/bootstrap list)."""
        self.newscast.seed_view(descriptors)

    def resilience_snapshot(self) -> dict[str, int]:
        """The resilience counters as a plain dict (for reports)."""
        return {
            "frames_in": self.frames_in,
            "frames_bad": self.frames_bad,
            "retries_sent": self.retries_sent,
            "exchanges_ok": self.exchanges_ok,
            "exchanges_failed": self.exchanges_failed,
            "exchange_skips": self.exchange_skips,
            "fallback_exchanges": self.fallback_exchanges,
            "stale_demotions": self.stale_demotions,
            "bootstrap_stalls": self.bootstrap_stalls,
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
        self._contacts.note_heard(wire.sender.address, now)
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
                self._resolve_pending(message.sender.address)
            else:
                reply = self.bootstrap.handle_request(message)
                self._send(
                    codec.encode_bootstrap(reply), message.sender.address
                )

    def _resolve_pending(self, address: Hashable) -> None:
        """Wake the oldest exchange awaiting a reply from *address*."""
        waiters = self._pending.get(address)
        if not waiters:
            return
        future = waiters.pop(0)
        if not waiters:
            del self._pending[address]
        if not future.done():
            future.set_result(True)

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
        bootstrap state and begin its active thread."""
        if not self._running:
            raise RuntimeError("start the peer before the bootstrap")
        self.bootstrap.set_time(self._now())
        if not self.bootstrap.started:
            self.bootstrap.start()
        self._spawn(self._bootstrap_loop())

    async def stop(self) -> None:
        """Cancel the gossip tasks, await them (exceptions are reaped
        into :attr:`crashes`, never leaked), and close the transport."""
        self._running = False
        tasks = [*self._tasks, *self._exchanges]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()
        self._exchanges.clear()
        self._pending.clear()
        if self._transport is not None:
            self._transport.close()

    def _spawn(
        self, coro: Coroutine, *, exchange: bool = False
    ) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        (self._exchanges if exchange else self._tasks).add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        """Done-callback of every gossip task: collect its exception
        (if any) so nothing dies silently."""
        self._tasks.discard(task)
        self._exchanges.discard(task)
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
            self._demote_stale(now)
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
                if len(self._exchanges) < self.retry.max_outstanding:
                    peer, request = begun
                    self._spawn(
                        self._exchange(peer, request), exchange=True
                    )
                else:
                    self.exchange_skips += 1
            await asyncio.sleep(delta)

    # ------------------------------------------------------------------
    # Resilient exchanges
    # ------------------------------------------------------------------

    async def _exchange(self, peer: NodeDescriptor, request) -> None:
        """One active-thread exchange: request with retries, then --
        if the contact is demoted -- one fallback to a fresh sample."""
        frame = codec.encode_bootstrap(request)
        if await self._request_with_retry(peer.address, frame):
            self.exchanges_ok += 1
            return
        self.exchanges_failed += 1
        if self._note_exchange_failure(peer):
            await self._fallback_exchange(exclude=peer.node_id)

    async def _request_with_retry(
        self,
        address: Hashable,
        frame: bytes,
        attempts: int | None = None,
    ) -> bool:
        """Send *frame* to *address*, retrying with jittered
        exponential backoff; ``True`` when a reply arrived in time."""
        policy = self.retry
        attempts = policy.attempts if attempts is None else attempts
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.setdefault(address, []).append(future)
        try:
            for attempt in range(attempts):
                if attempt:
                    self.retries_sent += 1
                self._send(frame, address)
                timeout = policy.timeout_for(attempt, self._rng)
                try:
                    await asyncio.wait_for(
                        asyncio.shield(future), timeout
                    )
                except asyncio.TimeoutError:
                    continue
                return True
            return False
        finally:
            waiters = self._pending.get(address)
            if waiters and future in waiters:
                waiters.remove(future)
                if not waiters:
                    del self._pending[address]

    def _note_exchange_failure(self, peer: NodeDescriptor) -> bool:
        """Record an exhausted exchange; demote the contact from the
        NEWSCAST view once its streak reaches ``demote_after``.
        Returns whether the contact was demoted (fallback trigger)."""
        streak = self._contacts.note_failure(peer.address)
        if streak < self.retry.demote_after:
            return False
        if self.newscast.view.remove(peer.node_id):
            self.stale_demotions += 1
        self._contacts.forget(peer.address)
        return True

    async def _fallback_exchange(self, exclude: int) -> None:
        """Graceful degradation: after a contact is demoted, try one
        single-attempt exchange with a fresh NEWSCAST sample instead
        of spinning on the dead contact."""
        candidates = [
            desc
            for desc in self.newscast.sample(3)
            if desc.node_id not in (exclude, self.node_id)
        ]
        if not candidates or not self._running:
            self.bootstrap_stalls += 1
            return
        peer = candidates[0]
        request = self.bootstrap.initiate_exchange_with(peer)
        self.fallback_exchanges += 1
        if await self._request_with_retry(
            peer.address, codec.encode_bootstrap(request), attempts=1
        ):
            self.exchanges_ok += 1

    def _demote_stale(self, now: float) -> None:
        """Sweep the NEWSCAST view: drop descriptors whose contact is
        failing and unheard-from beyond the staleness TTL."""
        ttl = self.retry.stale_after
        for desc in self.newscast.view.descriptors():
            if self._contacts.is_stale(desc.address, now, ttl):
                if self.newscast.view.remove(desc.node_id):
                    self.stale_demotions += 1
                self._contacts.forget(desc.address)

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
