"""Datagram transports for the asyncio prototype.

Two interchangeable transports:

* :class:`UdpTransport` -- real UDP sockets via asyncio's datagram
  support (the deployment path);
* :class:`LoopbackHub` / :class:`LoopbackTransport` -- an in-process
  datagram fabric, so multi-hundred node clusters and failure tests
  run deterministically without touching the network stack (its
  subclass :class:`~repro.net.chaos.ChaosHub` injects loss, delay and
  partitions).

Both deliver ``(data, sender_address)`` to a receive callback; both are
fire-and-forget, like the UDP the paper assumes.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Hashable

__all__ = ["ReceiveHandler", "UdpTransport", "LoopbackHub", "LoopbackTransport"]

#: Signature of the receive callback: ``handler(data, sender_address)``.
ReceiveHandler = Callable[[bytes, Hashable], None]


class UdpTransport(asyncio.DatagramProtocol):
    """One UDP endpoint bound to ``(host, port)``.

    Create with :meth:`create`; send with :meth:`send`; close with
    :meth:`close`.  Addresses are ``(host, port)`` tuples, matching the
    codec's address kind 1.
    """

    def __init__(self, handler: ReceiveHandler) -> None:
        self._handler = handler
        self._transport: asyncio.DatagramTransport | None = None
        self.local_address: tuple[str, int] | None = None
        #: ICMP-reported send errors (port unreachable etc.).  The
        #: fire-and-forget semantics still ignore them, but soak runs
        #: can observe the count (matching frames_in/frames_bad style).
        self.errors_received = 0

    @classmethod
    async def create(
        cls,
        handler: ReceiveHandler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> UdpTransport:
        """Bind a datagram endpoint (port 0 = ephemeral)."""
        loop = asyncio.get_running_loop()
        protocol = cls(handler)
        transport, _ = await loop.create_datagram_endpoint(
            lambda: protocol, local_addr=(host, port)
        )
        protocol._transport = transport
        sock = transport.get_extra_info("sockname")
        protocol.local_address = (sock[0], sock[1])
        return protocol

    # -- DatagramProtocol callbacks -------------------------------------

    def connection_made(self, transport) -> None:  # pragma: no cover
        self._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self._handler(data, (addr[0], addr[1]))

    def error_received(self, exc: Exception) -> None:
        # Fire-and-forget semantics: ICMP errors do not fail anything
        # (the protocol's design assumes lossy datagrams), but they
        # are counted so failure experiments can see them.
        self.errors_received += 1

    # -- sending ---------------------------------------------------------

    def send(self, data: bytes, address: tuple[str, int]) -> None:
        """Send one datagram (no delivery guarantee, by design)."""
        if self._transport is None:
            raise RuntimeError("transport not created yet")
        self._transport.sendto(data, address)

    def close(self) -> None:
        """Release the socket."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class LoopbackHub:
    """In-process datagram fabric: every datagram is delivered on the
    next loop iteration to whatever endpoint holds the target address.
    """

    def __init__(self) -> None:
        self._endpoints: dict[Hashable, LoopbackTransport] = {}
        self.datagrams_sent = 0

    def register(self, address: Hashable, endpoint: LoopbackTransport) -> None:
        """Attach an endpoint at *address*."""
        if address in self._endpoints:
            raise ValueError(f"address {address!r} already registered")
        self._endpoints[address] = endpoint

    def unregister(self, address: Hashable) -> None:
        """Detach the endpoint at *address* (crash semantics: in-flight
        datagrams to it vanish)."""
        self._endpoints.pop(address, None)

    def send(self, data: bytes, source: Hashable, target: Hashable) -> None:
        """Route one datagram through the fabric."""
        self.datagrams_sent += 1
        asyncio.get_running_loop().call_soon(self._deliver, data, source, target)

    def _deliver(self, data: bytes, source: Hashable, target: Hashable) -> None:
        endpoint = self._endpoints.get(target)
        if endpoint is not None:
            endpoint._receive(data, source)


class LoopbackTransport:
    """One endpoint on a :class:`LoopbackHub`."""

    def __init__(
        self,
        hub: LoopbackHub,
        address: Hashable,
        handler: ReceiveHandler,
    ) -> None:
        self._hub = hub
        self.local_address = address
        self._handler = handler
        self._closed = False
        hub.register(address, self)

    def send(self, data: bytes, address: Hashable) -> None:
        """Send one datagram through the hub."""
        if self._closed:
            raise RuntimeError("transport closed")
        self._hub.send(data, self.local_address, address)

    def close(self) -> None:
        """Detach from the hub."""
        if not self._closed:
            self._hub.unregister(self.local_address)
            self._closed = True

    def _receive(self, data: bytes, source: Hashable) -> None:
        if not self._closed:
            self._handler(data, source)
