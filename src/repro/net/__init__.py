"""Deployable asyncio/UDP prototype of the paper's node stack.

A compact but real implementation: binary wire codec, UDP and loopback
datagram transports, a peer running both gossip layers over one socket,
and a cluster fixture that walks the paper's deployment story end to
end (sampling warm-up -> start broadcast -> convergence).
"""

from .codec import (
    CodecError,
    LAYER_BOOTSTRAP,
    LAYER_NEWSCAST,
    WireMessage,
    decode_bootstrap,
    decode_message,
    encode_bootstrap,
    encode_message,
)
from .chaos import (
    CHAOS_EVENT_KINDS,
    ChaosController,
    ChaosEvent,
    ChaosHub,
    ChaosSchedule,
    LinkFaults,
    VirtualClockLoop,
    run_virtual,
)
from .cluster import LocalCluster
from .peer import AsyncPeer
from .transport import LoopbackHub, LoopbackTransport, UdpTransport

__all__ = [
    "CodecError",
    "LAYER_BOOTSTRAP",
    "LAYER_NEWSCAST",
    "WireMessage",
    "decode_bootstrap",
    "decode_message",
    "encode_bootstrap",
    "encode_message",
    "CHAOS_EVENT_KINDS",
    "ChaosController",
    "ChaosEvent",
    "ChaosHub",
    "ChaosSchedule",
    "LinkFaults",
    "VirtualClockLoop",
    "run_virtual",
    "LocalCluster",
    "AsyncPeer",
    "LoopbackHub",
    "LoopbackTransport",
    "UdpTransport",
]
