"""Wire codec for the gossip layers.

The paper designed both layers around "small UDP messages containing
approximately 30 IP addresses, along with the ports, timestamps, and
descriptors such as node IDs".  This codec realises exactly that: a
compact binary framing for descriptor bags, shared by the NEWSCAST and
bootstrap layers so one socket serves the whole stack.

Frame layout (big-endian)::

    magic     u16   0xB007  ("boot")
    version   u8    1
    layer     u8    1 = bootstrap, 2 = newscast
    kind      u8    0 = request, 1 = reply
    count     u16   number of descriptors (sender first)
    descriptor * count

Descriptor layout::

    node_id   u64
    timestamp f64
    addr_kind u8    0 = integer, 1 = (host, port)
    addr      u64              (kind 0)
              u8 len + bytes + u16 port   (kind 1)

The sender's descriptor travels as the first entry, so the payload
proper is ``descriptors[1:]``.

Gossip re-advertises the same ``(node_id, timestamp, address)`` records
over and over, so each distinct wire record is decoded **once per
process**: a bounded table keyed by the exact record bytes hands back
the already-validated, immutable :class:`NodeDescriptor`, and
:func:`encode_message` writes those bytes back out for a descriptor
that is in the table.  An encoded descriptor joins the table too (when
decoding its bytes would give back an equal object of the same field
types), so a descriptor a peer keeps advertising is packed once, not
once per frame.  Only bytes that passed the full validation
are ever stored, and the table is cleared when it reaches
:data:`INTERN_CAP`, so a flood of distinct records degrades to the
uncached speed and nothing more.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain

from ..core.descriptor import NodeDescriptor
from ..core.messages import BootstrapMessage

__all__ = [
    "CodecError",
    "WireMessage",
    "LAYER_BOOTSTRAP",
    "LAYER_NEWSCAST",
    "encode_message",
    "decode_message",
    "encode_bootstrap",
    "decode_bootstrap",
]

MAGIC = 0xB007
VERSION = 1
LAYER_BOOTSTRAP = 1
LAYER_NEWSCAST = 2

_HEADER = struct.Struct(">HBBBH")
_DESC_FIXED = struct.Struct(">Qd B")
_INT_ADDR = struct.Struct(">Q")
_PORT = struct.Struct(">H")

#: Hard cap on descriptors per frame: a full prefix table plus leaf set
#: plus slack; anything larger indicates a bug or a hostile frame.
MAX_DESCRIPTORS = 4096

#: Offsets of the ``addr_kind`` byte and of the host-length byte that
#: follows it in a ``(host, port)`` record.
_KIND_AT = _DESC_FIXED.size - 1
_HOST_LEN_AT = _DESC_FIXED.size
#: Record sizes: integer address; ``(host, port)`` address less its host.
_INT_RECORD = _DESC_FIXED.size + _INT_ADDR.size
_HOST_RECORD = _DESC_FIXED.size + 1 + _PORT.size

#: Distinct records held before the intern table is cleared.  A
#: constant, not a knob: the live workloads see under 4k distinct
#: records per run, and a process-wide table is what lets the peers of
#: one :class:`~repro.net.cluster.LocalCluster` share decoded objects.
INTERN_CAP = 8192

#: Exact record bytes -> the descriptor they decoded to.
_interned: dict[bytes, NodeDescriptor] = {}
#: ``id()`` of every descriptor in ``_interned`` -> its record bytes.
#: Keyed by identity so encoding never hashes a descriptor; sound only
#: because ``_interned`` keeps each of those objects alive, which is
#: why the two tables are filled and cleared together.
_records: dict[int, bytes] = {}


class CodecError(ValueError):
    """A frame could not be decoded (truncated, bad magic, bad kinds)."""


@dataclass(frozen=True)
class WireMessage:
    """A decoded frame, layer-agnostic."""

    layer: int
    kind: int
    sender: NodeDescriptor
    descriptors: tuple[NodeDescriptor, ...]

    @property
    def is_reply(self) -> bool:
        """Whether the frame is an answer."""
        return self.kind == 1


def _pack_fixed(desc: NodeDescriptor, addr_kind: int) -> bytes:
    try:
        timestamp = float(desc.timestamp)
        if not math.isfinite(timestamp):
            raise ValueError("non-finite timestamp")
        return _DESC_FIXED.pack(desc.node_id, timestamp, addr_kind)
    except (struct.error, TypeError, ValueError, OverflowError) as exc:
        # An id outside u64 or a timestamp that is not a finite number:
        # the caller catches exactly CodecError, like the receive path.
        raise CodecError(
            f"unencodable node id / timestamp: "
            f"{desc.node_id!r} / {desc.timestamp!r}"
        ) from exc


def _pack_descriptor(desc: NodeDescriptor) -> bytes:
    """The wire record of *desc*, every field validated."""
    address = desc.address
    if isinstance(address, bool):
        raise CodecError(f"unsupported address type: {type(address)}")
    if isinstance(address, int):
        if not 0 <= address < (1 << 64):
            raise CodecError(f"integer address out of range: {address}")
        return _pack_fixed(desc, 0) + _INT_ADDR.pack(address)
    if (
        isinstance(address, tuple)
        and len(address) == 2
        and isinstance(address[0], str)
        and isinstance(address[1], int)
        and not isinstance(address[1], bool)
    ):
        host_bytes = address[0].encode()
        if len(host_bytes) > 255:
            raise CodecError(f"host name too long: {address[0]!r}")
        if not 0 <= address[1] < 65536:
            raise CodecError(f"port out of range: {address[1]}")
        return b"".join(
            (
                _pack_fixed(desc, 1),
                bytes((len(host_bytes),)),
                host_bytes,
                _PORT.pack(address[1]),
            )
        )
    raise CodecError(f"unsupported address type: {type(address)}")


def _decode_descriptor(
    data: bytes, offset: int
) -> tuple[NodeDescriptor, int]:
    try:
        node_id, timestamp, addr_kind = _DESC_FIXED.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"truncated descriptor at offset {offset}") from exc
    if not math.isfinite(timestamp):
        # An ``inf`` stamp would win every freshest-wins merge forever,
        # and a NaN one compares false against everything.
        raise CodecError(f"non-finite timestamp at offset {offset}")
    offset += _DESC_FIXED.size
    if addr_kind == 0:
        try:
            (address,) = _INT_ADDR.unpack_from(data, offset)
        except struct.error as exc:
            raise CodecError("truncated integer address") from exc
        offset += _INT_ADDR.size
        return (
            NodeDescriptor(
                node_id=node_id, address=address, timestamp=timestamp
            ),
            offset,
        )
    if addr_kind == 1:
        if offset >= len(data):
            raise CodecError("truncated host length")
        host_len = data[offset]
        offset += 1
        host_end = offset + host_len
        if host_end + _PORT.size > len(data):
            raise CodecError("truncated host/port")
        try:
            host = data[offset:host_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            # Without this guard a corrupted host field would escape as
            # UnicodeDecodeError (a ValueError, but not a CodecError)
            # and kill the receive path of whoever decodes the frame.
            raise CodecError(f"undecodable host bytes at offset {offset}") from exc
        (port,) = _PORT.unpack_from(data, host_end)
        offset = host_end + _PORT.size
        return (
            NodeDescriptor(
                node_id=node_id, address=(host, port), timestamp=timestamp
            ),
            offset,
        )
    raise CodecError(f"unknown address kind {addr_kind}")


def _forget_interned() -> None:
    """Empty the intern table and the encode map, together."""
    _interned.clear()
    _records.clear()


def _pack_and_intern(desc: NodeDescriptor) -> bytes:
    """The encode miss path: pack *desc* and, when a cold decode of the
    bytes would rebuild it exactly, remember it so that later frames
    reuse the record."""
    record = _pack_descriptor(desc)
    address = desc.address
    if not (
        type(desc) is NodeDescriptor
        and type(desc.node_id) is int
        and type(desc.timestamp) is float
        and (
            type(address) is int
            or (
                type(address) is tuple
                and type(address[0]) is str
                and type(address[1]) is int
            )
        )
    ):
        return record
    if len(_interned) >= INTERN_CAP:
        _forget_interned()
    # Bytes that already stand for another object keep it: ``id(desc)``
    # is mapped only while the table itself keeps *desc* alive.
    # Filled records-first, as in :func:`_decode_and_intern`.
    if _interned.get(record, desc) is desc:
        _records[id(desc)] = record
        _interned[record] = desc
    return record


def _decode_and_intern(
    data: bytes, offset: int
) -> tuple[NodeDescriptor, int]:
    """The miss path: fully validate the record at *offset*, then
    remember the bytes that passed."""
    desc, end = _decode_descriptor(data, offset)
    # Filled records-first and cleared interned-first: however two
    # threads interleave, ``_records`` never names an object that
    # ``_interned`` has let go of (whose id could then be reused).
    if len(_interned) >= INTERN_CAP:
        _forget_interned()
    record = data[offset:end]
    _records[id(desc)] = record
    _interned[record] = desc
    return desc, end


def encode_message(
    layer: int,
    kind: int,
    sender: NodeDescriptor,
    descriptors: Sequence[NodeDescriptor],
) -> bytes:
    """Encode one frame."""
    if layer not in (LAYER_BOOTSTRAP, LAYER_NEWSCAST):
        raise CodecError(f"unknown layer {layer}")
    if kind not in (0, 1):
        raise CodecError(f"unknown kind {kind}")
    if len(descriptors) + 1 > MAX_DESCRIPTORS:
        raise CodecError(
            f"{len(descriptors) + 1} descriptors exceed the frame cap"
        )
    # A descriptor in the intern table goes back on the wire as the
    # bytes it was decoded from or first packed to.
    record_of = _records.get
    records = [
        record_of(id(desc)) or _pack_and_intern(desc)
        for desc in chain((sender,), descriptors)
    ]
    return _HEADER.pack(MAGIC, VERSION, layer, kind, len(records)) + b"".join(
        records
    )


def decode_message(data: bytes) -> WireMessage:
    """Decode one frame (raises :class:`CodecError` on any defect)."""
    if type(data) is not bytes:
        # Records are looked up by their bytes, and slices of a
        # bytearray or memoryview are not hashable.  Going through
        # memoryview keeps non-buffers a TypeError (bytes(5) is not).
        data = bytes(memoryview(data))
    try:
        magic, version, layer, kind, count = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError("truncated header") from exc
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic:#x}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    if layer not in (LAYER_BOOTSTRAP, LAYER_NEWSCAST):
        raise CodecError(f"unknown layer {layer}")
    if kind not in (0, 1):
        raise CodecError(f"unknown kind {kind}")
    if count < 1 or count > MAX_DESCRIPTORS:
        raise CodecError(f"implausible descriptor count {count}")
    offset = _HEADER.size
    lookup = _interned.get
    descriptors: list[NodeDescriptor] = []
    for _ in range(count):
        # The kind byte (and the host length after it) say how long the
        # record claims to be.  A hit can only be a record of exactly
        # that length that was validated before; a record that runs off
        # the frame or names no known kind is in no table, so the miss
        # path reports it.
        try:
            if data[offset + _KIND_AT]:
                end = offset + _HOST_RECORD + data[offset + _HOST_LEN_AT]
            else:
                end = offset + _INT_RECORD
        except IndexError:
            desc = None
        else:
            desc = lookup(data[offset:end])
        if desc is None:
            desc, end = _decode_and_intern(data, offset)
        descriptors.append(desc)
        offset = end
    if offset != len(data):
        raise CodecError(
            f"{len(data) - offset} trailing bytes after descriptors"
        )
    return WireMessage(
        layer=layer,
        kind=kind,
        sender=descriptors[0],
        descriptors=tuple(descriptors[1:]),
    )


def encode_bootstrap(message: BootstrapMessage) -> bytes:
    """Encode a :class:`BootstrapMessage` as a bootstrap-layer frame."""
    return encode_message(
        LAYER_BOOTSTRAP,
        1 if message.is_reply else 0,
        message.sender,
        message.descriptors,
    )


def decode_bootstrap(wire: WireMessage) -> BootstrapMessage:
    """Reconstruct a :class:`BootstrapMessage` from a decoded frame."""
    if wire.layer != LAYER_BOOTSTRAP:
        raise CodecError(f"not a bootstrap frame (layer {wire.layer})")
    return BootstrapMessage(
        sender=wire.sender,
        descriptors=wire.descriptors,
        is_reply=wire.is_reply,
    )
