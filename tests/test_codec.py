"""Tests for the binary wire codec."""

from __future__ import annotations

import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BootstrapMessage, NodeDescriptor
from repro.net import codec
from repro.net import (
    CodecError,
    LAYER_BOOTSTRAP,
    LAYER_NEWSCAST,
    decode_bootstrap,
    decode_message,
    encode_bootstrap,
    encode_message,
)
from .conftest import make_descriptor

int_addresses = st.integers(min_value=0, max_value=2**64 - 1)
host_addresses = st.tuples(
    st.from_regex(r"[a-z0-9.\-]{1,40}", fullmatch=True),
    st.integers(min_value=0, max_value=65535),
)
descriptors = st.builds(
    NodeDescriptor,
    node_id=st.integers(min_value=0, max_value=2**64 - 1),
    address=st.one_of(int_addresses, host_addresses),
    timestamp=st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestRoundTrip:
    def test_int_address(self):
        sender = make_descriptor(1, address=7, timestamp=2.5)
        data = encode_message(LAYER_BOOTSTRAP, 0, sender, ())
        wire = decode_message(data)
        assert wire.sender == sender
        assert wire.layer == LAYER_BOOTSTRAP
        assert not wire.is_reply
        assert wire.descriptors == ()

    def test_host_port_address(self):
        sender = NodeDescriptor(
            node_id=9, address=("127.0.0.1", 9000), timestamp=1.0
        )
        data = encode_message(LAYER_NEWSCAST, 1, sender, ())
        wire = decode_message(data)
        assert wire.sender == sender
        assert wire.is_reply

    def test_bootstrap_message_roundtrip(self):
        message = BootstrapMessage(
            sender=make_descriptor(1, address=0),
            descriptors=(
                make_descriptor(2, address=5),
                NodeDescriptor(node_id=3, address=("h", 80), timestamp=9.0),
            ),
            is_reply=True,
        )
        decoded = decode_bootstrap(decode_message(encode_bootstrap(message)))
        assert decoded == message

    @given(sender=descriptors, payload=st.lists(descriptors, max_size=20))
    @settings(max_examples=100)
    def test_roundtrip_property(self, sender, payload):
        data = encode_message(LAYER_BOOTSTRAP, 0, sender, payload)
        wire = decode_message(data)
        assert wire.sender == sender
        assert list(wire.descriptors) == payload


class TestEncodingErrors:
    def test_bad_layer(self):
        with pytest.raises(CodecError):
            encode_message(9, 0, make_descriptor(1, address=0), ())

    def test_bad_kind(self):
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 5, make_descriptor(1, address=0), ())

    def test_unsupported_address(self):
        bad = NodeDescriptor(node_id=1, address=frozenset([1]))
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_bool_address_rejected(self):
        bad = NodeDescriptor(node_id=1, address=True)
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_out_of_range_int_address(self):
        bad = NodeDescriptor(node_id=1, address=2**64)
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_out_of_range_port(self):
        bad = NodeDescriptor(node_id=1, address=("h", 70000))
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_host_too_long(self):
        bad = NodeDescriptor(node_id=1, address=("h" * 300, 80))
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    @pytest.mark.parametrize("address", [0, ("h", 80)])
    @pytest.mark.parametrize("node_id", [-1, 1 << 64, "7", None])
    def test_unencodable_node_id(self, node_id, address):
        # Not struct.error: callers catch exactly CodecError.
        bad = NodeDescriptor(node_id=node_id, address=address)
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())
        with pytest.raises(CodecError):
            encode_message(
                LAYER_BOOTSTRAP, 0, make_descriptor(1, address=0), (bad,)
            )

    @pytest.mark.parametrize("address", [0, ("h", 80)])
    @pytest.mark.parametrize("timestamp", ["soon", None, 10**400])
    def test_non_numeric_timestamp(self, timestamp, address):
        # Not a bare ValueError / TypeError / OverflowError.
        bad = NodeDescriptor(node_id=1, address=address, timestamp=timestamp)
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    @pytest.mark.parametrize("address", [0, ("h", 80)])
    @pytest.mark.parametrize("timestamp", [math.inf, -math.inf, math.nan])
    def test_non_finite_timestamp(self, timestamp, address):
        # A frame this side refuses to decode is not sent either.
        bad = NodeDescriptor(node_id=1, address=address, timestamp=timestamp)
        with pytest.raises(CodecError, match="timestamp"):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_bool_port_rejected(self):
        # Like a bool address: True is not port 1.
        bad = NodeDescriptor(node_id=1, address=("h", True))
        with pytest.raises(CodecError):
            encode_message(LAYER_BOOTSTRAP, 0, bad, ())

    def test_decode_bootstrap_wrong_layer(self):
        data = encode_message(
            LAYER_NEWSCAST, 0, make_descriptor(1, address=0), ()
        )
        with pytest.raises(CodecError):
            decode_bootstrap(decode_message(data))


class TestDecodingErrors:
    def good_frame(self):
        return encode_message(
            LAYER_BOOTSTRAP,
            0,
            make_descriptor(1, address=0),
            (make_descriptor(2, address=3),),
        )

    def test_truncated_header(self):
        with pytest.raises(CodecError):
            decode_message(b"\x01\x02")

    def test_bad_magic(self):
        data = bytearray(self.good_frame())
        data[0] = 0x00
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_bad_version(self):
        data = bytearray(self.good_frame())
        data[2] = 99
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_truncated_descriptor(self):
        data = self.good_frame()
        with pytest.raises(CodecError):
            decode_message(data[:-3])

    def test_trailing_garbage(self):
        data = self.good_frame() + b"\x00"
        with pytest.raises(CodecError):
            decode_message(data)

    def test_empty(self):
        with pytest.raises(CodecError):
            decode_message(b"")

    @pytest.mark.parametrize("address", [5, ("h", 80)])
    @pytest.mark.parametrize("timestamp", [math.inf, -math.inf, math.nan])
    def test_non_finite_timestamp_rejected(self, timestamp, address):
        """An ``inf`` stamp would win every freshest-wins view merge
        forever, and a NaN one compares false against everything: the
        record is refused, cold and with a finite twin interned."""
        frame = stamped_frame(timestamp, address)
        codec._forget_interned()
        for _ in range(2):
            with pytest.raises(CodecError, match="non-finite timestamp"):
                decode_message(frame)
            decode_message(stamped_frame(2.0, address))
        assert all(
            math.isfinite(desc.timestamp) for desc in codec._interned.values()
        )

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_fuzz_never_crashes(self, data):
        """Arbitrary bytes either decode cleanly or raise CodecError --
        no other exception may escape (hostile-datagram safety)."""
        try:
            decode_message(data)
        except CodecError:
            pass


def stamped_frame(timestamp: float, address) -> bytes:
    """A NEWSCAST frame from node 1 carrying node 99 stamped
    *timestamp* -- any float, patched into the wire record, since the
    encoder refuses non-finite stamps."""
    frame = encode_message(
        LAYER_NEWSCAST,
        0,
        make_descriptor(1, address=0, timestamp=1.0),
        (make_descriptor(99, address=address, timestamp=2.0),),
    )
    finite = struct.pack(">d", 2.0)
    assert frame.count(finite) == 1
    return frame.replace(finite, struct.pack(">d", timestamp))


def sweep_frames():
    """Valid frames covering both address kinds and both layers."""
    int_sender = make_descriptor(1, address=7, timestamp=2.5)
    host_sender = NodeDescriptor(
        node_id=9, address=("node-a.example", 9000), timestamp=1.0
    )
    payload = (
        make_descriptor(2, address=5),
        NodeDescriptor(node_id=3, address=("h", 80), timestamp=9.0),
    )
    return [
        encode_message(LAYER_BOOTSTRAP, 0, int_sender, payload),
        encode_message(LAYER_BOOTSTRAP, 1, host_sender, payload),
        encode_message(LAYER_NEWSCAST, 0, host_sender, ()),
    ]


def truncations():
    """Every proper prefix of every sweep frame."""
    return [
        frame[:cut] for frame in sweep_frames() for cut in range(len(frame))
    ]


def corruptions():
    """300 seeded 1-4 byte corruptions of every sweep frame."""
    rng = random.Random(2024)
    out = []
    for frame in sweep_frames():
        for _ in range(300):
            data = bytearray(frame)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            out.append(bytes(data))
    return out


class TestTruncationAndCorruption:
    """Exhaustive truncation and seeded-corruption sweeps.

    Every failure must surface as :class:`CodecError` -- never
    ``IndexError``, ``struct.error``, or ``UnicodeDecodeError`` --
    because a peer's receive path catches exactly ``CodecError``.
    """

    def test_every_prefix_raises_codec_error(self):
        for data in truncations():
            with pytest.raises(CodecError):
                decode_message(data)

    def test_seeded_corruption_raises_only_codec_error(self):
        for data in corruptions():
            try:
                decode_message(data)
            except CodecError:
                pass

    def test_corrupted_host_bytes_raise_codec_error(self):
        # A host field holding invalid UTF-8 must not escape as
        # UnicodeDecodeError (it is a ValueError but not a CodecError).
        sender = NodeDescriptor(
            node_id=9, address=("abcd", 9000), timestamp=1.0
        )
        frame = bytearray(encode_message(LAYER_BOOTSTRAP, 0, sender, ()))
        frame[frame.index(b"abcd")] = 0xFF
        with pytest.raises(CodecError, match="undecodable host"):
            decode_message(bytes(frame))


class TestFrameTypes:
    def test_bytes_bytearray_memoryview_decode_equal(self):
        # Slices of the latter two are unhashable; the frame is
        # normalised once at entry.
        for frame in sweep_frames():
            wire = decode_message(frame)
            assert decode_message(bytearray(frame)) == wire
            assert decode_message(memoryview(frame)) == wire
            assert decode_message(memoryview(bytearray(frame))) == wire


def outcome(data):
    """What decoding *data* does, in comparable form."""
    try:
        return "ok", decode_message(data)
    except CodecError as exc:
        return "error", str(exc)


class TestInternTable:
    """Each distinct wire record is decoded once per process."""

    @pytest.fixture(autouse=True)
    def cold_table(self):
        codec._forget_interned()
        yield
        codec._forget_interned()

    def assert_tables_paired(self):
        assert len(codec._interned) <= codec.INTERN_CAP
        assert set(codec._records) == {
            id(desc) for desc in codec._interned.values()
        }
        for record, desc in codec._interned.items():
            assert codec._records[id(desc)] == record

    def test_hit_returns_the_identical_object(self):
        for frame in sweep_frames():
            first = decode_message(frame)
            second = decode_message(frame)
            assert second == first
            assert second.sender is first.sender
            for again, once in zip(
                second.descriptors, first.descriptors, strict=True
            ):
                assert again is once
        self.assert_tables_paired()

    def test_miss_equals_uncached_decode(self):
        header = codec._HEADER.size
        for frame in sweep_frames():
            # Encoding the frames interned their descriptors.
            codec._forget_interned()
            uncached, _ = codec._decode_descriptor(frame, header)
            assert not codec._interned
            for sender in (
                decode_message(frame).sender,  # miss
                decode_message(frame).sender,  # hit
            ):
                assert type(sender) is NodeDescriptor
                assert sender is not uncached
                assert sender.node_id == uncached.node_id
                assert sender.address == uncached.address
                assert type(sender.address) is type(uncached.address)
                assert sender.timestamp == uncached.timestamp

    @pytest.mark.parametrize("inputs", [truncations, corruptions])
    def test_sweeps_same_outcome_warm_as_cold(self, inputs):
        cold = []
        for data in inputs():
            codec._forget_interned()
            cold.append(outcome(data))
        codec._forget_interned()
        for frame in sweep_frames():
            decode_message(frame)
        # Not cleared in between: whatever a corrupted frame left in
        # the table stays there for the next one.
        warm = [outcome(data) for data in inputs()]
        assert codec._interned
        assert warm == cold
        assert any(kind == "error" for kind, _ in cold)
        self.assert_tables_paired()

    def test_table_never_exceeds_the_cap(self):
        per_frame = 1024
        total = 10 * codec.INTERN_CAP
        frames = []
        for base in range(0, total, per_frame):
            batch = [
                NodeDescriptor(
                    node_id=n,
                    address=n if n % 2 else (f"host-{n}", n % 65536),
                    timestamp=float(n),
                )
                for n in range(base, base + per_frame)
            ]
            frames.append((batch, encode_message(1, 0, batch[0], batch[1:])))
        for batch, frame in frames:
            wire = decode_message(frame)
            assert [wire.sender, *wire.descriptors] == batch
            assert len(codec._interned) <= codec.INTERN_CAP
            assert len(codec._records) == len(codec._interned)
        self.assert_tables_paired()
        # ... and the codec still works, hits included.
        batch, frame = frames[-1]
        wire = decode_message(frame)
        assert [wire.sender, *wire.descriptors] == batch
        assert decode_message(frame).sender is wire.sender
        assert encode_message(1, 0, wire.sender, wire.descriptors) == frame

    def test_zero_and_negative_zero_stay_distinct(self):
        def stamped(timestamp):
            return encode_message(
                LAYER_NEWSCAST, 0, make_descriptor(1, 2, timestamp), ()
            )

        frames = [stamped(0.0), stamped(-0.0)]
        assert len(set(frames)) == 2
        for _ in range(2):  # cold, then warm
            zero, negative = (
                decode_message(frame).sender.timestamp for frame in frames
            )
            assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
            assert negative == 0.0 and math.copysign(1.0, negative) == -1.0
        assert len(codec._interned) == 2

    def test_encode_reuses_only_what_the_table_holds(self):
        frame = sweep_frames()[1]
        wire = decode_message(frame)
        assert encode_message(1, 1, wire.sender, wire.descriptors) == frame
        # An equal descriptor that did not come from the table is
        # packed field by field, to the same bytes.
        twin = NodeDescriptor(
            wire.sender.node_id, wire.sender.address, wire.sender.timestamp
        )
        assert id(twin) not in codec._records
        assert encode_message(1, 1, twin, wire.descriptors) == frame
        # Cleared together: nothing stays pinned, encoding still works.
        codec._forget_interned()
        assert not codec._interned and not codec._records
        assert encode_message(1, 1, wire.sender, wire.descriptors) == frame

    def test_encode_interns_what_it_packs(self, monkeypatch):
        packed = []
        pack = codec._pack_descriptor
        monkeypatch.setattr(
            codec, "_pack_descriptor", lambda desc: packed.append(desc) or pack(desc)
        )
        held = NodeDescriptor(node_id=9, address=("node-a.example", 9000), timestamp=1.0)
        payload = (make_descriptor(2, address=5, timestamp=3.0),)
        frame = encode_message(LAYER_NEWSCAST, 0, held, payload)
        for _ in range(3):
            assert encode_message(LAYER_NEWSCAST, 0, held, payload) == frame
        assert packed == [held, *payload]
        self.assert_tables_paired()
        # A cold table packs it once more, to the same bytes.
        codec._forget_interned()
        assert encode_message(LAYER_NEWSCAST, 0, held, payload) == frame
        assert encode_message(LAYER_NEWSCAST, 0, held, payload) == frame
        assert packed == [held, *payload] * 2
        # An equal object is packed to the same bytes but never mapped:
        # the table keeps only the object it holds alive.
        twin = NodeDescriptor(held.node_id, held.address, held.timestamp)
        assert encode_message(LAYER_NEWSCAST, 0, twin, payload) == frame
        assert id(twin) not in codec._records
        assert decode_message(frame).sender is held
        self.assert_tables_paired()

    def test_encode_interns_only_what_decodes_back_to_itself(self):
        # An int stamp packs to the bytes of a float one; decoding them
        # must still give the float, so this object stays out.
        int_stamped = NodeDescriptor(node_id=4, address=11, timestamp=3)
        frame = encode_message(LAYER_NEWSCAST, 0, int_stamped, ())
        assert id(int_stamped) not in codec._records
        sender = decode_message(frame).sender
        assert sender == int_stamped and type(sender.timestamp) is float
        self.assert_tables_paired()
        # Nor is an instance of a subclass, which decodes to the base.
        subclassed = type("Tagged", (NodeDescriptor,), {})(5, 12, 2.0)
        frame = encode_message(LAYER_NEWSCAST, 0, subclassed, ())
        assert id(subclassed) not in codec._records
        assert type(decode_message(frame).sender) is NodeDescriptor
        self.assert_tables_paired()

    def test_chaos_report_equal_cold_then_warm(self):
        from repro.scenarios.chaos import run_chaos_scenario

        cold = run_chaos_scenario("chaos_partition_heal", smoke=True)
        assert codec._interned  # the second run starts warm
        warm = run_chaos_scenario("chaos_partition_heal", smoke=True)
        assert cold.converged
        assert cold.peer_totals["frames_bad"] == 0
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )
        self.assert_tables_paired()
