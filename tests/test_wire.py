"""Codec tests against hand-assembled byte fixtures plus property checks.

Every fixture below was assembled independently with struct.pack straight
from the protocol layout tables and frozen as hex, so a codec regression
cannot hide behind its own round-trip.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from ofprobe import wire

# (hex fixture, builder) pairs.  The packet_out fixture is the canonical
# 104-byte shape: 8 header + 16 fixed body + 16 output action + 64 frame.
FIXTURES = {
    "hello": (
        "0400000800000001",
        lambda: wire.hello(1)),
    "hello_zero_xid": (
        "0400000800000000",
        lambda: wire.hello(0)),
    "echo_request": (
        "0402000c0000000270696e67",
        lambda: wire.echo_request(2, b"ping")),
    "echo_request_empty": (
        "0402000800000007",
        lambda: wire.echo_request(7)),
    "echo_reply": (
        "0403000c0000000270696e67",
        lambda: wire.echo_reply(2, b"ping")),
    "features_request": (
        "0405000800000003",
        lambda: wire.features_request(3)),
    # header, datapath_id, n_buffers, n_tables, auxiliary_id, 2 pad,
    # capabilities, reserved
    "features_reply": (
        struct.pack("!BBHIQIBB2xII", 4, 6, 32, 3, 0xDEADBEEF, 0, 254, 0, 0,
                    0).hex(),
        lambda: wire.features_reply(3, 0xDEADBEEF)),
    "packet_out": (
        "040d006800000011fffffffffffffffd00100000000000000000001000000001"
        "ffff000000000000000102030405060708090a0b0c0d0e0f1011121314151617"
        "18191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031323334353637"
        "38393a3b3c3d3e3f",
        lambda: wire.packet_out(0x11, 1, bytes(range(64)))),
    "packet_in": (
        "040a003e00000022ffffffff0014010000000000000000000001000c80000004"
        "00000001000000000000000102030405060708090a0b0c0d0e0f10111213",
        lambda: wire.packet_in(0x22, 1, bytes(range(20)))),
    "flow_mod": (
        "040e006800000033000000000000000000000000000000000000000000000064"
        "ffffffffffffffffffffffff000000000001001c80000a020800800014010180"
        "0018040a000064800026010000000000000400180000000000000010fffffffd"
        "ffff000000000000",
        lambda: wire.flow_mod(0x33, 100, [
            ("eth_type", 0x0800), ("ip_proto", 1),
            ("ipv4_dst", "10.0.0.100"), ("icmpv4_type", 0)])),
}


# Messages as another switch may send them, with fields this codec writes
# as constants set otherwise: (hex, the body they decode to, the builder
# of the message the codec writes for it).
DECODE_ONLY = {
    # capabilities 0x4F
    "features_reply_capabilities": (
        "040600200000000300000000deadbeef00000000fe0000000000004f00000000",
        0xDEADBEEF, lambda: wire.features_reply(3, 0xDEADBEEF)),
    # reason 0 (no match), table 5, cookie 0x0123456789abcdef, in_port 2
    "packet_in_reason_table_cookie": (
        "040a003e00000023ffffffff001400050123456789abcdef0001000c80000004"
        "00000002000000000000000102030405060708090a0b0c0d0e0f10111213",
        wire.PacketInBody(2, bytes(range(20))),
        lambda: wire.packet_in(0x23, 2, bytes(range(20)))),
}


@pytest.mark.parametrize("name", sorted(DECODE_ONLY))
def test_decode_only_fixture_keeps_what_the_endpoints_read(name):
    hexstr, body, build = DECODE_ONLY[name]
    raw = bytes.fromhex(hexstr)
    msg, consumed = wire.decode_message(raw)
    assert (consumed, msg.body) == (len(raw), body)
    assert wire.encode_message(msg) == wire.encode_message(build())


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_encode_matches_fixture(name):
    hexstr, build = FIXTURES[name]
    assert wire.encode_message(build()).hex() == hexstr


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decode_fixture_round_trips(name):
    hexstr, _build = FIXTURES[name]
    raw = bytes.fromhex(hexstr)
    msg, consumed = wire.decode_message(raw)
    assert consumed == len(raw)
    assert wire.encode_message(msg) == raw


def test_packet_out_is_104_bytes_with_64_byte_frame():
    raw = wire.encode_message(wire.packet_out(1, 1, bytes(64)))
    assert len(raw) == 104
    assert struct.unpack_from("!H", raw, 2)[0] == 104


def test_decoded_fields_survive():
    raw = bytes.fromhex(FIXTURES["flow_mod"][0])
    msg, _ = wire.decode_message(raw)
    assert msg.msg_type == wire.OFPT_FLOW_MOD
    assert msg.xid == 0x33
    assert msg.body.priority == 100
    assert ("ipv4_dst", "10.0.0.100") in msg.body.match

    raw = bytes.fromhex(FIXTURES["packet_in"][0])
    msg, _ = wire.decode_message(raw)
    assert msg.body.in_port == 1
    assert msg.body.frame == bytes(range(20))


# -- error paths ----------------------------------------------------------


def test_truncated_header_raises():
    with pytest.raises(wire.TruncatedMessage):
        wire.decode_message(b"\x04\x00\x00")


def test_truncated_body_raises():
    raw = bytes.fromhex(FIXTURES["packet_out"][0])
    with pytest.raises(wire.TruncatedMessage):
        wire.decode_message(raw[:50])


def test_foreign_version_raises():
    with pytest.raises(wire.BadVersion) as exc:
        wire.decode_message(bytes.fromhex("0100000800000001"))
    assert "0x01" in str(exc.value) or "1" in str(exc.value)


def test_length_below_header_is_desync():
    # A length field smaller than the fixed header cannot be skipped over;
    # the stream has lost framing.  The version is fine, so the message
    # names the length instead.
    with pytest.raises(wire.BadVersion) as exc:
        wire.decode_message(bytes.fromhex("0400000400000001"))
    assert str(exc.value) == "declared length 4 is below the 8-byte header"


def test_unsupported_type_reports_skippable_length():
    raw = struct.pack("!BBHI", 4, 19, 12, 9) + b"\x00" * 4
    with pytest.raises(wire.UnsupportedType) as exc:
        wire.decode_message(raw)
    assert exc.value.consumed == 12


def test_encode_rejects_oversized_message():
    with pytest.raises(wire.UnencodableMessage):
        wire.encode_message(wire.packet_out(1, 1, bytes(0x10000)))


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(wire.UnencodableMessage):
        wire.encode_message(wire.hello(1 << 32))
    with pytest.raises(wire.UnencodableMessage):
        wire.encode_message(wire.packet_out(1, 1 << 32, b""))


# name -> (width in bits, message carrying the value in that field)
RANGED_FIELDS = {
    "xid": (32, lambda v: wire.hello(v)),
    "action port": (32, lambda v: wire.packet_out(1, v, b"")),
    "packet_in.in_port": (32, lambda v: wire.packet_in(1, v, b"")),
    "priority": (16, lambda v: wire.flow_mod(1, v, [("ip_proto", 1)])),
    "datapath_id": (64, lambda v: wire.features_reply(1, v)),
}


@pytest.mark.parametrize("bad", ["too_wide", "negative", "not_an_int"])
@pytest.mark.parametrize("name", sorted(RANGED_FIELDS))
def test_encode_rejects_each_field_out_of_range(name, bad):
    bits, build = RANGED_FIELDS[name]
    wire.encode_message(build((1 << bits) - 1))  # the widest value fits
    value = {"too_wide": 1 << bits, "negative": -1, "not_an_int": 1.5}[bad]
    with pytest.raises(wire.UnencodableMessage):
        wire.encode_message(build(value))


REPLY_FLOW = [("eth_type", 0x0800), ("ip_proto", 1),
              ("ipv4_dst", "10.0.0.100"), ("icmpv4_type", 0)]


def flow_mod_naming(index, field_id):
    """An encoded FlowMod for REPLY_FLOW whose index-th OXM field id is
    rewritten to field_id, its length left as it was."""
    raw = bytearray(wire.encode_message(wire.flow_mod(1, 100, REPLY_FLOW)))
    pos = 8 + 40 + 4  # header, fixed body, match type and length
    for _ in range(index):
        pos += 4 + raw[pos + 3]
    raw[pos + 2] = field_id << 1
    return bytes(raw)


def test_flow_mod_rejects_unknown_and_duplicate_match():
    """Encoding raises; the same match on the wire decodes as unsupported."""
    for match in ([("tcp_dst", 80)], [("ip_proto", 1), ("ip_proto", 6)],
                  [("in_port", 1)]):
        with pytest.raises(wire.UnencodableMessage):
            wire.encode_message(wire.flow_mod(1, 1, match))
    for raw in (flow_mod_naming(3, 10),     # icmpv4_type -> a second ip_proto
                flow_mod_naming(2, 0),      # ipv4_dst -> in_port
                flow_mod_naming(2, 11)):    # ipv4_dst -> ipv4_src, unknown
        with pytest.raises(wire.UnsupportedType) as exc:
            wire.decode_message(raw)
        assert exc.value.consumed == len(raw)


def test_stream_skips_a_flow_mod_that_repeats_a_field():
    stream = wire.MessageStream()
    assert stream.feed(flow_mod_naming(3, 10)) == []
    assert (stream.skipped, stream.malformed, stream.pending()) == (1, 0, 0)


def packet_out_with(actions):
    """A PacketOut carrying (type, port) actions of 16 bytes each."""
    acts = b"".join(struct.pack("!HHIH6x", atype, 16, port, 0xFFFF)
                    for atype, port in actions)
    body = struct.pack("!IIH6x", wire.NO_BUFFER, wire.PORT_CONTROLLER,
                       len(acts)) + acts + bytes(20)
    return struct.pack("!BBHI", 4, 13, 8 + len(body), 1) + body


def test_only_one_output_action_decodes():
    msg, _ = wire.decode_message(packet_out_with([(0, 2)]))
    assert msg.body == wire.PacketOutBody(2, bytes(20))
    for actions in ([], [(0, 1), (0, 2)], [(0, 1), (17, 0)]):
        with pytest.raises(wire.UnsupportedType):
            wire.decode_message(packet_out_with(actions))
    # a FlowMod whose one output action names port 1, not CONTROLLER
    raw = bytearray(wire.encode_message(wire.flow_mod(1, 1, REPLY_FLOW)))
    struct.pack_into("!I", raw, len(raw) - 12, 1)
    with pytest.raises(wire.UnsupportedType):
        wire.decode_message(bytes(raw))


def test_decode_skips_unknown_oxm_in_packet_in():
    # Switches may prepend extra match fields; only in_port is required.
    raw = bytearray(bytes.fromhex(FIXTURES["packet_in"][0]))
    # metadata (field 2, 8 bytes) spliced before in_port, lengths fixed up
    extra = struct.pack("!HBB", 0x8000, 2 << 1, 8) + bytes(8)
    fixed_end = 8 + 16
    mlen = struct.unpack_from("!H", raw, fixed_end + 2)[0]
    new_mlen = mlen + len(extra)
    body = (bytes(raw[:fixed_end])
            + struct.pack("!HH", 1, new_mlen)
            + extra
            + bytes(raw[fixed_end + 4:fixed_end + mlen])
            + b"\x00" * ((-new_mlen) % 8)
            + bytes(raw[fixed_end + mlen + ((-mlen) % 8):]))
    body = body[:2] + struct.pack("!H", len(body)) + body[4:]
    msg, _ = wire.decode_message(body)
    assert msg.body.in_port == 1
    assert msg.body.frame == bytes(range(20))


# -- random round trips ----------------------------------------------------

_match_entries = st.lists(
    st.sampled_from([
        ("eth_type", 0x0800), ("ip_proto", 1), ("ipv4_dst", "192.0.2.7"),
        ("icmpv4_type", 11), ("icmpv4_code", 3),
    ]),
    unique_by=lambda kv: kv[0], min_size=1, max_size=5)

_any_message = st.one_of(
    st.builds(wire.hello, st.integers(0, 2**32 - 1)),
    st.builds(wire.echo_request, st.integers(0, 2**32 - 1),
              st.binary(max_size=200)),
    st.builds(wire.echo_reply, st.integers(0, 2**32 - 1),
              st.binary(max_size=200)),
    st.builds(wire.features_request, st.integers(0, 2**32 - 1)),
    st.builds(wire.features_reply, st.integers(0, 2**32 - 1),
              st.integers(0, 2**64 - 1)),
    st.builds(wire.packet_out, st.integers(0, 2**32 - 1),
              st.integers(0, 2**32 - 1), st.binary(max_size=1600)),
    st.builds(wire.packet_in, st.integers(0, 2**32 - 1),
              st.integers(0, 2**32 - 1), st.binary(max_size=1600)),
    st.builds(wire.flow_mod, st.integers(0, 2**32 - 1),
              st.integers(0, 2**16 - 1), _match_entries),
)


@settings(max_examples=300)
@given(_any_message)
def test_random_message_round_trip(msg):
    raw = wire.encode_message(msg)
    back, consumed = wire.decode_message(raw)
    assert consumed == len(raw)
    assert wire.encode_message(back) == raw


def feed_in_chunks(stream, blob, data):
    """Feed blob to stream in chunks of drawn sizes; the messages out."""
    got = []
    pos = 0
    while pos < len(blob):
        step = data.draw(st.integers(1, len(blob) - pos))
        got.extend(stream.feed(blob[pos:pos + step]))
        pos += step
    return got


@settings(max_examples=100)
@given(st.lists(_any_message, min_size=1, max_size=10), st.data())
def test_stream_reassembles_any_chunking(messages, data):
    blob = b"".join(wire.encode_message(m) for m in messages)
    stream = wire.MessageStream()
    got = feed_in_chunks(stream, blob, data)
    assert [wire.encode_message(m) for m in got] \
        == [wire.encode_message(m) for m in messages]
    assert stream.pending() == 0


@settings(max_examples=200)
@given(st.lists(_any_message, min_size=1, max_size=5), st.data())
def test_stream_survives_mutated_bodies(messages, data):
    """Bytes past each header rewritten at random, within the first 96
    where the structure sits: feed raises nothing, and every message ends
    in exactly one of returned, skipped and malformed."""
    blob = bytearray()
    for msg in messages:
        raw = bytearray(wire.encode_message(msg))
        if len(raw) > wire.HEADER_LEN:
            last = min(len(raw), 104) - 1
            for _ in range(data.draw(st.integers(0, 4))):
                raw[data.draw(st.integers(8, last))] = \
                    data.draw(st.integers(0, 255))
        blob += raw
    stream = wire.MessageStream()
    got = feed_in_chunks(stream, bytes(blob), data)
    assert len(got) + stream.skipped + stream.malformed == len(messages)
    assert stream.pending() == 0


def test_stream_skips_unsupported_types_and_counts():
    good = wire.encode_message(wire.hello(5))
    alien = struct.pack("!BBHI", 4, 18, 16, 1) + bytes(8)
    stream = wire.MessageStream()
    out = stream.feed(alien + good + alien + good)
    assert [m.xid for m in out] == [5, 5]
    assert stream.skipped == 2


def test_stream_decodes_ninety_packet_outs_from_one_segment():
    messages = [wire.packet_out(xid, 1, bytes([xid]) * 64)
                for xid in range(90)]
    stream = wire.MessageStream()
    got = stream.feed(b"".join(wire.encode_message(m) for m in messages))
    assert [m.xid for m in got] == list(range(90))
    assert [m.body.frame for m in got] == [m.body.frame for m in messages]
    assert stream.pending() == 0


def test_decode_reads_a_message_where_it_sits():
    raw = wire.encode_message(wire.echo_request(4, b"data"))
    msg, consumed = wire.decode_message(b"junk" + raw + b"tail", 4)
    assert (msg.xid, msg.body, consumed) == (4, b"data", len(raw))


def malformed_packet_in():
    """A complete PacketIn whose match length (offset 26) runs past the
    message's own end."""
    raw = bytearray(wire.encode_message(wire.packet_in(7, 1, bytes(20))))
    struct.pack_into("!H", raw, 26, 200)
    return bytes(raw)


def test_stream_skips_a_malformed_message_and_stays_in_sync():
    stream = wire.MessageStream()
    assert stream.feed(malformed_packet_in()) == []
    assert (stream.malformed, stream.pending()) == (1, 0)
    for xid in (8, 9, 10):
        got = stream.feed(wire.encode_message(wire.echo_request(xid)))
        assert [m.xid for m in got] == [xid]
        assert stream.pending() == 0


def test_stream_waits_for_a_split_malformed_message():
    blob = malformed_packet_in() + wire.encode_message(wire.echo_request(8))
    stream = wire.MessageStream()
    assert stream.feed(blob[:30]) == []
    assert (stream.malformed, stream.pending()) == (0, 30)
    assert [m.xid for m in stream.feed(blob[30:])] == [8]
    assert (stream.malformed, stream.pending()) == (1, 0)


def test_stream_bad_version_escapes_with_partial_results():
    stream = wire.MessageStream()
    blob = wire.encode_message(wire.hello(1)) + b"\x01\x00\x00\x08\x00\x00\x00\x02"
    with pytest.raises(wire.BadVersion):
        stream.feed(blob)
