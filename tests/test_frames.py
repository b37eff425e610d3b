"""Frame builder/parser tests with independently assembled fixtures."""

import socket
import struct

import pytest
from hypothesis import given, strategies as st

from ofprobe import frames
from ofprobe.wire import ip_from_bytes, ip_to_bytes
from ofprobe.frames import (
    MalformedFrame,
    PayloadTooLarge,
    ReplyKind,
    RouterIdentity,
    internet_checksum,
)

# Assembled by hand from the header layouts; never touched the builders.
ECHO_FIXTURE = bytes.fromhex(
    "02000000000102000000006408004500001f000000004001ae790a000064c000"
    "02010800216212340007616263")
GARP_FIXTURE = bytes.fromhex(
    "ffffffffffff020000000064080600010800060400020200000000640a000064"
    "0200000000640a000064")
RID_PAYLOAD_FIXTURE = bytes.fromhex("0000fde90a636f72652d7274722d31")

PROBE = dict(src_ip="10.0.0.100", dst_ip="192.0.2.1",
             src_mac="02:00:00:00:00:64", dst_mac="02:00:00:00:00:01",
             icmp_id=0x1234, icmp_seq=7, payload=b"abc")


# -- checksum ---------------------------------------------------------------


def test_checksum_rfc_example():
    # Classic worked example: sum folds to 0xddf2, complement 0x220d.
    assert internet_checksum(bytes.fromhex("0001f203f4f5f6f7")) == 0x220D


def test_checksum_empty_is_all_ones():
    assert internet_checksum(b"") == 0xFFFF


def test_checksum_odd_length_pads_with_zero():
    assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")


def word_loop_checksum(data):
    """RFC 1071 spelled out one byte pair at a time: the reference the
    builders' checksums are held to."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@given(st.binary(max_size=300))
def test_checksum_matches_word_loop(data):
    assert internet_checksum(data) == word_loop_checksum(data)


# The edges of the one-integer reading: a word sum that is a nonzero
# multiple of 0xFFFF folds to 0xFFFF (checksum 0), an all-zero sum stays 0
# (checksum 0xFFFF).
@pytest.mark.parametrize("data, want", [
    (b"\xff\xff", 0x0000),
    (b"\xff\xfe\x00\x01", 0x0000),
    (bytes(2), 0xFFFF),
    (bytes(20), 0xFFFF),
])
def test_checksum_fold_edges(data, want):
    assert internet_checksum(data) == want == word_loop_checksum(data)


# Self-verification needs the checksum at an even offset, as every real
# header places it; odd-length data would shift the word alignment.
@given(st.binary(min_size=2, max_size=128).filter(lambda b: len(b) % 2 == 0))
def test_checksum_self_verifies(data):
    c = internet_checksum(data)
    stamped = data + struct.pack("!H", c)
    assert internet_checksum(stamped) == 0


# -- echo request -------------------------------------------------------------


def test_echo_request_matches_fixture():
    assert frames.build_echo_request(**PROBE) == ECHO_FIXTURE


def test_echo_request_checksums_verify():
    frame = frames.build_echo_request(**PROBE)
    assert internet_checksum(frame[14:34]) == 0
    assert internet_checksum(frame[34:]) == 0


def test_echo_request_respects_ttl():
    short = frames.build_echo_request(**{**PROBE, "ttl": 3})
    assert short[14 + 8] == 3


def test_payload_cap_is_the_mtu():
    limit = 1500 - 20 - 8
    frames.build_echo_request(**{**PROBE, "payload": bytes(limit)})
    with pytest.raises(PayloadTooLarge):
        frames.build_echo_request(**{**PROBE, "payload": bytes(limit + 1)})


def assemble_echo_request(src_ip, dst_ip, src_mac, dst_mac, icmp_id,
                          icmp_seq, payload=b"", ttl=64):
    """Echo Request put together field by field, both checksums taken over
    the whole header with word_loop_checksum."""
    icmp = struct.pack("!BBHHH", 8, 0, 0, icmp_id, icmp_seq) + payload
    icmp = icmp[:2] + struct.pack("!H", word_loop_checksum(icmp)) + icmp[4:]
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(icmp), 0, 0, ttl, 1,
                     0, socket.inet_aton(src_ip), socket.inet_aton(dst_ip))
    ip = ip[:10] + struct.pack("!H", word_loop_checksum(ip)) + ip[12:]
    eth = (bytes.fromhex(dst_mac.replace(":", ""))
           + bytes.fromhex(src_mac.replace(":", "")) + b"\x08\x00")
    return eth + ip + icmp


# a template takes its addresses as the bytes on the wire
RAW_ADDRESSES = (ip_to_bytes(PROBE["src_ip"]), ip_to_bytes(PROBE["dst_ip"]),
                 frames.mac_to_bytes(PROBE["src_mac"]),
                 frames.mac_to_bytes(PROBE["dst_mac"]))


@given(icmp_id=st.integers(0, 0xFFFF),
       stamps=st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(1, 255)),
                       min_size=1, max_size=4),
       payload_len=st.integers(0, frames.MAX_ECHO_PAYLOAD),
       fill=st.integers(0, 255))
def test_template_frames_match_the_reference(icmp_id, stamps, payload_len,
                                             fill):
    payload = bytes((fill + 37 * i) & 0xFF for i in range(payload_len))
    template = frames.echo_request_template(*RAW_ADDRESSES, icmp_id, payload)
    # one template serves every probe of a task
    for seq, ttl in stamps:
        assert frames.stamp_echo_request(template, seq, ttl) == \
            assemble_echo_request(**{**PROBE, "icmp_id": icmp_id,
                                     "icmp_seq": seq, "ttl": ttl,
                                     "payload": payload})


def test_template_refuses_an_oversized_payload():
    with pytest.raises(PayloadTooLarge):
        frames.echo_request_template(*RAW_ADDRESSES, 1,
                                     bytes(frames.MAX_ECHO_PAYLOAD + 1))


def test_gratuitous_arp_matches_fixture():
    got = frames.build_gratuitous_arp("10.0.0.100", "02:00:00:00:00:64")
    assert got == GARP_FIXTURE
    assert len(got) == 42


# -- reply classification ------------------------------------------------------


def test_echo_reply_round_trip():
    request = frames.build_echo_request(**PROBE)
    reply = frames.build_echo_reply(frames.parse_icmp(request))
    parsed = frames.parse_reply(reply)
    assert parsed.kind == ReplyKind.ECHO_REPLY
    assert parsed.responder_ip == "192.0.2.1"
    assert parsed.icmp_id == 0x1234
    assert parsed.icmp_seq == 7
    assert parsed.payload == b"abc"


def test_time_exceeded_quotes_the_probe():
    request = frames.build_echo_request(**PROBE)
    te = frames.build_time_exceeded("10.9.9.9", request,
                                    frames.parse_icmp(request))
    parsed = frames.parse_reply(te)
    assert parsed.kind == ReplyKind.TIME_EXCEEDED
    assert parsed.responder_ip == "10.9.9.9"
    # id and seq recovered from the quoted inner datagram
    assert parsed.icmp_id == 0x1234
    assert parsed.icmp_seq == 7


def test_time_exceeded_quote_is_header_plus_8():
    request = frames.build_echo_request(**PROBE)
    te = frames.build_time_exceeded("10.9.9.9", request,
                                    frames.parse_icmp(request))
    quote = frames.parse_reply(te).payload
    assert len(quote) == 28
    assert quote[:20] == request[14:34]
    assert quote[20:] == request[34:42]


def test_replies_swap_the_request_ethernet_addresses():
    request = frames.build_echo_request(**PROBE)
    query = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="203.0.113.5",
        src_mac="02:00:00:00:00:64", dst_mac="02:00:00:00:00:01",
        icmp_type=frames.ICMP_ROUTER_ID)
    for sent, reply in (
            (request, frames.build_echo_reply(frames.parse_icmp(request))),
            (request, frames.build_time_exceeded(
                "10.9.9.9", request, frames.parse_icmp(request))),
            (query, frames.build_router_id_reply(
                frames.parse_icmp(query), RouterIdentity(65001, "core-rtr-1")))):
        assert reply[:6] == sent[6:12]
        assert reply[6:12] == sent[:6]
        assert reply[12:14] == b"\x08\x00"


def test_probe_request_is_not_a_reply():
    parsed = frames.parse_reply(frames.build_echo_request(**PROBE))
    assert parsed.kind == ReplyKind.OTHER


def test_corrupt_checksum_classified_other():
    request = frames.build_echo_request(**PROBE)
    reply = bytearray(frames.build_echo_reply(frames.parse_icmp(request)))
    reply[-1] ^= 0xFF
    assert frames.parse_reply(bytes(reply)).kind == ReplyKind.OTHER


def test_arp_classified_other():
    assert frames.parse_reply(GARP_FIXTURE).kind == ReplyKind.OTHER


def test_truncated_frame_raises():
    request = frames.build_echo_request(**PROBE)
    with pytest.raises(MalformedFrame):
        frames.parse_reply(request[:20])
    with pytest.raises(MalformedFrame):
        frames.parse_reply(request[:40])


def test_non_ipv4_too_short_is_fine():
    with pytest.raises(MalformedFrame):
        frames.parse_reply(b"\x00" * 10)


# -- router identity -----------------------------------------------------------


def test_identity_payload_matches_fixture():
    got = frames.encode_router_identity(RouterIdentity(65001, "core-rtr-1"))
    assert got == RID_PAYLOAD_FIXTURE
    assert got[:4] == b"\x00\x00\xfd\xe9"
    assert got[4] == 10


def test_identity_payload_round_trip():
    identity = RouterIdentity(4200000000, "edge.fra-7")
    back = frames.decode_router_identity(
        frames.encode_router_identity(identity))
    assert back == identity


def test_identity_decode_rejects_garbage():
    assert frames.decode_router_identity(b"") is None
    assert frames.decode_router_identity(b"\x00\x00\x00\x01\x05abc") is None
    assert frames.decode_router_identity(
        b"\x00\x00\x00\x01\x02\xff\xfe") is None


def test_identity_validation():
    with pytest.raises(ValueError):
        RouterIdentity(-1, "x")
    with pytest.raises(ValueError):
        RouterIdentity(1 << 32, "x")
    with pytest.raises(ValueError):
        RouterIdentity(1, "")
    with pytest.raises(ValueError):
        RouterIdentity(1, "x" * 65)
    RouterIdentity(0, "x" * 64)


def test_identity_query_reply_exchange():
    query = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="203.0.113.5",
        src_mac="02:00:00:00:00:64", dst_mac="02:00:00:00:00:01",
        icmp_id=41, icmp_seq=2, icmp_type=frames.ICMP_ROUTER_ID)
    parsed = frames.parse_reply(query)
    assert parsed.kind == ReplyKind.ROUTER_ID_QUERY
    view = parsed.view
    assert view[2:4] == (41, 2)  # icmp_id, icmp_seq
    assert ip_from_bytes(view[5]) == "10.0.0.100"  # the querier

    reply = frames.build_router_id_reply(view,
                                         RouterIdentity(65001, "core-rtr-1"))
    parsed = frames.parse_reply(reply)
    assert parsed.kind == ReplyKind.ROUTER_ID_REPLY
    assert parsed.responder_ip == "203.0.113.5"
    assert parsed.icmp_id == 41
    assert parsed.icmp_seq == 2
    assert parsed.payload == RID_PAYLOAD_FIXTURE
    # an echo request or a damaged query is not a query
    assert frames.parse_reply(
        frames.build_echo_request(**PROBE)).kind == ReplyKind.OTHER
    damaged = bytearray(query)
    damaged[-1] ^= 0xFF
    assert frames.parse_reply(bytes(damaged)).kind == ReplyKind.OTHER


@given(src=st.tuples(*[st.integers(0, 255)] * 4),
       dst=st.tuples(*[st.integers(0, 255)] * 4),
       src_mac=st.binary(min_size=6, max_size=6),
       dst_mac=st.binary(min_size=6, max_size=6),
       icmp_id=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
       ttl=st.integers(0, 255))
def test_identity_query_matches_a_field_by_field_assembly(
        src, dst, src_mac, dst_mac, icmp_id, seq, ttl):
    src_ip, dst_ip = bytes(src), bytes(dst)
    icmp = struct.pack("!BBHHH", 200, 0, 0, icmp_id, seq)
    icmp = icmp[:2] + struct.pack("!H", internet_checksum(icmp)) + icmp[4:]
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 28, 0, 0, ttl, 1, 0,
                     src_ip, dst_ip)
    ip = ip[:10] + struct.pack("!H", internet_checksum(ip)) + ip[12:]
    expected = dst_mac + src_mac + b"\x08\x00" + ip + icmp
    # built as the engine builds a query: a template, then one stamp
    template = frames.echo_request_template(src_ip, dst_ip, src_mac, dst_mac,
                                            icmp_id,
                                            icmp_type=frames.ICMP_ROUTER_ID)
    assert frames.stamp_echo_request(template, seq, ttl) == expected


# -- flow-table field extraction ----------------------------------------------


def test_match_fields_of_probe():
    fields = frames.match_fields(frames.build_echo_request(**PROBE))
    assert fields == {"eth_type": 0x0800, "ip_proto": 1,
                      "ipv4_dst": "192.0.2.1", "icmpv4_type": 8,
                      "icmpv4_code": 0}


def test_match_fields_of_arp():
    assert frames.match_fields(GARP_FIXTURE) == {"eth_type": 0x0806}


def test_match_fields_of_garbage():
    assert frames.match_fields(b"\x02\x00") == {}


def test_mac_helpers_round_trip():
    assert frames.mac_to_bytes("02:00:00:00:00:64") == \
        bytes.fromhex("020000000064")
    with pytest.raises(ValueError):
        frames.mac_to_bytes("02:00:00")
