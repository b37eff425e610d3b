"""Builders and parsers for the raw Ethernet frames the probes ride in.

Covers ICMP Echo, ICMP Time Exceeded, gratuitous ARP, and a private
router-identity exchange carried in ICMP type 200.  All multi-byte fields
are network byte order; MAC addresses are colon-separated strings and IPv4
addresses dotted quads at this module's surface, except in an Echo Request
template, whose caller converts its addresses once.  Replies built from a
received frame copy its raw address bytes and never convert them.

A received frame is parsed once, into an ICMP view: parse_reply and
parse_icmp read that one parse, and the reply builders take the caller's
view instead of parsing again (an identity query comes back from
parse_reply with its view).
Checksums have one fold, _complement: as 2**16 is 1 modulo 0xFFFF, a
buffer read as one big-endian integer, or any plain sum of its words, is
modulo 0xFFFF the ones'-complement sum of its words (a nonzero multiple of
0xFFFF folds to 0xFFFF).  internet_checksum and every probe stamp call it.

Every probe, Echo Request or identity query in the same layout, is a
template plus a stamp: the Ethernet header, the addresses and the
ones-complement sums of every IPv4 and ICMP word except the TTL and the
sequence number are computed once per task, and each probe only adds
those two words to the sums (RFC 1071 section 2, RFC 1624).
build_echo_request is the same pair for a single frame.
"""

import struct
from dataclasses import dataclass
from enum import Enum

from .wire import ip_from_bytes, ip_to_bytes

ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_ARP = 0x0806

IP_PROTO_ICMP = 1

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11
ICMP_ROUTER_ID = 200
ROUTER_ID_QUERY = 0
ROUTER_ID_REPLY = 1

MAX_FRAME_IP_LEN = 1500
# IPv4 and ICMP Echo headers take 28 of the 1500 bytes
MAX_ECHO_PAYLOAD = MAX_FRAME_IP_LEN - 28
BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_ICMP_ECHO = struct.Struct("!BBHHH")
_ICMP_HEAD = struct.Struct("!BBH")
# What an Echo Request template leaves per probe: from the TTL byte of the
# IPv4 header to the end of the ICMP header, addresses included.
_ECHO_STAMP = struct.Struct("!BBH8sBBHHH")
_ARP = struct.Struct("!HHBBH6s4s6s4s")


class MalformedFrame(Exception):
    """Frame is shorter than its own headers declare."""


class PayloadTooLarge(Exception):
    pass


class ReplyKind(Enum):
    ECHO_REPLY = "echo_reply"
    TIME_EXCEEDED = "time_exceeded"
    ROUTER_ID_REPLY = "router_id_reply"
    ROUTER_ID_QUERY = "router_id_query"
    OTHER = "other"


@dataclass(slots=True)
class ParsedReply:
    kind: ReplyKind
    responder_ip: str = ""
    icmp_id: int = 0
    icmp_seq: int = 0
    payload: bytes = b""
    view: tuple = None  # an identity query's ICMP view, for the reply


@dataclass
class RouterIdentity:
    asn: int
    ident: str

    def __post_init__(self):
        if not 0 <= self.asn <= 0xFFFFFFFF:
            raise ValueError("asn %r does not fit 32 bits" % (self.asn,))
        raw = self.ident.encode("utf-8")
        if not 1 <= len(raw) <= 64:
            raise ValueError("ident must encode to 1..64 bytes")


def _complement(total):
    """Complemented ones'-complement sum of words whose plain sum, or
    big-endian integer, is total: it folds to (total - 1) % 0xFFFF + 1."""
    return 0xFFFE - (total - 1) % 0xFFFF if total else 0xFFFF


def internet_checksum(data):
    """RFC 1071 ones-complement sum over 16-bit words, returned already
    complemented and ready to insert.  An odd trailing byte is padded with
    zero; empty (or all-zero) input yields 0xFFFF."""
    return _complement(int.from_bytes(data, "big") << (8 * (len(data) & 1)))


def mac_to_bytes(mac):
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError("bad MAC address %r" % (mac,))
    return bytes(int(p, 16) for p in parts)


def _icmp(icmp_type, code, rest):
    csum = internet_checksum(_ICMP_HEAD.pack(icmp_type, code, 0) + rest)
    return _ICMP_HEAD.pack(icmp_type, code, csum) + rest


def check_echo_payload(payload):
    """Raise PayloadTooLarge when an Echo Request carrying payload would
    not fit a 1500-byte MTU."""
    if len(payload) > MAX_ECHO_PAYLOAD:
        raise PayloadTooLarge("payload of %d bytes exceeds the %d bytes an "
                              "Echo Request fits in the MTU"
                              % (len(payload), MAX_ECHO_PAYLOAD))


def echo_request_template(src_ip, dst_ip, src_mac, dst_mac, icmp_id,
                          payload=b"", icmp_type=ICMP_ECHO_REQUEST):
    """What one task's probes share, for stamp_echo_request (identity
    queries with icmp_type ICMP_ROUTER_ID).  The addresses are raw bytes,
    converted once by the caller.  Raises PayloadTooLarge."""
    check_echo_payload(payload)
    payload = bytes(payload)
    addrs = src_ip + dst_ip
    ip_front = struct.pack("!BBHHH", 0x45, 0, 28 + len(payload), 0, 0)
    head = _ETH.pack(dst_mac, src_mac, ETH_TYPE_IPV4) + ip_front
    # sums of every word but TTL (the high byte of the TTL/protocol word)
    # and the ICMP sequence number; the ICMP sum is folded here, once
    ip_sum = int.from_bytes(ip_front + addrs, "big") + IP_PROTO_ICMP
    icmp = struct.pack("!BBHH", icmp_type, 0, 0, icmp_id) + payload
    icmp_sum = 0xFFFF - internet_checksum(icmp)
    return head, addrs, ip_sum, icmp_type, icmp_sum, icmp_id, payload


def stamp_echo_request(template, icmp_seq, ttl):
    """One probe frame from a task's template: only the TTL, the sequence
    number and the two checksums they enter are new."""
    head, addrs, ip_sum, icmp_type, icmp_sum, icmp_id, payload = template
    return head + _ECHO_STAMP.pack(
        ttl, IP_PROTO_ICMP, _complement(ip_sum + (ttl << 8)), addrs,
        icmp_type, 0, _complement(icmp_sum + icmp_seq), icmp_id,
        icmp_seq) + payload


def build_echo_request(src_ip, dst_ip, src_mac, dst_mac, icmp_id=0, icmp_seq=0,
                       ttl=64, payload=b"", icmp_type=ICMP_ECHO_REQUEST):
    """A single frame from address strings, through a one-off template."""
    template = echo_request_template(
        ip_to_bytes(src_ip), ip_to_bytes(dst_ip), mac_to_bytes(src_mac),
        mac_to_bytes(dst_mac), icmp_id, payload, icmp_type)
    return stamp_echo_request(template, icmp_seq, ttl)


def build_gratuitous_arp(ip, mac):
    """Gratuitous ARP reply announcing ip at mac to the broadcast domain."""
    raw_mac, raw_ip = mac_to_bytes(mac), ip_to_bytes(ip)
    body = _ARP.pack(1, ETH_TYPE_IPV4, 6, 4, 2, raw_mac, raw_ip, raw_mac, raw_ip)
    return _ETH.pack(mac_to_bytes(BROADCAST_MAC), raw_mac, ETH_TYPE_ARP) + body


def encode_router_identity(identity):
    raw = identity.ident.encode("utf-8")
    return struct.pack("!IB", identity.asn, len(raw)) + raw


def decode_router_identity(payload):
    """Inverse of encode_router_identity; None when the bytes do not parse."""
    if len(payload) < 5:
        return None
    asn, ident_len = struct.unpack_from("!IB", payload)
    if ident_len == 0 or len(payload) != 5 + ident_len:
        return None
    try:
        ident = payload[5:].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return RouterIdentity(asn, ident)


def _icmp_view(frame):
    """The view (icmp_type, icmp_code, icmp_id, icmp_seq, ttl, src_ip,
    dst_ip, icmp, eth_dst, eth_src) of an ICMPv4-over-Ethernet frame, with
    addresses as the raw bytes on the wire and icmp the whole ICMP message.
    None for other ethertypes and protocols, and for frames whose IP
    options, checksum or version mark them as something this platform never
    emits.  Raises MalformedFrame when the buffer is shorter than the
    declared lengths."""
    if len(frame) < 14:
        raise MalformedFrame("frame shorter than an Ethernet header")
    eth_dst, eth_src, eth_type = _ETH.unpack_from(frame)
    if eth_type != ETH_TYPE_IPV4:
        return None
    if len(frame) < 34:
        raise MalformedFrame("frame shorter than an IPv4 header")
    (ver_ihl, _tos, total_len, _ident, _frag, ttl, proto, _csum,
     src_ip, dst_ip) = _IPV4.unpack_from(frame, 14)
    if ver_ihl != 0x45:
        return None
    if total_len < 20 or len(frame) < 14 + total_len:
        raise MalformedFrame("IPv4 total length exceeds the frame")
    if internet_checksum(frame[14:34]) != 0 or proto != IP_PROTO_ICMP:
        return None
    icmp = frame[34:14 + total_len]
    if len(icmp) < 8:
        raise MalformedFrame("ICMP message shorter than its header")
    icmp_type, code, _csum, ident, seq = _ICMP_ECHO.unpack_from(icmp)
    return (icmp_type, code, ident, seq, ttl, src_ip, dst_ip, icmp,
            eth_dst, eth_src)


def parse_icmp(frame):
    """Loose ICMP view of a frame for dataplane emulation (the tuple
    described at _icmp_view), or None when the frame is not well-formed
    ICMPv4.  The ICMP checksum is not checked."""
    try:
        return _icmp_view(frame)
    except MalformedFrame:
        return None


def parse_reply(frame):
    """Classify a dataplane frame handed up by the switch.

    Unknown, non-ICMP and checksum-damaged frames come back as OTHER;
    frames shorter than their declared headers raise MalformedFrame.  A
    query carries its ICMP view (see _icmp_view) for build_router_id_reply.
    """
    view = _icmp_view(frame)
    if view is None:
        return ParsedReply(ReplyKind.OTHER)
    icmp_type, code, ident, seq, _ttl, src_ip, _dst, icmp, _ed, _es = view
    if internet_checksum(icmp) != 0:
        return ParsedReply(ReplyKind.OTHER)
    if icmp_type == ICMP_ECHO_REPLY and code == 0:
        return ParsedReply(ReplyKind.ECHO_REPLY, ip_from_bytes(src_ip), ident,
                           seq, icmp[8:])
    if icmp_type == ICMP_TIME_EXCEEDED and code == 0:
        quote = icmp[8:]
        if len(quote) < 28 or quote[0] != 0x45 or quote[9] != IP_PROTO_ICMP:
            return ParsedReply(ReplyKind.OTHER)
        inner_id, inner_seq = struct.unpack_from("!HH", quote, 24)
        return ParsedReply(ReplyKind.TIME_EXCEEDED, ip_from_bytes(src_ip),
                           inner_id, inner_seq, quote)
    if icmp_type == ICMP_ROUTER_ID and code == ROUTER_ID_REPLY:
        return ParsedReply(ReplyKind.ROUTER_ID_REPLY, ip_from_bytes(src_ip),
                           ident, seq, icmp[8:])
    if icmp_type == ICMP_ROUTER_ID and code == ROUTER_ID_QUERY:
        return ParsedReply(ReplyKind.ROUTER_ID_QUERY, view=view)
    return ParsedReply(ReplyKind.OTHER)


def _reply_to(view, src_ip, icmp):
    """Frame carrying icmp back to the sender of a viewed frame, from
    src_ip (raw bytes), with TTL 64 and the Ethernet addresses swapped."""
    _t, _c, _i, _s, _ttl, sender_ip, _dst, _msg, eth_dst, eth_src = view
    total = 20 + len(icmp)
    csum = internet_checksum(_IPV4.pack(0x45, 0, total, 0, 0, 64,
                                        IP_PROTO_ICMP, 0, src_ip, sender_ip))
    return (_ETH.pack(eth_src, eth_dst, ETH_TYPE_IPV4)
            + _IPV4.pack(0x45, 0, total, 0, 0, 64, IP_PROTO_ICMP, csum,
                         src_ip, sender_ip) + icmp)


# The reply builders answer a frame through its ICMP view (parse_icmp, or
# an identity query's ParsedReply.view), which the caller already holds.

def build_router_id_reply(view, identity):
    """Answer an identity query, mirroring its addressing back at the
    querier."""
    _t, _c, ident, seq, _ttl, _src, dst_ip, _msg, _ed, _es = view
    rest = struct.pack("!HH", ident, seq) + encode_router_identity(identity)
    return _reply_to(view, dst_ip,
                     _icmp(ICMP_ROUTER_ID, ROUTER_ID_REPLY, rest))


def build_echo_reply(view):
    """Loop an Echo Request back as the matching Echo Reply (used by the
    simulated targets)."""
    _t, _c, _i, _s, _ttl, _src, dst_ip, icmp, _ed, _es = view
    return _reply_to(view, dst_ip, _icmp(ICMP_ECHO_REPLY, 0, icmp[4:]))


def build_time_exceeded(router_ip, original_frame, view):
    """ICMP Time Exceeded quoting the expired probe: inner IPv4 header plus
    the first 8 payload bytes, per the classic traceroute contract."""
    _t, _c, _i, _s, _ttl, _src, _dst, icmp, _ed, _es = view
    quote = original_frame[14:34] + icmp[:8]
    return _reply_to(view, ip_to_bytes(router_ip),
                     _icmp(ICMP_TIME_EXCEEDED, 0, b"\x00\x00\x00\x00" + quote))


def match_fields(frame):
    """Extract the header fields a flow table can match on.  Missing layers
    simply leave keys out; garbage yields an empty dict."""
    out = {}
    if len(frame) < 14:
        return out
    eth_type = struct.unpack_from("!H", frame, 12)[0]
    out["eth_type"] = eth_type
    if eth_type != ETH_TYPE_IPV4 or len(frame) < 34:
        return out
    if frame[14] != 0x45:
        return out
    out["ip_proto"] = frame[23]
    out["ipv4_dst"] = ip_from_bytes(frame[30:34])
    if out["ip_proto"] == IP_PROTO_ICMP and len(frame) >= 36:
        out["icmpv4_type"] = frame[34]
        out["icmpv4_code"] = frame[35]
    return out
