"""OpenFlow 1.3 wire codec for the messages the controller and the
simulated switch exchange, carrying only the fields the two of them read.

Everything is big-endian.  Eight message kinds are understood.  HELLO,
ECHO_REQUEST, ECHO_REPLY and FEATURES_REQUEST carry their body bytes,
FEATURES_REPLY the datapath id, PACKET_OUT PacketOutBody(out_port, frame),
PACKET_IN PacketInBody(in_port, frame) and FLOW_MOD FlowModBody(priority,
match): an add whose one action outputs to CONTROLLER, matching at most
once on each of eth_type, ip_proto, ipv4_dst, icmpv4_type and icmpv4_code.
Every other field is written as the constant the program sends (no
buffer, reason ACTION, table and cookie 0, 254 tables, no capabilities)
and skipped on decode.  A FlowMod with another command, match or action,
a PacketOut with other than one output action, a PacketIn without in_port
and any other type decode as UnsupportedType, which still reports the
byte length so a stream reader can skip the message and stay in sync.  A
flow match outside the subset does not encode.

Encoding leaves the range checks to ``struct``: a field that is negative,
not an integer or too wide for its slot makes the pack fail, and
encode_message turns that into UnencodableMessage.  Decoding reads each
message where it sits in the buffer it arrived in; only the variable-length
bodies (echo data, dataplane frames) are copied out.
"""

import socket
import struct
from dataclasses import dataclass

OFP_VERSION = 0x04
HEADER_LEN = 8

OFPT_HELLO = 0
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14

# Types whose whole body is opaque bytes.
_BYTES_BODY_TYPES = frozenset((
    OFPT_HELLO, OFPT_ECHO_REQUEST, OFPT_ECHO_REPLY, OFPT_FEATURES_REQUEST,
))

NO_BUFFER = 0xFFFFFFFF
PORT_CONTROLLER = 0xFFFFFFFD
PORT_ANY = 0xFFFFFFFF
GROUP_ANY = 0xFFFFFFFF
CTRL_MAX_LEN_NO_BUFFER = 0xFFFF

REASON_ACTION = 1

OFPFC_ADD = 0
_OXM_CLASS_BASIC = 0x8000
_ACTION_OUTPUT = 0
_INSTR_APPLY_ACTIONS = 4
_MATCH_TYPE_OXM = 1

_HEADER = struct.Struct("!BBHI")
_FEATURES_BODY = struct.Struct("!QIBB2xII")
# A PacketIn as this codec writes it, up to the frame: header, fixed body,
# a match holding only in_port (type, length 12, one 4-byte OXM, 4 bytes of
# padding) and the 2 pad bytes before the frame.
_PACKET_IN_HEAD = struct.Struct("!BBHIIHBBQHHHBBI4x2x")
_PACKET_IN_FIXED_LEN = 16
# A PacketOut up to the frame: header, fixed body and one output action.
_PACKET_OUT_HEAD = struct.Struct("!BBHIIIH6xHHIH6x")
_PACKET_OUT_FIXED = struct.Struct("!8xH6x")
_FLOW_MOD_FIXED = struct.Struct("!QQBBHHHIIIH2x")
_ACTION_OUTPUT_STRUCT = struct.Struct("!HHIH6x")
_OXM_HEADER = struct.Struct("!HBB")
_TYPE_LEN = struct.Struct("!HH")
_INSTR_HEADER = struct.Struct("!HH4x")
# A FlowMod's one instruction: apply one output action to the controller.
_TO_CONTROLLER = _INSTR_HEADER.pack(_INSTR_APPLY_ACTIONS, 24) \
    + _ACTION_OUTPUT_STRUCT.pack(_ACTION_OUTPUT, 16, PORT_CONTROLLER,
                                 CTRL_MAX_LEN_NO_BUFFER)

class WireError(Exception):
    """Base class for codec failures."""


class UnencodableMessage(WireError):
    pass


class TruncatedMessage(WireError):
    pass


class BadVersion(WireError):
    """A foreign version byte, or a declared length below the header."""


class UnsupportedType(WireError):
    """Raised for parseable messages the codec does not model.  ``consumed``
    carries the full message length so callers can skip it."""

    def __init__(self, msg_type, consumed):
        super().__init__("unsupported OpenFlow message type %d" % msg_type)
        self.msg_type = msg_type
        self.consumed = consumed


def ip_to_bytes(ip):
    """The 4 bytes of a dotted-decimal IPv4 address that reads back
    unchanged.  inet_aton alone also takes octal, hex, short forms and
    trailing junk, so a dump would name another string than the address
    probed; those raise UnencodableMessage."""
    try:
        raw = socket.inet_aton(ip)
        if socket.inet_ntoa(raw) == ip:
            return raw
    except (OSError, TypeError, ValueError):
        pass
    raise UnencodableMessage("bad IPv4 address %r" % (ip,))


def ip_from_bytes(raw):
    return socket.inet_ntoa(raw)


# Match fields the codec understands: name -> (oxm field id, byte length).
_MATCH_FIELDS = {
    "in_port": (0, 4),
    "eth_type": (5, 2),
    "ip_proto": (10, 1),
    "ipv4_dst": (12, 4),
    "icmpv4_type": (19, 1),
    "icmpv4_code": (20, 1),
}
_FIELD_BY_ID = {fid: (name, length) for name, (fid, length) in _MATCH_FIELDS.items()}


def _is_flow_match(names):
    """A flow match names only fields the codec knows, not in_port, each at
    most once."""
    return (len(set(names)) == len(names) and "in_port" not in names
            and all(name in _MATCH_FIELDS for name in names))


def _encode_match_value(name, value):
    fid, length = _MATCH_FIELDS[name]
    if name == "ipv4_dst":
        raw = ip_to_bytes(value)
    else:
        if not isinstance(value, int) or value < 0 or value >= (1 << (8 * length)):
            raise UnencodableMessage("match %s=%r out of range" % (name, value))
        raw = value.to_bytes(length, "big")
    return _OXM_HEADER.pack(_OXM_CLASS_BASIC, fid << 1, length) + raw


def _encode_match(fields):
    if not _is_flow_match([name for name, _value in fields]):
        raise UnencodableMessage("unsupported flow match %r" % (fields,))
    oxms = b"".join(_encode_match_value(name, value) for name, value in fields)
    length = 4 + len(oxms)
    pad = (-length) % 8
    return _TYPE_LEN.pack(_MATCH_TYPE_OXM, length) + oxms + b"\x00" * pad


def _decode_match(data, pos, end):
    """Return (pairs, end_of_padded_match) for the match at data[pos:],
    with (None, None) for each OXM field the codec does not know."""
    if pos + 4 > end:
        raise TruncatedMessage("match header missing")
    mtype, mlen = _TYPE_LEN.unpack_from(data, pos)
    if mtype != _MATCH_TYPE_OXM or mlen < 4:
        raise TruncatedMessage("malformed match header")
    match_end = pos + mlen
    if match_end > end:
        raise TruncatedMessage("match runs past message")
    pairs = []
    pos += 4
    while pos < match_end:
        if pos + 4 > match_end:
            raise TruncatedMessage("OXM header runs past match")
        klass, fh, length = _OXM_HEADER.unpack_from(data, pos)
        pos += 4 + length
        if pos > match_end:
            raise TruncatedMessage("OXM value runs past match")
        entry = _FIELD_BY_ID.get(fh >> 1)
        if klass != _OXM_CLASS_BASIC or fh & 1 or entry is None \
                or entry[1] != length:
            pairs.append((None, None))
        elif entry[0] == "ipv4_dst":
            pairs.append((entry[0], ip_from_bytes(data[pos - 4:pos])))
        else:
            pairs.append((entry[0], int.from_bytes(data[pos - length:pos],
                                                   "big")))
    return pairs, match_end + ((-mlen) % 8)


def _output_port(data, pos, end):
    """The port of the one output action in data[pos:end], or None when
    there is no action, more than one or one of another kind."""
    port = None
    while pos < end:
        if pos + 4 > end:
            raise TruncatedMessage("action header runs past body")
        atype, alen = _TYPE_LEN.unpack_from(data, pos)
        if alen < 8 or pos + alen > end:
            raise TruncatedMessage("action length runs past body")
        if atype != _ACTION_OUTPUT or alen != 16 or port is not None:
            return None
        port = _ACTION_OUTPUT_STRUCT.unpack_from(data, pos)[2]
        pos += alen
    return port


@dataclass(slots=True)
class PacketOutBody:
    out_port: int
    frame: bytes


@dataclass(slots=True)
class PacketInBody:
    in_port: int
    frame: bytes


@dataclass(slots=True)
class FlowModBody:
    priority: int
    match: list


@dataclass(slots=True)
class OpenFlowMessage:
    msg_type: int
    xid: int
    body: object = b""


def hello(xid):
    return OpenFlowMessage(OFPT_HELLO, xid)


def echo_request(xid, data=b""):
    return OpenFlowMessage(OFPT_ECHO_REQUEST, xid, bytes(data))


def echo_reply(xid, data=b""):
    return OpenFlowMessage(OFPT_ECHO_REPLY, xid, bytes(data))


def features_request(xid):
    return OpenFlowMessage(OFPT_FEATURES_REQUEST, xid)


def features_reply(xid, datapath_id):
    return OpenFlowMessage(OFPT_FEATURES_REPLY, xid, datapath_id)


def packet_out(xid, out_port, frame):
    return OpenFlowMessage(OFPT_PACKET_OUT, xid,
                           PacketOutBody(out_port, bytes(frame)))


def packet_in(xid, in_port, frame):
    return OpenFlowMessage(OFPT_PACKET_IN, xid,
                           PacketInBody(in_port, bytes(frame)))


def flow_mod(xid, priority, match):
    return OpenFlowMessage(OFPT_FLOW_MOD, xid,
                           FlowModBody(priority, list(match)))


def encode_message(msg):
    """Serialize an OpenFlowMessage to wire bytes.  Raises
    UnencodableMessage for a message or field the wire cannot carry."""
    t = msg.msg_type
    xid = msg.xid
    body = msg.body
    try:
        if t == OFPT_PACKET_OUT:
            frame = body.frame
            return _PACKET_OUT_HEAD.pack(
                OFP_VERSION, t, _PACKET_OUT_HEAD.size + len(frame), xid,
                NO_BUFFER, PORT_CONTROLLER, _ACTION_OUTPUT_STRUCT.size,
                _ACTION_OUTPUT, _ACTION_OUTPUT_STRUCT.size, body.out_port,
                CTRL_MAX_LEN_NO_BUFFER) + frame
        if t == OFPT_PACKET_IN:
            frame = body.frame
            return _PACKET_IN_HEAD.pack(
                OFP_VERSION, t, _PACKET_IN_HEAD.size + len(frame), xid,
                NO_BUFFER, len(frame), REASON_ACTION, 0, 0, _MATCH_TYPE_OXM,
                12, _OXM_CLASS_BASIC, 0, 4, body.in_port) + frame
        if t in _BYTES_BODY_TYPES:
            if not isinstance(body, (bytes, bytearray)):
                raise UnencodableMessage("message type %d takes a bytes body"
                                         % t)
            payload = bytes(body)
        elif t == OFPT_FEATURES_REPLY:
            payload = _FEATURES_BODY.pack(body, 0, 254, 0, 0, 0)
        elif t == OFPT_FLOW_MOD:
            payload = (_FLOW_MOD_FIXED.pack(0, 0, 0, OFPFC_ADD, 0, 0,
                                            body.priority, NO_BUFFER, PORT_ANY,
                                            GROUP_ANY, 0)
                       + _encode_match(body.match) + _TO_CONTROLLER)
        else:
            raise UnencodableMessage("cannot encode message type %d" % t)
        return _HEADER.pack(OFP_VERSION, t, HEADER_LEN + len(payload),
                            xid) + payload
    except struct.error as exc:
        raise UnencodableMessage("cannot encode message type %d: %s"
                                 % (t, exc)) from None


def _decode_packet_in(data, pos, end):
    pairs, pos = _decode_match(data, pos + _PACKET_IN_FIXED_LEN, end)
    in_port = dict(pairs).get("in_port")
    if in_port is None:
        return None
    if pos + 2 > end:
        raise TruncatedMessage("packet_in pad missing")
    return PacketInBody(in_port, bytes(data[pos + 2:end]))


def _decode_packet_out(data, pos, end):
    if pos + _PACKET_OUT_FIXED.size > end:
        raise TruncatedMessage("packet_out body too short")
    actions_len = _PACKET_OUT_FIXED.unpack_from(data, pos)[0]
    pos += _PACKET_OUT_FIXED.size
    if pos + actions_len > end:
        raise TruncatedMessage("packet_out actions run past message")
    out_port = _output_port(data, pos, pos + actions_len)
    if out_port is None:
        return None
    return PacketOutBody(out_port, bytes(data[pos + actions_len:end]))


def _decode_flow_mod(data, pos, end):
    if pos + _FLOW_MOD_FIXED.size > end:
        raise TruncatedMessage("flow_mod body too short")
    fixed = _FLOW_MOD_FIXED.unpack_from(data, pos)
    command, priority = fixed[3], fixed[6]
    if command != OFPFC_ADD:
        return None
    pairs, pos = _decode_match(data, pos + _FLOW_MOD_FIXED.size, end)
    if not _is_flow_match([name for name, _value in pairs]):
        return None
    if pos + _INSTR_HEADER.size > end:
        raise TruncatedMessage("flow_mod instruction missing")
    itype, ilen = _TYPE_LEN.unpack_from(data, pos)
    if itype != _INSTR_APPLY_ACTIONS or pos + ilen != end or _output_port(
            data, pos + _INSTR_HEADER.size, end) != PORT_CONTROLLER:
        return None
    return FlowModBody(priority, pairs)


def decode_message(data, pos=0):
    """Decode the message that starts at offset ``pos`` of ``data``, reading
    it in place.

    Returns (OpenFlowMessage, consumed).  Raises TruncatedMessage when more
    bytes are needed or when a message's contents run past its own declared
    length, BadVersion on a foreign version byte or a length below the
    header, and UnsupportedType (with the skippable length) for types
    and messages outside the supported subset.
    """
    have = len(data) - pos
    if have < HEADER_LEN:
        raise TruncatedMessage("%d header bytes missing" % (HEADER_LEN - have))
    version, msg_type, length, xid = _HEADER.unpack_from(data, pos)
    if version != OFP_VERSION:
        raise BadVersion("unsupported OpenFlow version 0x%02x" % version)
    if length < HEADER_LEN:
        raise BadVersion("declared length %d is below the %d-byte header"
                         % (length, HEADER_LEN))
    if have < length:
        raise TruncatedMessage("message needs %d bytes, have %d"
                               % (length, have))
    start = pos + HEADER_LEN
    end = pos + length
    if msg_type == OFPT_PACKET_IN:
        body = _decode_packet_in(data, start, end)
    elif msg_type == OFPT_PACKET_OUT:
        body = _decode_packet_out(data, start, end)
    elif msg_type in _BYTES_BODY_TYPES:
        body = bytes(data[start:end])
    elif msg_type == OFPT_FEATURES_REPLY:
        if length < HEADER_LEN + _FEATURES_BODY.size:
            raise TruncatedMessage("features_reply body too short")
        body = _FEATURES_BODY.unpack_from(data, start)[0]
    elif msg_type == OFPT_FLOW_MOD:
        body = _decode_flow_mod(data, start, end)
    else:
        body = None
    if body is None:
        raise UnsupportedType(msg_type, length)
    return OpenFlowMessage(msg_type, xid, body), length


class MessageStream:
    """Reassembles OpenFlow messages from an arbitrarily chunked byte feed.

    TCP gives no message framing: a segment may carry many messages and the
    last one may be cut anywhere.  feed() walks the bytes by each message's
    declared length, decodes every complete message where it sits and keeps
    only an incomplete tail.  It skips and counts unsupported types
    (``skipped``) and complete messages that do not parse (``malformed``),
    and lets BadVersion escape so the session can abort.
    """

    def __init__(self):
        self._buf = bytearray()
        self.skipped = 0
        self.malformed = 0

    def pending(self):
        return len(self._buf)

    def feed(self, data):
        buf = self._buf
        if buf:
            buf += data
            data = buf
        end = len(data)
        pos = 0
        out = []
        try:
            while pos < end:
                try:
                    msg, consumed = decode_message(data, pos)
                except UnsupportedType as exc:
                    self.skipped += 1
                    pos += exc.consumed
                    continue
                except TruncatedMessage:
                    # Either more bytes are needed, or the whole message is
                    # here and its contents run past its declared length.
                    if end - pos < HEADER_LEN:
                        break
                    length = _HEADER.unpack_from(data, pos)[2]
                    if end - pos < length:
                        break
                    self.malformed += 1
                    pos += length
                    continue
                out.append(msg)
                pos += consumed
        finally:
            if data is buf:
                del buf[:pos]
            elif pos < end:
                buf += data[pos:]
        return out
