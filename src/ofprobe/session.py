"""Controller-side management of one OpenFlow switch connection.

The controller listens; switches dial in.  On accept we send HELLO, expect
the peer's HELLO, request features and go active once the FEATURES_REPLY
arrives.  A session tracks in-flight echo requests so the control-channel
round trip can be sampled on demand, and timestamps every PACKET_IN the
moment it is decoded.  Echoes share one timeout, so they time out in send
order: one deadline, at the oldest pending echo's send time plus the
timeout, fails the echoes past it and re-arms for the oldest one left.  It
is cancelled once no echo is pending, so a drained loop stops at the last
echo reply.
"""

import logging

from . import wire
from .frames import ICMP_ECHO_REPLY, ICMP_ROUTER_ID, ICMP_TIME_EXCEEDED
from .eventloop import Future

log = logging.getLogger(__name__)

HANDSHAKE_PENDING = "handshake_pending"
ACTIVE = "active"
CLOSED = "closed"

HANDSHAKE_TIMEOUT_US = 5_000_000
ECHO_TIMEOUT_US = 2_000_000


class SessionError(Exception):
    pass


class HandshakeTimeout(SessionError):
    pass


class HandshakeFailed(SessionError):
    pass


class EchoTimeout(SessionError):
    pass


class SessionClosed(SessionError):
    pass


class SwitchSession:
    """State machine for one switch: handshake, echo sampling, probe I/O."""

    def __init__(self, loop, conn, handshake_timeout_us=HANDSHAKE_TIMEOUT_US,
                 echo_timeout_us=ECHO_TIMEOUT_US):
        self._loop = loop
        self._conn = conn
        self._echo_timeout_us = echo_timeout_us
        self._framer = wire.MessageStream()
        self._xid = 0
        self._pending_echoes = {}   # xid -> (t_sent, future), in send order
        self._echo_deadline = None
        self._peer_hello = False
        self.state = HANDSHAKE_PENDING
        self.datapath_id = None
        self.ready = Future()
        self.packet_in_handler = None
        self.close_handler = None
        conn.set_receiver(self._on_bytes)
        self._send(wire.hello(self._next_xid()))
        self._hs_timer = loop.call_later(handshake_timeout_us,
                                         self._on_handshake_timeout)

    def _next_xid(self):
        self._xid = (self._xid + 1) & 0xFFFFFFFF
        return self._xid

    def _send(self, msg):
        self._conn.send(wire.encode_message(msg))

    # -- inbound ----------------------------------------------------------

    def _on_bytes(self, data):
        if self.state == CLOSED:
            return
        if not data:
            self.close(SessionClosed("switch closed the connection"))
            return
        try:
            messages = self._framer.feed(data)
        except wire.BadVersion as exc:
            log.warning("aborting session: %s", exc)
            self.close(HandshakeFailed(str(exc)))
            return
        now = self._loop.now_us()
        for msg in messages:
            self._dispatch(msg, now)
            if self.state == CLOSED:
                return

    def _dispatch(self, msg, now_us):
        t = msg.msg_type
        if t == wire.OFPT_HELLO:
            if not self._peer_hello:
                self._peer_hello = True
                self._send(wire.features_request(self._next_xid()))
        elif t == wire.OFPT_FEATURES_REPLY:
            if self.state == HANDSHAKE_PENDING:
                self.datapath_id = msg.body.datapath_id
                self.state = ACTIVE
                self._hs_timer.cancel()
                log.info("switch %#x active", self.datapath_id)
                self.ready.set_result(self)
        elif t == wire.OFPT_ECHO_REQUEST:
            self._send(wire.echo_reply(msg.xid, msg.body))
        elif t == wire.OFPT_ECHO_REPLY:
            entry = self._pending_echoes.pop(msg.xid, None)
            if entry is None:
                return
            if not self._pending_echoes:
                # before the callbacks, which may send the next echo
                self._echo_deadline.cancel()
                self._echo_deadline = None
            entry[1].set_result(now_us - entry[0])
        elif t == wire.OFPT_PACKET_IN:
            if self.state == ACTIVE and self.packet_in_handler is not None:
                self.packet_in_handler(msg.body.frame, now_us, msg.body.in_port)

    # -- handshake --------------------------------------------------------

    def _on_handshake_timeout(self):
        if self.state == HANDSHAKE_PENDING:
            self.close(HandshakeTimeout("no features reply within deadline"))

    # -- operations -------------------------------------------------------

    def sample_switch_rtt(self):
        """Send an echo request; the future resolves with the round trip in
        microseconds, or EchoTimeout."""
        if self.state != ACTIVE:
            raise SessionClosed("session is not active")
        xid = self._next_xid()
        fut = Future()
        t_sent = self._loop.now_us()
        self._pending_echoes[xid] = (t_sent, fut)
        if self._echo_deadline is None:
            self._echo_deadline = self._loop.call_at(
                t_sent + self._echo_timeout_us, self._expire_echoes)
        self._send(wire.echo_request(xid))
        return fut

    def _expire_echoes(self):
        """Fail every echo past its timeout, after re-arming for the oldest
        one left: a failed echo's callback may send the next."""
        pending = self._pending_echoes
        cutoff = self._loop.now_us() - self._echo_timeout_us
        failed = [(xid, fut) for xid, (t_sent, fut) in pending.items()
                  if t_sent <= cutoff]
        for xid, _fut in failed:
            del pending[xid]
        self._echo_deadline = self._loop.call_at(
            next(iter(pending.values()))[0] + self._echo_timeout_us,
            self._expire_echoes) if pending else None
        for xid, fut in failed:
            fut.set_exception(EchoTimeout("echo xid %d unanswered" % xid))

    def send_probe(self, out_port, frame):
        """Emit a dataplane frame through the switch.  Returns the send
        timestamp, taken immediately before the write."""
        if self.state != ACTIVE:
            raise SessionClosed("session is not active")
        msg = wire.packet_out(self._next_xid(), out_port, frame)
        encoded = wire.encode_message(msg)
        t_out = self._loop.now_us()
        self._conn.send(encoded)
        return t_out

    def install_reply_flows(self, probe_src_ip):
        """Steer the three reply classes addressed to the probe source back
        to the controller, at priority 100: echo replies, TTL-exceeded
        notices and identity traffic."""
        if self.state != ACTIVE:
            raise SessionClosed("session is not active")
        for icmp_type in (ICMP_ECHO_REPLY, ICMP_TIME_EXCEEDED, ICMP_ROUTER_ID):
            match = [("eth_type", 0x0800), ("ip_proto", 1),
                     ("ipv4_dst", probe_src_ip), ("icmpv4_type", icmp_type)]
            self._send(wire.flow_mod(self._next_xid(), 100, match))

    def close(self, exc=None):
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._hs_timer.cancel()
        if self._echo_deadline is not None:
            self._echo_deadline.cancel()
            self._echo_deadline = None
        pending, self._pending_echoes = self._pending_echoes, {}
        for _t_sent, fut in pending.values():
            fut.set_exception(SessionClosed("session closed"))
        if not self.ready.done():
            self.ready.set_exception(exc or SessionClosed("closed during handshake"))
        self._conn.close()
        if self.close_handler is not None:
            self.close_handler(self, exc)
