"""Switch-session state machine driven over a scripted virtual peer, plus
a switch hanging up on a live controller over TCP."""

import json
import threading
import time

import pytest

from ofprobe import netsim, transport, wire
from ofprobe.config import ControllerConfig
from ofprobe.controller import Controller
from ofprobe.engine import ProbeSettings
from ofprobe.eventloop import EventLoop, Future
from ofprobe.session import (
    ACTIVE,
    CLOSED,
    EchoTimeout,
    HANDSHAKE_PENDING,
    HandshakeFailed,
    HandshakeTimeout,
    SessionClosed,
    SwitchSession,
)


class ScriptedPeer:
    """Raw byte puppet on the far side of the control channel."""

    def __init__(self, loop, delay_us=1000, auto_echo=False):
        ctrl_end, peer_end = transport.virtual_pair(loop, lambda: delay_us)
        self._end = peer_end
        self.stream = wire.MessageStream()
        self.received = []
        self.auto_echo = auto_echo
        peer_end.set_receiver(self._on_bytes)
        self.ctrl_end = ctrl_end

    def _on_bytes(self, data):
        for msg in self.stream.feed(data):
            self.received.append(msg)
            if self.auto_echo and msg.msg_type == wire.OFPT_ECHO_REQUEST:
                self.send(wire.echo_reply(msg.xid, msg.body))

    def send(self, msg):
        self._end.send(wire.encode_message(msg))

    def send_raw(self, data):
        self._end.send(data)

    def types(self):
        return [m.msg_type for m in self.received]


def make_session(loop, auto_echo=False, **kwargs):
    peer = ScriptedPeer(loop, auto_echo=auto_echo)
    session = SwitchSession(loop, peer.ctrl_end, **kwargs)
    return session, peer


def complete_handshake(loop, session, peer, dpid=0x77):
    # Bounded windows, not run_until_idle: draining the queue here would
    # fire the handshake timer before the peer gets a chance to answer.
    loop.run_for(5000)
    peer.send(wire.hello(1))
    loop.run_for(5000)
    req = [m for m in peer.received
           if m.msg_type == wire.OFPT_FEATURES_REQUEST]
    assert req, "no features request after hello"
    peer.send(wire.features_reply(req[0].xid, dpid))
    loop.run_for(5000)


def test_handshake_reaches_active():
    loop = EventLoop()
    session, peer = make_session(loop)
    assert session.state == HANDSHAKE_PENDING
    complete_handshake(loop, session, peer, dpid=0xABCDEF)
    assert session.state == ACTIVE
    assert session.datapath_id == 0xABCDEF
    assert session.ready.done()
    assert session.ready.result(0) is session
    # hello went out first
    assert peer.types()[0] == wire.OFPT_HELLO


def test_handshake_timeout_closes_session():
    loop = EventLoop()
    session, peer = make_session(loop, handshake_timeout_us=5_000_000)
    loop.run_until_idle()
    peer.send(wire.hello(1))  # never answer the features request
    loop.run_until_idle()
    assert session.state == CLOSED
    assert loop.now_us() >= 5_000_000
    with pytest.raises(HandshakeTimeout):
        session.ready.result(0)


def test_foreign_version_aborts_session():
    loop = EventLoop()
    session, peer = make_session(loop)
    peer.send_raw(bytes.fromhex("0100000800000001"))
    loop.run_until_idle()
    assert session.state == CLOSED
    with pytest.raises(HandshakeFailed):
        session.ready.result(0)


def test_unsupported_types_are_skipped_not_fatal():
    loop = EventLoop()
    session, peer = make_session(loop)
    loop.run_for(5000)
    # type 19 (barrier reply) precedes the hello in one segment
    import struct
    alien = struct.pack("!BBHI", 4, 19, 8, 5)
    peer.send_raw(alien + wire.encode_message(wire.hello(1)))
    loop.run_for(5000)
    assert session.state == HANDSHAKE_PENDING
    assert any(m.msg_type == wire.OFPT_FEATURES_REQUEST
               for m in peer.received)


def test_echo_sampling_measures_round_trip():
    loop = EventLoop()
    session, peer = make_session(loop, auto_echo=True)  # 1 ms each way
    complete_handshake(loop, session, peer)
    fut = session.sample_switch_rtt()
    loop.run_until_idle()
    assert fut.result(0) == 2000


def test_echo_timeout():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    fut = session.sample_switch_rtt()
    loop.run_until_idle()
    with pytest.raises(EchoTimeout):
        fut.result(0)


def test_unmatched_echo_reply_ignored():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    fut = session.sample_switch_rtt()
    peer.send(wire.echo_reply(0xDEAD))  # stray xid
    loop.run_for(10_000)
    assert not fut.done()


def test_session_answers_peer_echo():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    peer.send(wire.echo_request(88, b"keepalive"))
    loop.run_until_idle()
    replies = [m for m in peer.received if m.msg_type == wire.OFPT_ECHO_REPLY]
    assert replies and replies[-1].xid == 88
    assert replies[-1].body == b"keepalive"


def test_send_probe_returns_monotonic_stamps():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    t1 = session.send_probe(1, b"\x00" * 60)
    t2 = session.send_probe(1, b"\x00" * 60)
    assert t2 >= t1
    loop.run_until_idle()
    outs = [m for m in peer.received if m.msg_type == wire.OFPT_PACKET_OUT]
    assert len(outs) == 2
    assert outs[0].body.actions[0].port == 1


def test_packet_in_handler_gets_frame_time_port():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    seen = []
    session.packet_in_handler = lambda frame, t, port: seen.append(
        (bytes(frame), t, port))
    peer.send(wire.packet_in(9, 3, b"\xaa" * 30))
    loop.run_until_idle()
    assert seen == [(b"\xaa" * 30, loop.now_us(), 3)]


def test_install_reply_flows_covers_reply_types():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    session.install_reply_flows("10.0.0.100", priority=77)
    loop.run_until_idle()
    mods = [m for m in peer.received if m.msg_type == wire.OFPT_FLOW_MOD]
    assert len(mods) == 3
    types = sorted(dict(m.body.match)["icmpv4_type"] for m in mods)
    assert types == [0, 11, 200]
    for m in mods:
        match = dict(m.body.match)
        assert match["eth_type"] == 0x0800
        assert match["ip_proto"] == 1
        assert match["ipv4_dst"] == "10.0.0.100"
        assert m.body.priority == 77
        assert m.body.out_port == wire.PORT_CONTROLLER


def test_operations_refused_before_active_and_after_close():
    loop = EventLoop()
    session, peer = make_session(loop)
    with pytest.raises(SessionClosed):
        session.send_probe(1, b"")
    with pytest.raises(SessionClosed):
        session.sample_switch_rtt()
    complete_handshake(loop, session, peer)
    fut = session.sample_switch_rtt()
    session.close()
    assert session.state == CLOSED
    with pytest.raises(SessionClosed):
        fut.result(0)
    with pytest.raises(SessionClosed):
        session.send_probe(1, b"")


def test_peer_hang_up_closes_the_session():
    loop = EventLoop()
    session, peer = make_session(loop)
    complete_handshake(loop, session, peer)
    calls = []
    session.close_handler = lambda s, exc: calls.append(exc)
    fut = session.sample_switch_rtt()
    peer._end.close()
    loop.run_until_idle()
    assert session.state == CLOSED
    assert [type(exc) for exc in calls] == [SessionClosed]
    with pytest.raises(SessionClosed):
        fut.result(0)


def test_close_handler_fires_once():
    loop = EventLoop()
    session, peer = make_session(loop)
    calls = []
    session.close_handler = lambda s, exc: calls.append(exc)
    session.close()
    session.close()
    assert len(calls) == 1


# -- realtime ------------------------------------------------------------------


def on_loop(loop, fn):
    fut = Future()
    loop.call_threadsafe(lambda: fut.set_result(fn()))
    return fut.result(timeout=5)


def wait_for(loop, predicate):
    deadline = time.monotonic() + 10
    while not on_loop(loop, predicate):
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def test_switch_hang_up_over_tcp_keeps_the_controller_loop():
    topo = netsim.parse_topology(
        "simtopo v1\ndpid 0x1\nports 1\nseed 5\n"
        "target 192.0.2.1 rtt 20ms\n")
    ctrl_loop = EventLoop(realtime=True)
    ctrl = Controller(ctrl_loop, ControllerConfig(
        openflow_host="127.0.0.1", openflow_port=0, api_host="127.0.0.1",
        api_port=0, probe=ProbeSettings(probe_timeout_us=300_000)))
    ctrl.start()
    ctrl_thread = threading.Thread(target=ctrl_loop.run_forever, daemon=True)
    ctrl_thread.start()
    sw_loop = EventLoop(realtime=True)
    switch = netsim.run_sim_switch(
        sw_loop, topo, controller="127.0.0.1:%d" % ctrl.openflow_port)
    sw_thread = threading.Thread(target=sw_loop.run_forever, daemon=True)
    sw_thread.start()
    engine = ctrl.engine
    try:
        wait_for(ctrl_loop, engine.session_active)
        session = engine.session
        body = json.dumps({"tgt": "192.0.2.1", "num": 5,
                           "gap_us": 200_000}).encode()
        status, payload = on_loop(
            ctrl_loop, lambda: ctrl.app.dispatch("PUT", "/ping", body))
        assert status == 200
        task = engine.pings[payload["icmp_id"]]
        wait_for(ctrl_loop, lambda: len(task.records) >= 1)
        sw_loop.call_threadsafe(switch.close)
        wait_for(ctrl_loop, lambda: not engine.session_active())
        assert session.state == CLOSED
        wait_for(ctrl_loop, lambda: task.done)  # later emissions skipped
        assert len(task.records) < 5
        status, payload = on_loop(
            ctrl_loop, lambda: ctrl.app.dispatch("PUT", "/ping", body))
        assert (status, payload["code"]) == (503, "no_session")
        assert on_loop(ctrl_loop, lambda: engine.allocator.in_use) == 1
        assert ctrl_thread.is_alive()
    finally:
        ctrl_loop.call_threadsafe(ctrl.shutdown)
        ctrl_loop.call_threadsafe(ctrl_loop.stop)
        sw_loop.call_threadsafe(switch.close)
        sw_loop.call_threadsafe(sw_loop.stop)
        ctrl_thread.join(timeout=5)
        sw_thread.join(timeout=5)
        ctrl_loop.close()
        sw_loop.close()
