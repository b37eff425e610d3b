"""Delay models, topology documents, and switch emulation."""

import random
import socket

import pytest
from hypothesis import given, strategies as st

from ofprobe import frames, netsim, transport, wire
from ofprobe.eventloop import EventLoop
from ofprobe.report import truth_map
from helpers import VirtualStack, make_topology
from test_wire import flow_mod_naming

PROBE_KW = dict(src_ip="10.0.0.100", src_mac="02:00:00:00:00:64",
                dst_mac="02:00:00:00:00:01")


def echo_frame(dst_ip, ttl=64, icmp_id=1, seq=0):
    return frames.build_echo_request(
        dst_ip=dst_ip, icmp_id=icmp_id, icmp_seq=seq, ttl=ttl, **PROBE_KW)


# -- durations and delay models ------------------------------------------------


@pytest.mark.parametrize("text,us", [
    ("17us", 17), ("1.5ms", 1500), ("2s", 2_000_000), ("0.5ms", 500),
    ("100ms", 100_000),
])
def test_duration_parsing(text, us):
    assert netsim.parse_duration_us(text) == us


@pytest.mark.parametrize("bad", ["", "5", "5m", "ms", "-3ms", "1.5.2ms"])
def test_duration_rejects_garbage(bad):
    with pytest.raises(netsim.TopologyError):
        netsim.parse_duration_us(bad)


def test_duration_formatting_round_trips():
    for us in (17, 1500, 2_000_000, 999, 1000, 60_000_000):
        assert netsim.parse_duration_us(netsim.format_duration_us(us)) == us


def test_constant_delay():
    model = netsim.ConstantDelay(2500)
    assert model.sample(random.Random(0)) == 2500
    assert model.spec() == "constant 2500us"


def test_uniform_delay_stays_in_bounds():
    model = netsim.UniformDelay(1500, 2000)
    rng = random.Random(7)
    samples = [model.sample(rng) for _ in range(1000)]
    assert all(1500 <= s <= 2000 for s in samples)
    assert min(samples) < 1600 and max(samples) > 1900


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(netsim.TopologyError):
        netsim.MixtureDelay([(0.5, netsim.ConstantDelay(1)),
                             (0.4, netsim.ConstantDelay(2))])


def test_mixture_component_fractions():
    model = netsim.MixtureDelay([
        (0.97, netsim.UniformDelay(1500, 2000)),
        (0.02, netsim.ConstantDelay(23_000)),
        (0.01, netsim.ConstantDelay(50_000)),
    ])
    rng = random.Random(42)
    n = 20_000
    samples = [model.sample(rng) for _ in range(n)]
    in_band = sum(1 for s in samples if 1500 <= s <= 2000) / n
    assert abs(in_band - 0.97) < 0.01
    assert {23_000, 50_000} <= set(samples)


@pytest.mark.parametrize("spec", [
    "constant 5ms",
    "uniform 1.5ms 2ms",
    "mixture 0.97 uniform 1.5ms 2ms / 0.02 constant 23ms / 0.01 constant 50ms",
])
def test_delay_spec_round_trip(spec):
    model = netsim.parse_delay_model(spec)
    again = netsim.parse_delay_model(model.spec())
    rng1, rng2 = random.Random(3), random.Random(3)
    assert [model.sample(rng1) for _ in range(200)] \
        == [again.sample(rng2) for _ in range(200)]


def test_delay_model_rejects_garbage():
    for bad in ("", "gaussian 1ms 2ms", "uniform 1ms", "uniform 2ms 1ms",
                "mixture 0.97 uniform 1.5ms"):
        with pytest.raises(netsim.TopologyError):
            netsim.parse_delay_model(bad)


def test_default_profiles_have_documented_shape():
    rng = random.Random(1)
    out = [netsim.default_pktout_delay().sample(rng) for _ in range(20_000)]
    frac = sum(1 for s in out if 1500 <= s <= 2000) / len(out)
    assert abs(frac - 0.97) < 0.01
    rng = random.Random(2)
    inn = [netsim.default_pktin_delay().sample(rng) for _ in range(20_000)]
    frac = sum(1 for s in inn if s <= 1000) / len(inn)
    assert abs(frac - 0.95) < 0.01
    assert max(inn) <= 3000


# -- topology documents -------------------------------------------------------

TOPOLOGY_DOC = """\
# two targets behind one switch
simtopo v1
dpid 0x2a
ports 1 2
seed 99
control_link uniform 4ms 8ms
pktout_delay constant 2ms
pktin_delay constant 0.5ms
bundle_penalty 17us
target 192.0.2.1 rtt 20ms
target 192.0.2.9 rtt 40ms loss 0.25 hops 10.1.0.1:2ms,10.1.0.2:5ms
target 192.0.2.66 rtt 50ms respond no
router_id_host 192.0.2.9 asn 65001 ident core-rtr-1 rtt 40ms
"""


def test_parse_topology_document():
    topo = netsim.parse_topology(TOPOLOGY_DOC)
    assert topo.dpid == 0x2A
    assert topo.ports == [1, 2]
    assert topo.seed == 99
    assert isinstance(topo.control_link, netsim.UniformDelay)
    assert topo.pktout_delay.us == 2000
    assert topo.bundle_penalty_us == 17
    assert topo.targets["192.0.2.1"].base_rtt_us == 20_000
    t9 = topo.targets["192.0.2.9"]
    assert t9.loss_prob == 0.25
    assert t9.hops == [("10.1.0.1", 2000), ("10.1.0.2", 5000)]
    assert not topo.targets["192.0.2.66"].responds
    host = topo.router_id_hosts["192.0.2.9"]
    assert host.identity == frames.RouterIdentity(65001, "core-rtr-1")
    assert host.rtt_us == 40_000


def test_topology_format_round_trips():
    topo = netsim.parse_topology(TOPOLOGY_DOC)
    again = netsim.parse_topology(netsim.format_topology(topo))
    assert netsim.format_topology(again) == netsim.format_topology(topo)


@pytest.mark.parametrize("doc", [
    "",
    "dpid 1",
    "simtopo v2\n",
    "simtopo v1\nflux capacitor\n",
    "simtopo v1\ntarget 192.0.2.1\n",
    "simtopo v1\ntarget 192.0.2.1 rtt 1ms loss 1.5\n",
    # hop round trips exceeding the base RTT are unsatisfiable
    "simtopo v1\ntarget 192.0.2.1 rtt 10ms hops 10.0.0.1:6ms\n",
])
def test_topology_rejects_bad_documents(doc):
    with pytest.raises(netsim.TopologyError):
        netsim.parse_topology(doc)


def test_ground_truth_lookup():
    topo = netsim.parse_topology(TOPOLOGY_DOC)
    truth = truth_map(topo)
    assert truth["192.0.2.1"] == 20_000
    assert "198.18.0.1" not in truth


def test_load_topology(tmp_path):
    path = tmp_path / "net.topo"
    path.write_text(TOPOLOGY_DOC)
    assert netsim.load_topology(str(path)).dpid == 0x2A


# -- dataplane rules ----------------------------------------------------------


def make_dataplane_topo():
    topo = make_topology()
    topo.targets["192.0.2.9"] = netsim.TargetSpec(
        base_rtt_us=40_000,
        hops=[("10.1.0.1", 2000), ("10.1.0.2", 5000)])
    topo.targets["192.0.2.66"] = netsim.TargetSpec(base_rtt_us=50_000,
                                                   responds=False)
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    return topo.validate()


def test_dataplane_echo_after_base_rtt():
    topo = make_dataplane_topo()
    out = netsim.dataplane_process(topo, echo_frame("192.0.2.9"), 1000,
                                   random.Random(0))
    assert len(out) == 1
    reply, at = out[0]
    assert at == 1000 + 40_000
    parsed = frames.parse_reply(reply)
    assert parsed.kind == frames.ReplyKind.ECHO_REPLY
    assert parsed.responder_ip == "192.0.2.9"


def test_dataplane_ttl_expiry_at_each_hop():
    topo = make_dataplane_topo()
    for ttl, (router, delay_sum) in enumerate(
            [("10.1.0.1", 2000), ("10.1.0.2", 7000)], start=1):
        out = netsim.dataplane_process(topo, echo_frame("192.0.2.9", ttl=ttl),
                                       0, random.Random(0))
        reply, at = out[0]
        assert at == 2 * delay_sum
        parsed = frames.parse_reply(reply)
        assert parsed.kind == frames.ReplyKind.TIME_EXCEEDED
        assert parsed.responder_ip == router


def test_dataplane_ttl_past_hops_reaches_target():
    topo = make_dataplane_topo()
    out = netsim.dataplane_process(topo, echo_frame("192.0.2.9", ttl=3), 0,
                                   random.Random(0))
    assert frames.parse_reply(out[0][0]).kind == frames.ReplyKind.ECHO_REPLY


def test_dataplane_silent_target_and_unknown_address():
    topo = make_dataplane_topo()
    assert netsim.dataplane_process(topo, echo_frame("192.0.2.66"), 0,
                                    random.Random(0)) == []
    assert netsim.dataplane_process(topo, echo_frame("198.18.7.7"), 0,
                                    random.Random(0)) == []


def test_dataplane_loss_is_bernoulli_per_probe():
    topo = make_dataplane_topo()
    topo.targets["192.0.2.9"].loss_prob = 0.5
    rng = random.Random(123)
    answered = sum(
        bool(netsim.dataplane_process(topo, echo_frame("192.0.2.9"), 0, rng))
        for _ in range(2000))
    assert 900 < answered < 1100


def test_dataplane_arp_sinks_silently():
    topo = make_dataplane_topo()
    arp = frames.build_gratuitous_arp("10.0.0.100", "02:00:00:00:00:64")
    assert netsim.dataplane_process(topo, arp, 0, random.Random(0)) == []


def test_dataplane_identity_host_answers():
    topo = make_dataplane_topo()
    query = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="203.0.113.5",
        src_mac="02:00:00:00:00:64", dst_mac="02:00:00:00:00:01", icmp_id=5,
        icmp_type=frames.ICMP_ROUTER_ID)
    out = netsim.dataplane_process(topo, query, 100, random.Random(0))
    reply, at = out[0]
    assert at == 100 + 9000
    parsed = frames.parse_reply(reply)
    assert parsed.kind == frames.ReplyKind.ROUTER_ID_REPLY
    assert frames.decode_router_identity(parsed.payload).ident == "core-rtr-1"


# -- switch emulation ----------------------------------------------------------


class SwitchHarness:
    """A scripted controller side for driving SimSwitch directly."""

    def __init__(self, topology):
        self.loop = EventLoop()
        ctrl_end, sw_end = transport.virtual_pair(self.loop, lambda: 1000)
        self.conn = ctrl_end
        self.stream = wire.MessageStream()
        self.received = []
        ctrl_end.set_receiver(
            lambda data: self.received.extend(self.stream.feed(data)))
        self.switch = netsim.SimSwitch(self.loop, topology)
        self.switch.attach(sw_end)
        self.loop.run_until_idle()

    def send(self, *msgs):
        for msg in msgs:
            self.conn.send(wire.encode_message(msg))

    def packet_ins(self):
        return [m for m in self.received
                if m.msg_type == wire.OFPT_PACKET_IN]


def reply_flows(priority=100):
    out = []
    for icmp_type in (0, 11, 200):
        out.append(wire.flow_mod(icmp_type + 1, priority, [
            ("eth_type", 0x0800), ("ip_proto", 1),
            ("ipv4_dst", "10.0.0.100"), ("icmpv4_type", icmp_type)]))
    return out


def test_switch_answers_handshake():
    topo = make_topology(dpid=0xBEE)
    h = SwitchHarness(topo)
    h.send(wire.hello(1), wire.features_request(2))
    h.loop.run_until_idle()
    types = [m.msg_type for m in h.received]
    assert types[0] == wire.OFPT_HELLO
    reply = [m for m in h.received
             if m.msg_type == wire.OFPT_FEATURES_REPLY][0]
    assert reply.body == 0xBEE
    assert reply.xid == 2


def test_foreign_openflow_version_closes_the_connection():
    h = SwitchHarness(make_topology())
    h.conn.send(bytes.fromhex("0100000800000001"))  # an OpenFlow 1.0 HELLO
    h.loop.run_until_idle()
    assert h.switch._conn.closed
    received = len(h.received)
    h.send(wire.echo_request(7))
    h.loop.run_until_idle()
    assert len(h.received) == received


def test_controller_hang_up_closes_the_switch_end():
    h = SwitchHarness(make_topology())
    h.conn.close()
    h.loop.run_until_idle()
    assert h.switch._conn.closed


def test_a_flow_mod_that_repeats_a_field_is_skipped():
    h = SwitchHarness(make_topology())
    h.conn.send(flow_mod_naming(3, 10))  # icmpv4_type -> a second ip_proto
    h.send(wire.echo_request(7))
    h.loop.run_until_idle()
    assert (h.switch.flow_rules, h.switch._framer.skipped) == ([], 1)
    assert [m.xid for m in h.received
            if m.msg_type == wire.OFPT_ECHO_REPLY] == [7]


def test_switch_echo_reply_mirrors_payload():
    h = SwitchHarness(make_topology())
    h.send(wire.echo_request(7, b"x" * 12))
    h.loop.run_until_idle()
    echo = [m for m in h.received if m.msg_type == wire.OFPT_ECHO_REPLY][0]
    assert echo.xid == 7 and echo.body == b"x" * 12


def test_probe_emission_and_packet_in_timing():
    topo = make_topology()  # pktout 2ms, pktin 0.5ms constant
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    h = SwitchHarness(topo)
    h.send(*reply_flows())
    h.loop.run_until_idle()
    t_send = h.loop.now_us()
    h.send(wire.packet_out(50, 1, echo_frame("192.0.2.1")))
    h.loop.run_until_idle()
    pins = h.packet_ins()
    assert len(pins) == 1
    assert pins[0].body.in_port == 1
    parsed = frames.parse_reply(pins[0].body.frame)
    assert parsed.kind == frames.ReplyKind.ECHO_REPLY
    # arrival 1ms after send, emit +2ms, rtt 20ms, pktin +0.5ms, back 1ms
    assert h.loop.now_us() == t_send + 1000 + 2000 + 20_000 + 500 + 1000
    out_d, in_d, reorder = h.switch.processing_delays()
    assert out_d == [2000]
    assert in_d == [500]
    assert reorder == 0


def test_unmatched_frames_counted_not_forwarded():
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    h = SwitchHarness(topo)  # no flows installed
    h.send(wire.packet_out(50, 1, echo_frame("192.0.2.1")))
    h.loop.run_until_idle()
    assert h.packet_ins() == []
    assert h.switch.counters["unmatched_frames"] == 1


def test_flow_match_prefers_priority_then_recency():
    topo = make_topology()
    h = SwitchHarness(topo)
    base = [("eth_type", 0x0800), ("ip_proto", 1), ("ipv4_dst", "10.0.0.100")]
    h.send(wire.flow_mod(1, 10, base),
           wire.flow_mod(2, 200, base + [("icmpv4_type", 0)]),
           wire.flow_mod(3, 200, base + [("icmpv4_type", 0)]),
           wire.flow_mod(4, 50, base))
    h.loop.run_until_idle()
    # a reply mirrors the probe, so it lands on the probe source address
    reply = frames.build_echo_reply(frames.parse_icmp(echo_frame("192.0.2.50")))
    winner = h.switch._best_match(reply)
    assert winner.priority == 200
    assert winner.seqno == 3


def test_flow_match_misses_on_any_field():
    topo = make_topology()
    h = SwitchHarness(topo)
    h.send(*reply_flows())
    h.loop.run_until_idle()
    # right type, wrong destination: probe sourced from a foreign address
    stray = frames.build_echo_reply(frames.parse_icmp(
        frames.build_echo_request(
            dst_ip="192.0.2.50", icmp_id=1, icmp_seq=0,
            src_ip="10.0.0.200", src_mac="02:aa:aa:aa:aa:aa",
            dst_mac="02:00:00:00:00:64")))
    assert h.switch._best_match(stray) is None
    # and the probe request itself (type 8) never matches reply flows
    assert h.switch._best_match(echo_frame("192.0.2.50")) is None


def test_bundled_packet_outs_pay_the_penalty():
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    h = SwitchHarness(topo)
    h.send(*reply_flows())
    h.loop.run_until_idle()
    # two PacketOut messages in one send call share a segment
    h.send(wire.packet_out(60, 1, echo_frame("192.0.2.1", icmp_id=1)),
           wire.packet_out(61, 1, echo_frame("192.0.2.1", icmp_id=2)))
    h.loop.run_until_idle()
    out_d, _in_d, _ = h.switch.processing_delays()
    assert out_d == [2017, 2017]

    h.send(wire.packet_out(62, 1, echo_frame("192.0.2.1", icmp_id=3)))
    h.loop.run_until_idle()
    assert h.switch.processing_delays()[0] == [2017, 2017, 2000]


def test_emission_never_reorders_under_jitter():
    topo = make_topology(
        pktout_delay=netsim.MixtureDelay([
            (0.5, netsim.ConstantDelay(1000)),
            (0.5, netsim.ConstantDelay(30_000)),
        ]),
        seed=5)
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    h = SwitchHarness(topo)
    h.send(*reply_flows())
    h.loop.run_until_idle()
    for i in range(40):
        h.send(wire.packet_out(100 + i, 1,
                               echo_frame("192.0.2.1", icmp_id=i)))
        h.loop.run_for(200)
    h.loop.run_until_idle()
    emits = [t for kind, t, _i in h.switch.events if kind == "probe_emit"]
    assert len(emits) == 40
    assert emits == sorted(emits)
    assert h.switch.processing_delays()[2] == 0


def test_switch_run_is_reproducible_for_a_seed():
    def run_once():
        topo = make_topology(
            pktout_delay=netsim.default_pktout_delay(),
            pktin_delay=netsim.default_pktin_delay(),
            seed=21)
        topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
        stack = VirtualStack(topo)
        for _ in range(3):
            stack.run_ping("192.0.2.1", 5)
        return stack.switch.events

    assert run_once() == run_once()


def test_event_log_file_round_trip(tmp_path):
    path = tmp_path / "events.csv"
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    stack = VirtualStack(topo, event_log_path=str(path))
    stack.run_ping("192.0.2.1", 4)
    stack.switch.close()
    assert netsim.load_event_log(str(path)) == stack.switch.events
    with pytest.raises(netsim.TopologyError):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        netsim.load_event_log(str(bad))


def test_run_sim_switch_needs_an_endpoint(tmp_path):
    """A dial that fails leaves no event log behind, open or on disk."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    path = tmp_path / "events.csv"
    with pytest.raises(OSError):
        netsim.run_sim_switch(EventLoop(), make_topology(),
                              "127.0.0.1:%d" % port, event_log_path=str(path))
    assert not path.exists()
