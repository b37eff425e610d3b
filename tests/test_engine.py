"""Measurement engine: estimator math, id space, task lifecycles."""

import pytest
from hypothesis import given, strategies as st

from ofprobe import frames, netsim, transport, wire
from ofprobe.api import render_json
from ofprobe.engine import (
    ID_SPACE,
    IdAllocator,
    MeasurementEngine,
    NoActiveSession,
    ProbeSettings,
    RttEstimator,
    StateFull,
    corrected_rtt,
)
from ofprobe.eventloop import EventLoop, Future
from ofprobe.session import ACTIVE, EchoTimeout, SessionClosed, SwitchSession
from helpers import VirtualStack, make_topology


# -- EWMA ---------------------------------------------------------------------


def test_first_sample_becomes_the_estimate():
    est = RttEstimator(alpha=0.5)
    assert est.current is None
    assert est.update(10_000) == 10_000
    assert est.sample_count == 1


def test_ewma_folds_half_and_half():
    est = RttEstimator(alpha=0.5)
    est.update(10.0)
    assert est.update(20.0) == 15.0


def test_ewma_known_sequence():
    # 8, 8, 8, 40 at alpha 0.5 folds to 24
    est = RttEstimator(alpha=0.5)
    for s in (8, 8, 8, 40):
        est.update(s)
    assert est.current == 24.0


def test_alpha_one_tracks_last_sample():
    est = RttEstimator(alpha=1.0)
    est.update(5)
    est.update(900)
    assert est.current == 900


def test_alpha_validation():
    with pytest.raises(ValueError):
        RttEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        RttEstimator(alpha=1.5)
    with pytest.raises(ValueError):
        RttEstimator(alpha=-0.1)


def test_negative_sample_rejected():
    est = RttEstimator()
    with pytest.raises(ValueError):
        est.update(-1)


@given(st.floats(0.01, 1.0),
       st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
def test_estimate_stays_inside_sample_hull(alpha, samples):
    est = RttEstimator(alpha=alpha)
    for s in samples:
        before = est.current
        after = est.update(s)
        if before is not None:
            # each update lands between the old estimate and the sample
            lo, hi = min(before, s), max(before, s)
            assert lo - 1e-6 <= after <= hi + 1e-6
    assert min(samples) - 1e-6 <= est.current <= max(samples) + 1e-6


def test_corrected_rtt_clamps_at_zero():
    assert corrected_rtt(1000, 1500, 300.0) == 200.0
    assert corrected_rtt(1000, 1500, 800.0) == 0.0
    assert corrected_rtt(1000, None, 0) is None


# -- id allocation ---------------------------------------------------------------


def test_ids_are_sequential_and_wrap():
    alloc = IdAllocator()
    assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]
    alloc.release(1)
    # the scan keeps moving forward instead of reusing 1 immediately
    assert alloc.allocate() == 3


def test_id_exhaustion_raises_state_full():
    alloc = IdAllocator()
    for _ in range(ID_SPACE):
        alloc.allocate()
    assert alloc.in_use == ID_SPACE
    with pytest.raises(StateFull):
        alloc.allocate()
    alloc.release(123)
    assert alloc.allocate() == 123


@given(st.lists(st.integers(0, ID_SPACE - 1), max_size=50))
def test_allocator_never_hands_out_a_live_id(releases):
    alloc = IdAllocator()
    live = {alloc.allocate() for _ in range(100)}
    for icmp_id in releases:
        alloc.release(icmp_id)
        live.discard(icmp_id)
    for _ in range(50):
        new = alloc.allocate()
        assert new not in live
        live.add(new)


# -- ping over the virtual stack ---------------------------------------------------


def ping_topo(**target_kw):
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000,
                                                  **target_kw)
    return topo


def test_ping_dump_shape_and_correction():
    stack = VirtualStack(ping_topo())
    entry = stack.run_ping("192.0.2.1", 3, payload=b"xyz")
    assert entry["tgt"] == "192.0.2.1"
    assert entry["rtt_cs_us"] == 10_000.0  # 5 ms control link each way
    assert len(entry["probes"]) == 3
    for t_out, t_in, responder in entry["probes"]:
        assert responder == "192.0.2.1"
        corrected = (t_in - t_out) - entry["rtt_cs_us"]
        # truth 20 ms plus switch processing (2 ms + 17 us bundled + 0.5 ms)
        assert corrected == pytest.approx(22_517, abs=1)


def test_single_probe_has_no_bundle_penalty():
    stack = VirtualStack(ping_topo())
    entry = stack.run_ping("192.0.2.1", 1)
    t_out, t_in, _ = entry["probes"][0]
    assert (t_in - t_out) - entry["rtt_cs_us"] == 22_500


def test_gap_paces_probe_emission():
    stack = VirtualStack(ping_topo())
    entry = stack.run_ping("192.0.2.1", 4, gap_us=50_000)
    outs = [p[0] for p in entry["probes"]]
    assert [b - a for a, b in zip(outs, outs[1:])] == [50_000] * 3


def test_silent_target_leaves_unanswered_records():
    stack = VirtualStack(ping_topo(responds=False))
    entry = stack.run_ping("192.0.2.1", 2)
    assert [p[1] for p in entry["probes"]] == [None, None]
    assert [p[2] for p in entry["probes"]] == [None, None]
    assert stack.loop.now_us() >= 3_000_000  # expiry timers ran


def test_estimator_feeds_from_task_start():
    stack = VirtualStack(ping_topo())
    assert stack.engine.estimator.current is None
    stack.run_ping("192.0.2.1", 1)
    assert stack.engine.estimator.current == 10_000.0
    assert stack.engine.estimator.sample_count == 1
    stack.run_ping("192.0.2.1", 1)
    assert stack.engine.estimator.sample_count == 2


def test_duplicate_reply_first_wins():
    stack = VirtualStack(ping_topo(responds=False))
    icmp_id = stack.engine.start_ping("192.0.2.1", 1)
    stack.loop.run_for(40_000)  # probe emitted, no answer coming
    # replies mirror src/dst, so source the request from the engine side
    request = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="192.0.2.1",
        src_mac="02:00:00:00:00:64", dst_mac="02:bb:bb:bb:bb:bb",
        icmp_id=icmp_id, icmp_seq=0)
    # two identical answers injected at the switch port
    reply = frames.build_echo_reply(frames.parse_icmp(request))
    stack.switch.receive_dataplane(reply, 1)
    stack.loop.run_for(10_000)
    first_t_in = stack.engine.dump_ping()[str(icmp_id)]["probes"][0][1]
    stack.switch.receive_dataplane(reply, 1)
    stack.loop.run_until_idle()
    entry = stack.engine.dump_ping()[str(icmp_id)]
    assert entry["probes"][0][1] == first_t_in
    assert stack.engine.counters["duplicate_replies"] == 1


def test_reply_after_expiry_is_late():
    stack = VirtualStack(ping_topo(responds=False))
    icmp_id = stack.engine.start_ping("192.0.2.1", 1)
    stack.loop.run_for(3_500_000)  # past the 3 s probe timeout
    request = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="192.0.2.1",
        src_mac="02:00:00:00:00:64", dst_mac="02:bb:bb:bb:bb:bb",
        icmp_id=icmp_id, icmp_seq=0)
    stack.switch.receive_dataplane(
        frames.build_echo_reply(frames.parse_icmp(request)), 1)
    stack.loop.run_until_idle()
    entry = stack.engine.dump_ping()[str(icmp_id)]
    assert entry["probes"][0][1] is None
    assert stack.engine.counters["late_replies"] == 1


def test_unknown_reply_counted():
    stack = VirtualStack(ping_topo())
    stack.run_ping("192.0.2.1", 1)
    request = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="192.0.2.1",
        src_mac="02:00:00:00:00:64", dst_mac="02:bb:bb:bb:bb:bb",
        icmp_id=60_000, icmp_seq=4)
    stack.switch.receive_dataplane(
        frames.build_echo_reply(frames.parse_icmp(request)), 1)
    stack.loop.run_until_idle()
    assert stack.engine.counters["unknown_replies"] == 1


def test_ping_validation():
    stack = VirtualStack(ping_topo())
    with pytest.raises(ValueError):
        stack.engine.start_ping("192.0.2.1", 0)
    with pytest.raises(ValueError):
        stack.engine.start_ping("192.0.2.1", 65_536)


def test_no_session_refused():
    engine = MeasurementEngine(EventLoop(), ProbeSettings())
    with pytest.raises(NoActiveSession):
        engine.start_ping("192.0.2.1", 1)
    with pytest.raises(NoActiveSession):
        engine.start_traceroute("192.0.2.1")


@pytest.mark.parametrize("start", [
    lambda engine: engine.start_ping("not-an-ip", 1),
    lambda engine: engine.start_ping(None, 1),
    lambda engine: engine.start_traceroute("not-an-ip"),
    lambda engine: engine.start_router_id_query("not-an-ip"),
    # inet_aton reads each of these as some address, but the dump would
    # name the text as sent, not the address probed
    lambda engine: engine.start_ping("10.0.0.010", 1),
    lambda engine: engine.start_ping("10.0.0.0x10", 1),
    lambda engine: engine.start_traceroute("10.0.0.8\n"),
    lambda engine: engine.start_router_id_query("1.2.3.4 junk"),
], ids=["ping", "ping_none", "traceroute", "router_id_query", "octal",
        "hex", "newline", "junk"])
def test_bad_target_is_refused_before_an_id_is_taken(start):
    stack = VirtualStack(ping_topo())
    with pytest.raises(wire.UnencodableMessage):
        start(stack.engine)
    assert stack.engine.allocator.in_use == 0
    assert stack.engine.dump_ping() == {}
    assert stack.engine.dump_traceroute() == {}
    stack.loop.run_until_idle()  # nothing was scheduled that could raise
    assert stack.engine.start_ping("192.0.2.1", 1) == 0
    stack.loop.run_until_idle()
    assert stack.engine.dump_ping()["0"]["probes"][0][2] == "192.0.2.1"


@pytest.mark.parametrize("kwargs", [
    {"out_port": -1}, {"out_port": "1"}, {"out_port": 1 << 32},
    {"gap_us": -1}, {"gap_us": "5"}, {"gap_us": 2.5},
], ids=["port_negative", "port_text", "port_wide", "gap_negative",
        "gap_text", "gap_float"])
def test_bad_out_port_or_gap_is_refused_before_an_id_is_taken(kwargs):
    stack = VirtualStack(ping_topo())
    for start in (lambda: stack.engine.start_ping("192.0.2.1", 2, **kwargs),
                  lambda: stack.engine.start_traceroute("192.0.2.1",
                                                        **kwargs)):
        with pytest.raises(ValueError):
            start()
    assert stack.engine.allocator.in_use == 0
    assert stack.engine.dump_ping() == {}
    assert stack.engine.dump_traceroute() == {}
    stack.loop.run_until_idle()
    assert stack.engine.start_ping("192.0.2.1", 1) == 0
    stack.loop.run_until_idle()


def test_clear_releases_ids_and_empties_dump():
    stack = VirtualStack(ping_topo())
    for _ in range(5):
        stack.run_ping("192.0.2.1", 1)
    assert stack.engine.allocator.in_use == 5
    stack.engine.clear_ping()
    assert stack.engine.allocator.in_use == 0
    assert stack.engine.dump_ping() == {}
    # ids become reusable
    assert stack.engine.start_ping("192.0.2.1", 1) == 5
    stack.loop.run_until_idle()


# -- expiry deadline -------------------------------------------------------------


def count_expiry_timers(stack):
    """Wrap the loop's call_at so every timer aimed at the engine is
    recorded."""
    armed = []
    call_at = stack.loop.call_at

    def counting(when_us, fn, *args):
        if getattr(fn, "__self__", None) is stack.engine:
            armed.append(when_us)
        return call_at(when_us, fn, *args)

    stack.loop.call_at = counting
    return armed


def echo_reply_for(icmp_id, seq):
    request = frames.build_echo_request(
        src_ip="10.0.0.100", dst_ip="192.0.2.1",
        src_mac="02:00:00:00:00:64", dst_mac="02:bb:bb:bb:bb:bb",
        icmp_id=icmp_id, icmp_seq=seq)
    return frames.build_echo_reply(frames.parse_icmp(request))


@pytest.mark.parametrize("target", ["192.0.2.9", "192.0.2.66"])
def test_back_to_back_traceroute_arms_one_expiry_timer(target):
    stack = VirtualStack(trace_topo())
    armed = count_expiry_timers(stack)
    stack.run_traceroute(target, probes_per_ttl=3)
    assert armed == [armed[0]]


def test_spaced_silent_probes_expire_at_their_own_timeout():
    stack = VirtualStack(ping_topo(responds=False))
    timeout = stack.engine.settings.probe_timeout_us
    icmp_id = stack.engine.start_ping("192.0.2.1", 4, gap_us=700_000)
    task = stack.engine.pings[icmp_id]
    stack.loop.run_for(3 * 700_000 + 100_000)  # every probe is out
    for seq in range(4):
        record = task.records[seq]
        stack.loop.run_until(lambda: record.expired)
        assert stack.loop.now_us() == record.t_out + timeout
        if seq < 3:
            assert not task.records[seq + 1].expired
    stack.switch.receive_dataplane(echo_reply_for(icmp_id, 3), 1)
    stack.loop.run_until_idle()
    assert stack.engine.counters["late_replies"] == 1
    assert stack.engine.dump_ping()[str(icmp_id)]["probes"][3][1] is None


def test_answered_task_drains_at_its_last_reply():
    stack = VirtualStack(ping_topo())
    icmp_id = stack.engine.start_ping("192.0.2.1", 3, gap_us=20_000)
    stack.loop.run_until_idle()
    probes = stack.engine.dump_ping()[str(icmp_id)]["probes"]
    assert all(t_in is not None for _t, t_in, _r in probes)
    assert stack.loop.now_us() == max(t_in for _t, t_in, _r in probes)
    assert stack.engine.pings[icmp_id].open == 0
    assert stack.engine._deadline is None  # cancelled at the last reply


def test_clear_cancels_the_deadline():
    stack = VirtualStack(ping_topo(responds=False))
    stack.engine.start_ping("192.0.2.1", 2)
    stack.loop.run_for(100_000)
    deadline = stack.engine._deadline
    assert deadline is not None and not deadline.cancelled
    stack.engine.clear_ping()
    assert deadline.cancelled and stack.engine._deadline is None
    cleared_at = stack.loop.now_us()
    stack.loop.run_until_idle()
    assert stack.loop.now_us() == cleared_at  # nothing left to fire


def test_interleaved_spaced_tasks_share_one_deadline():
    stack = VirtualStack(ping_topo(responds=False))
    timeout = stack.engine.settings.probe_timeout_us
    armed = []  # (armed at, fires at) of every expiry deadline
    call_at = stack.loop.call_at

    def recording(when_us, fn, *args):
        if getattr(fn, "__func__", None) is MeasurementEngine._expire_records:
            armed.append((stack.loop.now_us(), when_us))
        return call_at(when_us, fn, *args)

    stack.loop.call_at = recording
    first = stack.engine.start_ping("192.0.2.1", 3, gap_us=700_000)
    stack.loop.run_for(350_000)
    second = stack.engine.start_ping("192.0.2.1", 3, gap_us=700_000)
    stack.loop.run_for(2 * 700_000 + 100_000)  # every probe is out
    records = sorted((r for icmp_id in (first, second)
                      for r in stack.engine.pings[icmp_id].records.values()),
                     key=lambda r: r.t_out)
    assert len(records) == 6
    for record in records:
        stack.loop.run_until(lambda: record.expired)
        assert stack.loop.now_us() == record.t_out + timeout
    # one deadline at a time: each later one is armed as the one before fires
    assert [when for _at, when in armed] == [r.t_out + timeout
                                             for r in records]
    assert [at for at, _when in armed[1:]] == [when for _at, when in armed[:-1]]
    assert stack.engine.pings[first].done and stack.engine.pings[second].done


def test_a_clear_skips_its_records_and_keeps_the_other_kinds_deadline():
    topo = trace_topo()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000,
                                                  responds=False)
    stack = VirtualStack(topo)
    timeout = stack.engine.settings.probe_timeout_us
    ping_id = stack.engine.start_ping("192.0.2.1", 2, gap_us=100_000)
    stack.loop.run_for(50_000)
    trace_id = stack.engine.start_traceroute("192.0.2.66")
    stack.loop.run_for(200_000)
    ping = stack.engine.pings[ping_id]
    stack.engine.clear_ping()
    task = stack.engine.traceroutes[trace_id]
    assert stack.engine._deadline is not None  # the traceroute is still open
    stack.loop.run_until_idle()
    assert not any(r.expired for r in ping.records.values())
    assert all(r.expired for r in task.records.values())
    assert stack.loop.now_us() == task.records[0].t_out + timeout
    assert stack.engine._open == 0
    assert stack.engine.dump_traceroute()[str(trace_id)]["terminated"] \
        == "max_ttl"


# -- traceroute -----------------------------------------------------------------


def trace_topo():
    topo = make_topology()
    topo.targets["192.0.2.9"] = netsim.TargetSpec(
        base_rtt_us=40_000,
        hops=[("10.1.0.1", 2000), ("10.1.0.2", 5000), ("10.1.0.3", 9000)])
    topo.targets["192.0.2.66"] = netsim.TargetSpec(base_rtt_us=50_000,
                                                   responds=False)
    return topo


def test_traceroute_full_path():
    stack = VirtualStack(trace_topo())
    entry = stack.run_traceroute("192.0.2.9", probes_per_ttl=2)
    assert entry["terminated"] == "destination_reached"
    assert entry["probes_per_ttl"] == 2
    assert sorted(entry["hops"], key=int) == ["1", "2", "3", "4"]
    assert [cell[0] for cell in entry["hops"]["1"]] == ["10.1.0.1"] * 2
    assert [cell[0] for cell in entry["hops"]["2"]] == ["10.1.0.2"] * 2
    assert [cell[0] for cell in entry["hops"]["3"]] == ["10.1.0.3"] * 2
    assert [cell[0] for cell in entry["hops"]["4"]] == ["192.0.2.9"] * 2
    # hop RTTs grow along the path and the destination shows the full RTT
    rtts = [entry["hops"][k][0][1] for k in ("1", "2", "3", "4")]
    assert rtts == sorted(rtts)
    assert rtts[3] == pytest.approx(40_000 + 2517, abs=1)


def test_traceroute_unrouted_runs_all_ttls():
    stack = VirtualStack(trace_topo())
    entry = stack.run_traceroute("192.0.2.66")
    assert entry["terminated"] == "max_ttl"
    assert len(entry["hops"]) == 30
    assert all(cell == [None, None]
               for row in entry["hops"].values() for cell in row)


def test_traceroute_in_progress_mid_flight():
    stack = VirtualStack(trace_topo())
    icmp_id = stack.engine.start_traceroute("192.0.2.9", gap_us=100_000)
    stack.loop.run_for(150_000)  # two probes out, replies pending
    entry = stack.engine.dump_traceroute()[str(icmp_id)]
    assert entry["terminated"] == "in_progress"
    stack.loop.run_until_idle()
    entry = stack.engine.dump_traceroute()[str(icmp_id)]
    assert entry["terminated"] == "destination_reached"


def test_traceroute_validation():
    stack = VirtualStack(trace_topo())
    with pytest.raises(ValueError):
        stack.engine.start_traceroute("192.0.2.9", probes_per_ttl=0)
    with pytest.raises(ValueError):
        stack.engine.start_traceroute("192.0.2.9", probes_per_ttl=2200)


# -- router identity ---------------------------------------------------------------


def test_router_id_query_round_trip():
    topo = make_topology()
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    stack = VirtualStack(topo)
    icmp_id = stack.engine.start_router_id_query("203.0.113.5")
    stack.loop.run_until_idle()
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    assert frames.RouterIdentity(row["asn"], row["ident"]) \
        == frames.RouterIdentity(65001, "core-rtr-1")
    assert row["tgt"] == "203.0.113.5"
    [(t_out, t_in, responder)] = row["probes"]
    assert responder == "203.0.113.5"
    # host 9 ms plus 2.5 ms of switch processing, control channel removed
    assert corrected_rtt(t_out, t_in, row["rtt_cs_us"]) == 11_500
    # the id is held until a clear, as for every task kind
    assert stack.engine.allocator.in_use == 1
    assert stack.engine.clear_router_id_query() == 1
    assert stack.engine.allocator.in_use == 0


def test_router_id_query_timeout_frees_the_id():
    stack = VirtualStack(make_topology())
    icmp_id = stack.engine.start_router_id_query("203.0.113.99")
    stack.loop.run_until_idle()
    task = stack.engine.router_id_queries[icmp_id]
    assert task.done and task.records[0].expired
    t_out = task.records[0].t_out
    assert stack.loop.now_us() == t_out + ProbeSettings().probe_timeout_us
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    assert row["probes"] == [[t_out, None, None]]
    assert row["asn"] is None and row["ident"] is None
    assert stack.engine.allocator.in_use == 1
    assert stack.engine.clear_router_id_query() == 1
    assert stack.engine.allocator.in_use == 0
    assert stack.engine.dump_router_id_query() == {}


def test_undecodable_identity_is_malformed_and_expires(monkeypatch):
    topo = make_topology()
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    stack = VirtualStack(topo)
    # the simulated host answers with an identity that does not decode
    monkeypatch.setattr(frames, "encode_router_identity",
                        lambda identity: b"\x00\x00\x00\x01\x05abc")
    icmp_id = stack.engine.start_router_id_query("203.0.113.5")
    stack.loop.run_until_idle()
    assert stack.engine.counters["malformed_frames"] == 1
    assert stack.engine.counters["unknown_replies"] == 0
    task = stack.engine.router_id_queries[icmp_id]
    assert task.done and task.records[0].expired
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    assert row["asn"] is None and row["probes"][0][1] is None


def test_identity_queries_end_answered_or_expired_exactly_once():
    """Queries to answering, silent and lossy hosts, one batch cleared in
    flight: every record ends answered or expired, never both, and those
    plus the records cleared in flight are the switch's query PacketOuts."""
    topo = make_topology()
    answering = ["203.0.113.%d" % i for i in range(1, 5)]
    lossy = ["203.0.113.%d" % i for i in range(11, 15)]
    silent = ["203.0.113.%d" % i for i in range(21, 25)]
    identities = {}
    for i, ip in enumerate(answering + lossy):
        identities[ip] = frames.RouterIdentity(65000 + i, "rtr-%d" % i)
        topo.router_id_hosts[ip] = netsim.RouterIdHost(identities[ip],
                                                       rtt_us=9000)
    stack = VirtualStack(topo)
    engine = stack.engine
    lossy_replies = []
    receive = stack.switch.receive_dataplane

    def lose_every_other_lossy_reply(frame, port):
        if wire.ip_from_bytes(frames.parse_icmp(frame)[5]) in lossy:
            lossy_replies.append(frame)
            if len(lossy_replies) % 2:
                return
        receive(frame, port)

    stack.switch.receive_dataplane = lose_every_other_lossy_reply
    targets = answering + lossy + silent
    for ip in targets:
        engine.start_router_id_query(ip)
    stack.loop.run_for(20_000)  # queries out, no reply back yet
    in_flight = sum(len(t.records) for t in engine.router_id_queries.values())
    assert in_flight == len(targets)
    assert engine.clear_router_id_query() == len(targets)
    for _round in range(2):
        for ip in targets:
            engine.start_router_id_query(ip)
    stack.loop.run_until_idle()

    answered = expired = 0
    dump = engine.dump_router_id_query()
    for icmp_id, task in engine.router_id_queries.items():
        [record] = task.records.values()
        assert (record.t_in is not None) != record.expired
        answered += record.t_in is not None
        expired += record.expired
        row = dump[str(icmp_id)]
        identity = (identities.get(task.target)
                    if record.t_in is not None else None)
        assert (row["asn"], row["ident"]) == (
            (identity.asn, identity.ident) if identity else (None, None))
    assert answered == 2 * len(answering) + len(lossy)
    assert expired == 2 * len(silent) + len(lossy)
    queries = [f for _t, _p, f in stack.switch.emitted
               if frames.match_fields(f).get("icmpv4_type")
               == frames.ICMP_ROUTER_ID]
    assert answered + expired + in_flight == len(queries)
    # the cleared batch's answers arrive for ids nobody holds
    assert engine.counters["unknown_replies"] \
        == len(answering) + len(lossy) // 2
    assert engine.counters["duplicate_replies"] == 0
    assert engine.counters["late_replies"] == 0
    assert engine.clear_router_id_query() == 2 * len(targets)
    assert engine.allocator.in_use == 0


def test_served_query_is_parsed_once(monkeypatch):
    stack = VirtualStack(make_topology())
    stack.engine.set_router_config(True,
                                   frames.RouterIdentity(64512, "vantage-1"))
    query = frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64", icmp_id=9,
        icmp_type=frames.ICMP_ROUTER_ID)
    parsed = []
    icmp_view = frames._icmp_view
    monkeypatch.setattr(frames, "_icmp_view",
                        lambda frame: parsed.append(frame) or icmp_view(frame))
    stack.session.packet_in_handler(query, stack.loop.now_us(), 1)
    assert parsed == [query]
    assert stack.engine.counters["router_id_served"] == 1


def test_router_id_serving_when_enabled():
    stack = VirtualStack(make_topology())
    stack.engine.set_router_config(True,
                                   frames.RouterIdentity(64512, "vantage-1"))
    query = frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64", icmp_id=9,
        icmp_type=frames.ICMP_ROUTER_ID)
    stack.switch.receive_dataplane(query, 1)
    stack.loop.run_until_idle()
    assert stack.engine.counters["router_id_served"] == 1
    served = [f for _t, _p, f in stack.switch.emitted]
    parsed = frames.parse_reply(served[-1])
    assert parsed.kind == frames.ReplyKind.ROUTER_ID_REPLY
    assert frames.decode_router_identity(parsed.payload).ident == "vantage-1"


def test_served_identity_reply_bytes_are_unchanged():
    # bytes the engine served before it parsed a query only once
    stack = VirtualStack(make_topology())
    stack.engine.set_router_config(True,
                                   frames.RouterIdentity(64512, "vantage-1"))
    query = frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64", icmp_id=9,
        icmp_seq=4, icmp_type=frames.ICMP_ROUTER_ID)
    stack.switch.receive_dataplane(query, 1)
    stack.loop.run_until_idle()
    _t, port, served = stack.switch.emitted[-1]
    assert port == 1
    assert served == bytes.fromhex(
        "02aaaaaaaa0102000000006408004500002a00000000400146350a000064c633"
        "6407c801c813000900040000fc000976616e746167652d31")


def test_served_identity_reply_leaves_through_the_switch_that_asked():
    """A second switch is attached, so the query's session is no longer
    the newest; the reply still leaves as the first switch's PacketOut."""
    stack = VirtualStack(make_topology())
    stack.engine.set_router_config(True,
                                   frames.RouterIdentity(64512, "vantage-1"))
    ctrl_end, sw_end = transport.virtual_pair(stack.loop, lambda: 1000)
    session = SwitchSession(stack.loop, ctrl_end)
    second = netsim.SimSwitch(stack.loop, make_topology(dpid=2))
    second.attach(sw_end)
    session.ready.add_done_callback(
        lambda _fut: stack.engine.attach_session(session))
    stack.loop.run_until_idle()
    assert stack.engine.session is session
    second_emitted = len(second.emitted)  # the ARP that primes its port
    query = frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64", icmp_id=9,
        icmp_type=frames.ICMP_ROUTER_ID)
    stack.switch.receive_dataplane(query, 1)
    stack.loop.run_until_idle()
    assert stack.engine.counters["router_id_served"] == 1
    assert len(second.emitted) == second_emitted
    _t, port, served = stack.switch.emitted[-1]
    assert port == 1
    assert frames.parse_reply(served).kind == frames.ReplyKind.ROUTER_ID_REPLY


def test_router_id_serving_disabled_by_default():
    stack = VirtualStack(make_topology())
    query = frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64", icmp_id=9,
        icmp_type=frames.ICMP_ROUTER_ID)
    before = len(stack.switch.emitted)
    stack.switch.receive_dataplane(query, 1)
    stack.loop.run_for(1_000_000)
    assert len(stack.switch.emitted) == before
    assert stack.engine.counters["router_id_served"] == 0
    assert stack.engine.counters["other_frames"] == 1


# -- degraded control channel -------------------------------------------------------


class FakeSession:
    """Session stub whose echo samples are scripted by the test.  A None
    outcome leaves that echo in flight, in `pending`, for the test to
    resolve."""

    state = ACTIVE

    def __init__(self, loop, echo_results):
        self.loop = loop
        self.echo_results = list(echo_results)
        self.packet_in_handler = None
        self.close_handler = None
        self.probes = []
        self.echoes_sent = 0
        self.pending = []

    def install_reply_flows(self, src_ip):
        pass

    def send_probe(self, out_port, frame):
        self.probes.append((out_port, frame))
        return self.loop.now_us()

    def sample_switch_rtt(self):
        self.echoes_sent += 1
        fut = Future()
        outcome = self.echo_results.pop(0)
        if outcome is None:
            self.pending.append(fut)
        elif isinstance(outcome, Exception):
            fut.set_exception(outcome)
        else:
            fut.set_result(outcome)
        return fut


def test_echo_timeout_falls_back_to_last_estimate():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, [4000, EchoTimeout("lost")])
    engine.attach_session(session)
    first = engine.start_ping("192.0.2.1", 1)
    loop.run_for(1000)
    second = engine.start_ping("192.0.2.1", 1)
    loop.run_for(1000)
    assert engine.counters["echo_timeouts"] == 1
    dump = engine.dump_ping()
    assert dump[str(first)]["rtt_cs_us"] == 4000.0
    assert dump[str(second)]["rtt_cs_us"] == 4000.0  # carried forward


def test_echo_timeout_with_no_history_uses_zero():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    engine.attach_session(FakeSession(loop, [EchoTimeout("lost")]))
    icmp_id = engine.start_ping("192.0.2.1", 1)
    loop.run_for(1000)
    assert engine.dump_ping()[str(icmp_id)]["rtt_cs_us"] == 0.0


def test_session_closed_before_the_start_echo_is_not_a_timeout():
    stack = VirtualStack(ping_topo())
    icmp_id = stack.engine.start_ping("192.0.2.1", 2)
    stack.session.close()
    stack.loop.run_until_idle()
    assert stack.engine.counters["echo_timeouts"] == 0
    assert stack.engine.counters["session_lost"] == 1
    assert stack.engine.dump_ping()[str(icmp_id)]["probes"] == []


def test_tasks_of_a_session_closed_before_the_start_echo_end_done():
    topo = trace_topo()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    stack = VirtualStack(topo)
    ping_id = stack.engine.start_ping("192.0.2.1", 3)
    trace_id = stack.engine.start_traceroute("192.0.2.9")
    stack.session.close()
    stack.loop.run_until_idle()
    assert stack.engine.pings[ping_id].done
    assert stack.engine.pings[ping_id].records == {}
    entry = stack.engine.dump_traceroute()[str(trace_id)]
    assert entry["terminated"] == "max_ttl"
    assert stack.engine.counters["session_lost"] == 2
    assert stack.engine.counters["echo_timeouts"] == 0


def test_newer_session_replaces_older():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    old = FakeSession(loop, [1000])
    new = FakeSession(loop, [2000])
    engine.attach_session(old)
    engine.attach_session(new)
    assert engine.session is new
    # the old session going away must not detach the new one
    engine._on_session_closed(old, None)
    assert engine.session is new


def echo_probes(switch):
    return [t for t, _port, frame in switch.emitted
            if frames.match_fields(frame).get("icmpv4_type") == 8]


def test_a_task_keeps_the_switch_it_started_on():
    """A second switch dials in mid-task and the engine attaches it; the
    task's probes and emission echoes still all go through the first."""
    near, far = ping_topo(), ping_topo()
    near.control_link = netsim.ConstantDelay(1000)
    far.control_link = netsim.ConstantDelay(30_000)
    stack = VirtualStack(near)
    icmp_id = stack.engine.start_ping("192.0.2.1", 10, gap_us=20_000)
    stack.loop.run_for(25_000)
    ctrl_end, sw_end = transport.virtual_pair(
        stack.loop, lambda: far.control_link.us)
    session = SwitchSession(stack.loop, ctrl_end)
    second = netsim.SimSwitch(stack.loop, far)
    second.attach(sw_end)
    attached_at = []

    def attach(_fut):
        attached_at.append(stack.loop.now_us())
        stack.engine.attach_session(session)

    session.ready.add_done_callback(attach)
    stack.loop.run_until_idle()
    first_probes = echo_probes(stack.switch)
    assert (len(first_probes), echo_probes(second)) == (10, [])
    assert stack.engine.session is session
    assert attached_at[0] < first_probes[6]  # before the seventh probe
    # 1 ms each way: start snapshot and nine emission echoes of 2 ms
    assert stack.engine.dump_ping()[str(icmp_id)]["rtt_cs_us"] == 2000.0


# -- control-channel samples with spaced emissions -------------------------------


class ScriptedDelay:
    """Control link that replays queued one-way delays, one per segment,
    then falls back to a constant."""

    def __init__(self, us):
        self.us = us
        self.queue = []

    def sample(self, rng):
        return self.queue.pop(0) if self.queue else self.us


def count_echoes(stack):
    """Wrap the stack's session so every echo request is recorded."""
    sent = []
    sample = stack.session.sample_switch_rtt

    def counting():
        fut = sample()
        sent.append(fut)
        return fut

    stack.session.sample_switch_rtt = counting
    return sent


def test_spaced_ping_samples_every_emission():
    link = ScriptedDelay(5000)
    topo = ping_topo()
    topo.control_link = link
    stack = VirtualStack(topo)
    echoes = count_echoes(stack)
    # one-way delays in the order the segments leave: start echo and its
    # reply, then per 100 ms window the PacketOut (sharing its segment
    # with the emission's echo from the second window on), that echo's
    # reply and the probe's PacketIn
    link.queue = [3000, 4000,          # start echo: 7000
                  5000, 6000,          # probe 0 out, in
                  6000, 2000, 9000,    # probe 1 out+echo, echo reply, in
                  1000, 2000, 5000]    # probe 2 out+echo, echo reply, in
    entry = stack.run_ping("192.0.2.1", 3, gap_us=100_000)
    assert link.queue == []
    assert len(echoes) == 3
    assert [f.result() for f in echoes] == [7000, 8000, 3000]
    assert entry["rtt_cs_us"] == (7000 + 8000 + 3000) / 3
    # each probe's raw RTT is its own legs plus the 22.5 ms switch/target
    # path: an echo in the PacketOut's segment adds no bundle penalty
    raw = [t_in - t_out for t_out, t_in, _r in entry["probes"]]
    assert raw == [5000 + 22_500 + 6000, 6000 + 22_500 + 9000,
                   1000 + 22_500 + 5000]


def test_spaced_traceroute_samples_every_emission():
    stack = VirtualStack(trace_topo())
    echoes = count_echoes(stack)
    entry = stack.run_traceroute("192.0.2.66", gap_us=10_000)
    assert entry["terminated"] == "max_ttl"
    assert len(echoes) == 30  # start echo + one per later emission
    assert entry["rtt_cs_us"] == 10_000.0


@pytest.mark.parametrize("num, gap_us", [(1, 0), (1, 50_000), (5, 0)])
def test_unspaced_or_single_probe_sends_one_echo(num, gap_us):
    stack = VirtualStack(ping_topo())
    echoes = count_echoes(stack)
    entry = stack.run_ping("192.0.2.1", num, gap_us=gap_us)
    assert len(echoes) == 1
    assert entry["rtt_cs_us"] == 10_000.0


def test_spaced_rtt_cs_is_mean_of_start_and_samples():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, [4000, 6000, 8000, 10_000])
    engine.attach_session(session)
    icmp_id = engine.start_ping("192.0.2.1", 4, gap_us=1000)
    loop.run_for(3500)
    assert session.echoes_sent == 4 and len(session.probes) == 5  # + ARP
    assert engine.dump_ping()[str(icmp_id)]["rtt_cs_us"] == 7000.0
    # per-emission samples are the task's own; the smoothed estimate
    # still feeds from task starts only
    assert engine.estimator.sample_count == 1
    assert engine.estimator.current == 4000.0


def test_lost_emission_echo_counts_and_keeps_the_others():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, [4000, EchoTimeout("lost"), 8000])
    engine.attach_session(session)
    icmp_id = engine.start_ping("192.0.2.1", 3, gap_us=1000)
    loop.run_for(2500)
    assert engine.counters["echo_timeouts"] == 1
    assert engine.dump_ping()[str(icmp_id)]["rtt_cs_us"] == 6000.0


@pytest.mark.parametrize("late", [lambda f: f.set_result(90_000),
                                  lambda f: f.set_exception(
                                      EchoTimeout("lost"))])
def test_echo_after_clear_touches_no_task(late):
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, [4000, None, 5000, 7000])
    engine.attach_session(session)
    old_id = engine.start_ping("192.0.2.1", 2, gap_us=1000)
    loop.run_for(1500)  # second emission out, its echo still in flight
    old_task = engine.pings[old_id]
    engine.clear_ping()
    engine.allocator._next = old_id  # the next task recycles the id
    new_id = engine.start_ping("192.0.2.1", 2, gap_us=1000)
    loop.run_for(1500)
    assert new_id == old_id
    late(session.pending[0])
    assert (old_task.rtt_cs_us, old_task.rtt_cs_count) == (4000.0, 1)
    # EWMA of 4000 and 5000 at start, then the new task's own sample
    assert engine.dump_ping()[str(new_id)]["rtt_cs_us"] == (4500 + 7000) / 2
    assert engine.estimator.sample_count == 2
    assert engine.counters["echo_timeouts"] == 0


def test_rtt_cs_is_final_once_the_task_is_done():
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, [4000, None])
    engine.attach_session(session)
    icmp_id = engine.start_ping("192.0.2.1", 2, gap_us=1000)
    loop.run_for(1500)
    for _port, frame in session.probes[1:]:  # skip the ARP announcement
        session.packet_in_handler(
            frames.build_echo_reply(frames.parse_icmp(frame)), loop.now_us(), 1)
    assert engine.pings[icmp_id].done
    session.pending[0].set_result(90_000)  # echo outlived the probes
    assert engine.dump_ping()[str(icmp_id)]["rtt_cs_us"] == 4000.0


# -- settled dump rows ----------------------------------------------------------------


def answer(session, n, router_ip=None):
    """Feed back the reply to the n-th probe the fake session sent, over
    every task: an Echo Reply, or a Time Exceeded from router_ip."""
    _port, frame = session.probes[1 + n]  # probes[0] is the ARP
    view = frames.parse_icmp(frame)
    reply = (frames.build_echo_reply(view) if router_ip is None
             else frames.build_time_exceeded(router_ip, frame, view))
    session.packet_in_handler(reply, session.loop.now_us(), 1)


def fake_engine(echo_results=(4000,)):
    loop = EventLoop()
    engine = MeasurementEngine(loop, ProbeSettings())
    session = FakeSession(loop, echo_results)
    engine.attach_session(session)
    return loop, engine, session


def test_settled_row_is_built_once_and_an_open_one_every_dump():
    loop, engine, session = fake_engine([4000, 4000])
    settled = engine.start_ping("192.0.2.1", 1)
    open_id = engine.start_ping("192.0.2.1", 2)
    loop.run_for(1000)
    answer(session, 0)  # settled's only probe
    answer(session, 1)  # open_id's seq 0; its seq 1 stays open
    first, second = engine.dump_ping(), engine.dump_ping()
    assert first[str(settled)] is second[str(settled)]
    assert first[str(open_id)] is not second[str(open_id)]
    assert first[str(open_id)] == second[str(open_id)]
    answer(session, 2)
    third, fourth = engine.dump_ping(), engine.dump_ping()
    assert third[str(open_id)]["probes"][1][1] == loop.now_us()
    assert third[str(open_id)] is fourth[str(open_id)]
    assert third[str(settled)] is first[str(settled)]


def test_spaced_ping_dumped_mid_flight_moves_in_the_next_dump():
    loop, engine, session = fake_engine([4000, 6000, 8000, 10_000])
    icmp_id = str(engine.start_ping("192.0.2.1", 4, gap_us=1000))
    loop.run_for(1500)
    mid = engine.dump_ping()[icmp_id]
    assert (len(mid["probes"]), mid["rtt_cs_us"]) == (2, 5000.0)
    loop.run_for(2000)
    later = engine.dump_ping()[icmp_id]
    assert (len(later["probes"]), later["rtt_cs_us"]) == (4, 7000.0)
    assert mid["probes"] == later["probes"][:2]  # the old row is untouched
    for seq in range(4):
        answer(session, seq)
    done = engine.dump_ping()[icmp_id]
    assert all(t_in is not None for _t_out, t_in, _r in done["probes"])
    assert engine.pings[int(icmp_id)].row is done


def test_traceroute_at_its_destination_with_a_lower_ttl_open_is_not_kept():
    """Done is not settled: the destination answered at TTL 3 while TTL 1
    is still out, so the row must change when TTL 1's reply lands."""
    loop, engine, session = fake_engine()
    icmp_id = engine.start_traceroute("192.0.2.9")
    loop.run_for(1000)
    answer(session, 2)  # TTL 3 reaches the destination
    task = engine.traceroutes[icmp_id]
    assert task.done
    before = engine.dump_traceroute()[str(icmp_id)]
    assert before["terminated"] == "destination_reached"
    assert before["hops"]["1"] == [[None, None]]
    assert task.row is None
    answer(session, 0, router_ip="10.1.0.1")
    after = engine.dump_traceroute()[str(icmp_id)]
    assert after["hops"]["1"] == [["10.1.0.1", 0.0]]
    assert before["hops"]["1"] == [[None, None]]
    loop.run_until_idle()  # TTL 2 and the probes past TTL 3 expire
    settled = engine.dump_traceroute()[str(icmp_id)]
    assert settled == after and task.row is settled
    assert engine.dump_traceroute()[str(icmp_id)] is settled


def test_identity_row_is_complete_when_first_kept():
    topo = make_topology()
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    stack = VirtualStack(topo)
    icmp_id = stack.engine.start_router_id_query("203.0.113.5")
    stack.loop.run_for(5000)  # query out, answer not back yet
    task = stack.engine.router_id_queries[icmp_id]
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    assert (row["asn"], row["ident"], task.row) == (None, None, None)
    stack.loop.run_until_idle()
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    assert task.row is row
    assert (row["asn"], row["ident"]) == (65001, "core-rtr-1")
    assert row["probes"][0][2] == "203.0.113.5"
    assert stack.engine.dump_router_id_query()[str(icmp_id)] is row


def mixed_topo():
    topo = trace_topo()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    topo.targets["192.0.2.2"] = netsim.TargetSpec(base_rtt_us=20_000,
                                                  responds=False)
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    return topo


MIXED_TASKS = {
    "pings": lambda e: (e.start_ping("192.0.2.1", 3),
                        e.start_ping("192.0.2.1", 4, gap_us=30_000),
                        e.start_ping("192.0.2.2", 2)),
    "traceroutes": lambda e: (e.start_traceroute("192.0.2.9", 2),
                              e.start_traceroute("192.0.2.9", gap_us=20_000),
                              e.start_traceroute("192.0.2.66")),
    "router_id_queries": lambda e: (e.start_router_id_query("203.0.113.5"),
                                    e.start_router_id_query("203.0.113.99")),
}


@pytest.mark.parametrize("table, dump", [
    ("pings", "dump_ping"), ("traceroutes", "dump_traceroute"),
    ("router_id_queries", "dump_router_id_query")])
def test_dump_renders_as_a_fresh_build(table, dump):
    stack = VirtualStack(mixed_topo())
    MIXED_TASKS[table](stack.engine)
    tasks = getattr(stack.engine, table)
    dump = getattr(stack.engine, dump)
    for run_us in (5_000, 30_000, 100_000, 1_000_000, None):
        if run_us is None:
            stack.run()
        else:
            stack.loop.run_for(run_us)
        dump()
        kept = render_json(dump())
        for task in tasks.values():
            task.row = None
        assert kept == render_json(dump())
    assert all(task.row is not None for task in tasks.values())


# -- the reply matcher ---------------------------------------------------------------

RID_MACS = dict(src_mac="02:00:00:00:00:64", dst_mac="02:00:00:00:00:01")


def reply_frame(kind, icmp_id, seq):
    """A reply of kind to probe (icmp_id, seq), built as a target or a
    router on the path would."""
    if kind in ("identity", "bad_identity"):
        query = frames.build_echo_request(
            "10.0.0.100", "203.0.113.5", icmp_id=icmp_id, icmp_seq=seq,
            icmp_type=frames.ICMP_ROUTER_ID, **RID_MACS)
        reply = bytearray(frames.build_router_id_reply(
            frames.parse_icmp(query), frames.RouterIdentity(65001, "rtr-1")))
        if kind == "bad_identity":
            reply[-6] += 1  # ident length past the payload
            reply[36:38] = b"\x00\x00"
            reply[36:38] = frames.internet_checksum(
                bytes(reply[34:])).to_bytes(2, "big")
        return bytes(reply)
    probe = frames.build_echo_request(
        "10.0.0.100", "192.0.2.9", icmp_id=icmp_id, icmp_seq=seq,
        **RID_MACS)
    view = frames.parse_icmp(probe)
    if kind == "echo":
        return frames.build_echo_reply(view)
    return frames.build_time_exceeded("10.1.0.1", probe, view)


def matcher_state(engine):
    records = {(table, icmp_id, seq): (r.t_in, r.expired)
               for table in ("pings", "traceroutes", "router_id_queries")
               for icmp_id, task in getattr(engine, table).items()
               for seq, r in task.records.items()}
    return dict(engine.counters), records


@pytest.mark.parametrize("kind, table, seq, before, outcome", [
    ("echo", "pings", 1, None, "filled"),
    ("time_exceeded", "traceroutes", 0, None, "filled"),
    ("echo", "traceroutes", 2, None, "filled"),
    ("identity", "router_id_queries", 0, None, "filled"),
    ("echo", None, 0, None, "unknown_replies"),
    ("identity", None, 0, None, "unknown_replies"),
    ("echo", "pings", 5, None, "unknown_replies"),
    ("time_exceeded", "traceroutes", 40, None, "unknown_replies"),
    ("echo", "pings", 0, "answered", "duplicate_replies"),
    ("time_exceeded", "traceroutes", 1, "answered", "duplicate_replies"),
    ("identity", "router_id_queries", 0, "expired", "late_replies"),
    ("echo", "traceroutes", 3, "expired", "late_replies"),
    ("bad_identity", "router_id_queries", 0, None, "malformed_frames"),
    ("time_exceeded", "pings", 0, None, "unknown_replies"),
], ids=["ping", "hop", "destination", "identity", "unknown_id",
        "unknown_identity_id", "ping_seq_never_sent", "hop_seq_never_sent",
        "duplicate", "duplicate_hop", "late_identity", "late_destination",
        "identity_does_not_decode", "time_exceeded_quoting_a_ping"])
def test_each_packet_in_changes_one_record_or_one_counter(
        kind, table, seq, before, outcome):
    loop, engine, session = fake_engine([4000] * 3)
    ids = {"pings": engine.start_ping("192.0.2.1", 2),
           "traceroutes": engine.start_traceroute("192.0.2.9"),
           "router_id_queries": engine.start_router_id_query("203.0.113.5"),
           None: 999}
    icmp_id = ids[table]
    frame = reply_frame(kind, icmp_id, seq)
    if before == "answered":
        session.packet_in_handler(frame, loop.now_us(), 1)
    elif before == "expired":
        loop.run_for(ProbeSettings().probe_timeout_us + 1)
    counters, records = matcher_state(engine)
    session.packet_in_handler(frame, loop.now_us(), 1)
    counters_after, records_after = matcher_state(engine)
    moved = {k: v - counters[k] for k, v in counters_after.items()
             if v != counters[k]}
    changed = [k for k, v in records_after.items() if records[k] != v]
    assert records.keys() == records_after.keys()
    if outcome == "filled":
        assert (moved, changed) == ({}, [(table, icmp_id, seq)])
        assert records_after[changed[0]] == (loop.now_us(), False)
    else:
        assert (moved, changed) == ({outcome: 1}, [])
    trace, query = engine.traceroutes[ids["traceroutes"]], \
        engine.router_id_queries[ids["router_id_queries"]]
    assert trace.dest_ttl == (3 if (kind, table, outcome)
                              == ("echo", "traceroutes", "filled") else None)
    assert query.identity == (frames.RouterIdentity(65001, "rtr-1")
                              if kind == "identity" and outcome == "filled"
                              else None)


def test_each_out_port_is_primed_once_per_session():
    loop, engine, session = fake_engine([4000] * 3)
    engine.start_ping("192.0.2.1", 1)
    engine.start_ping("192.0.2.1", 1, out_port=2)
    engine.start_ping("192.0.2.1", 1, out_port=2)
    kinds = [(port, frame[12:14]) for port, frame in session.probes]
    arp, ipv4 = b"\x08\x06", b"\x08\x00"
    assert kinds == [(1, arp), (1, ipv4), (2, arp), (2, ipv4), (2, ipv4)]


def test_start_echo_returning_after_a_clear_sends_nothing():
    loop, engine, session = fake_engine([None])
    task = engine.pings[engine.start_ping("192.0.2.1", 2)]
    assert engine.clear_ping() == 1
    session.pending[0].set_result(5000)
    loop.run_until_idle()
    assert len(session.probes) == 1  # the ARP announcement only
    assert (task.records, task.rtt_cs_us) == ({}, None)
    assert engine.estimator.current is None
