"""Acceptance gate: ten numbered criteria, one test each.

Run with -v to get one PASSED/FAILED line per criterion; each test also
prints its measured numbers.  Tolerances are pinned here and nowhere else.
"""

import json
import random
import statistics
import time

import pytest

from ofprobe import frames, netsim, wire
from ofprobe.api import ApiApp
from ofprobe.config import PolicyConfig
from ofprobe.engine import ID_SPACE, RttEstimator
from ofprobe.report import build_report, report_from_topology
from helpers import VirtualStack, make_topology
from test_wire import FIXTURES


def _report(n, ok, detail):
    print("criterion %02d: %s  (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (n, detail)


def _random_message(rng):
    xid = rng.randrange(2 ** 32)
    kind = rng.randrange(8)
    if kind == 0:
        return wire.hello(xid)
    if kind == 1:
        return wire.echo_request(xid, rng.randbytes(rng.randrange(64)))
    if kind == 2:
        return wire.echo_reply(xid, rng.randbytes(rng.randrange(64)))
    if kind == 3:
        return wire.features_request(xid)
    if kind == 4:
        return wire.features_reply(xid, rng.randrange(2 ** 64))
    if kind == 5:
        return wire.packet_out(xid, rng.randrange(2 ** 32),
                               rng.randbytes(rng.randrange(1, 256)))
    if kind == 6:
        return wire.packet_in(xid, rng.randrange(2 ** 32),
                              rng.randbytes(rng.randrange(1, 256)))
    fields = [("eth_type", 0x0800), ("ip_proto", 1),
              ("ipv4_dst", "%d.%d.%d.%d" % tuple(
                  rng.randrange(256) for _ in range(4))),
              ("icmpv4_type", rng.randrange(256)),
              ("icmpv4_code", rng.randrange(256))]
    return wire.flow_mod(xid, rng.randrange(2 ** 16),
                         fields[:rng.randrange(1, 6)])


def test_criterion_01_codec_fidelity():
    t0 = time.monotonic()
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        msg = _random_message(rng)
        raw = wire.encode_message(msg)
        back, consumed = wire.decode_message(raw)
        assert consumed == len(raw)
        assert wire.encode_message(back) == raw
    for name, (hexstr, build) in sorted(FIXTURES.items()):
        assert wire.encode_message(build()).hex() == hexstr, name
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 5.0,
            "10000 round trips + %d fixtures in %.2f s" % (len(FIXTURES),
                                                           elapsed))


def test_criterion_02_bundled_framing():
    rng = random.Random(0xB0D1E)
    messages = [_random_message(rng) for _ in range(50)]
    blob = b"".join(wire.encode_message(m) for m in messages)
    want = [wire.encode_message(m) for m in messages]
    for _trial in range(200):
        cuts = sorted(rng.sample(range(1, len(blob)),
                                 rng.randrange(1, 30)))
        stream = wire.MessageStream()
        got = []
        pos = 0
        for cut in cuts + [len(blob)]:
            got.extend(stream.feed(blob[pos:cut]))
            pos = cut
        assert [wire.encode_message(m) for m in got] == want
        assert stream.pending() == 0
    burst = [wire.packet_out(i, 1, bytes(64)) for i in range(5)]
    got = wire.MessageStream().feed(
        b"".join(wire.encode_message(m) for m in burst))
    single_segment_ok = [m.xid for m in got] == [0, 1, 2, 3, 4]
    _report(2, single_segment_ok,
            "200 chunkings of a 50-message stream; 5 PacketOuts in one "
            "segment -> %d messages" % len(got))


def test_criterion_03_calibration_reproduction():
    t0 = time.monotonic()
    topo = netsim.SimTopology(seed=31)  # default switch delay mixtures
    topo.control_link = netsim.ConstantDelay(5000)
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    stack = VirtualStack(topo)
    # 60 ms emission gap: above the worst-case 50 ms delay, so every
    # sample is an independent draw and the no-overtake clamp never binds
    stack.run_ping("192.0.2.1", 2000, gap_us=60_000)
    pktout, pktin, reorderings = netsim.pair_event_log(stack.switch.events)
    pktout = pktout[1:]  # first emission is the ARP priming frame
    assert len(pktout) == 2000 and len(pktin) == 2000
    frac_out = sum(1 for d in pktout if 1500 <= d <= 2000) / len(pktout)
    frac_in = sum(1 for d in pktin if d <= 1000) / len(pktin)
    elapsed = time.monotonic() - t0
    ok = (0.95 <= frac_out <= 0.99 and frac_in >= 0.93
          and reorderings == 0 and elapsed < 30.0)
    _report(3, ok,
            "pktout in [1.5,2.0] ms: %.4f; pktin <= 1 ms: %.4f; "
            "reorderings: %d; %.1f s" % (frac_out, frac_in, reorderings,
                                         elapsed))


def test_criterion_04_ping_accuracy_constant_delays():
    t0 = time.monotonic()
    rng = random.Random(0xACC4)
    topo = make_topology()  # constant 5 ms control, 2 ms out, 0.5 ms in
    for i in range(100):
        topo.targets["10.%d.%d.1" % (i >> 8, i & 255)] = netsim.TargetSpec(
            base_rtt_us=rng.randrange(10_000, 200_001))
    stack = VirtualStack(topo)
    diffs = []
    for ip, spec in topo.targets.items():
        entry = stack.run_ping(ip, 1)
        t_out, t_in, _ = entry["probes"][0]
        corrected = (t_in - t_out) - entry["rtt_cs_us"]
        diffs.append(corrected - spec.base_rtt_us)
    elapsed = time.monotonic() - t0
    # residual = the 2 ms + 0.5 ms switch legs the subtraction cannot see
    ok = (all(d == 2500.0 for d in diffs)
          and all(0 <= d <= 4500 for d in diffs) and elapsed < 60.0)
    _report(4, ok, "100 targets; estimate-truth spread [%.0f, %.0f] us; "
            "%.1f s" % (min(diffs), max(diffs), elapsed))


@pytest.fixture(scope="module")
def jittered_run():
    """1000-target run under a jittered control link, once per module:
    single-probe tasks, then 5-probe tasks over the same targets.  Returns
    the topology and, per phase, the ping dump with the switch's event log
    for that phase.  Recording the log draws no random numbers."""
    rng = random.Random(0xF165)
    topo = netsim.SimTopology(seed=424242,
                              control_link=netsim.UniformDelay(4000, 8000))
    for i in range(1000):
        topo.targets["10.%d.%d.1" % (i >> 8, i & 255)] = netsim.TargetSpec(
            base_rtt_us=rng.randrange(100_000, 400_001))
    stack = VirtualStack(topo, record_traffic=True)
    for ip in topo.targets:
        stack.run_ping(ip, 1)
    single = (stack.engine.dump_ping(), list(stack.switch.events))
    stack.engine.clear_ping()
    split = len(stack.switch.events)
    for ip in topo.targets:
        # same 60 ms spacing as the calibration run: back-to-back probes
        # would serialize behind one slow emission and share its delay,
        # and a mean over correlated samples cannot average the tail out
        stack.run_ping(ip, 5, gap_us=60_000)
    means = (stack.engine.dump_ping(), stack.switch.events[split:])
    return topo, single, means


@pytest.fixture(scope="module")
def jittered_reports(jittered_run):
    """Single-probe estimates and 5-probe means scored against each
    target's base RTT."""
    topo, (single_dump, _), (means_dump, _) = jittered_run
    return (report_from_topology(single_dump, topo),
            report_from_topology(means_dump, topo))


def test_criterion_05_error_distribution(jittered_reports):
    single, means = jittered_reports
    abs_errors = single.abs_errors()
    rel_errors = means.rel_errors()
    assert len(abs_errors) == 1000 and len(rel_errors) == 1000
    frac_abs = sum(1 for e in abs_errors if e <= 10_000) / len(abs_errors)
    frac_rel = sum(1 for e in rel_errors if e <= 0.10) / len(rel_errors)
    ok = frac_abs >= 0.95 and frac_rel >= 0.95
    _report(5, ok, "abs err <= 10 ms: %.3f (1 probe); rel err <= 10%%: %.3f "
            "(5-probe means)" % (frac_abs, frac_rel))


def _switch_side_truth(topo, dump, events, n_probes, skip_pktouts=0):
    """Per target, the RTT the echo subtraction is meant to leave: the base
    RTT plus the mean PacketOut + PacketIn delay of that task's own probes,
    paired from the switch's event log in emission order."""
    pktout, pktin, reorderings = netsim.pair_event_log(events)
    pktout = pktout[skip_pktouts:]
    assert (len(pktout), len(pktin), reorderings) == (n_probes, n_probes, 0)
    legs = iter(zip(pktout, pktin))
    truth = {}
    for icmp_id in sorted(dump, key=int):
        entry = dump[icmp_id]
        own = [sum(next(legs)) for _probe in entry["probes"]]
        truth[entry["tgt"]] = (topo.targets[entry["tgt"]].base_rtt_us
                               + statistics.mean(own))
    assert next(legs, None) is None
    return truth


def test_criterion_06_multiprobe_median_halving(jittered_run,
                                                jittered_reports):
    # The echo subtraction removes the control channel only; the switch's
    # PacketOut/PacketIn processing stays in every estimate (criterion 04
    # pins it).  What k-probe means can halve is the error around that,
    # so each task is scored against its own switch-side truth.
    topo, (dump1, events1), (dump5, events5) = jittered_run
    # the first PacketOut of the session is the ARP priming frame
    truth1 = _switch_side_truth(topo, dump1, events1, 1000, skip_pktouts=1)
    truth5 = _switch_side_truth(topo, dump5, events5, 5000)
    median1 = statistics.median(build_report(dump1, truth1).abs_errors())
    median5 = statistics.median(build_report(dump5, truth5).abs_errors())
    single, means = jittered_reports
    base_ratio = (statistics.median(means.abs_errors())
                  / statistics.median(single.abs_errors()))
    ok = median5 <= 0.5 * median1
    _report(6, ok, "median abs err vs switch-side truth: k=1 %.0f us, "
            "k=5 %.0f us, ratio %.2f (needs <= 0.50); vs base RTT %.2f "
            "(not asserted)" % (median1, median5, median5 / median1,
                                base_ratio))


def test_criterion_07_traceroute_correctness():
    routers = [("10.1.0.%d" % (k + 1), 2000 * (k + 1)) for k in range(5)]
    topo = make_topology()
    topo.targets["192.0.2.9"] = netsim.TargetSpec(base_rtt_us=60_000,
                                                  hops=routers)
    topo.targets["192.0.2.66"] = netsim.TargetSpec(base_rtt_us=60_000,
                                                   responds=False)
    stack = VirtualStack(topo)
    entry = stack.run_traceroute("192.0.2.9")
    path = [entry["hops"][str(ttl)][0][0] for ttl in range(1, 6)]
    routed_ok = (entry["terminated"] == "destination_reached"
                 and path == [ip for ip, _d in routers]
                 and entry["hops"]["6"][0][0] == "192.0.2.9"
                 and sorted(entry["hops"], key=int) == [str(t) for t in
                                                        range(1, 7)])
    entry = stack.run_traceroute("192.0.2.66")
    unrouted_ok = (entry["terminated"] == "max_ttl"
                   and len(entry["hops"]) == 30
                   and all(cell == [None, None]
                           for row in entry["hops"].values() for cell in row))
    # stalled replies: every TTL must still be emitted without waiting
    stalled = VirtualStack(topo)
    emitted_before = len(stalled.switch.emitted)
    stalled.engine.start_traceroute("192.0.2.66")
    stalled.loop.run_for(30_000)  # echo sample plus emission, no timeouts
    emitted = len(stalled.switch.emitted) - emitted_before
    async_ok = emitted >= 30
    _report(7, routed_ok and unrouted_ok and async_ok,
            "5-hop path %s; unrouted 30 TTLs max_ttl; %d probes emitted "
            "with zero replies back" % ("ok" if routed_ok else "WRONG",
                                        emitted))


def test_criterion_08_router_identity_round_trip():
    topo = make_topology()
    topo.router_id_hosts["203.0.113.5"] = netsim.RouterIdHost(
        frames.RouterIdentity(65001, "core-rtr-1"), rtt_us=9000)
    stack = VirtualStack(topo)
    icmp_id = stack.engine.start_router_id_query("203.0.113.5")
    stack.run()
    row = stack.engine.dump_router_id_query()[str(icmp_id)]
    identity = frames.RouterIdentity(row["asn"], row["ident"])
    query_ok = identity == frames.RouterIdentity(65001, "core-rtr-1")
    # serving disabled: a query frame in through PacketIn gets no PacketOut
    quiet = VirtualStack(make_topology())
    before = len(quiet.switch.emitted)
    quiet.switch.receive_dataplane(frames.build_echo_request(
        src_ip="198.51.100.7", dst_ip="10.0.0.100",
        src_mac="02:aa:aa:aa:aa:01", dst_mac="02:00:00:00:00:64",
        icmp_id=3, icmp_type=frames.ICMP_ROUTER_ID), 1)
    quiet.loop.run_for(1_000_000)
    silent_ok = len(quiet.switch.emitted) == before
    _report(8, query_ok and silent_ok,
            "query returned asn=%d ident=%r; disabled server stayed silent "
            "for 1 s" % (identity.asn, identity.ident))


def test_criterion_09_state_table_lifecycle():
    t0 = time.monotonic()
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    stack = VirtualStack(topo, record_traffic=False)
    app = ApiApp(stack.engine, PolicyConfig(max_probe_rate=1e9))
    body = json.dumps({"tgt": "192.0.2.1", "num": 1}).encode()
    for start in range(0, ID_SPACE, 2048):
        for _ in range(start, min(start + 2048, ID_SPACE)):
            status, _payload = app.dispatch("PUT", "/ping", body)
            assert status == 200
        stack.run()
    status, payload = app.dispatch("PUT", "/ping", body)
    overflow_ok = status == 503 and payload.get("code") == "state_full"
    _status, dump = app.dispatch("GET", "/ping/dump")
    complete = (set(dump) == {str(i) for i in range(ID_SPACE)}
                and all(len(e["probes"]) == 1 for e in dump.values()))
    _status, cleared = app.dispatch("POST", "/ping/clear")
    restored = app.dispatch("PUT", "/ping", body)[0] == 200
    stack.run()
    elapsed = time.monotonic() - t0
    ok = (overflow_ok and complete and cleared == {"cleared": ID_SPACE}
          and restored and elapsed < 120.0)
    _report(9, ok, "%d tasks, overflow 503 %s, dump complete %s, cleared "
            "%d, %.1f s" % (ID_SPACE, overflow_ok, complete,
                            cleared["cleared"], elapsed))


def test_criterion_10_ewma_properties():
    rng = random.Random(0xE13A)
    contraction_ok = True
    for _ in range(200):
        alpha = rng.uniform(0.05, 1.0)
        est = RttEstimator(alpha=alpha)
        est.update(rng.uniform(0, 1e5))
        for _ in range(20):
            s = rng.uniform(0, 1e5)
            old = est.current
            new = est.update(s)
            if abs(new - s) > (1 - alpha) * abs(old - s) + 1e-6:
                contraction_ok = False
    tracking = RttEstimator(alpha=1.0)
    tracking.update(3)
    degenerate_ok = tracking.update(777) == 777
    worked = RttEstimator(alpha=0.5)
    for s in (8, 8, 8, 40):
        worked.update(s)
    example_ok = worked.current == 24.0
    _report(10, contraction_ok and degenerate_ok and example_ok,
            "contraction holds; alpha=1 tracks; 8,8,8,40 -> %s"
            % worked.current)
