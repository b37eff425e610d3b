"""Simulated OpenFlow switch with a parametric delay model.

The switch speaks the same wire protocol as real hardware: it completes the
handshake, stores flow rules, executes PacketOut after a sampled processing
delay, and lifts matching dataplane frames into PacketIn after another.
Replies from the emulated network come back per a per-target description
(base RTT, loss, intermediate hops).  Under a virtual-clock loop the whole
arrangement is deterministic for a fixed seed; under a realtime loop it can
dial into a live controller over TCP.

Delay conventions, all one-way and in microseconds:
  control_link_delay  controller <-> switch, applied per segment per direction
  pktout_delay        PacketOut receipt to frame emission on the wire
  pktin_delay         reply receipt on the wire to PacketIn transmission
Consecutive emissions never reorder: a slow sample delays every later frame
past it rather than letting a later frame overtake.
"""

import argparse
import logging
import random
import re
from dataclasses import dataclass, field

from . import frames, transport, wire
from .eventloop import EventLoop

log = logging.getLogger(__name__)

DEFAULT_BUNDLE_PENALTY_US = 17

TOPOLOGY_MAGIC = "simtopo"
TOPOLOGY_VERSION = "v1"


class TopologyError(Exception):
    pass


class UnknownTarget(KeyError):
    pass


_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(us|ms|s)$")
_SCALE = {"us": 1, "ms": 1000, "s": 1_000_000}


def parse_duration_us(text):
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise TopologyError("bad duration %r (want e.g. 1.5ms, 17us, 2s)" % text)
    return int(round(float(m.group(1)) * _SCALE[m.group(2)]))


def format_duration_us(us):
    if us % 1_000_000 == 0 and us:
        return "%ds" % (us // 1_000_000)
    if us % 1000 == 0:
        return "%dms" % (us // 1000)
    return "%dus" % us


class ConstantDelay:
    def __init__(self, us):
        self.us = int(us)

    def sample(self, rng):
        return self.us

    def spec(self):
        return "constant %s" % format_duration_us(self.us)


class UniformDelay:
    def __init__(self, lo_us, hi_us):
        if lo_us > hi_us:
            raise TopologyError("uniform delay bounds out of order")
        self.lo_us = int(lo_us)
        self.hi_us = int(hi_us)

    def sample(self, rng):
        return int(round(rng.uniform(self.lo_us, self.hi_us)))

    def spec(self):
        return "uniform %s %s" % (format_duration_us(self.lo_us),
                                  format_duration_us(self.hi_us))


class MixtureDelay:
    """Weighted mixture of sub-models; weights must sum to one."""

    def __init__(self, parts):
        total = sum(w for w, _m in parts)
        if abs(total - 1.0) > 1e-9:
            raise TopologyError("mixture weights sum to %g, not 1" % total)
        self.parts = list(parts)

    def sample(self, rng):
        x = rng.random()
        acc = 0.0
        for weight, model in self.parts:
            acc += weight
            if x < acc:
                return model.sample(rng)
        return self.parts[-1][1].sample(rng)

    def spec(self):
        return "mixture " + " / ".join(
            "%g %s" % (w, m.spec()) for w, m in self.parts)


def parse_delay_model(text):
    """constant 5ms | uniform 1.5ms 2ms | mixture 0.97 uniform 1.5ms 2ms / ..."""
    words = text.split()
    if not words:
        raise TopologyError("empty delay spec")
    kind = words[0]
    if kind == "constant":
        if len(words) != 2:
            raise TopologyError("constant takes one duration")
        return ConstantDelay(parse_duration_us(words[1]))
    if kind == "uniform":
        if len(words) != 3:
            raise TopologyError("uniform takes two durations")
        return UniformDelay(parse_duration_us(words[1]),
                            parse_duration_us(words[2]))
    if kind == "mixture":
        parts = []
        for chunk in " ".join(words[1:]).split("/"):
            sub = chunk.split()
            if len(sub) < 2:
                raise TopologyError("mixture component %r incomplete" % chunk)
            parts.append((float(sub[0]), parse_delay_model(" ".join(sub[1:]))))
        return MixtureDelay(parts)
    raise TopologyError("unknown delay model %r" % kind)


def default_pktout_delay():
    """Hardware-derived PacketOut processing profile: a tight band between
    1.5 and 2 ms for 97% of messages, with rare 23 ms and 50 ms stalls."""
    return MixtureDelay([
        (0.97, UniformDelay(1500, 2000)),
        (0.02, ConstantDelay(23_000)),
        (0.01, ConstantDelay(50_000)),
    ])


def default_pktin_delay():
    """PacketIn generation profile: sub-millisecond for 95% of frames with a
    tail stretching to 3 ms."""
    return MixtureDelay([
        (0.95, UniformDelay(300, 1000)),
        (0.05, UniformDelay(1000, 3000)),
    ])


@dataclass
class TargetSpec:
    """One reachable address: its true RTT from the switch port, loss, and
    the routers a TTL-limited probe would expire at."""
    base_rtt_us: int
    loss_prob: float = 0.0
    responds: bool = True
    hops: list = field(default_factory=list)


@dataclass
class RouterIdHost:
    identity: frames.RouterIdentity
    rtt_us: int = 1000


@dataclass
class SimTopology:
    dpid: int = 1
    ports: list = field(default_factory=lambda: [1])
    seed: int = 0
    control_link: object = field(default_factory=lambda: ConstantDelay(0))
    pktout_delay: object = field(default_factory=default_pktout_delay)
    pktin_delay: object = field(default_factory=default_pktin_delay)
    bundle_penalty_us: int = DEFAULT_BUNDLE_PENALTY_US
    targets: dict = field(default_factory=dict)
    router_id_hosts: dict = field(default_factory=dict)

    def validate(self):
        for ip, target in self.targets.items():
            if not 0.0 <= target.loss_prob <= 1.0:
                raise TopologyError("target %s loss %r outside [0,1]"
                                    % (ip, target.loss_prob))
            if target.base_rtt_us <= 0:
                raise TopologyError("target %s needs a positive RTT" % ip)
            hop_sum = 2 * sum(d for _ip, d in target.hops)
            if hop_sum > target.base_rtt_us:
                raise TopologyError(
                    "target %s hop delays (%d us round trip) exceed its base "
                    "RTT" % (ip, hop_sum))
        return self


def ground_truth_rtt(topology, target_ip):
    """True switch-port-to-target RTT in microseconds; the oracle every
    estimate is judged against."""
    target = topology.targets.get(target_ip)
    if target is None:
        raise UnknownTarget(target_ip)
    return target.base_rtt_us


# -- topology file -------------------------------------------------------


def parse_topology(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TopologyError("empty topology document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != TOPOLOGY_MAGIC:
        raise TopologyError("missing '%s <version>' header" % TOPOLOGY_MAGIC)
    if head[1] != TOPOLOGY_VERSION:
        raise TopologyError("unsupported topology version %r" % head[1])
    topo = SimTopology()
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        rest = rest.strip()
        if key == "dpid":
            topo.dpid = int(rest, 0)
        elif key == "ports":
            topo.ports = [int(p) for p in rest.split()]
        elif key == "seed":
            topo.seed = int(rest)
        elif key == "control_link":
            topo.control_link = parse_delay_model(rest)
        elif key == "pktout_delay":
            topo.pktout_delay = parse_delay_model(rest)
        elif key == "pktin_delay":
            topo.pktin_delay = parse_delay_model(rest)
        elif key == "bundle_penalty":
            topo.bundle_penalty_us = parse_duration_us(rest)
        elif key == "target":
            ip, spec = _parse_target_line(rest)
            topo.targets[ip] = spec
        elif key == "router_id_host":
            ip, host = _parse_router_id_line(rest)
            topo.router_id_hosts[ip] = host
        else:
            raise TopologyError("unknown topology directive %r" % key)
    return topo.validate()


def _parse_kv(words):
    if len(words) % 2:
        raise TopologyError("dangling key in %r" % (words,))
    return {words[i]: words[i + 1] for i in range(0, len(words), 2)}


def _parse_target_line(rest):
    words = rest.split()
    if not words:
        raise TopologyError("target line without an address")
    ip = words[0]
    kv = _parse_kv(words[1:])
    if "rtt" not in kv:
        raise TopologyError("target %s has no rtt" % ip)
    spec = TargetSpec(base_rtt_us=parse_duration_us(kv.pop("rtt")))
    if "loss" in kv:
        spec.loss_prob = float(kv.pop("loss"))
    if "respond" in kv:
        spec.responds = kv.pop("respond") in ("yes", "true", "1")
    if "hops" in kv:
        for part in kv.pop("hops").split(","):
            hop_ip, _, dur = part.partition(":")
            if not dur:
                raise TopologyError("hop %r needs ip:delay" % part)
            spec.hops.append((hop_ip, parse_duration_us(dur)))
    if kv:
        raise TopologyError("unknown target keys %r" % sorted(kv))
    return ip, spec


def _parse_router_id_line(rest):
    words = rest.split()
    if not words:
        raise TopologyError("router_id_host line without an address")
    ip = words[0]
    kv = _parse_kv(words[1:])
    try:
        identity = frames.RouterIdentity(int(kv.pop("asn")), kv.pop("ident"))
    except KeyError as exc:
        raise TopologyError("router_id_host %s missing %s" % (ip, exc))
    host = RouterIdHost(identity)
    if "rtt" in kv:
        host.rtt_us = parse_duration_us(kv.pop("rtt"))
    if kv:
        raise TopologyError("unknown router_id_host keys %r" % sorted(kv))
    return ip, host


def format_topology(topo):
    out = ["%s %s" % (TOPOLOGY_MAGIC, TOPOLOGY_VERSION)]
    out.append("dpid %#x" % topo.dpid)
    out.append("ports %s" % " ".join(str(p) for p in topo.ports))
    out.append("seed %d" % topo.seed)
    out.append("control_link %s" % topo.control_link.spec())
    out.append("pktout_delay %s" % topo.pktout_delay.spec())
    out.append("pktin_delay %s" % topo.pktin_delay.spec())
    out.append("bundle_penalty %s" % format_duration_us(topo.bundle_penalty_us))
    for ip, t in topo.targets.items():
        parts = ["target %s rtt %s" % (ip, format_duration_us(t.base_rtt_us))]
        if t.loss_prob:
            parts.append("loss %g" % t.loss_prob)
        if not t.responds:
            parts.append("respond no")
        if t.hops:
            parts.append("hops " + ",".join(
                "%s:%s" % (hip, format_duration_us(d)) for hip, d in t.hops))
        out.append(" ".join(parts))
    for ip, h in topo.router_id_hosts.items():
        out.append("router_id_host %s asn %d ident %s rtt %s"
                   % (ip, h.identity.asn, h.identity.ident,
                      format_duration_us(h.rtt_us)))
    return "\n".join(out) + "\n"


def load_topology(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


# -- dataplane ------------------------------------------------------------


def dataplane_process(topology, frame, emit_us, rng):
    """What the emulated network sends back for one emitted frame.

    Returns [(reply_frame, arrival_us)].  Echo requests that outlive the
    hop count draw the target's base RTT; a TTL of k expiring at hop k
    yields Time Exceeded after twice the first k one-way hop delays.
    Identity queries are answered by configured hosts.  Everything else
    (ARP announcements included) sinks silently.  The frame is parsed once;
    the reply builders reuse that view.
    """
    view = frames.parse_icmp(frame)
    if view is None:
        return []
    icmp_type, code, _id, _seq, ttl, _src, dst_ip, _msg, _ed, _es = view
    if icmp_type == frames.ICMP_ECHO_REQUEST:
        target = topology.targets.get(wire.ip_from_bytes(dst_ip))
        if target is None:
            return []
        if target.loss_prob and rng.random() < target.loss_prob:
            return []
        if ttl <= len(target.hops):
            router_ip, _d = target.hops[ttl - 1]
            delay = 2 * sum(d for _ip, d in target.hops[:ttl])
            return [(frames.build_time_exceeded(router_ip, frame, view),
                     emit_us + delay)]
        if not target.responds:
            return []
        return [(frames.build_echo_reply(frame, view),
                 emit_us + target.base_rtt_us)]
    if icmp_type == frames.ICMP_ROUTER_ID and code == frames.ROUTER_ID_QUERY:
        host = topology.router_id_hosts.get(wire.ip_from_bytes(dst_ip))
        if host is None:
            return []
        return [(frames.build_router_id_reply(frame, host.identity, view),
                 emit_us + host.rtt_us)]
    return []


@dataclass
class FlowRule:
    priority: int
    seqno: int
    match: object  # items view; a subset of a frame's fields is a match
    out_port: int


class SimSwitch:
    """One simulated switch bound to one controller connection.

    All behavior is scheduled on the owning event loop; with a virtual
    clock the run is bit-reproducible for a fixed topology seed.  When
    record_traffic is set the switch keeps an event log
    [(kind, t_us, counter)] and the emitted frames for inspection, and
    optionally streams the log to a CSV file.
    """

    def __init__(self, loop, topology, record_traffic=True,
                 event_log_path=None):
        self.loop = loop
        self.topology = topology
        self.rng = random.Random(topology.seed)
        self.record_traffic = record_traffic
        self.events = []
        self.emitted = []
        self.flow_rules = []
        self.counters = {"unmatched_frames": 0, "packet_out": 0,
                         "packet_in": 0}
        self._conn = None
        self._framer = wire.MessageStream()
        self._xid = 0
        self._rule_seq = 0
        self._last_emit_us = 0
        self._last_pktin_us = 0
        self._event_index = 0
        self._log_fh = None
        if event_log_path:
            self._log_fh = open(event_log_path, "w", encoding="utf-8")
            self._log_fh.write("event,t_us,index\n")

    def attach(self, conn):
        self._conn = conn
        conn.set_receiver(self._on_segment)
        self._send(wire.hello(self._next_xid()))

    def close(self):
        if self._conn is not None:
            self._conn.close()
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    def _next_xid(self):
        self._xid = (self._xid + 1) & 0xFFFFFFFF
        return self._xid

    def _send(self, msg):
        # a reply still in the dataplane when the switch hangs up is lost
        if not self._conn.closed:
            self._conn.send(wire.encode_message(msg))

    def _log(self, kind, t_us):
        idx = self._event_index
        self._event_index += 1
        if self.record_traffic:
            self.events.append((kind, t_us, idx))
        if self._log_fh is not None:
            self._log_fh.write("%s,%d,%d\n" % (kind, t_us, idx))
            self._log_fh.flush()

    # -- control channel ---------------------------------------------------

    def _on_segment(self, segment):
        messages = self._framer.feed(segment)
        n_packet_out = sum(1 for m in messages
                           if m.msg_type == wire.OFPT_PACKET_OUT)
        for msg in messages:
            self._dispatch(msg, bundled=n_packet_out > 1)

    def _dispatch(self, msg, bundled):
        t = msg.msg_type
        if t == wire.OFPT_FEATURES_REQUEST:
            self._send(wire.features_reply(msg.xid, self.topology.dpid,
                                           n_buffers=0, n_tables=254))
        elif t == wire.OFPT_ECHO_REQUEST:
            self._send(wire.echo_reply(msg.xid, msg.body))
        elif t == wire.OFPT_FLOW_MOD:
            self._rule_seq += 1
            self.flow_rules.append(FlowRule(msg.body.priority, self._rule_seq,
                                            dict(msg.body.match).items(),
                                            msg.body.out_port))
        elif t == wire.OFPT_PACKET_OUT:
            self._handle_packet_out(msg.body, bundled)

    def _handle_packet_out(self, body, bundled):
        now = self.loop.now_us()
        self.counters["packet_out"] += 1
        self._log("pktout_recv", now)
        delay = self.topology.pktout_delay.sample(self.rng)
        if bundled:
            delay += self.topology.bundle_penalty_us
        emit_at = max(now + delay, self._last_emit_us)
        self._last_emit_us = emit_at
        port = body.actions[0].port if body.actions else 0
        self.loop.call_at(emit_at, self._emit, body.frame, port)

    def _emit(self, frame, port):
        now = self.loop.now_us()
        self._log("probe_emit", now)
        if self.record_traffic:
            self.emitted.append((now, port, frame))
        for reply, arrive_at in dataplane_process(self.topology, frame, now,
                                                  self.rng):
            self.loop.call_at(arrive_at, self.receive_dataplane, reply, port)

    # -- dataplane ingress --------------------------------------------------

    def receive_dataplane(self, frame, port):
        """A frame arrives on a switch port; consult the flow table."""
        now = self.loop.now_us()
        self._log("resp_recv", now)
        rule = self._best_match(frame)
        if rule is None:
            self.counters["unmatched_frames"] += 1
            return
        send_at = max(now + self.topology.pktin_delay.sample(self.rng),
                      self._last_pktin_us)
        self._last_pktin_us = send_at
        self.loop.call_at(send_at, self._send_packet_in, frame, port)

    def _best_match(self, frame):
        fields = frames.match_fields(frame).items()
        best = None
        for rule in self.flow_rules:
            if rule.match <= fields:
                if best is None or (rule.priority, rule.seqno) > \
                        (best.priority, best.seqno):
                    best = rule
        return best

    def _send_packet_in(self, frame, port):
        now = self.loop.now_us()
        self.counters["packet_in"] += 1
        self._log("pktin_send", now)
        self._send(wire.packet_in(self._next_xid(), port, frame))

    # -- analysis helpers ----------------------------------------------------

    def processing_delays(self):
        """Pair the event log into (pktout delays, pktin delays, reorderings).

        Ordering is structural (matching receive k with emit k), so the
        reordering count flags any emission that overtook an earlier one.
        """
        return pair_event_log(self.events)


def pair_event_log(events):
    pktout_recv = [t for kind, t, _i in events if kind == "pktout_recv"]
    probe_emit = [t for kind, t, _i in events if kind == "probe_emit"]
    resp_recv = [t for kind, t, _i in events if kind == "resp_recv"]
    pktin_send = [t for kind, t, _i in events if kind == "pktin_send"]
    pktout_delays = [e - r for r, e in zip(pktout_recv, probe_emit)]
    pktin_delays = [s - r for r, s in zip(resp_recv, pktin_send)]
    reorderings = sum(1 for a, b in zip(probe_emit, probe_emit[1:]) if b < a)
    reorderings += sum(1 for a, b in zip(pktin_send, pktin_send[1:]) if b < a)
    return pktout_delays, pktin_delays, reorderings


def load_event_log(path):
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("event,"):
            raise TopologyError("not an event log: %s" % path)
        for line in fh:
            kind, t_us, idx = line.strip().split(",")
            events.append((kind, int(t_us), int(idx)))
    return events


def run_sim_switch(loop, topology, controller=None, conn=None,
                   record_traffic=True, event_log_path=None):
    """Start a switch on an existing connection or dial a controller."""
    switch = SimSwitch(loop, topology, record_traffic=record_traffic,
                       event_log_path=event_log_path)
    if conn is None:
        if controller is None:
            raise ValueError("need a connection or a controller address")
        host, _, port = controller.partition(":")
        conn = transport.connect_tcp(loop, host, int(port or 6633))
    switch.attach(conn)
    return switch


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ofprobe-simswitch",
        description="Dial a controller and emulate a switch plus dataplane "
                    "from a topology file.")
    parser.add_argument("--topology", required=True)
    parser.add_argument("--controller", default="127.0.0.1:6633",
                        help="host:port of the OpenFlow listener")
    parser.add_argument("--event-log", default=None,
                        help="CSV file for switch-side timing events")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    topology = load_topology(args.topology)
    loop = EventLoop(realtime=True)
    switch = run_sim_switch(loop, topology, controller=args.controller,
                            event_log_path=args.event_log)
    log.info("switch %#x connected to %s", topology.dpid, args.controller)
    try:
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        switch.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
