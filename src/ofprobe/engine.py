"""Measurement core: probe tasks, reply correlation and RTT correction.

Ping and traceroute are one task model, ProbeTask: num Echo Requests,
seq 0..num-1, where seq leaves with TTL first_ttl + seq // probes_per_ttl.
A ping is one TTL level at the default TTL; a traceroute is MAX_TTL levels
from TTL 1 and stops emitting once the destination answers.  Both kinds
share one start, one emission path and one done rule: a task is done when
its destination answered (traceroutes only) or when emission has finished
and every record that was sent is answered or expired.  Probes skipped
because the session went away leave no record, so a task whose switch
disconnected still ends done.

A probe's controller-to-target round trip includes the control channel and
the switch's processing on both legs.  The engine keeps a smoothed estimate
of the controller-to-switch round trip, refreshed with an OpenFlow echo at
the start of every task, and snapshots it when the task's probes start.
A spaced task (gap_us > 0) also samples the control channel with every
emission after the first: one echo request rides along with each
PacketOut.  A task's rtt_cs is the mean of its start snapshot and the
samples that have come back, and it is subtracted from each raw sample,
clamping at zero:

    rtt = max(0, (t_in - t_out) - rtt_cs)

Averaging k probes then also averages k control-channel samples, so the
error of the estimate shrinks with k instead of staying pinned to one
snapshot.  Back-to-back probes leave in one segment and share one
control-channel draw, so those tasks, like single-probe ones, keep the one
echo taken at start.  Samples stop counting once the task is done, so a
finished task's rtt_cs no longer moves.  The switch's own PacketOut and
PacketIn processing is not part of any echo and stays in the estimate.

Each task has at most one expiry timer.  Probes leave in increasing seq
order, so the task keeps a cursor at its oldest record that may still be
open and one deadline at that record's t_out + probe_timeout_us.  When the
deadline fires it expires every open record whose timeout has passed and
re-arms for the next open one; when the last open record is answered the
deadline is cancelled, so a drained loop's clock stops at the last reply.
A record still expires exactly probe_timeout_us after its own t_out.

A task's Echo Request template (Ethernet header, addresses, payload and
partial checksums) is built once when its probes start and handed along
with each emission, so a probe only stamps its seq and TTL.

ICMP identifiers are allocated from a single 16-bit space shared by every
task kind, so a reply's (id, seq) pair is unambiguous engine-wide.  Ids are
only recycled by an explicit clear; exhausting the space fails new tasks
with StateFull until then.
"""

from dataclasses import dataclass, field

from . import frames, wire
from .eventloop import Future
from .frames import ReplyKind
from .session import ACTIVE, SessionClosed

MAX_TTL = 30
ID_SPACE = 65536

TERMINATED_DESTINATION = "destination_reached"
TERMINATED_MAX_TTL = "max_ttl"
TERMINATED_IN_PROGRESS = "in_progress"


class StateFull(Exception):
    """Every ICMP identifier is in use; dump and clear to recover."""


class NoActiveSession(Exception):
    pass


class NegativeSample(ValueError):
    pass


class RttEstimator:
    """Exponentially weighted moving average over RTT samples.

    The first sample becomes the estimate; each later one folds in as
    current = alpha * sample + (1 - alpha) * current.  alpha = 1 degenerates
    to always trusting the newest sample, which tolerates isolated spikes
    poorly but is sometimes useful for debugging.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.current = None
        self.sample_count = 0

    def update(self, sample_us) -> float:
        if sample_us < 0:
            raise NegativeSample("negative RTT sample %r" % (sample_us,))
        if self.current is None:
            self.current = float(sample_us)
        else:
            self.current = self.alpha * sample_us + (1.0 - self.alpha) * self.current
        self.sample_count += 1
        return self.current


class IdAllocator:
    """16-bit ICMP identifier pool.  Allocation walks forward from the last
    issued id (wrapping), so consecutive tasks get distinct ids even after
    frees."""

    def __init__(self):
        self._next = 0
        self._in_use = set()

    @property
    def in_use(self):
        return len(self._in_use)

    def allocate(self) -> int:
        if len(self._in_use) >= ID_SPACE:
            raise StateFull("all %d ICMP identifiers in use" % ID_SPACE)
        while self._next in self._in_use:
            self._next = (self._next + 1) % ID_SPACE
        out = self._next
        self._in_use.add(out)
        self._next = (self._next + 1) % ID_SPACE
        return out

    def release(self, icmp_id):
        self._in_use.discard(icmp_id)


def corrected_rtt(t_out, t_in, rtt_cs_us):
    """Corrected RTT of one probe, or None while unanswered.  A task whose
    control channel was never sampled (rtt_cs_us None) subtracts zero."""
    if t_in is None:
        return None
    return max(0.0, (t_in - t_out) - (rtt_cs_us or 0.0))


@dataclass(slots=True)
class ProbeRecord:
    icmp_seq: int
    ttl: int
    t_out: int
    t_in: int = None
    responder: str = None
    expired: bool = False

    @property
    def resolved(self):
        return self.t_in is not None or self.expired


@dataclass(slots=True)
class ProbeTask:
    """A ping or a traceroute: num probes, seq leaving with ttl(seq)."""
    icmp_id: int
    target: str
    num: int                  # probes the task emits
    first_ttl: int
    probes_per_ttl: int
    out_port: int
    gap_us: int
    payload: bytes = b""
    rtt_cs_us: float = None   # mean of the task's control-channel samples
    rtt_cs_sum: float = 0.0
    rtt_cs_count: int = 0
    records: dict = field(default_factory=dict)
    oldest_open: int = 0      # no record below this seq is still open
    deadline: object = None   # expiry timer of the oldest open record
    dest_ttl: int = None      # lowest TTL the destination answered from
    emitted_all: bool = False
    cleared: bool = False

    def ttl(self, seq):
        return self.first_ttl + seq // self.probes_per_ttl

    @property
    def done(self):
        return self.dest_ttl is not None or (
            self.emitted_all
            and all(r.resolved for r in self.records.values()))


@dataclass
class ProbeSettings:
    src_ip: str = "10.0.0.100"
    src_mac: str = "02:00:00:00:00:64"
    next_hop_mac: str = "02:00:00:00:00:01"
    out_port: int = 1
    default_ttl: int = 64
    ewma_alpha: float = 0.5
    probe_timeout_us: int = 3_000_000
    probe_gap_us: int = 0
    max_probes_per_task: int = 65535
    flow_priority: int = 100


class MeasurementEngine:
    """Owns tasks, the id space, the RTT estimator and the reply router."""

    def __init__(self, loop, settings=None):
        self.loop = loop
        self.settings = settings or ProbeSettings()
        self.estimator = RttEstimator(self.settings.ewma_alpha)
        self.allocator = IdAllocator()
        self.pings = {}
        self.traceroutes = {}
        self.router_identity = None
        self.router_id_serve = False
        self.counters = {
            "duplicate_replies": 0,
            "late_replies": 0,
            "unknown_replies": 0,
            "malformed_frames": 0,
            "other_frames": 0,
            "echo_timeouts": 0,
            "session_lost": 0,
            "router_id_served": 0,
        }
        self._session = None
        self._pending_rid_queries = {}
        self._primed_ports = set()

    # -- session wiring -----------------------------------------------------

    def attach_session(self, session):
        """Adopt an active switch session: steer replies here and take over
        its PacketIn feed.  The engine drives one switch at a time; a newer
        session replaces the old one."""
        session.packet_in_handler = self._on_packet_in
        session.close_handler = self._on_session_closed
        session.install_reply_flows(self.settings.src_ip,
                                    self.settings.flow_priority)
        self._session = session
        # a new switch means cold upstream ARP caches
        self._primed_ports = set()
        self._prime_port(session, self.settings.out_port)

    def _prime_port(self, session, port):
        """Announce our address out one port so the reply path resolves
        before the first probe.  Once per port per session: re-announcing
        ahead of every task would queue the ARP in front of the probe and
        skew its emission time."""
        arp = frames.build_gratuitous_arp(self.settings.src_ip,
                                          self.settings.src_mac)
        session.send_probe(port, arp)
        self._primed_ports.add(port)

    def _on_session_closed(self, session, exc):
        if self._session is session:
            self._session = None

    @property
    def session(self):
        return self._session

    def session_active(self):
        return self._session is not None and self._session.state == ACTIVE

    def _require_session(self):
        if not self.session_active():
            raise NoActiveSession("no active switch session")
        return self._session

    # -- task startup ---------------------------------------------------------

    def start_ping(self, target, num, payload=b"", out_port=None,
                   gap_us=None) -> int:
        if not 1 <= num <= self.settings.max_probes_per_task:
            raise ValueError("num must be in 1..%d"
                             % self.settings.max_probes_per_task)
        frames.check_echo_payload(payload)
        return self._start(self.pings, target, num, out_port, gap_us,
                           first_ttl=self.settings.default_ttl,
                           probes_per_ttl=num, payload=bytes(payload))

    def start_traceroute(self, target, probes_per_ttl=1, out_port=None,
                         gap_us=None) -> int:
        if probes_per_ttl < 1 or MAX_TTL * probes_per_ttl > ID_SPACE:
            raise ValueError("probes_per_ttl must be in 1..%d"
                             % (ID_SPACE // MAX_TTL))
        return self._start(self.traceroutes, target, MAX_TTL * probes_per_ttl,
                           out_port, gap_us, first_ttl=1,
                           probes_per_ttl=probes_per_ttl)

    def _start(self, table, target, num, out_port, gap_us, first_ttl,
               probes_per_ttl, payload=b""):
        """Allocate an id and begin a task.  Probes flow only after a
        fresh control-channel RTT sample.  A bad target raises
        wire.UnencodableMessage before any id is taken."""
        wire.ip_to_bytes(target)
        session = self._require_session()
        task = ProbeTask(
            icmp_id=self.allocator.allocate(), target=target, num=num,
            first_ttl=first_ttl, probes_per_ttl=probes_per_ttl,
            out_port=self.settings.out_port if out_port is None else out_port,
            gap_us=self.settings.probe_gap_us if gap_us is None else gap_us,
            payload=payload)
        table[task.icmp_id] = task
        if task.out_port not in self._primed_ports:
            self._prime_port(session, task.out_port)
        fut = session.sample_switch_rtt()
        fut.add_done_callback(lambda f: self._after_echo(f, task))
        return task.icmp_id

    def _after_echo(self, fut, task):
        if task.cleared:
            return
        exc = fut.exception()
        if exc is None:
            self.estimator.update(fut.result())
        else:
            # Probing proceeds on the last known estimate rather than
            # stalling the task behind a lost echo.
            self._count_echo_failure(exc)
        self._add_rtt_cs(task, self.estimator.current or 0.0)
        self._emit(task)

    def _after_emission_echo(self, fut, task):
        """Keep an echo sent alongside a spaced emission as the task's own
        sample; the smoothed estimate keeps feeding from task starts only.
        The callback holds the task itself, so an echo outliving a clear
        can never land on a later task that recycled the id."""
        if task.cleared:
            return
        exc = fut.exception()
        if exc is not None:
            self._count_echo_failure(exc)
        elif not task.done:
            self._add_rtt_cs(task, fut.result())

    def _count_echo_failure(self, exc):
        """An echo the closing session abandoned was never timed out."""
        if isinstance(exc, SessionClosed):
            self.counters["session_lost"] += 1
        else:
            self.counters["echo_timeouts"] += 1

    @staticmethod
    def _add_rtt_cs(task, sample_us):
        task.rtt_cs_sum += sample_us
        task.rtt_cs_count += 1
        task.rtt_cs_us = task.rtt_cs_sum / task.rtt_cs_count

    # -- probe emission --------------------------------------------------------

    def _emit(self, task):
        template = frames.echo_request_template(
            self.settings.src_ip, task.target, self.settings.src_mac,
            self.settings.next_hop_mac, task.icmp_id, task.payload)
        for seq in range(task.num):
            if task.gap_us:
                self.loop.call_later(seq * task.gap_us,
                                     self._send_probe, task, template, seq)
            else:
                self._send_probe(task, template, seq)

    def _send_probe(self, task, template, seq):
        """Emit probe seq unless the task was cleared, its destination has
        answered or the session is gone.  The last seq marks emission
        finished once its record exists, so a dump taken mid-task never
        reads as done."""
        if not task.cleared and task.dest_ttl is None \
                and self.session_active():
            ttl = task.ttl(seq)
            frame = frames.stamp_echo_request(template, seq, ttl)
            t_out = self._session.send_probe(task.out_port, frame)
            if task.gap_us and task.records:
                # Written after the PacketOut so it never delays the probe's
                # emission; on the virtual transport the two share a segment.
                fut = self._session.sample_switch_rtt()
                fut.add_done_callback(
                    lambda f: self._after_emission_echo(f, task))
            task.records[seq] = ProbeRecord(icmp_seq=seq, ttl=ttl, t_out=t_out)
            if task.deadline is None:
                # nothing else is open, so this record is the oldest open one
                task.oldest_open = seq
                task.deadline = self.loop.call_at(
                    t_out + self.settings.probe_timeout_us,
                    self._expire_records, task)
        if seq == task.num - 1:
            task.emitted_all = True

    def _oldest_open(self, task):
        """Move the task's cursor past resolved seqs, and past seqs never
        sent because the session was down; returns the record it stops
        at, or None when no record is open."""
        records = task.records
        last = next(reversed(records))
        seq = task.oldest_open
        while seq <= last:
            record = records.get(seq)
            if record is not None and not record.resolved:
                task.oldest_open = seq
                return record
            seq += 1
        task.oldest_open = seq
        return None

    def _expire_records(self, task):
        """The task's deadline: expire each open record whose timeout has
        passed, then re-arm for the oldest record still open."""
        timeout = self.settings.probe_timeout_us
        cutoff = self.loop.now_us() - timeout
        record = self._oldest_open(task)
        while record is not None and record.t_out <= cutoff:
            record.expired = True
            record = self._oldest_open(task)
        task.deadline = None if record is None else self.loop.call_at(
            record.t_out + timeout, self._expire_records, task)

    # -- reply handling -----------------------------------------------------------

    def _on_packet_in(self, frame, t_in, in_port):
        try:
            reply = frames.parse_reply(frame)
        except frames.MalformedFrame:
            self.counters["malformed_frames"] += 1
            return
        if reply.kind == ReplyKind.ECHO_REPLY:
            self._route_echo_reply(reply, t_in)
        elif reply.kind == ReplyKind.TIME_EXCEEDED:
            self._route_time_exceeded(reply, t_in)
        elif reply.kind == ReplyKind.ROUTER_ID_REPLY:
            self._route_router_id_reply(reply)
        else:
            self._handle_other(frame, in_port)

    def _route_echo_reply(self, reply, t_in):
        task = self.pings.get(reply.icmp_id)
        if task is not None:
            self._fill_record(task, reply, t_in)
            return
        task = self.traceroutes.get(reply.icmp_id)
        if task is not None:
            # only a traceroute stops at the destination
            ttl = task.ttl(reply.icmp_seq)
            if self._fill_record(task, reply, t_in):
                if task.dest_ttl is None or ttl < task.dest_ttl:
                    task.dest_ttl = ttl
            return
        self.counters["unknown_replies"] += 1

    def _route_time_exceeded(self, reply, t_in):
        task = self.traceroutes.get(reply.icmp_id)
        if task is None:
            self.counters["unknown_replies"] += 1
            return
        self._fill_record(task, reply, t_in)

    def _fill_record(self, task, reply, t_in):
        """First answer wins; duplicates and post-expiry stragglers only
        bump counters.  Returns True when the record was filled."""
        record = task.records.get(reply.icmp_seq)
        if record is None:
            self.counters["unknown_replies"] += 1
            return False
        if record.t_in is not None:
            self.counters["duplicate_replies"] += 1
            return False
        if record.expired:
            self.counters["late_replies"] += 1
            return False
        record.t_in = t_in
        record.responder = reply.responder_ip
        if reply.icmp_seq == task.oldest_open \
                and self._oldest_open(task) is None:
            task.deadline.cancel()
            task.deadline = None
        return True

    def _route_router_id_reply(self, reply):
        entry = self._pending_rid_queries.pop(reply.icmp_id, None)
        if entry is None:
            self.counters["unknown_replies"] += 1
            return
        fut, timer = entry
        timer.cancel()
        self.allocator.release(reply.icmp_id)
        identity = frames.decode_router_identity(reply.payload)
        if identity is None:
            fut.set_exception(frames.MalformedFrame("undecodable identity"))
        else:
            fut.set_result(identity)

    def _handle_other(self, frame, in_port):
        if self.router_id_serve and self.router_identity is not None \
                and self.session_active():
            query = frames.parse_router_id_query(frame)
            if query is not None:
                reply = frames.build_router_id_reply(frame, self.router_identity)
                self._session.send_probe(in_port, reply)
                self.counters["router_id_served"] += 1
                return
        self.counters["other_frames"] += 1

    # -- router identity -----------------------------------------------------------

    def set_router_config(self, serve, identity):
        self.router_id_serve = serve
        self.router_identity = identity

    def start_router_id_query(self, target, out_port=None,
                              timeout_us=2_000_000):
        """Ask a remote host for its identity.  The future resolves with a
        RouterIdentity or fails with TimeoutError."""
        wire.ip_to_bytes(target)
        session = self._require_session()
        icmp_id = self.allocator.allocate()
        frame = frames.build_router_id_query(
            self.settings.src_ip, target, self.settings.src_mac,
            self.settings.next_hop_mac, icmp_id=icmp_id)
        fut = Future()
        timer = self.loop.call_later(timeout_us, self._expire_rid_query, icmp_id)
        self._pending_rid_queries[icmp_id] = (fut, timer)
        session.send_probe(self.settings.out_port if out_port is None
                           else out_port, frame)
        return fut

    def _expire_rid_query(self, icmp_id):
        entry = self._pending_rid_queries.pop(icmp_id, None)
        if entry is not None:
            self.allocator.release(icmp_id)
            entry[0].set_exception(TimeoutError("identity query unanswered"))

    # -- dumps and clears -------------------------------------------------------------

    def dump_ping(self):
        out = {}
        for icmp_id, task in self.pings.items():
            probes = []
            for seq in sorted(task.records):
                r = task.records[seq]
                probes.append([r.t_out, r.t_in, r.responder])
            out[str(icmp_id)] = {
                "tgt": task.target,
                "rtt_cs_us": task.rtt_cs_us,
                "probes": probes,
            }
        return out

    def dump_traceroute(self):
        out = {}
        for icmp_id, task in self.traceroutes.items():
            state = (TERMINATED_DESTINATION if task.dest_ttl is not None
                     else TERMINATED_MAX_TTL if task.done
                     else TERMINATED_IN_PROGRESS)
            last_ttl = task.dest_ttl or MAX_TTL
            hops = {}
            for ttl in range(1, last_ttl + 1):
                row = []
                for idx in range(task.probes_per_ttl):
                    record = task.records.get((ttl - 1) * task.probes_per_ttl + idx)
                    if record is None or record.t_in is None:
                        row.append([None, None])
                    else:
                        row.append([record.responder,
                                    corrected_rtt(record.t_out, record.t_in,
                                                  task.rtt_cs_us)])
                hops[str(ttl)] = row
            out[str(icmp_id)] = {
                "tgt": task.target,
                "probes_per_ttl": task.probes_per_ttl,
                "rtt_cs_us": task.rtt_cs_us,
                "terminated": state,
                "hops": hops,
            }
        return out

    def clear_ping(self):
        return self._clear_tasks(self.pings)

    def clear_traceroute(self):
        return self._clear_tasks(self.traceroutes)

    def _clear_tasks(self, table):
        """Drop every task in the table and free its id; returns how many
        were dropped."""
        cleared = len(table)
        for icmp_id, task in table.items():
            task.cleared = True
            if task.deadline is not None:
                task.deadline.cancel()
            self.allocator.release(icmp_id)
        table.clear()
        return cleared
