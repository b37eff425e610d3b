"""Measurement core: probe tasks, reply correlation and RTT correction.

Ping, traceroute and the router-identity query are one task model,
ProbeTask: num probes, seq 0..num-1, where seq leaves with TTL first_ttl +
seq // probes_per_ttl.  A ping is one TTL level of Echo Requests at the
default TTL; a traceroute is MAX_TTL levels from TTL 1 and stops emitting
once the destination answers; an identity query is one ICMP type 200 probe
whose reply also fills the task's identity.  Each kind is a schedule and a
reply matcher: all share one start, emission path, expiry, clear and done
rule.  One matcher serves every reply: a table maps the reply's kind to the
task tables searched by id, each with the filler that fills the record and
applies the kind's one effect (a traceroute's dest_ttl, a query's
identity).  A task is done when its destination answered (traceroutes
only) or when emission has finished and every record that was sent is
answered or expired.  A task's probes and emission echoes go out through
the session it started on, also once a newer one is attached; probes
skipped because that session went away leave no record, so a task whose
switch disconnected still ends done.

A probe's controller-to-target round trip includes the control channel and
the switch's processing on both legs.  The engine keeps a smoothed estimate
of the controller-to-switch round trip, refreshed with an OpenFlow echo at
the start of every task, and snapshots it when the task's probes start.
A spaced task (gap_us > 0) also samples the control channel with every
emission after the first: one echo request rides along with each
PacketOut.  One callback, _after_echo, takes both kinds of echo.  A
task's rtt_cs is the mean of its start snapshot and the samples that have
come back, and it is subtracted from each raw sample, clamping at zero:

    rtt = max(0, (t_in - t_out) - rtt_cs)

Averaging k probes then also averages k control-channel samples, so the
error of the estimate shrinks with k instead of staying pinned to one
snapshot.  Back-to-back probes leave in one segment and share one
control-channel draw, so those tasks, like single-probe ones, keep the one
echo taken at start.  Samples stop counting once the task is done, so a
finished task's rtt_cs no longer moves.  The switch's own PacketOut and
PacketIn processing is not part of any echo and stays in the estimate.

The engine has one expiry timer.  All records share one timeout and t_out
never goes back, so records expire in send order: sent records wait in one
FIFO, with one deadline at the head's t_out + probe_timeout_us.  When it
fires it drops answered records and those of cleared tasks from the head,
expires the open ones past their timeout and re-arms for the oldest one
left, so a record expires exactly probe_timeout_us after its own t_out.
Each task and the engine count their open records; at zero the deadline is
cancelled and the FIFO emptied, so a drained loop's clock stops at the last
reply.  Records never point back at their task, so a clear frees its tasks
by reference counting alone.

A task is settled once emission has finished and no record is open: its
dump row can no longer change, as replies fill only open records and rtt_cs
stops moving once the task is done.  The first dump that sees a task
settled keeps its row on the task for every later dump to reuse.  Dumps
share rows, so none is written once built: the API renders it off the loop.

A task's probe template (Ethernet header, addresses, payload and
partial checksums) is built once when its probes start and handed along
with each emission, so a probe only stamps its seq and TTL.

ICMP identifiers are allocated from a single 16-bit space shared by every
task kind, so a reply's (id, seq) pair is unambiguous engine-wide.  Ids are
only recycled by an explicit clear; exhausting the space fails new tasks
with StateFull until then.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from . import frames, wire
from .frames import ICMP_ECHO_REQUEST, ICMP_ROUTER_ID, ReplyKind
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
    t_out: int
    t_in: int = None
    responder: str = None
    expired: bool = False


@dataclass(slots=True)
class ProbeTask:
    """A task of any kind: num probes, seq leaving with ttl(seq)."""
    icmp_id: int
    target: str
    num: int                  # probes the task emits
    first_ttl: int
    probes_per_ttl: int
    out_port: int
    gap_us: int
    payload: bytes = b""
    icmp_type: int = ICMP_ECHO_REQUEST
    rtt_cs_us: float = None   # mean of the task's control-channel samples
    rtt_cs_sum: float = 0.0
    rtt_cs_count: int = 0
    records: dict = field(default_factory=dict)
    open: int = 0             # records sent and not yet answered or expired
    dest_ttl: int = None      # lowest TTL the destination answered from
    emitted_all: bool = False
    cleared: bool = False
    identity: frames.RouterIdentity = None  # an identity query's answer
    row: dict = None          # dump row, kept once the task is settled
    session: object = None    # the switch session the task started on

    def ttl(self, seq):
        return self.first_ttl + seq // self.probes_per_ttl

    @property
    def done(self):
        return self.dest_ttl is not None or (
            self.emitted_all and not self.open)


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


class MeasurementEngine:
    """Owns tasks, the id space, the RTT estimator and the reply matcher."""

    def __init__(self, loop, settings=None):
        self.loop = loop
        self.settings = settings or ProbeSettings()
        self.estimator = RttEstimator(self.settings.ewma_alpha)
        self.allocator = IdAllocator()
        self.pings = {}
        self.traceroutes = {}
        self.router_id_queries = {}
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
        self._primed_ports = set()
        self._src_ip = wire.ip_to_bytes(self.settings.src_ip)
        self._src_mac = frames.mac_to_bytes(self.settings.src_mac)
        self._next_hop_mac = frames.mac_to_bytes(self.settings.next_hop_mac)
        self._sent = deque()      # (task, record) in t_out order
        self._open = 0            # open records over every task
        self._deadline = None     # expiry timer of the FIFO's head
        # reply kind -> (task table, filler) pairs, searched in order
        self._matchers = {
            ReplyKind.ECHO_REPLY: ((self.pings, self._fill_record),
                                   (self.traceroutes, self._fill_reached)),
            ReplyKind.TIME_EXCEEDED: ((self.traceroutes, self._fill_record),),
            ReplyKind.ROUTER_ID_REPLY: ((self.router_id_queries,
                                         self._fill_identity),),
        }

    # -- session wiring -----------------------------------------------------

    def attach_session(self, session):
        """Adopt an active switch session: steer replies here and take over
        its PacketIn feed.  The engine drives one switch at a time; a newer
        session replaces the old one."""
        session.packet_in_handler = partial(self._on_packet_in, session)
        session.close_handler = self._on_session_closed
        session.install_reply_flows(self.settings.src_ip)
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

    def start_router_id_query(self, target, out_port=None,
                              gap_us=None) -> int:
        """One probe asking a host for its identity (the dump's asn, ident)."""
        return self._start(self.router_id_queries, target, 1, out_port,
                           gap_us, first_ttl=self.settings.default_ttl,
                           probes_per_ttl=1, icmp_type=ICMP_ROUTER_ID)

    def _start(self, table, target, num, out_port, gap_us, first_ttl,
               probes_per_ttl, payload=b"", icmp_type=ICMP_ECHO_REQUEST):
        """Allocate an id and begin a task.  Probes flow only after a
        fresh control-channel RTT sample.  A bad target raises
        wire.UnencodableMessage, and a bad out_port or gap_us ValueError,
        before any id is taken."""
        wire.ip_to_bytes(target)
        out_port = self.settings.out_port if out_port is None else out_port
        gap_us = self.settings.probe_gap_us if gap_us is None else gap_us
        if not isinstance(out_port, int) or not 0 <= out_port <= 0xFFFFFFFF:
            raise ValueError("out_port must be a 32-bit port number")
        if not isinstance(gap_us, int) or gap_us < 0:
            raise ValueError("gap_us must be a non-negative integer")
        if not self.session_active():
            raise NoActiveSession("no active switch session")
        session = self._session
        task = ProbeTask(
            icmp_id=self.allocator.allocate(), target=target, num=num,
            first_ttl=first_ttl, probes_per_ttl=probes_per_ttl,
            out_port=out_port, gap_us=gap_us, payload=payload,
            icmp_type=icmp_type, session=session)
        table[task.icmp_id] = task
        if out_port not in self._primed_ports:
            self._prime_port(session, out_port)
        fut = session.sample_switch_rtt()
        fut.add_done_callback(lambda f: self._after_echo(f, task, True))
        return task.icmp_id

    def _after_echo(self, fut, task, start):
        """One callback for the start echo and for each echo sent alongside
        a spaced emission.  A start echo feeds the smoothed estimate, whose
        value becomes the task's first sample, and starts emission; an
        emission echo is the task's own sample until the task is done.  The
        callback holds the task itself, so an echo outliving a clear can
        never land on a later task that recycled the id."""
        if task.cleared:
            return
        exc = fut.exception()
        if exc is not None:
            # an echo the closing session abandoned was never timed out
            self.counters["session_lost" if isinstance(exc, SessionClosed)
                          else "echo_timeouts"] += 1
        elif start:
            self.estimator.update(fut.result())
        elif not task.done:
            self._add_rtt_cs(task, fut.result())
        if start:
            # Probing proceeds on the last known estimate rather than
            # stalling the task behind a lost echo.
            self._add_rtt_cs(task, self.estimator.current or 0.0)
            self._emit(task)

    @staticmethod
    def _add_rtt_cs(task, sample_us):
        task.rtt_cs_sum += sample_us
        task.rtt_cs_count += 1
        task.rtt_cs_us = task.rtt_cs_sum / task.rtt_cs_count

    # -- probe emission --------------------------------------------------------

    def _emit(self, task):
        template = frames.echo_request_template(
            self._src_ip, wire.ip_to_bytes(task.target), self._src_mac,
            self._next_hop_mac, task.icmp_id, task.payload, task.icmp_type)
        for seq in range(task.num):
            if task.gap_us:
                self.loop.call_later(seq * task.gap_us,
                                     self._send_probe, task, template, seq)
            else:
                self._send_probe(task, template, seq)

    def _send_probe(self, task, template, seq):
        """Emit probe seq through the task's own session unless the task
        was cleared, its destination has answered or that session is gone.
        The last seq marks emission finished once its record exists, so a
        dump taken mid-task never reads as done."""
        session = task.session
        if not task.cleared and task.dest_ttl is None \
                and session.state == ACTIVE:
            frame = frames.stamp_echo_request(template, seq, task.ttl(seq))
            t_out = session.send_probe(task.out_port, frame)
            if task.gap_us and task.records:
                # Written after the PacketOut so it never delays the probe's
                # emission; on the virtual transport the two share a segment.
                fut = session.sample_switch_rtt()
                fut.add_done_callback(
                    lambda f: self._after_echo(f, task, False))
            record = ProbeRecord(t_out)
            task.records[seq] = record
            task.open += 1
            self._open += 1
            self._sent.append((task, record))
            if self._deadline is None:
                # the FIFO was empty, so this record is its head
                self._deadline = self.loop.call_at(
                    t_out + self.settings.probe_timeout_us,
                    self._expire_records)
        if seq == task.num - 1:
            task.emitted_all = True

    def _expire_records(self):
        """The deadline: pop resolved records and those of cleared tasks,
        expire those past their timeout, re-arm for the oldest one left."""
        timeout = self.settings.probe_timeout_us
        cutoff = self.loop.now_us() - timeout
        sent = self._sent
        while sent:
            task, record = sent[0]
            if not task.cleared and record.t_in is None:
                if record.t_out > cutoff:
                    break
                record.expired = True
                task.open -= 1
                self._open -= 1
            sent.popleft()
        self._deadline = self.loop.call_at(
            sent[0][1].t_out + timeout, self._expire_records) if sent else None

    def _stop_expiry(self):
        """No record is open: cancel the deadline and let go of the FIFO."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        self._sent.clear()

    # -- reply handling -----------------------------------------------------------

    def _on_packet_in(self, session, frame, t_in, in_port):
        """The one reply matcher: the reply's kind names the task tables to
        search by id and the filler that fills the record and applies the
        kind's effect.  Every frame ends in one record or one counter.  A
        served identity query is answered through the session it came in
        on, which is active while it delivers PacketIns."""
        try:
            reply = frames.parse_reply(frame)
        except frames.MalformedFrame:
            self.counters["malformed_frames"] += 1
            return
        matchers = self._matchers.get(reply.kind)
        if matchers is not None:
            for table, fill in matchers:
                task = table.get(reply.icmp_id)
                if task is not None:
                    fill(task, reply, t_in)
                    return
            self.counters["unknown_replies"] += 1
        elif (reply.kind == ReplyKind.ROUTER_ID_QUERY and self.router_id_serve
              and self.router_identity is not None):
            session.send_probe(in_port, frames.build_router_id_reply(
                reply.view, self.router_identity))
            self.counters["router_id_served"] += 1
        else:
            self.counters["other_frames"] += 1

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
        task.open -= 1
        self._open -= 1
        if not self._open:
            self._stop_expiry()
        return True

    def _fill_reached(self, task, reply, t_in):
        """An echo reply to a traceroute: the destination answered, so the
        task stops at the lowest TTL it answered from."""
        if self._fill_record(task, reply, t_in):
            ttl = task.ttl(reply.icmp_seq)
            if task.dest_ttl is None or ttl < task.dest_ttl:
                task.dest_ttl = ttl

    def _fill_identity(self, task, reply, t_in):
        """An identity that does not decode leaves its record to expire."""
        identity = frames.decode_router_identity(reply.payload)
        if identity is None:
            self.counters["malformed_frames"] += 1
        elif self._fill_record(task, reply, t_in):
            task.identity = identity

    # -- router identity -----------------------------------------------------------

    def set_router_config(self, serve, identity):
        self.router_id_serve = serve
        self.router_identity = identity

    # -- dumps and clears -------------------------------------------------------------

    def dump_ping(self):
        return self._dump(self.pings, self._ping_row)

    def dump_traceroute(self):
        return self._dump(self.traceroutes, self._traceroute_row)

    def dump_router_id_query(self):
        return self._dump(self.router_id_queries, self._router_id_row)

    @staticmethod
    def _dump(table, build_row):
        """One row per task; a settled task's row is built once and kept."""
        out = {}
        for icmp_id, task in table.items():
            row = task.row
            if row is None:
                row = build_row(task)
                if task.emitted_all and not task.open:
                    task.row = row
            out[str(icmp_id)] = row
        return out

    @staticmethod
    def _ping_row(task):
        records = task.records
        probes = []
        for seq in sorted(records):
            r = records[seq]
            probes.append([r.t_out, r.t_in, r.responder])
        return {"tgt": task.target, "rtt_cs_us": task.rtt_cs_us,
                "probes": probes}

    @classmethod
    def _router_id_row(cls, task):
        """Ping's row plus asn and ident, both null until answered."""
        identity = task.identity
        return dict(cls._ping_row(task), asn=identity and identity.asn,
                    ident=identity and identity.ident)

    @staticmethod
    def _traceroute_row(task):
        ppt, records = task.probes_per_ttl, task.records
        rtt_cs = task.rtt_cs_us
        hops = {}
        for ttl in range(1, (task.dest_ttl or MAX_TTL) + 1):
            cells = hops[str(ttl)] = []
            for seq in range((ttl - 1) * ppt, ttl * ppt):
                r = records.get(seq)
                cells.append([None, None] if r is None or r.t_in is None
                             else [r.responder,
                                   corrected_rtt(r.t_out, r.t_in, rtt_cs)])
        return {
            "tgt": task.target,
            "probes_per_ttl": ppt,
            "rtt_cs_us": rtt_cs,
            "terminated": (TERMINATED_DESTINATION if task.dest_ttl is not None
                           else TERMINATED_MAX_TTL if task.done
                           else TERMINATED_IN_PROGRESS),
            "hops": hops,
        }

    def clear_ping(self):
        return self._clear_tasks(self.pings)

    def clear_traceroute(self):
        return self._clear_tasks(self.traceroutes)

    def clear_router_id_query(self):
        return self._clear_tasks(self.router_id_queries)

    def _clear_tasks(self, table):
        """Drop every task in the table and free its id; returns how many
        were dropped."""
        cleared = len(table)
        for icmp_id, task in table.items():
            task.cleared = True
            self._open -= task.open
            self.allocator.release(icmp_id)
        table.clear()
        if not self._open:
            self._stop_expiry()
        return cleared
