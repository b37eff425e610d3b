"""Seeded inputs for the three workloads and the passes that run them.

Each workload turns ``--seed`` into a topology and a request schedule; the
program only ever sees those.  Requests enter the way ``ApiHttpServer``
hands them over: as ``ApiApp.dispatch`` calls on the controller loop's
thread.  ``ApiHttpServer`` itself is never started, because it spawns a
thread per connection.

The generator keeps at most one pending arrival on a loop: each arrival
schedules the next one when it fires.
"""

import gc
import hashlib
import heapq
import json
import random
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field

from ofprobe import netsim, transport
from ofprobe.api import ApiApp, render_json
from ofprobe.config import PolicyConfig
from ofprobe.engine import MeasurementEngine, ProbeSettings
from ofprobe.report import percentile
from ofprobe.eventloop import EventLoop
from ofprobe.session import SwitchSession

import checks
from tracing import CTRL, SIM, TracedConn

LOOPBACK_SETUPS = 9
DUMP_REPEATS = 3
TRACEROUTE_PPT = 3
# Loopback: arrivals pause this long before each clear so the table is
# complete when it is dumped and cleared; a reply to a cleared task would
# read as an unknown reply.
QUIET_US = 250_000
DUMP_PERIOD_US = 1_000_000
CLEAR_EVERY_DUMPS = 8
# A loopback run is invalid when the generator's own p99 lateness passes
# this: the offered load would no longer be the nominal one.
GENERATOR_LATE_P99_LIMIT_US = 20_000
REALTIME_GRACE_S = 60.0
# The host's speed drifts by up to 2x over minutes with other tenants'
# load.  Durations that measure how fast Python runs here are divided by
# the slowness of a fixed reference routine timed next to them.
REFERENCE_NOMINAL_S = 0.004
_REFERENCE = struct.Struct("!HHI")


def _reference_work():
    """Fixed pure-Python work in the stack's mix: struct packing, tuples,
    a dict and a heap.  It is the benchmark's own code, so no change to the
    program moves it."""
    table = {}
    heap = []
    acc = 0
    for i in range(3000):
        raw = _REFERENCE.pack(i & 0xFFFF, (i * 7) & 0xFFFF, i)
        a, b, c = _REFERENCE.unpack(raw)
        table[i] = (a, b, raw[2:6])
        heapq.heappush(heap, (c * 31 % 1009, i))
        acc += len(table) + a
    while heap:
        acc += heapq.heappop(heap)[1]
    return acc


def slowness():
    """How slow this machine runs Python right now: the best of two
    timings of the reference routine over REFERENCE_NOMINAL_S, its time on
    a quiet 2-core reference host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_NOMINAL_S


def policy():
    """Every request is admitted: the benchmark measures the probe path,
    not the token bucket."""
    return PolicyConfig(max_probe_rate=1e9)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "ping" or "traceroute"
    realtime: bool
    tasks_per_s: float        # open-loop arrival rate (virtual or wall)
    probes_per_task: int
    batch_tasks: int = 0      # virtual: tasks between dump-and-clear
    batch_seconds: float = 0  # virtual: wall time one batch takes here
    slice_tasks: int = 0      # virtual: arrivals per timed slice

    @property
    def path(self):
        return "/" + self.kind

    def table(self, eng):
        return eng.pings if self.kind == "ping" else eng.traceroutes

    def check(self, *args):
        if self.kind == "ping":
            return checks.check_ping_table(*args)
        return checks.check_traceroute_table(*args)


WORKLOADS = {w.name: w for w in (
    Workload("sim-ping", "ping", False, 500.0, 1, batch_tasks=8192,
             batch_seconds=2.5, slice_tasks=512),
    Workload("sim-traceroute", "traceroute", False, 20.0,
             TRACEROUTE_PPT * checks.TRACE_MAX_TTL, batch_tasks=256,
             batch_seconds=2.5, slice_tasks=16),
    Workload("loopback-ping", "ping", True, 250.0, 2),
)}


# -- inputs ----------------------------------------------------------------


def _addr(net, i):
    return "198.%d.%d.%d" % (net, i // 250, i % 250 + 1)


@dataclass
class Inputs:
    topology: object          # ground truth, as the benchmark built it
    text: str = ""            # the topology file the program parses
    batches: list = field(default_factory=list)   # virtual
    events: list = field(default_factory=list)    # loopback
    seconds: int = 0


def _request(wl, target):
    if wl.kind == "ping":
        body = {"tgt": target, "num": wl.probes_per_task}
    else:
        body = {"tgt": target, "probes_per_ttl": TRACEROUTE_PPT}
    return target, json.dumps(body).encode("utf-8")


def _poisson(rng, rate_per_s, n, targets, requests):
    """n Poisson arrivals.  When n equals the target count each target is
    probed once, in random order; otherwise targets are drawn at random."""
    if n == len(targets):
        order = rng.sample(targets, n)
    else:
        order = [rng.choice(targets) for _ in range(n)]
    t = 0.0
    out = []
    for target in order:
        t += rng.expovariate(rate_per_s) * 1e6
        out.append((int(t),) + requests[target])
    return out


def make_inputs(wl, seed, seconds, trace=False):
    """Topology plus schedule for one run.  Virtual workloads are sized in
    whole batches (dump-and-clear cycles) so one seed always yields the same
    work; a traced run measures one batch, or four seconds on loopback."""
    rng = random.Random("%s/%d" % (wl.name, seed))
    topo = netsim.SimTopology(seed=rng.getrandbits(32),
                              control_link=netsim.UniformDelay(4000, 8000))
    if wl.name == "sim-ping":
        for i in range(1000):
            topo.targets[_addr(18, i)] = netsim.TargetSpec(
                base_rtt_us=rng.randint(10_000, 400_000), loss_prob=0.01)
    elif wl.name == "sim-traceroute":
        # Path lengths 0-12 and silent targets (every fourth) come in fixed
        # proportions, so the share of probes that can be answered is the
        # same for every seed; which address gets which path is seeded.
        routers = [_addr(19, i) for i in range(1024)]
        addrs = [_addr(18, i) for i in range(256)]
        rng.shuffle(addrs)
        for i, ip in enumerate(addrs):
            hops = [(r, rng.randint(500, 5000))
                    for r in rng.sample(routers, i % 13)]
            base = 2 * sum(d for _r, d in hops) + rng.randint(1000, 20_000)
            topo.targets[ip] = netsim.TargetSpec(
                base_rtt_us=base, loss_prob=0.02, responds=i % 4 != 0,
                hops=hops)
    else:
        topo.pktout_delay = netsim.ConstantDelay(2000)
        topo.pktin_delay = netsim.ConstantDelay(500)
        for i in range(1000):
            topo.targets[_addr(18, i)] = netsim.TargetSpec(
                base_rtt_us=rng.randint(1000, 20_000))
    targets = sorted(topo.targets)
    requests = {ip: _request(wl, ip) for ip in targets}
    inputs = Inputs(topo, netsim.format_topology(topo))
    if not wl.realtime:
        n = 1 if trace else max(1, round(seconds / wl.batch_seconds))
        inputs.batches = [_poisson(rng, wl.tasks_per_s, wl.batch_tasks,
                                   targets, requests) for _ in range(n)]
        return inputs
    inputs.seconds = min(seconds, 4) if trace else seconds
    end_us = inputs.seconds * DUMP_PERIOD_US
    dumps = [(k * DUMP_PERIOD_US, "dump",
              k % CLEAR_EVERY_DUMPS == 0 or k == inputs.seconds)
             for k in range(1, inputs.seconds + 1)]
    quiet = [(t - QUIET_US, t) for t, _kind, clear in dumps if clear]
    events = list(dumps)
    t = 0.0
    while True:
        t += rng.expovariate(wl.tasks_per_s) * 1e6
        if t >= end_us:
            break
        if not any(lo <= t < hi for lo, hi in quiet):
            events.append((int(t), "put", requests[rng.choice(targets)]))
    events.sort(key=lambda e: (e[0], e[1] == "put"))
    inputs.events = events
    return inputs


class RecordingDelay:
    """A delay model that remembers every value it draws, so the switch's
    actual processing delays can be compared with the configured ones."""

    def __init__(self, model):
        self.model = model
        self.samples = []

    def sample(self, rng):
        value = self.model.sample(rng)
        self.samples.append(value)
        return value


def load_topology(inputs, record_traffic):
    """Parse the topology file, as ``ofprobe-simswitch`` does; with traffic
    recorded, the switch's delay models also remember their draws."""
    topology = netsim.parse_topology(inputs.text)
    if record_traffic:
        topology.pktout_delay = RecordingDelay(topology.pktout_delay)
        topology.pktin_delay = RecordingDelay(topology.pktin_delay)
    return topology


def late_us(actual, topology_delay):
    """Mean of actual minus configured delay over one direction."""
    pairs = list(zip(actual, topology_delay.samples))
    return sum(a - c for a, c in pairs) / max(1, len(pairs))


# -- per-pass results --------------------------------------------------------


@dataclass
class Pass:
    """What one measured pass saw.  ``setup_s`` and ``dump_s`` hold
    calibrated durations; each slice keeps its raw figures and the
    slowness measured with it (1.0 where the pass is not calibrated)."""
    setup_s: list = field(default_factory=list)
    slices: list = field(default_factory=list)  # (probes, wall, cpu, slow)
    requested_probes: int = 0
    tasks: int = 0
    rejected: int = 0
    answered: int = 0
    expired: int = 0
    rtt_errors_us: list = field(default_factory=list)
    dump_s: list = field(default_factory=list)
    tasks_dumped: int = 0
    tasks_cleared: int = 0
    lag_us: list = field(default_factory=list)
    generator_late_us: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str = ""
    pktout_late_us: float = 0.0
    pktin_late_us: float = 0.0

    @property
    def probes(self):
        return self.answered + self.expired

    def probes_per_s(self, calibrated=True):
        """Median over the run's slices of probes emitted per wall second,
        scaled to nominal machine speed."""
        return statistics.median(n / wall * (slow if calibrated else 1.0)
                                 for n, wall, _cpu, slow in self.slices if n)

    def ctrl_cpu_us_per_probe(self, calibrated=True):
        """Median over slices of controller-thread CPU time per probe."""
        return statistics.median(cpu / n * 1e6 / (slow if calibrated else 1.0)
                                 for n, _wall, cpu, slow in self.slices if n)

    def slowness(self):
        return statistics.median(slow for _n, _w, _c, slow in self.slices)

    def rtt_error_us(self, q):
        """Percentile q of |corrected RTT - truth| over answered probes."""
        return percentile(self.rtt_errors_us, q)

    def add_table(self, wl, dump, snapshot, requests, topology, emitted):
        errors, answered, expired, rtt = wl.check(dump, snapshot, requests,
                                                  topology, emitted)
        self.errors.extend(errors)
        self.answered += answered
        self.expired += expired
        self.rtt_errors_us.extend(rtt)

    def check_counters(self, eng):
        self.counters = dict(eng.counters)
        for key in ("unknown_replies", "duplicate_replies",
                    "malformed_frames"):
            if eng.counters[key]:
                self.errors.append("engine counted %d %s"
                                   % (eng.counters[key], key))


def _conn_wrapper(tracer):
    if tracer is None:
        return lambda conn, side: conn
    return lambda conn, side: TracedConn(tracer, conn, side)


# -- virtual clock ------------------------------------------------------------


class VirtualStack:
    """Session, engine and API on one virtual loop with a SimSwitch, joined
    by a virtual control channel."""

    def __init__(self, inputs, record_traffic=False, wrap=None):
        wrap = wrap or _conn_wrapper(None)
        self.loop = EventLoop()
        self.topology = topology = load_topology(inputs, record_traffic)
        link_rng = random.Random(topology.seed ^ 0x5EED)
        link = topology.control_link
        ctrl_end, sw_end = transport.virtual_pair(
            self.loop, lambda: link.sample(link_rng))
        self.session = SwitchSession(self.loop, wrap(ctrl_end, CTRL))
        self.switch = netsim.SimSwitch(self.loop, topology,
                                       record_traffic=record_traffic)
        self.switch.attach(wrap(sw_end, SIM))
        self.engine = MeasurementEngine(self.loop, ProbeSettings())
        self.app = ApiApp(self.engine, policy())
        self.session.ready.add_done_callback(self._on_ready)
        self.loop.run_until_idle()
        if not (self.engine.session_active()
                and len(self.switch.flow_rules) == 3):
            raise RuntimeError("virtual stack did not become active")

    def _on_ready(self, fut):
        if fut.exception() is None:
            self.engine.attach_session(self.session)


class VirtualLoad:
    """Feeds one batch into a virtual loop.  Each arrival posts its request
    with ``call_soon``, so the wall time between post and dispatch is the
    loop's own lag."""

    def __init__(self, loop, app, wl, schedule):
        self.loop = loop
        self.app = app
        self.wl = wl
        self.schedule = schedule
        self.accepted = {}
        self.rejected = 0
        self.arrived = 0
        self.lag_ns = []
        self._t0 = 0

    def start(self):
        self._t0 = self.loop.now_us()
        self._arm()

    def _arm(self):
        if self.arrived < len(self.schedule):
            self.loop.call_at(self._t0 + self.schedule[self.arrived][0],
                              self._arrive)

    def _arrive(self):
        _t, target, body = self.schedule[self.arrived]
        self.arrived += 1
        self.loop.call_soon(self._request, target, body,
                            time.perf_counter_ns())
        self._arm()

    def _request(self, target, body, posted_ns):
        self.lag_ns.append(time.perf_counter_ns() - posted_ns)
        status, payload = self.app.dispatch("PUT", self.wl.path, body)
        if status == 200:
            self.accepted[payload["icmp_id"]] = (target,
                                                 self.wl.probes_per_task)
        else:
            self.rejected += 1


def _timed(tracer, fn, *args):
    t0 = time.perf_counter()
    c0 = time.thread_time()
    out = fn(*args) if tracer is None else tracer.root(CTRL, fn, *args)
    return out, time.perf_counter() - t0, time.thread_time() - c0


def replay_digest(wl, inputs):
    """Digest of the dump after the first 1/64 of the first batch on a
    fresh stack; two fresh stacks of one seed must agree."""
    stack = VirtualStack(inputs)
    gen = VirtualLoad(stack.loop, stack.app, wl,
                      inputs.batches[0][:wl.batch_tasks // 64])
    gen.start()
    stack.loop.run_until_idle()
    _status, dump = stack.app.dispatch("GET", wl.path + "/dump")
    return hashlib.sha256(render_json(dump)).hexdigest()


def _run_batch(wl, stack, gen, p, tracer):
    """Run one batch slice by slice, then drain it."""
    gen.start()
    switch = stack.switch
    for upto in range(wl.slice_tasks, len(gen.schedule) + 1,
                      wl.slice_tasks):
        sent = switch.counters["packet_out"]
        _, wall, cpu = _timed(tracer, stack.loop.run_until,
                              lambda: gen.arrived >= upto)
        p.slices.append((switch.counters["packet_out"] - sent, wall, cpu,
                         slowness()))
    _timed(tracer, stack.loop.run_until_idle)


def _set_up(p, build, *args):
    """Time one set-up from the same collector state."""
    gc.collect()
    t0 = time.perf_counter()
    stack = build(*args)
    took = time.perf_counter() - t0
    p.setup_s.append(took / slowness())
    return stack


def run_virtual(wl, inputs, tracer=None, record_traffic=False):
    """Set up once for the run and once more after every batch, so the
    set-up figure samples the whole run rather than its first moments."""
    p = Pass()
    setup = (p, VirtualStack, inputs, record_traffic, _conn_wrapper(tracer))
    stack = _set_up(*setup)
    digest = hashlib.sha256()
    packet_outs = stack.switch.counters["packet_out"]
    get = (stack.app.dispatch, "GET", wl.path + "/dump")
    for schedule in inputs.batches:
        gen = VirtualLoad(stack.loop, stack.app, wl, schedule)
        _run_batch(wl, stack, gen, p, tracer)
        answers = []
        for _ in range(DUMP_REPEATS):
            answer, took, _cpu = _timed(tracer, *get)
            answers.append(answer)
            p.dump_s.append(took / slowness())
        status, dump = answers[0]
        if any(again != answers[0] for again in answers[1:]):
            p.errors.append("repeated dump differs from the first")
        snapshot = checks.snapshot_records(wl.table(stack.engine))
        emitted = stack.switch.counters["packet_out"] - packet_outs
        packet_outs += emitted
        (clear_status, _), _wall, _cpu = _timed(
            tracer, stack.app.dispatch, "POST", wl.path + "/clear")
        if status != 200 or clear_status != 200:
            p.errors.append("dump/clear answered %d/%d"
                            % (status, clear_status))
        p.tasks_dumped += DUMP_REPEATS * len(dump)
        p.tasks_cleared += len(dump)
        p.tasks += len(gen.accepted) + gen.rejected
        p.rejected += gen.rejected
        p.requested_probes += (len(gen.accepted) + gen.rejected) \
            * wl.probes_per_task
        p.lag_us.extend(ns / 1000 for ns in gen.lag_ns)
        p.add_table(wl, dump, snapshot, gen.accepted, inputs.topology,
                    emitted)
        digest.update(render_json(dump))
        _set_up(*setup)
    p.digest = digest.hexdigest()
    p.check_counters(stack.engine)
    if record_traffic:
        _record_lateness(p, stack)
    return p


def _record_lateness(p, stack):
    out, inn, _reorderings = stack.switch.processing_delays()
    p.pktout_late_us = late_us(out, stack.topology.pktout_delay)
    p.pktin_late_us = late_us(inn, stack.topology.pktin_delay)


# -- loopback TCP, realtime ---------------------------------------------


class LoopbackStack:
    """Controller loop on its own thread; SimSwitch on a loop the caller
    runs on its thread; one TCP connection over 127.0.0.1 between them."""

    def __init__(self, inputs, record_traffic=False, tracer=None):
        self._wrap = _conn_wrapper(tracer)
        self.topology = load_topology(inputs, record_traffic)
        self.ctrl_loop = EventLoop(realtime=True)
        self.sw_loop = EventLoop(realtime=True)
        self.engine = MeasurementEngine(self.ctrl_loop, ProbeSettings())
        self.app = ApiApp(self.engine, policy())
        self.listener = _on_side(tracer, CTRL, transport.TcpListener,
                                 self.ctrl_loop, "127.0.0.1", 0,
                                 self._on_accept)
        if tracer is None:
            target = self.ctrl_loop.run_forever
        else:
            def target():
                tracer.root(CTRL, self.ctrl_loop.run_forever)
            # Time blocked in select is idle, not event-loop work.
            for loop in (self.ctrl_loop, self.sw_loop):
                loop._selector.select = tracer.wrap(
                    "idle", "select", loop._selector.select)
        self.thread = threading.Thread(target=target, daemon=True,
                                       name="ofprobe-controller")
        self.thread.start()
        conn = _on_side(tracer, SIM, transport.connect_tcp, self.sw_loop,
                        "127.0.0.1", self.listener.port)
        self.switch = netsim.SimSwitch(self.sw_loop, self.topology,
                                       record_traffic=record_traffic)
        _on_side(tracer, SIM, self.switch.attach, self._wrap(conn, SIM))

    def _on_accept(self, conn, _addr):
        session = SwitchSession(self.ctrl_loop, self._wrap(conn, CTRL))

        def on_ready(fut):
            if fut.exception() is None:
                self.engine.attach_session(session)

        session.ready.add_done_callback(on_ready)

    def ready(self):
        """Session active, the three reply flows installed, and the switch
        has received the PacketOut the engine primes the port with right
        after them; otherwise that PacketOut could land in the first
        table's count of emitted probes."""
        return (self.engine.session_active()
                and len(self.switch.flow_rules) == 3
                and self.switch.counters["packet_out"] >= 1)

    def close(self):
        def shutdown():
            if self.engine.session is not None:
                self.engine.session.close()
            self.listener.close()
            self.ctrl_loop.stop()

        self.ctrl_loop.call_threadsafe(shutdown)
        self.thread.join(10)
        self.switch.close()
        self.ctrl_loop.close()
        self.sw_loop.close()
        if self.thread.is_alive():
            raise RuntimeError("controller thread did not stop")


def _on_side(tracer, side, fn, *args):
    """Run ``fn`` with spans on this thread attributed to ``side``."""
    if tracer is None:
        return fn(*args)
    buf = tracer.buffer()
    old, buf.root_side = buf.root_side, side
    try:
        return fn(*args)
    finally:
        buf.root_side = old


class RealtimeLoad:
    """Open-loop generator on the switch's loop.  Every request is posted
    to the controller loop with ``call_threadsafe`` at its due time, as
    ``ApiHttpServer`` would; dumps and clears travel the same way.  Each
    dump closes a one-second slice of throughput and CPU figures."""

    def __init__(self, stack, wl, inputs, p):
        self.stack = stack
        self.wl = wl
        self.inputs = inputs
        self.p = p
        self.requests = {}
        self.tables = []
        self.late_ns = []
        self.lag_ns = []
        self.finished = False
        self._i = 0
        self._t0_ns = 0
        self._t0_us = 0
        self._mark = None
        self._table_packet_outs = 0

    def start(self):
        loop = self.stack.sw_loop
        self._t0_us = loop.now_us()
        self._t0_ns = time.monotonic_ns()
        self.stack.ctrl_loop.call_threadsafe(self._begin)
        self._arm()

    def _arm(self):
        if self._i < len(self.inputs.events):
            self.stack.sw_loop.call_at(
                self._t0_us + self.inputs.events[self._i][0], self._fire)

    def _fire(self):
        t_us, kind, arg = self.inputs.events[self._i]
        self._i += 1
        due_ns = self._t0_ns + t_us * 1000
        self.late_ns.append(time.monotonic_ns() - due_ns)
        handler = self._put if kind == "put" else self._dump
        self.stack.ctrl_loop.call_threadsafe(handler, due_ns, arg)
        self._arm()

    # The methods below run on the controller thread.

    def _slice_mark(self):
        return (self.stack.switch.counters["packet_out"],
                time.perf_counter(), time.thread_time())

    def _begin(self):
        self._mark = self._slice_mark()
        self._table_packet_outs = self._mark[0]

    def _put(self, due_ns, request):
        self.lag_ns.append(time.monotonic_ns() - due_ns)
        target, body = request
        status, payload = self.stack.app.dispatch("PUT", self.wl.path, body)
        if status == 200:
            self.requests[payload["icmp_id"]] = (target,
                                                 self.wl.probes_per_task)
        else:
            self.p.rejected += 1
        self.p.tasks += 1
        self.p.requested_probes += self.wl.probes_per_task

    def _dump(self, due_ns, clear):
        self.lag_ns.append(time.monotonic_ns() - due_ns)
        mark = self._slice_mark()
        self.p.slices.append(tuple(b - a for a, b in zip(self._mark, mark)))
        self._mark = mark
        app = self.stack.app
        t0 = time.perf_counter()
        status, dump = app.dispatch("GET", self.wl.path + "/dump")
        took = time.perf_counter() - t0
        self.p.dump_s.append(took)
        self.p.tasks_dumped += len(dump)
        if status != 200:
            self.p.errors.append("dump answered %d" % status)
        if not clear:
            return
        snapshot = checks.snapshot_records(self.wl.table(self.stack.engine))
        status, _ = app.dispatch("POST", self.wl.path + "/clear")
        self.p.tasks_cleared += len(dump)
        if status != 200:
            self.p.errors.append("clear answered %d" % status)
        self.tables.append((dump, snapshot, self.requests,
                            mark[0] - self._table_packet_outs))
        self.requests = {}
        self._table_packet_outs = mark[0]
        if self._i >= len(self.inputs.events):
            self.stack.sw_loop.call_threadsafe(self._finish)

    def _finish(self):
        self.finished = True
        self.stack.sw_loop.stop()


def _drive(stack, deadline, on_ready, errors):
    """Run the switch loop on this thread: poll until the session is active
    with flows installed, call ``on_ready``, and keep a watchdog on the
    controller thread and the deadline until something stops the loop."""
    loop = stack.sw_loop

    def poll():
        if stack.ready():
            on_ready()
        else:
            loop.call_later(200, poll)

    def watchdog():
        if not stack.thread.is_alive():
            errors.append("controller thread died")
        elif time.monotonic() > deadline:
            errors.append("run overran" if stack.ready() else
                          "stack never became ready")
        else:
            loop.call_later(100_000, watchdog)
            return
        loop.stop()

    loop.call_soon(poll)
    loop.call_later(100_000, watchdog)
    loop.run_forever()


def run_loopback(wl, inputs, tracer=None, record_traffic=False):
    """Set up LOOPBACK_SETUPS stacks; the middle one carries the run, the
    others are torn down once active, so set-ups sample both ends.
    Figures are as measured: this workload's controller CPU per probe was
    seen not to follow the reference routine's slowness."""
    p = Pass()
    deadline = time.monotonic() + inputs.seconds + REALTIME_GRACE_S
    for attempt in range(LOOPBACK_SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        stack = LoopbackStack(inputs, record_traffic, tracer)
        load = None
        if attempt == LOOPBACK_SETUPS // 2:
            load = RealtimeLoad(stack, wl, inputs, p)
            measured = stack, load

        def on_ready(stack=stack, t0=t0, load=load):
            p.setup_s.append(time.perf_counter() - t0)
            if load is None:
                stack.sw_loop.stop()
            else:
                load.start()

        try:
            if tracer is None:
                _drive(stack, deadline, on_ready, p.errors)
            else:
                tracer.root(SIM, _drive, stack, deadline, on_ready, p.errors)
        finally:
            stack.close()
        if p.errors:
            return p
    stack, load = measured
    if not load.finished:
        p.errors.append("loopback run did not finish")
        return p
    p.slices = [marks + (1.0,) for marks in p.slices]
    for dump, snapshot, requests, emitted in load.tables:
        p.add_table(wl, dump, snapshot, requests, inputs.topology, emitted)
    p.lag_us = [ns / 1000 for ns in load.lag_ns]
    p.generator_late_us = [ns / 1000 for ns in load.late_ns]
    p.check_counters(stack.engine)
    late_p99 = percentile(p.generator_late_us, 99)
    if late_p99 > GENERATOR_LATE_P99_LIMIT_US:
        p.errors.append("load generator p99 lateness %.0f us exceeds %d us"
                        % (late_p99, GENERATOR_LATE_P99_LIMIT_US))
    if record_traffic:
        _record_lateness(p, stack)
    return p


def run_pass(wl, inputs, tracer=None, record_traffic=False):
    runner = run_loopback if wl.realtime else run_virtual
    return runner(wl, inputs, tracer, record_traffic)
