"""Span tracing of the ofprobe layers, installed from outside the program.

The traced run wraps the public functions and methods of each layer module
(``frames``, ``wire``, ``transport``, ``eventloop``, ``session``,
``engine``, ``api``, ``netsim``) in place, for the life of one pass, and
undoes every patch afterwards.  Three further hooks keep attribution right:

* ``EventLoop.call_at``, ``EventLoop.add_reader``/``add_writer`` and
  ``Future.add_done_callback`` wrap each callback in a span named after
  the callback's own module, so an engine timer that fires is engine time,
  not event-loop time;
* the session's ``packet_in_handler`` is wrapped once the engine installs
  it;
* the connection handed to ``SwitchSession`` and ``SimSwitch`` is a
  ``TracedConn`` proxy, which times sends and counts segments and bytes.

Every span records (name, start, end, parent, side).  The side says whose
work it is: ``ctrl`` for the controller, ``sim`` for the simulated switch
and network.  ``netsim`` spans and everything they call are ``sim``;
``session``, ``engine`` and ``api`` are ``ctrl``; a callback keeps the side
of the code that scheduled it; a proxy keeps the side of its endpoint.
Spans are kept per thread in flat arrays and written out at the end.

A span's self time is its duration minus the durations of its direct
children.  Because spans on one thread nest strictly, the self times of
all spans under a root add up to the root's duration.
"""

import collections
import functools
import inspect
import json
import threading
import time
from array import array

from ofprobe import api, engine, eventloop, frames, netsim, session, wire

LAYERS = ("frames", "wire", "transport", "eventloop", "session", "engine",
          "api", "netsim")
CTRL, SIM = 0, 1
SIDE_NAMES = ("ctrl", "sim")
_FORCED_SIDE = {"session": CTRL, "engine": CTRL, "api": CTRL, "netsim": SIM}


def layer_of(fn):
    """The layer a callable belongs to, from its defining module; code
    outside the package is the benchmark's own (``bench``)."""
    module = getattr(fn, "__module__", None) or ""
    if module.startswith("ofprobe."):
        return module.split(".", 1)[1]
    return "bench"


def _callable_name(fn):
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class SpanBuffer:
    """Spans of one thread, in order of entry."""

    def __init__(self, thread_name, root_side):
        self.thread = thread_name
        self.root_side = root_side
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.side = array("b")
        self.stack = []
        self.counts = collections.Counter()

    def current_side(self):
        if self.stack:
            return self.side[self.stack[-1]]
        return self.root_side


class Tracer:
    """Collects spans from every thread that enters a traced call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.buffers = []
        self.echo_rtts_us = []

    def name_id(self, layer, name):
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(key, len(self.names))
                if nid == len(self.names):
                    self.names.append(key)
        return nid

    def buffer(self, root_side=CTRL):
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = SpanBuffer(threading.current_thread().name, root_side)
            with self._lock:
                self.buffers.append(buf)
            self._tls.buf = buf
        return buf

    def enter(self, nid, side=None):
        buf = self.buffer()
        stack = buf.stack
        idx = len(buf.start)
        parent = stack[-1] if stack else -1
        buf.name.append(nid)
        buf.parent.append(parent)
        if side is None:
            side = buf.side[parent] if parent >= 0 else buf.root_side
        buf.side.append(side)
        buf.end.append(0)
        stack.append(idx)
        buf.start.append(time.perf_counter_ns())
        return buf, idx

    @staticmethod
    def leave(buf, idx):
        buf.end[idx] = time.perf_counter_ns()
        buf.stack.pop()

    def wrap(self, layer, name, fn, side=None):
        """``fn`` inside a span named ``layer``/``name``."""
        nid = self.name_id(layer, name)
        if side is None:
            side = _FORCED_SIDE.get(layer)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            buf, idx = enter(nid, side)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(buf, idx)

        return functools.wraps(fn)(traced)

    def callback(self, fn):
        """Wrap a callback handed to the loop: a span in the callback's own
        layer, on the side of the code scheduling it, counted as an event."""
        layer = layer_of(fn)
        side = _FORCED_SIDE.get(layer, self.buffer().current_side())
        nid = self.name_id(layer, _callable_name(fn))
        enter, leave = self.enter, self.leave

        def traced(*args):
            buf, idx = enter(nid, side)
            buf.counts["events", side] += 1
            try:
                return fn(*args)
            finally:
                leave(buf, idx)

        return traced

    def root(self, side, fn, *args):
        """Run ``fn`` under a ``bench`` root span on this thread."""
        self.buffer(side).root_side = side
        buf, idx = self.enter(self.name_id("bench", "root"), side)
        try:
            return fn(*args)
        finally:
            self.leave(buf, idx)


class TracedConn:
    """Proxy for a transport connection: sends are ``transport`` spans, and
    every segment handed to the receiver is counted with its bytes."""

    def __init__(self, tracer, conn, side):
        self._tracer = tracer
        self._conn = conn
        self._side = side
        self.send = tracer.wrap("transport", "send", conn.send, side)

    def set_receiver(self, fn):
        tracer, side = self._tracer, self._side
        traced_fn = tracer.wrap(layer_of(fn), _callable_name(fn), fn,
                                _FORCED_SIDE.get(layer_of(fn), side))

        def receive(data):
            counts = tracer.buffer().counts
            counts["segments"] += 1
            counts["bytes"] += len(data)
            traced_fn(data)

        self._conn.set_receiver(receive)

    def __getattr__(self, name):
        return getattr(self._conn, name)


# Methods given dedicated wrappers in Instrumentation.install, and
# accessors too cheap to trace: a span costs more than now_us() itself and
# would inflate the caller's layer.
_UNWRAPPED = {"call_at", "add_reader", "add_writer", "add_done_callback",
              "sample_switch_rtt", "attach_session", "now_us", "done",
              "result", "exception", "session_active"}


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _public_methods(cls):
    return [name for name, obj in vars(cls).items()
            if inspect.isfunction(obj) and not name.startswith("_")]


class Instrumentation:
    """Patches the layer modules for one traced pass; ``remove`` restores
    every original attribute."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_attr(self, layer, owner, attr, prefix=""):
        fn = vars(owner)[attr]
        self._patch(owner, attr, self.tracer.wrap(layer, prefix + attr, fn))

    def install(self):
        t = self.tracer
        for module in (frames, wire):
            for name in _public_functions(module):
                self._wrap_attr(module.__name__.split(".")[1], module, name)
        self._wrap_attr("wire", wire.MessageStream, "feed", "MessageStream.")
        self._wrap_attr("netsim", netsim, "dataplane_process")
        for layer, cls in (("eventloop", eventloop.EventLoop),
                           ("eventloop", eventloop.Handle),
                           ("eventloop", eventloop.Future),
                           ("session", session.SwitchSession),
                           ("engine", engine.MeasurementEngine),
                           ("netsim", netsim.SimSwitch)):
            for name in _public_methods(cls):
                if name not in _UNWRAPPED:
                    self._wrap_attr(layer, cls, name, cls.__name__ + ".")

        for name in ("call_at", "add_reader", "add_writer"):
            self._wrap_scheduler(eventloop.EventLoop, name,
                                 lambda key, fn, *a: (key, t.callback(fn)) + a)
        self._wrap_scheduler(eventloop.Future, "add_done_callback",
                             lambda fn: (t.callback(fn),))

        sample = vars(session.SwitchSession)["sample_switch_rtt"]

        def record_echo(fut):
            if fut.exception() is None:
                t.echo_rtts_us.append(fut.result())

        def sample_switch_rtt(sess):
            fut = sample(sess)
            fut.add_done_callback(record_echo)
            return fut

        self._patch(session.SwitchSession, "sample_switch_rtt",
                    t.wrap("session", "SwitchSession.sample_switch_rtt",
                           sample_switch_rtt))

        attach = vars(engine.MeasurementEngine)["attach_session"]

        def attach_session(eng, sess):
            attach(eng, sess)
            sess.packet_in_handler = t.wrap("engine", "packet_in_handler",
                                            sess.packet_in_handler)

        self._patch(engine.MeasurementEngine, "attach_session",
                    t.wrap("engine", "MeasurementEngine.attach_session",
                           attach_session))

        dispatch = vars(api.ApiApp)["dispatch"]

        def traced_dispatch(app, method, path, body=b"", headers=None):
            buf, idx = t.enter(t.name_id("api", "%s %s" % (method, path)),
                               CTRL)
            try:
                return dispatch(app, method, path, body, headers)
            finally:
                t.leave(buf, idx)

        self._patch(api.ApiApp, "dispatch", traced_dispatch)
        return self

    def _wrap_scheduler(self, cls, name, convert):
        """Wrap a method that takes a callback; ``convert`` rewrites its
        arguments so the callback is traced too."""
        method = vars(cls)[name]

        def scheduler(obj, *args):
            return method(obj, *convert(*args))

        self._patch(cls, name, self.tracer.wrap(
            "eventloop", "%s.%s" % (cls.__name__, name), scheduler))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's."""
    self_ns = array("q", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            self_ns[p] -= end[i] - start[i]
    return self_ns


def summarize(tracer):
    """{(layer, name, side): [calls, total_ns, self_ns]} over all threads,
    counting only spans inside a ``bench`` root (set-up is left out)."""
    root = tracer.name_id("bench", "root")
    out = collections.defaultdict(lambda: [0, 0, 0])
    for buf in tracer.buffers:
        own = self_times(buf.start, buf.end, buf.parent)
        inside = []
        for i, nid in enumerate(buf.name):
            p = buf.parent[i]
            inside.append(nid == root or (p >= 0 and inside[p]))
            if not inside[i]:
                continue
            layer, name = tracer.names[nid]
            row = out[layer, name, SIDE_NAMES[buf.side[i]]]
            row[0] += 1
            row[1] += buf.end[i] - buf.start[i]
            row[2] += own[i]
    return dict(out)


def write_spans(tracer, path):
    """One JSON header line, then per thread the raw arrays (name int32,
    start int64 ns, end int64 ns, parent int32, side int8), in the order
    and with the lengths the header lists."""
    header = {
        "names": ["%s.%s" % key for key in tracer.names],
        "sides": list(SIDE_NAMES),
        "threads": [{"thread": b.thread, "spans": len(b.start)}
                    for b in tracer.buffers],
        "arrays": ["name:i4", "start_ns:i8", "end_ns:i8", "parent:i4",
                   "side:i1"],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for buf in tracer.buffers:
            for arr in (buf.name, buf.start, buf.end, buf.parent, buf.side):
                arr.tofile(fh)
