"""Shared fixtures: a full in-process stack on the virtual clock.

One event loop carries the controller-side session and engine, the
simulated switch, and a virtual control channel whose per-segment delay is
drawn from the topology's control_link model.  Everything is deterministic
for a fixed topology seed.
"""

import queue
import random
import time

from ofprobe import netsim, transport
from ofprobe.engine import MeasurementEngine, ProbeSettings
from ofprobe.eventloop import EventLoop
from ofprobe.session import SwitchSession


def make_topology(**kwargs):
    """SimTopology with quiet constant delays unless overridden."""
    kwargs.setdefault("control_link", netsim.ConstantDelay(5000))
    kwargs.setdefault("pktout_delay", netsim.ConstantDelay(2000))
    kwargs.setdefault("pktin_delay", netsim.ConstantDelay(500))
    return netsim.SimTopology(**kwargs)


class VirtualStack:
    """Controller engine wired to a simulated switch, virtual clock."""

    def __init__(self, topology=None, settings=None, record_traffic=True,
                 event_log_path=None):
        self.loop = EventLoop()
        self.topology = (topology or make_topology()).validate()
        # The control link gets its own rng so switch-side delay draws stay
        # aligned with the topology seed no matter how traffic is segmented.
        self._link_rng = random.Random(self.topology.seed ^ 0xC0FFEE)
        link = self.topology.control_link
        ctrl_end, sw_end = transport.virtual_pair(
            self.loop, lambda: link.sample(self._link_rng))
        self.session = SwitchSession(self.loop, ctrl_end)
        self.switch = netsim.SimSwitch(self.loop, self.topology,
                                       record_traffic=record_traffic,
                                       event_log_path=event_log_path)
        self.switch.attach(sw_end)
        self.engine = MeasurementEngine(self.loop, settings or ProbeSettings())
        self.session.ready.add_done_callback(self._on_ready)
        self.loop.run_until_idle()
        assert self.engine.session_active(), "handshake did not complete"

    def _on_ready(self, fut):
        if fut.exception() is None:
            self.engine.attach_session(self.session)

    def run(self, max_events=None):
        return self.loop.run_until_idle(max_events)

    def run_ping(self, target, num, **kwargs):
        """Start a ping, drain the loop, return the task's dump entry."""
        icmp_id = self.engine.start_ping(target, num, **kwargs)
        self.loop.run_until_idle()
        return self.engine.dump_ping()[str(icmp_id)]

    def run_traceroute(self, target, probes_per_ttl=1, **kwargs):
        icmp_id = self.engine.start_traceroute(target, probes_per_ttl,
                                               **kwargs)
        self.loop.run_until_idle()
        return self.engine.dump_traceroute()[str(icmp_id)]


def on_loop(loop, fn):
    """Run fn on a realtime loop's thread and return its result."""
    answer = queue.Queue()
    loop.call_threadsafe(lambda: answer.put(fn()))
    return answer.get(timeout=5)


def wait_for(loop, predicate):
    deadline = time.monotonic() + 10
    while not on_loop(loop, predicate):
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)
