"""Command line client against a live controller and emulated switch.

The fixture runs the real stack in-process: the controller's realtime event
loop in one thread, the emulated switch dialing it over localhost TCP in
another, and the CLI issuing real HTTP requests.
"""

import json
import re
import threading
import time
from types import SimpleNamespace

import pytest

from ofprobe import cli, netsim
from ofprobe.config import ControllerConfig
from ofprobe.controller import Controller
from ofprobe.engine import ID_SPACE
from ofprobe.eventloop import EventLoop
from helpers import VirtualStack, make_topology

LIVE_TOPOLOGY = """\
simtopo v1
dpid 0x1
ports 1
seed 5
pktout_delay constant 2ms
pktin_delay constant 0.5ms
target 192.0.2.1 rtt 20ms
target 192.0.2.9 rtt 30ms hops 10.1.0.1:2ms,10.1.0.2:5ms
"""


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    event_log = tmp_path_factory.mktemp("cli") / "events.csv"
    topo = netsim.parse_topology(LIVE_TOPOLOGY)
    ctrl_loop = EventLoop(realtime=True)
    ctrl = Controller(ctrl_loop, ControllerConfig(
        openflow_host="127.0.0.1", openflow_port=0,
        api_host="127.0.0.1", api_port=0))
    ctrl.start()
    ctrl_thread = threading.Thread(target=ctrl_loop.run_forever, daemon=True)
    ctrl_thread.start()
    sw_loop = EventLoop(realtime=True)
    # dial before the switch loop runs so the reader registration cannot race
    switch = netsim.run_sim_switch(
        sw_loop, topo, controller="127.0.0.1:%d" % ctrl.openflow_port,
        event_log_path=str(event_log))
    sw_thread = threading.Thread(target=sw_loop.run_forever, daemon=True)
    sw_thread.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and not ctrl.engine.session_active():
        time.sleep(0.02)
    assert ctrl.engine.session_active(), "switch never completed the handshake"
    yield SimpleNamespace(base="http://127.0.0.1:%d" % ctrl.api_port,
                          ctrl=ctrl, ctrl_loop=ctrl_loop,
                          event_log=str(event_log))
    ctrl_loop.call_threadsafe(ctrl.shutdown)
    time.sleep(0.2)
    sw_loop.call_threadsafe(switch.close)
    sw_loop.call_threadsafe(sw_loop.stop)
    ctrl_loop.call_threadsafe(ctrl_loop.stop)
    ctrl_thread.join(timeout=5)
    sw_thread.join(timeout=5)


def on_controller_loop(live, fn):
    done = threading.Event()
    result = []

    def wrapper():
        result.append(fn())
        done.set()

    live.ctrl_loop.call_threadsafe(wrapper)
    assert done.wait(5)
    return result[0]


def test_ping_command_prints_rtts(live, capsys):
    rc = cli.main(["--controller", live.base,
                   "ping", "--target", "192.0.2.1", "--num", "2"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "2/2 answered" in out
    rtts = [float(m)
            for m in re.findall(r"seq \d+: \S+ rtt (\d+\.\d+) ms", out)]
    assert len(rtts) == 2
    # 20 ms of path plus 2.5 ms switch processing, minus the measured
    # control-channel RTT; localhost keeps it well inside this window
    assert all(15.0 < rtt < 40.0 for rtt in rtts)


def test_traceroute_command_prints_hop_table(live, capsys):
    rc = cli.main(["--controller", live.base,
                   "traceroute", "--target", "192.0.2.9"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert re.search(r"^\s*1\s+10\.1\.0\.1 ", out, re.M)
    assert re.search(r"^\s*2\s+10\.1\.0\.2 ", out, re.M)
    assert re.search(r"^\s*3\s+192\.0\.2\.9 ", out, re.M)
    assert "destination reached" in out


def test_calibrate_command_summarizes_event_log(live, capsys):
    rc = cli.main(["--controller", live.base,
                   "calibrate", "--target", "192.0.2.1",
                   "--samples", "5", "--gap-us", "5000",
                   "--event-log", live.event_log])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "packet-out delays:" in out
    assert "fraction in [1.5, 2.0] ms:" in out
    # realtime timers add scheduling jitter on top of the configured 2 ms,
    # but they can never fire early
    min_ms = float(re.search(r"min=(\d+\.\d+) ms", out).group(1))
    assert min_ms >= 2.0
    assert "reorderings: 0" in out


def test_unreachable_controller_is_exit_1(capsys):
    rc = cli.main(["--controller", "http://127.0.0.1:1",
                   "ping", "--target", "192.0.2.1"])
    assert rc == cli.EXIT_ERROR
    assert "cannot reach controller" in capsys.readouterr().err


def test_full_task_table_is_exit_3(live, capsys):
    def fill():
        taken = []
        while live.ctrl.engine.allocator.in_use < ID_SPACE:
            taken.append(live.ctrl.engine.allocator.allocate())
        return taken

    taken = on_controller_loop(live, fill)
    try:
        rc = cli.main(["--controller", live.base,
                       "ping", "--target", "192.0.2.1"])
        assert rc == cli.EXIT_STATE_FULL
        assert "503" in capsys.readouterr().err
    finally:
        on_controller_loop(live, lambda: [
            live.ctrl.engine.allocator.release(i) for i in taken])


# -- report subcommand works offline from files -------------------------------------


def test_report_command_from_files(tmp_path, capsys):
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    topo.targets["192.0.2.2"] = netsim.TargetSpec(base_rtt_us=80_000)
    stack = VirtualStack(topo)
    stack.run_ping("192.0.2.1", 2)
    stack.run_ping("192.0.2.2", 2)
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps(stack.engine.dump_ping()))
    topo_path = tmp_path / "topology.txt"
    topo_path.write_text(netsim.format_topology(topo))
    csv_path = tmp_path / "rows.csv"
    cdf_path = tmp_path / "cdf.csv"
    rc = cli.main(["report", "--dump", str(dump_path),
                   "--topology", str(topo_path),
                   "--csv", str(csv_path), "--cdf", str(cdf_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "192.0.2.1" in out and "192.0.2.2" in out
    assert "percentiles:" in out
    assert csv_path.read_text().startswith("target,truth_us")
    assert cdf_path.read_text().startswith("abs_error_us,cumulative_fraction")


def test_report_command_rejects_foreign_dump(tmp_path, capsys):
    topo = make_topology()
    topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps({
        "1": {"tgt": "203.0.113.5", "rtt_cs_us": 0.0,
              "probes": [[0, 100, "203.0.113.5"]]}}))
    topo_path = tmp_path / "topology.txt"
    topo_path.write_text(netsim.format_topology(topo))
    rc = cli.main(["report", "--dump", str(dump_path),
                   "--topology", str(topo_path)])
    assert rc == cli.EXIT_ERROR
    assert "not in the topology" in capsys.readouterr().err


def test_report_command_rejects_a_traceroute_dump(tmp_path, capsys):
    topo = make_topology()
    topo.targets["192.0.2.9"] = netsim.TargetSpec(
        base_rtt_us=30_000, hops=[("10.1.0.1", 2_000)])
    stack = VirtualStack(topo)
    stack.run_traceroute("192.0.2.9")
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps(stack.engine.dump_traceroute()))
    topo_path = tmp_path / "topology.txt"
    topo_path.write_text(netsim.format_topology(topo))
    rc = cli.main(["report", "--dump", str(dump_path),
                   "--topology", str(topo_path)])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "not a ping dump" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "simtopo v2\n",                 # TopologyError: unsupported version
    "simtopo v1\ndpid 0xzz\n",     # ValueError from int()
])
def test_report_command_rejects_a_bad_topology(tmp_path, capsys, text):
    dump_path = tmp_path / "dump.json"
    dump_path.write_text("{}")
    topo_path = tmp_path / "topology.txt"
    topo_path.write_text(text)
    rc = cli.main(["report", "--dump", str(dump_path),
                   "--topology", str(topo_path)])
    assert rc == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith(
        "error: cannot read topology %s" % topo_path)


@pytest.mark.parametrize("text", [None, "{not json"])
def test_report_command_rejects_an_unreadable_dump(tmp_path, capsys, text):
    dump_path = tmp_path / "dump.json"
    if text is not None:
        dump_path.write_text(text)
    rc = cli.main(["report", "--dump", str(dump_path),
                   "--topology", str(tmp_path / "topology.txt")])
    assert rc == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith(
        "error: cannot read dump %s" % dump_path)
