"""Smoke-size tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/tests``.  The workloads are cut down
to a few hundred tasks so the whole file takes seconds.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads
from ofprobe import api, eventloop, frames

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SMOKE_TASKS = {"sim-ping": 1024, "sim-traceroute": 32}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def small_inputs(name, seed=3, seconds=2, trace=False):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, seed, seconds, trace)
    if not wl.realtime:
        inputs.batches = [inputs.batches[0][:SMOKE_TASKS[name]]]
    return wl, inputs


@pytest.fixture
def smoke(monkeypatch):
    real = workloads.make_inputs

    def make_inputs(wl, seed, seconds, trace=False):
        inputs = real(wl, seed, min(seconds, 2), trace)
        if not wl.realtime:
            inputs.batches = [inputs.batches[0][:SMOKE_TASKS[wl.name]]]
        return inputs

    monkeypatch.setattr(workloads, "make_inputs", make_inputs)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(smoke, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "2",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in out[:-1]), metric["name"]
        if "bound" in metric:
            assert got["value"] > 0, metric["name"]


def test_traced_run_restores_the_program():
    originals = (frames.build_echo_request, eventloop.EventLoop.call_at,
                 api.ApiApp.dispatch)
    wl, inputs = small_inputs("sim-ping", trace=True)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer).install()
    try:
        assert frames.build_echo_request is not originals[0]
        workloads.run_pass(wl, inputs, tracer, record_traffic=True)
    finally:
        instrumentation.remove()
    assert (frames.build_echo_request, eventloop.EventLoop.call_at,
            api.ApiApp.dispatch) == originals
    layers = {layer for layer, _name in tracer.names}
    assert set(tracing.LAYERS) <= layers


def _virtual_table(name):
    """Run a smoke batch; return what the checks see."""
    wl, inputs = small_inputs(name)
    stack = workloads.VirtualStack(inputs)
    gen = workloads.VirtualLoad(stack.loop, stack.app, wl, inputs.batches[0])
    gen.start()
    stack.loop.run_until_idle()
    _status, dump = stack.app.dispatch("GET", wl.path + "/dump")
    snapshot = checks.snapshot_records(wl.table(stack.engine))
    emitted = stack.switch.counters["packet_out"] - 1   # minus the ARP
    return wl, dump, snapshot, gen.accepted, inputs.topology, emitted


@pytest.mark.parametrize("name", ["sim-ping", "sim-traceroute"])
def test_checks_pass_on_a_real_table(name):
    wl, *args = _virtual_table(name)
    errors, answered, expired, rtt = wl.check(*args)
    assert errors == []
    assert answered > 0 and expired > 0 and len(rtt) > 0


def test_checks_trip_on_a_ping_dump_missing_one_probe():
    wl, dump, *rest = _virtual_table("sim-ping")
    bad = copy.deepcopy(dump)
    bad[next(iter(bad))]["probes"].pop()
    errors = wl.check(bad, *rest)[0]
    assert any("dumped 0 probes, requested 1" in e for e in errors)


def test_checks_trip_on_a_traceroute_dump_missing_one_probe():
    wl, dump, *rest = _virtual_table("sim-traceroute")
    bad = copy.deepcopy(dump)
    entry = bad[next(iter(bad))]
    entry["hops"]["1"].pop()
    errors = wl.check(bad, *rest)[0]
    assert any("ttl 1 dumped 2 cells" in e for e in errors)


def test_checks_trip_on_a_probe_the_engine_lost():
    wl, dump, snapshot, requests, topology, emitted = _virtual_table(
        "sim-ping")
    bad = copy.deepcopy(snapshot)
    del bad[next(iter(bad))][0]
    errors = wl.check(dump, bad, requests, topology, emitted)[0]
    assert any("!= emitted" in e for e in errors)


def test_checks_trip_on_a_wrong_hop():
    wl, dump, *rest = _virtual_table("sim-traceroute")
    bad = copy.deepcopy(dump)
    for entry in bad.values():
        row = entry["hops"]["1"]
        if row[0][0] is not None:
            row[0][0] = "203.0.113.9"
            break
    errors = wl.check(bad, *rest)[0]
    assert any("answered by 203.0.113.9" in e for e in errors)


def test_failed_check_fails_the_run(smoke, capsys, monkeypatch):
    real = checks.snapshot_records

    def lose_one(table):
        snap = real(table)
        del snap[next(iter(snap))][0]
        return snap

    monkeypatch.setattr(checks, "snapshot_records", lose_one)
    code = run.main(["--workload", "sim-ping", "--seed", "5", "--seconds",
                     "2", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("CHECK FAILED") for line in out)


@pytest.mark.parametrize("name", ["sim-ping", "sim-traceroute"])
def test_same_seed_same_results_other_seed_other_inputs(name):
    def results(seed):
        wl, inputs = small_inputs(name, seed)
        p = workloads.run_pass(wl, inputs)
        assert p.errors == []
        return (p.digest, p.rtt_error_us(50), p.rtt_error_us(99),
                p.answered / p.requested_probes)

    first = results(7)
    assert results(7) == first
    assert results(8)[0] != first[0]


def test_self_times_of_a_synthetic_span_tree():
    #   root [0,100]: a [10,40] (with a1 [20,30]), b [50,90]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    own = list(tracing.self_times(start, end, parent))
    assert own == [30, 20, 10, 40]
    assert sum(own) == end[0] - start[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "benchmarks" / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sim-ping",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
