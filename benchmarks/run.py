"""Benchmark the ofprobe stack on one seeded workload.

    python3 benchmarks/run.py --workload sim-ping --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
seed untraced and then traced, and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (one per workload with ``--workload all``).  The exit code is
0 only when every output check passed.
See README.md in this directory for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_stack():
    """Put the checkout's own sources first on the path; refuse to run
    against anything else."""
    if not os.path.isfile(os.path.join(SRC, "ofprobe", "__init__.py")):
        raise SystemExit("ofprobe sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import ofprobe
    if os.path.dirname(os.path.abspath(ofprobe.__file__)) != \
            os.path.join(SRC, "ofprobe"):
        raise SystemExit("imported ofprobe from %s, not %s"
                         % (ofprobe.__file__, SRC))


def end_to_end(p):
    """{name: (value, unit)} for one untraced pass."""
    return {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "probes_per_s": (p.probes_per_s(), "1/s"),
        "answered_frac": (p.answered / p.requested_probes, "frac"),
        "rtt_err_p50_us": (p.rtt_error_us(50), "us"),
        "rtt_err_p99_us": (p.rtt_error_us(99), "us"),
        "dump_ms": (statistics.median(p.dump_s) * 1000, "ms"),
        "ctrl_cpu_us_per_probe": (p.ctrl_cpu_us_per_probe(), "us"),
    }


def layer_self_ns(rows):
    """{(layer, side): self ns} from a span summary."""
    totals = {}
    for (layer, _name, side), (_calls, _total, own) in rows.items():
        totals[layer, side] = totals.get((layer, side), 0) + own
    return totals


def per_layer(kind, traced, untraced, tracer, rows):
    """{name: (value, unit)} from a traced pass, its span summary ``rows``
    and an untraced pass of the same seed.  Layer figures are
    controller-side unless named ``netsim``; simulator-side calls into
    frames, wire and transport count as netsim."""
    from ofprobe.report import percentile
    from tracing import CTRL, LAYERS

    probes = traced.probes

    def row(layer, name):
        return rows.get((layer, name, "ctrl"), (0, 0, 0))

    def mean_us(layer, name):
        calls, total_ns, _own = row(layer, name)
        return total_ns / calls / 1000 if calls else 0.0

    def per_probe(n):
        return n / probes

    self_ns = layer_self_ns(rows)
    counts = {}
    for buf in tracer.buffers:
        for key, n in buf.counts.items():
            counts[key] = counts.get(key, 0) + n
    busy_ns = sum(total for (layer, name, _side), (_c, total, _o)
                  in rows.items() if (layer, name) == ("bench", "root"))
    busy_ns -= sum(ns for (layer, _side), ns in self_ns.items()
                   if layer == "idle")
    ctrl_ns = sum(self_ns.get((layer, "ctrl"), 0) for layer in LAYERS)
    sim_ns = sum(self_ns.get((layer, "sim"), 0) for layer in LAYERS)
    bench_ns = sum(ns for (layer, _side), ns in self_ns.items()
                   if layer == "bench")
    decodes = row("wire", "decode_message")[0]
    untraced_pps = untraced.probes_per_s()
    traced_pps = traced.probes_per_s()

    metrics = {
        "frames.build_us": (mean_us("frames", "build_echo_request"), "us"),
        "frames.parse_us": (mean_us("frames", "parse_reply"), "us"),
        "frames.checksum_calls_per_probe": (
            per_probe(row("frames", "internet_checksum")[0]), "count/probe"),
        "wire.encode_us": (mean_us("wire", "encode_message"), "us"),
        "wire.decode_us": (mean_us("wire", "decode_message"), "us"),
        "wire.feed_us_per_msg": (
            row("wire", "MessageStream.feed")[1] / max(1, decodes) / 1000,
            "us"),
        "wire.msgs_per_probe": (
            per_probe(row("wire", "encode_message")[0] + decodes),
            "count/probe"),
        "transport.segments_per_probe": (
            per_probe(counts.get("segments", 0)), "count/probe"),
        "transport.bytes_per_probe": (
            per_probe(counts.get("bytes", 0)), "B/probe"),
        "eventloop.events_per_probe": (
            per_probe(counts.get(("events", CTRL), 0)), "count/probe"),
        "eventloop.timers_per_probe": (
            per_probe(row("eventloop", "EventLoop.call_at")[0]),
            "count/probe"),
        "eventloop.cancels_per_probe": (
            per_probe(row("eventloop", "Handle.cancel")[0]), "count/probe"),
        "eventloop.lag_p50_us": (percentile(untraced.lag_us, 50), "us"),
        "eventloop.lag_p99_us": (percentile(untraced.lag_us, 99), "us"),
        "session.echo_rtt_p50_us": (
            statistics.median(tracer.echo_rtts_us), "us"),
        "session.send_probe_us": (
            mean_us("session", "SwitchSession.send_probe"), "us"),
        "engine.start_us": (
            mean_us("engine", "MeasurementEngine.start_" + kind), "us"),
        "engine.reply_us": (mean_us("engine", "packet_in_handler"), "us"),
        "engine.dump_us_per_task": (
            row("engine", "MeasurementEngine.dump_" + kind)[1]
            / max(1, traced.tasks_dumped) / 1000, "us"),
        "engine.clear_us_per_task": (
            row("engine", "MeasurementEngine.clear_" + kind)[1]
            / max(1, traced.tasks_cleared) / 1000, "us"),
        "api.put_us": (mean_us("api", "PUT /" + kind), "us"),
        "api.rejected": (traced.rejected, "count"),
        "netsim.self_us_per_probe": (per_probe(sim_ns) / 1000, "us"),
        "netsim.pktout_late_us": (untraced.pktout_late_us, "us"),
        "netsim.pktin_late_us": (untraced.pktin_late_us, "us"),
        "stack.ctrl_us_per_probe": (per_probe(ctrl_ns) / 1000, "us"),
        "trace.probes_per_s_untraced": (untraced_pps, "1/s"),
        "trace.probes_per_s_traced": (traced_pps, "1/s"),
        "trace.overhead_frac": (1 - traced_pps / untraced_pps, "frac"),
        "trace.ctrl_cpu_overhead_frac": (
            traced.ctrl_cpu_us_per_probe()
            / untraced.ctrl_cpu_us_per_probe() - 1, "frac"),
        "trace.unattributed_frac": (bench_ns / busy_ns, "frac"),
    }
    for key in ("unknown_replies", "duplicate_replies", "late_replies",
                "malformed_frames", "echo_timeouts"):
        metrics["engine." + key] = (traced.counters.get(key, 0), "count")
    for layer in LAYERS:
        if layer != "netsim":
            metrics[layer + ".self_us_per_probe"] = (
                per_probe(self_ns.get((layer, "ctrl"), 0)) / 1000, "us")
    return metrics


def self_time_table(rows):
    """Printable lines: layer, side, self time, share of all self time."""
    totals = {key: ns for key, ns in layer_self_ns(rows).items()
              if key[0] != "idle"}
    whole = sum(totals.values()) or 1
    return ["  self %-10s %-4s %10.1f ms  %5.1f%%"
            % (layer, side, ns / 1e6, 100.0 * ns / whole)
            for (layer, side), ns in sorted(totals.items(),
                                            key=lambda kv: -kv[1])]


def run(workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics,
    info lines)."""
    import workloads
    from ofprobe.report import percentile
    from tracing import Instrumentation, Tracer, summarize, write_spans

    wl = workloads.WORKLOADS[workload]
    inputs = workloads.make_inputs(wl, seed, seconds, trace)
    info = []
    errors = []
    if not wl.realtime:
        replays = {workloads.replay_digest(wl, inputs) for _ in range(2)}
        if len(replays) != 1:
            errors.append("two fresh stacks of seed %d dumped different "
                          "tables" % seed)
    untraced = workloads.run_pass(wl, inputs, record_traffic=trace)
    errors.extend(untraced.errors)
    if trace and not errors:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer).install()
        try:
            traced = workloads.run_pass(wl, inputs, tracer,
                                        record_traffic=True)
        finally:
            instrumentation.remove()
        errors.extend(traced.errors)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "%s.spans" % workload)
        write_spans(tracer, spans_path)
        info.append("spans: %d written to %s" % (
            sum(len(b.start) for b in tracer.buffers),
            os.path.relpath(spans_path, os.path.dirname(HERE))))
        rows = summarize(tracer)
        info.extend(self_time_table(rows))
    info.insert(0, "%s seed %d: %d tasks, %d probes (%d answered, %d "
                "expired), dump digest %s"
                % (workload, seed, untraced.tasks, untraced.probes,
                   untraced.answered, untraced.expired,
                   untraced.digest[:16] or "n/a"))
    if not wl.realtime:
        info.append("machine slowness %.2f (reference routine time / "
                    "nominal); uncalibrated: probes_per_s %.1f, "
                    "ctrl_cpu_us_per_probe %.1f"
                    % (untraced.slowness(), untraced.probes_per_s(False),
                       untraced.ctrl_cpu_us_per_probe(False)))
    if untraced.generator_late_us:
        info.append("generator lateness p50 %.0f us, p99 %.0f us (limit "
                    "%d us)" % (percentile(untraced.generator_late_us, 50),
                                percentile(untraced.generator_late_us, 99),
                                workloads.GENERATOR_LATE_P99_LIMIT_US))
    if wl.realtime and untraced.rtt_errors_us:
        excess = [e - 2500 for e in untraced.rtt_errors_us]
        info.append("corrected RTT error minus 2.5 ms switch processing, "
                    "whole run: p50 %.0f us, p99 %.0f us"
                    % (percentile(excess, 50), percentile(excess, 99)))
    attempted = max(1, untraced.tasks)
    if errors:
        info.extend("CHECK FAILED: %s" % e for e in errors[:20])
        return False, attempted, attempted, {}, info
    if trace:
        metrics = per_layer(wl.kind, traced, untraced, tracer, rows)
    else:
        metrics = end_to_end(untraced)
    return True, attempted, untraced.rejected, metrics, info


WORKLOAD_NAMES = ("sim-ping", "sim-traceroute", "loopback-ping")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_stack()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in names:
        correct, attempted, failed, metrics, info = run(
            workload, args.seed, args.seconds, bool(args.trace))
        all_correct = all_correct and correct
        for line in info:
            print(line)
        for name, (value, unit) in metrics.items():
            print("  %-34s %14.4f %s" % (name, value, unit))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
