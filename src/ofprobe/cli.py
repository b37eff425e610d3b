"""Experimenter command line: submit tasks, watch results, analyze error.

Talks to the controller's HTTP API.  A bearer token, when the deployment
requires one, is read from the OFPROBE_TOKEN environment variable.  Exit
status is 0 on success, 1 on errors, and 3 when the controller reports its
task table is full and needs a dump-and-clear.
"""

import argparse
import json
import os
import sys
import time

import requests

from . import netsim, report as report_mod

POLL_INTERVAL_S = 0.1
CLIENT_GRACE_S = 2.0
TOKEN_ENV = "OFPROBE_TOKEN"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_STATE_FULL = 3


class CliError(Exception):
    def __init__(self, message, exit_code=EXIT_ERROR):
        super().__init__(message)
        self.exit_code = exit_code


def _headers():
    token = os.environ.get(TOKEN_ENV)
    return {"Authorization": "Bearer %s" % token} if token else {}


def _request(method, url, body=None):
    try:
        resp = requests.request(method, url, json=body, headers=_headers(),
                                timeout=30)
    except requests.RequestException as exc:
        raise CliError("cannot reach controller: %s" % exc)
    try:
        payload = resp.json()
    except ValueError:
        payload = {}
    if resp.status_code != 200:
        code = EXIT_STATE_FULL if payload.get("code") == "state_full" \
            else EXIT_ERROR
        raise CliError("controller returned %d: %s"
                       % (resp.status_code, payload.get("error", "?")), code)
    return payload


def _api(controller, path):
    return controller.rstrip("/") + path


def _fmt_ms(us):
    return "%.3f ms" % (us / 1000.0)


def _poll_dump(controller, path, icmp_id, done, deadline_s):
    """Poll a dump endpoint until done(entry) or the deadline; returns the
    last entry seen."""
    entry = None
    while True:
        dump = _request("GET", _api(controller, path))
        entry = dump.get(str(icmp_id))
        if entry is not None and done(entry):
            return entry
        if time.monotonic() >= deadline_s:
            return entry
        time.sleep(POLL_INTERVAL_S)


def _probe_window_s(args, probes):
    # Worst case: every probe lost and paced by the emission gap.
    gap_s = (args.gap_us or 0) * probes / 1e6
    return 3.0 + CLIENT_GRACE_S + gap_s


def cmd_ping(args):
    body = {"tgt": args.target, "num": args.num, "payload": args.payload}
    if args.out_port is not None:
        body["out_port"] = args.out_port
    if args.gap_us is not None:
        body["gap_us"] = args.gap_us
    icmp_id = _request("PUT", _api(args.controller, "/ping/"), body)["icmp_id"]
    print("ping %s: %d probe(s), icmp_id %d" % (args.target, args.num, icmp_id))
    deadline = time.monotonic() + _probe_window_s(args, args.num)
    entry = _poll_dump(
        args.controller, "/ping/dump", icmp_id,
        lambda e: len(e["probes"]) == args.num
        and all(p[1] is not None for p in e["probes"]),
        deadline)
    if entry is None:
        raise CliError("task %d disappeared from the dump" % icmp_id)
    answered = 0
    estimates = report_mod.task_estimates(entry)
    for seq, (rtt, (_t_out, _t_in, responder)) in enumerate(
            zip(estimates, entry["probes"])):
        if rtt is None:
            print("seq %d: lost" % seq)
        else:
            answered += 1
            print("seq %d: %s rtt %s" % (seq, responder, _fmt_ms(rtt)))
    print("%d/%d answered, control-channel rtt %s"
          % (answered, args.num, _fmt_ms(entry["rtt_cs_us"] or 0.0)))
    return EXIT_OK


def cmd_traceroute(args):
    body = {"tgt": args.target, "probes_per_ttl": args.probes_per_ttl}
    if args.out_port is not None:
        body["out_port"] = args.out_port
    icmp_id = _request("PUT", _api(args.controller, "/traceroute/"),
                       body)["icmp_id"]
    print("traceroute %s: %d probe(s) per ttl, icmp_id %d"
          % (args.target, args.probes_per_ttl, icmp_id))
    deadline = time.monotonic() + _probe_window_s(
        args, 30 * args.probes_per_ttl)
    entry = _poll_dump(args.controller, "/traceroute/dump", icmp_id,
                       lambda e: e["terminated"] != "in_progress", deadline)
    if entry is None:
        raise CliError("task %d disappeared from the dump" % icmp_id)
    for ttl in sorted(entry["hops"], key=int):
        cells = []
        for responder, rtt in entry["hops"][ttl]:
            if responder is None:
                cells.append("*")
            else:
                cells.append("%s %s" % (responder, _fmt_ms(rtt)))
        print("%3s  %s" % (ttl, "  ".join(cells)))
    print(entry["terminated"].replace("_", " "))
    return EXIT_OK


def _load_dump(source):
    if source.startswith("http://") or source.startswith("https://"):
        return _request("GET", source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_report(args):
    dump = _load_dump(args.dump)
    topology = netsim.load_topology(args.topology)
    try:
        rep = report_mod.report_from_topology(dump, topology)
    except report_mod.MismatchedTargets as exc:
        raise CliError("dump target %s is not in the topology" % exc)
    print("%-16s %10s %10s %10s %10s %8s"
          % ("target", "truth_ms", "first_ms", "mean_ms", "abs_err_ms",
             "rel_err"))
    for r in rep.rows:
        print("%-16s %10.3f %10s %10.3f %10.3f %7.2f%%"
              % (r.target, r.truth_us / 1000.0,
                 "-" if r.est_us is None else "%.3f" % (r.est_us / 1000.0),
                 r.est_mean_us / 1000.0, r.abs_error_us / 1000.0,
                 100.0 * r.rel_error))
    if rep.unanswered_targets:
        print("%d task(s) had no answered probes" % rep.unanswered_targets)
    if not rep.rows:
        raise CliError("nothing to summarize")
    print("percentiles:")
    for p, vals in rep.percentile_summary().items():
        print("  p%-3d abs %10.3f ms   rel %6.2f%%"
              % (p, vals["abs_error_us"] / 1000.0, 100.0 * vals["rel_error"]))
    if args.csv:
        rep.write_csv(args.csv)
        print("rows written to %s" % args.csv)
    if args.cdf:
        with open(args.cdf, "w", encoding="utf-8") as fh:
            fh.write("abs_error_us,cumulative_fraction\n")
            for value, frac in rep.abs_error_cdf():
                fh.write("%r,%r\n" % (value, frac))
        print("absolute-error CDF written to %s" % args.cdf)
    return EXIT_OK


def cmd_calibrate(args):
    body = {"tgt": args.target, "num": args.samples, "gap_us": args.gap_us}
    icmp_id = _request("PUT", _api(args.controller, "/ping/"), body)["icmp_id"]
    print("calibration task %d: %d probes, gap %d us"
          % (icmp_id, args.samples, args.gap_us))
    deadline = time.monotonic() + _probe_window_s(args, args.samples)
    _poll_dump(args.controller, "/ping/dump", icmp_id,
               lambda e: len(e["probes"]) == args.samples
               and all(p[1] is not None for p in e["probes"]),
               deadline)
    events = netsim.load_event_log(args.event_log)
    pktout, pktin, reorderings = netsim.pair_event_log(events)
    if not pktout:
        raise CliError("event log %s recorded no emissions" % args.event_log)
    print("packet-out delays: n=%d min=%s p50=%s max=%s"
          % (len(pktout), _fmt_ms(min(pktout)),
             _fmt_ms(report_mod.percentile(pktout, 50)), _fmt_ms(max(pktout))))
    in_band = sum(1 for d in pktout if 1500 <= d <= 2000) / len(pktout)
    print("  fraction in [1.5, 2.0] ms: %.4f" % in_band)
    if pktin:
        print("packet-in delays: n=%d min=%s p50=%s max=%s"
              % (len(pktin), _fmt_ms(min(pktin)),
                 _fmt_ms(report_mod.percentile(pktin, 50)), _fmt_ms(max(pktin))))
        print("  fraction <= 1.0 ms: %.4f"
              % (sum(1 for d in pktin if d <= 1000) / len(pktin)))
    print("reorderings: %d" % reorderings)
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ofprobe",
        description="Client for the switch-based measurement controller.")
    parser.add_argument("--controller", default="http://127.0.0.1:8080",
                        help="base URL of the controller API")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ping", help="probe one target and print RTTs")
    p.add_argument("--target", required=True)
    p.add_argument("--num", type=int, default=3)
    p.add_argument("--payload", default="")
    p.add_argument("--out-port", type=int, default=None, dest="out_port")
    p.add_argument("--gap-us", type=int, default=None, dest="gap_us")
    p.set_defaults(fn=cmd_ping)

    p = sub.add_parser("traceroute", help="trace the path to one target")
    p.add_argument("--target", required=True)
    p.add_argument("--probes-per-ttl", type=int, default=1,
                   dest="probes_per_ttl")
    p.add_argument("--out-port", type=int, default=None, dest="out_port")
    p.set_defaults(fn=cmd_traceroute, gap_us=None)

    p = sub.add_parser("report",
                       help="compare a ping dump against topology truth")
    p.add_argument("--dump", required=True,
                   help="dump file, or an http URL to /ping/dump")
    p.add_argument("--topology", required=True)
    p.add_argument("--csv", default=None, help="write per-target rows here")
    p.add_argument("--cdf", default=None,
                   help="write the absolute-error CDF here")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("calibrate",
                       help="drive probes and summarize switch-side delays")
    p.add_argument("--target", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--gap-us", type=int, default=60000, dest="gap_us",
                   help="emission gap; keep it above the worst-case delay "
                        "so samples stay independent")
    p.add_argument("--event-log", required=True, dest="event_log",
                   help="CSV event log written by the simulated switch")
    p.set_defaults(fn=cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
