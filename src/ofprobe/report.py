"""Error analysis of ping dumps against simulator ground truth.

Every number here is recomputable from the raw dump by hand: per-probe
corrected RTTs, a first-probe estimate, the mean over answered probes, and
absolute/relative error against the topology's true RTT.
"""

import csv
from dataclasses import dataclass

from .engine import corrected_rtt


class MismatchedTargets(Exception):
    """The dump probes an address the truth topology does not describe."""


@dataclass
class ReportRow:
    target: str
    truth_us: float
    est_us: float          # first-probe estimate
    est_mean_us: float     # mean over answered probes
    abs_error_us: float    # |est_mean - truth|
    rel_error: float


def task_estimates(entry):
    """Corrected RTT per probe of one dump entry (None where unanswered)."""
    rtt_cs = entry["rtt_cs_us"]
    return [corrected_rtt(t_out, t_in, rtt_cs)
            for t_out, t_in, _responder in entry["probes"]]


def truth_map(topology):
    return {ip: float(spec.base_rtt_us) for ip, spec in topology.targets.items()}


def build_report(dump, truth_us_by_target):
    """One row per task with at least one answered probe, in task id order."""
    rows = []
    unanswered = 0
    for icmp_id in sorted(dump, key=int):
        entry = dump[icmp_id]
        target = entry["tgt"]
        if target not in truth_us_by_target:
            raise MismatchedTargets(target)
        estimates = task_estimates(entry)
        answered = [e for e in estimates if e is not None]
        if not answered:
            unanswered += 1
            continue
        truth = truth_us_by_target[target]
        first = estimates[0] if estimates else None
        mean = sum(answered) / len(answered)
        rows.append(ReportRow(
            target=target,
            truth_us=truth,
            est_us=first,
            est_mean_us=mean,
            abs_error_us=abs(mean - truth),
            rel_error=abs(mean - truth) / truth,
        ))
    return ErrorReport(rows, unanswered_targets=unanswered)


def percentile(values, p):
    """Linear-interpolation percentile, matching the numpy default."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def cdf_points(values):
    """Sorted (value, cumulative_fraction) pairs ready for plotting."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


class ErrorReport:
    PERCENTILES = (50, 90, 95, 99)

    def __init__(self, rows, unanswered_targets=0):
        self.rows = rows
        self.unanswered_targets = unanswered_targets

    def abs_errors(self):
        return [r.abs_error_us for r in self.rows]

    def rel_errors(self):
        return [r.rel_error for r in self.rows]

    def percentile_summary(self):
        abs_us = self.abs_errors()
        rel = self.rel_errors()
        return {p: {"abs_error_us": percentile(abs_us, p),
                    "rel_error": percentile(rel, p)}
                for p in self.PERCENTILES}

    def abs_error_cdf(self):
        return cdf_points(self.abs_errors())

    # -- CSV ---------------------------------------------------------------

    FIELDS = ("target", "truth_us", "est_us", "est_mean_us",
              "abs_error_us", "rel_error")

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.FIELDS)
            for r in self.rows:
                writer.writerow([
                    r.target, repr(r.truth_us),
                    "" if r.est_us is None else repr(r.est_us),
                    repr(r.est_mean_us), repr(r.abs_error_us),
                    repr(r.rel_error),
                ])


def report_from_topology(dump, topology):
    return build_report(dump, truth_map(topology))
