"""Output checks and error figures for one dumped task table.

Every check reads what the program itself reports: the JSON dump from
``GET /ping/dump`` or ``GET /traceroute/dump``, plus a snapshot of the
engine's probe records taken just before the matching clear (the dump does
not say whether an unanswered probe expired or is still in flight).  Each
check returns a list of human-readable error strings; an empty list means
the table is correct.
"""

from ofprobe.report import task_estimates, truth_map

TRACE_MAX_TTL = 30


def snapshot_records(table):
    """{icmp_id: {seq: (answered, expired)}} for an engine task table
    (``engine.pings`` or ``engine.traceroutes``)."""
    return {icmp_id: {seq: (r.t_in is not None, bool(r.expired))
                      for seq, r in task.records.items()}
            for icmp_id, task in table.items()}


def _check_table(dump, snapshot, requests, emitted, errors):
    """Checks shared by both task kinds: every requested probe was emitted
    and ends answered or expired, exactly once, and the dump lists exactly
    the accepted tasks.  Returns (answered, expired)."""
    answered = expired = 0
    for icmp_id, (_target, probes) in requests.items():
        records = snapshot.get(icmp_id)
        if records is None:
            errors.append("task %d missing from the engine" % icmp_id)
            continue
        if len(records) != probes:
            errors.append("task %d emitted %d probes, requested %d"
                          % (icmp_id, len(records), probes))
        for seq, (was_answered, was_expired) in records.items():
            if was_answered == was_expired:
                errors.append("task %d seq %d is %s" % (
                    icmp_id, seq,
                    "both answered and expired" if was_answered
                    else "neither answered nor expired"))
            answered += was_answered
            expired += was_expired
    extra = set(snapshot) - set(requests)
    if extra:
        errors.append("engine holds %d tasks nobody requested" % len(extra))
    if answered + expired != emitted:
        errors.append("answered %d + expired %d != emitted %d"
                      % (answered, expired, emitted))
    if set(dump) != {str(i) for i in requests}:
        errors.append("dump lists %d tasks, %d were accepted"
                      % (len(dump), len(requests)))
    return answered, expired


def check_ping_table(dump, snapshot, requests, topology, emitted):
    """Check one ping table.

    ``requests`` maps each accepted icmp_id to (target, num); ``emitted`` is
    the number of probe PacketOuts the switch received for this table.
    Returns (errors, answered, expired, rtt_errors_us), where the RTT errors
    are |corrected RTT - topology truth| per answered probe, computed the
    way ``ofprobe report`` corrects RTTs.
    """
    errors = []
    answered, expired = _check_table(dump, snapshot, requests, emitted,
                                     errors)
    truth = truth_map(topology)
    rtt_errors = []
    for icmp_id, (target, num) in requests.items():
        entry = dump.get(str(icmp_id))
        if entry is None:
            continue
        if entry["tgt"] != target:
            errors.append("task %d dumped target %s, requested %s"
                          % (icmp_id, entry["tgt"], target))
            continue
        if len(entry["probes"]) != num:
            errors.append("task %d dumped %d probes, requested %d"
                          % (icmp_id, len(entry["probes"]), num))
        records = snapshot.get(icmp_id, {})
        for seq, (probe, estimate) in enumerate(zip(entry["probes"],
                                                    task_estimates(entry))):
            t_in, responder = probe[1], probe[2]
            if (t_in is not None) != records.get(seq, (None,))[0]:
                errors.append("task %d seq %d dump and engine disagree on "
                              "whether it was answered" % (icmp_id, seq))
            if estimate is None:
                continue
            if responder != target:
                errors.append("task %d seq %d answered by %s, not %s"
                              % (icmp_id, seq, responder, target))
            rtt_errors.append(abs(estimate - truth[target]))
    return errors, answered, expired, rtt_errors


def hop_truth_us(spec, ttl):
    """True RTT of the reply a TTL-limited probe draws: twice the one-way
    delays of the routers up to ``ttl``, or the target's base RTT past the
    last router."""
    if ttl <= len(spec.hops):
        return 2 * sum(delay for _ip, delay in spec.hops[:ttl])
    return spec.base_rtt_us


def check_traceroute_table(dump, snapshot, requests, topology, emitted):
    """Check one traceroute table; same shape as check_ping_table, with
    ``requests`` mapping icmp_id to (target, probes_per_task)."""
    errors = []
    answered, expired = _check_table(dump, snapshot, requests, emitted,
                                     errors)
    rtt_errors = []
    for icmp_id, (target, probes) in requests.items():
        entry = dump.get(str(icmp_id))
        if entry is None:
            continue
        spec = topology.targets[target]
        ppt = entry["probes_per_ttl"]
        routers = [ip for ip, _delay in spec.hops]
        want_end = "destination_reached" if spec.responds else "max_ttl"
        if entry["tgt"] != target or ppt * TRACE_MAX_TTL != probes:
            errors.append("task %d dumped as %s x%d, requested %s x%d"
                          % (icmp_id, entry["tgt"], ppt, target, probes))
            continue
        if entry["terminated"] != want_end:
            errors.append("task %d to %s ended %s, expected %s"
                          % (icmp_id, target, entry["terminated"], want_end))
        hops = entry["hops"]
        last = len(hops)
        if set(hops) != {str(t) for t in range(1, last + 1)} or (
                entry["terminated"] == "max_ttl" and last != TRACE_MAX_TTL):
            errors.append("task %d dumped TTL rows %s" % (icmp_id,
                                                          sorted(hops)))
            continue
        records = snapshot.get(icmp_id, {})
        for ttl in range(1, last + 1):
            row = hops[str(ttl)]
            if len(row) != ppt:
                errors.append("task %d ttl %d dumped %d cells, expected %d"
                              % (icmp_id, ttl, len(row), ppt))
            for idx, (responder, rtt) in enumerate(row):
                seq = (ttl - 1) * ppt + idx
                if (responder is not None) != records.get(seq, (None,))[0]:
                    errors.append("task %d seq %d dump and engine disagree "
                                  "on whether it was answered"
                                  % (icmp_id, seq))
                if responder is None:
                    continue
                want = routers[ttl - 1] if ttl <= len(routers) else target
                if responder != want:
                    errors.append("task %d ttl %d answered by %s, not %s"
                                  % (icmp_id, ttl, responder, want))
                rtt_errors.append(abs(rtt - hop_truth_us(spec, ttl)))
    return errors, answered, expired, rtt_errors
