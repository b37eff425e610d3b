"""Control API: routing, validation, policy, rate limiting, determinism."""

import json

import pytest

from ofprobe import frames, netsim
from ofprobe.api import ApiApp, TokenBucket, render_json
from ofprobe.config import PolicyConfig
from ofprobe.engine import ID_SPACE, MeasurementEngine, ProbeSettings
from ofprobe.eventloop import EventLoop
from helpers import VirtualStack, make_topology


def make_app(policy=None, topology=None):
    topo = topology or make_topology()
    if "192.0.2.1" not in topo.targets:
        topo.targets["192.0.2.1"] = netsim.TargetSpec(base_rtt_us=20_000)
    stack = VirtualStack(topo)
    app = ApiApp(stack.engine, policy or PolicyConfig())
    return stack, app


PING_BODY = json.dumps({"tgt": "192.0.2.1", "num": 2}).encode()


# -- token bucket ---------------------------------------------------------------


def test_bucket_starts_full_and_caps_bursts():
    clock = [0]
    bucket = TokenBucket(rate_per_s=10.0, capacity=30.0,
                         clock_us=lambda: clock[0])
    assert bucket.try_take(30)
    assert not bucket.try_take(1)
    clock[0] = 500_000  # half a second refills 5 tokens
    assert bucket.try_take(5)
    assert not bucket.try_take(1)


def test_bucket_refill_never_exceeds_capacity():
    clock = [0]
    bucket = TokenBucket(rate_per_s=100.0, capacity=10.0,
                         clock_us=lambda: clock[0])
    clock[0] = 60_000_000
    assert bucket.try_take(10)
    assert not bucket.try_take(1)


# -- rendering ------------------------------------------------------------------


def test_render_json_is_canonical():
    assert render_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'


def test_same_state_renders_identical_bytes():
    stack, app = make_app()
    app.dispatch("PUT", "/ping", PING_BODY)
    stack.run()
    _, first = app.dispatch("GET", "/ping/dump")
    _, second = app.dispatch("GET", "/ping/dump")
    assert render_json(first) == render_json(second)


# -- routing and auth --------------------------------------------------------------


def test_unknown_path_is_404():
    _, app = make_app()
    assert app.dispatch("GET", "/nope")[0] == 404


def test_wrong_method_on_known_path_is_405():
    _, app = make_app()
    assert app.dispatch("DELETE", "/ping")[0] == 405
    assert app.dispatch("PUT", "/ping/dump")[0] == 405


def test_trailing_slash_and_query_are_normalized():
    stack, app = make_app()
    status, payload = app.dispatch("PUT", "/ping/", PING_BODY)
    assert status == 200 and "icmp_id" in payload
    assert app.dispatch("GET", "/ping/dump?pretty=1")[0] == 200
    stack.run()


def test_auth_disabled_when_no_token_configured():
    _, app = make_app()
    assert app.dispatch("GET", "/ping/dump")[0] == 200


def test_auth_rejects_missing_or_wrong_token():
    _, app = make_app(PolicyConfig(auth_token="s3cret"))
    assert app.dispatch("GET", "/ping/dump")[0] == 403
    assert app.dispatch("GET", "/ping/dump",
                        headers={"authorization": "Bearer nope"})[0] == 403
    assert app.dispatch(
        "GET", "/ping/dump",
        headers={"authorization": "Bearer s3cret"})[0] == 200


# -- ping route ------------------------------------------------------------------


def test_ping_happy_path_records_results():
    stack, app = make_app()
    status, payload = app.dispatch("PUT", "/ping", PING_BODY)
    assert status == 200
    stack.run()
    status, dump = app.dispatch("GET", "/ping/dump")
    entry = dump[str(payload["icmp_id"])]
    assert entry["tgt"] == "192.0.2.1"
    assert len(entry["probes"]) == 2
    assert all(t_in is not None for _t, t_in, _r in entry["probes"])


@pytest.mark.parametrize("body", [
    b"not json",
    b"[1,2,3]",
    json.dumps({"num": 3}).encode(),
    json.dumps({"tgt": "not-an-ip", "num": 3}).encode(),
    json.dumps({"tgt": "192.0.2.1", "num": 0}).encode(),
    json.dumps({"tgt": "192.0.2.1", "num": True}).encode(),
    json.dumps({"tgt": "192.0.2.1", "num": "3"}).encode(),
    json.dumps({"tgt": "192.0.2.1", "num": 70_000}).encode(),
    json.dumps({"tgt": "192.0.2.1", "payload": 7}).encode(),
    json.dumps({"tgt": "192.0.2.1", "out_port": -1}).encode(),
    json.dumps({"tgt": "192.0.2.1", "gap_us": "fast"}).encode(),
])
def test_ping_validation_rejects(body):
    _, app = make_app()
    status, payload = app.dispatch("PUT", "/ping", body)
    assert status == 400
    assert "error" in payload


def test_ping_payload_is_capped_at_the_mtu():
    stack, app = make_app()
    in_use = stack.engine.allocator.in_use
    tokens = app.bucket._tokens
    too_big = json.dumps({"tgt": "192.0.2.1", "num": 2,
                          "payload": "x" * 1473}).encode()
    status, payload = app.dispatch("PUT", "/ping", too_big)
    assert status == 400 and "error" in payload
    with pytest.raises(frames.PayloadTooLarge):
        stack.engine.start_ping("192.0.2.1", 2, b"x" * 1473)
    assert stack.engine.allocator.in_use == in_use
    assert app.bucket._tokens == tokens
    stack.run()  # nothing was scheduled that could raise
    assert stack.engine.pings == {}

    fits = json.dumps({"tgt": "192.0.2.1", "num": 2,
                       "payload": "x" * 1472}).encode()
    status, payload = app.dispatch("PUT", "/ping", fits)
    assert status == 200
    stack.run()
    entry = app.dispatch("GET", "/ping/dump")[1][str(payload["icmp_id"])]
    assert [p[2] for p in entry["probes"]] == ["192.0.2.1"] * 2


def test_ping_clear_reports_count():
    stack, app = make_app()
    app.dispatch("PUT", "/ping", PING_BODY)
    stack.run()
    assert app.dispatch("POST", "/ping/clear") == (200, {"cleared": 1})
    assert app.dispatch("GET", "/ping/dump") == (200, {})


# -- traceroute route ---------------------------------------------------------------


def test_traceroute_route_round_trip():
    topo = make_topology()
    topo.targets["192.0.2.9"] = netsim.TargetSpec(
        base_rtt_us=30_000, hops=[("10.1.0.1", 2000)])
    stack, app = make_app(topology=topo)
    status, payload = app.dispatch(
        "PUT", "/traceroute",
        json.dumps({"tgt": "192.0.2.9", "probes_per_ttl": 2}).encode())
    assert status == 200
    stack.run()
    _, dump = app.dispatch("GET", "/traceroute/dump")
    entry = dump[str(payload["icmp_id"])]
    assert entry["terminated"] == "destination_reached"
    assert entry["hops"]["1"][0][0] == "10.1.0.1"
    assert app.dispatch("POST", "/traceroute/clear")[1] == {"cleared": 1}


@pytest.mark.parametrize("body", [
    json.dumps({"tgt": "192.0.2.1", "probes_per_ttl": 0}).encode(),
    json.dumps({"tgt": "192.0.2.1", "probes_per_ttl": 2200}).encode(),
    json.dumps({"tgt": "256.1.1.1"}).encode(),
])
def test_traceroute_validation_rejects(body):
    _, app = make_app()
    assert app.dispatch("PUT", "/traceroute", body)[0] == 400


# -- policy and rate limiting ---------------------------------------------------------


def test_disallowed_task_kinds_are_403():
    _, app = make_app(PolicyConfig(allowed_tasks=frozenset({"traceroute"})))
    assert app.dispatch("PUT", "/ping", PING_BODY)[0] == 403
    _, app = make_app(PolicyConfig(allowed_tasks=frozenset({"ping"})))
    assert app.dispatch(
        "PUT", "/traceroute",
        json.dumps({"tgt": "192.0.2.1"}).encode())[0] == 403


def test_probe_budget_exhaustion_is_429_until_refill():
    stack, app = make_app(PolicyConfig(max_probe_rate=10.0, burst_seconds=1.0))
    body = json.dumps({"tgt": "192.0.2.1", "num": 10}).encode()
    assert app.dispatch("PUT", "/ping", body)[0] == 200
    assert app.dispatch("PUT", "/ping", body)[0] == 429
    stack.loop.run_for(1_000_000)  # virtual second refills the bucket
    assert app.dispatch("PUT", "/ping", body)[0] == 200
    stack.run()


def test_traceroute_costs_full_ttl_budget():
    _, app = make_app(PolicyConfig(max_probe_rate=29.0, burst_seconds=1.0))
    assert app.dispatch(
        "PUT", "/traceroute",
        json.dumps({"tgt": "192.0.2.1"}).encode())[0] == 429  # needs 30


# -- resource exhaustion ----------------------------------------------------------


def test_full_id_space_is_503_with_code():
    stack, app = make_app()
    for _ in range(ID_SPACE):
        stack.engine.allocator.allocate()
    status, payload = app.dispatch("PUT", "/ping", PING_BODY)
    assert status == 503
    assert payload["code"] == "state_full"


def test_no_session_is_503_with_code():
    engine = MeasurementEngine(EventLoop(), ProbeSettings())
    app = ApiApp(engine, PolicyConfig())
    status, payload = app.dispatch("PUT", "/ping", PING_BODY)
    assert status == 503
    assert payload["code"] == "no_session"


def test_switch_disconnect_ends_the_task_and_refuses_new_ones():
    stack, app = make_app()
    body = json.dumps({"tgt": "192.0.2.1", "num": 5,
                       "gap_us": 200_000}).encode()
    icmp_id = app.dispatch("PUT", "/ping", body)[1]["icmp_id"]
    stack.loop.run_for(220_000)  # probe 1 is out, its reply still coming
    task = stack.engine.pings[icmp_id]
    assert sorted(task.records) == [0, 1]
    stack.switch.close()
    stack.loop.run_until_idle()
    assert not stack.engine.session_active()
    assert task.done
    assert sorted(task.records) == [0, 1]  # nothing sent after the hang-up
    assert task.records[0].t_in is not None and task.records[1].expired
    app.bucket.try_take(0)  # bring the refill up to now
    tokens = app.bucket._tokens
    status, payload = app.dispatch("PUT", "/ping", body)
    assert (status, payload["code"]) == (503, "no_session")
    assert app.bucket._tokens == tokens
    assert stack.engine.allocator.in_use == 1


@pytest.mark.parametrize("path, body, error", [
    ("/ping", {"tgt": "x", "num": 0, "out_port": -1}, "tgt must be"),
    ("/ping", {"tgt": "192.0.2.1", "num": 0, "out_port": -1}, "num must be"),
    ("/ping", {"tgt": "192.0.2.1", "payload": 7, "gap_us": -1},
     "payload must be"),
    ("/ping", {"tgt": "192.0.2.1", "out_port": -1, "gap_us": -1},
     "out_port must be"),
    ("/traceroute", {"tgt": "192.0.2.1", "probes_per_ttl": 0, "gap_us": -1},
     "probes_per_ttl must be"),
])
def test_first_bad_field_is_the_one_reported(path, body, error):
    _stack, app = make_app(PolicyConfig(allowed_tasks=frozenset()))
    status, payload = app.dispatch("PUT", path, json.dumps(body).encode())
    assert status == 400 and payload["error"].startswith(error)


@pytest.mark.parametrize("path, body", [
    ("/ping", PING_BODY),
    ("/traceroute", json.dumps({"tgt": "192.0.2.1"}).encode()),
])
def test_refused_tasks_spend_no_budget(path, body):
    engine = MeasurementEngine(EventLoop(), ProbeSettings())
    app = ApiApp(engine, PolicyConfig())
    tokens = app.bucket._tokens
    assert app.dispatch("PUT", path, body)[1]["code"] == "no_session"
    assert app.bucket._tokens == tokens

    stack, app = make_app()
    for _ in range(ID_SPACE):
        stack.engine.allocator.allocate()
    tokens = app.bucket._tokens
    assert app.dispatch("PUT", path, body)[1]["code"] == "state_full"
    assert app.bucket._tokens == tokens


# -- router identity config -----------------------------------------------------------


def test_router_config_defaults_off():
    _, app = make_app()
    assert app.dispatch("GET", "/routerid/config") == (
        200, {"serve": False, "asn": None, "ident": None})


def test_router_config_set_and_read_back():
    _, app = make_app()
    body = json.dumps({"serve": True, "asn": 65001,
                       "ident": "vantage-7"}).encode()
    status, payload = app.dispatch("PUT", "/routerid/config", body)
    assert (status, payload) == (200, {"serve": True, "asn": 65001,
                                       "ident": "vantage-7"})
    assert app.dispatch("GET", "/routerid/config")[1]["serve"] is True


@pytest.mark.parametrize("body", [
    json.dumps({"asn": 1, "ident": "x"}).encode(),        # serve missing
    json.dumps({"serve": "yes"}).encode(),
    json.dumps({"serve": True}).encode(),                 # identity required
    json.dumps({"serve": True, "asn": "x", "ident": "x"}).encode(),
    json.dumps({"serve": True, "asn": 2 ** 33, "ident": "x"}).encode(),
    json.dumps({"serve": True, "asn": 1, "ident": ""}).encode(),
    json.dumps({"serve": True, "asn": 1, "ident": "y" * 65}).encode(),
])
def test_router_config_validation_rejects(body):
    _, app = make_app()
    assert app.dispatch("PUT", "/routerid/config", body)[0] == 400


def test_router_config_serve_gated_by_policy():
    _, app = make_app(PolicyConfig(
        allowed_tasks=frozenset({"ping", "traceroute"})))
    body = json.dumps({"serve": True, "asn": 1, "ident": "x"}).encode()
    assert app.dispatch("PUT", "/routerid/config", body)[0] == 403
    # turning it off is always allowed
    assert app.dispatch("PUT", "/routerid/config",
                        json.dumps({"serve": False}).encode())[0] == 200
