"""HTTP/JSON control surface for submitting tasks and pulling raw results.

The dispatcher is transport-free: dispatch(method, path, body, headers)
returns (status, payload), which makes the whole policy surface testable
without sockets.  ApiHttpServer bolts it onto http.server and marshals
every request into the controller loop thread, so engine state is only
ever touched from one thread.

Responses are JSON.  Errors carry {"error": ..., "hint": ...} with 400 for
malformed requests, 403 for policy refusals, 429 for rate limiting and 503
when the engine cannot take work (id space exhausted, no switch attached).
"""

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import ID_SPACE, MAX_TTL, NoActiveSession, StateFull
from .frames import PayloadTooLarge, RouterIdentity, check_echo_payload
from .wire import UnencodableMessage, ip_to_bytes

log = logging.getLogger(__name__)

# (method, path) -> (handler, leading arguments before the request body)
_ROUTES = {
    ("PUT", "/ping"): ("put_task", "ping"),
    ("GET", "/ping/dump"): ("get_dump", "ping"),
    ("POST", "/ping/clear"): ("post_clear", "ping"),
    ("PUT", "/traceroute"): ("put_task", "traceroute"),
    ("GET", "/traceroute/dump"): ("get_dump", "traceroute"),
    ("POST", "/traceroute/clear"): ("post_clear", "traceroute"),
    ("PUT", "/router_id_query"): ("put_task", "router_id_query"),
    ("GET", "/router_id_query/dump"): ("get_dump", "router_id_query"),
    ("POST", "/router_id_query/clear"): ("post_clear", "router_id_query"),
    ("GET", "/routerid/config"): ("get_router_config",),
    ("PUT", "/routerid/config"): ("put_router_config",),
}
_KNOWN_PATHS = {path for _m, path in _ROUTES}


class _BadRequest(Exception):
    pass


def render_json(payload):
    """Canonical response bytes: sorted keys, no whitespace.  Identical
    state always renders to identical bytes."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class TokenBucket:
    """Continuous-refill token bucket; capacity bounds any burst."""

    def __init__(self, rate_per_s, capacity, clock_us):
        self.rate_per_s = rate_per_s
        self.capacity = capacity
        self._clock_us = clock_us
        self._tokens = float(capacity)
        self._last_us = clock_us()

    def try_take(self, n):
        now = self._clock_us()
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._last_us)
                           * self.rate_per_s / 1e6)
        self._last_us = now
        if n <= self._tokens:
            self._tokens -= n
            return True
        return False

    def refund(self, n):
        """Give back tokens taken for work that never started."""
        self._tokens = min(self.capacity, self._tokens + n)


class ApiApp:
    def __init__(self, engine, policy):
        self.engine = engine
        self.policy = policy
        self.bucket = TokenBucket(
            policy.max_probe_rate,
            max(1.0, policy.max_probe_rate * policy.burst_seconds),
            engine.loop.now_us)

    # -- plumbing -----------------------------------------------------------

    def dispatch(self, method, path, body=b"", headers=None):
        headers = headers or {}
        path = path.split("?", 1)[0]
        if path != "/" and path.endswith("/"):
            path = path.rstrip("/")
        if not self._authorized(headers):
            return 403, {"error": "missing or invalid bearer token"}
        route = _ROUTES.get((method, path))
        if route is None:
            if path in _KNOWN_PATHS:
                return 405, {"error": "method %s not allowed here" % method}
            return 404, {"error": "no such resource"}
        handler, *args = route
        try:
            return getattr(self, handler)(*args,
                                          self._parse_body(method, body))
        except (_BadRequest, PayloadTooLarge) as exc:
            return 400, {"error": str(exc)}
        except StateFull as exc:
            return 503, {"error": str(exc), "code": "state_full",
                         "hint": "dump the results you need, then POST the "
                                 "matching clear endpoint to free identifiers"}
        except NoActiveSession as exc:
            return 503, {"error": str(exc), "code": "no_session",
                         "hint": "no switch has completed the OpenFlow "
                                 "handshake yet"}
        except Exception:
            log.exception("unhandled error for %s %s", method, path)
            return 500, {"error": "internal error"}

    def _authorized(self, headers):
        if not self.policy.auth_token:
            return True
        supplied = headers.get("authorization", "")
        return supplied == "Bearer %s" % self.policy.auth_token

    def _parse_body(self, method, body):
        if method not in ("PUT", "POST") or not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _BadRequest("request body is not valid JSON")
        if not isinstance(parsed, dict):
            raise _BadRequest("request body must be a JSON object")
        return parsed

    # -- task routes -----------------------------------------------------------

    def put_task(self, kind, body):
        """Validate tgt, the kind's own fields, out_port and gap_us, in that
        order; then apply policy and the probe budget and start the task.
        A task the engine refuses (no session, id space full) is charged
        nothing."""
        target = body.get("tgt")
        try:
            ip_to_bytes(target)
        except UnencodableMessage:
            raise _BadRequest("tgt must be a dotted IPv4 address")
        probe_cost, args = getattr(self, "_%s_args" % kind)(body)
        out_port = self._opt_int(body, "out_port")
        if out_port is not None and out_port > 0xFFFFFFFF:
            raise _BadRequest("out_port must fit 32 bits")
        gap_us = self._opt_int(body, "gap_us")
        if kind not in self.policy.allowed_tasks:
            return 403, {"error": "%s tasks are not allowed by policy" % kind}
        if not self.bucket.try_take(probe_cost):
            return 429, {"error": "probe budget exhausted, retry later"}
        try:
            icmp_id = getattr(self.engine, "start_" + kind)(
                target, *args, out_port=out_port, gap_us=gap_us)
        except (NoActiveSession, StateFull):
            self.bucket.refund(probe_cost)
            raise
        return 200, {"icmp_id": icmp_id}

    def _ping_args(self, body):
        num = body.get("num", 1)
        if not isinstance(num, int) or isinstance(num, bool) or num < 1:
            raise _BadRequest("num must be a positive integer")
        if num > self.engine.settings.max_probes_per_task:
            raise _BadRequest("num exceeds the per-task limit of %d"
                              % self.engine.settings.max_probes_per_task)
        payload = body.get("payload", "")
        if not isinstance(payload, str):
            raise _BadRequest("payload must be a string")
        payload = payload.encode("utf-8")
        check_echo_payload(payload)
        return num, (num, payload)

    @staticmethod
    def _traceroute_args(body):
        ppt = body.get("probes_per_ttl", 1)
        if not isinstance(ppt, int) or isinstance(ppt, bool) or ppt < 1:
            raise _BadRequest("probes_per_ttl must be a positive integer")
        if MAX_TTL * ppt > ID_SPACE:
            raise _BadRequest("probes_per_ttl too large for the sequence space")
        return MAX_TTL * ppt, (ppt,)

    @staticmethod
    def _router_id_query_args(_body):
        return 1, ()

    @staticmethod
    def _opt_int(body, key):
        value = body.get(key)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise _BadRequest("%s must be a non-negative integer" % key)
        return value

    # -- dumps, clears, config ---------------------------------------------------

    def get_dump(self, kind, _body):
        return 200, getattr(self.engine, "dump_" + kind)()

    def post_clear(self, kind, _body):
        return 200, {"cleared": getattr(self.engine, "clear_" + kind)()}

    def get_router_config(self, _body):
        identity = self.engine.router_identity
        return 200, {
            "serve": self.engine.router_id_serve,
            "asn": identity.asn if identity else None,
            "ident": identity.ident if identity else None,
        }

    def put_router_config(self, body):
        serve = body.get("serve")
        if not isinstance(serve, bool):
            raise _BadRequest("serve must be a boolean")
        if serve and "router_id_serve" not in self.policy.allowed_tasks:
            return 403, {"error": "identity serving is not allowed by policy"}
        identity = None
        if "asn" in body or "ident" in body or serve:
            asn = body.get("asn")
            ident = body.get("ident")
            if not isinstance(asn, int) or isinstance(asn, bool) \
                    or not isinstance(ident, str):
                raise _BadRequest("asn must be an integer and ident a string")
            try:
                identity = RouterIdentity(asn, ident)
            except ValueError as exc:
                raise _BadRequest(str(exc))
        self.engine.set_router_config(serve, identity)
        return self.get_router_config(body)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _route(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        headers = {k.lower(): v for k, v in self.headers.items()}
        status, payload = self.server.run_dispatch(
            self.command, self.path, body, headers)
        data = render_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _route
    do_PUT = _route
    do_POST = _route

    def log_message(self, fmt, *args):
        log.debug("api: " + fmt, *args)


class ApiHttpServer:
    """Serves the dispatcher over HTTP, funneling each request through the
    controller loop so handlers run single-threaded with the engine."""

    def __init__(self, app, loop, host="0.0.0.0", port=8080):
        self.app = app
        self.loop = loop
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.run_dispatch = self._run_dispatch
        self.port = self._httpd.server_address[1]
        self._thread = None

    def _run_dispatch(self, method, path, body, headers):
        """Dispatch on the loop thread; the one wait across threads."""
        answered = threading.Event()
        answer = []

        def call():
            answer.append(self.app.dispatch(method, path, body, headers))
            answered.set()

        self.loop.call_threadsafe(call)
        if not answered.wait(30):
            raise TimeoutError("dispatch not answered in time")
        return answer[0]

    def start(self):
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="api-http", daemon=True)
        self._thread.start()

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
