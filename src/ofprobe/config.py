"""Controller configuration: an INI file with documented keys.

Sections and defaults:

    [controller]
    openflow_listen = 0.0.0.0:6633
    api_listen = 0.0.0.0:8080

    [probe]
    src_ip = 10.0.0.100
    src_mac = 02:00:00:00:00:64
    next_hop_mac = 02:00:00:00:00:01
    out_port = 1
    default_ttl = 64
    ewma_alpha = 0.5
    probe_timeout_ms = 3000
    probe_gap_us = 0
    max_probes_per_task = 65535

    [policy]
    max_probe_rate = 100
    burst_seconds = 1.0
    allowed_tasks = ping traceroute router_id_query router_id_serve
    auth_token =

    [router_id]
    serve = false
    asn = 0
    ident =

A value may be followed by " ; comment".  src_ip must be dotted decimal
that reads back unchanged (10.0.0.100, not 10.0.0.0100).
allowed_tasks names the task kinds the API may start, by the name of their
route (ping, traceroute, router_id_query), and router_id_serve, which lets
it turn identity serving on.  default_ttl must be in 1..255 and
max_probes_per_task in 1..65535, the ranges of a probe's TTL and seq.
"""

import configparser
from dataclasses import dataclass, field

from .engine import ProbeSettings
from .frames import RouterIdentity
from .wire import UnencodableMessage, ip_to_bytes

TASK_KINDS = frozenset(
    ("ping", "traceroute", "router_id_query", "router_id_serve"))


class ConfigError(Exception):
    pass


@dataclass
class PolicyConfig:
    max_probe_rate: float = 100.0
    burst_seconds: float = 1.0
    allowed_tasks: frozenset = frozenset(TASK_KINDS)
    auth_token: str = ""

    def __post_init__(self):
        unknown = set(self.allowed_tasks) - TASK_KINDS
        if unknown:
            raise ConfigError("unknown task kinds %r" % sorted(unknown))
        if self.max_probe_rate <= 0:
            raise ConfigError("max_probe_rate must be positive")


@dataclass
class ControllerConfig:
    openflow_host: str = "0.0.0.0"
    openflow_port: int = 6633
    api_host: str = "0.0.0.0"
    api_port: int = 8080
    probe: ProbeSettings = field(default_factory=ProbeSettings)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    router_id_serve: bool = False
    router_identity: RouterIdentity = None


def _host_port(text, default_port):
    host, _, port = text.rpartition(":")
    if not host:
        return text, default_port
    return host, int(port)


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read config file %s" % path)
    return parse_config(parser)


def parse_config(parser):
    cfg = ControllerConfig()
    if parser.has_section("controller"):
        sec = parser["controller"]
        if "openflow_listen" in sec:
            cfg.openflow_host, cfg.openflow_port = _host_port(
                sec["openflow_listen"], 6633)
        if "api_listen" in sec:
            cfg.api_host, cfg.api_port = _host_port(sec["api_listen"], 8080)
    probe = ProbeSettings()
    if parser.has_section("probe"):
        sec = parser["probe"]
        probe.src_ip = sec.get("src_ip", probe.src_ip)
        probe.src_mac = sec.get("src_mac", probe.src_mac)
        probe.next_hop_mac = sec.get("next_hop_mac", probe.next_hop_mac)
        probe.out_port = sec.getint("out_port", probe.out_port)
        probe.default_ttl = sec.getint("default_ttl", probe.default_ttl)
        probe.ewma_alpha = sec.getfloat("ewma_alpha", probe.ewma_alpha)
        if "probe_timeout_ms" in sec:
            probe.probe_timeout_us = sec.getint("probe_timeout_ms") * 1000
        probe.probe_gap_us = sec.getint("probe_gap_us", probe.probe_gap_us)
        probe.max_probes_per_task = sec.getint("max_probes_per_task",
                                               probe.max_probes_per_task)
    for key, top in (("default_ttl", 255), ("max_probes_per_task", 65535)):
        if not 1 <= getattr(probe, key) <= top:
            raise ConfigError("probe.%s must be in 1..%d" % (key, top))
    try:
        ip_to_bytes(probe.src_ip)
    except UnencodableMessage:
        raise ConfigError("probe.src_ip must be a dotted IPv4 address")
    cfg.probe = probe
    policy_kwargs = {}
    if parser.has_section("policy"):
        sec = parser["policy"]
        if "max_probe_rate" in sec:
            policy_kwargs["max_probe_rate"] = sec.getfloat("max_probe_rate")
        if "burst_seconds" in sec:
            policy_kwargs["burst_seconds"] = sec.getfloat("burst_seconds")
        if "allowed_tasks" in sec:
            policy_kwargs["allowed_tasks"] = frozenset(
                sec["allowed_tasks"].split())
        if "auth_token" in sec:
            policy_kwargs["auth_token"] = sec["auth_token"].strip()
    cfg.policy = PolicyConfig(**policy_kwargs)
    if parser.has_section("router_id"):
        sec = parser["router_id"]
        cfg.router_id_serve = sec.getboolean("serve", False)
        ident = sec.get("ident", "").strip()
        if ident:
            cfg.router_identity = RouterIdentity(sec.getint("asn", 0), ident)
        elif cfg.router_id_serve:
            raise ConfigError("router_id.serve needs asn and ident")
    return cfg
