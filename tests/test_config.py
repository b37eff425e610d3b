"""INI configuration parsing."""

import pathlib

import pytest

from ofprobe.config import (
    ConfigError,
    ControllerConfig,
    PolicyConfig,
    load_config,
    parse_config,
)
import configparser

FULL = """
[controller]
openflow_listen = 127.0.0.1:6699
api_listen = 10.9.9.9:8088

[probe]
src_ip = 10.0.7.7
src_mac = 02:aa:00:00:00:07
next_hop_mac = 02:aa:00:00:00:01
out_port = 3
default_ttl = 48
ewma_alpha = 0.25
probe_timeout_ms = 1500
probe_gap_us = 250
max_probes_per_task = 1000

[policy]
max_probe_rate = 42.5
burst_seconds = 2.0
allowed_tasks = ping traceroute
auth_token = hunter2

[router_id]
serve = true
asn = 64999
ident = edge-rtr-9
"""


def parse(text):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parse_config(parser)


def test_defaults_without_any_sections():
    cfg = parse("")
    assert (cfg.openflow_host, cfg.openflow_port) == ("0.0.0.0", 6633)
    assert (cfg.api_host, cfg.api_port) == ("0.0.0.0", 8080)
    assert cfg.probe.ewma_alpha == 0.5
    assert cfg.probe.probe_timeout_us == 3_000_000
    assert cfg.policy.auth_token == ""
    assert cfg.router_id_serve is False
    assert cfg.router_identity is None


def test_full_file_parses_every_key():
    cfg = parse(FULL)
    assert (cfg.openflow_host, cfg.openflow_port) == ("127.0.0.1", 6699)
    assert (cfg.api_host, cfg.api_port) == ("10.9.9.9", 8088)
    assert cfg.probe.src_ip == "10.0.7.7"
    assert cfg.probe.out_port == 3
    assert cfg.probe.default_ttl == 48
    assert cfg.probe.ewma_alpha == 0.25
    assert cfg.probe.probe_timeout_us == 1_500_000
    assert cfg.probe.probe_gap_us == 250
    assert cfg.probe.max_probes_per_task == 1000
    assert cfg.policy.max_probe_rate == 42.5
    assert cfg.policy.allowed_tasks == frozenset({"ping", "traceroute"})
    assert cfg.policy.auth_token == "hunter2"
    assert cfg.router_id_serve is True
    assert cfg.router_identity.asn == 64999
    assert cfg.router_identity.ident == "edge-rtr-9"


def test_listen_address_without_port_keeps_default():
    cfg = parse("[controller]\nopenflow_listen = 192.168.1.5\n")
    assert (cfg.openflow_host, cfg.openflow_port) == ("192.168.1.5", 6633)


def test_unknown_task_kind_is_rejected():
    with pytest.raises(ConfigError):
        parse("[policy]\nallowed_tasks = ping teleport\n")


def test_nonpositive_rate_is_rejected():
    with pytest.raises(ConfigError):
        parse("[policy]\nmax_probe_rate = 0\n")
    with pytest.raises(ConfigError):
        PolicyConfig(max_probe_rate=-3)


@pytest.mark.parametrize("line", [
    "max_probes_per_task = 0", "max_probes_per_task = 65536",
    "max_probes_per_task = 70000", "default_ttl = 0", "default_ttl = 256",
])
def test_probe_fields_outside_their_wire_range_are_rejected(line):
    """A probe's seq is 16 bits and its TTL 8: past them a probe would
    fail to encode on the loop instead of at start-up."""
    with pytest.raises(ConfigError):
        parse("[probe]\n%s\n" % line)


def test_probe_fields_at_their_wire_limits_are_kept():
    cfg = parse("[probe]\nmax_probes_per_task = 65535\ndefault_ttl = 255\n")
    assert (cfg.probe.max_probes_per_task, cfg.probe.default_ttl) \
        == (65535, 255)
    cfg = parse("[probe]\nmax_probes_per_task = 1\ndefault_ttl = 1\n")
    assert (cfg.probe.max_probes_per_task, cfg.probe.default_ttl) == (1, 1)


def test_serve_without_identity_is_rejected():
    with pytest.raises(ConfigError):
        parse("[router_id]\nserve = true\n")


def test_identity_without_serve_is_kept():
    cfg = parse("[router_id]\nserve = false\nasn = 7\nident = lab\n")
    assert cfg.router_id_serve is False
    assert cfg.router_identity.ident == "lab"


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "controller.ini"
    path.write_text(FULL)
    cfg = load_config(path)
    assert cfg.policy.auth_token == "hunter2"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/controller.ini")


def test_dataclass_defaults_match_documented_ports():
    cfg = ControllerConfig()
    assert cfg.openflow_port == 6633
    assert cfg.api_port == 8080


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    """The block under README "Controller configuration", inline comments
    and all, is what load_config reads as ControllerConfig()."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Controller configuration", 1)[1]
    path = tmp_path / "controller.ini"
    path.write_text(section.split("```", 2)[1], encoding="utf-8")
    assert load_config(path) == ControllerConfig()


@pytest.mark.parametrize("src_ip", [
    "10.0.0.0100", "10.0.0.100 junk", "10.0.100", "probes.example"])
def test_non_canonical_src_ip_is_a_config_error(src_ip):
    with pytest.raises(ConfigError):
        parse("[probe]\nsrc_ip = %s\n" % src_ip)
