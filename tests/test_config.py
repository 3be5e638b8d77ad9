import json
import re
from pathlib import Path

import pytest

from tdmqtt import client
from tdmqtt.config import (
    Config,
    MAX_RANGE,
    expand_address_range,
    load_config,
)
from tdmqtt.errors import ConfigError
from tdmqtt.packets import BrokerRef


@pytest.fixture
def write_config(tmp_path):
    def write(data) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data) if not isinstance(data, str) else data)
        return str(path)
    return write


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("TDMQTT_CONFIG", raising=False)


# --- address ranges -----------------------------------------------------------

def test_expand_single_host():
    assert expand_address_range("10.0.0.5") == ("10.0.0.5",)


def test_expand_cidr_block():
    assert expand_address_range("192.168.1.0/30") == \
        ("192.168.1.1", "192.168.1.2")
    assert expand_address_range("10.0.0.0/31") == ("10.0.0.0", "10.0.0.1")


def test_expand_list_mixes_and_dedupes():
    got = expand_address_range(["10.0.0.0/31", "10.0.0.1", "edge-host"])
    assert got == ("10.0.0.0", "10.0.0.1", "edge-host")


def test_expand_hostname_passthrough():
    assert expand_address_range("localhost") == ("localhost",)


@pytest.mark.parametrize("item", ["10.0.0.1/30", "10.0.0.0/33", "edge/host"])
def test_expand_rejects_a_malformed_block(item):
    with pytest.raises(ConfigError, match=item):
        expand_address_range(["10.0.0.5", item])


def test_expand_rejects_oversized_block():
    with pytest.raises(ConfigError, match="limit"):
        expand_address_range("10.0.0.0/8")
    # just under the cap is fine
    assert len(expand_address_range("10.0.0.0/16")) == MAX_RANGE - 2


def test_expand_rejects_wrong_types():
    with pytest.raises(ConfigError):
        expand_address_range(42)
    with pytest.raises(ConfigError):
        expand_address_range([1, 2])


# --- file handling -------------------------------------------------------------

def test_defaults_without_file():
    config = load_config(None)
    assert config == Config()
    assert config.master.listen == BrokerRef("0.0.0.0", 1884)
    assert config.master.timeout == 0.25
    assert config.broker.listen == BrokerRef("0.0.0.0", 1883)
    assert config.client.master == BrokerRef("127.0.0.1", 1884)
    assert config.client.timeout_s == client.TIMEOUT
    assert config.client.keepalive_s == client.KEEPALIVE
    assert config.eval.params.n_brokers == 4


def test_env_var_fallback(write_config, monkeypatch):
    path = write_config({"master": {"broker_port": 2222}})
    monkeypatch.setenv("TDMQTT_CONFIG", path)
    assert load_config(None).master.broker_port == 2222


def test_explicit_path_beats_env(write_config, tmp_path, monkeypatch):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"master": {"broker_port": 1111}}))
    monkeypatch.setenv("TDMQTT_CONFIG", str(other))
    path = write_config({"master": {"broker_port": 2222}})
    assert load_config(path).master.broker_port == 2222


def test_missing_file_is_an_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/no/such/config.json")


def test_bad_json_is_an_error(write_config):
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(write_config("{not json"))


def test_top_level_must_be_object(write_config):
    with pytest.raises(ConfigError, match="object"):
        load_config(write_config([1, 2]))


def test_unknown_section_rejected(write_config):
    with pytest.raises(ConfigError, match="mstr"):
        load_config(write_config({"mstr": {}}))


def test_unknown_key_rejected(write_config):
    with pytest.raises(ConfigError, match="timeout_sec"):
        load_config(write_config({"master": {"timeout_sec": 5}}))


def test_section_must_be_object(write_config):
    with pytest.raises(ConfigError, match=r"\[client\]"):
        load_config(write_config({"client": "127.0.0.1:1884"}))


# --- master section --------------------------------------------------------------

def test_master_section_full(write_config):
    config = load_config(write_config({"master": {
        "listen": "0.0.0.0:2884",
        "address_range": "10.1.0.0/30",
        "broker_port": 2883,
        "timeout_ms": 100,
        "listen_window_ms": 250,
        "refresh_period_ms": 5000,
    }}))
    m = config.master
    assert m.listen == BrokerRef("0.0.0.0", 2884)
    assert m.addresses == ("10.1.0.1", "10.1.0.2")
    assert m.broker_port == 2883
    assert (m.timeout, m.listen_window, m.refresh_period) == (0.1, 0.25, 5.0)


@pytest.mark.parametrize("section", [
    {"broker_port": 0},
    {"broker_port": 70000},
    {"broker_port": "1883"},
    {"broker_port": True},
    {"timeout_ms": 0},
    {"timeout_ms": -5},
    {"listen_window_ms": "fast"},
    {"refresh_period_ms": False},
    {"listen": "noport"},
    {"listen": 1884},
    {"timeout_ms": float("nan")},
    {"refresh_period_ms": float("inf")},
    {"timeout_ms": 10 ** 400},
])
def test_master_section_bad_values(write_config, section):
    with pytest.raises(ConfigError):
        load_config(write_config({"master": section}))


# --- broker and client sections ----------------------------------------------------

def test_broker_section(write_config):
    config = load_config(write_config({"broker": {
        "listen": "127.0.0.1:3883", "admin_port": 13883}}))
    assert config.broker.listen == BrokerRef("127.0.0.1", 3883)
    assert config.broker.admin_port == 13883
    assert load_config(write_config({"broker": {}})).broker.admin_port is None


@pytest.mark.parametrize("section", [
    {"admin_port": -1},
    {"admin_port": 70000},
    {"admin_port": True},
    {"listen": ":80"},
])
def test_broker_section_bad_values(write_config, section):
    with pytest.raises(ConfigError):
        load_config(write_config({"broker": section}))


def test_client_section(write_config):
    config = load_config(write_config({"client": {
        "master": "hub.example:1884", "keepalive_s": 3, "timeout_s": 0.5}}))
    assert config.client.master == BrokerRef("hub.example", 1884)
    assert config.client.keepalive_s == 3.0
    assert config.client.timeout_s == 0.5


@pytest.mark.parametrize("section", [
    {"keepalive_s": 0},
    {"timeout_s": -1},
    {"master": "missing-port"},
    {"timeout_s": float("nan")},
    {"keepalive_s": float("inf")},
])
def test_client_section_bad_values(write_config, section):
    with pytest.raises(ConfigError):
        load_config(write_config({"client": section}))


@pytest.mark.parametrize("config, message", [
    ({"master": {"timeout_ms": 0}},
     "timeout_ms must be a positive number of milliseconds"),
    ({"client": {"timeout_s": 0}},
     "timeout_s must be a positive number of seconds"),
    ({"eval": {"emma": {"probe_time": True}}},
     "probe_time must be a positive number of seconds"),
])
def test_a_bad_duration_names_its_unit(write_config, config, message):
    with pytest.raises(ConfigError, match=message + "$"):
        load_config(write_config(config))


# --- eval section ---------------------------------------------------------------

def test_eval_section_overrides(write_config):
    config = load_config(write_config({"eval": {
        "throughput": 1000.0,
        "service_time": 0.001,
        "arrival_rate": 0.0,
        "n_brokers": 4,
        "timeout": 1.0,
        "per_hop_delay": 0.002,
        "max_pub_hops": 3,
        "sizes": {"connect": 1.0, "tcp_syn": 5.0},
        "steps": 10,
        "mobility_model": "monotone",
        "seed": 7,
        "emma": {"probe_time": 0.004, "reconnect_time": 0.008},
    }}))
    ev = config.eval
    assert ev.params.throughput == 1000.0
    assert ev.params.sizes["connect"] == 1.0   # overridden
    assert ev.params.sizes["tcp_syn"] == 5.0
    assert ev.params.sizes["tcp_synack"] == 320.0  # still the default
    assert ev.params.max_pub_hops == 3
    assert (ev.steps, ev.mobility_model, ev.seed) == (10, "monotone", 7)
    assert ev.emma.probe_time == 0.004


def test_eval_saturated_queue_is_config_error(write_config):
    with pytest.raises(ConfigError):
        load_config(write_config({"eval": {
            "service_time": 0.001, "arrival_rate": 1000.0}}))


@pytest.mark.parametrize("section", [
    {"sizes": {"jumbo": 9000}},
    {"sizes": {"connect": 0}},
    {"sizes": ["connect"]},
    {"steps": 0},
    {"steps": 2.5},
    {"mobility_model": "teleport"},
    {"seed": -1},
    {"seed": "two"},
    {"throughput": 0},
    {"n_brokers": -1},
    {"max_pub_hops": 0},
    {"emma": {"probe_time": -1}},
    {"emma": {"warmup": 1}},
    {"throughput": float("nan")},
    {"timeout": float("inf")},
    {"sizes": {"connect": float("nan")}},
    {"sizes": {"connect": float("inf")}},
    {"emma": {"probe_time": float("inf")}},
    {"n_brokers": 2.7},
    {"max_pub_hops": 1.5},
])
def test_eval_section_bad_values(write_config, section):
    with pytest.raises(ConfigError):
        load_config(write_config({"eval": section}))


@pytest.mark.parametrize("config, message", [
    ({"eval": {"n_brokers": 2.7}}, "eval.n_brokers must be an integer"),
    ({"master": {"broker_port": "1883"}},
     "master.broker_port must be an integer in 1..65535"),
    ({"broker": {"listen": ":80"}}, "broker.listen: "),
    ({"client": {"master": 1884}}, "client.master must be a host:port string"),
    ({"eval": {"mobility_model": "teleport"}}, "eval.mobility_model must be one of"),
    ({"eval": {"sizes": {"connect": float("nan")}}},
     "eval.sizes.connect must be a finite number"),
    ({"master": {"address_range": "10.0.0.1/30"}}, "master.address_range "),
    ({"eval": {"seed": -1}}, "eval.seed must be an integer >= 0"),
])
def test_a_bad_value_names_its_section_and_key(write_config, config, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        load_config(write_config(config))


def test_the_readme_example_loads(write_config):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    config = load_config(write_config(example))
    assert config.master.addresses[0] == "10.0.0.1"
    assert config.master.addresses[-1] == "edge-host"
    assert config.broker.admin_port == 0
    assert config.eval.params.sizes["publish"] == 400.0
    assert config.eval.emma.reconnect_time == 0.009
