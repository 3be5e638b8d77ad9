"""JSON configuration shared by every command-line role.

One file, four sections ("master", "broker", "client", "eval"), all
optional.  Durations in the master section are milliseconds (the knobs
are sweep timings); the client and eval sections use plain seconds.
Unknown sections or keys are rejected rather than ignored so a typo
fails loudly instead of silently running with defaults.
"""

from __future__ import annotations

import ipaddress
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .evalmodel import ALL_KINDS, EmmaParams, EvalParams, MOBILITY_MODELS, default_sizes
from .master import DiscoveryConfig
from .packets import BrokerRef

ENV_VAR = "TDMQTT_CONFIG"

# Refuse to expand a CIDR block into more census targets than this; a typo'd
# /8 would otherwise produce sixteen million addresses.
MAX_RANGE = 65536


def expand_address_range(value) -> tuple[str, ...]:
    """Turn a host, CIDR block, or list of either into census addresses.

    "10.0.0.5" stays itself, "10.0.0.0/30" becomes its usable hosts,
    and anything else without a '/' (a hostname, say) passes through
    verbatim; an item with a '/' that is no IP network is a ConfigError.
    Order is preserved, duplicates dropped.
    """
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError("address_range must be a string or list of strings")
    out: list[str] = []
    seen: set[str] = set()
    for item in value:
        try:
            net = ipaddress.ip_network(item)
        except ValueError as exc:
            if "/" in item:
                raise ConfigError(f"address range {item!r}: {exc}") from exc
            hosts = [item]  # hostname or bare label: leave resolution to connect()
        else:
            if net.num_addresses > MAX_RANGE:
                raise ConfigError(f"address range {item!r} covers "
                                  f"{net.num_addresses} addresses "
                                  f"(limit {MAX_RANGE})")
            hosts = [str(h) for h in net.hosts()]
        for host in hosts:
            if host not in seen:
                seen.add(host)
                out.append(host)
    return tuple(out)


def _parse_ref(value, key: str) -> BrokerRef:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a host:port string")
    try:
        return BrokerRef.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _is_number(value) -> bool:
    """True for a JSON number a float holds finitely: json also reads
    NaN, Infinity and integers too large for any float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number; an int beyond floats
        return False


def _duration(raw: dict, key: str, default: float) -> float:
    """raw[key], or default, in seconds: a key ending in '_ms' holds
    milliseconds, any other key seconds."""
    value = raw.get(key, default)
    in_ms = key.endswith("_ms")
    if not _is_number(value) or value <= 0:
        raise ConfigError(f"{key} must be a positive number of "
                          + ("milliseconds" if in_ms else "seconds"))
    return value / 1000.0 if in_ms else float(value)


def _check_keys(raw: dict, section: str, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: "
                          + ", ".join(sorted(unknown)))


@dataclass(frozen=True)
class MasterConfig(DiscoveryConfig):
    listen: BrokerRef = BrokerRef("0.0.0.0", 1884)


@dataclass(frozen=True)
class BrokerConfig:
    listen: BrokerRef = BrokerRef("0.0.0.0", 1883)
    admin_port: int | None = None


@dataclass(frozen=True)
class ClientConfig:
    master: BrokerRef = BrokerRef("127.0.0.1", 1884)
    keepalive_s: float = 10.0
    timeout_s: float = 2.0


@dataclass(frozen=True)
class EvalConfig:
    params: EvalParams = field(default_factory=lambda: EvalParams(
        throughput=1_000_000.0, service_time=0.001, arrival_rate=500.0,
        n_brokers=4, timeout=10.0))
    steps: int = 60
    mobility_model: str = "random_walk"
    seed: int = 0
    emma: EmmaParams = EmmaParams(probe_time=0.005, reconnect_time=0.009)


@dataclass(frozen=True)
class Config:
    master: MasterConfig = MasterConfig()
    broker: BrokerConfig = BrokerConfig()
    client: ClientConfig = ClientConfig()
    eval: EvalConfig = EvalConfig()


def _master_section(raw: dict) -> MasterConfig:
    _check_keys(raw, "master", {"listen", "address_range", "broker_port",
                                "timeout_ms", "listen_window_ms",
                                "refresh_period_ms"})
    defaults = MasterConfig()
    port = raw.get("broker_port", defaults.broker_port)
    if not isinstance(port, int) or isinstance(port, bool) or not 1 <= port <= 65535:
        raise ConfigError("broker_port must be an integer in 1..65535")
    return MasterConfig(
        listen=_parse_ref(raw["listen"], "master.listen")
        if "listen" in raw else defaults.listen,
        addresses=expand_address_range(raw.get("address_range", [])),
        broker_port=port,
        timeout=_duration(raw, "timeout_ms", defaults.timeout * 1000),
        listen_window=_duration(raw, "listen_window_ms",
                                defaults.listen_window * 1000),
        refresh_period=_duration(raw, "refresh_period_ms",
                                 defaults.refresh_period * 1000),
    )


def _broker_section(raw: dict) -> BrokerConfig:
    _check_keys(raw, "broker", {"listen", "admin_port"})
    defaults = BrokerConfig()
    admin = raw.get("admin_port")
    if admin is not None and (not isinstance(admin, int) or isinstance(admin, bool)
                              or not 0 <= admin <= 65535):
        raise ConfigError("admin_port must be an integer in 0..65535")
    return BrokerConfig(
        listen=_parse_ref(raw["listen"], "broker.listen")
        if "listen" in raw else defaults.listen,
        admin_port=admin,
    )


def _client_section(raw: dict) -> ClientConfig:
    _check_keys(raw, "client", {"master", "keepalive_s", "timeout_s"})
    defaults = ClientConfig()
    return ClientConfig(
        master=_parse_ref(raw["master"], "client.master")
        if "master" in raw else defaults.master,
        keepalive_s=_duration(raw, "keepalive_s", defaults.keepalive_s),
        timeout_s=_duration(raw, "timeout_s", defaults.timeout_s),
    )


def _eval_section(raw: dict) -> EvalConfig:
    _check_keys(raw, "eval", {"throughput", "service_time", "arrival_rate",
                              "n_brokers", "timeout", "per_hop_delay",
                              "max_pub_hops", "sizes", "steps",
                              "mobility_model", "seed", "emma"})
    defaults = EvalConfig()
    base = defaults.params

    sizes = default_sizes()
    user_sizes = raw.get("sizes", {})
    if not isinstance(user_sizes, dict):
        raise ConfigError("eval.sizes must be an object of name -> bits")
    for kind, bits in user_sizes.items():
        if kind not in ALL_KINDS:
            raise ConfigError(f"eval.sizes: unknown message kind {kind!r}")
        if not _is_number(bits) or bits <= 0:
            raise ConfigError(f"eval.sizes.{kind} must be a positive number")
        sizes[kind] = float(bits)

    def num(key, default, *, minimum=None):
        value = raw.get(key, default)
        if not _is_number(value):
            raise ConfigError(f"eval.{key} must be a finite number")
        if minimum is not None and value < minimum:
            raise ConfigError(f"eval.{key} must be >= {minimum}")
        return value

    try:
        params = EvalParams(
            throughput=float(num("throughput", base.throughput)),
            service_time=float(num("service_time", base.service_time)),
            arrival_rate=float(num("arrival_rate", base.arrival_rate)),
            n_brokers=int(num("n_brokers", base.n_brokers, minimum=0)),
            timeout=float(num("timeout", base.timeout)),
            per_hop_delay=float(num("per_hop_delay", base.per_hop_delay)),
            max_pub_hops=int(num("max_pub_hops", base.max_pub_hops, minimum=1)),
            sizes=sizes,
        )
    except ValueError as exc:
        raise ConfigError(f"eval: {exc}") from exc

    steps = raw.get("steps", defaults.steps)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ConfigError("eval.steps must be a positive integer")
    model = raw.get("mobility_model", defaults.mobility_model)
    if model not in MOBILITY_MODELS:
        raise ConfigError(f"eval.mobility_model must be one of "
                          + ", ".join(sorted(MOBILITY_MODELS)))
    seed = raw.get("seed", defaults.seed)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("eval.seed must be a non-negative integer")

    emma_raw = raw.get("emma", {})
    if not isinstance(emma_raw, dict):
        raise ConfigError("eval.emma must be an object")
    _check_keys(emma_raw, "eval.emma", {"probe_time", "reconnect_time"})
    try:
        emma = EmmaParams(
            probe_time=_duration(emma_raw, "probe_time",
                                 defaults.emma.probe_time),
            reconnect_time=_duration(emma_raw, "reconnect_time",
                                     defaults.emma.reconnect_time),
        )
    except ValueError as exc:
        raise ConfigError(f"eval.emma: {exc}") from exc

    return EvalConfig(params=params, steps=steps, mobility_model=model,
                      seed=seed, emma=emma)


_SECTIONS = {
    "master": _master_section,
    "broker": _broker_section,
    "client": _client_section,
    "eval": _eval_section,
}


def load_config(path: str | None = None) -> Config:
    """Read the config file, or return pure defaults when there is none.

    Resolution order: explicit path, then the TDMQTT_CONFIG environment
    variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return Config()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError("unknown section(s): " + ", ".join(sorted(unknown)))
    parts = {}
    for name, build in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section [{name}] must be a JSON object")
        parts[name] = build(section)
    return Config(**parts)
