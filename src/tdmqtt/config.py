"""JSON configuration shared by every command-line role.

One file, four sections ("master", "broker", "client", "eval"), all
optional.  Each section is a table from key to the reader of its kind of
value, and the top level is read the same way with the sections as its
keys.  A duration whose key ends in "_ms" is milliseconds (the master's
sweep timings), any other seconds.  Unknown sections or keys are
rejected rather than ignored so a typo fails loudly instead of silently
running with defaults, and every error about a value names its section
and key.
"""

from __future__ import annotations

import ipaddress
import json
import math
import os
from dataclasses import dataclass, field, replace

from . import client
from .errors import ConfigError
from .evalmodel import ALL_KINDS, EmmaParams, EvalParams, MOBILITY_MODELS, default_sizes
from .master import DiscoveryConfig
from .packets import BrokerRef

ENV_VAR = "TDMQTT_CONFIG"

# Refuse to expand a CIDR block into more census targets than this; a typo'd
# /8 would otherwise produce sixteen million addresses.
MAX_RANGE = 65536


def expand_address_range(value, name: str = "address_range") -> tuple[str, ...]:
    """Turn a host, CIDR block, or list of either into census addresses.

    "10.0.0.5" stays itself, "10.0.0.0/30" becomes its usable hosts,
    and anything else without a '/' (a hostname, say) passes through
    verbatim; an item with a '/' that is no IP network is a ConfigError.
    Order is preserved, duplicates dropped.  Errors call the value name.
    """
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be a string or list of strings")
    out: list[str] = []
    seen: set[str] = set()
    for item in value:
        try:
            net = ipaddress.ip_network(item)
        except ValueError as exc:
            if "/" in item:
                raise ConfigError(f"{name} {item!r}: {exc}") from exc
            hosts = [item]  # hostname or bare label: leave resolution to connect()
        else:
            if net.num_addresses > MAX_RANGE:
                raise ConfigError(f"{name} {item!r} covers "
                                  f"{net.num_addresses} addresses "
                                  f"(limit {MAX_RANGE})")
            hosts = [str(h) for h in net.hosts()]
        for host in hosts:
            if host not in seen:
                seen.add(host)
                out.append(host)
    return tuple(out)


# --- readers: each takes a JSON value and the name <section>.<key> it is read
# under, and returns the value to store or raises a ConfigError naming it ----

def _read(raw, section: str, readers: dict) -> dict:
    """The keys of the JSON object raw, each read by its entry in
    readers; keys raw leaves out are left out.  A raw that is no object,
    and a key readers lacks, are errors.  The top level is section ''."""
    where = f"[{section}]" if section else "the top level"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(readers)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: " + ", ".join(sorted(unknown)))
    return {key: readers[key](value, f"{section}.{key}" if section else key)
            for key, value in raw.items()}


def _section(cls: type, readers: dict, fields: dict[str, str] = {}):
    """A reader of one section into cls: each key's value goes to the
    field fields names for it, or to the field of the key's own name."""
    return lambda value, name: cls(**{fields.get(key, key): v for key, v
                                      in _read(value, name, readers).items()})


def _finite(value, kind: type = float) -> bool:
    """True for a JSON number of kind that a float holds finitely: json
    also reads NaN, Infinity and integers too large for any float."""
    try:
        return isinstance(value, int if kind is int else (int, float)) \
            and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond floats
        return False


def _number(kind: type = float, low: float = -math.inf, high: float = math.inf):
    """A reader of a finite number in low..high.  Where kind is int the
    number must be a JSON integer: a fraction is an error, not truncated."""
    what = "an integer" if kind is int else "a finite number"
    if high < math.inf:
        what += f" in {low}..{high}"
    elif low > -math.inf:
        what += f" >= {low}"

    def read(value, name: str):
        if not (_finite(value, kind) and low <= value <= high):
            raise ConfigError(f"{name} must be {what}")
        return kind(value)
    return read


def _duration(value, name: str) -> float:
    """Seconds, from a positive number of milliseconds where the key
    ends in '_ms', else of seconds."""
    in_ms = name.endswith("_ms")
    if not (_finite(value) and value > 0):
        raise ConfigError(f"{name} must be a positive number of "
                          + ("milliseconds" if in_ms else "seconds"))
    return value / 1000.0 if in_ms else float(value)


def _host_port(value, name: str) -> BrokerRef:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a host:port string")
    try:
        return BrokerRef.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _choice(options: tuple[str, ...]):
    def read(value, name: str) -> str:
        if value not in options:
            raise ConfigError(f"{name} must be one of " + ", ".join(sorted(options)))
        return value
    return read


def _sizes(value, name: str) -> dict[str, float]:
    """Bits per message kind; a kind left out keeps its default."""
    return default_sizes() | _read(value, name, dict.fromkeys(ALL_KINDS, _number()))


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
    keepalive_s: float = client.KEEPALIVE
    timeout_s: float = client.TIMEOUT


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


_EVAL = {
    "throughput": _number(), "service_time": _number(),
    "arrival_rate": _number(), "n_brokers": _number(int),
    "timeout": _number(), "per_hop_delay": _number(),
    "max_pub_hops": _number(int), "sizes": _sizes,
    "steps": _number(int, 1), "mobility_model": _choice(MOBILITY_MODELS),
    "seed": _number(int, 0),
    "emma": lambda value, name: _read(value, name, dict.fromkeys(
        ("probe_time", "reconnect_time"), _duration)),
}


def _eval(value, name: str) -> EvalConfig:
    """EvalConfig() with the keys given replaced; EvalParams and
    EmmaParams check their own ranges."""
    given, ev = _read(value, name, _EVAL), EvalConfig()
    emma = given.pop("emma", {})
    outer = {key: given.pop(key) for key in ("steps", "mobility_model", "seed")
             if key in given}
    try:
        return replace(ev, params=replace(ev.params, **given),
                       emma=replace(ev.emma, **emma), **outer)
    except ValueError as exc:
        raise ConfigError(f"eval: {exc}") from exc


_SECTIONS = {
    "master": _section(MasterConfig, {
        "listen": _host_port, "address_range": expand_address_range,
        "broker_port": _number(int, 1, 65535), "timeout_ms": _duration,
        "listen_window_ms": _duration, "refresh_period_ms": _duration,
    }, fields={"address_range": "addresses", "timeout_ms": "timeout",
               "listen_window_ms": "listen_window",
               "refresh_period_ms": "refresh_period"}),
    "broker": _section(BrokerConfig, {
        "listen": _host_port,
        "admin_port": lambda value, name: None if value is None
        else _number(int, 0, 65535)(value, name),
    }),
    "client": _section(ClientConfig, {
        "master": _host_port, "keepalive_s": _duration, "timeout_s": _duration,
    }),
    "eval": _eval,
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
    return Config(**_read(raw, "", _SECTIONS))
