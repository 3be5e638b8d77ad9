"""Analytical delay model for the redirect architecture, plus scenario
generators that compare it against a fixed-broker baseline and a
probe-all-brokers baseline.

Everything is a pure function of EvalParams.  Times are seconds
internally; the CSV emitters convert to milliseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .packets import (
    BrokerRef,
    ConnAck,
    Connect,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    encode,
    redirect,
)

MESSAGE_KINDS = ("connect", "connack", "subscribe", "suback",
                 "publish", "puback", "disconnect")
TCP_KINDS = ("tcp_syn", "tcp_synack")
ALL_KINDS = MESSAGE_KINDS + TCP_KINDS

MOBILITY_MODELS = ("frozen", "monotone", "random_walk")

# Minimal TCP/IPv4 header pair; the codec cannot measure these, so the
# textbook 40-byte figure is used.
TCP_SEGMENT_BITS = 320.0


class UnstableQueue(ValueError):
    """Arrival rate at or beyond service capacity: no steady state."""


def t_message(size_bits: float, throughput: float) -> float:
    """Transmission delay of one message over the network."""
    if throughput <= 0:
        raise ValueError(f"throughput must be positive, got {throughput}")
    if size_bits < 0:
        raise ValueError(f"message size must be >= 0, got {size_bits}")
    return size_bits / throughput


def t_mr(service_time: float, arrival_rate: float) -> float:
    """Mean time a message spends inside a broker (M/M/1 sojourn)."""
    if service_time <= 0:
        raise ValueError(f"service time must be positive, got {service_time}")
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate}")
    load = arrival_rate * service_time
    if load >= 1:
        raise UnstableQueue(f"load λD = {load:.3f} >= 1")
    return service_time / (1.0 - load)


def mm1_mean_sojourn(service_time: float, arrival_rate: float,
                     n_samples: int = 200_000, seed: int = 0) -> float:
    """Mean sojourn from a discrete-event M/M/1 simulation.

    Poisson arrivals, exponential service, FIFO, started empty; the
    waiting-time recursion w' = max(0, w + s - a) walks the queue one
    departure at a time.  An independent check on the closed form of
    t_mr, deterministic for a fixed seed.
    """
    if service_time <= 0 or arrival_rate <= 0:
        raise ValueError("service time and arrival rate must be positive")
    if arrival_rate * service_time >= 1:
        raise UnstableQueue(
            f"load λD = {arrival_rate * service_time:.3f} >= 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    expo = rng.expovariate
    mu = 1.0 / service_time
    wait = 0.0
    total = 0.0
    for _ in range(n_samples):
        service = expo(mu)
        total += wait + service
        wait = max(0.0, wait + service - expo(arrival_rate))
    return total / n_samples


def default_sizes() -> dict[str, float]:
    """Per-kind message sizes in bits, measured off the real codec.

    Representative packets, not minimal ones: a publish carries a small
    reading, the disconnect carries a broker reference (the redirect
    form, which is the one the architecture actually pays for).
    """
    reference = {
        "connect": Connect("subscriber-0001", keep_alive=60),
        "connack": ConnAck(Reason.SUCCESS),
        "subscribe": Subscribe(1, ("sensors/device/reading",)),
        "suback": SubAck(1, (Reason.SUCCESS,)),
        "publish": Publish("sensors/device/reading", b"21.5", qos=1,
                           packet_id=1),
        "puback": PubAck(1),
        "disconnect": redirect(BrokerRef("192.168.1.10", 1883)),
    }
    sizes = {kind: len(encode(packet)) * 8.0
             for kind, packet in reference.items()}
    sizes["tcp_syn"] = TCP_SEGMENT_BITS
    sizes["tcp_synack"] = TCP_SEGMENT_BITS
    return sizes


@dataclass(frozen=True)
class EvalParams:
    """Inputs to the delay model.

    sizes maps each of the nine kinds (seven MQTT packets plus
    tcp_syn/tcp_synack) to bits.  service_time is D = 1/mu; timeout is
    the dead-broker waiting bound; per_hop_delay and max_pub_hops feed
    the mobility scenario.
    """

    throughput: float
    service_time: float
    arrival_rate: float
    n_brokers: int
    timeout: float
    sizes: dict[str, float] = field(default_factory=default_sizes)
    per_hop_delay: float = 0.001
    max_pub_hops: int = 2

    def __post_init__(self):
        object.__setattr__(self, "sizes", dict(self.sizes))
        if self.throughput <= 0:
            raise ValueError("throughput must be positive")
        if self.service_time <= 0:
            raise ValueError("service_time must be positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if self.arrival_rate * self.service_time >= 1:
            raise UnstableQueue(
                f"load λD = {self.arrival_rate * self.service_time:.3f} >= 1")
        if self.n_brokers < 0:
            raise ValueError("n_brokers must be >= 0")
        if self.timeout < 0:
            raise ValueError("timeout must be >= 0")
        if self.per_hop_delay < 0:
            raise ValueError("per_hop_delay must be >= 0")
        if self.max_pub_hops < 1:
            raise ValueError("max_pub_hops must be >= 1")
        missing = [kind for kind in ALL_KINDS if kind not in self.sizes]
        if missing:
            raise ValueError(f"sizes missing kinds: {missing}")
        bad = {k: v for k, v in self.sizes.items() if v <= 0}
        if bad:
            raise ValueError(f"sizes must be positive: {bad}")

    def message_time(self, kind: str) -> float:
        return t_message(self.sizes[kind], self.throughput)


def t_td(p: EvalParams) -> float:
    """Topic census cost against one broker: the seven-message exchange."""
    return sum(p.message_time(kind) for kind in MESSAGE_KINDS)


def t_bd(p: EvalParams) -> float:
    """Fleet scan cost: half the fleet charges a timeout, every broker
    costs one TCP exchange.

    The N/2 timeout factor is adopted as given; it reads as an expected
    value over a half-dead fleet but arrives without derivation.
    """
    tcp = p.message_time("tcp_syn") + p.message_time("tcp_synack")
    return (p.n_brokers / 2) * p.timeout + p.n_brokers * tcp


def t_tts(p: EvalParams) -> float:
    """Redirected subscription cost: two CONNECT/SUBSCRIBE handshakes
    (master, then the referenced broker) and one redirect DISCONNECT."""
    return (2 * p.message_time("connect") + 2 * p.message_time("connack")
            + 2 * p.message_time("subscribe") + 2 * p.message_time("suback")
            + p.message_time("disconnect"))


def t_change(p: EvalParams) -> float:
    """Subscriber cost of a topic moving: re-census plus re-subscription."""
    return t_td(p) + t_tts(p)


def t_broker_change(p: EvalParams) -> float:
    """Subscriber cost of its broker dying: one timeout to notice, a
    fleet re-scan, a census of each broker, and the re-subscription."""
    return p.timeout + t_tts(p) + t_bd(p) + p.n_brokers * t_td(p)


@dataclass(frozen=True)
class DelayBreakdown:
    """Every model quantity at one parameter point, seconds."""

    message_delays: dict[str, float]
    t_mr: float
    t_td: float
    t_bd: float
    t_tts: float
    t_change: float
    t_broker_change: float


def breakdown(p: EvalParams) -> DelayBreakdown:
    """All model outputs; the composite identities hold exactly because
    the composites are built from the very same addends."""
    return DelayBreakdown(
        message_delays={kind: p.message_time(kind) for kind in ALL_KINDS},
        t_mr=t_mr(p.service_time, p.arrival_rate),
        t_td=t_td(p),
        t_bd=t_bd(p),
        t_tts=t_tts(p),
        t_change=t_change(p),
        t_broker_change=t_broker_change(p),
    )


@dataclass(frozen=True)
class ScenarioTrace:
    """Tabular scenario output; to_csv() is byte-stable for a given
    input (fixed-point floats, dot decimal, no locale)."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(
                f"{value:.6f}" if isinstance(value, float) else str(value)
                for value in row))
        return "\n".join(lines) + "\n"


def _hop_deltas(model: str, steps: int, rng: random.Random) -> list[int]:
    if model == "frozen":
        return [0] * steps
    if model == "monotone":
        return [1] * steps
    if model == "random_walk":
        return [rng.choice((-1, 0, 1)) for _ in range(steps)]
    raise ValueError(f"unknown mobility model {model!r}; "
                     f"expected one of {MOBILITY_MODELS}")


def scenario_broker_mobility(p: EvalParams, steps: int,
                             mobility_model: str = "random_walk",
                             seed: int = 0) -> ScenarioTrace:
    """Publisher-to-subscriber response time as the broker drifts away.

    Both systems ride the same hop-distance walk, starting adjacent.
    The fixed-broker baseline stays bound to its broker, so its distance
    is the raw walk.  The redirecting system rebinds to an adjacent
    broker whenever its distance exceeds max_pub_hops, paying t_change
    on the rebind step.

    Response per step: per_hop_delay out and back across the current
    hop distance, broker sojourn, and publish transmission in and out.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    deltas = _hop_deltas(mobility_model, steps, random.Random(seed))
    sojourn = t_mr(p.service_time, p.arrival_rate)
    base = sojourn + 2 * p.message_time("publish")
    rebind_cost = t_change(p)

    def response(hops: int) -> float:
        return 2 * hops * p.per_hop_delay + base

    rows = []
    std_hops = td_hops = 1
    for step, delta in enumerate(deltas):
        std_hops = max(1, std_hops + delta)
        td_hops = max(1, td_hops + delta)
        extra = 0.0
        if td_hops > p.max_pub_hops:
            td_hops = 1
            extra = rebind_cost
        rows.append((step, std_hops,
                     response(std_hops) * 1000.0,
                     (response(td_hops) + extra) * 1000.0))
    return ScenarioTrace(("step", "hops", "std_ms", "tdmqtt_ms"), tuple(rows))


@dataclass(frozen=True)
class EmmaParams:
    """Cost knobs for the probe-all-brokers baseline."""

    probe_time: float      # per-broker QoS probe, seconds
    reconnect_time: float  # settling on the chosen broker, seconds

    def __post_init__(self):
        if self.probe_time < 0 or self.reconnect_time < 0:
            raise ValueError("EMMA times must be >= 0")


def scenario_emma_comparison(p: EvalParams, steps: int,
                             emma: EmmaParams) -> ScenarioTrace:
    """Per-move discovery cost: directory lookup vs probing the fleet.

    The redirecting system pays one census plus one redirected
    subscription per move, independent of fleet size; the baseline
    probes all N brokers and reconnects.  Both costs are deterministic.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    td_ms = (t_td(p) + t_tts(p)) * 1000.0
    emma_ms = (p.n_brokers * emma.probe_time + emma.reconnect_time) * 1000.0
    rows = tuple((step, td_ms, emma_ms) for step in range(steps))
    return ScenarioTrace(("step", "tdmqtt_ms", "emma_ms"), rows)
