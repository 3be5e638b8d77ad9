"""Acceptance gate: the eleven end-to-end guarantees this package makes.

Each test prints one PASS/FAIL verdict line (visible with -v via the
test name, and in captured output).  Tolerances and bounds are stated
inline next to each assertion.
"""

import functools
import random
import statistics
import time

import pytest

from conftest import free_port
from helpers import admin_command, connect, random_packet, wait_until
from tdmqtt.client import transparent_subscribe
from tdmqtt.evalmodel import (
    EmmaParams,
    EvalParams,
    MESSAGE_KINDS,
    breakdown,
    mm1_mean_sojourn,
    scenario_broker_mobility,
    scenario_emma_comparison,
    t_mr,
)
from tdmqtt.master import DiscoveryConfig, broker_discovery
from tdmqtt.packets import (
    BrokerRef,
    IncompletePacket,
    MalformedPacket,
    Publish,
    decode,
    encode,
)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"[criterion {num:02d}] {name}: PASS")
        return wrapper
    return deco


def seed(broker, topic, payload=b"x"):
    conn = connect(broker.address, f"seed-{broker.address.port}-{topic}")
    conn.send(Publish(topic, payload))
    wait_until(lambda: topic in broker.topics())
    conn.close()


class Sink:
    def __init__(self):
        self.payloads = []

    def __call__(self, packet):
        self.payloads.append(packet.payload)


# --- 1. codec soundness -------------------------------------------------------------

@criterion(1, "codec round-trip soundness")
def test_c01_codec_soundness():
    rng = random.Random(20260819)
    start = time.monotonic()
    packets = [random_packet(rng) for _ in range(10_000)]
    for packet in packets:
        wire = encode(packet)
        got, used = decode(wire)
        assert got == packet, f"round-trip changed {packet!r} into {got!r}"
        assert used == len(wire)
    # no truncation of a valid packet may decode as a (different) packet
    for packet in packets[::50]:
        wire = encode(packet)
        for cut in range(len(wire)):
            try:
                got, _ = decode(wire[:cut])
            except (IncompletePacket, MalformedPacket):
                continue
            raise AssertionError(
                f"{cut}-byte prefix of {packet!r} decoded as {got!r}")
    assert time.monotonic() - start < 10.0  # stated runtime bound


# --- 2. discovery exactness ------------------------------------------------------------

@criterion(2, "fleet discovery exactness, sizes 0..8")
def test_c02_discovery_exactness(make_fleet):
    addresses = tuple(f"127.0.0.{i}" for i in range(1, 9))
    for k in range(9):
        brokers, port = make_fleet(k)
        config = DiscoveryConfig(addresses=addresses, broker_port=port,
                                 timeout=0.25)
        started = time.monotonic()
        found = broker_discovery(config)
        elapsed = time.monotonic() - started
        assert found == [b.address for b in brokers], f"fleet size {k}"
        assert elapsed < (8 - k) * 0.25 + 2.0, f"fleet size {k}: {elapsed:.2f}s"
        for b in brokers:
            b.stop()


# --- 3. census exactness -----------------------------------------------------------------

@criterion(3, "topic census exactness, 10/10 identical")
def test_c03_census_repeatable(make_fleet, tmp_path, capsys):
    import json

    from tdmqtt.cli import main

    brokers, port = make_fleet(3)
    partition = {0: ("t1", "t2"), 1: ("t3",), 2: ("t4", "t5")}
    for idx, topics in partition.items():
        for topic in topics:
            seed(brokers[idx], topic)
    config = tmp_path / "census.json"
    config.write_text(json.dumps({"master": {
        "address_range": [f"127.0.0.{i}" for i in (1, 2, 3)],
        "broker_port": port, "timeout_ms": 250, "listen_window_ms": 250}}))
    expected = [f"127.0.0.1:{port}\tt1,t2",
                f"127.0.0.2:{port}\tt3",
                f"127.0.0.3:{port}\tt4,t5"]
    for run in range(10):
        assert main(["discover", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == expected, f"run {run}: {lines}"


# --- 4. transparent subscription ----------------------------------------------------------

@criterion(4, "transparent subscription via server reference")
def test_c04_transparent_subscription(make_fleet, make_master):
    brokers, port = make_fleet(1)
    seed(brokers[0], "room/temp", b"21.5")
    master = make_master(["127.0.0.1"], port)

    sink = Sink()
    started = time.monotonic()
    session = transparent_subscribe(master.address, "room/temp", sink)
    try:
        wait_until(lambda: sink.payloads, timeout=2.0)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"took {elapsed:.2f}s"  # stated bound
        assert sink.payloads[0] == b"21.5"
        # the subscriber was configured with the master address only;
        # the edge address must have arrived in a server reference
        events = session.events()
        redirects = [d for k, d in events if k == "redirect"]
        assert redirects == [str(brokers[0].address)]
        assert session.broker == brokers[0].address
    finally:
        session.close()


# --- 5. broker anomaly recovery -------------------------------------------------------------

@criterion(5, "hosting-broker death recovery, 10/10 within 4s")
def test_c05_broker_death_recovery(make_master):
    from tdmqtt.broker import EdgeBroker

    for trial in range(10):
        port = free_port()
        b1 = EdgeBroker(host="127.0.0.1", port=port)
        b2 = EdgeBroker(host="127.0.0.2", port=port)
        b1.start()
        b2.start()
        master = None
        session = None
        try:
            seed(b1, "jobs", b"first")
            master = make_master(["127.0.0.1", "127.0.0.2"], port,
                                 listen_window=0.25)
            sink = Sink()
            session = transparent_subscribe(master.address, "jobs", sink,
                                            keepalive=1.0, timeout=1.0)
            assert session.broker == b1.address
            # the topic reappears elsewhere, then its broker dies
            seed(b2, "jobs", b"resumed")
            started = time.monotonic()
            b1.stop()
            wait_until(lambda: b"resumed" in sink.payloads, timeout=4.0)
            elapsed = time.monotonic() - started
            assert elapsed < 1.0 + 3.0, f"trial {trial}: {elapsed:.2f}s"
            assert session.broker == b2.address
        finally:
            if session is not None:
                session.close()
            b1.stop()
            b2.stop()


# --- 6. topic relocation ----------------------------------------------------------------------

@criterion(6, "relocation: unknown target via master, known target direct, 10/10")
def test_c06_relocation_paths(make_fleet, make_master):
    # unknown target: the subscriber must fall back to the master; its
    # re-ask makes the master census the old home again (the bounce
    # census), find the topic gone and sweep the fleet for its new home
    for trial in range(10):
        brokers, port = make_fleet(2, admin=True)
        b1, b2 = brokers
        seed(b1, "sensors/a", b"old")
        master = make_master(["127.0.0.1", "127.0.0.2"], port,
                             listen_window=0.25, refresh_period=0.5)
        sink = Sink()
        session = transparent_subscribe(master.address, "sensors/a", sink,
                                        keepalive=1.0, timeout=1.0)
        try:
            assert session.broker == b1.address
            seed(b2, "sensors/a", b"moved")
            before = master.connection_count
            assert admin_command(b1.admin_address,
                                 "RELOCATE sensors/a") == "OK"
            wait_until(lambda: session.broker == b2.address, timeout=6.0)
            wait_until(lambda: b"moved" in sink.payloads, timeout=2.0)
            assert master.connection_count > before, \
                f"trial {trial}: recovery skipped the master"
        finally:
            session.close()
            master.stop()
            for b in brokers:
                b.stop()

    # known target: the redirect carries the address, master stays idle
    for trial in range(10):
        brokers, port = make_fleet(2, admin=True)
        b1, b2 = brokers
        seed(b1, "sensors/b", b"old")
        master = make_master(["127.0.0.1", "127.0.0.2"], port,
                             listen_window=0.25)
        sink = Sink()
        session = transparent_subscribe(master.address, "sensors/b", sink,
                                        keepalive=1.0, timeout=1.0)
        try:
            assert session.broker == b1.address
            before = master.connection_count
            assert admin_command(
                b1.admin_address,
                f"RELOCATE sensors/b 127.0.0.2:{port}") == "OK"
            wait_until(lambda: session.broker == b2.address, timeout=4.0)
            seed(b2, "sensors/b", b"after-move")
            wait_until(lambda: b"after-move" in sink.payloads, timeout=2.0)
            assert master.connection_count == before, \
                f"trial {trial}: master was consulted"
        finally:
            session.close()
            master.stop()
            for b in brokers:
                b.stop()


# --- 7. queue model vs simulation ----------------------------------------------------------------

@criterion(7, "M/M/1 simulation within 5% of closed form")
def test_c07_sojourn_simulation():
    started = time.monotonic()
    service = 0.001
    for load in (0.1, 0.5, 0.9):
        lam = load / service
        sim = mm1_mean_sojourn(service, lam, 200_000, seed=2)
        exact = t_mr(service, lam)
        rel = abs(sim - exact) / exact
        assert rel <= 0.05, f"load {load}: {rel:.4f} relative error"
    assert time.monotonic() - started < 30.0  # stated runtime bound


# --- 8. worked delay values ------------------------------------------------------------------------

@criterion(8, "worked delay values exact to 1e-9 relative")
def test_c08_worked_values():
    sizes = {kind: 1.0 for kind in MESSAGE_KINDS}
    sizes.update(tcp_syn=5.0, tcp_synack=5.0)
    params = EvalParams(throughput=1000.0, service_time=0.001,
                        arrival_rate=0.0, n_brokers=4, timeout=1.0,
                        sizes=sizes)
    b = breakdown(params)
    assert b.t_td == pytest.approx(0.007, rel=1e-9)
    assert b.t_tts == pytest.approx(0.009, rel=1e-9)
    assert b.t_change == pytest.approx(0.016, rel=1e-9)
    assert b.t_bd == pytest.approx(2.04, rel=1e-9)
    assert b.t_broker_change == pytest.approx(3.077, rel=1e-9)


# --- 9. mobility scenario ordering ------------------------------------------------------------------

@criterion(9, "monotone mobility: redirected beats standard, deterministically")
def test_c09_mobility_ordering():
    params = EvalParams(throughput=1000.0, service_time=0.001,
                        arrival_rate=500.0, n_brokers=4, timeout=1.0,
                        sizes={k: 1.0 for k in MESSAGE_KINDS}
                        | {"tcp_syn": 5.0, "tcp_synack": 5.0})
    trace = scenario_broker_mobility(params, steps=50,
                                     mobility_model="monotone", seed=4)
    std = [row[2] for row in trace.rows]
    td = [row[3] for row in trace.rows]
    assert statistics.mean(td) < statistics.mean(std)
    assert all(b >= a for a, b in zip(std, std[1:]))
    again = scenario_broker_mobility(params, steps=50,
                                     mobility_model="monotone", seed=4)
    assert again == trace  # deterministic per seed


# --- 10. discovery-cost comparison -----------------------------------------------------------------

@criterion(10, "redirect cost flat in fleet size, probe baseline linear")
def test_c10_fleet_scaling():
    probe, reconnect = 0.005, 0.009
    sizes = {k: 1.0 for k in MESSAGE_KINDS} | {"tcp_syn": 5.0,
                                               "tcp_synack": 5.0}
    xs, emma_ms, td_ms = [], [], []
    for n in range(1, 17):
        params = EvalParams(throughput=1000.0, service_time=0.001,
                            arrival_rate=0.0, n_brokers=n, timeout=1.0,
                            sizes=sizes)
        row = scenario_emma_comparison(params, 1,
                                       EmmaParams(probe, reconnect)).rows[0]
        xs.append(n)
        td_ms.append(row[1])
        emma_ms.append(row[2])
    assert len(set(td_ms)) == 1  # constant in N
    slope, _ = statistics.linear_regression(xs, emma_ms)
    assert slope == pytest.approx(probe * 1000, rel=0.01)  # 1% tolerance


# --- 11. zero prior knowledge -----------------------------------------------------------------------

@criterion(11, "subscriber knows only the master's address")
def test_c11_zero_prior_knowledge(make_fleet, make_master):
    import dataclasses
    import inspect

    from tdmqtt.client import SubscriberSession
    from tdmqtt.config import ClientConfig

    # static scan: the subscriber role's config carries exactly one
    # network address, and it is the master's
    address_fields = [f.name for f in dataclasses.fields(ClientConfig)
                      if f.type in ("BrokerRef", BrokerRef)]
    assert address_fields == ["master"]
    signature = inspect.signature(SubscriberSession.__init__)
    address_params = [name for name, p in signature.parameters.items()
                      if p.annotation in ("BrokerRef", BrokerRef)]
    assert address_params == ["master"]

    # dynamic audit: every broker address the session dials appears in a
    # redirect or moved event before any attach to it
    brokers, port = make_fleet(2, admin=True)
    seed(brokers[0], "audited", b"one")
    master = make_master(["127.0.0.1", "127.0.0.2"], port)
    session = transparent_subscribe(master.address, "audited", Sink(),
                                    keepalive=1.0, timeout=1.0)
    try:
        admin_command(brokers[0].admin_address,
                      f"RELOCATE audited 127.0.0.2:{port}")
        wait_until(lambda: session.broker == brokers[1].address, timeout=4.0)
        events = session.events()
        announced = set()
        for kind, detail in events:
            if kind in ("redirect", "moved") and detail:
                announced.add(detail)
            elif kind == "attach":
                assert detail in announced, \
                    f"attached to {detail} before any redirect named it"
        assert len(announced) >= 2  # both edge brokers arrived by reference
    finally:
        session.close()
