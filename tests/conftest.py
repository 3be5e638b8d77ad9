import logging
import socket

import pytest

import helpers
from tdmqtt.broker import EdgeBroker
from tdmqtt.master import DiscoveryConfig, MasterBroker


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(autouse=True)
def _quiet_logs(caplog):
    caplog.set_level(logging.WARNING)


@pytest.fixture(autouse=True)
def _close_connections():
    yield
    while helpers.opened:
        helpers.opened.pop().close()


@pytest.fixture
def _broker_registry():
    started = []
    yield started
    for broker in started:
        broker.stop()


@pytest.fixture
def make_broker(_broker_registry):
    """Factory for ephemeral-port edge brokers, all stopped on teardown."""

    def factory(host="127.0.0.1", admin=False, **kwargs):
        broker = EdgeBroker(host=host, port=0,
                            admin_port=0 if admin else None, **kwargs)
        broker.start()
        _broker_registry.append(broker)
        return broker

    return factory


@pytest.fixture
def broker(make_broker):
    return make_broker()


@pytest.fixture
def make_fleet(_broker_registry):
    """n edge brokers on 127.0.0.1..127.0.0.n, all on one shared port.

    Mirrors a deployment where brokers sit on neighbouring addresses and
    a master sweeps the range.
    """

    def factory(n: int, port: int | None = None, admin: bool = False):
        port = port or free_port()
        brokers = []
        for i in range(1, n + 1):
            b = EdgeBroker(host=f"127.0.0.{i}", port=port,
                           admin_port=0 if admin else None)
            b.start()
            brokers.append(b)
            _broker_registry.append(b)
        return brokers, port

    return factory


@pytest.fixture
def make_master():
    """Factory for masters with test-friendly small windows."""
    started = []

    def factory(addresses, broker_port, *, timeout=0.25, listen_window=0.3,
                refresh_period=60.0, port=0):
        config = DiscoveryConfig(
            addresses=tuple(addresses),
            broker_port=broker_port,
            timeout=timeout,
            listen_window=listen_window,
            refresh_period=refresh_period,
        )
        master = MasterBroker(config, host="127.0.0.1", port=port)
        master.start()
        started.append(master)
        return master

    yield factory
    for master in started:
        master.stop()
