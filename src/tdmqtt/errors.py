"""Exceptions shared across the client, brokers and CLI."""

from __future__ import annotations

from .packets import BrokerRef


class TdmqttError(Exception):
    """Base class for everything this package raises on purpose."""


class ConfigError(TdmqttError):
    """A configuration file or value could not be used as given."""


class ConnectionClosed(TdmqttError):
    """The peer went away mid-conversation (reset, or EOF inside a packet)."""


class SendTimedOut(ConnectionClosed):
    """A send missed its deadline.  One that ran out while writing closed
    the connection; one that ran out waiting for another send wrote
    nothing and left the connection open."""


class BrokerUnreachable(TdmqttError):
    """An edge broker did not accept a connection or broke the handshake."""


class MasterUnreachable(TdmqttError):
    """The master broker did not accept a connection or broke the handshake."""


class NoSuchTopic(TdmqttError):
    """The master knows no broker hosting the requested topic filter."""

    def __init__(self, topic_filter: str):
        self.topic_filter = topic_filter
        super().__init__(f"no broker hosts {topic_filter!r}")


class Redirected(TdmqttError):
    """A publish or subscribe was bounced to another broker.

    `reference` is the new broker when the old one knew the destination,
    None when the topic moved somewhere unrecorded.
    """

    def __init__(self, reference: BrokerRef | None):
        self.reference = reference
        where = str(reference) if reference else "an unknown broker"
        super().__init__(f"topic now lives on {where}")
