"""Edge broker: a small MQTT 5 broker that also remembers where topics went.

Beyond plain publish/subscribe it keeps a relocation table, capped at
its newest _RELOCATIONS_CAP topics.  When a topic has been handed to
another broker, publishers and subscribers that touch it are cut off
with a DISCONNECT naming the new broker (USE ANOTHER SERVER + server
reference) or, when the destination is unknown, a plain TOPIC FILTER NOT
ACCEPTED.

Every publish updates the per-topic message table regardless of the
retain flag, so a later subscribe replays the latest message of each
matching topic.  That replay is what lets a wildcard subscriber
enumerate the broker's whole topic population.

Routing is indexed by filter: a publish looks up the few filters that
can match its topic (packets.matching_filters) instead of testing every
session's filters.

Every CONNACK carries the topic-table version: a token drawn once per
broker plus a count of the topics the message table gained or lost.  A
value update leaves it alone, so a census that reads an unchanged
version knows the topic set without replaying it.  It also advertises
MAX_PACKET_SIZE.

Every send to a client has the deadline stream.SEND_TIMEOUT.  A session
that misses it while being written to is disconnected as a slow
consumer, so a subscriber that stops reading costs a publisher, or a
relocation, one deadline, once.  A QoS 1 publish is acknowledged after
its fan-out.
"""

from __future__ import annotations

import functools
import itertools
import logging
import os
import socket
import threading

from .packets import (
    BrokerRef,
    ConnAck,
    Connect,
    Disconnect,
    Packet,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    matched_topics,
    matching_filters,
    redirect,
    validate_filters,
    validate_topic,
)
from . import stream
from .errors import ConnectionClosed, SendTimedOut
from .stream import MAX_PACKET_SIZE, PacketConnection, Server, serve_mqtt

logger = logging.getLogger(__name__)

_RELOCATIONS_CAP = 4096  # relocation notices a broker keeps
# the longest admin command in bytes, newline included: RELOCATE, a
# topic of up to 65 535 bytes (MQTT's limit on a string) and a host:port
_ADMIN_LINE_CAP = 65_535 + 512


class _Session:
    def __init__(self, conn: PacketConnection, client_id: str):
        self.conn = conn
        self.client_id = client_id
        self.filters: set[str] = set()
        self._pid = itertools.count(1)

    def message(self, topic: str, payload: bytes, qos: int,
                retain: bool) -> Publish:
        """A delivery to this session, with its next packet id at QoS 1."""
        packet_id = (next(self._pid) - 1) % 0xFFFF + 1 if qos == 1 else None
        return Publish(topic, payload, qos=qos, packet_id=packet_id,
                       retain=retain)


class EdgeBroker:
    """Runs until stop(); each client connection is served, from accept
    to close, by one worker thread of stream.Server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 1883,
                 admin_port: int | None = None):
        self._host = host
        self._port = port
        self._admin_port = admin_port
        self._lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._subscribers: dict[str, set[_Session]] = {}  # filter -> sessions
        self._messages: dict[str, tuple[bytes, int]] = {}  # topic -> last message
        self._relocations: dict[str, Disconnect] = {}  # topic -> its notice
        self._table_token = os.urandom(8).hex()
        self._table_changes = 0  # topics _messages gained or lost
        self._server = Server(host)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EdgeBroker":
        self._port = self._server.listen(self._port, functools.partial(
            serve_mqtt, attach=self._register, handle=self._handle,
            detach=self._unregister, connack=self._connack))
        if self._admin_port is not None:
            self._admin_port = self._server.listen(self._admin_port,
                                                   self._serve_admin)
        logger.info("edge broker listening on %s", self.address)
        return self

    def stop(self) -> None:
        self._server.stop()

    @property
    def address(self) -> BrokerRef:
        return BrokerRef(self._host, self._port)

    @property
    def admin_address(self) -> tuple[str, int]:
        if self._admin_port is None:
            raise RuntimeError("broker started without an admin port")
        return (self._host, self._admin_port)

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._messages)

    # -- sessions -----------------------------------------------------------

    def _connack(self) -> ConnAck:
        with self._lock:
            version = f"{self._table_token}-{self._table_changes}"
        return ConnAck(Reason.SUCCESS, topic_table_version=version,
                       max_packet_size=MAX_PACKET_SIZE)

    def _register(self, conn: PacketConnection, connect: Connect) -> _Session:
        client_id = connect.client_id
        session = _Session(conn, client_id)
        if not client_id:  # no one can take over an empty-id session
            return session
        with self._lock:
            old = self._sessions.get(client_id)
            self._sessions[client_id] = session
            if old is not None:  # stops receiving now, not when its thread ends
                self._unsubscribe_all(old)
        if old is not None:
            logger.debug("evicting older session for %r", client_id)
            old.conn.close()
        return session

    def _unregister(self, session: _Session) -> None:
        with self._lock:
            self._unsubscribe_all(session)
            # an eviction may already have replaced this id
            if self._sessions.get(session.client_id) is session:
                del self._sessions[session.client_id]

    def _unsubscribe_all(self, session: _Session) -> None:
        for filt in session.filters:
            subscribers = self._subscribers[filt]
            subscribers.discard(session)
            if not subscribers:
                del self._subscribers[filt]
        session.filters.clear()

    def _receivers(self, topic: str) -> set[_Session]:
        """Sessions holding at least one filter that matches topic."""
        receivers: set[_Session] = set()
        for filt in matching_filters(topic):
            subscribers = self._subscribers.get(filt)
            if subscribers:
                receivers |= subscribers
        return receivers

    # -- packet handlers ----------------------------------------------------

    def _handle(self, session: _Session, packet: Packet) -> bool:
        """Returns False when the session must close."""
        if isinstance(packet, Subscribe):
            return self._handle_subscribe(session, packet)
        if isinstance(packet, Publish):
            return self._handle_publish(session, packet)
        return isinstance(packet, PubAck)  # acknowledgements are not tracked

    def _handle_subscribe(self, session: _Session, sub: Subscribe) -> bool:
        """Returns False when the session was redirected, or a send to it
        failed, and must close."""
        reasons, accepted = validate_filters(sub.filters)
        # Routed publishes wait until the SUBACK and the replay are out;
        # the send lock is taken first, never while holding self._lock.
        with session.conn.send_lock:
            with self._lock:
                for filt in accepted:
                    session.filters.add(filt)
                    self._subscribers.setdefault(filt, set()).add(session)
                replay = set().union(*(matched_topics(f, self._messages)
                                       for f in accepted))
                snapshot = [(t, *self._messages[t]) for t in sorted(replay)]
                notice = next((self._relocations[f] for f in accepted
                               if f in self._relocations), None)
            # a failed send drops the rest of the replay
            sent = _send(session, SubAck(sub.packet_id, reasons)) and all(
                _send(session, session.message(*message, retain=True))
                for message in snapshot)
        if notice is not None:
            _send(session, notice)
            return False
        return sent

    def _handle_publish(self, session: _Session, pub: Publish) -> bool:
        with self._lock:
            notice = self._relocations.get(pub.topic)
            if notice is None:
                if pub.topic not in self._messages:
                    self._table_changes += 1
                self._messages[pub.topic] = (pub.payload, pub.qos)
                receivers = self._receivers(pub.topic)
                receivers.discard(session)
        if notice is not None:
            _send(session, notice)
            return False
        for receiver in receivers:  # the fan-out goes before the PUBACK
            _send(receiver, receiver.message(pub.topic, pub.payload, pub.qos,
                                             retain=False))
        if pub.qos == 1:
            return _send(session, PubAck(pub.packet_id, Reason.SUCCESS))
        return True

    # -- relocation ---------------------------------------------------------

    def relocate_topic(self, topic: str, target: BrokerRef | None) -> None:
        """Mark a topic as moved and disconnect everyone touching it.

        Subscribers whose filters cover the topic (wildcards included) are
        told where it went; the topic leaves the local message table so it
        no longer appears in topic enumerations.  The broker keeps the
        notices of its last _RELOCATIONS_CAP relocated topics; a topic
        whose notice was dropped is accepted again.  A topic relocated to
        this broker's own address is hosted here again: its notice goes,
        no new one is kept, and its subscribers stay.
        """
        notice = redirect(target)
        with self._lock:  # newest last, oldest dropped
            self._relocations.pop(topic, None)
            if target == self.address:
                return
            self._relocations[topic] = notice
            if len(self._relocations) > _RELOCATIONS_CAP:
                del self._relocations[next(iter(self._relocations))]
            if self._messages.pop(topic, None) is not None:
                self._table_changes += 1
            affected = self._receivers(topic)
        logger.info("topic %r relocated to %s; notifying %d subscriber(s)",
                    topic, target or "unknown", len(affected))
        for session in affected:
            _send(session, notice)
            session.conn.close()

    # -- admin channel ------------------------------------------------------

    def _serve_admin(self, sock: socket.socket) -> None:
        """Line protocol: RELOCATE <topic> [host:port], answered OK / ERR;
        a line longer than _ADMIN_LINE_CAP, or not UTF-8, gets ERR and a
        hang-up."""
        try:
            with sock.makefile("rwb") as f:
                while line := f.readline(_ADMIN_LINE_CAP):
                    whole = line.endswith(b"\n") or len(line) < _ADMIN_LINE_CAP
                    try:
                        reply = self._admin_command(line.decode().strip()) \
                            if whole else "ERR command too long"
                    except UnicodeDecodeError:
                        reply, whole = "ERR command is not UTF-8", False
                    f.write(reply.encode() + b"\n")
                    f.flush()
                    if not whole:
                        break
        except OSError:
            pass

    def _admin_command(self, line: str) -> str:
        parts = line.split()
        if not parts:
            return "ERR empty command"
        if parts[0].upper() != "RELOCATE" or len(parts) not in (2, 3):
            return f"ERR unknown command {parts[0]!r}"
        try:  # MalformedFilter is a ValueError too
            topic = validate_topic(parts[1])
            target = BrokerRef.parse(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            return f"ERR {exc}"
        self.relocate_topic(topic, target)
        return "OK"


def _send(session: _Session, packet: Packet) -> bool:
    """Send with the deadline stream.SEND_TIMEOUT; False when the packet
    did not go out.  A missed deadline is logged as a slow consumer: a
    send that ran out of time writing closed the connection, one that
    ran out waiting for another send to the same session left the close
    to that send.  The session's own thread unregisters it, as after any
    broken send."""
    try:
        session.conn.send(packet, timeout=stream.SEND_TIMEOUT)
        return True
    except SendTimedOut as exc:
        logger.warning("slow consumer %r: %s", session.client_id, exc)
    except ConnectionClosed:
        pass
    return False
