"""Client side: subscribe by topic alone, never by broker address.

A subscriber session knows only the master's address.  It asks the
master, follows the redirect to whichever edge broker hosts the topic,
and keeps the subscription alive from there on: broker silence is probed
with pings, redirects are followed directly, and anything unrecoverable
goes back to the master for a fresh answer.  The owner just receives
messages on a callback.
"""

from __future__ import annotations

import enum
import itertools
import logging
import threading
import time
from typing import Callable

from .errors import (
    BrokerUnreachable,
    ConnectionClosed,
    MasterUnreachable,
    NoSuchTopic,
    Redirected,
)
from .packets import (
    BrokerRef,
    Disconnect,
    MalformedPacket,
    Packet,
    PingReq,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    validate_filter,
    validate_topic,
)
from .stream import PacketConnection, dial

logger = logging.getLogger(__name__)

_session_ids = itertools.count(1)

BACKOFF_FIRST = 0.5
BACKOFF_CAP = 8.0
QUICK_BOUNCE_S = 1.0  # attachments shorter than this look like a stale redirect
RESOLVE_ROUNDS = 3     # master answers tried before a dead target is final
BOUNCE_GRACE_S = 0.15  # QoS 0 publish: silence this long means delivered


class SessionState(enum.Enum):
    RESOLVING = "resolving"
    SUBSCRIBED = "subscribed"
    RECONNECTING = "reconnecting"
    CLOSED = "closed"


class SubscriberSession:
    """One transparent subscription.  Create via transparent_subscribe().

    `events()` is the session's audit trail: (kind, detail) tuples in
    order, where kind is one of resolve / redirect / attach / moved /
    lost / message / closed.  Every broker address the session ever
    dials shows up in a redirect or moved event first; nothing else
    tells it where brokers live.
    """

    def __init__(self, master: BrokerRef, topic_filter: str,
                 on_message: Callable[[Publish], None], *,
                 client_id: str = "", keepalive: float = 10.0,
                 timeout: float = 2.0):
        self.master = master
        self.topic_filter = topic_filter
        self.on_message = on_message
        self.client_id = client_id or f"sub-{next(_session_ids)}"
        self.keepalive = keepalive
        self.timeout = timeout
        self.state = SessionState.RESOLVING
        self.error: Exception | None = None
        self.broker: BrokerRef | None = None
        self._history: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conn: PacketConnection | None = None
        self._thread: threading.Thread | None = None
        self._attached_at = 0.0
        self._backoff = BACKOFF_FIRST

    # -- public surface ------------------------------------------------------

    def events(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._history)

    def open(self) -> "SubscriberSession":
        """Resolve, attach, and start the pump thread.

        Blocks until the first attachment succeeds, so resolution
        problems (NoSuchTopic, MasterUnreachable, BrokerUnreachable)
        surface here; afterwards the session heals itself in the
        background.
        """
        validate_filter(self.topic_filter)
        conn = self._resolve_and_attach()
        self._start_thread(conn)
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the session thread ends; True once it has."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self) -> None:
        self._stop.set()
        with self._lock:
            conn = self._conn
        if conn is not None:
            conn.close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
        self.state = SessionState.CLOSED

    # -- bookkeeping -----------------------------------------------------------

    def _note(self, kind: str, detail: str = "") -> None:
        with self._lock:
            self._history.append((kind, detail))

    def _set_conn(self, conn: PacketConnection | None) -> None:
        with self._lock:
            self._conn = conn

    # -- master conversation ---------------------------------------------------

    def _resolve(self) -> BrokerRef:
        """Ask the master which broker hosts the filter."""
        self._note("resolve", str(self.master))
        ref = _ask_master(self.master, f"{self.client_id}-resolve",
                          Subscribe(1, (self.topic_filter,)),
                          self.topic_filter, self.timeout)
        self._note("redirect", str(ref))
        return ref

    # -- edge broker conversation ------------------------------------------------

    def _attach(self, ref: BrokerRef) -> PacketConnection:
        """Connect and subscribe at the broker the master named."""
        conn = dial(ref, self.client_id, self.timeout, BrokerUnreachable,
                    keep_alive=int(self.keepalive))
        try:
            conn.send(Subscribe(1, (self.topic_filter,)))
            suback = conn.recv(timeout=self.timeout)
            if not isinstance(suback, SubAck) \
                    or suback.reasons[0] != Reason.SUCCESS:
                raise BrokerUnreachable(f"{ref}: refused filter: {suback!r}")
        except (ConnectionClosed, MalformedPacket, TimeoutError) as exc:
            conn.close()
            raise BrokerUnreachable(f"{ref}: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        self.broker = ref
        self.state = SessionState.SUBSCRIBED
        self._attached_at = time.monotonic()
        self._note("attach", str(ref))
        return conn

    def _resolve_and_attach(self) -> PacketConnection:
        """Master, then broker; a broker that vanished in between is
        retried against a fresh answer."""
        for _ in range(RESOLVE_ROUNDS - 1):
            ref = self._resolve()
            try:
                return self._attach(ref)
            except BrokerUnreachable as exc:
                logger.debug("redirect target gone: %s", exc)
        return self._attach(self._resolve())

    # -- the session thread ----------------------------------------------------

    def _run(self, conn: PacketConnection) -> None:
        while not self._stop.is_set():
            try:
                conn = self._pump(conn)
            except NoSuchTopic as exc:
                self.error = exc
                self._note("closed", "topic gone")
                break
            except Exception as exc:  # pragma: no cover - safety net
                if self._stop.is_set():
                    break
                logger.exception("subscriber session died")
                self.error = exc
                break
        self._set_conn(None)
        self.state = SessionState.CLOSED

    def _pump(self, conn: PacketConnection) -> PacketConnection:
        """Serve one attachment; returns the next connection to serve."""
        self._set_conn(conn)
        try:
            while not self._stop.is_set():
                try:
                    packet = conn.recv(timeout=self.keepalive)
                except TimeoutError:
                    # quiet line: probe it before declaring the broker dead
                    conn.send(PingReq())
                    packet = conn.recv(timeout=self.timeout)
                if packet is None:
                    raise ConnectionClosed("EOF")
                if isinstance(packet, Publish):
                    if packet.qos == 1:
                        conn.send(PubAck(packet.packet_id))
                    self._note("message", packet.topic)
                    self.on_message(packet)
                elif isinstance(packet, Disconnect):
                    return self._follow(packet)
                # PingResp and stray acks just prove liveness
        except (ConnectionClosed, MalformedPacket, TimeoutError, OSError) as exc:
            if self._stop.is_set():
                raise ConnectionClosed("session closed") from exc
            self._note("lost", str(self.broker or ""))
            logger.info("broker %s unresponsive (%s); re-resolving",
                        self.broker, exc)
            return self._recover()
        finally:
            self._set_conn(None)
            conn.close()
        raise ConnectionClosed("session closed")

    def _follow(self, packet: Disconnect) -> PacketConnection:
        """Next connection after the broker disconnected us on purpose."""
        target = packet.server_reference
        if target is not None:
            self._note("moved", str(target))
            self.state = SessionState.RECONNECTING
            try:
                return self._attach(target)
            except BrokerUnreachable as exc:
                logger.info("moved-to broker %s unreachable (%s); "
                            "asking the master", target, exc)
                return self._recover()
        # unknown destination, broker shutdown, or an odd reason code:
        # only the master can say where to go now
        self._note("moved", "")
        return self._recover()

    def _recover(self) -> PacketConnection:
        """Re-resolve via the master until it works or the topic is gone.

        An attachment that bounced straight back means the master's
        answer was stale; sleeping before asking again keeps a
        lagging directory from turning into a reconnect storm.
        """
        self.state = SessionState.RECONNECTING
        self.broker = None
        if time.monotonic() - self._attached_at < QUICK_BOUNCE_S:
            if self._stop.wait(self._backoff):
                raise ConnectionClosed("session closed")
            self._backoff = min(self._backoff * 2, BACKOFF_CAP)
        else:
            self._backoff = BACKOFF_FIRST
        while True:
            if self._stop.is_set():
                raise ConnectionClosed("session closed")
            try:
                return self._resolve_and_attach()
            except NoSuchTopic:
                raise
            except (MasterUnreachable, BrokerUnreachable) as exc:
                logger.info("recovery attempt failed (%s); retrying in %.1fs",
                            exc, self._backoff)
            if self._stop.wait(self._backoff):
                raise ConnectionClosed("session closed")
            self._backoff = min(self._backoff * 2, BACKOFF_CAP)

    def _start_thread(self, conn: PacketConnection) -> None:
        self._thread = threading.Thread(
            target=self._run, args=(conn,),
            name=f"subscriber-{self.client_id}", daemon=True)
        self._thread.start()


def transparent_subscribe(master: BrokerRef, topic_filter: str,
                          on_message: Callable[[Publish], None], *,
                          client_id: str = "", keepalive: float = 10.0,
                          timeout: float = 2.0) -> SubscriberSession:
    """Subscribe knowing only the master and the topic filter.

    Blocks until the first attachment succeeds, so resolution problems
    (NoSuchTopic, MasterUnreachable, BrokerUnreachable) surface here;
    afterwards the session heals itself in the background.
    """
    return SubscriberSession(master, topic_filter, on_message,
                             client_id=client_id, keepalive=keepalive,
                             timeout=timeout).open()


def publish(broker: BrokerRef, topic: str, payload: bytes, *, qos: int = 0,
            client_id: str = "", timeout: float = 2.0) -> None:
    """One-shot publish straight to a broker.

    Raises Redirected when the broker reports the topic has moved, and
    BrokerUnreachable when it cannot be reached at all.  For QoS 0 the
    broker stays silent on success, so a short grace wait distinguishes
    silence from a bounce.
    """
    validate_topic(topic)
    if qos not in (0, 1):
        raise ValueError(f"qos must be 0 or 1, got {qos}")
    conn = dial(broker, client_id or f"pub-{next(_session_ids)}", timeout,
                BrokerUnreachable)
    try:
        conn.send(Publish(topic, payload, qos=qos,
                          packet_id=1 if qos else None))
        wait = timeout if qos else BOUNCE_GRACE_S
        try:
            reply = conn.recv(timeout=wait)
        except TimeoutError:
            if qos:
                raise BrokerUnreachable(f"{broker}: no PUBACK") from None
            reply = None  # silence means delivered
        if isinstance(reply, Disconnect):
            raise Redirected(reply.server_reference)
        if qos and not isinstance(reply, PubAck):
            raise BrokerUnreachable(f"{broker}: expected PUBACK, got {reply!r}")
        try:
            conn.send(Disconnect(Reason.NORMAL))
        except ConnectionClosed:
            pass
    except (ConnectionClosed, MalformedPacket) as exc:
        raise BrokerUnreachable(f"{broker}: {exc}") from exc
    finally:
        conn.close()


def transparent_publish(master: BrokerRef, topic: str, payload: bytes, *,
                        qos: int = 0, timeout: float = 2.0) -> BrokerRef:
    """Publish knowing only the master: ask it, then publish where it says.

    Returns the broker that accepted the message.  NoSuchTopic when the
    master knows no home for the topic.
    """
    validate_topic(topic)
    target = _ask_master(master, f"pub-{next(_session_ids)}",
                         Publish(topic, payload, qos=0), topic, timeout)
    publish(target, topic, payload, qos=qos, timeout=timeout)
    return target


def _ask_master(master: BrokerRef, client_id: str, request: Packet,
                topic: str, timeout: float) -> BrokerRef:
    """Send the master one SUBSCRIBE or PUBLISH; return the broker its
    closing DISCONNECT names.

    Raises NoSuchTopic when that DISCONNECT names no broker, and
    MasterUnreachable when the master cannot be asked or answers with
    anything but at most one SUBACK and then the DISCONNECT.
    """
    conn = dial(master, client_id, timeout, MasterUnreachable)
    try:
        conn.send(request)
        reply = conn.recv(timeout=timeout)
        if isinstance(reply, SubAck):
            reply = conn.recv(timeout=timeout)  # the verdict comes next
        if not isinstance(reply, Disconnect):
            raise MasterUnreachable(f"{master}: expected a redirect, got {reply!r}")
        if reply.server_reference is None:
            raise NoSuchTopic(topic)
        return reply.server_reference
    except (ConnectionClosed, MalformedPacket, TimeoutError) as exc:
        raise MasterUnreachable(f"{master}: {exc}") from exc
    finally:
        conn.close()
