"""Client side: subscribe by topic alone, never by broker address.

A subscriber session knows only the master's address.  It asks the
master, follows the redirect to whichever edge broker hosts the topic,
and keeps the subscription alive from there on: broker silence is probed
with pings, redirects are followed directly unless one names a broker
that moved the session away since its last message, and anything
unrecoverable goes back to the master for a fresh answer.  The owner
just receives messages on a callback.
"""

from __future__ import annotations

import enum
import itertools
import logging
import os
import queue
import threading
import time
from typing import Callable, TypeVar

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
    PingReq,
    PingResp,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    validate_filter,
    validate_topic,
)
from .stream import PEER_FAILURES, PacketConnection, dial, exchange

logger = logging.getLogger(__name__)

_T = TypeVar("_T")
_session_ids = itertools.count(1)
# the one idle pump thread of this process, with its job queue
_idle_pump: tuple[threading.Thread, queue.SimpleQueue] | None = None
_idle_lock = threading.Lock()

BACKOFF_FIRST = 0.5
BACKOFF_CAP = 8.0
QUICK_BOUNCE_S = 1.0  # attachments shorter than this look like a stale redirect
RESOLVE_ROUNDS = 3     # master answers tried before a dead target is final
# seconds a client waits for each answer by default; stream.SEND_TIMEOUT
# must stay below it, or a publisher behind a stuck subscriber gives up
# on a PUBACK that is on its way
TIMEOUT = 2.0
KEEPALIVE = 10.0  # seconds of a quiet line before a subscriber pings it


def _fresh_id(kind: str) -> str:
    """A default client id, unique across processes on one host."""
    return f"{kind}-{os.getpid()}-{next(_session_ids)}"


class SessionState(enum.Enum):
    RESOLVING = "resolving"
    SUBSCRIBED = "subscribed"
    RECONNECTING = "reconnecting"
    CLOSED = "closed"


class SubscriberSession:
    """One transparent subscription.  Create via transparent_subscribe().

    `events()` is the session's audit trail: (kind, detail) tuples in
    order, where kind is one of resolve / redirect / attach / moved /
    lost / message / closed.  A message event marks an attachment's
    first delivery only, so the trail grows with attachments, not with
    traffic.  Every broker address the session ever dials shows up in a
    redirect or moved event first; nothing else tells it where brokers
    live.  `timeline()` is the same trail with the time.monotonic() of
    each event in front: (t, kind, detail).
    """

    def __init__(self, master: BrokerRef, topic_filter: str,
                 on_message: Callable[[Publish], None], *,
                 keepalive: float = KEEPALIVE, timeout: float = TIMEOUT):
        self.master = master
        self.topic_filter = topic_filter
        self.on_message = on_message
        self.client_id = _fresh_id("sub")
        self.keepalive = keepalive
        self.timeout = timeout
        self.state = SessionState.RESOLVING
        self.error: Exception | None = None
        self.broker: BrokerRef | None = None
        self._history: list[tuple[float, str, str]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conn: PacketConnection | None = None
        self._thread: threading.Thread | None = None
        self._ended = threading.Event()  # _run returned, its pump moved on
        self._attached_at = 0.0
        self._backoff = BACKOFF_FIRST
        self._left: set[BrokerRef] = set()  # moved off since the last message

    # -- public surface ------------------------------------------------------

    def events(self) -> list[tuple[str, str]]:
        with self._lock:
            return [(kind, detail) for _, kind, detail in self._history]

    def timeline(self) -> list[tuple[float, str, str]]:
        with self._lock:
            return list(self._history)

    def open(self) -> "SubscriberSession":
        """Resolve, attach, and start the session's pump.

        Blocks until the first attachment succeeds, so resolution
        problems (NoSuchTopic, MasterUnreachable, BrokerUnreachable)
        surface here; afterwards the session heals itself in the
        background.
        """
        validate_filter(self.topic_filter)
        conn = _until_reachable(self._resolve, self._attach)
        self._start_thread(conn)
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the session's run ends; True once it has."""
        return self._thread is None or self._ended.wait(timeout)

    def close(self) -> None:
        self._stop.set()
        with self._lock:
            conn = self._conn
        if conn is not None:
            conn.close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._ended.wait(timeout=5)
        self.state = SessionState.CLOSED

    # -- bookkeeping -----------------------------------------------------------

    def _note(self, kind: str, detail: str = "") -> None:
        with self._lock:
            self._history.append((time.monotonic(), kind, detail))

    def _set_conn(self, conn: PacketConnection | None) -> None:
        with self._lock:
            self._conn = conn

    # -- master conversation ---------------------------------------------------

    def _resolve(self) -> BrokerRef:
        """Ask the master which broker hosts the filter."""
        self._note("resolve", str(self.master))
        ref = _ask_master(self.master, f"{self.client_id}-resolve",
                          self.topic_filter, self.timeout)
        self._note("redirect", str(ref))
        return ref

    # -- edge broker conversation ------------------------------------------------

    def _attach(self, ref: BrokerRef) -> PacketConnection:
        """Connect and subscribe at the broker the master named."""
        conn = dial(ref, self.client_id, self.timeout, BrokerUnreachable,
                    keep_alive=int(self.keepalive),
                    requests=(Subscribe(1, (self.topic_filter,)),))
        try:
            suback = conn.recv(timeout=self.timeout)
            if not isinstance(suback, SubAck) \
                    or suback.reasons[0] != Reason.SUCCESS:
                raise BrokerUnreachable(f"{ref}: refused filter: {suback!r}")
        except PEER_FAILURES as exc:
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

    # -- the session thread ----------------------------------------------------

    def _run(self, conn: PacketConnection) -> None:
        while not self._stop.is_set():
            try:
                conn = self._reattach(self._pump(conn))
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
        conn.close()  # _pump closed it, unless close() came before the pump
        self.state = SessionState.CLOSED

    def _pump(self, conn: PacketConnection) -> BrokerRef | None:
        """Serve one attachment until it ends; returns the broker its
        closing DISCONNECT names, or None (no name, or the line was lost)."""
        self._set_conn(conn)
        delivered = False
        try:
            while not self._stop.is_set():
                try:
                    packet = conn.recv(timeout=self.keepalive)
                except TimeoutError:
                    # quiet line: probe it before declaring the broker dead
                    conn.send(PingReq(), timeout=self.timeout)
                    packet = conn.recv(timeout=self.timeout)
                if packet is None:
                    raise ConnectionClosed("EOF")
                if isinstance(packet, Publish):
                    if packet.qos == 1:
                        conn.send(PubAck(packet.packet_id),
                                  timeout=self.timeout)
                    if not delivered:
                        self._note("message", packet.topic)
                        self._left.clear()
                        delivered = True
                    self.on_message(packet)
                elif isinstance(packet, Disconnect):
                    # a target, or shutdown / unknown destination / odd reason
                    self._note("moved", str(packet.server_reference or ""))
                    self._left.add(self.broker)
                    return packet.server_reference
                # PingResp and stray acks just prove liveness
        except PEER_FAILURES as exc:
            if self._stop.is_set():
                raise ConnectionClosed("session closed") from exc
            self._note("lost", str(self.broker or ""))
            logger.info("broker %s unresponsive (%s); re-resolving",
                        self.broker, exc)
            return None
        finally:
            self._set_conn(None)
            conn.close()
        raise ConnectionClosed("session closed")

    def _reattach(self, target: BrokerRef | None) -> PacketConnection:
        """The next connection after an attachment ended: the named
        target, else the master's answer, asked for until one works or
        the topic is gone.  A target that moved this session away since
        its last message is not followed: a topic moved back would loop.
        An attachment that bounced straight back pauses first, so a
        lagging directory cannot turn into a reconnect storm.
        """
        self.state = SessionState.RECONNECTING
        if target in self._left:
            logger.info("moved back to %s with no message between; "
                        "asking the master", target)
        elif target is not None:
            try:
                return self._attach(target)
            except BrokerUnreachable as exc:
                logger.info("moved-to broker %s unreachable (%s); "
                            "asking the master", target, exc)
        self.broker = None
        pause = time.monotonic() - self._attached_at < QUICK_BOUNCE_S
        if not pause:
            self._backoff = BACKOFF_FIRST
        while not self._stop.wait(self._backoff if pause else 0):
            if pause:
                self._backoff = min(self._backoff * 2, BACKOFF_CAP)
            try:
                return _until_reachable(self._resolve, self._attach)
            except (MasterUnreachable, BrokerUnreachable) as exc:
                logger.info("recovery attempt failed (%s); retrying in %.1fs",
                            exc, self._backoff)
            pause = True
        raise ConnectionClosed("session closed")

    def _start_thread(self, conn: PacketConnection) -> None:
        """Run the session on the idle pump, or on a new one."""
        global _idle_pump
        with _idle_lock:
            idle, _idle_pump = _idle_pump, None
        if idle is not None:
            self._thread, jobs = idle
            jobs.put((self, conn))
            return
        self._thread = threading.Thread(target=_pump_sessions,
                                        args=(self, conn), daemon=True)
        self._thread.start()


def _pump_sessions(session: SubscriberSession, conn: PacketConnection) -> None:
    """A pump thread: run sessions until one ends while another pump
    is idle.  The session is marked ended only after this thread became
    the idle pump, so a sequential open() finds it."""
    global _idle_pump
    me, jobs = threading.current_thread(), queue.SimpleQueue()
    while True:
        me.name = f"subscriber-{session.client_id}"
        stay = False
        try:
            session._run(conn)
            with _idle_lock:
                stay = _idle_pump is None
                if stay:
                    _idle_pump = (me, jobs)
        finally:
            me.name = "subscriber-idle"
            session._ended.set()
        if not stay:
            return
        del session, conn  # an idle pump holds on to no session
        session, conn = jobs.get()


def transparent_subscribe(master: BrokerRef, topic_filter: str,
                          on_message: Callable[[Publish], None], *,
                          keepalive: float = KEEPALIVE,
                          timeout: float = TIMEOUT) -> SubscriberSession:
    """Subscribe knowing only the master and the topic filter; blocks
    as SubscriberSession.open() does."""
    return SubscriberSession(master, topic_filter, on_message,
                             keepalive=keepalive, timeout=timeout).open()


def publish(broker: BrokerRef, topic: str, payload: bytes, *, qos: int = 0,
            timeout: float = TIMEOUT) -> None:
    """One-shot publish straight to a broker.

    Raises Redirected when the broker reports the topic has moved, and
    BrokerUnreachable when it cannot be reached at all or fails mid-way.
    A QoS 0 PUBLISH gets no answer of its own, so a PINGREQ follows it:
    the edge broker handles one connection's packets in order, so a
    redirect arrives before the PINGRESP.  The whole conversation is one
    stream.exchange, with the PUBLISH sent alongside the CONNECT: an
    accepted publish ends with a DISCONNECT.
    """
    validate_topic(topic)
    if qos not in (0, 1):
        raise ValueError(f"qos must be 0 or 1, got {qos}")
    request = Publish(topic, payload, qos=qos, packet_id=1 if qos else None)
    requests = (request,) if qos else (request, PingReq())
    with exchange(broker, _fresh_id("pub"), timeout, BrokerUnreachable,
                  requests=requests) as conn:
        reply = conn.recv(timeout=timeout)
        if isinstance(reply, Disconnect):
            raise Redirected(reply.server_reference)
        if not isinstance(reply, PubAck if qos else PingResp):
            raise BrokerUnreachable(f"{broker}: unexpected reply {reply!r}")


def transparent_publish(master: BrokerRef, topic: str, payload: bytes, *,
                        qos: int = 0, timeout: float = TIMEOUT) -> BrokerRef:
    """Publish knowing only the master: ask it, then publish where it says.

    The master is asked for the topic alone, with the SUBSCRIBE a
    subscriber sends; the payload goes only to the broker.  A broker
    that sends the topic away to a named broker is followed there once
    before the master is asked again, as a subscriber follows a move.
    Returns the broker that accepted the message.  NoSuchTopic when the
    master knows no home for the topic.
    """
    validate_topic(topic)
    client_id = _fresh_id("pub")

    def publish_at(target: BrokerRef) -> BrokerRef:
        try:
            publish(target, topic, payload, qos=qos, timeout=timeout)
        except Redirected as exc:
            if exc.reference is None:
                raise
            target = exc.reference
            publish(target, topic, payload, qos=qos, timeout=timeout)
        return target

    return _until_reachable(
        lambda: _ask_master(master, client_id, topic, timeout), publish_at)


def _until_reachable(ask: Callable[[], BrokerRef],
                     use: Callable[[BrokerRef], _T]) -> _T:
    """use(ask()), asking again while the named broker is unreachable or
    redirects the topic, up to RESOLVE_ROUNDS answers.  Each ask repeats
    one question under one client id: that is how the master learns an
    answer was stale and re-censuses that broker before answering."""
    for round_ in range(1, RESOLVE_ROUNDS + 1):
        ref = ask()
        try:
            return use(ref)
        except (BrokerUnreachable, Redirected) as exc:
            if round_ == RESOLVE_ROUNDS:
                raise
            logger.debug("redirect target %s stale: %s", ref, exc)


def _ask_master(master: BrokerRef, client_id: str, topic_filter: str,
                timeout: float) -> BrokerRef:
    """Send the master one SUBSCRIBE for the filter; return the broker
    its closing DISCONNECT names.

    Raises NoSuchTopic when that DISCONNECT names no broker, and
    MasterUnreachable when the master cannot be asked or answers with
    anything but at most one SUBACK and then the DISCONNECT.  The ask is
    one stream.exchange, with the SUBSCRIBE sent alongside the CONNECT:
    our DISCONNECT follows the verdict.
    """
    with exchange(master, client_id, timeout, MasterUnreachable,
                  requests=(Subscribe(1, (topic_filter,)),)) as conn:
        reply = conn.recv(timeout=timeout)
        if isinstance(reply, SubAck):
            reply = conn.recv(timeout=timeout)  # the verdict comes next
        if not isinstance(reply, Disconnect):
            raise MasterUnreachable(f"{master}: expected a redirect, got {reply!r}")
    if reply.server_reference is None:
        raise NoSuchTopic(topic_filter)
    return reply.server_reference
