"""Connection lifecycle shared by every network role.

Packet framing over a blocking socket (`PacketConnection`), the server
core both brokers run on (`Server`, which caps its connections and
serves them on worker threads that accept for themselves, plus
`serve_mqtt`), and the client side of the CONNECT/CONNACK handshake
(`dial`, which can send the first requests with the CONNECT and keeps
the CONNACK it read).  `exchange` runs a one-shot client conversation;
`PEER_FAILURES` lists the ways a peer fails one.
"""

from __future__ import annotations

import contextlib
import logging
import select
import socket
import threading
import time
from typing import Any, Callable, Iterator

from .errors import ConnectionClosed, SendTimedOut
from .packets import (
    BrokerRef,
    ConnAck,
    Connect,
    Disconnect,
    IncompletePacket,
    MalformedPacket,
    Packet,
    PacketTooLarge,
    PingReq,
    PingResp,
    Reason,
    decode,
    encode,
)

logger = logging.getLogger(__name__)

_CHUNK = 4096
HANDSHAKE_TIMEOUT = 10.0
# Seconds a server gives one send to a peer; a peer that takes longer
# is disconnected, so it costs the others at most this once.  It must
# stay below the clients' default timeout (client.TIMEOUT): the broker
# acknowledges a QoS 1 publish after its fan-out, so a publisher waits
# for its PUBACK up to this long behind one stuck subscriber.
SEND_TIMEOUT = 1.0
MAX_PACKET_SIZE = 1 << 20  # bytes; a larger declared packet ends the connection
# the CONNACK of a server that has nothing else to say in it
ACCEPTED = ConnAck(Reason.SUCCESS, max_packet_size=MAX_PACKET_SIZE)
_ACCEPT_PAUSE = 0.1  # seconds; after a failed accept() (EMFILE, say)
_MAX_CONNECTIONS = 1024  # per Server; one more is closed at accept
# how a peer fails a conversation (TimeoutError is an OSError)
PEER_FAILURES = (ConnectionClosed, MalformedPacket, OSError)


class PacketConnection:
    """One MQTT conversation over a TCP socket in blocking mode.

    recv() returns whole packets; send() writes its packets in one
    write and is safe to call from multiple threads, and a thread
    holding `send_lock` keeps others' packets out until it lets go.  A
    clean EOF on a packet boundary reads as None, an EOF in the middle
    of a packet raises ConnectionClosed.  A timeout is per call: it is
    waited out with poll(), never set on the socket, so a send never
    inherits a recv's deadline.
    """

    connack: ConnAck | None = None  # the peer's CONNACK, once dial() read it

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buf = bytearray()
        self.send_lock = threading.RLock()
        # one poller per direction: a reader and a sender may wait at once
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._writable = select.poll()
        self._writable.register(sock, select.POLLOUT)
        try:
            self.peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self.peer = "?"

    def send(self, packet: Packet, *more: Packet,
             timeout: float | None = None) -> None:
        """Write the packets, blocking until they are out.

        `timeout` bounds the whole call, the wait for `send_lock`
        included.  A send that runs out of time waiting for the lock has
        written nothing: it raises SendTimedOut and leaves the connection
        to the thread holding the lock.  One that runs out while writing
        may have left a packet half written, so the connection closes
        itself and raises SendTimedOut, a ConnectionClosed like any
        broken send.
        """
        data = encode(packet)
        if more:
            data += b"".join(map(encode, more))
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self.send_lock.acquire(timeout=-1 if timeout is None else timeout):
            raise SendTimedOut(
                f"send to {self.peer} waited {timeout}s for another send")
        try:
            while True:
                try:
                    sent = self._sock.send(data, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    sent = 0
                except OSError as exc:
                    raise ConnectionClosed(
                        f"send to {self.peer} failed: {exc}") from exc
                if sent == len(data):
                    return
                data = memoryview(data)[sent:]
                if not _wait(self._writable, deadline):
                    self.close()
                    raise SendTimedOut(
                        f"send to {self.peer} missed its {timeout}s deadline")
        finally:
            self.send_lock.release()

    def recv(self, timeout: float | None = None) -> Packet | None:
        """Read one packet, or None on clean EOF.

        `timeout` bounds the whole wait; expiry raises TimeoutError with
        any partial bytes kept for the next call.  A packet whose fixed
        header declares more than MAX_PACKET_SIZE bytes raises
        PacketTooLarge before its body is buffered; a smaller one is
        asked for whole, so one that has arrived costs one more read.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            want = _CHUNK
            if self._buf:
                try:
                    packet, used = decode(self._buf)
                except IncompletePacket as exc:
                    if exc.needed is not None:
                        if len(self._buf) + exc.needed > MAX_PACKET_SIZE:
                            raise PacketTooLarge(
                                f"{self.peer} declared a packet of "
                                f"{len(self._buf) + exc.needed} bytes, over "
                                f"{MAX_PACKET_SIZE}") from None
                        want = max(_CHUNK, exc.needed)
                else:
                    del self._buf[:used]
                    return packet
            if deadline is not None and not _wait(self._readable, deadline):
                raise TimeoutError(f"no packet from {self.peer} in {timeout}s")
            try:
                chunk = self._sock.recv(
                    want, 0 if deadline is None else socket.MSG_DONTWAIT)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise ConnectionClosed(f"recv from {self.peer} failed: {exc}") from exc
            if not chunk:
                if self._buf:
                    raise ConnectionClosed(f"{self.peer} closed mid-packet")
                return None
            if not self._buf:  # decode in place; only a remainder is kept
                try:
                    packet, used = decode(chunk)
                except IncompletePacket:
                    pass
                else:
                    self._buf += chunk[used:]
                    return packet
            self._buf += chunk

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _wait(poller: select.poll, deadline: float | None) -> bool:
    """Wait for the poller's one socket until the monotonic deadline, or
    for as long as it takes without one; False when the deadline passed
    first."""
    if deadline is None:
        return bool(poller.poll())
    remaining = deadline - time.monotonic()
    return remaining > 0 and bool(poller.poll(remaining * 1000))


def open_connection(host: str, port: int, timeout: float) -> PacketConnection:
    """Dial a broker; raises OSError on refusal or timeout."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return PacketConnection(sock)


def dial(ref: BrokerRef, client_id: str, timeout: float,
         unreachable: type[Exception], keep_alive: int = 0,
         requests: tuple[Packet, ...] = ()) -> PacketConnection:
    """Connect to a broker or the master and complete CONNECT/CONNACK.

    `requests` go out in the same write as the CONNECT, so the peer's
    answer to them needs no extra round trip: MQTT 5 (3.1.4) lets a
    client send before the CONNACK, and no role here refuses a CONNECT.
    The returned connection keeps the CONNACK as `conn.connack`.  On
    refusal, timeout, a broken handshake or a refused CONNECT the
    connection is closed and `unreachable` is raised; any other error
    (a request that cannot be encoded) closes it too and passes.
    """
    conn = None
    try:
        conn = open_connection(ref.host, ref.port, timeout)
        conn.send(Connect(client_id, keep_alive=keep_alive), *requests,
                  timeout=timeout)
        ack = conn.recv(timeout=timeout)
    except BaseException as exc:
        if conn is not None:
            conn.close()
        if isinstance(exc, PEER_FAILURES):
            raise unreachable(f"{ref}: {exc}") from exc
        raise
    if not isinstance(ack, ConnAck) or ack.reason != Reason.SUCCESS:
        conn.close()
        raise unreachable(f"{ref}: rejected connect: {ack!r}")
    conn.connack = ack
    return conn


@contextlib.contextmanager
def exchange(ref: BrokerRef, client_id: str, timeout: float,
             unreachable: type[Exception],
             requests: tuple[Packet, ...] = ()) -> Iterator[PacketConnection]:
    """Dial, sending `requests` with the CONNECT, and yield the
    connection; a body that ends cleanly is followed by a DISCONNECT
    (lost on a peer that already left).  A peer failure, in the
    handshake or the body, is raised as `unreachable`; other exceptions
    pass.  The connection is closed either way."""
    conn = dial(ref, client_id, timeout, unreachable, requests=requests)
    try:
        yield conn
        with contextlib.suppress(ConnectionClosed):
            conn.send(Disconnect(Reason.NORMAL), timeout=timeout)
    except PEER_FAILURES as exc:
        raise unreachable(f"{ref}: {exc}") from exc
    finally:
        conn.close()


def serve_mqtt(sock: socket.socket,
               attach: Callable[[PacketConnection, Connect], Any],
               handle: Callable[[Any, Packet], bool],
               detach: Callable[[Any], None] | None = None,
               connack: Callable[[], ConnAck] = lambda: ACCEPTED) -> None:
    """Run one MQTT conversation on an accepted socket.

    Waits HANDSHAKE_TIMEOUT for the CONNECT, then calls
    `attach(conn, connect)` before answering with `connack()`; the
    result of `attach`, never None, is the session handed to `handle`
    and `detach`.  PINGREQ is answered here; every other packet goes to
    `handle(session, packet)`.  The conversation ends on DISCONNECT,
    EOF, a broken connection, or when `handle` returns False;
    `detach(session)` then runs if `attach` did.  A packet over
    MAX_PACKET_SIZE, which `connack()` should advertise as ACCEPTED
    does, is answered with reason 0x95 before the hang-up.  Every send
    here has SEND_TIMEOUT.
    """
    conn = PacketConnection(sock)
    session = None
    try:
        first = conn.recv(timeout=HANDSHAKE_TIMEOUT)
        if not isinstance(first, Connect):
            return
        session = attach(conn, first)
        conn.send(connack(), timeout=SEND_TIMEOUT)
        while True:
            packet = conn.recv()
            if packet is None or isinstance(packet, Disconnect):
                return
            if isinstance(packet, PingReq):
                conn.send(PingResp(), timeout=SEND_TIMEOUT)
            elif not handle(session, packet):
                logger.debug("closing %s after %s", conn.peer,
                             type(packet).__name__)
                return
    except PacketTooLarge as exc:
        logger.info("closing %s: %s", conn.peer, exc)
        # MQTT 5 sends no DISCONNECT before the CONNACK
        refusal = ConnAck if session is None else Disconnect
        with contextlib.suppress(ConnectionClosed):
            conn.send(refusal(Reason.PACKET_TOO_LARGE), timeout=SEND_TIMEOUT)
    except PEER_FAILURES as exc:
        logger.debug("connection %s ended: %s", conn.peer, exc)
    finally:
        if session is not None and detach is not None:
            detach(session)
        conn.close()


class Server:
    """Listening sockets whose workers accept and serve for themselves.

    Each listener has its own workers, each blocked in accept() on the
    listener (Linux wakes one per connection).  A worker that takes the
    last waiting slot starts one more before it serves, and a worker
    whose connection ended goes back to accept(), so no socket changes
    threads.  Every accepted socket is tracked from accept on, so stop()
    also ends connections that never finished a handshake or never speak
    MQTT.  At most _MAX_CONNECTIONS are open at once, over all
    listeners; a socket accepted beyond that is closed at once and
    logged.  A worker is started only while every other worker of its
    listener serves an open socket, so the cap bounds the workers too.
    """

    def __init__(self, host: str):
        self.host = host
        self.connection_count = 0  # lifetime accepted connections
        self._lock = threading.Lock()
        self._stopped = False
        self._listeners: list[socket.socket] = []
        self._socks: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._waiting: dict[socket.socket, int] = {}  # listener -> in accept()

    def listen(self, port: int,
               handler: Callable[[socket.socket], None]) -> int:
        """Bind and accept in the background; returns the bound port.

        `handler(sock)` runs on a worker thread, and the socket is
        closed after it returns.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, port))
        listener.listen(64)
        self._listeners.append(listener)
        with self._lock:
            self._waiting[listener] = 1
            self._start(self._work, listener, handler)
        return listener.getsockname()[1]

    def spawn(self, target: Callable[..., None], *args) -> None:
        """Run target on a daemon thread that stop() joins."""
        with self._lock:
            self._start(target, *args)

    def _start(self, target: Callable[..., None], *args) -> None:
        # caller holds _lock, so stop() never misses a thread
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        with self._lock:  # from here on no connection gets a worker
            self._stopped = True
            socks = list(self._socks)
            threads = list(self._threads)
        for sock in self._listeners + socks:
            try:
                # a bare close() leaves accept() and recv() blocked
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for listener in self._listeners:
            listener.close()
        for thread in threads:
            thread.join(timeout=2)

    def _work(self, listener: socket.socket,
              handler: Callable[[socket.socket], None]) -> None:
        """Accept and serve one socket at a time until stop().  The
        caller counted this worker as waiting."""
        while True:
            try:
                sock, _ = listener.accept()
            except OSError as exc:
                if self._stopped:
                    return  # listener shut down by stop()
                logger.warning("accept failed, retrying in %gs: %s",
                               _ACCEPT_PAUSE, exc)
                time.sleep(_ACCEPT_PAUSE)
                continue
            with self._lock:
                if self._stopped:
                    sock.close()
                    return
                full = len(self._socks) >= _MAX_CONNECTIONS
                if not full:
                    self._socks.add(sock)
                    self.connection_count += 1
                    self._waiting[listener] -= 1
                    if not self._waiting[listener]:
                        self._waiting[listener] = 1
                        self._start(self._work, listener, handler)
            if full:
                logger.warning("%d connections open; closing a new one",
                               _MAX_CONNECTIONS)
                sock.close()
                continue
            try:
                handler(sock)
            except Exception:  # a bug; the listener still needs this worker
                logger.exception("connection handler failed")
            finally:
                with self._lock:
                    self._socks.discard(sock)
                    self._waiting[listener] += 1
                sock.close()
