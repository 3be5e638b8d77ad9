"""Raw-protocol helpers for exercising brokers from tests."""

import socket
import threading
import time

from tdmqtt.errors import ConnectionClosed
from tdmqtt.packets import (
    BrokerRef,
    ConnAck,
    Connect,
    Publish,
    Reason,
    Subscribe,
    SubAck,
    encode,
)
from tdmqtt.stream import PacketConnection, open_connection

RECV_TIMEOUT = 2.0
opened: list[PacketConnection] = []  # by connect(); conftest closes them


def connect(ref: BrokerRef, client_id: str = "", keep_alive: int = 0,
            timeout: float = RECV_TIMEOUT) -> PacketConnection:
    """A connection past its CONNACK, closed when the test ends if the
    test did not close it."""
    conn = open_connection(ref.host, ref.port, timeout)
    opened.append(conn)
    conn.send(Connect(client_id, keep_alive=keep_alive))
    ack = conn.recv(timeout=timeout)
    assert isinstance(ack, ConnAck) and ack.reason == 0, ack
    return conn


def subscribe(conn: PacketConnection, *filters: str, pid: int = 1) -> SubAck:
    conn.send(Subscribe(pid, filters))
    ack = conn.recv(timeout=RECV_TIMEOUT)
    assert isinstance(ack, SubAck), ack
    return ack


def drain(conn: PacketConnection, timeout: float = 0.3) -> list:
    """Collect packets until the peer goes quiet or hangs up."""
    got = []
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return got
        try:
            packet = conn.recv(timeout=left)
        except (TimeoutError, ConnectionClosed):
            return got
        if packet is None:
            return got
        got.append(packet)


def count_calls(monkeypatch, module, name: str, before=None) -> list:
    """Wrap module.name so each call appends its positional arguments to
    the returned list; `before(*args)`, if given, runs ahead of the call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        if before is not None:
            before(*args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in %.1fs" % timeout)


class ScriptedBroker:
    """Answers every CONNECT with `connack`, then runs `script(conn)` on
    that connection.

    With `late_connack`, the CONNACK goes out only once the packet after
    the CONNECT has arrived too, as from a peer that reads what a client
    sent ahead of the CONNACK before it answers; the script then reads
    that packet first.  Each connection gets its own thread; the
    connection closes when the script returns or fails.
    """

    def __init__(self, script, host: str = "127.0.0.1", port: int = 0,
                 connack: ConnAck = ConnAck(Reason.SUCCESS),
                 late_connack: bool = False):
        self._script = script
        self._connack = connack
        self._late_connack = late_connack
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self._conns = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> BrokerRef:
        host, port = self._listener.getsockname()[:2]
        return BrokerRef(host, port)

    def stop(self):
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for conn in self._conns:
            conn.close()

    def _serve(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(sock,),
                             daemon=True).start()

    def _handle(self, sock):
        conn = PacketConnection(sock)
        self._conns.append(conn)
        try:
            if not isinstance(conn.recv(timeout=5), Connect):
                return
            if self._late_connack:
                request = conn.recv(timeout=5)
                if request is None:
                    return
                conn._buf[:0] = encode(request)  # read again by the script
            conn.send(self._connack)
            self._script(conn)
        except Exception:
            pass
        finally:
            conn.close()


class SilentBroker(ScriptedBroker):
    """Completes handshakes, then never speaks again.

    Models a hung broker: the TCP connection stays open, pings go
    unanswered.  Census requests get a topic list so a master will
    happily register it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 topics: tuple[str, ...] = ()):
        self._topics = topics
        super().__init__(self._silence, host, port)

    def _silence(self, conn):
        packet = conn.recv(timeout=5)
        if isinstance(packet, Subscribe):
            conn.send(SubAck(packet.packet_id,
                             (Reason.SUCCESS,) * len(packet.filters)))
            for topic in self._topics:
                conn.send(Publish(topic, b"", retain=True))
        while conn.recv() is not None:
            pass


def admin_command(address: tuple[str, int], line: str) -> str:
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(256)
            if not chunk:
                break
            reply += chunk
    return reply.decode().strip()
