"""Raw-protocol helpers for exercising brokers from tests."""

import contextlib
import socket
import threading
import time

from tdmqtt.errors import ConnectionClosed
from tdmqtt.packets import (
    BrokerRef,
    ConnAck,
    Connect,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
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
    connection closes when the script returns or fails.  `connects`
    lists the CONNECT packets received, in order.
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
        self.connects = []
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
            connect = conn.recv(timeout=5)
            if not isinstance(connect, Connect):
                return
            self.connects.append(connect)
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


@contextlib.contextmanager
def hung_listener(ref: BrokerRef):
    """A listener at ref whose connections the kernel accepts and nobody
    ever answers."""
    with socket.socket() as hung:
        hung.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        hung.bind((ref.host, ref.port))
        hung.listen(8)
        yield


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


# --- random packets of every kind, for codec tests -------------------------

_WORDS = ("sensors", "room", "a", "devices", "x7", "µ-unit", "temp", "42")


def _rand_topic(rng):
    return "/".join(rng.choice(_WORDS)
                    for _ in range(rng.randint(1, 4)))


def _rand_filter(rng):
    topic = _rand_topic(rng)
    return topic + "/#" if rng.random() < 0.3 else topic


def random_packet(rng):
    """A valid packet of one of the nine kinds, drawn from `rng`."""
    kind = rng.randrange(9)
    if kind == 0:
        return Connect("".join(rng.choice("abc-0") for _ in range(rng.randint(0, 12))),
                       keep_alive=rng.randrange(0x10000))
    if kind == 1:
        return ConnAck(reason=rng.randrange(256))
    if kind == 2:
        return Subscribe(rng.randint(1, 0xFFFF),
                         tuple(_rand_filter(rng)
                               for _ in range(rng.randint(1, 4))))
    if kind == 3:
        return SubAck(rng.randint(1, 0xFFFF),
                      tuple(rng.choice((0x00, 0x8F, 0x97))
                            for _ in range(rng.randint(1, 4))))
    if kind == 4:
        qos = rng.randint(0, 1)
        return Publish(_rand_topic(rng),
                       rng.randbytes(rng.randrange(64)),
                       qos=qos,
                       packet_id=rng.randint(1, 0xFFFF) if qos else None,
                       retain=rng.random() < 0.5)
    if kind == 5:
        return PubAck(rng.randint(1, 0xFFFF), reason=rng.randrange(256))
    if kind == 6:
        return PingReq()
    if kind == 7:
        return PingResp()
    reason = rng.choice((Reason.NORMAL, Reason.TOPIC_FILTER_NOT_ACCEPTED,
                         Reason.USE_ANOTHER_SERVER, Reason.SERVER_MOVED))
    ref = None
    if reason in (Reason.USE_ANOTHER_SERVER, Reason.SERVER_MOVED) \
            and rng.random() < 0.8:
        ref = BrokerRef(rng.choice(("b1", "10.0.0.9", "edge.example")),
                        rng.randint(1, 0xFFFF))
    return Disconnect(reason=reason, server_reference=ref)
