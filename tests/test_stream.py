"""PacketConnection framing over a real TCP loopback connection, a
server that runs out of file descriptors or reaches its connection cap,
and the server's reuse of its worker threads."""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import ScriptedBroker, connect, wait_until
from tdmqtt import stream
from tdmqtt.broker import EdgeBroker
from tdmqtt.errors import ConnectionClosed, SendTimedOut
from tdmqtt.packets import (
    BrokerRef,
    ConnAck,
    MalformedPacket,
    Publish,
    encode,
    encode_varint,
)
from tdmqtt.stream import MAX_PACKET_SIZE, PacketConnection, dial, exchange


@pytest.fixture
def tcp_pair():
    """(raw sending socket, PacketConnection on the accepting end)."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        sender = socket.create_connection(listener.getsockname()[:2])
        accepted, _ = listener.accept()
    conn = PacketConnection(accepted)
    yield sender, conn
    sender.close()
    conn.close()


def test_burst_of_small_publishes_arrives_whole_and_in_order(tcp_pair):
    sender, conn = tcp_pair
    sent = [Publish(f"burst/{i}", i.to_bytes(2, "big")) for i in range(200)]
    sender.sendall(b"".join(encode(p) for p in sent))
    received = [conn.recv(timeout=2) for _ in sent]
    assert received == sent
    assert all(type(p.payload) is bytes for p in received)


def test_large_publish_split_into_pieces(tcp_pair):
    sender, conn = tcp_pair
    big = Publish("big/one", bytes(range(256)) * 128, qos=1, packet_id=7)
    wire = encode(big)
    assert len(big.payload) == 32 * 1024
    pieces = [wire[i:i + 4096] for i in range(0, len(wire), 4096)]
    sender.sendall(pieces[0])
    with pytest.raises(TimeoutError):
        conn.recv(timeout=0.05)
    for piece in pieces[1:]:
        sender.sendall(piece)
    packet = conn.recv(timeout=2)
    assert packet == big
    assert type(packet.payload) is bytes


class CountingSocket:
    """A socket that counts its recv() calls."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.recvs = 0

    def recv(self, size: int, flags: int = 0) -> bytes:
        self.recvs += 1
        return self._sock.recv(size, flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_large_packet_that_has_arrived_costs_two_reads(tcp_pair):
    sender, conn = tcp_pair
    big = Publish("big/one", bytes(range(256)) * 128)
    wire = encode(big)
    sender.sendall(wire)
    wait_until(lambda: len(conn._sock.recv(len(wire), socket.MSG_PEEK))
               == len(wire))
    counting = conn._sock = CountingSocket(conn._sock)
    assert conn.recv(timeout=2) == big
    assert counting.recvs <= 2  # the first chunk, then the rest at once


@pytest.mark.parametrize("total, refused", [(MAX_PACKET_SIZE, False),
                                            (MAX_PACKET_SIZE + 1, True)])
def test_the_fixed_header_decides_whether_a_packet_fits(tcp_pair, total,
                                                        refused):
    sender, conn = tcp_pair
    remaining = total - 1 - 3  # type byte, three-byte remaining length
    header = bytes([0x30]) + encode_varint(remaining)
    assert len(header) == 4
    sender.sendall(header + bytes(100))
    with pytest.raises(MalformedPacket if refused else TimeoutError):
        conn.recv(timeout=0.2)


def read_after(sock: socket.socket, pause: float, size: int) -> threading.Thread:
    """A thread that sleeps `pause`, then reads `size` bytes from sock."""

    def read():
        time.sleep(pause)
        left = size
        while left > 0:
            chunk = sock.recv(min(left, 1 << 16))
            if not chunk:
                return
            left -= len(chunk)

    reader = threading.Thread(target=read)
    reader.start()
    return reader


# far more than the loopback socket buffers hold, so a send of it blocks
# until the peer reads
FILL = Publish("big/one", bytes(4 << 20))


def test_a_send_after_a_recv_timed_out_keeps_no_deadline(tcp_pair):
    peer, conn = tcp_pair
    with pytest.raises(TimeoutError):
        conn.recv(timeout=0.2)
    reader = read_after(peer, 0.5, len(encode(FILL)))
    started = time.monotonic()
    try:
        conn.send(FILL)
    finally:
        reader.join(timeout=10)
    assert time.monotonic() - started > 0.4  # blocked on the reader


def test_a_send_that_misses_its_deadline_closes_the_connection(tcp_pair):
    peer, conn = tcp_pair
    started = time.monotonic()
    with pytest.raises(SendTimedOut):
        conn.send(FILL, timeout=0.2)
    assert 0.2 <= time.monotonic() - started < 1.5
    peer.settimeout(2)
    while peer.recv(1 << 16):  # what got through, then the hang-up
        pass
    with pytest.raises(ConnectionClosed):
        conn.send(Publish("after", b""), timeout=0.2)


def test_a_send_deadline_covers_the_wait_for_the_send_lock(tcp_pair):
    peer, conn = tcp_pair
    held, release = threading.Event(), threading.Event()

    def hold():
        with conn.send_lock:
            held.set()
            release.wait(5)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        held.wait(5)
        started = time.monotonic()
        with pytest.raises(SendTimedOut):
            conn.send(Publish("t", b"x"), timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 1.5
    finally:
        release.set()
        holder.join(timeout=5)
    # it wrote nothing, so the connection stays open for the lock's holder
    conn.send(Publish("t", b"y"), timeout=1)
    peer.settimeout(2)
    assert peer.recv(64) == encode(Publish("t", b"y"))


def test_a_send_with_a_deadline_writes_what_a_blocking_one_does(tcp_pair):
    peer, conn = tcp_pair
    wire = encode(FILL)
    reader = read_after(peer, 0.1, len(wire))
    try:
        conn.send(FILL, timeout=5)  # waits on the reader, within its deadline
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    conn.send(Publish("small", b"1"), Publish("small", b"2"), timeout=1)
    peer.settimeout(2)
    assert peer.recv(64) == encode(Publish("small", b"1")) \
        + encode(Publish("small", b"2"))


FD_LIMIT = 40  # the child's soft RLIMIT_NOFILE

BROKER_UNDER_FD_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from tdmqtt.broker import EdgeBroker
broker = EdgeBroker(port=0).start()
print(broker.address.port, flush=True)
sys.stdin.read()  # serve until the parent closes stdin
broker.stop()
"""


def test_a_peer_that_closes_mid_packet_is_connection_closed():
    def half_a_publish(conn):
        conn._sock.sendall(encode(Publish("t", bytes(16)))[:8])

    peer = ScriptedBroker(half_a_publish)
    conn = dial(peer.address, "", 2.0, ConnectionError)
    try:
        with pytest.raises(ConnectionClosed, match="closed mid-packet"):
            conn.recv(timeout=2)
    finally:
        conn.close()
        peer.stop()


def test_a_connack_with_a_failure_reason_is_unreachable_and_hangs_up():
    received = []
    peer = ScriptedBroker(lambda conn: received.append(conn.recv(timeout=5)),
                          connack=ConnAck(0x87))  # Not authorized
    try:
        with pytest.raises(ConnectionError, match="rejected connect"):
            dial(peer.address, "", 2.0, ConnectionError)
        wait_until(lambda: received == [None])  # the client hung up
    finally:
        peer.stop()


def test_a_server_out_of_descriptors_accepts_again_once_some_close():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    held = []
    with subprocess.Popen(
            [sys.executable, "-c", BROKER_UNDER_FD_LIMIT, str(FD_LIMIT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env) as child:
        try:
            ref = BrokerRef("127.0.0.1", int(child.stdout.readline()))
            for _ in range(FD_LIMIT):
                try:
                    held.append(dial(ref, "", 0.5, ConnectionError))
                except ConnectionError:
                    break
            assert len(held) < FD_LIMIT, "the broker never ran out of descriptors"
            while held:
                held.pop().close()
            dial(ref, "", 5.0, ConnectionError).close()  # CONNACK: accepting again
        finally:
            for conn in held:
                conn.close()
            child.stdin.close()
            try:
                child.wait(timeout=5)
            except subprocess.TimeoutExpired:
                child.kill()
                raise


def test_a_connection_over_the_cap_is_closed_at_accept(broker, monkeypatch):
    monkeypatch.setattr(stream, "_MAX_CONNECTIONS", 2)
    first, second = connect(broker.address), connect(broker.address)
    try:
        ref = broker.address
        with socket.create_connection((ref.host, ref.port), timeout=2) as third:
            assert third.recv(1) == b""  # EOF, not a wait for its CONNECT
        first.close()
        # the slot frees once the first connection's handler has returned
        deadline = time.monotonic() + 5
        while True:
            try:
                dial(ref, "", 1.0, ConnectionError).close()
                break
            except ConnectionError:
                assert time.monotonic() < deadline, "no CONNACK after a close"
                time.sleep(0.02)
    finally:
        first.close()
        second.close()


def test_sequential_connections_are_served_by_one_reused_thread(
        make_broker, monkeypatch):
    served = []  # the thread behind each connection, kept alive by the list
    started = []  # every thread the server starts
    register, start = EdgeBroker._register, stream.Server._start

    def recording(self, conn, connect):
        served.append(threading.current_thread())
        return register(self, conn, connect)

    def counting(self, target, *args):
        start(self, target, *args)
        started.append(self._threads[-1])

    monkeypatch.setattr(EdgeBroker, "_register", recording)
    monkeypatch.setattr(stream.Server, "_start", counting)
    broker = make_broker()
    for _ in range(30):
        with exchange(broker.address, "", 2.0, ConnectionError):
            pass
        # once its worker is back in accept(), the next connection finds
        # two workers waiting and starts none
        wait_until(lambda: not broker._server._socks)
    assert len(served) == 30
    # the first worker plus the one it started when it took the first
    # connection; the old accept loop plus one parked worker also made two
    assert len(started) == 2, f"{len(started)} threads for 30 connections"
    assert set(served) <= set(started)


def test_racing_connections_leave_every_idle_worker_counted(broker):
    """Eight threads connect and hang up at once; every exchange is
    served, and once all are closed each worker is counted as waiting
    in accept(), so a lost update to the count shows."""
    failures = []

    def client():
        for _ in range(25):
            try:
                with exchange(broker.address, "", 2.0, ConnectionError):
                    pass
            except ConnectionError as exc:
                failures.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    clients = [threading.Thread(target=client) for _ in range(8)]
    try:
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(c.is_alive() for c in clients)
    assert failures == []
    server = broker._server
    wait_until(lambda: not server._socks)
    assert list(server._waiting.values()) == [len(server._threads)]
    with exchange(broker.address, "", 2.0, ConnectionError):
        pass


def test_stop_ends_every_worker_parked_or_serving(make_broker):
    before = set(threading.enumerate())
    broker = make_broker()
    finished = [dial(broker.address, "", 2.0, ConnectionError)
                for _ in range(3)]
    for conn in finished:
        conn.close()
    wait_until(lambda: not broker._server._socks)
    held = dial(broker.address, "", 2.0, ConnectionError)
    try:
        # three connections at once left four workers: one serves `held`,
        # three wait in accept()
        assert len([t for t in threading.enumerate() if t not in before]) == 4
        broker.stop()
    finally:
        held.close()
    left = [t for t in threading.enumerate() if t not in before]
    assert left == []
