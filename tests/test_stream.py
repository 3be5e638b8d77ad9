"""PacketConnection framing over a real TCP loopback connection."""

import socket

import pytest

from tdmqtt.packets import MalformedPacket, Publish, encode, encode_varint
from tdmqtt.stream import MAX_PACKET_SIZE, PacketConnection


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
