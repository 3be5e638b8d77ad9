"""Codec tests against hand-assembled wire bytes.

Every expected byte string below was written out manually from the MQTT 5
layout rules before the codec existed, so encode() is checked against an
independent source, not against itself.
"""

import pytest

from tdmqtt.packets import (
    BrokerRef,
    ConnAck,
    Connect,
    Disconnect,
    IncompletePacket,
    InvalidPacket,
    MalformedPacket,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    decode,
    encode,
    encode_varint,
    redirect,
)


def hx(text: str) -> bytes:
    return bytes.fromhex(text.replace(" ", ""))


GOLDEN = [
    (PingReq(), hx("C0 00")),
    (PingResp(), hx("D0 00")),
    (Disconnect(Reason.NORMAL), hx("E0 02 00 00")),
    (ConnAck(Reason.SUCCESS), hx("20 03 00 00 00")),
    (Connect("ab", keep_alive=60),
     hx("10 0F 0004 4D515454 05 02 003C 00 0002 6162")),
    (Subscribe(1, ("a/#",)),
     hx("82 09 0001 00 0003 612F23 00")),
    (SubAck(1, (0,)), hx("90 04 0001 00 00")),
    (Publish("a/b", b"hi"),
     hx("30 08 0003 612F62 00 6869")),
    (Publish("a/b", b"hi", qos=1, packet_id=5, retain=True),
     hx("33 0A 0003 612F62 0005 00 6869")),
    (PubAck(5), hx("40 04 0005 00 00")),
    (Disconnect(Reason.USE_ANOTHER_SERVER, BrokerRef("b2", 1883)),
     hx("E0 0C 9C 0A 1C 0007 62323A31383833")),
    (Disconnect(Reason.SERVER_MOVED, BrokerRef("b2", 1883)),
     hx("E0 0C 9D 0A 1C 0007 62323A31383833")),
]


@pytest.mark.parametrize("packet,wire", GOLDEN, ids=lambda x: repr(x)[:48])
def test_encode_matches_golden_bytes(packet, wire):
    assert encode(packet) == wire


@pytest.mark.parametrize("packet,wire", GOLDEN, ids=lambda x: repr(x)[:48])
def test_decode_recovers_golden_packets(packet, wire):
    decoded, consumed = decode(wire)
    assert decoded == packet
    assert consumed == len(wire)


VARINTS = [
    (0, b"\x00"),
    (1, b"\x01"),
    (127, b"\x7f"),
    (128, b"\x80\x01"),
    (16383, b"\xff\x7f"),
    (16384, b"\x80\x80\x01"),
    (2_097_151, b"\xff\xff\x7f"),
    (2_097_152, b"\x80\x80\x80\x01"),
    (268_435_455, b"\xff\xff\xff\x7f"),
]


@pytest.mark.parametrize("value,wire", VARINTS)
def test_varint_encoding(value, wire):
    assert encode_varint(value) == wire


def test_varint_range_check():
    with pytest.raises(InvalidPacket):
        encode_varint(-1)
    with pytest.raises(InvalidPacket):
        encode_varint(268_435_456)


def test_decode_consumes_one_packet_at_a_time():
    stream = encode(PingReq()) + encode(PubAck(9)) + encode(Disconnect())
    p1, n1 = decode(stream)
    p2, n2 = decode(stream[n1:])
    p3, n3 = decode(stream[n1 + n2:])
    assert (p1, p2, p3) == (PingReq(), PubAck(9), Disconnect())
    assert n1 + n2 + n3 == len(stream)


def test_incomplete_body_reports_bytes_needed():
    with pytest.raises(IncompletePacket):
        decode(b"")
    wire = encode(Publish("t", b"x" * 50))
    with pytest.raises(IncompletePacket) as info:
        decode(wire[:10])
    assert info.value.needed == len(wire) - 10


def test_incomplete_varint_header():
    # continuation bit set, then the stream ends
    with pytest.raises(IncompletePacket):
        decode(b"\x30\x80")


def test_large_payload_roundtrip():
    pkt = Publish("bulk", bytes(range(256)) * 600)  # forces a 3-byte varint
    decoded, n = decode(encode(pkt))
    assert decoded == pkt and n == len(encode(pkt))


# --- tolerated short forms ------------------------------------------------

def test_puback_without_reason_defaults_to_success():
    pkt, n = decode(hx("40 02 0005"))
    assert pkt == PubAck(5, Reason.SUCCESS) and n == 4


def test_puback_with_reason_but_no_properties():
    pkt, _ = decode(hx("40 03 0005 10"))
    assert pkt == PubAck(5, 0x10)


def test_disconnect_empty_body_means_normal():
    pkt, n = decode(hx("E0 00"))
    assert pkt == Disconnect(Reason.NORMAL) and n == 2


def test_disconnect_reason_only():
    pkt, _ = decode(hx("E0 01 9C"))
    assert pkt == Disconnect(Reason.USE_ANOTHER_SERVER, server_reference=None)


def test_unused_but_legal_properties_are_skipped():
    # CONNACK carrying session expiry (0x11, u32) and a user property
    # pair (0x26): both alien to us, both legal, both skipped.
    props = hx("11 00000E10 26 0001 61 0001 62")
    body = bytes([0x00, 0x00, len(props)]) + props
    pkt, _ = decode(bytes([0x20, len(body)]) + body)
    assert pkt == ConnAck(Reason.SUCCESS)


VERSION_PAIR = hx("26 0013") + b"topic-table-version" + hx("0002") + b"v1"


def connack_with(props: bytes) -> bytes:
    body = bytes([0x00, 0x00, len(props)]) + props
    return bytes([0x20, len(body)]) + body


def test_a_connack_carries_the_topic_table_version():
    packet = ConnAck(Reason.SUCCESS, topic_table_version="v1")
    wire = connack_with(VERSION_PAIR)
    assert encode(packet) == wire
    assert decode(wire) == (packet, len(wire))


def test_a_connack_without_a_version_keeps_its_bytes():
    assert encode(ConnAck(Reason.SUCCESS)) == hx("20 03 00 00 00")


def test_a_foreign_user_property_beside_the_version_is_skipped():
    wire = connack_with(hx("26 0001 61 0001 62") + VERSION_PAIR)
    assert decode(wire)[0] == ConnAck(Reason.SUCCESS, topic_table_version="v1")


def test_conflicting_version_pairs_decode_as_no_version():
    other = hx("26 0013") + b"topic-table-version" + hx("0002") + b"v2"
    packet, _ = decode(connack_with(VERSION_PAIR + other + VERSION_PAIR))
    assert packet == ConnAck(Reason.SUCCESS)
    assert packet.topic_table_version is None


def test_reason_string_property_is_accepted_on_disconnect():
    props = bytes([0x1F]) + hx("0003") + b"bye"
    body = bytes([0x8F, len(props)]) + props
    pkt, _ = decode(bytes([0xE0, len(body)]) + body)
    assert pkt == Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)


# --- malformed input ------------------------------------------------------

@pytest.mark.parametrize("wire,why", [
    (hx("C0 01 FF"), "PINGREQ with a body"),
    (hx("C4 00"), "PINGREQ with flags set"),
    (hx("50 02 0005"), "PUBREC is outside the subset"),
    (hx("62 02 0005"), "PUBREL is outside the subset"),
    (hx("37 08 0003 612F62 0005 00 68"), "QoS bits 0b11"),
    (hx("38 08 0003 612F62 00 6869 FF"), "DUP on a qos0 publish"),
    (b"\x30\xff\xff\xff\xff\x7f", "remaining length uses 5 bytes"),
    (hx("90 04 0000 00 00"), "suback packet id zero"),
    (hx("82 09 0000 00 0003 612F23 00"), "subscribe packet id zero"),
    (hx("E0 03 00 00 01"), "trailing byte after DISCONNECT"),
    (hx("E0 03 9C 01 1C"), "property block truncated"),
    (hx("E0 04 9C 02 E7 00"), "0xE7 is not a property id"),
    (hx("20 03 02 00 00"), "reserved CONNACK ack flags"),
    (hx("82 06 0001 00 0001 61"), "subscribe filter missing options byte"),
    (hx("82 09 0001 00 0003 612F23 40"), "reserved subscription option bits"),
    (hx("82 09 0001 00 0003 612F23 02"), "subscription qos 2"),
], ids=[
    "pingreq-body", "pingreq-flags", "pubrec", "pubrel", "qos3", "dup-qos0",
    "varint5", "suback-pid0", "subscribe-pid0", "trailing", "truncated-prop",
    "unknown-prop", "connack-flags", "missing-options", "reserved-options",
    "sub-qos2",
])
def test_malformed_bytes_are_rejected(wire, why):
    with pytest.raises(MalformedPacket):
        decode(wire)


def test_qos2_publish_rejected():
    wire = bytearray(encode(Publish("a/b", b"hi", qos=1, packet_id=5)))
    wire[0] = 0x34  # flip the QoS bits to 2
    with pytest.raises(MalformedPacket):
        decode(bytes(wire))


def test_duplicate_server_reference_rejected():
    one = bytes([0x1C]) + hx("0007") + b"b2:1883"
    props = one + one
    body = bytes([0x9C, len(props)]) + props
    with pytest.raises(MalformedPacket):
        decode(bytes([0xE0, len(body)]) + body)


@pytest.mark.parametrize("wire", [
    connack_with(hx("11 00000E10 11 00000E10")),
    hx("E0 0E 8F 0C") + (hx("1F 0003") + b"bye") * 2,
], ids=["connack-session-expiry", "disconnect-reason-string"])
def test_a_repeated_property_is_rejected(wire):
    with pytest.raises(MalformedPacket, match="duplicate"):
        decode(wire)


def test_a_publish_may_repeat_its_subscription_identifier():
    body = hx("0001") + b"t" + hx("04 0B 01 0B 02") + b"hi"
    wire = bytes([0x30, len(body)]) + body
    assert decode(wire) == (Publish("t", b"hi"), len(wire))


def test_server_reference_on_normal_disconnect_rejected():
    props = bytes([0x1C]) + hx("0007") + b"b2:1883"
    body = bytes([0x00, len(props)]) + props
    with pytest.raises(MalformedPacket):
        decode(bytes([0xE0, len(body)]) + body)


def test_unparseable_server_reference_rejected():
    props = bytes([0x1C]) + hx("0005") + b"b2883"  # no colon
    body = bytes([0x9C, len(props)]) + props
    with pytest.raises(MalformedPacket):
        decode(bytes([0xE0, len(body)]) + body)


def test_connect_with_will_flag_rejected():
    wire = bytearray(encode(Connect("c1", keep_alive=30)))
    wire[9] |= 0x04  # the will flag lives in the connect flags byte
    with pytest.raises(MalformedPacket):
        decode(bytes(wire))


def test_connect_wrong_protocol_level_rejected():
    wire = bytearray(encode(Connect("c1")))
    wire[8] = 4  # MQTT 3.1.1
    with pytest.raises(MalformedPacket):
        decode(bytes(wire))


def test_bad_utf8_topic_rejected():
    body = hx("0002 FFFE 00")
    with pytest.raises(MalformedPacket):
        decode(bytes([0x30, len(body)]) + body)


def test_publish_to_wildcard_topic_rejected():
    body = hx("0003 612F23 00")  # topic "a/#"
    with pytest.raises(MalformedPacket):
        decode(bytes([0x30, len(body)]) + body)


def test_subscribe_with_no_filters_rejected():
    body = hx("0001 00")
    with pytest.raises(MalformedPacket):
        decode(bytes([0x82, len(body)]) + body)


def test_subscribe_filters_decode_raw():
    # An ill-placed '#' must survive decoding so the broker can answer
    # that specific filter with a not-accepted reason code.
    pkt, _ = decode(encode(Subscribe(7, ("x/#/y", "ok"))))
    assert pkt.filters == ("x/#/y", "ok")


# --- encode-side validation -----------------------------------------------

@pytest.mark.parametrize("packet", [
    Publish("a/b", qos=2, packet_id=1),
    Publish("a/b", qos=1),                      # missing packet id
    Publish("a/b", qos=0, packet_id=1),         # id forbidden at qos0
    Publish("a/#", qos=0),                      # wildcard topic
    Publish("", qos=0),
    Subscribe(0, ("a",)),
    Subscribe(70000, ("a",)),
    Subscribe(1, ()),
    SubAck(1, ()),
    SubAck(1, (256,)),
    PubAck(0),
    Connect("c", keep_alive=-1),
    Connect("c", keep_alive=70000),
    Disconnect(Reason.NORMAL, BrokerRef("b", 1)),  # reference needs 9C/9D
    Disconnect(-1),
])
def test_encode_rejects_invalid_values(packet):
    with pytest.raises(InvalidPacket):
        encode(packet)


def test_broker_ref_parse():
    assert BrokerRef.parse("b2:1883") == BrokerRef("b2", 1883)
    assert str(BrokerRef.parse("10.0.0.7:1884")) == "10.0.0.7:1884"
    for bad in ("b2", ":1883", "b2:", "b2:0", "b2:99999", "b2:x"):
        with pytest.raises(ValueError):
            BrokerRef.parse(bad)


def test_payload_is_bytes_even_when_given_bytearray():
    pkt = Publish("t", bytearray(b"xy"))
    assert isinstance(pkt.payload, bytes)
    assert decode(encode(pkt))[0] == Publish("t", b"xy")


def test_decode_from_bytearray_gives_a_bytes_payload():
    payload = bytes(range(256)) * 128
    wire = bytearray(encode(Publish("t", payload, qos=1, packet_id=3)))
    packet, used = decode(wire)
    assert type(packet.payload) is bytes
    assert packet.payload == payload
    del wire[:used]  # decode holds no export of the buffer afterwards
    assert wire == bytearray()


def test_redirect_round_trips_its_reference():
    ref = BrokerRef("10.0.0.7", 1883)
    packet, _ = decode(encode(redirect(ref)))
    assert packet.reason == 0x9C
    assert packet.server_reference == ref


def test_redirect_without_target_refuses_the_topic():
    packet, _ = decode(encode(redirect(None)))
    assert packet.reason == 0x8F
    assert packet.server_reference is None
