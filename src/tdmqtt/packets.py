"""MQTT 5 control packet codec for the broker-redirect protocol subset.

Covers CONNECT, CONNACK, SUBSCRIBE, SUBACK, PUBLISH (QoS 0/1), PUBACK,
PINGREQ, PINGRESP and DISCONNECT, plus the DISCONNECT Server Reference
property that carries "host:port" broker redirects and the CONNACK User
Property that carries an edge broker's topic-table version.

decode() reads a packet in one pass over the caller's buffer: each
decoder reads its fields by index, checks that no field runs past the
end the fixed header declares, and copies out only what the packet
value keeps (strings such as the topic, and the payload).  An empty
property block is one 0x00 byte and is skipped by one test; any other
is read by one rule: each id's value by the reader its table entry
names, an id MQTT 5 does not allow on the packet type is malformed, and
so is a repeated id unless MQTT 5 allows repeats of it.  encode() builds
PUBLISH and PUBACK, the data-plane packets, in one expression each.
Byte layout follows the OASIS MQTT 5 wire format.  Everything here is
pure and reentrant; packet values are immutable.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field

PROTOCOL_LEVEL = 5

# Packet type nibbles.
TYPE_CONNECT = 1
TYPE_CONNACK = 2
TYPE_PUBLISH = 3
TYPE_PUBACK = 4
TYPE_SUBSCRIBE = 8
TYPE_SUBACK = 9
TYPE_PINGREQ = 12
TYPE_PINGRESP = 13
TYPE_DISCONNECT = 14

# Property identifiers we emit or inspect.
PROP_SUBSCRIPTION_IDENTIFIER = 0x0B
PROP_SERVER_REFERENCE = 0x1C
PROP_USER_PROPERTY = 0x26
PROP_MAXIMUM_PACKET_SIZE = 0x27

# User Property name under which a CONNACK carries the topic-table version.
TOPIC_TABLE_VERSION = "topic-table-version"

MAX_REMAINING_LENGTH = 268_435_455


class Reason:
    """Reason code bytes this system produces.

    Other received byte values are preserved on the packet but treated as
    Normal for control flow.
    """

    NORMAL = 0x00
    SUCCESS = 0x00
    TOPIC_FILTER_NOT_ACCEPTED = 0x8F
    PACKET_TOO_LARGE = 0x95
    USE_ANOTHER_SERVER = 0x9C
    SERVER_MOVED = 0x9D


def _is_redirect(reason: int) -> bool:
    """True for the two reason codes that may carry a server reference."""
    return reason in (Reason.USE_ANOTHER_SERVER, Reason.SERVER_MOVED)


class InvalidPacket(ValueError):
    """Packet value violates its invariants; nothing was encoded."""


class MalformedPacket(ValueError):
    """Bytes violate the wire format; the connection must be closed."""


class PacketTooLarge(MalformedPacket):
    """A packet is larger than its receiver accepts."""


class IncompletePacket(Exception):
    """More bytes are needed before a packet can be decoded."""

    def __init__(self, needed: int | None = None):
        self.needed = needed
        suffix = f" (need {needed} more bytes)" if needed is not None else ""
        super().__init__(f"incomplete packet{suffix}")


class MalformedFilter(ValueError):
    """Topic filter text breaks the wildcard placement rules."""


@dataclass(frozen=True, order=True)
class BrokerRef:
    """A broker address, rendered as "name:port"."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "BrokerRef":
        host, sep, port_text = text.rpartition(":")
        if not sep or not host:
            raise ValueError(f"broker reference needs host:port, got {text!r}")
        port = int(port_text)
        if not 0 < port < 65536:
            raise ValueError(f"port out of range in broker reference {text!r}")
        return cls(host, port)


# ---------------------------------------------------------------------------
# Packet variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive: int = 0  # seconds, 0 disables


@dataclass(frozen=True)
class ConnAck:
    reason: int = Reason.SUCCESS
    # An edge broker's topic-table version: equal versions from one broker
    # mean an equal topic set.  None when the peer sends none, or sends
    # conflicting ones.  Left out of repr, so a plain CONNACK still reads
    # ConnAck(reason=0) in logs and in the test ids derived from reprs.
    topic_table_version: str | None = field(default=None, repr=False)
    # The largest packet, in bytes, the sender accepts; None for no limit.
    max_packet_size: int | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Subscribe:
    # Filters are kept as raw wire text; semantic validation happens at the
    # broker so an ill-formed filter can be answered with a 0x8F reason
    # instead of killing the connection.
    packet_id: int
    filters: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))


@dataclass(frozen=True)
class SubAck:
    packet_id: int
    reasons: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reasons", tuple(self.reasons))


@dataclass(frozen=True, init=False)
class Publish:
    topic: str
    payload: bytes = b""
    qos: int = 0
    packet_id: int | None = None
    retain: bool = False

    def __init__(self, topic: str, payload: bytes = b"", qos: int = 0,
                 packet_id: int | None = None, retain: bool = False):
        # A QoS 1 delivery builds four of these on its way (sender,
        # broker decode, fan-out, receiver decode): the fields go in by
        # one call, not by one frozen setattr each.
        if type(payload) is not bytes:
            payload = bytes(payload)
        object.__setattr__(self, "__dict__", {
            "topic": topic, "payload": payload, "qos": qos,
            "packet_id": packet_id, "retain": retain})


@dataclass(frozen=True)
class PubAck:
    packet_id: int
    reason: int = Reason.SUCCESS


@dataclass(frozen=True)
class PingReq:
    pass


@dataclass(frozen=True)
class PingResp:
    pass


@dataclass(frozen=True)
class Disconnect:
    reason: int = Reason.NORMAL
    server_reference: BrokerRef | None = None


Packet = (
    Connect | ConnAck | Subscribe | SubAck | Publish | PubAck
    | PingReq | PingResp | Disconnect
)


def redirect(target: BrokerRef | None) -> Disconnect:
    """The DISCONNECT that sends a client to `target`, or, when no broker
    hosts the topic, refuses it."""
    if target is None:
        return Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)
    return Disconnect(Reason.USE_ANOTHER_SERVER, server_reference=target)


# ---------------------------------------------------------------------------
# Topic names and filters
# ---------------------------------------------------------------------------

def validate_topic(text: str) -> str:
    """Check a topic name: non-empty, no wildcards, no NUL."""
    if not text:
        raise MalformedFilter("topic name must not be empty")
    if "#" in text or "+" in text:
        raise MalformedFilter(f"topic name may not contain wildcards: {text!r}")
    if "\x00" in text:
        raise MalformedFilter("topic name may not contain NUL")
    return text


def validate_filter(text: str) -> str:
    """Check a topic filter: '#' at most once, only as the last level.

    The single-level wildcard '+' is not supported and is rejected.
    """
    if not text:
        raise MalformedFilter("topic filter must not be empty")
    if "\x00" in text:
        raise MalformedFilter("topic filter may not contain NUL")
    if "+" in text:
        raise MalformedFilter(f"single-level wildcard not supported: {text!r}")
    hash_at = text.find("#")
    if hash_at == -1:
        return text
    if hash_at != len(text) - 1:
        raise MalformedFilter(f"'#' must be the last character: {text!r}")
    if len(text) > 1 and text[-2] != "/":
        raise MalformedFilter(f"'#' must occupy a whole level: {text!r}")
    return text


def validate_filters(filters) -> tuple[tuple[int, ...], list[str]]:
    """SUBACK reason codes for a SUBSCRIBE's filters, and those accepted."""
    reasons = []
    accepted = []
    for filt in filters:
        try:
            validate_filter(filt)
        except MalformedFilter:
            reasons.append(Reason.TOPIC_FILTER_NOT_ACCEPTED)
        else:
            reasons.append(Reason.SUCCESS)
            accepted.append(filt)
    return tuple(reasons), accepted


def topic_matches(filt: str, name: str) -> bool:
    """True iff the topic name matches the filter.

    A trailing '#' absorbs zero or more whole levels, including the
    parent level itself ("a/#" matches "a").
    """
    if filt == "#":
        return True
    flevels = filt.split("/")
    nlevels = name.split("/")
    if flevels[-1] == "#":
        stem = flevels[:-1]
        return nlevels[: len(stem)] == stem
    return flevels == nlevels


def matching_filters(name: str) -> list[str]:
    """Every filter that matches the topic name, as topic_matches decides.

    With only a trailing '#', a name l1/.../lk is matched by itself, by
    '#', and by l1/#, ..., l1/.../lk/# (a trailing '#' also covers the
    parent level): k+2 filters, so an index keyed by filter answers
    "who matches this name" with k+2 dict lookups.
    """
    filters = [name, "#"]
    slash = name.find("/")
    while slash != -1:
        filters.append(name[:slash + 1] + "#")
        slash = name.find("/", slash + 1)
    filters.append(name + "/#")
    return filters


def covered(topic_filter: str) -> tuple[str, str | None, str | None]:
    """What a filter covers, as topic_matches decides: the topic it names,
    and the sorted run of the others, from a prefix up to an end (both
    None for an exact filter).  'stem/#' names the stem and runs from
    'stem/' to before 'stem0' ('0' follows '/'); '#' from '' with no end."""
    if topic_filter != "#" and not topic_filter.endswith("/#"):
        return topic_filter, None, None
    stem = topic_filter[:-2]
    return stem, topic_filter[:-1], None if topic_filter == "#" else stem + "0"


def matched(ordered: list[str], topic_filter: str) -> list[str]:
    """The topics of a sorted list that the filter covers (see covered),
    in order: the topic it names, then its run, each found by bisection."""
    named, prefix, end = covered(topic_filter)
    at = bisect_left(ordered, named)
    found = [named] if at < len(ordered) and ordered[at] == named else []
    if prefix is not None:  # '#' names '', which its run may hold too
        lo = bisect_left(ordered, prefix, at + len(found))
        found += ordered[lo:None if end is None else bisect_left(ordered, end, lo)]
    return found


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    if 0 <= value < 0x80:  # one byte: most packets' remaining length
        return bytes((value,))
    if not 0 <= value <= MAX_REMAINING_LENGTH:
        raise InvalidPacket(f"variable-byte integer out of range: {value}")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise InvalidPacket("string longer than 65535 bytes")
    return struct.pack(">H", len(data)) + data


def _check_packet_id(packet_id: object) -> int:
    if not isinstance(packet_id, int) or isinstance(packet_id, bool):
        raise InvalidPacket(f"packet id must be an int, got {packet_id!r}")
    if not 1 <= packet_id <= 0xFFFF:
        raise InvalidPacket(f"packet id out of range: {packet_id}")
    return packet_id


def _check_reason(reason: object) -> int:
    if not isinstance(reason, int) or isinstance(reason, bool):
        raise InvalidPacket(f"reason code must be an int, got {reason!r}")
    if not 0 <= reason <= 0xFF:
        raise InvalidPacket(f"reason code out of range: {reason}")
    return reason


def _frame(packet_type: int, flags: int, body: bytes) -> bytes:
    return bytes([(packet_type << 4) | flags]) + encode_varint(len(body)) + body


def encode(packet: Packet) -> bytes:
    """Encode a packet to its canonical wire form.

    Raises InvalidPacket when the value violates its invariants, e.g. a
    QoS 1 publish without a packet id.
    """
    if isinstance(packet, Publish):
        if packet.qos not in (0, 1):
            raise InvalidPacket(f"unsupported QoS {packet.qos}")
        try:
            topic = _pack_str(validate_topic(packet.topic))
        except MalformedFilter as exc:
            raise InvalidPacket(str(exc)) from exc
        # no properties: the block is one 0x00 byte
        if packet.qos == 0:
            if packet.packet_id is not None:
                raise InvalidPacket("QoS 0 publish must not carry a packet id")
            tail = b"\x00"
        elif packet.packet_id is None:
            raise InvalidPacket("QoS 1 publish needs a packet id")
        else:
            tail = struct.pack(">HB", _check_packet_id(packet.packet_id), 0)
        payload = packet.payload
        first = TYPE_PUBLISH << 4 | packet.qos << 1 | (1 if packet.retain else 0)
        return b"".join((bytes((first,)),
                         encode_varint(len(topic) + len(tail) + len(payload)),
                         topic, tail, payload))

    if isinstance(packet, PubAck):
        # remaining length 4: packet id, reason code, empty property block
        return struct.pack(">BBHBB", TYPE_PUBACK << 4, 4,
                           _check_packet_id(packet.packet_id),
                           _check_reason(packet.reason), 0)

    if isinstance(packet, Connect):
        if not isinstance(packet.client_id, str):
            raise InvalidPacket("client id must be a string")
        if not 0 <= packet.keep_alive <= 0xFFFF:
            raise InvalidPacket(f"keep alive out of range: {packet.keep_alive}")
        body = (
            _pack_str("MQTT")
            + bytes([PROTOCOL_LEVEL, 0x02])  # clean start, nothing else
            + struct.pack(">H", packet.keep_alive)
            + encode_varint(0)
            + _pack_str(packet.client_id)
        )
        return _frame(TYPE_CONNECT, 0, body)

    if isinstance(packet, ConnAck):
        reason = _check_reason(packet.reason)
        props = b""
        if packet.max_packet_size is not None:
            if not 0 < packet.max_packet_size <= 0xFFFFFFFF:
                raise InvalidPacket(
                    f"maximum packet size out of range: {packet.max_packet_size}")
            props = (bytes([PROP_MAXIMUM_PACKET_SIZE])
                     + struct.pack(">I", packet.max_packet_size))
        if packet.topic_table_version is not None:
            props += (bytes([PROP_USER_PROPERTY]) + _pack_str(TOPIC_TABLE_VERSION)
                      + _pack_str(packet.topic_table_version))
        return _frame(TYPE_CONNACK, 0, bytes([0x00, reason])
                      + encode_varint(len(props)) + props)

    if isinstance(packet, Subscribe):
        pid = _check_packet_id(packet.packet_id)
        if not packet.filters:
            raise InvalidPacket("subscribe needs at least one topic filter")
        body = bytearray(struct.pack(">H", pid))
        body += encode_varint(0)
        for filt in packet.filters:
            if not isinstance(filt, str):
                raise InvalidPacket("topic filter must be a string")
            body += _pack_str(filt)
            body.append(0x00)  # QoS 0 options, retained replay on subscribe
        return _frame(TYPE_SUBSCRIBE, 0x2, bytes(body))

    if isinstance(packet, SubAck):
        pid = _check_packet_id(packet.packet_id)
        if not packet.reasons:
            raise InvalidPacket("suback needs at least one reason code")
        reasons = bytes(_check_reason(rc) for rc in packet.reasons)
        return _frame(TYPE_SUBACK, 0, struct.pack(">H", pid) + encode_varint(0) + reasons)

    if isinstance(packet, PingReq):
        return _frame(TYPE_PINGREQ, 0, b"")

    if isinstance(packet, PingResp):
        return _frame(TYPE_PINGRESP, 0, b"")

    if isinstance(packet, Disconnect):
        reason = _check_reason(packet.reason)
        if packet.server_reference is not None and not _is_redirect(reason):
            raise InvalidPacket(
                f"server reference not allowed with reason 0x{reason:02X}")
        props = b""
        if packet.server_reference is not None:
            props = bytes([PROP_SERVER_REFERENCE]) + _pack_str(str(packet.server_reference))
        return _frame(TYPE_DISCONNECT, 0, bytes([reason]) + encode_varint(len(props)) + props)

    raise InvalidPacket(f"not a control packet: {packet!r}")


# ---------------------------------------------------------------------------
# Field readers
# ---------------------------------------------------------------------------
# Each reads one field at `pos` of a packet that ends at `end` (the
# buffer may run on into the next packet) and returns the value and the
# position after it.  None reads past `end`; a field that would raises
# MalformedPacket.

def _short() -> MalformedPacket:
    return MalformedPacket("packet body shorter than declared")


def _u8(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos >= end:
        raise _short()
    return data[pos], pos + 1


def _u16(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos + 2 > end:
        raise _short()
    return data[pos] << 8 | data[pos + 1], pos + 2


def _u32(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos + 4 > end:
        raise _short()
    return int.from_bytes(data[pos:pos + 4], "big"), pos + 4


def _varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    value = 0
    for shift in (0, 7, 14, 21):
        byte, pos = _u8(data, pos, end)
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
    raise MalformedPacket("variable-byte integer longer than 4 bytes")


def _binary(data: bytes, pos: int, end: int) -> tuple[bytes, int]:
    size, pos = _u16(data, pos, end)
    if pos + size > end:
        raise _short()
    return bytes(data[pos:pos + size]), pos + size


def _string(data: bytes, pos: int, end: int) -> tuple[str, int]:
    size, pos = _u16(data, pos, end)
    if pos + size > end:
        raise _short()
    try:
        return str(data[pos:pos + size], "utf-8"), pos + size
    except UnicodeDecodeError as exc:
        raise MalformedPacket("string is not valid UTF-8") from exc


def _pair(data: bytes, pos: int, end: int) -> tuple[tuple[str, str], int]:
    name, pos = _string(data, pos, end)
    value, pos = _string(data, pos, end)
    return (name, value), pos


def _packet_id(data: bytes, pos: int, end: int) -> tuple[int, int]:
    packet_id, pos = _u16(data, pos, end)
    if not packet_id:
        raise MalformedPacket("packet id out of range: 0")
    return packet_id, pos


def _expect_end(pos: int, end: int, what: str) -> None:
    if pos != end:
        raise MalformedPacket(f"trailing bytes after {what}")


# Property id -> the reader of its value.  Any id outside this table is
# not a legal MQTT 5 property.
_PROPERTY_READERS = {
    0x01: _u8, 0x02: _u32, 0x03: _string, 0x08: _string, 0x09: _binary,
    0x0B: _varint, 0x11: _u32, 0x12: _string, 0x13: _u16, 0x15: _string,
    0x16: _binary, 0x17: _u8, 0x18: _u32, 0x19: _u8, 0x1A: _string,
    0x1C: _string, 0x1F: _string, 0x21: _u16, 0x22: _u16, 0x23: _u16,
    0x24: _u8, 0x25: _u8, 0x26: _pair, 0x27: _u32, 0x28: _u8,
    0x29: _u8, 0x2A: _u8,
}

# Packet type -> the property ids MQTT 5 (section 2.2.2.2) allows on it.
# The will properties are left out with the will itself, and PINGREQ and
# PINGRESP carry no property block.
_ALLOWED_PROPERTIES = {
    TYPE_CONNECT: {0x11, 0x15, 0x16, 0x17, 0x19, 0x21, 0x22, 0x26, 0x27},
    TYPE_CONNACK: {0x11, 0x12, 0x13, 0x15, 0x16, 0x1A, 0x1C, 0x1F, 0x21,
                   0x22, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A},
    TYPE_PUBLISH: {0x01, 0x02, 0x03, 0x08, 0x09, 0x0B, 0x23, 0x26},
    TYPE_PUBACK: {0x1F, 0x26},
    TYPE_SUBSCRIBE: {0x0B, 0x26},
    TYPE_SUBACK: {0x1F, 0x26},
    TYPE_DISCONNECT: {0x11, 0x1C, 0x1F, 0x26},
}


def _read_properties(data: bytes, pos: int, end: int,
                     packet_type: int) -> tuple[dict, int]:
    """Read the property block at `pos`: its values keyed by property
    id, each User Property's value keyed by its name, and the position
    after the block.

    An empty block, one 0x00 byte, is skipped by one test.  In any
    other, every id is read by the reader _PROPERTY_READERS names for
    it.  An id outside the MQTT 5 table or not allowed on packet_type, a
    Subscription Identifier of 0, and a repeat of any id but User
    Property and Subscription Identifier are malformed.  A User Property
    name given twice with different values reads as None.
    """
    if pos < end and not data[pos]:
        return {}, pos + 1
    size, pos = _varint(data, pos, end)
    stop = pos + size
    if stop > end:
        raise _short()
    allowed = _ALLOWED_PROPERTIES[packet_type]
    found: dict = {}
    while pos < stop:
        pid = data[pos]
        if pid not in allowed:
            if pid in _PROPERTY_READERS:
                raise MalformedPacket(f"property 0x{pid:02X} not allowed "
                                      f"in {_DECODERS[packet_type][0]}")
            raise MalformedPacket(f"unknown property id 0x{pid:02X}")
        value, pos = _PROPERTY_READERS[pid](data, pos + 1, stop)
        if pid == PROP_USER_PROPERTY:
            name, value = value
            if found.setdefault(name, value) != value:
                found[name] = None
        elif pid == PROP_SUBSCRIPTION_IDENTIFIER and not value:
            raise MalformedPacket("subscription identifier 0")
        elif pid in found and pid != PROP_SUBSCRIPTION_IDENTIFIER:
            raise MalformedPacket(f"duplicate property 0x{pid:02X}")
        else:
            found[pid] = value
    return found, pos


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode(data: bytes | bytearray) -> tuple[Packet, int]:
    """Decode one packet from the start of `data`.

    Returns (packet, bytes consumed); trailing bytes are untouched and
    `data` is not copied: its fields are read in place.  Raises
    IncompletePacket when more bytes are required and MalformedPacket
    when the stream is unrecoverable.
    """
    size = len(data)
    if not size:
        raise IncompletePacket(needed=1)

    # Remaining length: up to 4 varint bytes.
    remaining = 0
    pos = 1
    for shift in (0, 7, 14, 21):
        if pos >= size:
            raise IncompletePacket()
        byte = data[pos]
        pos += 1
        remaining |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
    else:
        raise MalformedPacket("remaining length longer than 4 bytes")

    end = pos + remaining
    if size < end:
        raise IncompletePacket(needed=end - size)
    packet_type, flags = data[0] >> 4, data[0] & 0x0F
    entry = _DECODERS.get(packet_type)
    if entry is None:
        raise MalformedPacket(f"unsupported packet type {packet_type}")
    name, required_flags, decoder = entry
    if required_flags is not None and flags != required_flags:
        raise MalformedPacket(f"bad fixed-header flags 0x{flags:X} for {name}")
    return decoder(data, pos, end, flags), end


def _decode_connect(data: bytes, pos: int, end: int, flags: int) -> Connect:
    protocol, pos = _string(data, pos, end)
    if protocol != "MQTT":
        raise MalformedPacket("bad protocol name")
    level, pos = _u8(data, pos, end)
    if level != PROTOCOL_LEVEL:
        raise MalformedPacket(f"unsupported protocol level {level}")
    connect_flags, pos = _u8(data, pos, end)
    if connect_flags & 0x01:
        raise MalformedPacket("reserved connect flag set")
    if connect_flags & ~0x02:
        # Will, username and password are outside this protocol subset.
        raise MalformedPacket(f"unsupported connect flags 0x{connect_flags:02X}")
    keep_alive, pos = _u16(data, pos, end)
    _, pos = _read_properties(data, pos, end, TYPE_CONNECT)
    client_id, pos = _string(data, pos, end)
    _expect_end(pos, end, "CONNECT")
    return Connect(client_id=client_id, keep_alive=keep_alive)


def _decode_connack(data: bytes, pos: int, end: int, flags: int) -> ConnAck:
    ack_flags, pos = _u8(data, pos, end)
    if ack_flags & ~0x01:
        raise MalformedPacket("reserved CONNACK flags set")
    reason, pos = _u8(data, pos, end)
    properties, pos = _read_properties(data, pos, end, TYPE_CONNACK)
    _expect_end(pos, end, "CONNACK")
    if properties.get(PROP_MAXIMUM_PACKET_SIZE) == 0:
        raise MalformedPacket("maximum packet size 0")
    return ConnAck(reason=reason,
                   topic_table_version=properties.get(TOPIC_TABLE_VERSION),
                   max_packet_size=properties.get(PROP_MAXIMUM_PACKET_SIZE))


def _decode_publish(data: bytes, pos: int, end: int, flags: int) -> Publish:
    qos = (flags >> 1) & 0x3
    if qos == 3:
        raise MalformedPacket("QoS bits 0b11 are malformed")
    if qos == 2:
        raise MalformedPacket("QoS 2 is not supported")
    if flags & 0x8 and not qos:
        raise MalformedPacket("DUP set on a QoS 0 publish")
    topic, pos = _string(data, pos, end)
    try:
        validate_topic(topic)
    except MalformedFilter as exc:
        raise MalformedPacket(str(exc)) from exc
    packet_id = None
    if qos:
        packet_id, pos = _packet_id(data, pos, end)
    _, pos = _read_properties(data, pos, end, TYPE_PUBLISH)
    # Publish makes the payload bytes: a second copy from a bytearray,
    # cheaper than a memoryview for the small payloads that dominate
    return Publish(topic, data[pos:end], qos, packet_id, bool(flags & 0x1))


def _decode_puback(data: bytes, pos: int, end: int, flags: int) -> PubAck:
    packet_id, pos = _packet_id(data, pos, end)
    reason = Reason.SUCCESS
    if pos < end:
        reason = data[pos]
        pos += 1
        if pos < end:
            _, pos = _read_properties(data, pos, end, TYPE_PUBACK)
    _expect_end(pos, end, "PUBACK")
    return PubAck(packet_id, reason)


def _decode_subscribe(data: bytes, pos: int, end: int, flags: int) -> Subscribe:
    packet_id, pos = _packet_id(data, pos, end)
    _, pos = _read_properties(data, pos, end, TYPE_SUBSCRIBE)
    filters = []
    while pos < end:
        filt, pos = _string(data, pos, end)
        options, pos = _u8(data, pos, end)
        if options & 0xC0:
            raise MalformedPacket("reserved subscription option bits set")
        if (options & 0x03) >= 2:
            raise MalformedPacket("subscription QoS above 1 is not supported")
        filters.append(filt)
    if not filters:
        raise MalformedPacket("SUBSCRIBE with no topic filters")
    return Subscribe(packet_id=packet_id, filters=tuple(filters))


def _decode_suback(data: bytes, pos: int, end: int, flags: int) -> SubAck:
    packet_id, pos = _packet_id(data, pos, end)
    _, pos = _read_properties(data, pos, end, TYPE_SUBACK)
    reasons = tuple(data[pos:end])
    if not reasons:
        raise MalformedPacket("SUBACK with no reason codes")
    return SubAck(packet_id=packet_id, reasons=reasons)


def _decode_pingreq(data: bytes, pos: int, end: int, flags: int) -> PingReq:
    _expect_end(pos, end, "PINGREQ")
    return PingReq()


def _decode_pingresp(data: bytes, pos: int, end: int, flags: int) -> PingResp:
    _expect_end(pos, end, "PINGRESP")
    return PingResp()


def _decode_disconnect(data: bytes, pos: int, end: int, flags: int) -> Disconnect:
    if pos == end:
        return Disconnect(reason=Reason.NORMAL)
    reason, pos = _u8(data, pos, end)
    reference = None
    if pos < end:
        properties, pos = _read_properties(data, pos, end, TYPE_DISCONNECT)
        ref_text = properties.get(PROP_SERVER_REFERENCE)
        if ref_text is not None:
            if not _is_redirect(reason):
                raise MalformedPacket(
                    f"server reference with non-redirect reason 0x{reason:02X}")
            try:
                reference = BrokerRef.parse(ref_text)
            except ValueError as exc:
                raise MalformedPacket(f"bad server reference: {exc}") from exc
    _expect_end(pos, end, "DISCONNECT")
    return Disconnect(reason=reason, server_reference=reference)


# Packet type -> (name, the fixed-header flags it requires, or None when
# the decoder reads them, decoder)
_DECODERS = {
    TYPE_CONNECT: ("CONNECT", 0, _decode_connect),
    TYPE_CONNACK: ("CONNACK", 0, _decode_connack),
    TYPE_PUBLISH: ("PUBLISH", None, _decode_publish),
    TYPE_PUBACK: ("PUBACK", 0, _decode_puback),
    TYPE_SUBSCRIBE: ("SUBSCRIBE", 0x2, _decode_subscribe),
    TYPE_SUBACK: ("SUBACK", 0, _decode_suback),
    TYPE_PINGREQ: ("PINGREQ", 0, _decode_pingreq),
    TYPE_PINGRESP: ("PINGRESP", 0, _decode_pingresp),
    TYPE_DISCONNECT: ("DISCONNECT", 0, _decode_disconnect),
}
