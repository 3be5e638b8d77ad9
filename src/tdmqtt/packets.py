"""MQTT 5 control packet codec for the broker-redirect protocol subset.

Covers CONNECT, CONNACK, SUBSCRIBE, SUBACK, PUBLISH (QoS 0/1), PUBACK,
PINGREQ, PINGRESP and DISCONNECT, plus the DISCONNECT Server Reference
property that carries "host:port" broker redirects and the CONNACK User
Property that carries an edge broker's topic-table version.  Every
property block is read by one rule: each id's value by the reader its
table entry names, and a repeated id is malformed unless MQTT 5 allows
repeats of it.  Byte layout follows the OASIS MQTT 5 wire format.
Everything here is pure and reentrant; packet values are immutable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Collection

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

# User Property name under which a CONNACK carries the topic-table version.
TOPIC_TABLE_VERSION = "topic-table-version"

# Property id -> the _Reader method that reads its value.  Any id outside
# this table is not a legal MQTT 5 property.
_PROPERTY_KINDS = {
    0x01: "u8", 0x02: "u32", 0x03: "string", 0x08: "string", 0x09: "binary",
    0x0B: "varint", 0x11: "u32", 0x12: "string", 0x13: "u16", 0x15: "string",
    0x16: "binary", 0x17: "u8", 0x18: "u32", 0x19: "u8", 0x1A: "string",
    0x1C: "string", 0x1F: "string", 0x21: "u16", 0x22: "u16", 0x23: "u16",
    0x24: "u8", 0x25: "u8", 0x26: "pair", 0x27: "u32", 0x28: "u8",
    0x29: "u8", 0x2A: "u8",
}

MAX_REMAINING_LENGTH = 268_435_455


class Reason:
    """Reason code bytes this system produces.

    Other received byte values are preserved on the packet but treated as
    Normal for control flow.
    """

    NORMAL = 0x00
    SUCCESS = 0x00
    TOPIC_FILTER_NOT_ACCEPTED = 0x8F
    USE_ANOTHER_SERVER = 0x9C
    SERVER_MOVED = 0x9D


def _is_redirect(reason: int) -> bool:
    """True for the two reason codes that may carry a server reference."""
    return reason in (Reason.USE_ANOTHER_SERVER, Reason.SERVER_MOVED)


class InvalidPacket(ValueError):
    """Packet value violates its invariants; nothing was encoded."""


class MalformedPacket(ValueError):
    """Bytes violate the wire format; the connection must be closed."""


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


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes = b""
    qos: int = 0
    packet_id: int | None = None
    retain: bool = False

    def __post_init__(self):
        object.__setattr__(self, "payload", bytes(self.payload))


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


def matched_topics(filt: str, topics: Collection[str]) -> set[str]:
    """The topics the filter matches, as topic_matches decides, found by
    prefix: 'stem/#' matches the stem itself and every topic that
    starts with 'stem/', '#' matches them all, and any other filter
    matches only itself.  No topic is split into levels."""
    if filt == "#":
        return set(topics)
    if not filt.endswith("/#"):
        return {filt} if filt in topics else set()
    prefix = filt[:-1]  # 'stem/'
    found = {topic for topic in topics if topic.startswith(prefix)}
    if prefix[:-1] in topics:
        found.add(prefix[:-1])
    return found


# ---------------------------------------------------------------------------
# Primitive readers/writers
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    if not 0 <= value <= MAX_REMAINING_LENGTH:
        raise InvalidPacket(f"variable-byte integer out of range: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise InvalidPacket("string longer than 65535 bytes")
    return struct.pack(">H", len(data)) + data


class _Reader:
    """Bounded cursor over one packet body; never reads past its end."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise MalformedPacket("packet body shorter than declared")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def varint(self) -> int:
        value = 0
        for shift in (0, 7, 14, 21):
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
        raise MalformedPacket("variable-byte integer longer than 4 bytes")

    def string(self) -> str:
        size = self.u16()
        try:
            return self.take(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPacket("string is not valid UTF-8") from exc

    def binary(self) -> bytes:
        return self.take(self.u16())

    def pair(self) -> tuple[str, str]:
        return self.string(), self.string()

    def rest(self) -> bytes:
        chunk = self._data[self._pos:]
        self._pos = len(self._data)
        return chunk

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def expect_end(self, what: str) -> None:
        if not self.exhausted:
            raise MalformedPacket(f"trailing bytes after {what}")


def _read_properties(r: _Reader) -> dict:
    """Parse a property block into its values keyed by property id, and
    each User Property's value keyed by its name.

    Every id is read by the _Reader method _PROPERTY_KINDS names for it;
    ids outside the MQTT 5 table, and a repeat of any id but User
    Property and Subscription Identifier, are malformed.  A User
    Property name given twice with different values reads as None.
    """
    body = _Reader(r.take(r.varint()))
    found: dict = {}
    while not body.exhausted:
        pid = body.u8()
        kind = _PROPERTY_KINDS.get(pid)
        if kind is None:
            raise MalformedPacket(f"unknown property id 0x{pid:02X}")
        value = getattr(body, kind)()
        if pid == PROP_USER_PROPERTY:
            name, value = value
            if found.setdefault(name, value) != value:
                found[name] = None
        elif pid in found and pid != PROP_SUBSCRIPTION_IDENTIFIER:
            raise MalformedPacket(f"duplicate property 0x{pid:02X}")
        else:
            found[pid] = value
    return found


def _check_packet_id(packet_id: object, exc: type[ValueError]) -> int:
    if not isinstance(packet_id, int) or isinstance(packet_id, bool):
        raise exc(f"packet id must be an int, got {packet_id!r}")
    if not 1 <= packet_id <= 0xFFFF:
        raise exc(f"packet id out of range: {packet_id}")
    return packet_id


def _check_reason(reason: object, exc: type[ValueError]) -> int:
    if not isinstance(reason, int) or isinstance(reason, bool):
        raise exc(f"reason code must be an int, got {reason!r}")
    if not 0 <= reason <= 0xFF:
        raise exc(f"reason code out of range: {reason}")
    return reason


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _frame(packet_type: int, flags: int, body: bytes) -> bytes:
    return bytes([(packet_type << 4) | flags]) + encode_varint(len(body)) + body


def encode(packet: Packet) -> bytes:
    """Encode a packet to its canonical wire form.

    Raises InvalidPacket when the value violates its invariants, e.g. a
    QoS 1 publish without a packet id.
    """
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
        reason = _check_reason(packet.reason, InvalidPacket)
        props = b""
        if packet.topic_table_version is not None:
            props = (bytes([PROP_USER_PROPERTY]) + _pack_str(TOPIC_TABLE_VERSION)
                     + _pack_str(packet.topic_table_version))
        return _frame(TYPE_CONNACK, 0, bytes([0x00, reason])
                      + encode_varint(len(props)) + props)

    if isinstance(packet, Subscribe):
        pid = _check_packet_id(packet.packet_id, InvalidPacket)
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
        pid = _check_packet_id(packet.packet_id, InvalidPacket)
        if not packet.reasons:
            raise InvalidPacket("suback needs at least one reason code")
        reasons = bytes(_check_reason(rc, InvalidPacket) for rc in packet.reasons)
        return _frame(TYPE_SUBACK, 0, struct.pack(">H", pid) + encode_varint(0) + reasons)

    if isinstance(packet, Publish):
        if packet.qos not in (0, 1):
            raise InvalidPacket(f"unsupported QoS {packet.qos}")
        try:
            validate_topic(packet.topic)
        except MalformedFilter as exc:
            raise InvalidPacket(str(exc)) from exc
        if packet.qos == 1:
            if packet.packet_id is None:
                raise InvalidPacket("QoS 1 publish needs a packet id")
            pid_bytes = struct.pack(">H", _check_packet_id(packet.packet_id, InvalidPacket))
        else:
            if packet.packet_id is not None:
                raise InvalidPacket("QoS 0 publish must not carry a packet id")
            pid_bytes = b""
        flags = (packet.qos << 1) | (1 if packet.retain else 0)
        body = _pack_str(packet.topic) + pid_bytes + encode_varint(0) + packet.payload
        return _frame(TYPE_PUBLISH, flags, body)

    if isinstance(packet, PubAck):
        pid = _check_packet_id(packet.packet_id, InvalidPacket)
        reason = _check_reason(packet.reason, InvalidPacket)
        return _frame(TYPE_PUBACK, 0, struct.pack(">H", pid) + bytes([reason]) + encode_varint(0))

    if isinstance(packet, PingReq):
        return _frame(TYPE_PINGREQ, 0, b"")

    if isinstance(packet, PingResp):
        return _frame(TYPE_PINGRESP, 0, b"")

    if isinstance(packet, Disconnect):
        reason = _check_reason(packet.reason, InvalidPacket)
        if packet.server_reference is not None and not _is_redirect(reason):
            raise InvalidPacket(
                f"server reference not allowed with reason 0x{reason:02X}")
        props = b""
        if packet.server_reference is not None:
            props = bytes([PROP_SERVER_REFERENCE]) + _pack_str(str(packet.server_reference))
        return _frame(TYPE_DISCONNECT, 0, bytes([reason]) + encode_varint(len(props)) + props)

    raise InvalidPacket(f"not a control packet: {packet!r}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode(data: bytes) -> tuple[Packet, int]:
    """Decode one packet from the start of `data`.

    Returns (packet, bytes consumed); trailing bytes are untouched.
    Raises IncompletePacket when more bytes are required and
    MalformedPacket when the stream is unrecoverable.
    """
    if len(data) < 1:
        raise IncompletePacket(needed=1)
    first = data[0]
    packet_type = first >> 4
    flags = first & 0x0F

    # Remaining length: up to 4 varint bytes.
    remaining = 0
    pos = 1
    for shift in (0, 7, 14, 21):
        if pos >= len(data):
            raise IncompletePacket()
        byte = data[pos]
        pos += 1
        remaining |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
    else:
        raise MalformedPacket("remaining length longer than 4 bytes")

    total = pos + remaining
    if len(data) < total:
        raise IncompletePacket(needed=total - len(data))
    r = _Reader(bytes(memoryview(data)[pos:total]))  # one copy, even of a bytearray

    if packet_type == TYPE_CONNECT:
        _require_flags(flags, 0, "CONNECT")
        packet = _decode_connect(r)
    elif packet_type == TYPE_CONNACK:
        _require_flags(flags, 0, "CONNACK")
        packet = _decode_connack(r)
    elif packet_type == TYPE_PUBLISH:
        packet = _decode_publish(r, flags)
    elif packet_type == TYPE_PUBACK:
        _require_flags(flags, 0, "PUBACK")
        packet = _decode_puback(r, remaining)
    elif packet_type == TYPE_SUBSCRIBE:
        _require_flags(flags, 0x2, "SUBSCRIBE")
        packet = _decode_subscribe(r)
    elif packet_type == TYPE_SUBACK:
        _require_flags(flags, 0, "SUBACK")
        packet = _decode_suback(r)
    elif packet_type == TYPE_PINGREQ:
        _require_flags(flags, 0, "PINGREQ")
        r.expect_end("PINGREQ")
        packet = PingReq()
    elif packet_type == TYPE_PINGRESP:
        _require_flags(flags, 0, "PINGRESP")
        r.expect_end("PINGRESP")
        packet = PingResp()
    elif packet_type == TYPE_DISCONNECT:
        _require_flags(flags, 0, "DISCONNECT")
        packet = _decode_disconnect(r, remaining)
    else:
        raise MalformedPacket(f"unsupported packet type {packet_type}")

    return packet, total


def _require_flags(flags: int, expected: int, name: str) -> None:
    if flags != expected:
        raise MalformedPacket(f"bad fixed-header flags 0x{flags:X} for {name}")


def _decode_connect(r: _Reader) -> Connect:
    if r.take(6) != b"\x00\x04MQTT":
        raise MalformedPacket("bad protocol name")
    level = r.u8()
    if level != PROTOCOL_LEVEL:
        raise MalformedPacket(f"unsupported protocol level {level}")
    connect_flags = r.u8()
    if connect_flags & 0x01:
        raise MalformedPacket("reserved connect flag set")
    if connect_flags & ~0x02:
        # Will, username and password are outside this protocol subset.
        raise MalformedPacket(f"unsupported connect flags 0x{connect_flags:02X}")
    keep_alive = r.u16()
    _read_properties(r)
    client_id = r.string()
    r.expect_end("CONNECT")
    return Connect(client_id=client_id, keep_alive=keep_alive)


def _decode_connack(r: _Reader) -> ConnAck:
    ack_flags = r.u8()
    if ack_flags & ~0x01:
        raise MalformedPacket("reserved CONNACK flags set")
    reason = r.u8()
    version = _read_properties(r).get(TOPIC_TABLE_VERSION)
    r.expect_end("CONNACK")
    return ConnAck(reason=reason, topic_table_version=version)


def _decode_publish(r: _Reader, flags: int) -> Publish:
    qos = (flags >> 1) & 0x3
    if qos == 3:
        raise MalformedPacket("QoS bits 0b11 are malformed")
    if qos == 2:
        raise MalformedPacket("QoS 2 is not supported")
    dup = bool(flags & 0x8)
    if dup and qos == 0:
        raise MalformedPacket("DUP set on a QoS 0 publish")
    retain = bool(flags & 0x1)
    topic = r.string()
    try:
        validate_topic(topic)
    except MalformedFilter as exc:
        raise MalformedPacket(str(exc)) from exc
    packet_id = None
    if qos == 1:
        packet_id = _check_packet_id(r.u16(), MalformedPacket)
    _read_properties(r)
    return Publish(topic=topic, payload=r.rest(), qos=qos,
                   packet_id=packet_id, retain=retain)


def _decode_puback(r: _Reader, remaining: int) -> PubAck:
    packet_id = _check_packet_id(r.u16(), MalformedPacket)
    reason = Reason.SUCCESS
    if remaining >= 3:
        reason = r.u8()
    if remaining >= 4:
        _read_properties(r)
    r.expect_end("PUBACK")
    return PubAck(packet_id=packet_id, reason=reason)


def _decode_subscribe(r: _Reader) -> Subscribe:
    packet_id = _check_packet_id(r.u16(), MalformedPacket)
    _read_properties(r)
    filters = []
    while not r.exhausted:
        filt = r.string()
        options = r.u8()
        if options & 0xC0:
            raise MalformedPacket("reserved subscription option bits set")
        if (options & 0x03) >= 2:
            raise MalformedPacket("subscription QoS above 1 is not supported")
        filters.append(filt)
    if not filters:
        raise MalformedPacket("SUBSCRIBE with no topic filters")
    return Subscribe(packet_id=packet_id, filters=tuple(filters))


def _decode_suback(r: _Reader) -> SubAck:
    packet_id = _check_packet_id(r.u16(), MalformedPacket)
    _read_properties(r)
    reasons = tuple(r.rest())
    if not reasons:
        raise MalformedPacket("SUBACK with no reason codes")
    return SubAck(packet_id=packet_id, reasons=reasons)


def _decode_disconnect(r: _Reader, remaining: int) -> Disconnect:
    if remaining == 0:
        return Disconnect(reason=Reason.NORMAL)
    reason = r.u8()
    reference = None
    if remaining >= 2:
        ref_text = _read_properties(r).get(PROP_SERVER_REFERENCE)
        if ref_text is not None:
            if not _is_redirect(reason):
                raise MalformedPacket(
                    f"server reference with non-redirect reason 0x{reason:02X}")
            try:
                reference = BrokerRef.parse(ref_text)
            except ValueError as exc:
                raise MalformedPacket(f"bad server reference: {exc}") from exc
    r.expect_end("DISCONNECT")
    return Disconnect(reason=reason, server_reference=reference)
