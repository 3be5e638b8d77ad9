"""Master broker: finds edge brokers, maps their topics, redirects clients.

The master never carries payload traffic.  It probes an address range for
listening brokers, enumerates each broker's topics by subscribing to '#'
and collecting the replayed messages up to a PINGRESP barrier, and keeps
the result as an immutable registry snapshot.  Each broker's topics keep
the topic-table version its CONNACK carried before that census; a later
census that reads the same version in the CONNACK keeps those topics and
hangs up, so an unchanged broker costs one handshake, not a replay.

Clients connect as if the master were an ordinary broker; it answers
their SUBSCRIBE (or PUBLISH) with a DISCONNECT carrying a server
reference to the edge broker that actually hosts the topic, then hangs
up.

A client that asks again for the filter it was last sent away for has
bounced off that broker.  The master then re-censuses that one broker
before it answers, as the paper's T_change prices a topic change (one
census plus one re-subscription).  That census subscribes to the bounced
filter alone, not to '#', so it replays only the topics the filter
matches; the broker's other topics are kept from its last census, and
its next census is a full one.  Only a filter that still has no home
costs a census of the whole fleet.
"""

from __future__ import annotations

import functools
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

from .errors import BrokerUnreachable
from .packets import (
    BrokerRef,
    Disconnect,
    Packet,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    matched_topics,
    redirect,
    validate_filters,
)
from .stream import PacketConnection, Server, exchange, serve_mqtt

logger = logging.getLogger(__name__)

_PROBE_WORKERS = 32
_ANSWERS_CAP = 4096  # clients whose last redirect the master remembers


@dataclass(frozen=True)
class DiscoveryConfig:
    """Where and how patiently to look for edge brokers."""

    addresses: tuple[str, ...] = ()
    broker_port: int = 1883
    timeout: float = 0.25        # per address: TCP probe, census CONNACK, SUBACK
    listen_window: float = 0.5   # longest silence a census waits out
    refresh_period: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "addresses", tuple(self.addresses))
        for name in ("timeout", "listen_window", "refresh_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Registry:
    """One consistent view of who hosts what.  Never mutated in place.

    Construction gives every broker the set of filters that can match
    one of its topics (see packets.matching_filters), and find() returns
    the first broker, in address order, whose set holds the filter.
    Address order is 'host:port' string order: 127.0.0.10 sorts before
    127.0.0.2.  A registry built with `previous` reuses the filter set
    of every broker whose topics equal those `previous` holds for it, so
    a change to one broker indexes that broker alone.
    """

    topics_by_broker: dict[BrokerRef, frozenset[str]] = field(default_factory=dict)
    previous: InitVar[Registry | None] = None
    # broker -> the filters matching its topics, in address order
    _filters: dict[BrokerRef, dict[str, None]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self, previous: Registry | None):
        old = previous.topics_by_broker if previous is not None else {}
        filters = {}
        for ref in self.brokers():
            topics = self.topics_by_broker[ref]
            kept = old.get(ref)
            if kept is topics or kept == topics:  # 'is' spares a full compare
                filters[ref] = previous._filters[ref]
            else:
                filters[ref] = _filters_matching(topics)
        object.__setattr__(self, "_filters", filters)

    def brokers(self) -> list[BrokerRef]:
        return sorted(self.topics_by_broker, key=str)

    def topics_of(self, ref: BrokerRef) -> frozenset[str]:
        return self.topics_by_broker.get(ref, frozenset())

    def find(self, topic_filter: str) -> BrokerRef | None:
        """First broker (by address order) hosting a matching topic."""
        for ref, filters in self._filters.items():
            if topic_filter in filters:
                return ref
        return None

    def __len__(self) -> int:
        return len(self.topics_by_broker)


def _filters_matching(topics: frozenset[str]) -> dict[str, None]:
    """Every filter that matches at least one of the topics, as the keys
    of a dict: a set grown to the same size takes about five times the
    memory (2 MiB against 0.4 MiB for 10 000 topics)."""
    filters = {"#": None} if topics else {}
    for topic in topics:
        filters[topic] = None
        # Longest prefix first: once a prefix's '/#' is present, an
        # earlier topic has already added every shorter one.
        filt, end = topic + "/#", len(topic)
        while filt not in filters:
            filters[filt] = None
            end = topic.rfind("/", 0, end)
            if end == -1:
                break
            filt = topic[:end + 1] + "#"
    return filters


def broker_discovery(config: DiscoveryConfig) -> list[BrokerRef]:
    """Probe every configured address; keep those that accept TCP."""
    if not config.addresses:
        return []
    refs = [BrokerRef(host, config.broker_port) for host in config.addresses]

    def accepts_tcp(ref: BrokerRef) -> bool:
        try:
            with socket.create_connection((ref.host, ref.port),
                                          timeout=config.timeout):
                return True
        except OSError:
            return False

    with ThreadPoolExecutor(max_workers=min(_PROBE_WORKERS, len(refs))) as pool:
        up = list(pool.map(accepts_tcp, refs))
    return sorted((ref for ref, ok in zip(refs, up) if ok), key=str)


class Topics(frozenset):
    """One broker's topics as a census listed them, with the topic-table
    version its CONNACK carried before the census began.  The version is
    None when the broker sent none or the census ended before its
    PINGRESP: such a set is never trusted to be complete."""

    __slots__ = ("version",)

    def __new__(cls, topics, version: str | None = None):
        self = super().__new__(cls, topics)
        self.version = version
        return self


def topic_discovery(ref: BrokerRef, timeout: float, listen_window: float,
                    installed: frozenset[str] | None = None,
                    topic_filter: str = "#") -> frozenset[str]:
    """Ask one broker for its topic population.

    The CONNACK's topic-table version is read first.  When it equals the
    version of `installed` (a Topics from an earlier census of this
    broker), the topic set has not changed since: the census says
    DISCONNECT and returns `installed` itself, so it costs one
    handshake.  Any other answer, a restarted broker's new version or a
    peer that sends none, gets the full census below, tagged with the
    version read before it began.  A topic added during that census
    moves the version past it, so the next census is full again.

    The full census subscribes to '#' with a PINGREQ right behind the
    SUBSCRIBE and records the topic of every message that arrives before
    the PINGRESP.  An EdgeBroker sends the SUBACK and its whole replay
    before it reads the next packet, so the PINGRESP marks the end of
    the replay.  That barrier relies on this broker's packet order: MQTT
    5 does not make other brokers deliver retained messages before
    answering a PINGREQ.  listen_window bounds the silence between
    packets, not the whole census; when a broker falls silent that long
    before its PINGRESP, the census keeps what it has, untagged, and
    logs a warning.

    Any other `topic_filter` replays only the topics it matches: the
    result is `installed` less the topics the filter matches, plus those
    the replay listed.  It is never tagged, because it says nothing of
    the topics outside the filter, so the next census is a full one.

    The census connects with an empty client id, so the broker assigns
    a fresh one and concurrent censuses of one broker never evict each
    other.  It is one stream.exchange, ending with a DISCONNECT: it
    raises BrokerUnreachable if the broker refuses, breaks the handshake,
    or dies mid-census; a DISCONNECT from the broker just ends it early.
    """
    with exchange(ref, "", timeout, BrokerUnreachable) as conn:
        version = conn.connack.topic_table_version
        if version is not None \
                and version == getattr(installed, "version", None):
            return installed
        if topic_filter == "#":
            return _replay(conn, ref, timeout, listen_window, "#", version)
        listed = _replay(conn, ref, timeout, listen_window, topic_filter)
        return Topics(listed | _unmatched(installed or frozenset(),
                                          topic_filter))


def _unmatched(topics: frozenset[str], topic_filter: str) -> frozenset[str]:
    """The topics that topic_filter does not match."""
    return topics - matched_topics(topic_filter, topics)


def _replay(conn: PacketConnection, ref: BrokerRef, timeout: float,
            listen_window: float, topic_filter: str,
            version: str | None = None) -> Topics:
    """The census of topic_discovery, on a connection past CONNACK: the
    topics the broker replays for one subscription to topic_filter,
    tagged with `version` only if its PINGRESP came."""
    conn.send(Subscribe(1, (topic_filter,)), PingReq())
    suback = conn.recv(timeout=timeout)
    if not isinstance(suback, SubAck) or suback.reasons[0] != Reason.SUCCESS:
        raise BrokerUnreachable(f"{ref}: census subscription refused")
    topics: set[str] = set()
    while True:
        try:
            packet = conn.recv(timeout=listen_window)
        except TimeoutError:
            logger.warning("census of %s: no PINGRESP within %gs, "
                           "keeping %d topic(s)", ref, listen_window,
                           len(topics))
            return Topics(topics)
        if packet is None:
            raise BrokerUnreachable(f"{ref}: hung up during census")
        if isinstance(packet, Publish):
            topics.add(packet.topic)
            if packet.qos == 1:
                conn.send(PubAck(packet.packet_id))
        elif isinstance(packet, PingResp):
            return Topics(topics, version)
        elif isinstance(packet, Disconnect):
            return Topics(topics)


def census_sweep(config: DiscoveryConfig, installed: Registry | None = None
                 ) -> dict[BrokerRef, frozenset[str]]:
    """Probe the fleet, then census every broker found, in parallel.

    Returns each answering broker's topics in 'host:port' string order.
    A broker whose topic-table version matches its topics in `installed`
    keeps that set for the cost of one handshake (see topic_discovery).
    A broker that dies between probe and census just drops out; one
    broker's failure never aborts the rest of the sweep.
    """
    refs = broker_discovery(config)
    if not refs:
        return {}
    installed = installed or Registry()
    with ThreadPoolExecutor(max_workers=min(_PROBE_WORKERS, len(refs))) as pool:
        results = list(pool.map(
            lambda ref: _census(ref, config, installed.topics_of(ref)), refs))
    return {ref: topics for ref, topics in zip(refs, results)
            if topics is not None}


def _census(ref: BrokerRef, config: DiscoveryConfig,
            installed: frozenset[str] | None,
            topic_filter: str = "#") -> frozenset[str] | None:
    """One broker's topics, or None (logged) if it cannot be censused."""
    try:
        return topic_discovery(ref, config.timeout, config.listen_window,
                               installed, topic_filter)
    except BrokerUnreachable as exc:
        logger.warning("census failed: %s", exc)
        return None


class MasterBroker:
    """Topic directory speaking MQTT on the client side."""

    def __init__(self, discovery: DiscoveryConfig,
                 host: str = "127.0.0.1", port: int = 1884):
        self._discovery = discovery
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._sweep_lock = threading.Lock()  # held for the length of a census
        self._started = 0  # censuses started, of either scope
        # scope (a broker and filter, or None for the fleet) -> the number
        # of its last census that returned
        self._returned: dict[tuple[BrokerRef, str] | None, int] = {}
        self._registry = Registry()
        # client id -> (broker, filter) of its last redirect
        self._answers: dict[str, tuple[BrokerRef, str]] = {}
        self._server = Server(host)
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MasterBroker":
        self.refresh_registry()
        self._port = self._server.listen(self._port, functools.partial(
            serve_mqtt, attach=lambda conn, connect: (conn, connect.client_id),
            handle=self._answer))
        self._server.spawn(self._refresh_loop)
        logger.info("master listening on %s, %d broker(s) registered",
                    self.address, len(self.registry))
        return self

    def stop(self) -> None:
        self._stop.set()
        self._server.stop()

    @property
    def address(self) -> BrokerRef:
        return BrokerRef(self._host, self._port)

    @property
    def connection_count(self) -> int:
        """Lifetime accepted client connections."""
        return self._server.connection_count

    # -- registry -----------------------------------------------------------

    @property
    def registry(self) -> Registry:
        with self._lock:
            return self._registry

    def refresh_registry(self) -> Registry:
        """Probe, census every reachable broker, swap in the new snapshot
        (a fleet census; see _recensus)."""
        return self._recensus(None)

    def _recensus(self, scope: tuple[BrokerRef, str] | None) -> Registry:
        """Census `scope`, one broker for one filter or (None) the whole
        fleet for '#', and swap in the result.  A broker's census replaces
        its topics, or drops it if it does not answer; the new snapshot
        indexes only the brokers whose topics changed.

        Single-flight: every caller gets the result of a census of its
        scope, or of the fleet, that started after it called, so N
        concurrent callers cost at most two censuses of their scope, and
        no census installs a view older than one that has returned.  A
        census of the same broker for another filter never serves: it
        did not look at this filter's topics.
        """
        ticket = self._started
        with self._sweep_lock:
            if max(self._returned.get(None, 0),
                   self._returned.get(scope, 0)) <= ticket:
                self._started += 1
                installed = self._registry
                kept = installed.topics_by_broker
                if scope is None:
                    entries = census_sweep(self._discovery, installed)
                    logger.info(
                        "registry refreshed: %s (%d of %d census(es) "
                        "short-cut)", {str(r): len(t) for r, t
                                       in entries.items()} or "empty",
                        sum(t is kept.get(r) for r, t in entries.items()),
                        len(entries))
                else:
                    ref, topic_filter = scope
                    began = time.monotonic()
                    topics = _census(ref, self._discovery, kept.get(ref),
                                     topic_filter)
                    entries = dict(kept)
                    before = len(entries.pop(ref, ()))
                    if topics is not None:
                        entries[ref] = topics
                    logger.info("bounce census of %s in %.1f ms: %d topic(s) "
                                "before, %s after%s", ref,
                                (time.monotonic() - began) * 1e3, before,
                                "none (dropped)" if topics is None
                                else len(topics),
                                " (unchanged)" if topics is not None
                                and topics is kept.get(ref) else "")
                registry = Registry(entries, installed)
                with self._lock:
                    self._registry = registry
                if scope is None:  # newer than every broker's census
                    self._returned.clear()
                self._returned[scope] = self._started
        return self.registry

    def _refresh_loop(self) -> None:
        while not self._stop.wait(self._discovery.refresh_period):
            try:
                self.refresh_registry()
            except Exception:
                logger.exception("periodic refresh failed")

    # -- client side ----------------------------------------------------------

    def _answer(self, session: tuple[PacketConnection, str],
                packet: Packet) -> bool:
        """Answer one SUBSCRIBE or PUBLISH with a redirect; always hang up."""
        conn, client_id = session
        if isinstance(packet, Subscribe):
            reasons, accepted = validate_filters(packet.filters)
            conn.send(SubAck(packet.packet_id, reasons),
                      self._redirect_for(client_id, accepted))
        elif isinstance(packet, Publish):
            conn.send(self._redirect_for(client_id, [packet.topic]))
        return False

    def _redirect_for(self, client_id: str, filters: list[str]) -> Disconnect:
        """One redirect per request: the broker for the first filter we
        can place.

        No target is probed.  A client that asks again for the filter it
        was last sent away for has bounced off that broker (it died, hung
        or gave the topic up), so that one broker is censused again for
        that filter before the first look.  A request that still finds
        no home gets one fleet sweep and a second look.
        """
        if not filters:
            return redirect(None)
        with self._lock:
            last = self._answers.pop(client_id, None)
        bounced = last is not None and last[1] in filters
        registry = self._recensus(last) if bounced else self.registry
        found = _place(registry, filters) \
            or _place(self.refresh_registry(), filters)
        if found is None:
            return redirect(None)
        filt, ref = found
        logger.info("redirecting %r to %s%s", filt, ref,
                    f" (bounced off {last[0]})" if bounced else "")
        if client_id:
            with self._lock:  # newest last, oldest dropped
                self._answers[client_id] = (ref, filt)
                if len(self._answers) > _ANSWERS_CAP:
                    del self._answers[next(iter(self._answers))]
        return redirect(ref)


def _place(registry: Registry,
           filters: list[str]) -> tuple[str, BrokerRef] | None:
    """The first filter the registry can place, with its broker."""
    for filt in filters:
        ref = registry.find(filt)
        if ref is not None:
            return filt, ref
    return None
