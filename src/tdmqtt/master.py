"""Master broker: finds edge brokers, maps their topics, redirects clients.

The master never carries payload traffic.  It censuses every configured
address, with no probe first: it enumerates each listening broker's
topics by subscribing to '#' and collecting the replayed messages up to
a PINGRESP barrier, and keeps the result as an immutable registry
snapshot.  Each broker's topics keep the topic-table version its CONNACK
carried before that census; a later census that reads the same version
in the CONNACK keeps those topics and hangs up, so an unchanged broker
costs one handshake, not a replay.

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
import threading
import time
from bisect import bisect_left, bisect_right, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import stream
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
    covered,
    redirect,
    validate_filters,
)
from .stream import PacketConnection, Server, exchange, serve_mqtt

logger = logging.getLogger(__name__)

_ANSWERS_CAP = 4096  # clients whose last redirect the master remembers
# the standing threads of every census sweep in the process
_CENSUS_THREADS = ThreadPoolExecutor(32, thread_name_prefix="census")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Where and how patiently to look for edge brokers."""

    addresses: tuple[str, ...] = ()
    broker_port: int = 1883
    timeout: float = 0.25        # per address: census dial, CONNACK, SUBACK
    listen_window: float = 0.5   # longest silence a census waits out
    refresh_period: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "addresses", tuple(self.addresses))
        for name in ("timeout", "listen_window", "refresh_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Topics(frozenset):
    """One broker's topics as a census listed them, sorted once into
    `ordered` when built (a merge hands its order in), with the
    topic-table version its CONNACK carried before the census began.
    The version is None when the broker sent none or the census ended
    before its PINGRESP: such a set is never trusted to be complete."""

    __slots__ = ("version", "ordered")

    def __new__(cls, topics=(), version: str | None = None, *,
                ordered: list[str] | None = None):
        self = super().__new__(cls, topics)
        self.version = version
        self.ordered = sorted(self) if ordered is None else ordered
        return self

    def matched(self, topic_filter: str) -> set[str]:
        """The topics the filter covers (packets.covered): the topic it
        names, and the run of `ordered` its prefix starts."""
        named, prefix = covered(topic_filter)
        found = {named} & self
        if prefix is not None:
            ordered = self.ordered
            found.update(ordered[bisect_left(ordered, prefix):bisect_right(
                ordered, prefix, key=lambda topic: topic[:len(prefix)])])
        return found

    def replaced(self, matched: set[str], listed: set[str]) -> Topics:
        """These topics less `matched`, plus `listed`, untagged.  The
        order is carried over, not sorted again: the topics that left
        are deleted and the new ones inserted, each by bisection."""
        ordered = list(self.ordered)
        for topic in (matched - listed) & self:
            del ordered[bisect_left(ordered, topic)]
        for topic in listed - self:
            insort(ordered, topic)
        return Topics(ordered, ordered=ordered)


@dataclass(frozen=True)
class Registry:
    """One consistent view of who hosts what.  Never mutated in place.

    Maps each broker to its Topics in 'host:port' string order
    (127.0.0.10 sorts before 127.0.0.2).  find() returns the first
    broker hosting a topic the filter covers (packets.covered), by set
    membership for the topic it names and by one bisect for its run.
    A census that short-cuts returns the installed Topics itself, so an
    unchanged broker is never sorted again.
    """

    topics_by_broker: dict[BrokerRef, Topics] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "topics_by_broker", dict(sorted(
            self.topics_by_broker.items(), key=lambda entry: str(entry[0]))))

    def brokers(self) -> list[BrokerRef]:
        return list(self.topics_by_broker)

    def topics_of(self, ref: BrokerRef) -> frozenset[str]:
        return self.topics_by_broker.get(ref, frozenset())

    def find(self, topic_filter: str) -> BrokerRef | None:
        """First broker (by address order) hosting a covered topic."""
        named, prefix = covered(topic_filter)
        for ref, topics in self.topics_by_broker.items():
            if named in topics:
                return ref
            if prefix is not None:
                ordered = topics.ordered
                at = bisect_left(ordered, prefix)
                if at < len(ordered) and ordered[at].startswith(prefix):
                    return ref
        return None

    def __len__(self) -> int:
        return len(self.topics_by_broker)


def broker_discovery(config: DiscoveryConfig) -> list[BrokerRef]:
    """The configured brokers that answer a census, in address order."""
    return list(census_sweep(config))


def topic_discovery(ref: BrokerRef, timeout: float, listen_window: float,
                    installed: Topics | None = None,
                    topic_filter: str = "#") -> Topics:
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
    kept = Topics() if installed is None else installed
    with exchange(ref, "", timeout, BrokerUnreachable) as conn:
        version = conn.connack.topic_table_version
        if version is not None and version == kept.version:
            return kept
        conn.send(Subscribe(1, (topic_filter,)), PingReq(), timeout=timeout)
        suback = conn.recv(timeout=timeout)
        if not isinstance(suback, SubAck) \
                or suback.reasons[0] != Reason.SUCCESS:
            raise BrokerUnreachable(f"{ref}: census subscription refused")
        listed: set[str] = set()
        packet = None
        while not isinstance(packet, (PingResp, Disconnect)):
            try:
                packet = conn.recv(timeout=listen_window)
            except TimeoutError:
                logger.warning("census of %s: no PINGRESP within %gs, "
                               "keeping %d topic(s)", ref, listen_window,
                               len(listed))
                break
            if packet is None:
                raise BrokerUnreachable(f"{ref}: hung up during census")
            if isinstance(packet, Publish):
                listed.add(packet.topic)
                if packet.qos == 1:
                    conn.send(PubAck(packet.packet_id), timeout=timeout)
        if topic_filter != "#":
            return kept.replaced(kept.matched(topic_filter), listed)
        return Topics(listed, version if isinstance(packet, PingResp)
                      else None)


def census_sweep(config: DiscoveryConfig, installed: Registry | None = None
                 ) -> dict[BrokerRef, Topics]:
    """Census every configured address, in parallel on the standing
    census threads.

    Returns each answering broker's topics in 'host:port' string order.
    No address is probed first: one with no broker fails the census
    dial within config.timeout and drops out (see _census for how that
    is logged).  A broker whose topic-table version matches its topics
    in `installed` keeps that Topics object for the cost of one
    handshake (see topic_discovery).  One broker's failure never aborts
    the rest of the sweep.
    """
    refs = sorted({BrokerRef(host, config.broker_port)
                   for host in config.addresses}, key=str)
    held = installed.topics_by_broker if installed is not None else {}
    results = _CENSUS_THREADS.map(
        lambda ref: _census(ref, config, held.get(ref)), refs)
    return {ref: topics for ref, topics in zip(refs, results)
            if topics is not None}


def _census(ref: BrokerRef, config: DiscoveryConfig,
            installed: Topics | None, topic_filter: str = "#"
            ) -> Topics | None:
    """One broker's topics, or None (logged) if it cannot be censused.
    A failure is a warning, except a refused dial at an address the
    registry did not hold (`installed` None): a gap in the range."""
    try:
        return topic_discovery(ref, config.timeout, config.listen_window,
                               installed, topic_filter)
    except BrokerUnreachable as exc:
        gap = installed is None \
            and isinstance(exc.__cause__, ConnectionRefusedError)
        logger.log(logging.DEBUG if gap else logging.WARNING,
                   "census failed: %s", exc)
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
        """Census every configured address, swap in the new snapshot
        (a fleet census; see _recensus)."""
        return self._recensus(None)

    def _recensus(self, scope: tuple[BrokerRef, str] | None) -> Registry:
        """Census `scope`, one broker for one filter or (None) the whole
        fleet for '#', and swap in the result.  A broker's census replaces
        its topics, or drops it if it does not answer; an unchanged
        broker keeps its Topics, and so its sorted order, by identity.

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
                registry = Registry(entries)
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
                      self._redirect_for(client_id, accepted),
                      timeout=stream.SEND_TIMEOUT)
        elif isinstance(packet, Publish):
            conn.send(self._redirect_for(client_id, [packet.topic]),
                      timeout=stream.SEND_TIMEOUT)
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
