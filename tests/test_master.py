"""Master broker: discovery sweep, per-broker topic census, redirects."""

import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import free_port
from helpers import (
    ScriptedBroker,
    SilentBroker,
    connect,
    count_calls,
    subscribe,
    wait_until,
)
from test_topics import filter_st, name_st
from tdmqtt import master as master_module
from tdmqtt.broker import EdgeBroker
from tdmqtt.client import transparent_subscribe
from tdmqtt.errors import BrokerUnreachable, NoSuchTopic
from tdmqtt.master import DiscoveryConfig, Registry, broker_discovery, topic_discovery
from tdmqtt.packets import (
    BrokerRef,
    ConnAck,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    Reason,
    Subscribe,
    SubAck,
    matching_filters,
    topic_matches,
)


def seed(broker, topic, payload=b"x", qos=0):
    conn = connect(broker.address, f"seed-{topic}")
    pid = {"qos": qos, "packet_id": 1} if qos else {"qos": 0}
    conn.send(Publish(topic, payload, **pid))
    wait_until(lambda: topic in broker.topics())
    conn.close()


def addresses(upto=6):
    return tuple(f"127.0.0.{i}" for i in range(1, upto + 1))


# --- discovery sweep --------------------------------------------------------

def test_probe_finds_exactly_the_listening_brokers(make_fleet):
    brokers, port = make_fleet(3)
    config = DiscoveryConfig(addresses=addresses(6), broker_port=port,
                             timeout=0.25)
    found = broker_discovery(config)
    assert found == sorted((b.address for b in brokers), key=str)


def test_probe_with_no_brokers(make_fleet):
    port = make_fleet(0)[1]
    config = DiscoveryConfig(addresses=addresses(4), broker_port=port,
                             timeout=0.25)
    assert broker_discovery(config) == []


def test_probe_with_empty_address_list():
    config = DiscoveryConfig(addresses=(), broker_port=1883)
    assert broker_discovery(config) == []


# --- topic census -----------------------------------------------------------

def test_census_lists_the_topic_population(broker):
    for topic in ("a", "b/c", "b/d"):
        seed(broker, topic)
    topics = topic_discovery(broker.address, timeout=0.5, listen_window=0.4)
    assert topics == {"a", "b/c", "b/d"}


def test_census_of_idle_broker_is_empty(broker):
    assert topic_discovery(broker.address, 0.5, 0.3) == frozenset()


def test_census_acknowledges_stored_qos1_messages(broker):
    seed(broker, "critical", qos=1)
    topics = topic_discovery(broker.address, 0.5, 0.4)
    assert topics == {"critical"}


def test_census_ends_on_the_pingresp_barrier(broker):
    expected = {f"fleet/dev{i}" for i in range(2000)}
    conn = connect(broker.address, "seeder")
    for topic in sorted(expected):
        conn.send(Publish(topic, b"x"))
    wait_until(lambda: len(broker.topics()) == len(expected))
    conn.close()
    started = time.monotonic()
    topics = topic_discovery(broker.address, 0.5, listen_window=5.0)
    elapsed = time.monotonic() - started
    assert topics == expected
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"


def test_census_without_pingresp_stops_at_the_window(caplog):
    silent = SilentBroker(topics=("a", "b/c"))
    try:
        started = time.monotonic()
        topics = topic_discovery(silent.address, 0.5, listen_window=0.3)
        elapsed = time.monotonic() - started
    finally:
        silent.stop()
    assert topics == {"a", "b/c"}
    assert elapsed >= 0.3
    assert any(r.levelno == logging.WARNING and "no PINGRESP" in r.getMessage()
               for r in caplog.records)


def test_census_window_bounds_the_silence_not_the_replay(caplog):
    topics = {f"slow/{i}" for i in range(10)}

    def slow_replay(conn):
        sub = conn.recv(timeout=5)
        conn.send(SubAck(sub.packet_id, (Reason.SUCCESS,)))
        for topic in sorted(topics):  # 0.4 s in all, 40 ms apart
            time.sleep(0.04)
            conn.send(Publish(topic, b"x", retain=True))
        if conn.recv(timeout=5) == PingReq():
            conn.send(PingResp())
        conn.recv(timeout=5)

    slow = ScriptedBroker(slow_replay)
    try:
        found = topic_discovery(slow.address, 0.5, listen_window=0.25)
    finally:
        slow.stop()
    assert found == topics
    assert not any("no PINGRESP" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("client_id", ["census-{host}-{port}", "anon-1"])
def test_census_does_not_evict_a_client_with_its_old_id(broker, client_id):
    """A census takes over no client's session, whatever its id."""
    ref = broker.address
    bystander = connect(ref, client_id.format(host=ref.host, port=ref.port))
    topic_discovery(ref, 0.5, 0.3)
    bystander.send(PingReq())
    assert bystander.recv(timeout=2) == PingResp()
    bystander.close()


def test_census_against_dead_address_raises(make_fleet):
    port = make_fleet(0)[1]
    with pytest.raises(BrokerUnreachable):
        topic_discovery(BrokerRef("127.0.0.9", port), 0.25, 0.3)


# --- versioned census: an unchanged broker costs one handshake --------------

def put(ref, topic):
    """Publish at QoS 1 and wait for the broker's answer: a PUBACK, or
    the DISCONNECT of a relocated topic."""
    conn = connect(ref)
    conn.send(Publish(topic, b"v", qos=1, packet_id=1))
    answer = conn.recv(timeout=2)
    conn.close()
    assert isinstance(answer, (PubAck, Disconnect)), answer


TOPIC_IDS = st.integers(0, 3)
STEP = st.lists(st.one_of(
    st.tuples(st.just("publish"), TOPIC_IDS),  # a new topic or an update
    st.tuples(st.just("relocate"), TOPIC_IDS, st.booleans()),
    st.tuples(st.just("restart"))), max_size=3)


@settings(max_examples=30, deadline=None)
@example([[("relocate", 0, True), ("publish", 3)]])  # same count, new set
@given(st.lists(STEP, min_size=1, max_size=4))
def test_a_versioned_census_equals_a_full_census(steps):
    """Between censuses of one address: new topics, value updates,
    relocations to a known or an unknown target, and restarts.  A census
    given the last one's topics lists what a full census lists, and
    short-cuts exactly when the topic table neither gained nor lost a
    topic on the same broker."""
    port = free_port()
    known = BrokerRef("127.0.0.2", port)  # a target that is never dialled
    broker = EdgeBroker(port=port).start()
    try:
        for i in range(3):
            put(broker.address, f"t/{i}")
        installed = topic_discovery(broker.address, 0.5, 0.3)
        for step in steps:
            changed = False
            for op in step:
                before = set(broker.topics())
                if op[0] == "restart":
                    broker.stop()
                    broker = EdgeBroker(port=port).start()
                    changed = True
                elif op[0] == "publish":
                    put(broker.address, f"t/{op[1]}")
                else:
                    broker.relocate_topic(f"t/{op[1]}",
                                          known if op[2] else None)
                changed |= set(broker.topics()) != before
            versioned = topic_discovery(broker.address, 0.5, 0.3, installed)
            full = topic_discovery(broker.address, 0.5, 0.3)
            assert versioned == full == set(broker.topics())
            assert (versioned is installed) == (not changed)
            installed = versioned
    finally:
        broker.stop()


def test_a_peer_without_a_version_always_gets_a_full_census():
    subscribes = []

    def census(conn):
        sub = conn.recv(timeout=5)
        if not isinstance(sub, Subscribe):
            return  # a short-cut census: DISCONNECT right after CONNACK
        subscribes.append(sub)
        conn.send(SubAck(sub.packet_id, (Reason.SUCCESS,)))
        conn.send(Publish("t", b"x", retain=True))
        if conn.recv(timeout=5) == PingReq():
            conn.send(PingResp())
        conn.recv(timeout=5)

    peer = ScriptedBroker(census)
    try:
        first = topic_discovery(peer.address, 0.5, 0.3)
        second = topic_discovery(peer.address, 0.5, 0.3, first)
    finally:
        peer.stop()
    assert first == second == {"t"}
    assert len(subscribes) == 2


@pytest.mark.parametrize("ending", ["silence", "disconnect"])
def test_a_census_cut_short_is_replayed_next_time(ending):
    """A census that ends before its PINGRESP keeps what it got, but not
    the version, so the next census of that peer is full again."""
    subscribes = []

    def census(conn):
        sub = conn.recv(timeout=5)
        if not isinstance(sub, Subscribe):
            return  # a short-cut census: DISCONNECT right after CONNACK
        subscribes.append(sub)
        conn.send(SubAck(sub.packet_id, (Reason.SUCCESS,)))
        conn.send(Publish("t", b"x", retain=True))
        if ending == "disconnect":
            conn.send(Disconnect(Reason.NORMAL))
        while conn.recv(timeout=5) is not None:
            pass

    peer = ScriptedBroker(census, connack=ConnAck(
        Reason.SUCCESS, topic_table_version="v"))
    try:
        first = topic_discovery(peer.address, 0.5, 0.2)
        second = topic_discovery(peer.address, 0.5, 0.2, first)
    finally:
        peer.stop()
    assert first == second == {"t"}
    assert len(subscribes) == 2


CHANGE = st.one_of(
    st.tuples(st.just("publish"), TOPIC_IDS),  # a new topic or an update
    st.tuples(st.just("relocate"), TOPIC_IDS, st.booleans()))
BOUNCED_FILTER = st.one_of(st.sampled_from(["#", "t/#", "u/#"]),
                           TOPIC_IDS.map("t/{}".format),
                           filter_st.filter(bool))  # '' is no valid filter


@settings(max_examples=30, deadline=None)
@example([("relocate", 0, False)], "t/0")  # the census ends on a DISCONNECT
@given(st.lists(CHANGE, max_size=4), BOUNCED_FILTER)
def test_a_filtered_census_replaces_only_the_topics_its_filter_matches(
        changes, topic_filter):
    """After new topics, value updates and relocations on one broker, a
    census for one filter keeps the earlier census's topics outside the
    filter and takes what a full census lists inside it.  It carries no
    version unless it was short-cut, so the census after it is full."""
    port = free_port()
    known = BrokerRef("127.0.0.2", port)  # a target that is never dialled
    broker = EdgeBroker(port=port).start()
    try:
        for i in range(3):
            put(broker.address, f"t/{i}")
        installed = topic_discovery(broker.address, 0.5, 0.3)
        changed = False  # did the topic table gain or lose a topic?
        for op in changes:
            before = set(broker.topics())
            if op[0] == "publish":
                put(broker.address, f"t/{op[1]}")
            else:
                broker.relocate_topic(f"t/{op[1]}", known if op[2] else None)
            changed |= set(broker.topics()) != before
        filtered = topic_discovery(broker.address, 0.5, 0.3, installed,
                                   topic_filter)
        full = topic_discovery(broker.address, 0.5, 0.3)
        inside = {t for t in installed | full
                  if topic_matches(topic_filter, t)}
        assert filtered == (installed - inside) | (full & inside)
        assert (filtered is installed) == (not changed)
        if changed and topic_filter != "#":  # only a '#' census is tagged
            assert filtered.version is None
            after = topic_discovery(broker.address, 0.5, 0.3, filtered)
            assert after is not filtered and after == full
            assert after.version is not None
    finally:
        broker.stop()


# --- registry ---------------------------------------------------------------

def test_registry_find_prefers_lowest_address():
    r1, r2 = BrokerRef("127.0.0.1", 1883), BrokerRef("127.0.0.2", 1883)
    reg = Registry({r2: frozenset({"t"}), r1: frozenset({"t"})})
    assert reg.find("t") == r1
    assert reg.find("missing") is None
    assert reg.find("#") == r1


def test_registry_find_matches_wildcards():
    ref = BrokerRef("127.0.0.1", 1883)
    reg = Registry({ref: frozenset({"room/1/temp"})})
    assert reg.find("room/#") == ref
    assert reg.find("garage/#") is None


def test_registry_find_parent_level_and_address_order():
    r1, r2 = BrokerRef("127.0.0.1", 1883), BrokerRef("127.0.0.2", 1883)
    reg = Registry({r1: frozenset({"ab", "b/a"}), r2: frozenset({"a"}),
                    BrokerRef("127.0.0.3", 1883): frozenset()})
    assert reg.find("a/#") == r2  # '#' covers the parent level "a"
    assert reg.find("a") == r2
    assert reg.find("b/#") == r1
    assert reg.find("a/b") is None
    assert Registry().find("#") is None


def linear_find(reg: Registry, filt: str) -> BrokerRef | None:
    """The registry lookup as a scan: the reference for the index."""
    for ref in reg.brokers():
        if any(topic_matches(filt, t) for t in reg.topics_of(ref)):
            return ref
    return None


REFS = [BrokerRef(f"127.0.0.{i}", port) for i in (1, 2, 10) for port in (1883, 1884)]
SHARED = ["a", "a/b", "a/b/c", "ab", "b/a", "/a", "a/"]
topics_st = st.frozensets(st.one_of(st.sampled_from(SHARED), name_st),
                          max_size=6)
entries_st = st.dictionaries(st.sampled_from(REFS), topics_st,
                             max_size=len(REFS))
registry_st = entries_st.map(Registry)


@settings(max_examples=300)
@given(registry_st, filter_st)
@example(Registry({REFS[1]: frozenset({"a"}), REFS[0]: frozenset({"a/b"})}), "a/#")
@example(Registry({REFS[0]: frozenset(), REFS[1]: frozenset({"b"})}), "#")
def test_registry_find_agrees_with_a_linear_scan(reg, filt):
    assert reg.find(filt) == linear_find(reg, filt)


@settings(max_examples=300)
@given(entries_st, st.sampled_from(REFS), st.none() | topics_st, filter_st)
def test_a_registry_built_on_another_finds_what_a_fresh_one_does(
        entries, ref, topics, filt):
    """One edit: replace a broker's topics, add a broker, or (None) drop one."""
    edited = {r: t for r, t in entries.items() if r != ref}
    if topics is not None:
        edited[ref] = topics
    reused, fresh = Registry(edited, Registry(entries)), Registry(edited)
    hosted = set().union(*edited.values(), *entries.values())
    for f in {filt, *(f for t in hosted for f in matching_filters(t))}:
        assert reused.find(f) == fresh.find(f) == linear_find(fresh, f), f


def test_a_rebuilt_registry_reuses_an_unchanged_brokers_filter_set():
    r1, r2, r3 = REFS[0], REFS[2], REFS[4]
    old = Registry({r1: frozenset({"a/b"}), r2: frozenset({"c"})})
    new = Registry({r1: frozenset({"a/b"}), r2: frozenset({"d"}),
                    r3: frozenset({"c"})}, old)
    assert new._index[r1] is old._index[r1]  # an equal, new frozenset
    assert new._index[r2] is not old._index[r2]
    assert (new.find("a/#"), new.find("c"), new.find("d")) == (r1, r3, r2)


def test_master_builds_registry_on_start(make_fleet, make_master):
    brokers, port = make_fleet(2)
    seed(brokers[0], "left/topic")
    seed(brokers[1], "right/topic")
    master = make_master(addresses(4), port)
    reg = master.registry
    assert reg.topics_of(brokers[0].address) == {"left/topic"}
    assert reg.topics_of(brokers[1].address) == {"right/topic"}


def test_refresh_drops_a_dead_broker(make_fleet, make_master):
    brokers, port = make_fleet(2)
    master = make_master(addresses(3), port)
    assert len(master.registry) == 2
    brokers[1].stop()
    master.refresh_registry()
    assert master.registry.brokers() == [brokers[0].address]


def test_resolve_with_refresh_sees_late_topics(make_fleet, make_master):
    brokers, port = make_fleet(1)
    master = make_master(addresses(2), port)
    assert master.registry.find("born/late") is None
    seed(brokers[0], "born/late")
    assert master.registry.find("born/late") is None    # stale snapshot
    assert master.refresh_registry().find("born/late") == brokers[0].address


def test_a_sweep_indexes_only_the_brokers_whose_topics_changed(
        make_fleet, make_master):
    brokers, port = make_fleet(2)
    seed(brokers[0], "a/b")
    master = make_master(addresses(3), port)
    first = master.registry._index
    unchanged = master.refresh_registry()._index
    assert unchanged.keys() == first.keys()
    assert all(unchanged[ref] is first[ref] for ref in first)
    seed(brokers[1], "c")
    registry = master.refresh_registry()
    assert registry.find("c") == brokers[1].address
    assert registry._index[brokers[0].address] is first[brokers[0].address]
    assert registry._index[brokers[1].address] \
        is not first[brokers[1].address]


def test_a_fleet_census_opens_one_connection_per_live_broker(make_fleet,
                                                           make_master):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    master = make_master(addresses(3), port)
    before = [b._server.connection_count for b in brokers]
    master.refresh_registry()
    assert [b._server.connection_count for b in brokers] == [
        n + 1 for n in before]


def test_a_second_sweep_starts_no_thread(make_fleet, make_master,
                                         monkeypatch):
    brokers, port = make_fleet(2)
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)  # the first sweep
    sweeper, started = threading.current_thread(), []
    start = threading.Thread.start

    def counted(thread):
        if threading.current_thread() is sweeper:
            started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    assert master.refresh_registry().find("t") == brokers[1].address
    assert started == []


def test_a_sweep_logs_no_warning_for_a_dead_address(make_fleet, make_master,
                                                    caplog):
    brokers, port = make_fleet(1)
    master = make_master(addresses(3), port)  # 127.0.0.2 and .3 refuse
    assert master.refresh_registry().brokers() == [brokers[0].address]
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.WARNING] == []


def test_a_failed_sweep_lets_the_next_waiter_run_its_own(make_fleet,
                                                         make_master,
                                                         monkeypatch):
    """Two callers queue behind a running sweep; the one that sweeps
    next fails, so the other must run a sweep of its own."""
    brokers, port = make_fleet(1)
    master = make_master(addresses(2), port)
    calls = []
    release = threading.Event()
    sweep = master_module.census_sweep

    def second_one_fails(config, *rest):
        calls.append(config)
        if len(calls) == 1:
            release.wait(timeout=5)
        elif len(calls) == 2:
            seed(brokers[0], "seeded/meanwhile")
            raise RuntimeError("sweep failed")
        return sweep(config, *rest)

    monkeypatch.setattr(master_module, "census_sweep", second_one_fails)
    results = {}

    def refresh(name):
        try:
            results[name] = master.refresh_registry()
        except RuntimeError as exc:
            results[name] = exc

    callers = [threading.Thread(target=refresh, args=(name,))
               for name in ("running", "a", "b")]
    callers[0].start()
    wait_until(lambda: calls)
    callers[1].start()
    callers[2].start()
    time.sleep(0.1)  # both now wait behind the running sweep
    release.set()
    for caller in callers:
        caller.join(timeout=5)
    assert not any(caller.is_alive() for caller in callers)
    assert results["running"].find("seeded/meanwhile") is None
    failed = [n for n in "ab" if isinstance(results[n], RuntimeError)]
    assert len(failed) == 1
    survivor = results["b" if failed == ["a"] else "a"]
    assert survivor.find("seeded/meanwhile") == brokers[0].address
    assert len(calls) == 3


# --- wire protocol ----------------------------------------------------------

def test_subscribe_is_answered_with_a_redirect(make_fleet, make_master):
    brokers, port = make_fleet(2)
    seed(brokers[1], "sensors/room1")
    master = make_master(addresses(3), port)

    conn = connect(master.address, "client-1")
    ack = subscribe(conn, "sensors/room1")
    assert ack == SubAck(1, (Reason.SUCCESS,))
    redirect = conn.recv(timeout=2)
    assert redirect == Disconnect(Reason.USE_ANOTHER_SERVER,
                                  brokers[1].address)
    assert conn.recv(timeout=2) is None  # master hangs up after redirecting


def test_unknown_topic_gets_not_accepted(make_fleet, make_master):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    conn = connect(master.address, "client-2")
    subscribe(conn, "nowhere/to/be/found")
    assert conn.recv(timeout=2) == Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)


def test_invalid_filter_gets_per_filter_reason_then_not_accepted(
        make_fleet, make_master):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    conn = connect(master.address, "client-3")
    ack = subscribe(conn, "x/#/y")
    assert ack.reasons == (Reason.TOPIC_FILTER_NOT_ACCEPTED,)
    assert conn.recv(timeout=2) == Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)


def test_first_resolvable_filter_wins(make_fleet, make_master):
    brokers, port = make_fleet(2)
    seed(brokers[0], "a")
    seed(brokers[1], "b")
    master = make_master(addresses(3), port)
    conn = connect(master.address, "client-4")
    conn.send(Subscribe(1, ("missing", "b", "a")))
    ack = conn.recv(timeout=2)
    assert ack.reasons == (0, 0, 0)
    assert conn.recv(timeout=2) == Disconnect(Reason.USE_ANOTHER_SERVER,
                                              brokers[1].address)
    assert conn.recv(timeout=2) is None  # exactly one redirect per request


def test_wildcard_subscription_resolves(make_fleet, make_master):
    brokers, port = make_fleet(1)
    seed(brokers[0], "room/1/temp")
    master = make_master(addresses(2), port)
    conn = connect(master.address, "client-5")
    subscribe(conn, "room/#")
    assert conn.recv(timeout=2) == Disconnect(Reason.USE_ANOTHER_SERVER,
                                              brokers[0].address)


def test_subscribe_for_topic_published_after_startup(make_fleet, make_master):
    brokers, port = make_fleet(1)
    master = make_master(addresses(2), port)
    seed(brokers[0], "late/arrival")
    conn = connect(master.address, "client-6")
    subscribe(conn, "late/arrival")
    # the miss forces one registry rebuild before answering
    assert conn.recv(timeout=5) == Disconnect(Reason.USE_ANOTHER_SERVER,
                                              brokers[0].address)


def test_publish_to_master_is_redirected_too(make_fleet, make_master):
    brokers, port = make_fleet(1)
    seed(brokers[0], "t")
    master = make_master(addresses(2), port)
    conn = connect(master.address, "pub-1")
    conn.send(Publish("t", b"v"))
    assert conn.recv(timeout=2) == Disconnect(Reason.USE_ANOTHER_SERVER,
                                              brokers[0].address)


def test_master_answers_ping_and_counts_connections(make_fleet, make_master):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    before = master.connection_count
    conn = connect(master.address, "pinger")
    conn.send(PingReq())
    assert conn.recv(timeout=2) == PingResp()
    assert master.connection_count == before + 1


def hold_until_connected(master, clients):
    """A `before` hook for count_calls: hold the first call until `clients`
    more connections are in, so that every request overlaps it."""
    connected = master.connection_count + clients

    def hold(*args):
        wait_until(lambda: master.connection_count >= connected, timeout=2.0)
        time.sleep(0.1)

    return hold


def test_concurrent_misses_share_registry_sweeps(make_fleet, make_master,
                                                 monkeypatch):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    clients = 8
    sweeps = count_calls(monkeypatch, master_module, "census_sweep",
                         before=hold_until_connected(master, clients))
    start = threading.Barrier(clients)

    def miss(_):
        start.wait()
        try:
            transparent_subscribe(master.address, "nowhere/to/be/found",
                                  lambda packet: None, timeout=2.0)
        except Exception as exc:
            return exc
        return None

    with ThreadPoolExecutor(max_workers=clients) as pool:
        errors = list(pool.map(miss, range(clients)))
    assert all(isinstance(e, NoSuchTopic) for e in errors), errors
    assert len(sweeps) <= 2, f"{len(sweeps)} sweeps for {clients} misses"


# --- bounces: a client asking again means the last answer was stale ---------

def ask(master, client_id, filt):
    conn = connect(master.address, client_id)
    subscribe(conn, filt)
    answer = conn.recv(timeout=2)
    conn.close()
    return answer


@pytest.fixture
def sweeps(monkeypatch):
    return count_calls(monkeypatch, master_module, "census_sweep")


@pytest.fixture
def censuses(monkeypatch):
    """The arguments of every topic_discovery call, sweeps' included;
    `census_count(censuses, ref)` counts one broker's."""
    return count_calls(monkeypatch, master_module, "topic_discovery")


def census_count(censuses, ref):
    return sum(args[0] == ref for args in censuses)


def test_a_repeated_request_rebuilds_the_registry_first(make_fleet, make_master,
                                                        sweeps):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[0], "u")
    master = make_master(addresses(3), port)
    sweeps.clear()  # the start-up sweep
    to_first = Disconnect(Reason.USE_ANOTHER_SERVER, brokers[0].address)
    assert ask(master, "c1", "t") == to_first
    assert ask(master, "c2", "t") == to_first  # another client
    assert ask(master, "c1", "u") == to_first  # another filter
    assert sweeps == []

    # the topic moves house and its old home knows no forwarding address;
    # only c1 coming back with the same filter tells the master
    seed(brokers[1], "u")
    brokers[0].relocate_topic("u", None)
    assert ask(master, "c1", "u") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[1].address)
    assert len(sweeps) == 1


def test_a_stopped_host_costs_one_census_of_it_and_no_sweep(
        make_fleet, make_master, sweeps, censuses):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    sweeps.clear()
    censuses.clear()
    session = transparent_subscribe(master.address, "t", lambda packet: None,
                                    keepalive=1.0, timeout=1.0)
    try:
        assert session.broker == brokers[0].address
        brokers[0].stop()
        wait_until(lambda: session.broker == brokers[1].address, timeout=8)
    finally:
        session.close()
    assert ("attach", str(brokers[1].address)) in session.events()
    assert census_count(censuses, brokers[0].address) == len(censuses) == 1
    assert sweeps == []


def test_an_unknown_target_relocation_costs_one_census_of_the_old_home(
        make_fleet, make_master, sweeps, censuses, caplog):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    sweeps.clear()
    censuses.clear()
    caplog.set_level(logging.INFO, logger=master_module.__name__)
    session = transparent_subscribe(master.address, "t", lambda packet: None)
    try:
        assert session.broker == brokers[0].address
        brokers[0].relocate_topic("t", None)
        wait_until(lambda: session.broker == brokers[1].address, timeout=8)
    finally:
        session.close()
    assert census_count(censuses, brokers[0].address) == len(censuses) == 1
    assert sweeps == []
    logged = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("bounce census")]
    assert len(logged) == 1
    assert logged[0].startswith(f"bounce census of {brokers[0].address} in ")
    assert logged[0].endswith(" ms: 1 topic(s) before, 0 after")


def test_concurrent_bounces_off_one_broker_share_its_census(
        make_fleet, make_master, monkeypatch, sweeps):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    clients = 8
    for i in range(clients):
        assert ask(master, f"c{i}", "t") == Disconnect(
            Reason.USE_ANOTHER_SERVER, brokers[0].address)
    brokers[0].relocate_topic("t", None)
    sweeps.clear()
    censuses = count_calls(monkeypatch, master_module, "topic_discovery",
                           before=hold_until_connected(master, clients))
    start = threading.Barrier(clients)

    def bounce(i):
        start.wait(timeout=5)
        return ask(master, f"c{i}", "t")

    with ThreadPoolExecutor(max_workers=clients) as pool:
        answers = list(pool.map(bounce, range(clients)))
    assert answers == [Disconnect(Reason.USE_ANOTHER_SERVER,
                                  brokers[1].address)] * clients
    bounced = census_count(censuses, brokers[0].address)
    assert 1 <= bounced <= 2, f"{bounced} censuses for {clients} bounces"
    assert sweeps == []


class FirstTakerWaits:
    """The sweep lock, but its first taker, holding its ticket, waits out
    `census()`, a census that starts after it arrived."""

    def __init__(self, lock, census):
        self.lock, self.census = lock, census

    def __enter__(self):
        census, self.census = self.census, None
        if census is not None:
            census()
        self.lock.acquire()

    def __exit__(self, *exc):
        self.lock.release()


def test_a_sweep_that_starts_after_a_bounce_serves_as_its_census(
        make_fleet, make_master, sweeps, censuses):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[0].address)
    brokers[0].relocate_topic("t", None)
    sweeps.clear()
    censuses.clear()

    master._sweep_lock = FirstTakerWaits(master._sweep_lock,
                                         master.refresh_registry)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[1].address)
    assert len(sweeps) == 1
    assert census_count(censuses, brokers[0].address) == 1  # the sweep's


def test_a_bounce_census_does_not_serve_as_a_waiting_miss_sweep(
        make_fleet, make_master, sweeps):
    """A census of one broker never stands in for a fleet sweep."""
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[0].address)
    brokers[0].relocate_topic("t", None)
    sweeps.clear()
    bounced = []
    master._sweep_lock = FirstTakerWaits(
        master._sweep_lock, lambda: bounced.append(ask(master, "c1", "t")))
    assert ask(master, "c2", "nowhere") == Disconnect(
        Reason.TOPIC_FILTER_NOT_ACCEPTED)
    assert bounced == [Disconnect(Reason.USE_ANOTHER_SERVER,
                                  brokers[1].address)]
    assert len(sweeps) == 1


def test_a_bounce_that_places_nothing_gets_one_sweep(make_fleet, make_master,
                                                     sweeps, censuses):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    master = make_master(addresses(3), port)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[0].address)
    brokers[0].relocate_topic("t", None)
    sweeps.clear()
    censuses.clear()
    assert ask(master, "c1", "t") == Disconnect(
        Reason.TOPIC_FILTER_NOT_ACCEPTED)
    assert len(sweeps) == 1
    # the bounce's census of the old home, then the sweep's
    assert census_count(censuses, brokers[0].address) == 2


def test_a_miss_against_an_unchanged_fleet_replays_no_broker(
        make_fleet, make_master, monkeypatch):
    brokers, port = make_fleet(3)
    for i, broker in enumerate(brokers):
        seed(broker, f"t/{i}")
    master = make_master(addresses(4), port)
    subscribes = count_calls(monkeypatch, EdgeBroker, "_handle_subscribe")
    with pytest.raises(NoSuchTopic):
        transparent_subscribe(master.address, "nowhere", lambda packet: None,
                              timeout=1.0)
    assert subscribes == []
    assert master.registry.find("t/2") == brokers[2].address


def test_a_broker_restarted_on_its_address_gets_a_full_census(
        make_fleet, make_master, monkeypatch, caplog, _broker_registry):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "u")
    master = make_master(addresses(3), port)
    brokers[1].stop()
    restarted = EdgeBroker(host="127.0.0.2", port=port).start()
    _broker_registry.append(restarted)
    seed(restarted, "u")  # the same topics as before the restart
    subscribes = count_calls(monkeypatch, EdgeBroker, "_handle_subscribe")
    caplog.set_level(logging.INFO, logger=master_module.__name__)
    registry = master.refresh_registry()
    assert [args[0] for args in subscribes] == [restarted]
    assert registry.find("u") == restarted.address
    logged = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("registry refreshed")]
    assert logged[-1].endswith(" (1 of 2 census(es) short-cut)")


def test_a_bounce_off_an_unchanged_broker_costs_one_handshake(
        make_fleet, make_master, monkeypatch, caplog):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    master = make_master(addresses(3), port)
    subscribes = count_calls(monkeypatch, EdgeBroker, "_handle_subscribe")
    caplog.set_level(logging.INFO, logger=master_module.__name__)
    to_first = Disconnect(Reason.USE_ANOTHER_SERVER, brokers[0].address)
    assert ask(master, "c1", "t") == to_first
    assert ask(master, "c1", "t") == to_first  # a re-ask reads as a bounce
    assert subscribes == []
    logged = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("bounce census")]
    assert len(logged) == 1
    assert logged[0].endswith(" ms: 1 topic(s) before, 1 after (unchanged)")


def test_a_bounce_asks_its_old_home_about_the_bounced_filter_only(
        make_fleet, make_master, monkeypatch):
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[0], "v")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[0].address)
    brokers[0].relocate_topic("t", None)
    subscribes = count_calls(monkeypatch, EdgeBroker, "_handle_subscribe")
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[1].address)
    assert [(args[0], args[2].filters) for args in subscribes] == [
        (brokers[0], ("t",))]
    assert master.registry.find("v") == brokers[0].address


def test_a_bounce_for_another_filter_never_serves_as_this_ones_census(
        make_fleet, make_master):
    """c1 bounces on t with its ticket in hand, but waits at the sweep
    lock while c2's census of the same broker for u runs: that census
    did not look at t, so c1 still gets a census of its own."""
    brokers, port = make_fleet(2)
    for topic in ("t", "u"):
        seed(brokers[0], topic)
        seed(brokers[1], topic)
    master = make_master(addresses(3), port)
    to_first = Disconnect(Reason.USE_ANOTHER_SERVER, brokers[0].address)
    to_second = Disconnect(Reason.USE_ANOTHER_SERVER, brokers[1].address)
    assert ask(master, "c1", "t") == to_first
    assert ask(master, "c2", "u") == to_first
    brokers[0].relocate_topic("t", None)
    brokers[0].relocate_topic("u", None)
    bounced = []
    master._sweep_lock = FirstTakerWaits(
        master._sweep_lock, lambda: bounced.append(ask(master, "c2", "u")))
    assert ask(master, "c1", "t") == to_second
    assert bounced == [to_second]


def test_a_filtered_bounce_census_leaves_the_next_census_full(
        make_fleet, make_master):
    """The bounce census for t never saw v arrive, so it must not take
    the version that v moved: the next sweep replays the broker."""
    brokers, port = make_fleet(2)
    seed(brokers[0], "t")
    seed(brokers[1], "t")
    master = make_master(addresses(3), port)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[0].address)
    seed(brokers[0], "v")
    brokers[0].relocate_topic("t", None)
    assert ask(master, "c1", "t") == Disconnect(Reason.USE_ANOTHER_SERVER,
                                                brokers[1].address)
    assert master.refresh_registry().find("v") == brokers[0].address


def test_a_redirect_opens_no_connection_to_its_target(make_fleet, make_master):
    brokers, port = make_fleet(1)
    seed(brokers[0], "t")
    master = make_master(addresses(2), port)
    before = brokers[0]._server.connection_count
    transparent_subscribe(master.address, "t", lambda packet: None).close()
    assert brokers[0]._server.connection_count == before + 1  # the attach


def test_the_answer_map_never_exceeds_its_cap(make_fleet, make_master,
                                              monkeypatch):
    brokers, port = make_fleet(1)
    seed(brokers[0], "t")
    master = make_master(addresses(2), port)
    monkeypatch.setattr(master_module, "_ANSWERS_CAP", 3)
    for i in range(8):
        ask(master, f"c{i}", "t")
        assert len(master._answers) <= 3
    assert list(master._answers) == ["c5", "c6", "c7"]  # the oldest went


def test_the_answer_map_holds_under_concurrent_clients(make_fleet, make_master,
                                                       monkeypatch):
    brokers, port = make_fleet(1)
    seed(brokers[0], "t")
    master = make_master(addresses(2), port)
    monkeypatch.setattr(master_module, "_ANSWERS_CAP", 4)
    answers = []

    def client(n):
        for i in range(15):
            answers.append(ask(master, f"c{n}-{i}", "t"))

    workers = [threading.Thread(target=client, args=(n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert answers == [Disconnect(Reason.USE_ANOTHER_SERVER,
                                  brokers[0].address)] * 90
    assert len(master._answers) == 4
