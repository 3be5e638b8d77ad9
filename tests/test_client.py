"""Transparent subscriber sessions and the publish helpers."""

import socket
import sys
import threading
import time

import pytest

from conftest import free_port
from helpers import (
    ScriptedBroker,
    SilentBroker,
    connect,
    drain,
    hung_listener,
    subscribe,
    wait_until,
)
from tdmqtt import client as client_module
from tdmqtt import master as master_module
from tdmqtt.client import (
    SessionState,
    SubscriberSession,
    publish,
    transparent_publish,
    transparent_subscribe,
)
from tdmqtt.errors import (
    BrokerUnreachable,
    MasterUnreachable,
    NoSuchTopic,
    Redirected,
)
from tdmqtt.packets import (
    BrokerRef,
    Disconnect,
    MalformedFilter,
    MalformedPacket,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    Reason,
    SubAck,
    Subscribe,
    redirect,
)


class Sink:
    def __init__(self):
        self.messages = []
        self._got = threading.Event()

    def __call__(self, packet):
        self.messages.append(packet)
        self._got.set()

    def payloads(self):
        return [m.payload for m in self.messages]

    def wait(self, n=1, timeout=5.0):
        wait_until(lambda: len(self.messages) >= n, timeout)
        return self.messages


@pytest.fixture
def sink():
    return Sink()


@pytest.fixture
def sessions():
    opened = []
    yield opened
    for session in opened:
        session.close()


def addresses(upto):
    return tuple(f"127.0.0.{i}" for i in range(1, upto + 1))


def open_session(sessions, master, topic, sink, **kwargs):
    kwargs.setdefault("keepalive", 2.0)
    kwargs.setdefault("timeout", 2.0)
    session = transparent_subscribe(master.address, topic, sink, **kwargs)
    sessions.append(session)
    return session


def test_subscribe_knowing_only_the_master(make_fleet, make_master, sink,
                                           sessions):
    brokers, port = make_fleet(2)
    publish(brokers[1].address, "sensors/room1", b"initial")
    master = make_master(addresses(3), port)

    session = open_session(sessions, master, "sensors/room1", sink)
    assert session.broker == brokers[1].address
    assert session.state is SessionState.SUBSCRIBED

    # the broker replays the last message on attach, then routes new ones
    assert sink.wait(1)[0].payload == b"initial"
    publish(brokers[1].address, "sensors/room1", b"fresh")
    assert sink.wait(2)[1].payload == b"fresh"

    kinds = [kind for kind, _ in session.events()]
    assert kinds[:3] == ["resolve", "redirect", "attach"]


def test_the_trail_grows_with_attachments_not_messages(make_fleet,
                                                       make_master, sink,
                                                       sessions):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "busy", b"0")
    master = make_master(addresses(2), port)
    session = open_session(sessions, master, "busy", sink)
    for i in range(1, 501):
        publish(brokers[0].address, "busy", str(i).encode())
    assert sink.wait(501)[-1].payload == b"500"
    assert len(session.events()) < 10
    assert [kind for kind, _ in session.events()] == [
        "resolve", "redirect", "attach", "message"]


def test_the_timeline_stamps_the_trail_with_monotonic_times(
        make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "timed", b"v")
    master = make_master(addresses(2), port)
    before = time.monotonic()
    session = open_session(sessions, master, "timed", sink)
    sink.wait(1)
    after = time.monotonic()
    timeline = session.timeline()
    assert [(kind, detail) for _, kind, detail in timeline] \
        == session.events()
    assert [kind for _, kind, _ in timeline] == [
        "resolve", "redirect", "attach", "message"]
    times = [t for t, _, _ in timeline]
    assert before <= times[0] and times == sorted(times) and times[-1] <= after


def test_unknown_topic_raises_before_returning(make_fleet, make_master, sink,
                                               sessions):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    with pytest.raises(NoSuchTopic):
        open_session(sessions, master, "never/published", sink)


def test_dead_master_raises(sink, sessions):
    from conftest import free_port
    dead = BrokerRef("127.0.0.1", free_port())

    class FakeMaster:
        address = dead

    with pytest.raises(MasterUnreachable):
        open_session(sessions, FakeMaster, "t", sink, timeout=0.5)


def test_bad_filter_rejected_without_any_network(sink):
    with pytest.raises(MalformedFilter):
        transparent_subscribe(BrokerRef("127.0.0.1", 1), "a/+/b", sink)


def test_failover_to_surviving_broker(make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(2)
    publish(brokers[0].address, "t/failover", b"v1")
    master = make_master(addresses(3), port)
    session = open_session(sessions, master, "t/failover", sink,
                           keepalive=1.0, timeout=1.0)
    assert session.broker == brokers[0].address
    sink.wait(1)

    # the topic's publisher moves to the second broker, then the first dies
    publish(brokers[1].address, "t/failover", b"v2")
    brokers[0].stop()

    wait_until(lambda: session.broker == brokers[1].address, timeout=8)
    assert session.state is SessionState.SUBSCRIBED
    publish(brokers[1].address, "t/failover", b"v3")
    wait_until(lambda: b"v3" in sink.payloads(), timeout=5)
    kinds = [kind for kind, _ in session.events()]
    assert "lost" in kinds


def test_relocation_with_target_bypasses_the_master(make_fleet, make_master,
                                                    sink, sessions):
    brokers, port = make_fleet(2)
    publish(brokers[0].address, "mv/t", b"v1")
    master = make_master(addresses(3), port)
    session = open_session(sessions, master, "mv/t", sink)
    sink.wait(1)
    consults_before = master.connection_count

    brokers[0].relocate_topic("mv/t", brokers[1].address)
    wait_until(lambda: session.broker == brokers[1].address, timeout=5)

    assert master.connection_count == consults_before  # went direct
    publish(brokers[1].address, "mv/t", b"v2")
    wait_until(lambda: b"v2" in sink.payloads(), timeout=5)
    kinds = [kind for kind, _ in session.events()]
    assert "moved" in kinds and "resolve" in kinds[:1]


def test_relocation_without_target_goes_back_to_master(make_fleet, make_master,
                                                       sink, sessions):
    brokers, port = make_fleet(2)
    publish(brokers[0].address, "mv/u", b"v1")
    master = make_master(addresses(3), port, refresh_period=0.4)
    session = open_session(sessions, master, "mv/u", sink)
    sink.wait(1)
    consults_before = master.connection_count

    # the publisher has already moved house; the old broker only knows
    # the topic is gone, not where to
    publish(brokers[1].address, "mv/u", b"v2")
    brokers[0].relocate_topic("mv/u", None)

    wait_until(lambda: session.broker == brokers[1].address, timeout=10)
    assert master.connection_count > consults_before  # had to ask
    publish(brokers[1].address, "mv/u", b"v3")
    wait_until(lambda: b"v3" in sink.payloads(), timeout=5)


def test_unknown_target_relocation_needs_no_periodic_refresh(
        make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(2)
    publish(brokers[0].address, "mv/w", b"v1")
    master = make_master(addresses(3), port, refresh_period=30)
    session = open_session(sessions, master, "mv/w", sink)
    sink.wait(1)

    publish(brokers[1].address, "mv/w", b"v2")
    brokers[0].relocate_topic("mv/w", None)
    # the re-ask, not the census 30 s away, tells the master to look again
    wait_until(lambda: session.broker == brokers[1].address, timeout=2.0)


def test_open_passes_over_a_censused_broker_that_hung(make_fleet, make_master,
                                                      sink, sessions):
    brokers, port = make_fleet(2)
    for broker in brokers:
        publish(broker.address, "hung/t", b"v")
    master = make_master(addresses(3), port)
    brokers[0].stop()
    with hung_listener(brokers[0].address):
        session = SubscriberSession(master.address, "hung/t", sink,
                                    timeout=0.5)
        sessions.append(session)
        session.open()
    assert session.broker == brokers[1].address


def test_relocation_chain_is_followed(make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(3)
    publish(brokers[0].address, "hop", b"v1")
    master = make_master(addresses(4), port)
    session = open_session(sessions, master, "hop", sink)
    brokers[0].relocate_topic("hop", brokers[1].address)
    wait_until(lambda: session.broker == brokers[1].address, timeout=5)
    brokers[1].relocate_topic("hop", brokers[2].address)
    wait_until(lambda: session.broker == brokers[2].address, timeout=5)
    assert session.state is SessionState.SUBSCRIBED


def test_a_topic_moved_back_does_not_loop_its_subscriber(
        make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(2)
    a, b = brokers
    publish(a.address, "back", b"v1")
    master = make_master(addresses(3), port)
    session = open_session(sessions, master, "back", sink)
    sink.wait(1)
    publish(b.address, "back", b"v2")
    before = [broker._server.connection_count for broker in brokers]
    a.relocate_topic("back", b.address)
    wait_until(lambda: b"v2" in sink.payloads())  # B's replay
    b.relocate_topic("back", a.address)  # A still sends "back" to B

    def settled():
        if session.wait(0):
            return True
        home = next((x.address for x in brokers if "back" in x.topics()), None)
        return home is not None and session.broker == home \
            and session.state is SessionState.SUBSCRIBED

    wait_until(settled, timeout=15)
    assert session.wait(0) is False or isinstance(session.error, NoSuchTopic)
    opened = [broker._server.connection_count - n
              for broker, n in zip(brokers, before)]
    assert max(opened) <= 6, opened


def test_unresponsive_broker_detected_by_ping_probe(make_fleet, make_master,
                                                    sink, sessions):
    # a broker that freezes without closing its sockets: only the missing
    # ping replies give it away
    stalled = SilentBroker(topics=("frozen/t",))
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "frozen/t", b"vnew")
    master = make_master(addresses(2), port)
    try:
        session = SubscriberSession(master.address, "frozen/t", sink,
                                    keepalive=0.4, timeout=0.4)
        conn = session._attach(stalled.address)
        session._start_thread(conn)
        sessions.append(session)

        started = time.monotonic()
        wait_until(lambda: session.broker == brokers[0].address, timeout=8)
        elapsed = time.monotonic() - started
        # detection needs one quiet keepalive interval plus the probe wait
        assert elapsed < 6.0
        kinds = [kind for kind, _ in session.events()]
        assert "lost" in kinds
        assert session.state is SessionState.SUBSCRIBED
    finally:
        stalled.stop()


def test_close_is_idempotent_and_final(make_fleet, make_master, sink, sessions):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "c", b"v")
    master = make_master(addresses(2), port)
    session = open_session(sessions, master, "c", sink)
    session.close()
    session.close()
    assert session.state is SessionState.CLOSED
    # no reconnect attempts after close
    events_after = session.events()
    time.sleep(0.3)
    assert session.events() == events_after


def test_sequential_sessions_are_pumped_by_one_reused_thread(
        make_fleet, make_master):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "seq", b"v")
    master = make_master(addresses(2), port)
    pumps = []  # the thread behind each on_message, kept alive by the list
    names, client_ids = [], []
    for _ in range(10):
        delivered = threading.Event()

        def on_message(packet, delivered=delivered):
            pumps.append(threading.current_thread())
            names.append(threading.current_thread().name)
            delivered.set()

        session = transparent_subscribe(master.address, "seq", on_message,
                                        keepalive=2.0, timeout=2.0)
        client_ids.append(session.client_id)
        try:
            assert delivered.wait(5)
        finally:
            session.close()
    assert len(pumps) == 10
    assert len(set(pumps)) == 1, f"{len(set(pumps))} threads for 10 sessions"
    # the traced benchmark attributes a pump's dials by this name
    assert names == [f"subscriber-{cid}" for cid in client_ids]


def test_close_inside_on_message_returns_and_ends_the_session(
        make_fleet, make_master):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "inside", b"v")
    master = make_master(addresses(2), port)
    closed = threading.Event()

    def on_message(packet):
        session.close()  # on the session's own pump: must not wait on itself
        closed.set()

    session = SubscriberSession(master.address, "inside", on_message,
                                keepalive=2.0, timeout=2.0)
    try:
        session.open()
        assert closed.wait(5)
        assert session.wait(5)
        assert session.state is SessionState.CLOSED
    finally:
        session.close()


def test_at_most_one_idle_pump_stays_after_concurrent_sessions(
        make_fleet, make_master, sink):
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "many", b"v")
    master = make_master(addresses(2), port)
    pumps = set()

    def on_message(packet):
        pumps.add(threading.current_thread())
        sink(packet)

    opened = [transparent_subscribe(master.address, "many", on_message,
                                    keepalive=2.0, timeout=2.0)
              for _ in range(4)]
    try:
        sink.wait(4)
        assert len(pumps) == 4  # all four ran at once
    finally:
        for session in opened:
            session.close()
    assert all(session.wait(0) for session in opened)
    wait_until(lambda: sum(t.is_alive() for t in pumps) <= 1)


def test_racing_sessions_lose_no_session_and_keep_one_idle_pump(
        make_fleet, make_master):
    """Four threads open and close sessions at once; every session is
    pumped, and the idle pump slot ends up holding at most one thread."""
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "race", b"v")
    master = make_master(addresses(2), port)
    pumps, missed = set(), []

    def opener():
        for _ in range(10):
            got = threading.Event()

            def on_message(packet, got=got):
                pumps.add(threading.current_thread())
                got.set()

            session = transparent_subscribe(master.address, "race",
                                            on_message, keepalive=2.0,
                                            timeout=2.0)
            try:
                if not got.wait(5):
                    missed.append(session.client_id)
            finally:
                session.close()
            if not session.wait(5):
                missed.append(session.client_id)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    openers = [threading.Thread(target=opener) for _ in range(4)]
    try:
        for o in openers:
            o.start()
        for o in openers:
            o.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(o.is_alive() for o in openers)
    assert missed == []
    wait_until(lambda: sum(t.is_alive() for t in pumps) <= 1)


# --- recovery paths --------------------------------------------------------------

def test_a_move_to_a_dead_broker_asks_the_master(make_fleet, make_master,
                                                 sink, sessions):
    brokers, port = make_fleet(2)
    a, b = brokers
    publish(a.address, "mv/dead", b"v1")
    master = make_master(addresses(3), port)
    session = open_session(sessions, master, "mv/dead", sink)
    sink.wait(1)
    publish(b.address, "mv/dead", b"v2")
    dead = BrokerRef("127.0.0.3", port)  # censused, but no broker there
    a.relocate_topic("mv/dead", dead)
    wait_until(lambda: session.broker == b.address, timeout=5)
    trail = session.events()
    moved = trail.index(("moved", str(dead)))
    assert trail[moved + 1] == ("resolve", str(master.address))
    assert ("attach", str(dead)) not in trail


def kinds_since_loss(session) -> list[str]:
    """The kinds of the session's events from its first loss on."""
    kinds = [kind for kind, _ in session.events()]
    return kinds[kinds.index("lost"):] if "lost" in kinds else []


def test_recovery_retries_an_unreachable_master_until_one_answers(
        make_fleet, make_master, sink, sessions, monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_FIRST", 0.05)
    monkeypatch.setattr(client_module, "BACKOFF_CAP", 0.1)
    brokers, port = make_fleet(2)
    a, b = brokers
    publish(a.address, "down/m", b"v1")
    master_port = free_port()
    master = make_master(addresses(2), port, port=master_port)
    session = open_session(sessions, master, "down/m", sink)
    sink.wait(1)
    master.stop()
    publish(b.address, "down/m", b"v2")
    a.stop()

    wait_until(lambda: kinds_since_loss(session).count("resolve") >= 3)
    assert set(kinds_since_loss(session)) == {"lost", "resolve"}  # no answer
    make_master(addresses(2), port, port=master_port)  # the same address
    wait_until(lambda: session.broker == b.address)
    asks = kinds_since_loss(session).count("resolve")
    time.sleep(0.3)  # several back-off caps: a retry would show by now
    assert kinds_since_loss(session).count("resolve") == asks
    assert kinds_since_loss(session).count("attach") == 1
    assert session.state is SessionState.SUBSCRIBED


def test_a_long_attachment_resets_the_back_off(make_fleet, make_master, sink,
                                              sessions, monkeypatch):
    monkeypatch.setattr(client_module, "QUICK_BOUNCE_S", 0.2)
    brokers, port = make_fleet(1)
    publish(brokers[0].address, "reset/t", b"v")
    master = make_master(addresses(1), port)
    session = open_session(sessions, master, "reset/t", sink)
    sink.wait(1)
    time.sleep(0.3)  # the attachment outlives QUICK_BOUNCE_S
    session._backoff = client_module.BACKOFF_CAP  # as after quick bounces
    master.stop()
    brokers[0].stop()

    wait_until(lambda: kinds_since_loss(session).count("resolve") >= 2)
    timeline = session.timeline()
    kinds = [kind for _, kind, _ in timeline]
    # the master is down, so every event after the loss is an ask
    lost_at, first, second = (
        t for t, _, _ in timeline[kinds.index("lost"):][:3])
    assert first - lost_at < client_module.BACKOFF_FIRST  # no pause
    # the second ask waits BACKOFF_FIRST, not the BACKOFF_CAP left over
    assert second - first < client_module.BACKOFF_CAP / 2


def test_a_refused_suback_is_broker_unreachable_and_hangs_up():
    received = []

    def refuse(conn):
        while (packet := conn.recv(timeout=5)) is not None:
            received.append(packet)
            if isinstance(packet, Subscribe):
                conn.send(SubAck(packet.packet_id,
                                 (Reason.TOPIC_FILTER_NOT_ACCEPTED,)))
        received.append(None)

    peer = ScriptedBroker(refuse)
    session = SubscriberSession(BrokerRef("127.0.0.1", 1), "t",
                                lambda packet: None, timeout=0.5)
    try:
        # the error's traceback holds the connection: no collector closes it
        with pytest.raises(BrokerUnreachable,
                           match="refused filter") as refused:
            session._attach(peer.address)
        wait_until(lambda: received[-1:] == [None])  # the client hung up
        assert session.broker is None and refused.traceback
    finally:
        peer.stop()


@pytest.mark.parametrize("answer", [b"\x00\x00", b""],
                         ids=["not_a_packet", "nothing"])
def test_an_attach_answered_by_no_suback_is_broker_unreachable(answer):
    """Bytes that are not a packet, or silence past the timeout, after
    the CONNACK: BrokerUnreachable, and the client hangs up."""
    received = []

    def script(conn):
        received.append(conn.recv(timeout=5))  # the SUBSCRIBE
        conn._sock.sendall(answer)
        received.append(conn.recv(timeout=5))

    peer = ScriptedBroker(script)
    session = SubscriberSession(BrokerRef("127.0.0.1", 1), "t",
                                lambda packet: None, timeout=0.3)
    try:
        with pytest.raises(BrokerUnreachable) as failed:
            session._attach(peer.address)
        assert isinstance(failed.value.__cause__,
                          MalformedPacket if answer else TimeoutError)
        wait_until(lambda: received[-1:] == [None])  # the client hung up
        assert session.broker is None
    finally:
        peer.stop()


def test_a_qos1_delivery_is_acknowledged_with_its_packet_id(sink, sessions):
    received = []

    def deliver(conn):
        request = conn.recv(timeout=5)
        conn.send(SubAck(request.packet_id, (Reason.SUCCESS,)))
        conn.send(Publish("q1/t", b"v", qos=1, packet_id=77))
        while (packet := conn.recv(timeout=5)) is not None:
            received.append(packet)

    peer = ScriptedBroker(deliver)
    session = SubscriberSession(BrokerRef("127.0.0.1", 1), "q1/t", sink,
                                keepalive=2.0, timeout=2.0)
    sessions.append(session)
    try:
        session._start_thread(session._attach(peer.address))
        assert sink.wait(1)[0].packet_id == 77
        wait_until(lambda: PubAck(77) in received)
    finally:
        session.close()
        peer.stop()


# --- publish helpers ---------------------------------------------------------

def test_publish_qos1_roundtrip(make_fleet, sink):
    brokers, _ = make_fleet(1)
    publish(brokers[0].address, "q1", b"v", qos=1)
    assert "q1" in brokers[0].topics()


def test_publish_to_dead_broker(make_fleet):
    _, port = make_fleet(0)
    with pytest.raises(BrokerUnreachable):
        publish(BrokerRef("127.0.0.1", port), "t", b"v", timeout=0.5)


def test_publish_to_relocated_topic_raises_redirected(make_fleet):
    brokers, _ = make_fleet(2)
    brokers[0].relocate_topic("moved/known", brokers[1].address)
    brokers[0].relocate_topic("moved/unknown", None)

    with pytest.raises(Redirected) as info:
        publish(brokers[0].address, "moved/known", b"v", qos=1)
    assert info.value.reference == brokers[1].address

    with pytest.raises(Redirected) as info:
        publish(brokers[0].address, "moved/unknown", b"v")  # qos0 bounce
    assert info.value.reference is None


def test_transparent_publish_lands_on_the_right_broker(make_fleet,
                                                       make_master):
    brokers, port = make_fleet(2)
    publish(brokers[1].address, "tp", b"seed")
    master = make_master(addresses(3), port)
    target = transparent_publish(master.address, "tp", b"routed")
    assert target == brokers[1].address
    conn_topics = brokers[1].topics()
    assert "tp" in conn_topics


def test_transparent_publish_re_asks_when_its_broker_is_gone(make_fleet,
                                                           make_master):
    brokers, port = make_fleet(2)
    for broker in brokers:
        publish(broker.address, "tp/moving", b"seed")
    master = make_master(addresses(3), port)
    brokers[0].stop()  # the registry still names it first
    target = transparent_publish(master.address, "tp/moving", b"routed")
    assert target == brokers[1].address


def test_qos0_publish_reads_a_late_redirect():
    def late_redirect(conn):
        if isinstance(conn.recv(timeout=5), Publish):
            time.sleep(0.3)
            conn.send(redirect(None))

    peer = ScriptedBroker(late_redirect)
    try:
        with pytest.raises(Redirected) as info:
            publish(peer.address, "late", b"v")
    finally:
        peer.stop()
    assert info.value.reference is None


def test_healthy_qos0_publish_does_not_wait(make_fleet):
    brokers, _ = make_fleet(1)
    started = time.monotonic()
    publish(brokers[0].address, "quick", b"v")
    assert time.monotonic() - started < 0.1
    assert "quick" in brokers[0].topics()


def test_transparent_publish_unknown_topic(make_fleet, make_master):
    _, port = make_fleet(1)
    master = make_master(addresses(2), port)
    with pytest.raises(NoSuchTopic):
        transparent_publish(master.address, "tp/none", b"v")


@pytest.mark.parametrize("known_target, target_hosts_it", [
    (True, True), (True, False), (False, True),
], ids=["known_target", "known_target_without_the_topic", "unknown_target"])
def test_transparent_publish_follows_a_topic_its_home_relocated(
        make_fleet, make_master, known_target, target_hosts_it):
    brokers, port = make_fleet(2)
    for broker in brokers if target_hosts_it else brokers[:1]:
        publish(broker.address, "tp/moved", b"seed")
    master = make_master(addresses(3), port)
    # the registry still names the first broker, which now sends it away
    brokers[0].relocate_topic(
        "tp/moved", brokers[1].address if known_target else None)

    target = transparent_publish(master.address, "tp/moved", b"routed")
    assert target == brokers[1].address
    conn = connect(brokers[1].address, "check")
    subscribe(conn, "tp/moved")
    replayed = [p.payload for p in drain(conn) if isinstance(p, Publish)]
    conn.close()
    assert replayed == [b"routed"]


def test_transparent_publish_to_a_topic_relocated_to_nowhere(make_fleet,
                                                             make_master):
    brokers, port = make_fleet(2)
    publish(brokers[0].address, "tp/gone", b"seed")
    master = make_master(addresses(3), port)
    brokers[0].relocate_topic("tp/gone", None)
    with pytest.raises(NoSuchTopic):
        transparent_publish(master.address, "tp/gone", b"v")


@pytest.fixture
def silent_peer():
    """A bare listener: TCP connects complete, nothing is ever answered."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        yield BrokerRef(*listener.getsockname()[:2])


@pytest.mark.parametrize("call, error", [
    (lambda ref: publish(ref, "t", b"v", timeout=0.2), BrokerUnreachable),
    (lambda ref: transparent_publish(ref, "t", b"v", timeout=0.2),
     MasterUnreachable),
    (lambda ref: master_module.topic_discovery(ref, 0.2, 0.2),
     BrokerUnreachable),
    (lambda ref: SubscriberSession(ref, "t", lambda packet: None,
                                   timeout=0.2).open(),
     MasterUnreachable),
], ids=["publish", "transparent_publish", "topic_discovery",
        "subscriber_open"])
def test_silent_peer_raises_the_role_error(silent_peer, call, error):
    with pytest.raises(error):
        call(silent_peer)


# --- one exchange per request ---------------------------------------------------

def hang_up(conn):
    """Ends the conversation right after the CONNACK."""


def garble(conn):
    """Answers the client's first packet with bytes no packet starts with."""
    conn.recv(timeout=5)
    conn._sock.sendall(b"\x00\x00")  # packet type 0 is reserved
    while conn.recv(timeout=5) is not None:
        pass


@pytest.mark.parametrize("script", [hang_up, garble])
@pytest.mark.parametrize("call, error", [
    (lambda ref: publish(ref, "t", b"v", timeout=0.5), BrokerUnreachable),
    (lambda ref: publish(ref, "t", b"v", qos=1, timeout=0.5),
     BrokerUnreachable),
    (lambda ref: master_module.topic_discovery(ref, 0.5, 0.5),
     BrokerUnreachable),
    (lambda ref: transparent_publish(ref, "t", b"v", timeout=0.5),
     MasterUnreachable),
    (lambda ref: SubscriberSession(ref, "t", lambda packet: None,
                                   timeout=0.5).open(),
     MasterUnreachable),
], ids=["publish", "publish_qos1", "topic_discovery", "transparent_publish",
        "subscriber_open"])
def test_a_failing_peer_raises_the_role_error(script, call, error):
    """Never ConnectionClosed, MalformedPacket or TimeoutError."""
    peer = ScriptedBroker(script)
    try:
        with pytest.raises(error):
            call(peer.address)
    finally:
        peer.stop()


def answering(received, redirect_to=None):
    """A script that answers like an edge broker, or like a master when
    `redirect_to` is given, and appends every packet it receives to
    `received`, up to the client's hang-up (None)."""
    def script(conn):
        while True:
            packet = conn.recv(timeout=5)
            received.append(packet)
            if packet is None:
                return
            if isinstance(packet, Subscribe):
                conn.send(SubAck(packet.packet_id, (Reason.SUCCESS,)))
            if redirect_to is not None \
                    and isinstance(packet, (Subscribe, Publish)):
                conn.send(redirect(redirect_to))
            elif isinstance(packet, PingReq):
                conn.send(PingResp())
            elif isinstance(packet, Publish) and packet.qos:
                conn.send(PubAck(packet.packet_id))
    return script


def hung_up_with_a_disconnect(received) -> bool:
    wait_until(lambda: received[-1:] == [None])
    return received[-2] == Disconnect(Reason.NORMAL)


@pytest.mark.parametrize("call", [
    lambda ref: publish(ref, "t", b"v", timeout=0.5),
    lambda ref: publish(ref, "t", b"v", qos=1, timeout=0.5),
    lambda ref: master_module.topic_discovery(ref, 0.5, 0.5),
], ids=["publish", "publish_qos1", "topic_discovery"])
def test_a_clean_exchange_ends_with_a_disconnect(call):
    received = []
    peer = ScriptedBroker(answering(received))
    try:
        call(peer.address)
        assert hung_up_with_a_disconnect(received), received
    finally:
        peer.stop()


@pytest.mark.parametrize("ask", [
    lambda master: transparent_publish(master, "t", b"v", timeout=0.5),
    lambda master: SubscriberSession(master, "t", lambda packet: None,
                                     timeout=0.5).open().close(),
], ids=["transparent_publish", "subscriber_open"])
def test_a_master_ask_ends_with_a_disconnect_after_the_verdict(ask):
    at_broker, at_master = [], []
    broker = ScriptedBroker(answering(at_broker))
    master = ScriptedBroker(answering(at_master, broker.address))
    try:
        ask(master.address)
        assert hung_up_with_a_disconnect(at_master), at_master
    finally:
        master.stop()
        broker.stop()


def test_transparent_publish_asks_the_master_for_the_topic_alone():
    at_broker, at_master = [], []
    broker = ScriptedBroker(answering(at_broker))
    master = ScriptedBroker(answering(at_master, broker.address))
    try:
        transparent_publish(master.address, "t", b"payload", timeout=0.5)
        wait_until(lambda: at_master[-1:] == [None])
        assert Subscribe(1, ("t",)) in at_master, at_master
        assert not any(isinstance(p, Publish) for p in at_master), at_master
        assert Publish("t", b"payload") in at_broker, at_broker
    finally:
        master.stop()
        broker.stop()


@pytest.mark.parametrize("late", ["master", "broker"])
@pytest.mark.parametrize("call", [
    lambda master: transparent_publish(master, "t", b"v", timeout=0.5),
    lambda master: transparent_publish(master, "t", b"v", qos=1, timeout=0.5),
    lambda master: SubscriberSession(master, "t", lambda packet: None,
                                     timeout=0.5).open().close(),
], ids=["transparent_publish", "transparent_publish_qos1", "subscriber_open"])
def test_the_first_request_goes_out_with_the_connect(late, call):
    """Peers that send the CONNACK only after the request: a client that
    waited for the CONNACK before sending it would time out."""
    broker = ScriptedBroker(answering([]), late_connack=late == "broker")
    master = ScriptedBroker(answering([], broker.address),
                            late_connack=late == "master")
    try:
        call(master.address)
    finally:
        master.stop()
        broker.stop()
