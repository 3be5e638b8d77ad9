"""Edge broker behaviour over real sockets."""

import contextlib
import socket
import sys
import threading
import time

import pytest

import helpers
from helpers import admin_command, connect, drain, subscribe, wait_until
from tdmqtt import broker as broker_module, client, stream
from tdmqtt.broker import EdgeBroker
from tdmqtt.client import publish
from tdmqtt.errors import BrokerUnreachable, ConnectionClosed, Redirected
from tdmqtt.master import topic_discovery
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
    SubAck,
    Subscribe,
    encode_varint,
)
from tdmqtt.stream import MAX_PACKET_SIZE, PacketConnection, dial, open_connection


def test_publish_reaches_matching_subscriber(broker):
    sub = connect(broker.address, "sub")
    assert subscribe(sub, "room/temp").reasons == (0,)
    pub = connect(broker.address, "pub")
    pub.send(Publish("room/temp", b"21.5"))
    got = sub.recv(timeout=2)
    assert got == Publish("room/temp", b"21.5", retain=False)


def test_wildcard_subscriber_sees_everything(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "#")
    pub = connect(broker.address, "pub")
    for i, topic in enumerate(("a", "a/b", "deep/er/still")):
        pub.send(Publish(topic, str(i).encode()))
    topics = {p.topic for p in [sub.recv(timeout=2) for _ in range(3)]}
    assert topics == {"a", "a/b", "deep/er/still"}


def test_non_matching_publish_not_delivered(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "only/this")
    pub = connect(broker.address, "pub")
    pub.send(Publish("something/else", b"x"))
    pub.send(Publish("only/this", b"y"))
    got = sub.recv(timeout=2)
    assert got.topic == "only/this"
    assert drain(sub, 0.2) == []


def test_publisher_does_not_hear_itself(broker):
    both = connect(broker.address, "both")
    subscribe(both, "#")
    both.send(Publish("echo", b"x"))
    assert drain(both, 0.25) == []


def test_subscribe_replays_latest_message_per_topic(broker):
    pub = connect(broker.address, "pub")
    pub.send(Publish("t/one", b"old"))
    pub.send(Publish("t/one", b"new"))
    pub.send(Publish("t/two", b"2"))
    pub.send(Publish("unrelated", b"3"))
    wait_until(lambda: len(broker.topics()) == 3)

    sub = connect(broker.address, "sub")
    subscribe(sub, "t/#")
    replayed = [sub.recv(timeout=2) for _ in range(2)]
    assert replayed == [
        Publish("t/one", b"new", retain=True),
        Publish("t/two", b"2", retain=True),
    ]
    assert drain(sub, 0.2) == []
    exact = connect(broker.address, "exact")
    subscribe(exact, "t/two")
    assert drain(exact, 0.3) == [Publish("t/two", b"2", retain=True)]


def test_replay_deduplicates_across_overlapping_filters(broker):
    pub = connect(broker.address, "pub")
    pub.send(Publish("a/b", b"v"))
    wait_until(lambda: broker.topics() == ["a/b"])
    sub = connect(broker.address, "sub")
    subscribe(sub, "a/#", "a/b", "#")
    replays = drain(sub, 0.3)
    assert replays == [Publish("a/b", b"v", retain=True)]


def test_bad_filter_gets_per_filter_reason(broker):
    conn = connect(broker.address, "c")
    ack = subscribe(conn, "x/#/y", "ok/topic", "a+b")
    assert ack.reasons == (
        Reason.TOPIC_FILTER_NOT_ACCEPTED,
        Reason.SUCCESS,
        Reason.TOPIC_FILTER_NOT_ACCEPTED,
    )
    # the accepted filter still works
    pub = connect(broker.address, "p")
    pub.send(Publish("ok/topic", b"1"))
    assert conn.recv(timeout=2).topic == "ok/topic"


def test_qos1_publish_is_acknowledged(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "q")
    pub = connect(broker.address, "pub")
    pub.send(Publish("q", b"payload", qos=1, packet_id=42))
    assert pub.recv(timeout=2) == PubAck(42, Reason.SUCCESS)
    delivered = sub.recv(timeout=2)
    assert delivered.qos == 1 and delivered.packet_id is not None
    sub.send(PubAck(delivered.packet_id))  # broker ignores it
    assert drain(sub, 0.2) == []


def test_ping(broker):
    conn = connect(broker.address, "c")
    conn.send(PingReq())
    assert conn.recv(timeout=2) == PingResp()


def test_duplicate_client_id_evicts_older_session(broker):
    first = connect(broker.address, "same-id")
    second = connect(broker.address, "same-id")
    # first connection is cut; with no bytes in flight that reads as EOF
    try:
        assert first.recv(timeout=2) is None
    except ConnectionClosed:
        pass
    subscribe(second, "t")
    pub = connect(broker.address, "pub")
    pub.send(Publish("t", b"v"))
    assert second.recv(timeout=2).payload == b"v"


def test_anonymous_clients_get_distinct_identities(broker):
    a = connect(broker.address, "")
    b = connect(broker.address, "")
    subscribe(a, "t", pid=1)
    subscribe(b, "t", pid=1)
    pub = connect(broker.address, "pub")
    pub.send(Publish("t", b"v"))
    assert a.recv(timeout=2).payload == b"v"
    assert b.recv(timeout=2).payload == b"v"


def test_overlapping_filters_get_one_copy(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "a/#", "a/b")
    pub = connect(broker.address, "pub")
    pub.send(Publish("a/b", b"v"))
    assert drain(sub, 0.3) == [Publish("a/b", b"v")]


def test_repeated_subscribe_gets_one_copy(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "t", pid=1)
    subscribe(sub, "t", pid=2)
    pub = connect(broker.address, "pub")
    pub.send(Publish("t", b"1"))
    pub.send(Publish("t", b"2"))
    assert [p.payload for p in drain(sub, 0.3)] == [b"1", b"2"]


def test_departed_and_evicted_sessions_leave_the_routing_index(broker):
    gone = connect(broker.address, "gone")
    subscribe(gone, "t")
    gone.send(Disconnect(Reason.NORMAL))
    gone.close()
    evicted = connect(broker.address, "same-id")
    subscribe(evicted, "t/#")
    live = connect(broker.address, "same-id")
    subscribe(live, "t")
    # only the live session's filter is still indexed
    wait_until(lambda: broker._subscribers.keys() == {"t"})
    assert len(broker._subscribers["t"]) == 1

    pub = connect(broker.address, "pub")
    pub.send(Publish("t", b"v"))
    assert drain(live, 0.3) == [Publish("t", b"v")]


def test_routing_index_survives_concurrent_churn(broker):
    """Sessions subscribe and leave while a publisher floods their topic;
    afterwards the index holds only the one live session."""
    stop = threading.Event()
    errors = []

    def flood():
        pub = connect(broker.address, "flood")
        while not stop.is_set():
            pub.send(Publish("s/x", b"v"))
        pub.close()

    def churn(i):
        try:
            for round_ in range(15):
                conn = open_connection(broker.address.host, broker.address.port, 2)
                try:
                    conn.send(Connect(f"c{i % 3}"))  # ids collide: evictions
                    conn.send(Subscribe(1, ("s/#", "s/x", f"s/{round_}")))
                    while not isinstance(conn.recv(timeout=2),
                                         (SubAck, type(None))):
                        pass  # the flood may overtake the SUBACK
                except ConnectionClosed:
                    pass  # evicted by a namesake
                finally:
                    conn.close()
        except Exception as exc:  # any failure fails the test below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        flooder = threading.Thread(target=flood)
        flooder.start()
        workers = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        stop.set()
        flooder.join(timeout=10)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers) and not flooder.is_alive()
    assert errors == []
    live = connect(broker.address, "live")
    subscribe(live, "s/x")
    wait_until(lambda: broker._subscribers.keys() == {"s/x"})
    assert len(broker._subscribers["s/x"]) == 1


def test_a_routed_publish_never_overtakes_the_suback(broker):
    """Publishers flood one topic while censuses and raw subscribers
    subscribe to it; each must see its SUBACK before any PUBLISH."""
    stop = threading.Event()

    def flood():
        pub = connect(broker.address, "")
        while not stop.is_set():
            pub.send(Publish("hot", b"v"))
        pub.close()

    refused = overtaken = 0
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    flooders = [threading.Thread(target=flood) for _ in range(3)]
    try:
        for f in flooders:
            f.start()
        wait_until(lambda: "hot" in broker.topics())
        for _ in range(100):
            try:
                topic_discovery(broker.address, 2.0, 0.5)
            except BrokerUnreachable:
                refused += 1
        for _ in range(100):
            conn = connect(broker.address, "")
            conn.send(Subscribe(1, ("hot",)))
            overtaken += not isinstance(conn.recv(timeout=2), SubAck)
            conn.close()
    finally:
        stop.set()
        for f in flooders:
            f.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not any(f.is_alive() for f in flooders)
    assert (refused, overtaken) == (0, 0)


def test_an_oversized_packet_ends_its_connection_before_it_is_buffered(
        broker):
    greedy = connect(broker.address, "greedy")
    declared = encode_varint(200 * 1024 * 1024)
    greedy._sock.sendall(bytes([0x30]) + declared + bytes(8192))
    try:
        assert greedy.recv(timeout=2) == Disconnect(Reason.PACKET_TOO_LARGE)
        assert greedy.recv(timeout=2) is None  # the broker hung up
    except ConnectionClosed:
        pass  # or reset the connection with our bytes still unread
    finally:
        greedy.close()
    sub = connect(broker.address, "sub")
    pub = connect(broker.address, "pub")
    try:
        subscribe(sub, "still/serving")
        pub.send(Publish("still/serving", b"yes"))
        assert sub.recv(timeout=2) == Publish("still/serving", b"yes")
    finally:
        sub.close()
        pub.close()


# --- relocation -------------------------------------------------------------

TARGET = BrokerRef("10.9.9.9", 1883)


def test_relocation_notifies_wildcard_subscriber(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "#")
    pub = connect(broker.address, "pub")
    pub.send(Publish("moving/topic", b"v"))
    assert sub.recv(timeout=2).topic == "moving/topic"

    broker.relocate_topic("moving/topic", TARGET)
    notice = sub.recv(timeout=2)
    assert notice == Disconnect(Reason.USE_ANOTHER_SERVER, TARGET)
    assert sub.recv(timeout=2) is None  # broker closed the session


def test_relocation_without_target_sends_not_accepted(broker):
    sub = connect(broker.address, "sub")
    subscribe(sub, "gone")
    broker.relocate_topic("gone", None)
    assert sub.recv(timeout=2) == Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)


def test_relocation_skips_unrelated_subscribers(broker):
    bystander = connect(broker.address, "by")
    subscribe(bystander, "other/topic")
    broker.relocate_topic("moved", TARGET)
    assert drain(bystander, 0.25) == []
    # still alive and serviceable
    bystander.send(PingReq())
    assert bystander.recv(timeout=2) == PingResp()


def test_subscribe_to_relocated_topic_is_redirected(broker):
    broker.relocate_topic("t/moved", TARGET)
    conn = connect(broker.address, "late")
    ack = subscribe(conn, "t/moved")
    assert ack.reasons == (Reason.SUCCESS,)
    assert conn.recv(timeout=2) == Disconnect(Reason.USE_ANOTHER_SERVER, TARGET)
    assert conn.recv(timeout=2) is None


def test_wildcard_subscribe_is_not_redirected_by_relocations(broker):
    # only an exact-name request trips the redirect; a wildcard must be
    # able to enumerate the remaining topics undisturbed
    pub = connect(broker.address, "pub")
    pub.send(Publish("stays", b"v"))
    wait_until(lambda: "stays" in broker.topics())
    broker.relocate_topic("t/moved", TARGET)

    census = connect(broker.address, "census")
    subscribe(census, "#")
    replays = drain(census, 0.3)
    assert [p.topic for p in replays] == ["stays"]
    census.send(PingReq())
    assert census.recv(timeout=2) == PingResp()


def test_publish_to_relocated_topic_bounces_publisher(broker):
    broker.relocate_topic("t/moved", TARGET)
    pub = connect(broker.address, "pub")
    pub.send(Publish("t/moved", b"v", qos=1, packet_id=7))
    assert pub.recv(timeout=2) == Disconnect(Reason.USE_ANOTHER_SERVER, TARGET)
    assert pub.recv(timeout=2) is None


def test_relocated_topic_leaves_the_topic_table(broker):
    pub = connect(broker.address, "pub")
    pub.send(Publish("a", b"1"))
    pub.send(Publish("b", b"2"))
    wait_until(lambda: len(broker.topics()) == 2)
    broker.relocate_topic("a", None)
    assert broker.topics() == ["b"]


def test_the_relocation_table_drops_its_oldest_notice_at_the_cap(
        broker, monkeypatch):
    monkeypatch.setattr(broker_module, "_RELOCATIONS_CAP", 3)
    for topic in ("t0", "t1", "t2", "t3"):
        broker.relocate_topic(topic, TARGET)
    assert list(broker._relocations) == ["t1", "t2", "t3"]
    broker.relocate_topic("t1", TARGET)  # relocated again: now the newest
    broker.relocate_topic("t4", TARGET)
    assert list(broker._relocations) == ["t3", "t1", "t4"]
    for dropped in ("t0", "t2"):
        publish(broker.address, dropped, b"back", qos=1)  # accepted again
    with pytest.raises(Redirected):
        publish(broker.address, "t1", b"v", qos=1)
    assert broker.topics() == ["t0", "t2"]


# --- admin channel -----------------------------------------------------------

def test_admin_relocate_roundtrip(make_broker):
    broker = make_broker(admin=True)
    sub = connect(broker.address, "sub")
    subscribe(sub, "adm/topic")
    reply = admin_command(broker.admin_address, "RELOCATE adm/topic b7:1883")
    assert reply == "OK"
    assert sub.recv(timeout=2) == Disconnect(
        Reason.USE_ANOTHER_SERVER, BrokerRef("b7", 1883))


def test_admin_relocate_without_target(make_broker):
    broker = make_broker(admin=True)
    assert admin_command(broker.admin_address, "RELOCATE lost") == "OK"
    conn = connect(broker.address, "c")
    subscribe(conn, "lost")
    assert conn.recv(timeout=2) == Disconnect(Reason.TOPIC_FILTER_NOT_ACCEPTED)


def test_admin_relocate_to_its_own_address_hosts_the_topic_again(make_broker):
    """Moved away and back, then back again while a subscriber holds it:
    no notice is left, the subscriber stays and nobody reconnects."""
    broker = make_broker(admin=True)
    home = str(broker.address)
    before = broker._server.connection_count
    for target in ("b7:1883", home):
        assert admin_command(broker.admin_address,
                             f"RELOCATE t {target}") == "OK"
    sub = connect(broker.address, "sub")
    assert subscribe(sub, "t").reasons == (Reason.SUCCESS,)
    assert admin_command(broker.admin_address, f"RELOCATE t {home}") == "OK"
    pub = connect(broker.address, "pub")
    pub.send(Publish("t", b"v", qos=1, packet_id=1))
    assert pub.recv(timeout=2) == PubAck(1, Reason.SUCCESS)
    assert sub.recv(timeout=2) == Publish("t", b"v", qos=1, packet_id=1)
    assert broker.topics() == ["t"]
    assert broker._server.connection_count == before + 5  # 3 admin, sub, pub


@pytest.mark.parametrize("line,fragment", [
    ("", "empty"),
    ("NOPE x", "unknown command"),
    ("RELOCATE", "unknown command"),
    ("RELOCATE t a b c", "unknown command"),
    ("RELOCATE t badref", "broker reference"),
    ("RELOCATE a/# b7:1883", "wildcards"),
])
def test_admin_rejects_malformed_commands(make_broker, line, fragment):
    broker = make_broker(admin=True)
    reply = admin_command(broker.admin_address, line)
    assert reply.startswith("ERR") and fragment in reply
    assert not broker._relocations


def test_an_over_long_admin_line_gets_err_and_a_hang_up(make_broker):
    """1 MiB with no newline is answered ERR within 2 s, and the admin
    channel still serves the next connection."""
    broker = make_broker(admin=True)
    with socket.create_connection(broker.admin_address, timeout=2.0) as sock:
        def flood():
            with contextlib.suppress(OSError):  # hung up on mid-line
                sock.sendall(b"RELOCATE " + b"x" * (1 << 20))

        sender = threading.Thread(target=flood)
        sender.start()
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(256)
            if not chunk:
                break
            reply += chunk
        sender.join(timeout=2)
    assert not sender.is_alive()
    assert reply.startswith(b"ERR") and b"too long" in reply
    assert not broker._relocations
    assert admin_command(broker.admin_address, "RELOCATE t") == "OK"


def test_an_admin_line_that_is_not_utf8_gets_err_and_a_hang_up(make_broker):
    """The line before it, sent in the same write, is still served."""
    broker = make_broker(admin=True)
    with socket.create_connection(broker.admin_address, timeout=2.0) as sock:
        sock.sendall(b"RELOCATE a\nRELOCATE \xff\xfe\nRELOCATE b\n")
        reply = b""
        while chunk := sock.recv(256):  # to the hang-up
            reply += chunk
    ok, err = reply.split(b"\n", 1)
    assert ok == b"OK" and err.startswith(b"ERR") and err.count(b"\n") == 1
    assert list(broker._relocations) == ["a"]
    assert admin_command(broker.admin_address, "RELOCATE t") == "OK"


def test_the_longest_legal_admin_command_is_served(make_broker):
    broker = make_broker(admin=True)
    topic = "t" * 65_535
    assert admin_command(broker.admin_address,
                         f"RELOCATE {topic} {'h' * 253}:65535") == "OK"
    assert topic in broker._relocations


def test_every_connack_advertises_the_maximum_packet_size(make_fleet,
                                                          make_master):
    (broker,), port = make_fleet(1)
    master = make_master(["127.0.0.1"], port)
    for ref in (broker.address, master.address):
        conn = dial(ref, "", 2.0, ConnectionError)
        conn.close()
        assert conn.connack.max_packet_size == MAX_PACKET_SIZE


# -- slow consumers ----------------------------------------------------------

DEADLINE = 0.5  # stream.SEND_TIMEOUT where a test asks for short_deadline
SLACK = 1.0  # for the thread switches around one missed deadline
STALL = 0.05  # a PUBACK later than this means the broker waits on `stuck`
BODY = bytes(32 * 1024)


@pytest.fixture
def short_deadline(monkeypatch):
    monkeypatch.setattr(stream, "SEND_TIMEOUT", DEADLINE)


@pytest.fixture
def stuck_beside_healthy(make_broker):
    """A broker with two subscribers on `t`: one whose 4 KiB receive
    buffer is never read, and one whose deliveries a thread collects.
    Yields (broker, the collected payloads, a publisher)."""
    broker = make_broker(admin=True)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((broker.address.host, broker.address.port))
    stuck = PacketConnection(sock)
    helpers.opened.append(stuck)
    stuck.send(Connect("stuck"))
    assert isinstance(stuck.recv(timeout=2), ConnAck)
    subscribe(stuck, "t")
    healthy = connect(broker.address, "healthy")
    subscribe(healthy, "t")
    got = []

    def collect():
        with contextlib.suppress(ConnectionClosed):
            while (packet := healthy.recv()) is not None:
                if isinstance(packet, Publish):
                    got.append(packet.payload)

    collector = threading.Thread(target=collect)
    collector.start()
    try:
        yield broker, got, connect(broker.address, "pub")
    finally:
        healthy.close()
        collector.join(timeout=5)


def publish_until_stalled(pub, first_wait: float) -> tuple[int, list[float]]:
    """QoS 1 publishes of 32 KiB on `t` until a PUBACK takes longer than
    `first_wait`; returns how many went out and each PUBACK's wait."""
    waits = []
    for seq in range(1024):  # 32 MiB, far past any socket buffer
        started = time.monotonic()
        pub.send(Publish("t", seq.to_bytes(4, "big") + BODY, qos=1,
                         packet_id=seq + 1))
        try:
            ack = pub.recv(timeout=first_wait)
        except TimeoutError:
            return seq + 1, waits
        waits.append(time.monotonic() - started)
        assert ack == PubAck(seq + 1)
    raise AssertionError("the broker never stalled on the stuck subscriber")


def test_a_stuck_subscriber_costs_a_publisher_one_deadline(
        short_deadline, stuck_beside_healthy, caplog):
    broker, got, pub = stuck_beside_healthy
    sent, waits = publish_until_stalled(pub, DEADLINE / 4)
    started = time.monotonic()
    assert pub.recv(timeout=DEADLINE + SLACK) == PubAck(sent)
    waits.append(time.monotonic() - started + DEADLINE / 4)
    assert any("slow consumer 'stuck'" in r.getMessage() for r in caplog.records)
    for seq in range(sent, sent + 8):  # the topic flows again
        started = time.monotonic()
        pub.send(Publish("t", seq.to_bytes(4, "big") + BODY, qos=1,
                         packet_id=seq + 1))
        assert pub.recv(timeout=DEADLINE + SLACK) == PubAck(seq + 1)
        waits.append(time.monotonic() - started)
    assert max(waits) <= DEADLINE + SLACK
    wait_until(lambda: len(got) == sent + 8)
    assert [int.from_bytes(p[:4], "big") for p in got] == list(range(sent + 8))


def test_a_relocate_waits_at_most_one_deadline_for_a_stuck_subscriber(
        short_deadline, stuck_beside_healthy):
    broker, _, pub = stuck_beside_healthy
    publish_until_stalled(pub, DEADLINE / 4)  # a broker thread is stuck now
    started = time.monotonic()
    assert admin_command(broker.admin_address, "RELOCATE t") == "OK"
    assert time.monotonic() - started <= DEADLINE + SLACK


# The next two keep the library's own SEND_TIMEOUT and client timeout.

def test_a_puback_behind_a_stuck_subscriber_beats_the_client_timeout(
        stuck_beside_healthy):
    broker, _, pub = stuck_beside_healthy
    sent, _ = publish_until_stalled(pub, STALL)
    stalled = time.monotonic()
    assert pub.recv(timeout=client.TIMEOUT) == PubAck(sent)
    # at least the time from the stalled PUBLISH to its PUBACK
    assert time.monotonic() - stalled + STALL < client.TIMEOUT


def test_a_default_publish_beside_a_stuck_subscriber_goes_through_once(
        stuck_beside_healthy):
    broker, got, pub = stuck_beside_healthy
    sent, _ = publish_until_stalled(pub, STALL)  # a broker thread waits now
    publish(broker.address, "t", b"last", qos=1)
    assert pub.recv(timeout=client.TIMEOUT) == PubAck(sent)
    wait_until(lambda: len(got) >= sent + 1)
    time.sleep(0.2)  # room for a second copy to show up
    assert sorted(got) == sorted(
        [seq.to_bytes(4, "big") + BODY for seq in range(sent)] + [b"last"])


def test_stop_ends_every_connection():
    before = set(threading.enumerate())
    broker = EdgeBroker(port=0, admin_port=0).start()

    def spawned():
        return [t for t in threading.enumerate()
                if t not in before and t.is_alive()]

    # one connection that never sends CONNECT, one idle admin connection
    raw = socket.create_connection(
        (broker.address.host, broker.address.port), timeout=2)
    admin = socket.create_connection(broker.admin_address, timeout=2)
    try:
        # per listener, one worker serving plus the one it started
        wait_until(lambda: len(spawned()) >= 4)
        start = time.monotonic()
        broker.stop()
        took = time.monotonic() - start
        left = spawned()
    finally:
        raw.close()
        admin.close()
    assert took < 1.0, f"stop() took {took:.2f}s"
    assert left == [], f"threads still running after stop(): {left}"
