"""The three workloads: publish, subscribe and churn.

Each workload builds its fleet several times in turn (the set-up time is
the median), runs its timed loop on each fleet for an equal share of the
run and returns an Outcome.  Every output is checked here; a
mismatch is a failed operation, counted by cause.  The generator uses at
most two threads (the main thread plus one subscriber pump or drain
thread) and at most two long-lived client connections at a time.
"""

from __future__ import annotations

import bisect
import collections
import os
import random
import socket
import threading
from dataclasses import dataclass, field

import spans
from fleet import (BenchError, RoleProc, check_hosts, loopback_hosts,
                   make_payload, payload_ok, payload_seq, seed_brokers,
                   shared_port)
from spans import now
from tdmqtt.client import QUICK_BOUNCE_S, SubscriberSession
from tdmqtt.errors import NoSuchTopic, TdmqttError
from tdmqtt.packets import (BrokerRef, ConnAck, Connect, PubAck, Publish,
                            Reason, SubAck, Subscribe)
from tdmqtt.stream import open_connection

FLEETS = 5          # fleets built, and measured in turn, per run
TIMEOUT = 2.0        # client timeout, as the CLI default
FAULT_TIMEOUT = 10.0  # longest a churn event may take before it fails


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(
        default_factory=lambda: collections.defaultdict(list))  # seconds
    attempted: int = 0
    ops: int = 0           # the unit that per-layer counts are divided by
    rates: collections.Counter = field(default_factory=collections.Counter)
    client: collections.Counter = field(default_factory=collections.Counter)


class Bench:
    """Shared state of one run: inputs, roles, checks and trace dumps."""

    def __init__(self, seed: int, seconds: float, trace: bool, outdir: str,
                 wrong_checksum: bool = False):
        self.seed = seed
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.outdir = outdir
        self.flip = 1 if wrong_checksum else 0  # verifier self-test
        self.roles: list[RoleProc] = []
        self.failures: collections.Counter = collections.Counter()
        self.dumps: list[tuple[str, str]] = []  # (phase, path)
        self.spans: list = []  # the generator's spans of measured windows
        self.op_windows: list[tuple[float, float, int]] = []
        self.dials_seen = 0  # client dials already attributed to a session
        self.rec = spans.Recorder("generator") if trace else None
        if trace:
            spans.install(self.rec, "client")
        self._names = collections.Counter()

    # -- roles --------------------------------------------------------------

    def spawn(self, role: str, *args: str) -> RoleProc:
        base = f"{role}-{args[1]}" if args[:1] == ("--host",) else role
        self._names[base] += 1
        proc = RoleProc(f"{base}-{self._names[base]}", [role, *args],
                        logdir=self.outdir, seed=self.seed, trace=self.trace)
        self.roles.append(proc)
        return proc

    def stop(self, procs) -> None:
        for proc in list(procs):
            proc.stop()
            if proc in self.roles:
                self.roles.remove(proc)

    def kill(self, proc: RoleProc) -> None:
        proc.kill()
        self.roles.remove(proc)

    def dump(self, proc: RoleProc, phase: str) -> None:
        """Counters of one role; at "end" also its spans since set-up."""
        if self.trace:
            path = os.path.join(self.outdir, f"{proc.name}.{phase}.json")
            proc.command(("dump " if phase == "end" else "counts ") + path)
            self.dumps.append((phase, path))

    def snapshot(self, tag: str, phase: str) -> None:
        """Trace dumps of every live process, at a fleet's set-up end or
        at its measurement end."""
        if not self.trace:
            return
        for proc in self.roles:
            self.dump(proc, phase)
        spans = self.rec.take_spans()  # set-up's spans are dropped
        if phase == "end":
            self.spans += spans
        path = os.path.join(self.outdir, f"generator-{tag}.{phase}.json")
        self.rec.dump(path, [])
        self.dumps.append((phase, path))

    # -- operations ---------------------------------------------------------

    def fail(self, cause: str) -> None:
        self.failures[cause] += 1

    def begin_op(self, op: int) -> float:
        if self.rec is not None:
            self.rec.op = op
        return now()

    def end_op(self, op: int, start: float) -> None:
        if self.rec is not None:
            self.rec.op = None
            self.op_windows.append((start, now(), op))

    def op_of(self, t: float) -> int | None:
        i = bisect.bisect_right(self.op_windows, (t, float("inf"), 0)) - 1
        if i >= 0 and self.op_windows[i][1] >= t:
            return self.op_windows[i][2]
        return None


def fleets(bench: Bench, out: Outcome, build, teardown, count: int = FLEETS):
    """Yield (fleet, deadline) for `count` fleets built in turn.

    Each build is timed.  Each fleet is measured for an equal share of the
    run, so one unlucky placement of the role processes on the host
    moves a fraction of a run rather than all of it.
    """
    share = bench.seconds / count
    for i in range(count):
        start = now()
        fleet = build()
        out.setup_s.append(now() - start)
        try:
            bench.snapshot(f"f{i}", "setup")
            yield fleet, now() + share
            bench.snapshot(f"f{i}", "end")
        finally:
            teardown(fleet)


def start_brokers(bench: Bench, hosts: list[str], admin: bool):
    """One broker process per host, all on one shared port."""
    for _ in range(3):
        port = shared_port(hosts)
        extra = ("--admin",) if admin else ()
        procs = [bench.spawn("broker", "--host", h, "--port", str(port), *extra)
                 for h in hosts]
        try:
            for proc in procs:
                proc.wait_ready()
            return port, procs
        except BenchError:
            bench.stop(procs)  # most likely the port was taken meanwhile
    raise BenchError("could not start brokers on a shared port")


def start_master(bench: Bench, hosts: list[str], port: int,
                 refresh_period: float | None = None) -> RoleProc:
    args = ["--addresses", ",".join(hosts), "--port", str(port)]
    if refresh_period is not None:
        args += ["--refresh-period", str(refresh_period)]
    proc = bench.spawn("master", *args)
    proc.wait_ready()
    return proc


class Catcher:
    """Subscriber callback: records each message with its arrival time."""

    def __init__(self):
        self.got: list[tuple[float, Publish]] = []
        self._cond = threading.Condition()

    def __call__(self, packet: Publish) -> None:
        t = now()
        with self._cond:
            self.got.append((t, packet))
            self._cond.notify_all()

    def wait(self, count: int, timeout: float) -> tuple[float, Publish] | None:
        """The count-th message (1-based), or None on timeout."""
        with self._cond:
            if self._cond.wait_for(lambda: len(self.got) >= count, timeout):
                return self.got[count - 1]
        return None


def tally_session(bench: Bench, out: Outcome, session: SubscriberSession,
                  catcher: Catcher | None, opened: tuple[float, float]) -> None:
    """Client-layer counts from the session's trail (and, traced, dials)."""
    events = [kind for kind, _ in session.events()]
    out.client["resolves"] += events.count("resolve")
    for i, kind in enumerate(events):
        if kind != "attach":
            continue
        out.client["attaches"] += 1
        for later in events[i + 1:]:
            if later == "message":
                out.client["useful_attaches"] += 1
                break
            if later in ("attach", "moved", "lost", "closed"):
                break
    if bench.rec is None:
        return
    # back-off: a broker dial that delivered nothing, then a master dial
    pump = f"subscriber-{session.client_id}"
    new = bench.rec.dials[bench.dials_seen:]
    bench.dials_seen += len(new)
    dials = [d for d in new
             if d[3] == pump or (d[3] == "MainThread"
                                 and opened[0] <= d[1] <= opened[1])]
    messages = [t for t, _ in catcher.got] if catcher else []
    last_broker = None
    for kind, start, end, _ in dials:
        if kind == "broker":
            last_broker = end
        elif last_broker is not None:
            if not any(last_broker < t < start for t in messages):
                out.client["backoff_s"] += start - last_broker
            last_broker = None


# -- publish -----------------------------------------------------------------

SMALL, LARGE = 64, 32 * 1024


def publish(bench: Bench) -> Outcome:
    """Data plane: one broker, one publisher, one subscriber holding 1 000
    filters; phase A is a QoS 1 closed loop, phase B a QoS 0 stream."""
    rng, out = bench.rng, Outcome()
    exact = [f"plant{p}/line{q}/dev{d}"
             for p in range(10) for q in range(10) for d in range(9)]
    wild = [f"zone{z}/#" for z in range(100)]
    filters = exact + wild
    rng.shuffle(filters)
    bodies = {size: [rng.randbytes(size - 12) for _ in range(n)]
              for size, n in ((SMALL, 64), (LARGE, 8))}

    def message(seq: int) -> tuple[str, bytes, int]:
        filt = filters[rng.randrange(len(filters))]
        topic = filt if not filt.endswith("#") \
            else f"{filt[:-1]}s{rng.randrange(100)}/v"
        size = LARGE if rng.randrange(8) == 0 else SMALL
        payload, crc = make_payload(seq, rng.choice(bodies[size]))
        return topic, payload, crc ^ bench.flip

    def build():
        proc = bench.spawn("broker", "--host", "127.0.0.1")
        port = proc.wait_ready()["port"]
        sub = open_connection("127.0.0.1", port, TIMEOUT)
        sub.send(Connect("bench-sub"))
        pub = open_connection("127.0.0.1", port, TIMEOUT)
        pub.send(Connect("bench-pub"))
        if not (isinstance(sub.recv(timeout=TIMEOUT), ConnAck)
                and isinstance(pub.recv(timeout=TIMEOUT), ConnAck)):
            raise BenchError("broker refused a connection")
        sub.send(Subscribe(1, tuple(filters)))
        ack = sub.recv(timeout=TIMEOUT)
        if not isinstance(ack, SubAck) or set(ack.reasons) != {Reason.SUCCESS}:
            raise BenchError(f"broker refused the filters: {ack!r}")
        return proc, sub, pub

    def teardown(fleet):
        proc, sub, pub = fleet
        sub.close()
        pub.close()
        bench.stop([proc])

    seq = 0
    for (_, sub, pub), deadline in fleets(bench, out, build, teardown):
        half = (deadline - now()) / 2
        seq = _phase_a(bench, out, sub, pub, message, seq, now() + half)
        seq = _phase_b(bench, out, sub, pub, message, seq, deadline)
    return out


def _phase_a(bench, out, sub, pub, message, seq: int, deadline: float) -> int:
    """Depth-1 closed loop at QoS 1: publish, wait for the delivery."""
    while now() < deadline:
        topic, payload, crc = message(seq)
        pid = seq % 0xFFFF + 1
        out.attempted += 1
        start = bench.begin_op(seq)
        pub.send(Publish(topic, payload, qos=1, packet_id=pid))
        try:
            got = sub.recv(timeout=TIMEOUT)
            arrived = now()
            ack = pub.recv(timeout=TIMEOUT)
        except TimeoutError:
            bench.fail("timeout")
            break  # the two streams are out of step from here on
        bench.end_op(seq, start)
        if not isinstance(ack, PubAck) or ack.packet_id != pid:
            bench.fail("wrong_ack")
            break
        ok = isinstance(got, Publish) and got.topic == topic \
            and payload_seq(got.payload) == seq and payload_ok(got.payload, crc)
        seq += 1
        if not ok:
            bench.fail("wrong_payload")
            continue
        sub.send(PubAck(got.packet_id))
        out.samples["deliver"].append(arrived - start)
        out.ops += 1
    return seq


def _phase_b(bench, out, sub, pub, message, seq: int, deadline: float) -> int:
    """QoS 0 stream, sent as fast as TCP takes it, drained by a thread."""
    expected: dict[int, tuple[str, int]] = {}
    sent = {"n": 0, "done": False}
    got = {"n": 0, "bytes": 0, "last": 0.0, "bad": 0}

    def drain():
        idle_since = now()
        while True:
            try:
                packet = sub.recv(timeout=0.2)
            except TimeoutError:
                if sent["done"] and got["n"] + got["bad"] >= sent["n"]:
                    return
                if now() - idle_since > 5.0:
                    return  # the rest is lost
                continue
            if packet is None:
                return
            idle_since = now()
            want = expected.get(payload_seq(packet.payload))
            if want is None or want[0] != packet.topic \
                    or not payload_ok(packet.payload, want[1]):
                got["bad"] += 1
            else:
                got["n"] += 1
                got["bytes"] += len(packet.payload)
                got["last"] = idle_since
            if sent["done"] and got["n"] + got["bad"] >= sent["n"]:
                return

    drainer = threading.Thread(target=drain, name="drain")
    first = now()
    drainer.start()
    try:
        while now() < deadline:
            topic, payload, crc = message(seq)
            expected[seq] = (topic, crc)
            pub.send(Publish(topic, payload))
            seq += 1
            sent["n"] += 1
    finally:
        sent["done"] = True
        drainer.join()
    out.attempted += sent["n"]
    out.ops += got["n"]
    if got["bad"]:
        bench.failures["wrong_payload"] += got["bad"]
    lost = sent["n"] - got["n"] - got["bad"]
    if lost:
        bench.failures["timeout"] += lost
    out.rates["deliveries"] += got["n"]
    out.rates["payload_bytes"] += got["bytes"]
    out.rates["stream_s"] += max(got["last"] - first, 0.0)
    return seq


# -- subscribe ---------------------------------------------------------------

SUB_BROKERS, DEVICES, METRICS = 8, 50, 40  # 2 000 topics per broker


def subscribe(bench: Bench) -> Outcome:
    """Directory hit path: a closed loop of transparent subscriptions
    against 8 brokers holding 16 000 topics between them."""
    rng, out = bench.rng, Outcome()
    hosts = loopback_hosts(SUB_BROKERS)
    check_hosts(hosts)
    home = list(range(SUB_BROKERS))  # site s lives on broker home[s]
    rng.shuffle(home)
    crcs: dict[str, int] = {}
    seeding: dict[int, list[tuple[str, bytes]]] = collections.defaultdict(list)
    for s in range(SUB_BROKERS):
        for d in range(DEVICES):
            for m in range(METRICS):
                topic = f"site{s}/dev{d}/m{m}"
                payload, crcs[topic] = make_payload(len(crcs),
                                                    rng.randbytes(20))
                seeding[home[s]].append((topic, payload))

    def build():
        port, brokers = start_brokers(bench, hosts, admin=False)
        seed_brokers({BrokerRef(hosts[b], port): items
                      for b, items in seeding.items()})
        master = start_master(bench, hosts, port)
        return port, brokers, master

    def teardown(fleet):
        bench.stop(fleet[1] + [fleet[2]])

    op = 0
    for (port, _, master), deadline in fleets(bench, out, build, teardown):
        master_ref = BrokerRef("127.0.0.1", master.info["port"])
        if bench.rec is not None:
            bench.rec.master_addr = (master_ref.host, master_ref.port)
        op = _subscribe_loop(bench, out, master_ref, port, deadline, op,
                             hosts, home, crcs)
    return out


def _subscribe_loop(bench, out, master_ref, port, deadline, op,
                    hosts, home, crcs) -> int:
    rng = bench.rng
    while now() < deadline:
        s, d = rng.randrange(SUB_BROKERS), rng.randrange(DEVICES)
        filt = f"site{s}/dev{d}/m{rng.randrange(METRICS)}" \
            if rng.random() < 0.8 else f"site{s}/dev{d}/#"
        want = BrokerRef(hosts[home[s]], port)
        catcher = Catcher()
        session = SubscriberSession(master_ref, filt, catcher, timeout=TIMEOUT)
        out.attempted += 1
        start = bench.begin_op(op)
        try:
            session.open()
            opened = (start, now())
            first = catcher.wait(1, TIMEOUT)
        except TdmqttError as exc:
            bench.fail("error:" + type(exc).__name__)
            continue
        finally:
            bench.end_op(op, start)
            op += 1
        session.close()
        tally_session(bench, out, session, catcher, opened)
        if first is None:
            bench.fail("timeout")
        elif session.broker != want:
            bench.fail("wrong_broker")
        elif not (_covers(filt, first[1].topic)
                  and payload_ok(first[1].payload,
                                 crcs.get(first[1].topic, -1) ^ bench.flip)):
            bench.fail("wrong_payload")
        else:
            out.samples["subscribe"].append(first[0] - start)
            out.ops += 1
    return op


def _covers(filt: str, topic: str) -> bool:
    return topic.startswith(filt[:-1]) if filt.endswith("#") else topic == filt


# -- churn -------------------------------------------------------------------

CHURN_BROKERS, BACKGROUND = 4, 1000
CHURN_REFRESH_S = 1.0
DWELL_S = 1.5                # attached this long before each fault
assert DWELL_S > QUICK_BOUNCE_S, "a shorter dwell would start in back-off"
WINDOW = (0.2, 0.6)          # fault placement after a census ends, seconds
MAX_ROUNDS = 16
KINDS = ("failover", "relocate_known", "relocate_unknown", "miss")


@dataclass
class Event:
    k: int
    kind: str
    topic: str
    home: int = -1     # broker the subscriber starts on
    target: int = -1   # broker it must end on (a higher address)


def churn(bench: Bench) -> Outcome:
    """Re-discovery paths: broker death, relocation with a known and an
    unknown target, and a lookup miss, in seeded order."""
    rng, out = bench.rng, Outcome()
    hosts = loopback_hosts(CHURN_BROKERS)
    check_hosts(hosts)
    home = list(range(CHURN_BROKERS))
    rng.shuffle(home)
    hosted: dict[int, list[tuple[str, bytes]]] = collections.defaultdict(list)
    crcs: dict[tuple[str, int], int] = {}

    def host(topic: str, b: int) -> None:
        payload, crcs[topic, b] = make_payload(len(crcs), rng.randbytes(20))
        hosted[b].append((topic, payload))

    for i in range(BACKGROUND * CHURN_BROKERS):
        s, d, m = i // BACKGROUND, i % BACKGROUND // 10, i % 10
        host(f"bg{s}/dev{d}/m{m}", home[s])
    rounds: list[list[Event]] = []
    for r in range(MAX_ROUNDS):
        kinds = list(KINDS)
        rng.shuffle(kinds)
        rounds.append([])
        for kind in kinds:
            k = r * len(KINDS) + len(rounds[-1])
            ev = Event(k, kind, f"ev{k}/{kind}")
            if kind != "miss":
                ev.home = rng.randrange(CHURN_BROKERS - 1)
                ev.target = rng.randrange(ev.home + 1, CHURN_BROKERS)
                host(ev.topic, ev.home)
                host(ev.topic, ev.target)
            rounds[-1].append(ev)

    def build():
        port, brokers = start_brokers(bench, hosts, admin=True)
        seed_brokers({BrokerRef(hosts[b], port): items
                      for b, items in hosted.items()})
        master = start_master(bench, hosts, port, CHURN_REFRESH_S)
        return port, brokers, master

    def teardown(fleet):
        bench.stop(fleet[1] + [fleet[2]])

    def quiet_master(since: float, not_before: float) -> None:
        """Wait for a quiet moment of the master: WINDOW after the end of
        a census that ended after `since`, and no earlier than not_before.

        The master's census repeats every CHURN_REFRESH_S; a fault that
        lands inside one waits out its rest, which would make the median
        of a few events jump between runs.
        """
        deadline = now() + FAULT_TIMEOUT
        while True:
            ends = [r["end"] for r in master.refreshes if r["end"] > since]
            t = now()
            if ends:
                lo, hi = ends[-1] + WINDOW[0], ends[-1] + WINDOW[1]
                at = max(lo, not_before)
                if at <= hi:
                    if t >= at:
                        return
                    master.poll(at - t)
                    continue
            if t > deadline:
                raise BenchError("the master stopped its periodic census")
            master.poll(0.5)

    def admin(b: int, line: str) -> None:
        addr = (hosts[b], brokers[b].info["admin_port"])
        with socket.create_connection(addr, timeout=TIMEOUT) as sock:
            sock.sendall(line.encode() + b"\n")
            if not sock.recv(64).startswith(b"OK"):
                raise BenchError(f"broker {hosts[b]} refused {line!r}")

    def restart(ev: Event) -> None:
        """Bring the killed broker back with what it hosts for later events,
        and wait until the master's census has it again."""
        b = ev.home
        proc = bench.spawn("broker", "--host", hosts[b], "--port", str(port),
                           "--admin")
        proc.wait_ready()
        brokers[b] = proc
        items = [(t, p) for t, p in hosted[b]
                 if not t.startswith("ev") or int(t[2:t.index("/")]) > ev.k]
        seed_brokers({refs[b]: items})
        since = now()
        deadline = since + FAULT_TIMEOUT
        while not any(r["start"] > since
                      and r["brokers"].get(str(refs[b])) == len(items)
                      for r in master.refreshes):
            if now() > deadline:
                raise BenchError(f"the master never re-registered {refs[b]}")
            master.poll(0.5)

    def miss(ev: Event) -> float | None:
        started = now()
        quiet_master(started, started)
        session = SubscriberSession(master_ref, ev.topic, Catcher(),
                                    timeout=TIMEOUT)
        start = bench.begin_op(ev.k)
        try:
            session.open()
        except NoSuchTopic:
            return now() - start
        except TdmqttError as exc:
            bench.fail("wrong_error:" + type(exc).__name__)
            return None
        finally:
            bench.end_op(ev.k, start)
            tally_session(bench, out, session, None, (start, now()))
        session.close()
        bench.fail("wrong_error:none")
        return None

    def move(ev: Event) -> float | None:
        catcher = Catcher()
        session = SubscriberSession(master_ref, ev.topic, catcher,
                                    timeout=TIMEOUT)
        started = now()
        try:
            session.open()
        except TdmqttError as exc:
            bench.fail("error:" + type(exc).__name__)
            return None
        opened = (started, now())
        try:
            first = catcher.wait(1, TIMEOUT)
            if first is None:
                bench.fail("timeout")
                return None
            if session.broker != refs[ev.home] \
                    or not payload_ok(first[1].payload,
                                      crcs[ev.topic, ev.home] ^ bench.flip):
                bench.fail("wrong_broker" if session.broker != refs[ev.home]
                           else "wrong_payload")
                return None
            if ev.kind == "failover":
                bench.dump(brokers[ev.home], "end")  # its last words
            quiet_master(started, opened[1] + DWELL_S)
            start = bench.begin_op(ev.k)
            if ev.kind == "failover":
                bench.kill(brokers[ev.home])
            elif ev.kind == "relocate_known":
                admin(ev.home, f"RELOCATE {ev.topic} {refs[ev.target]}")
            else:
                admin(ev.home, f"RELOCATE {ev.topic}")
            after = catcher.wait(2, FAULT_TIMEOUT)
            bench.end_op(ev.k, start)
            if after is None:
                bench.fail("timeout")
                return None
            if session.broker != refs[ev.target]:
                bench.fail("wrong_broker")
                return None
            if not payload_ok(after[1].payload,
                              crcs[ev.topic, ev.target] ^ bench.flip):
                bench.fail("wrong_payload")
                return None
            return after[0] - start
        finally:
            session.close()
            tally_session(bench, out, session, catcher, opened)
            if ev.kind == "failover" and brokers[ev.home] not in bench.roles:
                restart(ev)

    def run_round(events: list[Event]) -> None:
        times = []
        for ev in events:
            out.attempted += 1
            took = miss(ev) if ev.kind == "miss" else move(ev)
            if took is not None:
                out.samples[ev.kind].append(took)
                out.ops += 1
                times.append(took)
        if len(times) == len(events):
            totals.append(sum(times))

    totals = out.samples["round"]
    schedule = iter(rounds)
    # the helpers above read port, brokers, master, master_ref and refs,
    # which name the current fleet.  Every fleet runs at least one round
    # of about 11 s, so churn builds fewer fleets.
    for (port, brokers, master), deadline in fleets(bench, out, build,
                                                    teardown, count=3):
        master_ref = BrokerRef("127.0.0.1", master.info["port"])
        if bench.rec is not None:
            bench.rec.master_addr = (master_ref.host, master_ref.port)
        refs = [BrokerRef(h, port) for h in hosts]
        while True:  # one round at least, then rounds until the deadline
            events = next(schedule, None)
            if events is None:
                break
            run_round(events)
            if now() >= deadline:
                break
    return out
