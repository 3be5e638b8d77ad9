"""Spans and counters recorded around tdmqtt's public functions.

The benchmark never edits the package.  In a traced run every process
(the load generator and each role) calls `install()` once, which swaps
benchmark-owned wrappers into the module attributes the package looks up
at call time.  Each wrapper records a span (name, start, end, parent span,
op id, span id) and adds to counters.  State is per thread and merged only
when the process dumps it, so the wrappers take no lock on the hot path.

`topic_matches` runs once per (session filter, topic) pair, a thousand
times per routed publish, so it is counted but gets no span.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import socket
import threading
import time

MAX_SPANS = 10_000  # kept per process between two dumps; counters keep
                    # counting past the cap

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Per-process span and counter store."""

    def __init__(self, process: str):
        self.process = process
        self.op: int | None = None  # the generator's current operation
        self.dials: list[tuple] = []  # client dials: (kind, start, end, thread)
        self.master_addr: tuple[str, int] | None = None
        self._ids = itertools.count()
        self._kept = 0  # spans stored, against MAX_SPANS
        self._local = threading.local()
        self._threads: list[dict] = []
        self._threads_lock = threading.Lock()

    def state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "spans": [], "counts": collections.Counter(),
                  "kind": None, "inbound_at": 0.0, "delivered_at": None}
            self._local.st = st
            with self._threads_lock:
                self._threads.append(st)
        return st

    def take_spans(self) -> list:
        """Remove and return the spans kept so far, oldest first."""
        with self._threads_lock:
            threads = list(self._threads)
        spans: list = []
        for st in threads:
            kept, st["spans"] = st["spans"], []
            spans.extend(kept)
        self._kept = 0
        spans.sort(key=lambda s: s[1])
        return spans

    def dump(self, path: str, spans: list) -> None:
        """Write the counters so far and the given spans to path."""
        with self._threads_lock:
            threads = list(self._threads)
        counts: collections.Counter = collections.Counter()
        for st in threads:
            counts.update(dict(st["counts"]))
        with open(path, "w") as f:
            json.dump({"process": self.process, "counts": dict(counts),
                       "spans": spans}, f)

    def span(self, name: str, fn, after=None):
        """Wrap fn: one span per call, `<name>.calls` and `<name>.s`
        counters, then `after(st, args, result, start, end)` on success."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec.state()
            stack = st["stack"]
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                counts = st["counts"]
                counts[name + ".calls"] += 1
                counts[name + ".s"] += end - start
                if rec._kept < MAX_SPANS:  # racy, so the cap is approximate
                    rec._kept += 1
                    st["spans"].append((name, start, end, parent, rec.op, sid))
            if after is not None:
                after(st, args, result, start, end)
            return result

        return wrapper


def install(rec: Recorder, role: str) -> None:
    """Wrap the package's public functions in this process.

    `role` is "broker", "master" or "client" and selects the role-specific
    counters.  A client tells its master dials from its broker dials by
    `rec.master_addr`.
    """
    from tdmqtt import broker, client, master, packets, stream
    from tdmqtt.packets import Disconnect, IncompletePacket, Publish

    # packets --------------------------------------------------------------
    raw_decode, raw_matches = packets.decode, packets.topic_matches

    def counted_decode(data):
        start = now()
        st = rec.state()
        counts = st["counts"]
        counts["decode.bytes_in"] += len(data)
        try:
            packet, used = raw_decode(data)
        except IncompletePacket:
            counts["decode.incomplete"] += 1
            raise
        counts["decode.bytes_used"] += used
        if role == "broker":
            # the serving thread handles this packet until its next recv
            st["kind"] = type(packet).__name__
            st["inbound_at"] = start
            counts["broker.inbound." + st["kind"]] += 1
        return packet, used

    def topic_matches(filt, name):
        st = rec.state()
        st["counts"]["topic_matches.calls"] += 1
        if role == "broker":
            st["counts"]["broker.matches." + str(st["kind"])] += 1
        return raw_matches(filt, name)

    encode = rec.span("encode", packets.encode)
    decode = rec.span("decode", counted_decode)
    packets.encode = stream.encode = encode
    packets.decode = stream.decode = decode
    packets.topic_matches = broker.topic_matches = topic_matches
    master.topic_matches = topic_matches

    # stream ---------------------------------------------------------------
    conn_class = stream.PacketConnection

    def after_send(st, args, result, start, end):
        packet = args[1]
        if role == "broker" and st["kind"] == "Publish" \
                and isinstance(packet, Publish):
            st["delivered_at"] = end  # fan-out of the inbound PUBLISH
        elif role == "master" and isinstance(packet, Disconnect) \
                and packet.server_reference is not None:
            st["counts"]["master.redirects"] += 1

    traced_recv = rec.span("recv", conn_class.recv)

    def recv(self, timeout=None):
        if role == "broker":
            # the previous inbound packet is fully handled by now
            st = rec.state()
            if st["delivered_at"] is not None:
                st["counts"]["broker.route_samples"] += 1
                st["counts"]["broker.route_s"] += \
                    st["delivered_at"] - st["inbound_at"]
            st["delivered_at"] = None
            st["kind"] = None
        return traced_recv(self, timeout)

    conn_class.send = rec.span("send", conn_class.send, after_send)
    conn_class.recv = recv

    def after_open(st, args, result, start, end):
        if role == "client":
            kind = "master" if (args[0], args[1]) == rec.master_addr \
                else "broker"
            rec.dials.append((kind, start, end,
                              threading.current_thread().name))

    open_connection = rec.span("open_connection", stream.open_connection,
                               after_open)
    stream.open_connection = client.open_connection = open_connection
    master.open_connection = open_connection

    # master ---------------------------------------------------------------
    if role != "master":
        return
    raw_create = socket.create_connection

    def create_connection(*args, **kwargs):
        rec.state()["counts"]["master.tcp_connects"] += 1
        return raw_create(*args, **kwargs)

    socket.create_connection = create_connection

    traced_refresh = rec.span("refresh_registry",
                              master.MasterBroker.refresh_registry)

    @functools.wraps(traced_refresh)
    def refresh_registry(self, *args, **kwargs):
        rec.state()["refresh_called"] = now()
        return traced_refresh(self, *args, **kwargs)

    def after_discovery(st, args, result, start, end):
        called = st.pop("refresh_called", None)
        if called is not None:
            st["counts"]["master.refresh_wait_s"] += start - called
        st["counts"]["master.probes"] += len(args[0].addresses)

    def after_census(st, args, result, start, end):
        st["counts"]["master.census_topics"] += len(result)

    master.MasterBroker.refresh_registry = refresh_registry
    master.broker_discovery = rec.span("broker_discovery",
                                       master.broker_discovery, after_discovery)
    master.topic_discovery = rec.span("topic_discovery",
                                      master.topic_discovery, after_census)
    master.Registry.find = rec.span("find", master.Registry.find)
