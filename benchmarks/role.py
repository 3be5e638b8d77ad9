"""One tdmqtt role, an edge broker or the master, in a process of its own.

run.py starts these; they are not meant to be run by hand.  A role prints
one `ready {json}` line once it serves, then obeys stdin commands, one per
line, each answered with `ok <command>`:

    dump PATH    write counters and the spans kept since the last dump
                 to PATH (traced runs)
    counts PATH  write counters to PATH and drop the spans kept so far
    stop         stop the role and exit (so does EOF on stdin)

A master also prints `refresh {json}` after every registry refresh, so the
load generator can place faults relative to the master's periodic census.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from tdmqtt.broker import EdgeBroker  # noqa: E402
from tdmqtt.config import MasterConfig  # noqa: E402
from tdmqtt.master import DiscoveryConfig, MasterBroker  # noqa: E402

_out_lock = threading.Lock()


def say(kind: str, body: str) -> None:
    with _out_lock:
        sys.stdout.write(f"{kind} {body}\n")
        sys.stdout.flush()


def report_refreshes() -> None:
    """Announce every registry refresh with its start, end and result."""
    refresh = MasterBroker.refresh_registry

    @functools.wraps(refresh)
    def wrapper(self, *args, **kwargs):
        start = spans.now()
        registry = refresh(self, *args, **kwargs)
        say("refresh", json.dumps({
            "start": start, "end": spans.now(),
            "brokers": {str(ref): len(registry.topics_of(ref))
                        for ref in registry.brokers()}}))
        return registry

    MasterBroker.refresh_registry = wrapper


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("broker", "master"))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--admin", action="store_true")
    parser.add_argument("--addresses", default="")
    parser.add_argument("--refresh-period", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    rec = spans.Recorder(f"{args.role}@{args.host}")
    if args.trace:
        spans.install(rec, args.role)
    try:
        if args.role == "broker":
            role = EdgeBroker(host=args.host, port=args.port,
                              admin_port=0 if args.admin else None).start()
            ready = {"port": role.address.port,
                     "admin_port": role.admin_address[1] if args.admin else None}
        else:
            report_refreshes()
            defaults = MasterConfig()
            discovery = DiscoveryConfig(
                addresses=tuple(args.addresses.split(",")),
                broker_port=args.port,
                timeout=defaults.timeout,
                listen_window=defaults.listen_window,
                refresh_period=args.refresh_period or defaults.refresh_period)
            role = MasterBroker(discovery, host=args.host, port=0).start()
            ready = {"port": role.address.port}
    except OSError as exc:
        say("error", str(exc))
        return 3
    say("ready", json.dumps(ready))

    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "stop":
                break
            if command == "dump":
                rec.dump(arg, rec.take_spans())
            elif command == "counts":
                rec.take_spans()
                rec.dump(arg, [])
            say("ok", command)
    finally:
        role.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
