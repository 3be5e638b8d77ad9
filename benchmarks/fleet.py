"""Role processes, loopback addresses, seeding and payload checks."""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
import zlib

from tdmqtt.packets import BrokerRef, ConnAck, Connect, PubAck, Publish
from tdmqtt.stream import open_connection

HERE = os.path.dirname(os.path.abspath(__file__))
ROLE = os.path.join(HERE, "role.py")
READY_TIMEOUT = 15.0
STOP_TIMEOUT = 5.0


class BenchError(Exception):
    """The benchmark could not set up or drive its roles."""


class RoleProc:
    """A role process and the line protocol on its stdin/stdout."""

    def __init__(self, name: str, args: list[str], *, logdir: str,
                 seed: int, trace: bool):
        self.name = name
        self.refreshes: list[dict] = []  # master only, in arrival order
        self._buf = b""
        self._lines: list[str] = []
        env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
        self._log = open(os.path.join(logdir, name + ".log"), "ab")
        argv = [sys.executable, ROLE] + args + (["--trace"] if trace else [])
        # a session of its own: Ctrl-C reaches only the generator, which
        # then stops every role itself
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True, env=env)
        os.set_blocking(self.proc.stdout.fileno(), False)
        self.info: dict = {}

    # -- reading ------------------------------------------------------------

    def _fill(self, timeout: float) -> bool:
        """Read what is there (waiting up to timeout); False on EOF."""
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], max(timeout, 0))
        if not ready:
            return True
        try:
            chunk = os.read(fd, 65536)
        except BlockingIOError:
            return True
        if not chunk:
            return False
        self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            text = line.decode()
            if text.startswith("refresh "):
                self.refreshes.append(json.loads(text[8:]))
            else:
                self._lines.append(text)
        return True

    def poll(self, timeout: float = 0.0) -> None:
        """Take in pending output, waiting up to timeout for some."""
        if not self._fill(timeout):
            raise BenchError(f"{self.name} exited unexpectedly; see its log")

    def expect(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            for i, line in enumerate(self._lines):
                if line.startswith(prefix):
                    del self._lines[:i + 1]
                    return line[len(prefix):].strip()
                if line.startswith("error "):
                    raise BenchError(f"{self.name}: {line[6:]}")
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.name}: no {prefix.strip()!r} "
                                 f"in {timeout:.0f}s")
            self.poll(left)

    def wait_ready(self) -> dict:
        self.info = json.loads(self.expect("ready ", READY_TIMEOUT))
        return self.info

    # -- commands -----------------------------------------------------------

    def command(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        self.expect("ok " + line.split()[0], READY_TIMEOUT)

    def kill(self) -> None:
        """SIGKILL: a real broker death, no shutdown path runs."""
        self.proc.kill()
        self.proc.wait()
        self._close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        for f in (self.proc.stdin, self.proc.stdout, self._log):
            try:
                f.close()
            except OSError:
                pass


# -- loopback addresses ------------------------------------------------------

def loopback_hosts(n: int) -> list[str]:
    return [f"127.0.0.{i}" for i in range(1, n + 1)]


def check_hosts(hosts: list[str]) -> None:
    """Fail early and clearly when a loopback alias cannot be bound."""
    for host in hosts:
        with socket.socket() as sock:
            try:
                sock.bind((host, 0))
            except OSError as exc:
                raise BenchError(
                    f"cannot bind {host} ({exc}); this workload needs the "
                    f"loopback addresses {hosts[0]}-{hosts[-1]}") from None


def shared_port(hosts: list[str]) -> int:
    """An ephemeral port that is free on every host at once."""
    for _ in range(20):
        socks = []
        try:
            first = socket.socket()
            socks.append(first)
            first.bind((hosts[0], 0))
            port = first.getsockname()[1]
            for host in hosts[1:]:
                sock = socket.socket()
                socks.append(sock)
                sock.bind((host, port))
            return port
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
    raise BenchError("no port is free on all of " + ", ".join(hosts))


# -- payloads ----------------------------------------------------------------

_HEADER = struct.Struct(">QI")  # sequence number, crc32 of seq + body


def make_payload(seq: int, body: bytes) -> tuple[bytes, int]:
    """Payload carrying its sequence number and checksum; returns the
    payload and the checksum the receiver must find."""
    crc = zlib.crc32(body, zlib.crc32(seq.to_bytes(8, "big")))
    return _HEADER.pack(seq, crc) + body, crc


def payload_seq(payload: bytes) -> int | None:
    if len(payload) < _HEADER.size:
        return None
    return _HEADER.unpack_from(payload)[0]


def payload_ok(payload: bytes, expected_crc: int) -> bool:
    """The payload is intact and is the one the generator made."""
    if len(payload) < _HEADER.size:
        return False
    seq, crc = _HEADER.unpack_from(payload)
    view = memoryview(payload)
    actual = zlib.crc32(view[_HEADER.size:],
                        zlib.crc32(view[:8]))
    return actual == crc == expected_crc


# -- seeding -----------------------------------------------------------------

def seed_brokers(messages: dict[BrokerRef, list[tuple[str, bytes]]],
                 timeout: float = 10.0) -> None:
    """Publish each broker's (topic, payload) list over one connection.

    All brokers are sent to before any is awaited, so they store in
    parallel; a final QoS 1 publish per broker is the barrier, since a
    broker handles one connection's packets in order.
    """
    conns = []
    try:
        for ref, items in messages.items():
            conn = open_connection(ref.host, ref.port, timeout)
            conns.append(conn)
            conn.send(Connect(""))
            if not isinstance(conn.recv(timeout=timeout), ConnAck):
                raise BenchError(f"{ref} refused the seeding connection")
            for topic, payload in items[:-1]:
                conn.send(Publish(topic, payload, retain=True))
            topic, payload = items[-1]
            conn.send(Publish(topic, payload, qos=1, packet_id=1, retain=True))
        for conn in conns:
            if not isinstance(conn.recv(timeout=timeout), PubAck):
                raise BenchError(f"{conn.peer} did not acknowledge seeding")
    finally:
        for conn in conns:
            conn.close()
