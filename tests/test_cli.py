"""Command-line behaviour: exit codes, output formats, role lifecycles."""

import json
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

from conftest import free_port
from helpers import connect, drain, subscribe, wait_until
from tdmqtt.cli import main
from tdmqtt.evalmodel import MESSAGE_KINDS
from tdmqtt.packets import Publish


@pytest.fixture
def write_config(tmp_path):
    def write(data) -> str:
        path = tmp_path / "cli.json"
        path.write_text(json.dumps(data))
        return str(path)
    return write


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("TDMQTT_CONFIG", raising=False)


def seed(broker, topic, payload=b"x"):
    conn = connect(broker.address, f"seed-{topic}")
    conn.send(Publish(topic, payload))
    wait_until(lambda: topic in broker.topics())
    conn.close()


# --- eval ----------------------------------------------------------------------

WORKED_SIZES = {kind: 1.0 for kind in MESSAGE_KINDS}
WORKED_SIZES.update(tcp_syn=5.0, tcp_synack=5.0)
WORKED_EVAL = {
    "throughput": 1000.0, "service_time": 0.001, "arrival_rate": 0.0,
    "n_brokers": 4, "timeout": 1.0, "sizes": WORKED_SIZES,
}


def test_eval_breakdown_row(write_config, capsys):
    path = write_config({"eval": WORKED_EVAL})
    assert main(["eval", "--config", path, "--scenario", "breakdown"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["connect_ms"] == "1.000000"
    assert cells["tcp_syn_ms"] == "5.000000"
    assert cells["t_td_ms"] == "7.000000"
    assert cells["t_tts_ms"] == "9.000000"
    assert cells["t_change_ms"] == "16.000000"
    assert cells["t_bd_ms"] == "2040.000000"
    assert cells["t_broker_change_ms"] == "3077.000000"


def test_eval_fig5_seed_determinism(capsys):
    assert main(["eval", "--scenario", "fig5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--scenario", "fig5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["eval", "--scenario", "fig5", "--seed", "10"]) == 0
    assert capsys.readouterr().out != first
    assert first.splitlines()[0] == "step,hops,std_ms,tdmqtt_ms"


def test_eval_seed_flag_overrides_config(write_config, capsys):
    path = write_config({"eval": {"seed": 9}})
    assert main(["eval", "--config", path, "--scenario", "fig5"]) == 0
    from_config = capsys.readouterr().out
    assert main(["eval", "--scenario", "fig5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == from_config


def test_eval_fig6_output(write_config, capsys):
    path = write_config({"eval": {"steps": 5}})
    assert main(["eval", "--config", path, "--scenario", "fig6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,tdmqtt_ms,emma_ms"
    assert len(lines) == 6


def test_eval_saturated_queue_exits_2(write_config):
    path = write_config({"eval": {"service_time": 0.001,
                                  "arrival_rate": 1000.0}})
    assert main(["eval", "--config", path, "--scenario", "breakdown"]) == 2


def test_bad_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scenario", "fig7"])
    assert exc.value.code == 2


def test_bad_config_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["eval", "--config", str(path), "--scenario", "fig5"]) == 2


# --- discover -------------------------------------------------------------------

def test_discover_empty_fleet(write_config, capsys):
    path = write_config({"master": {
        "address_range": "127.0.0.1", "broker_port": free_port(),
        "timeout_ms": 150}})
    assert main(["discover", "--config", path]) == 0
    assert capsys.readouterr().out == ""


def test_discover_lists_fleet_topics(make_fleet, write_config, capsys):
    brokers, port = make_fleet(2)
    seed(brokers[0], "alpha")
    seed(brokers[0], "beta")
    seed(brokers[1], "gamma")
    path = write_config({"master": {
        "address_range": ["127.0.0.1", "127.0.0.2"], "broker_port": port,
        "timeout_ms": 250, "listen_window_ms": 300}})
    assert main(["discover", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"127.0.0.1:{port}\talpha,beta",
                     f"127.0.0.2:{port}\tgamma"]


# --- pub ------------------------------------------------------------------------

def test_pub_direct_to_broker(broker, capsys):
    rc = main(["pub", "--broker", str(broker.address),
               "--topic", "boards/7", "--qos", "1", "hello there"])
    assert rc == 0
    conn = connect(broker.address, "check")
    subscribe(conn, "boards/7")
    replayed = [p for p in drain(conn) if isinstance(p, Publish)]
    conn.close()
    assert [p.payload for p in replayed] == [b"hello there"]


def test_pub_via_master(make_fleet, make_master, capsys):
    brokers, port = make_fleet(1)
    seed(brokers[0], "board")
    master = make_master(["127.0.0.1"], port)
    rc = main(["pub", "--master", str(master.address), "--topic", "board", "hi"])
    assert rc == 0
    conn = connect(brokers[0].address, "check")
    subscribe(conn, "board")
    payloads = [p.payload for p in drain(conn) if isinstance(p, Publish)]
    conn.close()
    assert payloads == [b"hi"]


def test_pub_via_master_follows_a_moved_topic(make_fleet, make_master):
    brokers, port = make_fleet(2)
    for broker in brokers:
        seed(broker, "board")
    master = make_master(["127.0.0.1", "127.0.0.2"], port)
    brokers[0].relocate_topic("board", brokers[1].address)
    rc = main(["pub", "--master", str(master.address), "--topic", "board", "hi"])
    assert rc == 0
    conn = connect(brokers[1].address, "check")
    subscribe(conn, "board")
    payloads = [p.payload for p in drain(conn) if isinstance(p, Publish)]
    conn.close()
    assert payloads == [b"hi"]


def test_pub_unknown_topic_via_master_exits_3(make_master):
    master = make_master(["127.0.0.1"], free_port())
    assert main(["pub", "--master", str(master.address),
                 "--topic", "ghost", "x"]) == 3


def test_pub_via_silent_master_honours_client_timeout(write_config):
    """The master accepts TCP but never answers: client.timeout_s bounds
    the wait, not the library default of 2 s."""
    path = write_config({"client": {"timeout_s": 0.2}})
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        master = "%s:%d" % listener.getsockname()[:2]
        started = time.monotonic()
        rc = main(["pub", "--config", path, "--master", master,
                   "--topic", "t", "x"])
        elapsed = time.monotonic() - started
    assert rc == 1
    assert elapsed < 1.0, f"pub took {elapsed:.2f}s"


def test_pub_dead_broker_exits_1():
    assert main(["pub", "--broker", f"127.0.0.1:{free_port()}",
                 "--topic", "t", "x"]) == 1


def test_pub_wildcard_topic_exits_2():
    assert main(["pub", "--broker", "127.0.0.1:1883",
                 "--topic", "a/#", "x"]) == 2


# --- sub ------------------------------------------------------------------------

def test_sub_unknown_topic_exits_3(make_master):
    master = make_master(["127.0.0.1"], free_port())
    assert main(["sub", "--master", str(master.address),
                 "--topic", "nothing/here"]) == 3


def test_sub_bad_filter_exits_2():
    assert main(["sub", "--master", "127.0.0.1:1884",
                 "--topic", "a/+/b"]) == 2


def test_sub_dead_master_exits_1():
    assert main(["sub", "--master", f"127.0.0.1:{free_port()}",
                 "--topic", "t"]) == 1


def test_sub_requires_topic():
    with pytest.raises(SystemExit) as exc:
        main(["sub"])
    assert exc.value.code == 2


# --- whole processes --------------------------------------------------------------

def spawn(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "tdmqtt", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def wait_for_listener(port, deadline=5.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"nothing listening on {port}")


def finish(proc, timeout=5.0):
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def test_default_client_ids_differ_between_processes():
    code = ("from tdmqtt.client import SubscriberSession\n"
            "from tdmqtt.packets import BrokerRef\n"
            "print(SubscriberSession(BrokerRef('127.0.0.1', 1), 't',"
            " print).client_id)")
    ids = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=10).stdout.strip()
           for _ in range(2)]
    assert ids[0] != ids[1]
    assert all(i.startswith("sub-") for i in ids)


def test_help_exits_0():
    proc = spawn("--help")
    assert finish(proc) == 0


def test_broker_process_serves_until_interrupted(make_fleet):
    port = free_port()
    proc = spawn("broker", "--listen", f"127.0.0.1:{port}")
    try:
        wait_for_listener(port)
        proc.send_signal(signal.SIGINT)
        assert finish(proc) == 0
    finally:
        if proc.poll() is None:
            proc.kill()


def test_master_process_serves_until_interrupted():
    port = free_port()
    proc = spawn("master", "--listen", f"127.0.0.1:{port}")
    try:
        wait_for_listener(port)
        proc.send_signal(signal.SIGINT)
        assert finish(proc) == 0
    finally:
        if proc.poll() is None:
            proc.kill()


def test_sub_process_streams_payloads(make_fleet, make_master):
    brokers, port = make_fleet(1)
    seed(brokers[0], "news", b"breaking")
    master = make_master(["127.0.0.1"], port)
    proc = spawn("sub", "--topic", "news", "--master", str(master.address))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 8.0)
        assert ready, "no payload line within 8s"
        assert proc.stdout.readline() == "breaking\n"
        proc.send_signal(signal.SIGINT)
        assert finish(proc) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
