"""The traced benchmark harness wraps the package's functions by name.

benchmarks/spans.py swaps its wrappers into module attributes such as
master.broker_discovery, master.topic_discovery,
MasterBroker.refresh_registry and Registry.find.  A rename in the package
would break only traced benchmark runs, so each role's install() runs
here, in an interpreter of its own since install() patches modules.  The
master's census wrapper also reads the census result's length, so a
full census, a short-cut one and one for a single filter run under it
too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_traced(code: str) -> None:
    path = [str(ROOT / "benchmarks"), str(ROOT / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("role", ["broker", "master", "client"])
def test_the_traced_harness_installs_for_each_role(role):
    run_traced(f"import spans; spans.install(spans.Recorder('t'), {role!r})")


CENSUS_TWICE = """
import spans
from tdmqtt import master
from tdmqtt.broker import EdgeBroker
from tdmqtt.client import publish

rec = spans.Recorder("t")
spans.install(rec, "master")
broker = EdgeBroker(port=0).start()
try:
    publish(broker.address, "t", b"v", qos=1)
    counts = rec.state()["counts"]
    full = master.topic_discovery(broker.address, 2.0, 0.5)
    assert counts["master.census_topics"] == 1, counts
    again = master.topic_discovery(broker.address, 2.0, 0.5, full)
    assert again is full, "the second census was not short-cut"
    assert counts["master.census_topics"] == 2, counts
    assert counts["topic_discovery.calls"] == 2, counts
finally:
    broker.stop()
"""


def test_the_traced_census_counts_topics_when_full_and_short_cut():
    run_traced(CENSUS_TWICE)


FILTERED_CENSUS = """
import spans
from tdmqtt import master
from tdmqtt.broker import EdgeBroker
from tdmqtt.client import publish

rec = spans.Recorder("t")
spans.install(rec, "master")
broker = EdgeBroker(port=0).start()
try:
    publish(broker.address, "t", b"v", qos=1)
    publish(broker.address, "u", b"v", qos=1)
    counts = rec.state()["counts"]
    merged = master.topic_discovery(broker.address, 2.0, 0.5,
                                    master.Topics({"u"}), "t")
    assert isinstance(merged, frozenset) and merged == {"t", "u"}, merged
    assert counts["master.census_topics"] == 2, counts
finally:
    broker.stop()
"""


def test_the_traced_census_counts_the_merged_topics_of_a_filtered_one():
    run_traced(FILTERED_CENSUS)
