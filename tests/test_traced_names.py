"""The traced benchmark harness wraps the package's functions by name.

benchmarks/spans.py swaps its wrappers into module attributes such as
master.broker_discovery, master.topic_discovery,
MasterBroker.refresh_registry and Registry.find.  A rename in the package
would break only traced benchmark runs, so each role's install() runs
here, in an interpreter of its own since install() patches modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("role", ["broker", "master", "client"])
def test_the_traced_harness_installs_for_each_role(role):
    path = [str(ROOT / "benchmarks"), str(ROOT / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import spans; spans.install(spans.Recorder('t'), {role!r})"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
