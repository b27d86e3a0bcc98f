"""Every narrative demo runs to completion against the source tree and
prints exactly the text it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))

# SHA-256 of each demo's stdout. The demos are deterministic, so any change
# here is a change in what they print, budget counts included.
STDOUT_SHA256 = {
    "bipartite_walkthrough.py": "b981b53eb043ef2db074ecb295a0bf5d34a3c0899fe1eec8a057f2701ea1b7a6",
    "general_recursion.py": "cf165afc2b093e6983b320185981d4ec1177f51adb59d7504af5d7b972dd712f",
    "oracle_search.py": "212c03e772565ad732d5f4d7c3e9b7f76b3707ec4b58c28312f195e852eb4189",
    "tree_decision.py": "c1285c305b8ac049590a173bc4a22e413894506af946fb4b9a8edf32d06df028",
}


def test_demos_exist():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=REPO, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
