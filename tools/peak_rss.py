"""Run one ``cfcolor`` command in a subprocess and report what it cost.

Usage, from anywhere: ``python3 tools/peak_rss.py color --mode bipartite --gen path:100000``.

The command runs as ``python -m cfcolor.cli ARGV...`` against the ``src/``
tree next to this file, with its stdout discarded and its stderr passed
through. One line goes to stdout: the exit code, the wall time and the
child's peak resident set size (``ru_maxrss``), for example
``exit=0 wall_s=0.912 peak_rss_mb=91.4``. This tool's exit status is 0
whatever the command's is. Standard library only; Linux and macOS.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "cfcolor.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    mb = rss / (1 << 20) if sys.platform == "darwin" else rss / 1024
    print(f"exit={code} wall_s={wall:.3f} peak_rss_mb={mb:.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
