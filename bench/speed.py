"""Machine-speed correction: a fixed reference search timed between ops.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more over minutes while the process keeps its CPU (CPU time equals wall
time and steal time stays near zero): neighbours slow the host's cores and
caches. Every time the benchmark reports is therefore scaled by the
machine's speed at that moment, measured by timing ``reference_work`` (the
benchmark's own pure-Python code, nothing from the package) in probes
between ops. A time ``t`` measured while the probe takes ``r`` seconds is
reported as ``t * quiet / r``, where ``quiet`` is the probe's time on a
quiet 2-vCPU Xeon VM running Python 3.11: the time the op would take there.
A change to the package moves the scaled times as it moves wall times; only
the machine's drift cancels.

Contention for the shared caches slows code that works on megabytes more
than code that stays in the core's own cache, so a workload's probe
searches a graph about the size of the workload's inputs.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass
from time import perf_counter



@dataclass(frozen=True)
class Probe:
    """A probe: ``searches`` timed searches of a graph of ``vertices``,
    taking ``quiet`` seconds on a quiet machine, at most once per ``gap``
    seconds."""

    vertices: int
    searches: int
    quiet: float
    gap: float


def reference_graph(vertices: int) -> list[list[int]]:
    """A ring with two random chords per vertex, the same in every run."""
    rng = random.Random(5)
    return [[(v + 1) % vertices, rng.randrange(vertices), rng.randrange(vertices)]
            for v in range(vertices)]


def reference_work(neighbours: list[list[int]]) -> int:
    """Breadth-first search of the whole graph; returns its depth."""
    seen = [False] * len(neighbours)
    seen[0] = True
    frontier = [0]
    depth = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbours[u]:
                if not seen[w]:
                    seen[w] = True
                    nxt.append(w)
        frontier = nxt
        depth += 1
    return depth


class Speedometer:
    """Probes the machine between ops and scales op times by its speed.

    ``mark`` is called before each op and returns the op's probe slot; it
    runs a probe first when ``gap`` seconds have passed since the last one.
    ``close`` runs a final probe. ``scale(slot, t)`` then scales a time by
    the median of the two probes before the op and the two after it, so one
    probe caught by a hiccup of the machine does not skew the op.
    """

    def __init__(self, spec: Probe) -> None:
        self.spec = spec
        self.graph = reference_graph(spec.vertices)
        self.probes: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        # One untimed call first: an op before the probe leaves the caches
        # cold, which would read as a slow machine. The collector is off
        # while timing, as a collection of the ops' inputs would too.
        reference_work(self.graph)
        gc.disable()
        t0 = perf_counter()
        for _ in range(self.spec.searches):
            reference_work(self.graph)
        t1 = perf_counter()
        gc.enable()
        self.probes.append(t1 - t0)
        self._last = t1

    def mark(self) -> int:
        if perf_counter() - self._last >= self.spec.gap:
            self.probe()
        return len(self.probes) - 1

    def close(self) -> None:
        self.probe()

    def scale(self, slot: int, seconds: float) -> float:
        return self.scaled(seconds, self.probes[max(0, slot - 1):slot + 3])

    def scaled(self, seconds: float, around: list[float]) -> float:
        """``seconds`` on the quiet machine, given the probe times around it."""
        return seconds * self.spec.quiet / statistics.median(around)

    def speeds(self) -> tuple[float, float, float]:
        """The machine's speed relative to quiet: min, median and max."""
        s = sorted(self.spec.quiet / p for p in self.probes)
        return s[0], s[len(s) // 2], s[-1]
