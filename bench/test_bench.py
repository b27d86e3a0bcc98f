"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from checks import CheckError, check_f_witness, unsatisfied_edges
from speed import Probe, Speedometer
from stats import digest, fingerprint, hd_quantile, tail
from tracing import Tracer, self_times


@pytest.mark.parametrize("n, percentile, beyond", [
    (19, 100.0, 0),      # too few samples for any percentile: the maximum
    (20, 50.0, 10),
    (39, 50.0, 19),
    (40, 75.0, 10),
    (44, 75.0, 11),
    (99, 75.0, 24),
    (100, 90.0, 10),
    (1_000, 99.0, 10),   # float arithmetic puts p99.9 of 1000 at rank 1000, not 999
    (10_000, 99.9, 10),
    (34_020, 99.9, 34),
    (100_000, 99.99, 10),
])
def test_tail_takes_highest_percentile_with_ten_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n, 0, -1)]
    value, p, got_beyond = tail(values)
    assert (p, got_beyond) == (percentile, beyond)
    assert value == n - beyond
    assert sum(v > value for v in values) == beyond


@pytest.mark.parametrize("n", [1, 2, 11, 40, 34_820])
def test_hd_median_of_a_symmetric_sample_is_its_centre(n):
    values = [float(i) for i in range(n, 0, -1)]
    assert hd_quantile(values, 0.5) == pytest.approx((n + 1) / 2)
    assert hd_quantile([2.5] * n, 0.9) == pytest.approx(2.5)


def test_hd_quantile_leans_on_neighbouring_ranks():
    # Ranks 1..40: p75 sits between ranks 30 and 31 and moves smoothly with p.
    values = [float(i) for i in range(1, 41)]
    assert 29.5 < hd_quantile(values, 0.75) < 31.5
    assert hd_quantile(values, 0.5) < hd_quantile(values, 0.75) < hd_quantile(values, 0.9)
    # One outlying sample moves the estimate far less than it moves the maximum.
    assert hd_quantile(values[:-1] + [1e6], 0.5) == pytest.approx(hd_quantile(values, 0.5), abs=0.01)
    assert hd_quantile(values, 1.0) == 40.0


def test_speed_scaling_uses_the_median_probe_around_an_op():
    speed = Speedometer(Probe(vertices=10, searches=1, quiet=0.01, gap=0.0))
    speed.probes = [0.01, 0.02, 0.5, 0.02, 0.02]
    # Slot 2: probes 1..4 are 0.02, 0.5, 0.02, 0.02; the hiccup is ignored.
    assert speed.scale(2, 1.0) == pytest.approx(0.5)
    assert speed.scale(0, 1.0) == pytest.approx(0.5)    # probes 0..2
    assert speed.scaled(3.0, [0.01, 0.01]) == pytest.approx(3.0)


def test_speedometer_probes_only_after_the_gap():
    speed = Speedometer(Probe(vertices=50, searches=2, quiet=0.001, gap=3600.0))
    assert speed.mark() == 0 and speed.mark() == 0 and len(speed.probes) == 1
    speed.close()
    assert len(speed.probes) == 2 and all(p > 0 for p in speed.probes)
    low, mid, high = speed.speeds()
    assert 0 < low <= mid <= high


def test_self_time_subtracts_direct_children_only():
    # a [0,10] holds b [1,4] and d [5,9]; b holds c [2,3].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_rebinds_module_globals_and_nests_spans(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) + inner(x)\n"
         "def broken():\n    raise RecursionError\n", mod.__dict__)
    user.inner = mod.inner  # an importer's binding, rebound too
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, m)
    tracer = Tracer(["mod.outer", "mod.inner", "mod.broken"],
                    hooks={"mod.inner": lambda args, result: result})
    tracer.install("fakepkg")
    assert mod.outer(1) == 4 and user.inner(0) == 1
    with pytest.raises(RecursionError):
        mod.broken()
    tracer.disable()
    assert user.inner is not mod.outer and mod.inner(0) == 1
    assert tracer.calls == [1, 3, 1] and tracer.errors == [0, 0, 1]
    assert tracer.hook_sum[1] == 2 + 2 + 1
    assert list(tracer.span_parent) == [-1, 0, 0, -1, -1]
    own = tracer.self_seconds()
    outer_total = tracer.span_end[0] - tracer.span_start[0]
    inner_in_outer = sum(tracer.span_end[i] - tracer.span_start[i] for i in (1, 2))
    assert own[0] == pytest.approx(outer_total - inner_in_outer)


def test_checks_reject_a_conflict():
    # Path a-b-c-d: all color 1 leaves every edge seeing 1 twice or more.
    edges = [(0, 1), (1, 2), (2, 3)]
    assert unsatisfied_edges(4, edges, [1, 1, 1]) == [0, 1, 2]
    assert unsatisfied_edges(4, edges, [1, 2, 2]) == [2]
    assert unsatisfied_edges(4, edges, [1, 2, 0]) == []
    check_f_witness(4, edges, {0, 2})
    with pytest.raises(CheckError):
        check_f_witness(4, edges, {0})


def test_digest_depends_on_every_part():
    a = fingerprint([b"ab", b"c"])
    assert a != fingerprint([b"a", b"bc"])
    assert digest([a]) != digest([a, a])


def _prefix_digest(workload: str, seed: int, workdir: Path) -> str:
    _, ops = run.setup(workload, seed, workdir)
    runner = run.Runner(SUBSET[workload](ops))
    runner.run_round()
    assert not runner.errors
    return runner.digest()


# A cheap subset of each workload's ops. small-exact's trees are the same
# enumeration for every seed, so its subset adds the seeded dense graphs.
SUBSET = {
    "general-sparse": lambda ops: ops[:2],
    "bipartite-large": lambda ops: ops[:1],
    "small-exact": lambda ops: ops[:60] + [op for op in ops if op.kind == "oracle-dense"],
}


@pytest.mark.parametrize("workload", sorted(SUBSET))
def test_digest_stable_per_seed_and_differs_across_seeds(workload, tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    first = _prefix_digest(workload, 5, dirs[0])
    assert _prefix_digest(workload, 5, dirs[1]) == first
    assert _prefix_digest(workload, 6, dirs[2]) != first


def test_digest_ignores_hash_randomisation(tmp_path):
    code = ("import sys; sys.path.insert(0, 'bench'); import test_bench, pathlib; "
            "print(test_bench._prefix_digest('general-sparse', 5, pathlib.Path(sys.argv[1])))")
    out = []
    for hash_seed in ("1", "2"):
        d = tmp_path / hash_seed
        d.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out.append(subprocess.run([sys.executable, "-c", code, str(d)], env=env, cwd=run.ROOT,
                                  capture_output=True, text=True, check=True,
                                  timeout=120).stdout.strip().splitlines()[-1])
    assert out[0] == out[1]
