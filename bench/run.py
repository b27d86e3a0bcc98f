"""cfcolor benchmark: seeded workloads, checked outputs, end-to-end metrics.

Usage, from the repository root:

    python3 bench/run.py --workload general-sparse --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in a fresh interpreter. The
package is imported from ``src/`` next to this directory; without it the
script exits 2 before printing a result.

A run sets up ``SETUP_REPEATS`` times (import, input generation, file
writing) and reports the median as ``setup_s``. It then repeats the
workload's round a fixed number of times, chosen so that at the baseline commit
the rounds take about ``--seconds`` on a quiet machine; a fixed amount of
work keeps every run of one seed comparable. Only the calls into the package are timed, and
every time reported is scaled to a quiet machine by speed probes run between
ops (see ``speed.py``); medians and tail percentiles are Harrell-Davis
estimates. Outputs are checked by this directory's own code in the first
round, and later rounds must reproduce them byte for byte. The last line of
standard output is one JSON object.

With ``--trace 1`` the run sets up once with the generators traced, then
runs one round in which each op runs untraced and then again with every
traced function of the package wrapped (see ``tracing.py``), and reports
per-layer metrics per round instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import CheckError  # noqa: E402
from stats import digest, fingerprint, hd_quantile, tail  # noqa: E402
from speed import Probe, Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Seconds one round takes at the baseline commit on the quiet machine of
# speed.py (Python 3.11, 2 vCPU Xeon).
ROUND_SECONDS = {"general-sparse": 3.85, "bipartite-large": 9.5, "small-exact": 10.3}
# Speed probes (see speed.py). The CLI jobs' inputs take megabytes and
# each job gets a probe of its own; the tiny library calls stay in the core's
# cache and share a small probe every tenth of a second.
PROBES = {
    "general-sparse": Probe(vertices=4_000, searches=5, quiet=0.003, gap=0.3),
    "bipartite-large": Probe(vertices=40_000, searches=1, quiet=0.025, gap=0.3),
    "small-exact": Probe(vertices=1_000, searches=10, quiet=0.0013, gap=0.1),
}
LAYERS = ("cli", "graph", "generators", "coloring", "bipartite", "general", "tree", "oracle")

TRACED = [
    "cli.main",
    "graph.parse_edge_list", "graph.build_graph", "graph.bipartition", "graph.components",
    "coloring.verify_cf", "coloring.parse_coloring", "coloring.format_coloring",
    "coloring.closed_neighborhood",
    "bipartite.minimal_y_dominating_set", "bipartite.bipartite_scf_coloring",
    "bipartite.extend_to_cf",
    "general.greedy_vertex_coloring", "general.recursive_scf_coloring",
    "tree.decide_tree_two", "tree.tree_cf_index", "tree.coloring_from_f",
    "tree.check_f_certificate",
    "oracle.exact_cf_index", "oracle.exact_scf_index",
    "generators.random_tree", "generators.all_labeled_trees",
]
SETUP_ONLY = ("generators.random_tree", "generators.all_labeled_trees")

# Values read from return values and arguments, summed per function.
HOOKS = {
    "general.greedy_vertex_coloring": lambda args, vc: vc.k,
    "bipartite.minimal_y_dominating_set": lambda args, cert: len(cert.dominating),
    "bipartite.extend_to_cf": lambda args, total: sum(1 for c in args[1].colors if c == 0),
    "coloring.verify_cf": lambda args, report: args[0].m,
}


def import_package() -> SimpleNamespace:
    """Import cfcolor afresh from SRC, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "cfcolor" or n.startswith("cfcolor.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(**{
        layer: importlib.import_module(f"cfcolor.{layer}") for layer in LAYERS})
    if Path(mods.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cfcolor imported from {mods.cli.__file__}, not from {SRC}")
    return mods


def setup(workload: str, seed: int, workdir: Path,
          tracer: Tracer | None = None) -> tuple[float, list[Op]]:
    t0 = perf_counter()
    mods = import_package()
    if tracer is not None:
        tracer.install()
    ops = WORKLOADS[workload](seed, workdir, mods)
    return perf_counter() - t0, ops


class Runner:
    """Runs rounds of ops, checks the first round, fingerprints the rest.

    Given a tracer, each op runs once untraced and then once traced, so the
    tracing overhead is measured on the same op back to back. Given a
    speedometer, the machine is probed between ops and every untraced op
    time is also kept scaled to the quiet machine's speed (see ``speed.py``).
    """

    def __init__(self, ops: list[Op], speed: Speedometer | None = None) -> None:
        self.ops = ops
        self.speed = speed
        # (time, probe slot, failed) of every untraced op run.
        self.samples: list[tuple[float, int, bool]] = []
        self.fingerprints: list[bytes] = []
        self.facts: list[dict] = [{} for _ in ops]
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.edges = 0
        self.busy = 0.0
        self.traced_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.round_busy: list[float] = []

    @staticmethod
    def _execute(op: Op) -> tuple[object, bool, float]:
        t0 = perf_counter()
        try:
            result = op.run()
            failed = op.ok_codes is not None and result[0] not in op.ok_codes
        except Exception as exc:  # noqa: BLE001 - any exception is a failed op
            result, failed = f"raised {type(exc).__name__}", True
        return result, failed, perf_counter() - t0

    def run_round(self, tracer: Tracer | None = None,
                  probe: Callable[[], tuple[float, ...]] | None = None) -> None:
        first = self.rounds == 0
        busy_before = self.busy
        for i, op in enumerate(self.ops):
            slot = self.speed.mark() if self.speed else -1
            result, failed, elapsed = self._execute(op)
            self.samples.append((elapsed, slot, failed))
            self.attempted += 1
            self.edges += op.edges
            self.busy += elapsed
            if failed:
                self.failed += 1
                parts = [str(result).encode()]
            else:
                self.latencies.append(elapsed)
                parts = op.collect(result)
            if first:
                self.fingerprints.append(fingerprint(parts))
                if not failed:
                    try:
                        self.facts[i].update(op.check(result, parts))
                    except (CheckError, ValueError, IndexError, KeyError) as exc:
                        self.errors.append(f"op {i} ({op.kind}): {exc}")
            else:
                self._compare(i, op, parts)
            if tracer is not None:
                before = probe()
                tracer.enable()
                result, failed, elapsed = self._execute(op)
                tracer.disable()
                self.traced_busy += elapsed
                self.facts[i]["probe"] = [a - b for a, b in zip(probe(), before)]
                self._compare(i, op, [str(result).encode()] if failed else op.collect(result))
        if self.speed:
            self.speed.close()
        self.rounds += 1
        self.round_busy.append(self.busy - busy_before)

    def scaled_times(self) -> tuple[list[float], list[float]]:
        """Untraced op times on the quiet machine: (all ops, ops that did
        not fail). Call after the last round."""
        every, ok = [], []
        for elapsed, slot, failed in self.samples:
            t = self.speed.scale(slot, elapsed)
            every.append(t)
            if not failed:
                ok.append(t)
        return every, ok

    def _compare(self, i: int, op: Op, parts: list[bytes]) -> None:
        if fingerprint(parts) != self.fingerprints[i]:
            self.errors.append(f"op {i} ({op.kind}): output differs from the first run")

    def digest(self) -> str:
        return digest([fp for op, fp in zip(self.ops, self.fingerprints) if op.digest])


def recorded_digest(workload: str) -> str | None:
    return json.loads((HERE / "digests.json").read_text()).get(workload)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args: argparse.Namespace, workdir: Path) -> tuple[Runner, dict, list[str]]:
    speed = Speedometer(PROBES[args.workload])
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        seconds, ops = setup(args.workload, args.seed, workdir)
        speed.probe()
        raw_setups.append(seconds)
        setups.append(speed.scaled(seconds, speed.probes[-2:]))
    runner = Runner(ops, speed)
    t0 = perf_counter()
    for _ in range(rounds_for(args.workload, args.seconds)):
        runner.run_round()
    wall = perf_counter() - t0
    every, ok = runner.scaled_times()
    _, tail_p, beyond = tail(ok)
    n = len(ops)
    round_s = [sum(every[r * n:(r + 1) * n]) for r in range(runner.rounds)]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "edges_per_s": metric(runner.edges / sum(every), "1/s"),
        "latency_p50_ms": metric(hd_quantile(ok, 0.5) * 1e3, "ms"),
        "latency_tail_ms": metric(hd_quantile(ok, tail_p / 100) * 1e3, "ms"),
        "ok_frac": metric(1 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"rounds {runner.rounds}, ops {runner.attempted}, wall {wall:.2f} s, busy per round "
        f"{[round(b, 2) for b in runner.round_busy]} s ({[round(b, 2) for b in round_s]} s on "
        f"the quiet machine), setups {[round(s, 3) for s in raw_setups]} s",
        f"unscaled wall times: setup_s {statistics.median(raw_setups):.6g}, edges_per_s "
        f"{runner.edges / runner.busy:.6g}, latency_p50_ms "
        f"{statistics.median(runner.latencies) * 1e3:.6g}, {len(speed.probes)} speed probes, "
        f"machine speed min/median/max "
        f"{'/'.join(f'{q:.3f}' for q in speed.speeds())} of the quiet machine's",
        f"latency_tail_ms is p{tail_p:g} over {len(runner.latencies)} successful ops, "
        f"{beyond} beyond it",
        f"failed_frac {runner.failed / runner.attempted:.6f} "
        f"({runner.failed} of {runner.attempted} ops)",
    ]
    return runner, metrics, notes


def traced(args: argparse.Namespace, workdir: Path) -> tuple[Runner, dict, list[str]]:
    tracer = Tracer(TRACED, HOOKS)
    _, ops = setup(args.workload, args.seed, workdir, tracer)
    tracer.disable()
    setup_self = tracer.self_seconds()
    setup_calls = list(tracer.calls)
    tracer.clear()
    runner = Runner(ops)
    dp, vf = tracer.ids["tree.decide_tree_two"], tracer.ids["coloring.verify_cf"]
    runner.run_round(tracer, probe=lambda: (tracer.calls[dp], tracer.hook_sum[vf]))
    tracer.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}.csv")

    metrics = {}
    own = tracer.self_seconds()
    for nid, name in enumerate(TRACED):
        calls, self_s = (setup_calls[nid], setup_self[nid]) if name in SETUP_ONLY \
            else (tracer.calls[nid], own[nid])
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")

    def per_call(name: str) -> float:
        nid = tracer.ids[name]
        return tracer.hook_sum[nid] / tracer.calls[nid] if tracer.calls[nid] else 0.0

    round_edges = sum(op.edges for op in ops)
    tree_ops = [f for f in runner.facts if "tree_index" in f]
    index2 = [f for f in tree_ops if f["tree_index"] == 2]
    oracle_errors = sum(tracer.errors[tracer.ids[n]]
                        for n in ("oracle.exact_cf_index", "oracle.exact_scf_index"))
    metrics.update({
        "general.dsatur_k": metric(per_call("general.greedy_vertex_coloring"), "count"),
        "bipartite.dominating_size": metric(
            per_call("bipartite.minimal_y_dominating_set"), "count"),
        "bipartite.extend_filled_edges": metric(
            tracer.hook_sum[tracer.ids["bipartite.extend_to_cf"]], "count"),
        "coloring.verify_edges_per_input_edge": metric(
            tracer.hook_sum[tracer.ids["coloring.verify_cf"]] / round_edges, "ratio"),
        "tree.dp_runs_per_tree": metric(
            sum(f["probe"][0] for f in index2) / len(index2) if index2 else 0.0, "ratio"),
        "tree.index2_share": metric(len(index2) / len(tree_ops) if tree_ops else 0.0, "frac"),
        "oracle.errors": metric(oracle_errors, "count"),
        "trace.overhead_frac": metric(runner.traced_busy / runner.busy - 1, "frac"),
    })
    per_kind: dict[str, list[float]] = {}
    for op, f in zip(ops, runner.facts):
        acc = per_kind.setdefault(op.kind, [0.0, 0.0])
        acc[0] += f["probe"][1]
        acc[1] += op.edges
    notes = [f"untraced round {runner.busy:.2f} s, traced round {runner.traced_busy:.2f} s, "
             f"{len(tracer.span_start)} spans",
             "verify_cf edges per input edge by op kind: "
             + ", ".join(f"{k} {v / e:g}" for k, (v, e) in per_kind.items())]
    return runner, metrics, notes


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner, metrics, notes = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = list(runner.errors)
    run_digest = runner.digest()
    if args.seed == DEFAULT_SEED:
        expected = recorded_digest(args.workload)
        if run_digest != expected:
            errors.append(f"digest {run_digest} differs from the recorded {expected}")
    kinds = Counter(op.kind for op in runner.ops)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runner.ops)} ops per round {dict(kinds)}")
    for note in notes:
        print(note)
    print(f"digest {run_digest}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
