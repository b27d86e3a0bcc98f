"""Seeded inputs and the ops of each workload.

A workload is a fixed list of ops, one *round*; a run repeats the round.
Every input is drawn during set-up from the ``--seed`` argument, so the
program only ever sees generated inputs: edge-list files for CLI jobs, and
``Graph`` objects for library calls. Sizes follow a fixed grid and the seed
picks only the structure, so every seed gives the same instance mix.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from checks import (
    check_f_witness,
    check_total_cf,
    read_coloring,
    read_dot,
    require,
    unsatisfied_edges,
)

Edges = list[tuple[int, int]]


@dataclass
class Op:
    """One timed call into the package.

    ``run`` is the only timed part. ``collect`` turns its result into the
    output bytes that are fingerprinted; ``check`` validates them in the
    first round and returns facts the traced run reads (the tree index).
    For a CLI job ``run`` returns (exit code, stdout) and ``ok_codes`` lists
    the codes it may end with; any other code, or an exception out of
    ``run``, counts the op as failed.
    """

    kind: str
    edges: int
    run: Callable[[], Any]
    collect: Callable[[Any], list[bytes]]
    check: Callable[[Any, list[bytes]], dict]
    ok_codes: tuple[int, ...] | None = None
    digest: bool = True


# general-sparse: (vertices, average degree) per job; every fourth job
# writes DOT instead of the coloring format. An odd number of jobs puts the
# median latency on one job's repeats, not midway between two sizes.
GENERAL_GRID = ((1000, 4), (1000, 16), (1500, 8), (1500, 12), (2000, 4), (2000, 10),
                (2000, 16), (2500, 8), (2500, 12), (3000, 4), (3000, 16))
DOT_EVERY = 4

# bipartite-large: edge counts of the bipartite jobs (average degree 8 on
# each side), the trees as (family, vertices), and how many colors each
# corrupted copy of a bipartite coloring changes.
BIPARTITE_EDGES = (20_000, 35_000, 50_000, 80_000)
BIPARTITE_DEGREE = 8
TREES = (("random", 5_000), ("path", 5_000), ("spider", 10_000), ("random", 20_000))
SPIDER_LEG = (100, 400)
CORRUPTED_COLORS = 3

# small-exact: all labelled trees on TREE_N vertices, DENSE_COUNT dense
# graphs, and LONG_PATHS paths of about LONG_PATH_EDGES edges.
TREE_N = 7
TREE_K_MAX = 3
DENSE_COUNT = 600
DENSE_EDGES = (10, 13)
DENSE_VERTICES = (7, 8)
DENSE_K_MAX = 3
LONG_PATHS = 3
LONG_PATH_EDGES = 1500
LONG_K_MAX = 3


def ceil_log2(k: int) -> int:
    return max(1, (k - 1).bit_length())


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def compact(edges: Edges) -> tuple[int, Edges]:
    """Drop isolated vertices and renumber the rest in ascending order."""
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    return len(used), [(remap[u], remap[v]) for u, v in edges]


def sparse_graph(rng: random.Random, n: int, m: int) -> tuple[int, Edges]:
    """m distinct uniform vertex pairs by rejection, in draw order: O(m)
    expected while m is far below n^2/2, unlike an all-pairs sweep."""
    seen: set[tuple[int, int]] = set()
    edges: Edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (u, v) if u < v else (v, u)
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    return compact(edges)


def sparse_bipartite(rng: random.Random, nx: int, ny: int, m: int) -> tuple[int, Edges]:
    seen: set[tuple[int, int]] = set()
    edges: Edges = []
    while len(edges) < m:
        key = (rng.randrange(nx), nx + rng.randrange(ny))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return compact(edges)


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    """Random vertex ids, edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def spider(rng: random.Random, n: int) -> Edges:
    """Centre 0 with legs of seeded lengths in SPIDER_LEG, n vertices in all."""
    edges: Edges = []
    nxt = 1
    while nxt < n:
        length = min(rng.randint(*SPIDER_LEG), n - nxt)
        prev = 0
        for v in range(nxt, nxt + length):
            edges.append((prev, v))
            prev = v
        nxt += length
    return edges


def write_edge_list(path: Path, n: int, edges: Edges) -> None:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def read_file(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def cli_call(mods: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _summary_fields(stdout: str) -> dict[str, str]:
    """Fields of the ``mode=... n=... m=... colors_used=... bound<=...`` line."""
    line = stdout.splitlines()[0]
    return dict(item.replace("<=", "=").split("=", 1) for item in line.split())


def _check_summary(stdout: str, mode: str, n: int, m: int, used: int, bound: int) -> None:
    f = _summary_fields(stdout)
    require(f.get("mode") == mode and f.get("n") == str(n) and f.get("m") == str(m),
            f"summary line {stdout.splitlines()[0]!r} does not match the input")
    require(int(f["colors_used"]) == used,
            f"summary claims {f['colors_used']} colors, recount {used}")
    require(used <= int(f["bound"]) <= bound, f"claimed bound {f['bound']} not within {bound}")


def cli_color_op(mods: SimpleNamespace, kind: str, argv: list[str], out: Path,
                 check: Callable[[str, bytes], dict], m: int) -> Op:
    return Op(
        kind=kind,
        edges=m,
        run=lambda: cli_call(mods, argv),
        collect=lambda res: [str(res[0]).encode(), res[1].encode(), read_file(out)],
        check=lambda res, parts: check(res[1], parts[2]),
        ok_codes=(0,),
    )


# ---------------------------------------------------------------------------
# general-sparse
# ---------------------------------------------------------------------------

def general_sparse(seed: int, workdir: Path, mods: SimpleNamespace) -> list[Op]:
    ops = []
    for i, (n0, degree) in enumerate(GENERAL_GRID):
        n, edges = sparse_graph(rng_for("general-sparse", seed, i), n0, n0 * degree // 2)
        src, out = workdir / f"general{i}.txt", workdir / f"general{i}.out"
        write_edge_list(src, n, edges)
        dot = i % DOT_EVERY == DOT_EVERY - 1
        argv = ["color", "--mode", "general", "--input", str(src), "--output", str(out)]
        if dot:
            argv += ["--format", "dot"]
        ops.append(cli_color_op(mods, "color-general-dot" if dot else "color-general",
                                argv, out, _general_check(n, edges, dot), len(edges)))
    return ops


def _general_check(n: int, edges: Edges, dot: bool) -> Callable[[str, bytes], dict]:
    def check(stdout: str, output: bytes) -> dict:
        text = output.decode()
        colors = read_dot(text, edges) if dot else read_coloring(text, len(edges))
        # DSATUR uses at most max_degree + 1 classes.
        bound = 2 * ceil_log2(_max_degree(n, edges) + 1) + 1
        used = check_total_cf(n, edges, colors, bound)
        _check_summary(stdout, "general", n, len(edges), used, bound)
        return {}
    return check


def _max_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


# ---------------------------------------------------------------------------
# bipartite-large
# ---------------------------------------------------------------------------

def bipartite_large(seed: int, workdir: Path, mods: SimpleNamespace) -> list[Op]:
    color_ops, tree_ops, verify_ops = [], [], []
    for i, m in enumerate(BIPARTITE_EDGES):
        rng = rng_for("bipartite-large", seed, i)
        side = m // BIPARTITE_DEGREE
        n, edges = sparse_bipartite(rng, side, side, m)
        src, out = workdir / f"bip{i}.txt", workdir / f"bip{i}.out"
        bad = workdir / f"bip{i}.bad"
        write_edge_list(src, n, edges)
        argv = ["color", "--mode", "bipartite", "--input", str(src), "--output", str(out)]
        color_ops.append(cli_color_op(mods, "color-bipartite", argv, out,
                                      _bipartite_check(n, edges, bad, rng), len(edges)))
        for kind, coloring in (("verify-valid", out), ("verify-corrupted", bad)):
            verify_ops.append(_verify_op(mods, kind, n, edges, src, coloring))
    indices: dict[int, int] = {}
    for j, (family, n) in enumerate(TREES):
        rng = rng_for("bipartite-large", seed, 100 + j)
        if family == "random":
            tree = mods.generators.random_tree(n, rng.getrandbits(63))
            edges = list(tree.edges)
        elif family == "path":
            edges = relabel(rng, n, [(v, v + 1) for v in range(n - 1)])
        else:
            edges = relabel(rng, n, spider(rng, n))
        src = workdir / f"tree{j}.txt"
        write_edge_list(src, n, edges)
        out, f_out, c_out = (workdir / f"tree{j}.{ext}" for ext in ("out", "f", "col"))
        argv = ["color", "--mode", "tree", "--input", str(src), "--output", str(out)]
        tree_ops.append(cli_color_op(mods, f"color-tree-{family}", argv, out,
                                     _tree_color_check(n, edges, family, j, indices), len(edges)))
        argv = ["decide-tree", "--input", str(src), "--f-out", str(f_out),
                "--coloring-out", str(c_out)]
        tree_ops.append(Op(
            kind=f"decide-tree-{family}",
            edges=len(edges),
            run=lambda argv=argv: cli_call(mods, argv),
            collect=lambda res, f_out=f_out, c_out=c_out: [
                str(res[0]).encode(), res[1].encode(), read_file(f_out), read_file(c_out)],
            check=_decide_check(n, edges, family, j, indices),
            ok_codes=(0,),
        ))
    # Verify jobs come last: their coloring files are written by the color
    # jobs (and corrupted by their checks) earlier in the first round.
    return color_ops + tree_ops + verify_ops


def _bipartite_check(n: int, edges: Edges, bad: Path,
                     rng: random.Random) -> Callable[[str, bytes], dict]:
    def check(stdout: str, output: bytes) -> dict:
        colors = read_coloring(output.decode(), len(edges))
        used = check_total_cf(n, edges, colors, 3)
        _check_summary(stdout, "bipartite", n, len(edges), used, 3)
        corrupted = list(colors)
        for eid in rng.sample(range(len(edges)), CORRUPTED_COLORS):
            corrupted[eid] = rng.choice([c for c in (1, 2, 3) if c != colors[eid]])
        bad.write_text(f"{len(edges)} 3\n" + "".join(f"{e} {c}\n" for e, c in enumerate(corrupted)))
        return {}
    return check


def _verify_op(mods: SimpleNamespace, kind: str, n: int, edges: Edges,
               graph: Path, coloring: Path) -> Op:
    argv = ["verify", "--graph", str(graph), "--coloring", str(coloring)]

    def check(res: tuple[int, str], parts: list[bytes]) -> dict:
        colors = read_coloring(parts[2].decode(), len(edges))
        bad = unsatisfied_edges(n, edges, colors)
        if bad:
            expect = (1, "unsatisfied: " + " ".join(map(str, bad)) + "\n")
        else:
            expect = (0, f"conflict-free: all {len(edges)} edges satisfied\n")
        require((res[0], res[1]) == expect,
                f"verify said exit {res[0]} {res[1][:80]!r}, recount expects {expect[0]}")
        return {}

    return Op(
        kind=kind,
        edges=len(edges),
        run=lambda: cli_call(mods, argv),
        collect=lambda res: [str(res[0]).encode(), res[1].encode(), read_file(coloring)],
        check=check,
        ok_codes=(0, 1),
    )


def _record_index(indices: dict[int, int], tree: int, family: str, index: int) -> None:
    # Paths and long-legged spiders have conflict-free 2-colorings, so a
    # refutation on them is wrong; both jobs on one tree must agree.
    require(family == "random" or index == 2, f"{family} tree refuted (index {index})")
    require(indices.setdefault(tree, index) == index,
            f"tree {tree}: color job and decide-tree disagree on the index")


def _tree_color_check(n: int, edges: Edges, family: str, tree: int,
                      indices: dict[int, int]) -> Callable[[str, bytes], dict]:
    def check(stdout: str, output: bytes) -> dict:
        colors = read_coloring(output.decode(), len(edges))
        used = check_total_cf(n, edges, colors, 3)
        _check_summary(stdout, "tree", n, len(edges), used, 3)
        if used == 2:
            check_f_witness(n, edges, {e for e, c in enumerate(colors) if c == 1}, colors)
        _record_index(indices, tree, family, used)
        return {"tree_index": used}
    return check


def _decide_check(n: int, edges: Edges, family: str, tree: int,
                  indices: dict[int, int]) -> Callable[[tuple[int, str], list[bytes]], dict]:
    def check(res: tuple[int, str], parts: list[bytes]) -> dict:
        stdout = res[1]
        head = stdout.splitlines()[0]
        require(head in ("index=2", "index=3"), f"decide-tree printed {head!r}")
        index = int(head.split("=")[1])
        if index == 2:
            f_edges = {int(x) for x in parts[2].split()}
            colors = read_coloring(parts[3].decode(), len(edges))
            check_f_witness(n, edges, f_edges, colors)
        else:
            require(stdout == head + "\n", "decide-tree printed more than the index for index 3")
        _record_index(indices, tree, family, index)
        return {"tree_index": index}
    return check


# ---------------------------------------------------------------------------
# small-exact
# ---------------------------------------------------------------------------

def interleave(base: list[Op], extra: list[Op]) -> list[Op]:
    """Spread ``extra`` evenly through ``base``, so that a burst of load on
    the shared machine cannot fall on one group of ops as a whole."""
    slots = [(i * (len(extra) + 1), 0, op) for i, op in enumerate(base)]
    slots += [((j + 1) * len(base), 1, op) for j, op in enumerate(extra)]
    return [op for *_, op in sorted(slots, key=lambda slot: slot[:2])]


def small_exact(seed: int, workdir: Path, mods: SimpleNamespace) -> list[Op]:
    trees = [_tree_survey_op(mods, t) for _seq, t in mods.generators.all_labeled_trees(TREE_N)]
    dense, long_paths = [], []
    rng = rng_for("small-exact", seed, 0)
    for i in range(DENSE_COUNT):
        m = DENSE_EDGES[0] + i % (DENSE_EDGES[1] - DENSE_EDGES[0] + 1)
        n = DENSE_VERTICES[i % 2]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        while True:
            rng.shuffle(pairs)
            if len({v for e in pairs[:m] for v in e}) == n:
                break
        g = mods.graph.build_graph(n, pairs[:m])
        dense.append(_oracle_op(mods, "oracle-dense", g, DENSE_K_MAX, None))
    for _ in range(LONG_PATHS):
        m = LONG_PATH_EDGES + rng.randint(-50, 50)
        g = mods.graph.build_graph(m + 1, [(v, v + 1) for v in range(m)])
        # A path with at least three edges has scf = 1 and cf = 2. The
        # recursive search raises RecursionError here; such an op counts as
        # failed and stays out of the digest, so fixing it needs no re-record.
        long_paths.append(_oracle_op(mods, "oracle-long-path", g, LONG_K_MAX, (1, 2)))
    return interleave(trees, interleave(dense, long_paths))


def _tree_survey_op(mods: SimpleNamespace, t: Any) -> Op:
    def run() -> tuple:
        f_edges = mods.tree.decide_tree_two(t)
        index = mods.tree.tree_cf_index(t)
        coloring = report = None
        if index == 2:
            coloring = mods.tree.coloring_from_f(t, f_edges)
            report = mods.coloring.verify_cf(t, coloring)
        return f_edges, index, coloring, report, mods.oracle.exact_cf_index(t, TREE_K_MAX)

    def collect(res: tuple) -> list[bytes]:
        f_edges, index, coloring, report, oracle = res
        return [repr(sorted(f_edges) if f_edges is not None else None).encode(),
                repr(index).encode(),
                repr(coloring.colors if coloring else None).encode(),
                repr(report.unsatisfied if report else None).encode(),
                repr(oracle).encode()]

    edges = list(t.edges)

    def check(res: tuple, parts: list[bytes]) -> dict:
        f_edges, index, coloring, report, oracle = res
        require(index == oracle, f"tree DP index {index}, oracle {oracle!r}")
        if index == 2:
            require(f_edges is not None and report is not None and not report.unsatisfied,
                    "index 2 without an accepted witness")
            check_f_witness(t.n, edges, set(f_edges), list(coloring.colors))
        else:
            require(index == 3 and f_edges is None, f"index {index} with witness {f_edges!r}")
        return {"tree_index": index}

    return Op(kind="tree-survey", edges=t.m, run=run, collect=collect, check=check)


def _oracle_op(mods: SimpleNamespace, kind: str, g: Any, k_max: int,
               known: tuple[int, int] | None) -> Op:
    def run() -> tuple:
        return mods.oracle.exact_scf_index(g, k_max), mods.oracle.exact_cf_index(g, k_max)

    def check(res: tuple, parts: list[bytes]) -> dict:
        scf, cf = res
        require(all(x is None or type(x) is int for x in res), f"oracle returned {res!r}")
        if known is not None:
            require(res == known, f"oracle gave {res}, expected {known}")
        elif cf is not None:
            # Sandwich: scf <= cf <= scf + 1.
            require(scf is not None and 1 <= scf <= cf <= scf + 1, f"scf={scf} cf={cf}")
        else:
            require(scf is None or scf == k_max, f"scf={scf} but no cf <= {k_max}")
        return {}

    return Op(kind=kind, edges=g.m, run=run, collect=lambda res: [repr(res).encode()],
              check=check, digest=known is None)


WORKLOADS: dict[str, Callable[[int, Path, SimpleNamespace], list[Op]]] = {
    "general-sparse": general_sparse,
    "bipartite-large": bipartite_large,
    "small-exact": small_exact,
}
