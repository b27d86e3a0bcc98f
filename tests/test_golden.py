"""Byte-for-byte lock on the package's outputs.

Each case below renders one output as text: a generator's graphs, a
construction's colorings and certificates, the verifier's unsatisfied and
witness pairs, the tree DP's witnesses and conditions, the oracle's indices,
the exact message of a rejected input, or one CLI run (exit code, stdout,
stderr and every file it wrote, with the temporary directory written as
``<tmp>``). The test compares the SHA-256 of each rendering with the digest
recorded in ``tests/golden_digests.json`` and names every case that differs,
so a refactor can show that it changed no output.

Left out on purpose: outputs that are meant to change, such as how the CLI
reports an unexpected exception and how generators treat a probability
outside [0, 1].

Record the digests again only when an output changes on purpose:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Iterator

from cfcolor.bipartite import (
    DominationCertificate,
    bipartite_cf_coloring,
    bipartite_scf_coloring,
    check_certificate,
    extend_to_cf,
    format_certificate,
    minimal_y_dominating_set,
)
from cfcolor.cli import main
from cfcolor.coloring import (
    EdgeColoring,
    closed_neighborhood,
    colors_used,
    format_coloring,
    parse_coloring,
    verify_cf,
)
from cfcolor.general import (
    VertexColoring,
    cycle_cf_coloring,
    general_cf_coloring,
    greedy_vertex_coloring,
    recursive_scf_coloring,
)
from cfcolor.generators import (
    SplitMix64,
    all_labeled_trees,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_bipartite,
    random_graph,
    random_tree,
    star,
)
from cfcolor.graph import (
    Bipartition,
    Graph,
    bipartition,
    build_graph,
    components,
    format_edge_list,
    parse_edge_list,
)
from cfcolor.oracle import OracleBudget, exact_cf_index, exact_scf_index, sandwich_check
from cfcolor.tree import (
    TreeFCertificate,
    check_f_certificate,
    coloring_from_f,
    decide_tree_two,
    f_from_coloring,
    format_f_set,
    tree_cf_index,
)

from reference import naive_report

DIGESTS = Path(__file__).with_name("golden_digests.json")

THREE_TREE = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
SPIDER = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
PETERSEN = build_graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7),
    (3, 8), (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
])
# isolated vertices 2 and 4; the rest is one edge and a triangle
ISOLATED = build_graph(8, [(0, 1), (3, 5), (5, 6), (6, 3)])

GRAPHS: dict[str, Graph] = {
    "p2": path(2),
    "p3": path(3),
    "p4": path(4),
    "p7": path(7),
    "c4": cycle(4),
    "c5": cycle(5),
    "c6": cycle(6),
    "star5": star(5),
    "k4": complete(4),
    "k5": complete(5),
    "k23": complete_bipartite(2, 3),
    "k33": complete_bipartite(3, 3),
    "spider": SPIDER,
    "three_tree": THREE_TREE,
    "petersen": PETERSEN,
    "rb1": random_bipartite(6, 7, 0.4, 1),
    "rb2": random_bipartite(8, 8, 0.3, 2),
    "rg1": random_graph(9, 0.45, 3),
    "rg2": random_graph(12, 0.3, 4),
    "rt1": random_tree(9, 5),
    "rt2": random_tree(14, 6),
}
ORACLE_MAX_EDGES = 10


def _outcome(fn: Callable[[], object]) -> str:
    try:
        return repr(fn())
    except Exception as exc:  # the message is part of the locked output
        return f"raises {type(exc).__name__}: {exc}"


def _report(g: Graph, c: EdgeColoring) -> str:
    report = verify_cf(g, c)
    recounted = set(naive_report(g, c)[0])
    return (f"unsatisfied={list(report.unsatisfied)} "
            f"witness={sorted(report.witness.items())} "
            f"is_satisfied={[e not in recounted for e in range(g.m)]}")


def _random_colorings(g: Graph, seed: int) -> Iterator[EdgeColoring]:
    rng = SplitMix64(seed)
    for k in (1, 2, 3, 4):
        for _ in range(3):
            yield EdgeColoring(k=k, colors=tuple(rng.next_below(k + 1) for _ in range(g.m)))


def _corrupt(c: EdgeColoring) -> EdgeColoring:
    # recolor every third edge with the color of its predecessor
    colors = list(c.colors)
    for e in range(1, len(colors), 3):
        colors[e] = colors[e - 1]
    return EdgeColoring(k=c.k, colors=tuple(colors))


def _tree_subsets(t: Graph, seed: int) -> Iterator[frozenset[int]]:
    yield frozenset()
    yield frozenset(range(t.m))
    rng = SplitMix64(seed)
    for _ in range(6):
        yield frozenset(e for e in range(t.m) if rng.next_bool(0.5))


def _f_certificate(t: Graph, f: frozenset[int]) -> str:
    result = check_f_certificate(t, f)
    if isinstance(result, TreeFCertificate):
        return f"F={sorted(result.f_edges)} conditions={list(result.per_edge_condition)}"
    return f"violated={result}"


def graph_cases(name: str, g: Graph) -> Iterator[tuple[str, Callable[[], str]]]:
    b = bipartition(g)
    yield f"graph/{name}", lambda: "\n".join([
        format_edge_list(g), repr(b), repr(components(g)), repr(any(not a for a in g.neighbours)),
        repr([closed_neighborhood(g, e) for e in range(g.m)]),
    ])
    colorings: list[EdgeColoring] = list(_random_colorings(g, g.m))
    if isinstance(b, Bipartition):
        cert = minimal_y_dominating_set(g, b)
        partial, _ = bipartite_scf_coloring(g, b)
        total, _ = bipartite_cf_coloring(g)
        colorings += [partial, total, _corrupt(total)]
        yield f"bipartite/{name}", lambda: "\n".join([
            format_certificate(cert), repr(check_certificate(g, b, cert)),
            format_coloring(partial), format_coloring(total),
            _outcome(lambda: extend_to_cf(g, partial)),
        ])
    vc = greedy_vertex_coloring(g)
    general, _ = general_cf_coloring(g)
    colorings += [recursive_scf_coloring(g, vc), general]
    yield f"general/{name}", lambda: "\n".join([
        repr(vc), format_coloring(recursive_scf_coloring(g, vc)), format_coloring(general),
        repr(colors_used(general)),
    ])
    yield f"verify/{name}", lambda: "\n".join(_report(g, c) for c in colorings)
    if g.m <= ORACLE_MAX_EDGES:
        yield f"oracle/{name}", lambda: "\n".join([
            _outcome(lambda: exact_cf_index(g, g.m)),
            _outcome(lambda: exact_scf_index(g, g.m)),
            _outcome(lambda: exact_cf_index(g, 2)),
            _outcome(lambda: exact_cf_index(g, g.m, OracleBudget(max_states=40))),
            _outcome(lambda: exact_scf_index(g, g.m, OracleBudget(max_states=40))),
            _outcome(lambda: sandwich_check(g)),
            _outcome(lambda: sandwich_check(g, OracleBudget(max_states=40))),
        ])
    if g.m == g.n - 1 and len(components(g)) == 1:
        def tree_text() -> str:
            lines = [_outcome(lambda: tree_cf_index(g)), _outcome(lambda: decide_tree_two(g))]
            for f in _tree_subsets(g, g.n):
                lines.append(_outcome(lambda: _f_certificate(g, f)))
                lines.append(_outcome(lambda: coloring_from_f(g, f)))
            witness = decide_tree_two(g) if g.m >= 2 else None
            if witness is not None:
                lines.append(format_f_set(witness))
                lines.append(repr(sorted(f_from_coloring(g, coloring_from_f(g, witness)))))
            return "\n".join(lines)
        yield f"tree/{name}", tree_text


def all_trees_case(n: int) -> str:
    lines = []
    for seq, t in all_labeled_trees(n):
        f = decide_tree_two(t)
        lines.append(f"{seq} {t.edges} {tree_cf_index(t)} "
                     f"{sorted(f) if f is not None else None} {exact_cf_index(t, 3)!r}")
        if n <= 5:
            lines.extend(_f_certificate(t, frozenset(s)) for s in
                         itertools.chain.from_iterable(
                             itertools.combinations(range(t.m), r) for r in range(t.m + 1)))
    return "\n".join(lines)


def generator_cases() -> Iterator[tuple[str, Callable[[], str]]]:
    def stream() -> str:
        rng = SplitMix64(12345)
        return repr([rng.next_u64() for _ in range(5)]
                    + [rng.next_below(n) for n in (1, 2, 7, 1000)]
                    + [rng.next_bool(p) for p in (0.0, 0.25, 0.5, 1.0)])
    yield "gen/splitmix", stream
    families: dict[str, Callable[[], Graph]] = {
        "complete:1": lambda: complete(1),
        "complete:6": lambda: complete(6),
        "complete-bipartite:1:1": lambda: complete_bipartite(1, 1),
        "complete-bipartite:3:4": lambda: complete_bipartite(3, 4),
        "cycle:3": lambda: cycle(3),
        "cycle:8": lambda: cycle(8),
        "path:2": lambda: path(2),
        "path:9": lambda: path(9),
        "star:2": lambda: star(2),
        "star:7": lambda: star(7),
        "random-bipartite:5:6:0:1": lambda: random_bipartite(5, 6, 0.0, 1),
        "random-bipartite:5:6:1:1": lambda: random_bipartite(5, 6, 1.0, 1),
        "random-bipartite:10:12:0.3:7": lambda: random_bipartite(10, 12, 0.3, 7),
        "random-graph:7:0:2": lambda: random_graph(7, 0.0, 2),
        "random-graph:7:1:2": lambda: random_graph(7, 1.0, 2),
        "random-graph:15:0.2:9": lambda: random_graph(15, 0.2, 9),
        "random-tree:2:1": lambda: random_tree(2, 1),
        "random-tree:30:11": lambda: random_tree(30, 11),
        "complete:0": lambda: complete(0),
        "complete-bipartite:0:3": lambda: complete_bipartite(0, 3),
        "cycle:2": lambda: cycle(2),
        "path:1": lambda: path(1),
        "star:1": lambda: star(1),
        "random-bipartite:3:0:0.5:1": lambda: random_bipartite(3, 0, 0.5, 1),
        "random-graph:0:0.5:1": lambda: random_graph(0, 0.5, 1),
        "random-tree:1:1": lambda: random_tree(1, 1),
    }
    for spec, make in families.items():
        yield f"gen/{spec}", lambda make=make: _outcome(lambda: format_edge_list(make()))
    for n in (1, 2, 3, 4, 10):
        yield f"gen/all-labeled-trees:{n}", lambda n=n: _outcome(
            lambda: [(seq, t.edges) for seq, t in all_labeled_trees(n)])


EDGE_LIST_INPUTS = [
    "", "# only a comment\n\n", "3\n", "3 2 1\n", "a b\n", "3 x\n",
    "3 2\n0 1\n", "3 1\n0 1\n1 2\n", "3 1\n0 1 2\n", "3 1\n0\n", "3 1\n0 x\n",
    "2 2\n0 1 2\nx y\n", "2 2\nx y\n0 1 2\n", "2 1\n0 5\n", "2 1\n-1 0\n",
    "2 1\n1 1\n", "3 2\n0 1\n1 0\n", "-1 0\n", "0 0\n",
    "# c\n3 2\n\n0 1\n  # x\n 1   2 \n",
]
COLORING_INPUTS = [
    "", "\n# nothing\n", "2\n", "2 1 0\n", "2 x\n", "y 1\n",
    "2 1\n0 1\n", "1 1\n0 1\n1 1\n", "1 1\n0\n", "1 1\n0 1 1\n", "1 1\n0 a\n",
    "2 1\n1 1\n0 1\n", "1 1\n0 2\n", "1 1\n0 -1\n", "2 2\n1 1\nx y\n",
    "2 2\n0 5\n1\n", "2 2\n0 1\n0 1\n", "0 3\n", "3 2\n0 1\n1 0\n2 2\n",
    "# c\n2 3\n 0 3\n\n1   0\n", "1 -1\n0 0\n",
]


def error_cases() -> Iterator[tuple[str, Callable[[], str]]]:
    for i, text in enumerate(EDGE_LIST_INPUTS):
        yield f"parse-edge-list/{i}", lambda text=text: _outcome(
            lambda: format_edge_list(parse_edge_list(text)))
    for i, text in enumerate(COLORING_INPUTS):
        yield f"parse-coloring/{i}", lambda text=text: _outcome(
            lambda: format_coloring(parse_coloring(text)))

    p3, c5 = path(3), cycle(5)
    empty, single = build_graph(0, []), build_graph(1, [])
    bad_classes = VertexColoring(k=2, class_of=(1, 1, 1, 2, 1, 2, 1, 1))
    checks: dict[str, Callable[[], object]] = {
        "build/vertex-range": lambda: build_graph(3, [(0, 1), (1, 3)]),
        "build/negative-n": lambda: build_graph(-2, []),
        "build/self-loop": lambda: build_graph(3, [(0, 1), (2, 2)]),
        "build/duplicate": lambda: build_graph(3, [(0, 1), (1, 2), (2, 1)]),
        "coloring/palette": lambda: EdgeColoring(k=-1, colors=()),
        "coloring/range": lambda: EdgeColoring(k=2, colors=(1, 3)),
        "verify/size": lambda: verify_cf(p3, EdgeColoring(k=1, colors=(1,))),
        "closed-neighborhood/range": lambda: closed_neighborhood(p3, 5),
        "isolated/bipartite-scf": lambda: bipartite_scf_coloring(
            ISOLATED, Bipartition(side=("X",) * 8)),
        "isolated/bipartite-cf": lambda: bipartite_cf_coloring(ISOLATED),
        "isolated/recursive-scf": lambda: recursive_scf_coloring(
            ISOLATED, greedy_vertex_coloring(ISOLATED)),
        "isolated/recursive-scf-improper-first": lambda: recursive_scf_coloring(
            ISOLATED, bad_classes),
        "isolated/general-cf": lambda: general_cf_coloring(ISOLATED),
        "isolated/exact-cf": lambda: exact_cf_index(ISOLATED, 3),
        "isolated/exact-scf": lambda: exact_scf_index(ISOLATED, 3),
        "isolated/sandwich": lambda: sandwich_check(ISOLATED),
        "isolated/single-vertex-oracle": lambda: exact_cf_index(single, 1),
        "isolated/y-side": lambda: minimal_y_dominating_set(
            build_graph(4, [(0, 1), (2, 1)]), Bipartition(side=("X", "Y", "X", "Y"))),
        "empty/oracle": lambda: (exact_cf_index(empty, 3), exact_scf_index(empty, 3),
                                 sandwich_check(empty)),
        "empty/recursive-scf": lambda: recursive_scf_coloring(empty, VertexColoring(0, ())),
        "improper/size": lambda: recursive_scf_coloring(p3, VertexColoring(2, (1, 2))),
        "improper/class-range": lambda: recursive_scf_coloring(p3, VertexColoring(2, (1, 3, 1))),
        "bipartite/odd-cycle": lambda: bipartite_cf_coloring(c5),
        "bipartite/odd-cycle-in-components": lambda: bipartite_cf_coloring(
            build_graph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)])),
        "bipartite/sides-length": lambda: minimal_y_dominating_set(
            p3, Bipartition(side=("X", "Y"))),
        "bipartite/sides-collide": lambda: minimal_y_dominating_set(
            p3, Bipartition(side=("X", "X", "Y"))),
        "bipartite/scf-sides-collide": lambda: bipartite_scf_coloring(
            p3, Bipartition(side=("X", "X", "Y"))),
        "bipartite/check-bad-sides": lambda: check_certificate(
            p3, Bipartition(side=("X", "X", "Y")),
            DominationCertificate(dominating=(1,), private={1: (0, 2)}, matching=(0,))),
        "bipartite/check-tampered": lambda: check_certificate(
            p3, Bipartition(side=("Y", "X", "Y")),
            DominationCertificate(dominating=(1,), private={1: (0, 2)}, matching=(0, 1))),
        "extend/unsatisfying": lambda: extend_to_cf(path(4), EdgeColoring(k=1, colors=(0, 1, 0))),
        "extend/gap-color": lambda: extend_to_cf(path(4), EdgeColoring(k=3, colors=(3, 0, 3))),
        "cycle/short": lambda: cycle_cf_coloring(2),
        "cycle/colorings": lambda: [cycle_cf_coloring(n).colors for n in range(3, 9)],
        "tree/empty": lambda: tree_cf_index(empty),
        "tree/single-vertex": lambda: tree_cf_index(single),
        "tree/single-edge": lambda: (
            tree_cf_index(path(2)), _outcome(lambda: decide_tree_two(path(2)))),
        "tree/cycle-decide": lambda: decide_tree_two(cycle(4)),
        "tree/cycle-index": lambda: tree_cf_index(cycle(4)),
        "tree/disconnected": lambda: decide_tree_two(
            build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])),
        "tree/too-many-edges": lambda: tree_cf_index(complete(4)),
        "tree/check-edge-range": lambda: check_f_certificate(path(4), frozenset({0, 7})),
        "tree/check-single-edge": lambda: check_f_certificate(path(2), frozenset({0})),
        "tree/coloring-rejected": lambda: coloring_from_f(path(5), frozenset({0, 1})),
        "tree/from-coloring-size": lambda: f_from_coloring(path(4), EdgeColoring(2, (1, 2))),
        "tree/from-coloring-partial": lambda: f_from_coloring(path(4), EdgeColoring(2, (1, 0, 2))),
        "tree/from-coloring-one-color": lambda: f_from_coloring(
            path(4), EdgeColoring(2, (1, 1, 1))),
        "tree/from-coloring-three": lambda: f_from_coloring(path(4), EdgeColoring(3, (1, 2, 3))),
        "tree/from-coloring-not-cf": lambda: f_from_coloring(
            path(5), EdgeColoring(2, (1, 1, 2, 2))),
    }
    for name, fn in checks.items():
        yield f"errors/{name}", lambda fn=fn: _outcome(fn)


def run_cli(argv: list[str], files: dict[str, str] | None = None) -> str:
    files = files or {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        written = [f"file {p.name}:\n{p.read_text()}" for p in sorted(Path(tmp).iterdir())
                   if p.name not in files]
        text = "\n".join([f"exit={code}", "stdout:", out.getvalue(), "stderr:", err.getvalue(),
                          *written])
        return text.replace(tmp, "<tmp>")


CLI_CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "color-bipartite-k33": (
        ["color", "--mode", "bipartite", "--gen", "complete-bipartite:3:3"], {}),
    "color-bipartite-random": (
        ["color", "--mode", "bipartite", "--gen", "random-bipartite:9:8:0.35:4"], {}),
    "color-bipartite-dot-file": (
        ["color", "--mode", "bipartite", "--gen", "star:5", "--format", "dot",
         "--output", "{tmp}/g.dot"], {}),
    "color-bipartite-input": (
        ["color", "--mode", "bipartite", "--input", "{tmp}/g.txt"],
        {"g.txt": format_edge_list(SPIDER)}),
    "color-bipartite-odd-cycle": (["color", "--mode", "bipartite", "--gen", "cycle:5"], {}),
    "color-bipartite-isolated": (
        ["color", "--mode", "bipartite", "--input", "{tmp}/g.txt"], {"g.txt": "4 2\n0 1\n1 3\n"}),
    "color-bipartite-empty": (
        ["color", "--mode", "bipartite", "--input", "{tmp}/g.txt"], {"g.txt": "0 0\n"}),
    "color-general-complete": (["color", "--mode", "general", "--gen", "complete:6"], {}),
    "color-general-dot": (["color", "--mode", "general", "--gen", "complete:5", "--format", "dot"],
                          {}),
    "color-general-random-file": (
        ["color", "--mode", "general", "--gen", "random-graph:12:0.4:5",
         "--output", "{tmp}/c.txt"], {}),
    "color-general-petersen": (
        ["color", "--mode", "general", "--input", "{tmp}/p.txt"],
        {"p.txt": format_edge_list(PETERSEN)}),
    "color-general-isolated": (
        ["color", "--mode", "general", "--input", "{tmp}/g.txt"], {"g.txt": "3 1\n0 2\n"}),
    "color-general-empty": (
        ["color", "--mode", "general", "--input", "{tmp}/g.txt"], {"g.txt": "0 0\n"}),
    "color-tree-index1": (["color", "--mode", "tree", "--gen", "path:2"], {}),
    "color-tree-index2": (["color", "--mode", "tree", "--gen", "path:4"], {}),
    "color-tree-index3": (
        ["color", "--mode", "tree", "--input", "{tmp}/t.txt", "--format", "dot"],
        {"t.txt": format_edge_list(THREE_TREE)}),
    "color-tree-random": (["color", "--mode", "tree", "--gen", "random-tree:10:7"], {}),
    "color-tree-not-tree": (["color", "--mode", "tree", "--gen", "cycle:4"], {}),
    "color-tree-empty": (
        ["color", "--mode", "tree", "--input", "{tmp}/g.txt"], {"g.txt": "0 0\n"}),
    "color-cycle": (["color", "--mode", "cycle", "--n", "7"], {}),
    "color-cycle-dot": (["color", "--mode", "cycle", "--n", "4", "--format", "dot"], {}),
    "color-cycle-no-n": (["color", "--mode", "cycle", "--gen", "cycle:5"], {}),
    "color-cycle-short": (["color", "--mode", "cycle", "--n", "2"], {}),
    "color-unknown-family": (["color", "--mode", "general", "--gen", "torus:3"], {}),
    "color-bad-spec-int": (["color", "--mode", "general", "--gen", "complete:x"], {}),
    "color-bad-spec-missing": (["color", "--mode", "general", "--gen", "random-graph:5"], {}),
    "color-bad-spec-float": (["color", "--mode", "general", "--gen", "random-graph:5:q:1"], {}),
    "color-gen-too-small": (["color", "--mode", "general", "--gen", "path:1"], {}),
    "color-no-source": (["color", "--mode", "general"], {}),
    "color-both-sources": (
        ["color", "--mode", "general", "--input", "{tmp}/g.txt", "--gen", "path:3"],
        {"g.txt": "2 1\n0 1\n"}),
    "color-missing-file": (["color", "--mode", "general", "--input", "{tmp}/none.txt"], {}),
    "color-output-missing-dir": (
        ["color", "--mode", "bipartite", "--gen", "path:3", "--output", "{tmp}/none/c.txt"], {}),
    "color-output-empty-path": (
        ["color", "--mode", "bipartite", "--gen", "path:3", "--output", ""], {}),
    "color-input-empty-path": (
        ["color", "--mode", "bipartite", "--input", "", "--gen", "path:3"], {}),
    "color-bad-edge-list": (
        ["color", "--mode", "general", "--input", "{tmp}/g.txt"], {"g.txt": "3 2\n0 1\n"}),
    "color-self-loop": (
        ["color", "--mode", "general", "--input", "{tmp}/g.txt"], {"g.txt": "3 2\n0 1\n2 2\n"}),
    "verify-valid": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "4 3\n0 1\n1 2\n2 3\n", "c.txt": "3 2\n0 1\n1 2\n2 1\n"}),
    "verify-corrupted": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": format_edge_list(complete_bipartite(3, 3)),
         "c.txt": "9 3\n0 1\n1 1\n2 1\n3 2\n4 1\n5 3\n6 1\n7 1\n8 1\n"}),
    "verify-partial": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "4 3\n0 1\n1 2\n2 3\n", "c.txt": "3 1\n0 1\n1 0\n2 1\n"}),
    "verify-size-mismatch": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "3 2\n0 1\n1 2\n", "c.txt": "1 1\n0 1\n"}),
    "verify-bad-coloring": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "3 2\n0 1\n1 2\n", "c.txt": "2 2\n1 1\n0 1\n"}),
    "verify-bad-graph": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "3 2\n0 1\n1 x\n", "c.txt": "2 2\n0 1\n1 2\n"}),
    "verify-missing": (["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"], {}),
    "verify-graph-empty-path": (
        ["verify", "--graph", "", "--coloring", "{tmp}/c.txt"], {"c.txt": "1 1\n0 1\n"}),
    "verify-coloring-empty-path": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", ""], {"g.txt": "2 1\n0 1\n"}),
    "verify-empty": (
        ["verify", "--graph", "{tmp}/g.txt", "--coloring", "{tmp}/c.txt"],
        {"g.txt": "0 0\n", "c.txt": "0 2\n"}),
    "decide-tree-index1": (["decide-tree", "--gen", "path:2"], {}),
    "decide-tree-index2-stdout": (["decide-tree", "--gen", "path:5"], {}),
    "decide-tree-index2-files": (
        ["decide-tree", "--gen", "random-tree:9:3", "--f-out", "{tmp}/f.txt",
         "--coloring-out", "{tmp}/c.txt"], {}),
    "decide-tree-index2-f-only": (
        ["decide-tree", "--input", "{tmp}/t.txt", "--f-out", "{tmp}/f.txt"],
        {"t.txt": format_edge_list(SPIDER)}),
    "decide-tree-index3": (
        ["decide-tree", "--input", "{tmp}/t.txt", "--f-out", "{tmp}/f.txt"],
        {"t.txt": format_edge_list(THREE_TREE)}),
    "decide-tree-cycle": (["decide-tree", "--gen", "cycle:4"], {}),
    "decide-tree-forest": (
        ["decide-tree", "--input", "{tmp}/t.txt"], {"t.txt": "5 3\n0 1\n1 2\n3 4\n"}),
    "decide-tree-no-source": (["decide-tree"], {}),
    "decide-tree-input-empty-path": (["decide-tree", "--input", ""], {}),
    "decide-tree-empty": (["decide-tree", "--input", "{tmp}/g.txt"], {"g.txt": "0 0\n"}),
    "decide-tree-output-missing-dir": (
        ["decide-tree", "--gen", "path:5", "--f-out", "{tmp}/f.txt",
         "--coloring-out", "{tmp}/none/c.txt"], {}),
    "decide-tree-f-out-empty-path": (["decide-tree", "--gen", "path:5", "--f-out", ""], {}),
    "decide-tree-coloring-out-empty-path": (
        ["decide-tree", "--gen", "path:5", "--coloring-out", ""], {}),
    "oracle-path": (["oracle", "--gen", "path:4"], {}),
    "oracle-star": (["oracle", "--gen", "star:5"], {}),
    "oracle-c5": (["oracle", "--gen", "cycle:5"], {}),
    "oracle-k4-kmax": (["oracle", "--gen", "complete:4", "--k-max", "2"], {}),
    "oracle-budget-scf": (["oracle", "--gen", "complete:6", "--budget", "100"], {}),
    "oracle-budget-cf": (["oracle", "--gen", "star:5", "--budget", "5"], {}),
    "oracle-isolated": (["oracle", "--input", "{tmp}/g.txt"], {"g.txt": "3 1\n1 2\n"}),
    "oracle-empty": (["oracle", "--input", "{tmp}/g.txt"], {"g.txt": "0 0\n"}),
    "oracle-input-empty-path": (["oracle", "--input", ""], {}),
    "survey-trees-file": (["survey-trees", "--n", "5", "--out", "{tmp}/s.csv"], {}),
    "survey-trees-stdout": (["survey-trees", "--n", "4"], {}),
    "survey-trees-too-large": (["survey-trees", "--n", "10"], {}),
    "survey-trees-too-small": (["survey-trees", "--n", "1"], {}),
    "survey-trees-output-missing-dir": (
        ["survey-trees", "--n", "4", "--out", "{tmp}/none/s.csv"], {}),
    "survey-trees-output-empty-path": (["survey-trees", "--n", "4", "--out", ""], {}),
}


def cases() -> Iterator[tuple[str, Callable[[], str]]]:
    yield from generator_cases()
    for name, g in GRAPHS.items():
        yield from graph_cases(name, g)
    for n in (3, 4, 5, 6):
        yield f"tree/all-labeled:{n}", lambda n=n: all_trees_case(n)
    yield from error_cases()
    for name, (argv, files) in CLI_CASES.items():
        yield f"cli/{name}", lambda argv=argv, files=files: run_cli(argv, files)


def digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for name, render in cases():
        assert name not in out, f"duplicate case name {name}"
        out[name] = hashlib.sha256(render().encode()).hexdigest()
    return out


def test_outputs_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = digests()
    missing = sorted(set(recorded) - set(current))
    extra = sorted(set(current) - set(recorded))
    changed = sorted(n for n in set(recorded) & set(current) if recorded[n] != current[n])
    assert not (missing or extra or changed), (
        f"changed: {changed}; not rendered: {missing}; not recorded: {extra}")


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
