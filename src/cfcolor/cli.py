"""Command line driver wiring generators, constructions, verifier and oracles.

Exit codes: 0 success, 1 coloring rejected by the verifier, 2 bad input,
3 internal failure (unsound result or unexpected exception), 4 budget exhausted.

A request runs with the cyclic garbage collector paused: its data is acyclic
and freed by reference counting. ``main`` restores the collector's prior
state on return; the library functions leave it alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

from . import generators
from .bipartite import bipartite_cf_coloring
from .coloring import (
    EdgeColoring,
    _verify_edges,
    colors_used,
    format_coloring,
    parse_coloring,
    verify_cf,
)
from .errors import BudgetExceededError, CertificateRejectedError, CFColorError, FormatError
from .general import _ceil_log2, _general, cycle_cf_coloring
from .graph import Graph, _read_edges, parse_edge_list
from .oracle import DEFAULT_MAX_STATES, _indices, exact_cf_index
from .tree import coloring_from_f, decide_tree, format_f_set, tree_cf_index

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

# Pen colors for the first three palette entries of DOT output; anything
# beyond is carried by the label alone.
_DOT_PALETTE = {1: "#1b9e77", 2: "#d95f02", 3: "#7570b3"}


def to_dot(g: Graph, c: EdgeColoring) -> str:
    # one join over a line per vertex and per edge, from each vertex's name
    # and each color's line tail, both made once
    names = list(map(str, range(g.n)))
    tails = {col: (f' [label="{col}" color="{_DOT_PALETTE[col]}"];\n' if col in _DOT_PALETTE
                   else f' [label="{col}"];\n') for col in set(c.colors)}
    return "".join(["graph cf {\n", *[f"  {name};\n" for name in names],
                    *[f"  {names[u]} -- {names[v]}{tails[col]}"
                      for (u, v), col in zip(g.edges, c.colors)], "}\n"])


class _EdgeLists(NamedTuple):
    # What general mode reads of an --input graph: its checked edges and
    # per-vertex neighbour lists in ascending edge id, with no edge-id index
    # and no tuples. cmd_color, verify_cf and to_dot read its n, m and edges
    # as they read a Graph's.
    n: int
    edges: list[tuple[int, int]]
    neighbours: list[list[int]]

    @property
    def m(self) -> int:
        return len(self.edges)


def _edge_lists(text: str) -> _EdgeLists:
    # the text checked as parse_edge_list checks it
    n, edges = _read_edges(text)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return _EdgeLists(n, edges, neighbours)


# Largest size of a generator spec, the vertex pairs or vertices its family
# walks: a spec over it is bad input, refused before anything is generated.
_GEN_CAP = 10**6


def _pairs(n: int, *_: object) -> int:
    return n * (n - 1) // 2 if n > 0 else 0


def _cross(a: int, b: int, *_: object) -> int:
    return a * b if a > 0 and b > 0 else 0


def _vertices(n: int, *_: object) -> int:
    return n


# Generator family -> (generator, types of the spec's fields in order, the
# pairs or vertices it walks for given fields).
_GENERATORS = {
    "complete": (generators.complete, (int,), _pairs),
    "complete-bipartite": (generators.complete_bipartite, (int, int), _cross),
    "cycle": (generators.cycle, (int,), _vertices),
    "path": (generators.path, (int,), _vertices),
    "star": (generators.star, (int,), _vertices),
    "random-bipartite": (generators.random_bipartite, (int, int, float, int), _cross),
    "random-graph": (generators.random_graph, (int, float, int), _pairs),
    "random-tree": (generators.random_tree, (int, int), _vertices),
}


def _gen_graph(spec: str) -> Graph:
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    if name not in _GENERATORS:
        raise FormatError(f"unknown generator family {name!r}")
    make, types, work = _GENERATORS[name]
    if len(args) != len(types):
        raise FormatError(f"bad generator spec {spec!r}: {name} takes {len(types)} "
                          f"field(s), got {len(args)}")
    try:
        fields = [t(a) for t, a in zip(types, args)]
    except ValueError as exc:
        raise FormatError(f"bad generator spec {spec!r}: {exc}") from exc
    if work(*fields) > _GEN_CAP:
        raise FormatError(f"bad generator spec {spec!r}: over the size cap of {_GEN_CAP}")
    return make(*fields)


def _load_graph(args: argparse.Namespace, indexed: bool = True) -> Graph | _EdgeLists:
    # A Graph from --gen, and from --input unless indexed is False, which
    # reads the file into _EdgeLists instead.
    if args.input is not None and args.gen is not None:
        raise FormatError("give either --input or --gen, not both")
    if args.input is not None:
        text = _read(args.input)
        return parse_edge_list(text) if indexed else _edge_lists(text)
    if args.gen is not None:
        return _gen_graph(args.gen)
    raise FormatError("no input source: use --input FILE or --gen SPEC")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _emit(parts: list[tuple[str | None, str]]) -> None:
    # (file or None for stdout, text) pairs; files first, so a failed write leaves stdout empty.
    if any(path == "" for path, _ in parts):
        raise FormatError("output path is empty")
    for path, text in parts:
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write("".join(text for path, text in parts if path is None))


def cmd_color(args: argparse.Namespace) -> int:
    if args.mode == "cycle":
        if args.n is None or args.input is not None or args.gen is not None:
            raise FormatError("--mode cycle takes --n, not an input file")
        g = generators.cycle(args.n)
        coloring = cycle_cf_coloring(args.n)
        bound = 2
    else:
        if args.n is not None:
            raise FormatError(f"--n is for --mode cycle only, not --mode {args.mode}")
        # general mode reads no edge-id index, so its --input builds none
        g = _load_graph(args, indexed=args.mode != "general")
        if args.mode == "bipartite":
            coloring, _cert = bipartite_cf_coloring(g)
            bound = 3
        elif args.mode == "general":
            coloring, vc = _general(g.n, g.edges, g.neighbours)
            bound = 2 * _ceil_log2(vc.k) + 1
        else:  # tree
            index, f_edges = decide_tree(g)
            if index == 1:
                coloring = EdgeColoring(k=1, colors=(1,))
            elif f_edges is not None:
                # coloring_from_f's F check is the soundness guard
                coloring = coloring_from_f(g, f_edges)
            else:
                coloring, _cert = bipartite_cf_coloring(g)
            bound = 3
    report = verify_cf(g, coloring)
    if report.unsatisfied:
        print(f"internal error: construction left edges {list(report.unsatisfied)} unsatisfied",
              file=sys.stderr)
        return EXIT_INTERNAL
    head = f"mode={args.mode} n={g.n} m={g.m} colors_used={colors_used(coloring)} bound<={bound}\n"
    text = to_dot(g, coloring) if args.format == "dot" else format_coloring(coloring)
    _emit([(None, head), (args.output, text)])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # the graph is checked as parse_edge_list checks it, but not indexed
    n, edges = _read_edges(_read(args.graph))
    c = parse_coloring(_read(args.coloring))
    report = _verify_edges(n, edges, c.colors)
    if report.unsatisfied:
        print("unsatisfied: " + " ".join(str(e) for e in report.unsatisfied))
        return EXIT_UNSATISFIED
    print(f"conflict-free: all {len(edges)} edges satisfied")
    return EXIT_OK


def cmd_decide_tree(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    index, f_edges = decide_tree(g)
    parts = [(None, f"index={index}\n")]
    if f_edges is not None:
        f_text = format_f_set(f_edges)
        parts += [(args.f_out, f_text) if args.f_out is not None else (None, "F: " + f_text),
                  (args.coloring_out, format_coloring(coloring_from_f(g, f_edges)))]
    _emit(parts)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.k_max is not None and args.k_max < 1:
        raise FormatError(f"--k-max must be >= 1, got {args.k_max}")
    if args.budget < 0:
        raise FormatError(f"--budget must be >= 0, got {args.budget}")
    g = _load_graph(args)
    k_max = args.k_max if args.k_max is not None else max(1, g.m)
    scf, cf = _indices(g, k_max, args.budget)
    if scf is None or cf is None:
        print(f"no conflict-free coloring with k <= {k_max}")
        return EXIT_UNSATISFIED
    verdict = "ok" if scf <= cf <= scf + 1 else "violated"
    print(f"scf={scf} cf={cf} sandwich={verdict}")
    return EXIT_OK if verdict == "ok" else EXIT_INTERNAL


def cmd_survey_trees(args: argparse.Namespace) -> int:
    n = args.n
    rows = ["tree,edges,index,agree"]
    index3 = 0
    for seq, t in generators.all_labeled_trees(n):
        index = tree_cf_index(t)
        agree = exact_cf_index(t, 3) == index
        index3 += index == 3
        tree_id = "-".join(str(x) for x in seq)
        rows.append(f"{tree_id},{t.m},{index},{str(agree).lower()}")
    csv_text = "\n".join(rows) + "\n"
    summary = f"surveyed {len(rows) - 1} trees on n={n}: index3={index3}\n"
    if args.out is not None:
        _emit([(args.out, csv_text), (None, summary)])
    else:
        _emit([(None, csv_text)])
        sys.stderr.write(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcolor",
        description="Conflict-free edge colorings: constructions, verification, exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="construct a conflict-free coloring")
    p_color.add_argument("--mode", required=True,
                         choices=["bipartite", "general", "tree", "cycle"])
    p_color.add_argument("--input", help="edge-list file")
    p_color.add_argument("--gen", help="generator spec, e.g. complete-bipartite:3:3")
    p_color.add_argument("--n", type=int, help="cycle length (mode cycle only)")
    p_color.add_argument("--output", help="write the coloring here instead of stdout")
    p_color.add_argument("--format", choices=["coloring", "dot"], default="coloring")

    p_verify = sub.add_parser("verify", help="verify a coloring against a graph")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--coloring", required=True)

    p_decide = sub.add_parser("decide-tree", help="exact index of a tree (1, 2 or 3)")
    p_decide.add_argument("--input", help="edge-list file")
    p_decide.add_argument("--gen", help="generator spec, e.g. random-tree:8:42")
    p_decide.add_argument("--f-out", help="write the witness edge set here")
    p_decide.add_argument("--coloring-out", help="write the derived 2-coloring here")

    p_oracle = sub.add_parser("oracle", help="exact indices by exhaustive search")
    p_oracle.add_argument("--input", help="edge-list file")
    p_oracle.add_argument("--gen", help="generator spec")
    p_oracle.add_argument("--k-max", type=int, default=None)
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_MAX_STATES)

    p_survey = sub.add_parser("survey-trees",
                              help="enumerate all labelled trees on n vertices; slow for n >= 8")
    p_survey.add_argument("--n", type=int, required=True)
    p_survey.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


# built once per process; it names each command, and main looks up its
# function at each call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if "" in (getattr(args, flag, None) for flag in ("input", "graph", "coloring")):
            raise FormatError("input path is empty")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded after {exc.states} states", file=sys.stderr)
        return EXIT_BUDGET
    # the CLI reads no F set: a rejected witness is a construction bug
    except CertificateRejectedError as exc:
        print(f"internal soundness failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CFColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:  # printing can spin while the request's frames hold memory
        exc.__traceback__ = None
        try:
            print("internal error: out of memory", file=sys.stderr)
        except MemoryError:  # the line is lost, the exit code is not
            pass
        return EXIT_INTERNAL
    except Exception as exc:  # a bug, not bad input: exit 1 would read as "rejected"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
