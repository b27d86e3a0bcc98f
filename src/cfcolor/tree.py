"""Deciding which trees admit a total conflict-free 2-coloring.

A total 2-coloring of a tree is conflict-free exactly when the set F of
color-1 edges satisfies, with dF the F-degree and dT the tree degree:

    uv in F:      dF(u) + dF(v) = 2   or  (dT - dF)(u) + (dT - dF)(v) = 1
    uv not in F:  dF(u) + dF(v) = 1   or  (dT - dF)(u) + (dT - dF)(v) = 2

because the two sides count, up to the edge's own color, how often colors
1 and 2 appear in the closed neighbourhood of uv. ``check_f_certificate``
checks the conditions edge by edge, ``decide_tree_two`` searches for such
an F with dynamic programming over the rooted tree, and ``decide_tree``
turns the answer into the exact number of colors the tree needs (1, 2 or 3,
never more, since trees are bipartite) together with the witness F.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .coloring import EdgeColoring, colors_used, verify_cf
from .errors import (
    CertificateRejectedError,
    EdgeOutOfRangeError,
    FormatError,
    NotATreeError,
    NotConflictFreeError,
    NotTwoColorsError,
    TooFewEdgesError,
)
from .graph import Graph, components

COND_IN_F_DEGREES = "sumF=2"
COND_IN_F_COMPLEMENT = "sumNonF=1"
COND_OUT_F_DEGREES = "sumF=1"
COND_OUT_F_COMPLEMENT = "sumNonF=2"
COND_VIOLATED = "violated"


@dataclass(frozen=True)
class TreeFCertificate:
    """An accepted edge subset together with the condition each edge met."""

    f_edges: frozenset[int]
    per_edge_condition: tuple[str, ...]


def _require_tree(t: Graph, min_edges: int) -> None:
    if t.n == 0:
        raise NotATreeError("empty graph")
    if t.m != t.n - 1:
        raise NotATreeError(f"{t.m} edges on {t.n} vertices")
    if t.n > 1 and len(components(t)) != 1:
        raise NotATreeError("disconnected")
    if t.m < min_edges:
        raise TooFewEdgesError(t.m, min_edges)


def check_f_certificate(t: Graph, f_edges: frozenset[int]) -> TreeFCertificate | list[int]:
    """Evaluate the per-edge conditions for an edge subset F.

    Returns the certificate when F is nonempty, proper, and no edge is
    violated; otherwise the sorted list of violated edges (empty when the
    only failure is F being empty or all of E).
    """
    _require_tree(t, 2)
    for eid in f_edges:
        if not (0 <= eid < t.m):
            raise EdgeOutOfRangeError(eid, t.m)
    df = [0] * t.n
    for eid in f_edges:
        u, v = t.edges[eid]
        df[u] += 1
        df[v] += 1
    tags: list[str] = []
    violated: list[int] = []
    for eid, (u, v) in enumerate(t.edges):
        f_sum = df[u] + df[v]
        rest_sum = (t.degree(u) - df[u]) + (t.degree(v) - df[v])
        if eid in f_edges:
            if f_sum == 2:
                tags.append(COND_IN_F_DEGREES)
            elif rest_sum == 1:
                tags.append(COND_IN_F_COMPLEMENT)
            else:
                tags.append(COND_VIOLATED)
                violated.append(eid)
        else:
            if f_sum == 1:
                tags.append(COND_OUT_F_DEGREES)
            elif rest_sum == 2:
                tags.append(COND_OUT_F_COMPLEMENT)
            else:
                tags.append(COND_VIOLATED)
                violated.append(eid)
    if violated or not f_edges or len(f_edges) == t.m:
        return violated
    return TreeFCertificate(f_edges=frozenset(f_edges), per_edge_condition=tuple(tags))


def coloring_from_f(t: Graph, f_edges: frozenset[int]) -> EdgeColoring:
    """Total 2-coloring: color 1 on F, color 2 elsewhere. F must be accepted."""
    result = check_f_certificate(t, f_edges)
    if not isinstance(result, TreeFCertificate):
        raise CertificateRejectedError(result)
    return EdgeColoring(k=2, colors=tuple(1 if e in f_edges else 2 for e in range(t.m)))


def f_from_coloring(t: Graph, c: EdgeColoring) -> frozenset[int]:
    """Recover the accepted F (the color-1 edges) from a conflict-free
    total 2-coloring of a tree."""
    _require_tree(t, 2)
    if len(c.colors) != t.m:
        raise NotTwoColorsError(f"coloring covers {len(c.colors)} edges, tree has {t.m}")
    if not c.is_total():
        raise NotTwoColorsError("coloring is partial")
    if set(c.colors) != {1, 2} or colors_used(c) != 2:
        raise NotTwoColorsError(f"colors present: {sorted(set(c.colors))}")
    report = verify_cf(t, c)
    if report.unsatisfied:
        raise NotConflictFreeError(list(report.unsatisfied))
    return frozenset(e for e in range(t.m) if c.colors[e] == 1)


# ---------------------------------------------------------------------------
# Feasibility DP.
#
# Root the tree at the neighbour of the smallest-id leaf. For each vertex v
# the state is (membership of the parent edge, final F-degree of v), with two
# booleans recording whether the subtree below v already contains an F edge
# and a non-F edge. The condition of edge (v, child) pins the child's final
# F-degree to at most two values once v's final F-degree is assumed, so each
# assumed degree costs one pass over the children.
# ---------------------------------------------------------------------------

_Flag = tuple[bool, bool]


def _root_and_order(t: Graph) -> tuple[int, list[int], list[int], list[list[int]]]:
    leaf = min(v for v in range(t.n) if t.degree(v) == 1)
    root = t.adjacency[leaf][0][0]
    parent = [-1] * t.n
    order: list[int] = [root]
    children: list[list[int]] = [[] for _ in range(t.n)]
    seen = [False] * t.n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, _ in sorted(t.adjacency[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                children[u].append(v)
                order.append(v)
                queue.append(v)
    return root, order, parent, children


def _child_options(
    t: Graph,
    v: int,
    c: int,
    f: int,
    feas_c: dict[int, dict[int, set[_Flag]]],
) -> list[tuple[int, int, bool, bool]]:
    # Options (membership, child F-degree, child subtree flags) compatible
    # with v having final F-degree f. Each clause pins the child degree.
    opts: list[tuple[int, int, bool, bool]] = []
    dv, dc = t.degree(v), t.degree(c)
    for mc in (0, 1):
        if mc == 1:
            pinned = {2 - f, dv + dc - 1 - f}
        else:
            pinned = {1 - f, dv + dc - 2 - f}
        table = feas_c.get(mc, {})
        for fc in sorted(pinned):
            for h1, h0 in sorted(table.get(fc, ())):
                opts.append((mc, fc, h1, h0))
    return opts


def _combine(
    t: Graph,
    v: int,
    f: int,
    kids: list[int],
    feas: list[dict[int, dict[int, set[_Flag]]]],
    with_backpointers: bool,
) -> list[dict[tuple[int, bool, bool], tuple | None]]:
    # Forward DP over the children of v for one assumed final F-degree f.
    # States are (membership sum so far, has an F edge, has a non-F edge);
    # first insertion wins, which keeps witnesses deterministic.
    layers: list[dict[tuple[int, bool, bool], tuple | None]] = [
        {(0, False, False): None}
    ]
    for c in kids:
        opts = _child_options(t, v, c, f, feas[c])
        nxt: dict[tuple[int, bool, bool], tuple | None] = {}
        if opts:
            for key in layers[-1]:
                s, h1, h0 = key
                for mc, fc, ch1, ch0 in opts:
                    nk = (s + mc, h1 | ch1 | (mc == 1), h0 | ch0 | (mc == 0))
                    if nk not in nxt:
                        nxt[nk] = (key, mc, fc, ch1, ch0) if with_backpointers else ()
        layers.append(nxt)
        if not nxt:
            break
    return layers


def decide_tree_two(t: Graph) -> frozenset[int] | None:
    """Find an accepted F for the tree, or None when no such subset exists.

    Agrees with brute force over all 2^m subsets; the witness it returns is
    deterministic for a given input.
    """
    _require_tree(t, 2)
    return _search_f(t)


def _search_f(t: Graph) -> frozenset[int] | None:
    # The DP of decide_tree_two on a graph already checked to be a tree
    # with at least two edges.
    root, order, parent, children = _root_and_order(t)
    feas: list[dict[int, dict[int, set[_Flag]]]] = [dict() for _ in range(t.n)]
    for v in reversed(order):
        kids = children[v]
        table: dict[int, dict[int, set[_Flag]]] = {0: {}, 1: {}}
        if not kids:
            table[0][0] = {(False, False)}
            table[1][1] = {(False, False)}
        else:
            memberships = (0, 1) if v != root else (0,)
            for f in range(t.degree(v) + 1):
                layers = _combine(t, v, f, kids, feas, with_backpointers=False)
                final = layers[-1] if len(layers) == len(kids) + 1 else {}
                for m in memberships:
                    s = f - m
                    flags = {(h1, h0) for (ss, h1, h0) in final if ss == s}
                    if flags:
                        table[m].setdefault(f, set()).update(flags)
        feas[v] = table
    goal_f = None
    for f in sorted(feas[root].get(0, ())):
        if (True, True) in feas[root][0][f]:
            goal_f = f
            break
    if goal_f is None:
        return None
    # Reconstruct by re-running the child DP along the chosen branch only.
    f_edges: set[int] = set()
    stack: list[tuple[int, int, int, bool, bool]] = [(root, 0, goal_f, True, True)]
    while stack:
        v, m, f, h1, h0 = stack.pop()
        kids = children[v]
        if not kids:
            continue
        layers = _combine(t, v, f, kids, feas, with_backpointers=True)
        state = (f - m, h1, h0)
        for idx in range(len(kids), 0, -1):
            entry = layers[idx][state]
            assert entry is not None
            prev, mc, fc, ch1, ch0 = entry
            c = kids[idx - 1]
            if mc == 1:
                eid = t.edge_id(v, c)
                assert eid is not None
                f_edges.add(eid)
            stack.append((c, mc, fc, ch1, ch0))
            state = prev
    return frozenset(f_edges)


def decide_tree(t: Graph) -> tuple[int, frozenset[int] | None]:
    """Exact conflict-free index of a tree and its witness, from one DP run:
    (1, None) for a single edge, (2, F) when decide_tree_two accepts some F,
    else (3, None), since the bipartite construction always needs at most 3."""
    _require_tree(t, 1)
    if t.m == 1:
        return 1, None
    f_edges = _search_f(t)
    return (3, None) if f_edges is None else (2, f_edges)


def tree_cf_index(t: Graph) -> int:
    """Exact conflict-free chromatic index of a tree: 1, 2 or 3."""
    return decide_tree(t)[0]


def format_f_set(f_edges: frozenset[int]) -> str:
    """Sorted edge ids on one space-separated line."""
    return " ".join(str(e) for e in sorted(f_edges)) + "\n"


def parse_f_set(text: str) -> frozenset[int]:
    items = text.split()
    try:
        return frozenset(int(x) for x in items)
    except ValueError as exc:
        raise FormatError(f"edge ids must be integers, got {text!r}") from exc
