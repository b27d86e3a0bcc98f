"""Deciding which trees admit a total conflict-free 2-coloring.

A total 2-coloring of a simple graph is conflict-free exactly when the set F
of color-1 edges satisfies, with dF the F-degree and dG the degree:

    uv in F:      dF(u) + dF(v) = 2   or  (dG - dF)(u) + (dG - dF)(v) = 1
    uv not in F:  dF(u) + dF(v) = 1   or  (dG - dF)(u) + (dG - dF)(v) = 2

because the two sides count, up to the edge's own color, how often colors
1 and 2 appear in the closed neighbourhood of uv. ``check_f_certificate``
checks the conditions edge by edge on any simple graph, ``decide_tree_two``
searches a tree for such an F by dynamic programming over its rooting, and
``decide_tree`` turns the answer into the exact number of colors the tree
needs (1, 2 or 3, never more, since trees are bipartite) with the witness F.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EdgeColoring, verify_cf
from .errors import (
    CertificateRejectedError,
    EdgeOutOfRangeError,
    NotATreeError,
    NotConflictFreeError,
    NotTwoColorsError,
    TooFewEdgesError,
)
from .graph import Graph

COND_IN_F_DEGREES = "sumF=2"
COND_IN_F_COMPLEMENT = "sumNonF=1"
COND_OUT_F_DEGREES = "sumF=1"
COND_OUT_F_COMPLEMENT = "sumNonF=2"


@dataclass(frozen=True)
class TreeFCertificate:
    """An accepted edge subset together with the condition each edge met."""

    f_edges: frozenset[int]
    per_edge_condition: tuple[str, ...]


# The DP's rooting of a tree: the breadth-first order from the root (so the
# root is order[0]), each vertex's degree, its children in ascending id order
# and the id of its parent edge (-1 at the root).
_Rooting = tuple[list[int], list[int], list[list[int]], list[int]]


def _require_tree(t: Graph, min_edges: int) -> _Rooting:
    # Check that t is a tree with at least min_edges edges and return its
    # rooting at the neighbour of the smallest-id leaf, searched over
    # ascending neighbour ids.
    if t.n == 0:
        raise NotATreeError("empty graph")
    if t.m != t.n - 1:
        raise NotATreeError(f"{t.m} edges on {t.n} vertices")
    neighbours = t.neighbours
    deg = list(map(len, neighbours))
    # n - 1 edges make a tree exactly when the search reaches all n vertices.
    # Only a lone vertex is a tree without a leaf; any other leafless graph
    # with n - 1 edges has an isolated vertex, so a search from 0 falls short.
    root = neighbours[deg.index(1)][0] if 1 in deg else 0
    order = [root]
    children: list[list[int]] = [[] for _ in range(t.n)]
    # up_edge[v] stays None until the search reaches v
    up_edge: list[int | None] = [None] * t.n
    up_edge[root] = -1
    # u's unseen neighbours become its children, their ids sorted as plain ints
    for u in order:
        kids = children[u]
        for v, eid in zip(neighbours[u], t.incident[u]):
            if up_edge[v] is None:
                kids.append(v)
                up_edge[v] = eid
        kids.sort()
        order += kids
    if len(order) != t.n:
        raise NotATreeError("disconnected")
    if t.m < min_edges:
        raise TooFewEdgesError(t.m, min_edges)
    return order, deg, children, up_edge


def check_f_certificate(t: Graph, f_edges: frozenset[int]) -> TreeFCertificate | list[int]:
    """Evaluate the per-edge conditions for an edge subset F of any simple
    graph t, from its degrees alone.

    Returns the certificate when no edge is violated, otherwise the sorted
    list of violated edges. On a graph with a component of two or more
    edges, F = {} and F = E violate some edge, so they never pass there;
    on a graph whose every edge is a K2 component, every F passes.
    """
    for eid in f_edges:
        if not (0 <= eid < t.m):
            raise EdgeOutOfRangeError(eid, t.m)
    df = [0] * t.n
    for eid in f_edges:
        u, v = t.edges[eid]
        df[u] += 1
        df[v] += 1
    deg = list(map(len, t.neighbours))
    tags: list[str] = []
    violated: list[int] = []
    for eid, (u, v) in enumerate(t.edges):
        f_sum = df[u] + df[v]
        rest_sum = (deg[u] - df[u]) + (deg[v] - df[v])
        if eid in f_edges:
            if f_sum == 2:
                tags.append(COND_IN_F_DEGREES)
            elif rest_sum == 1:
                tags.append(COND_IN_F_COMPLEMENT)
            else:
                violated.append(eid)
        else:
            if f_sum == 1:
                tags.append(COND_OUT_F_DEGREES)
            elif rest_sum == 2:
                tags.append(COND_OUT_F_COMPLEMENT)
            else:
                violated.append(eid)
    if violated:
        return violated
    return TreeFCertificate(f_edges=frozenset(f_edges), per_edge_condition=tuple(tags))


def coloring_from_f(t: Graph, f_edges: frozenset[int]) -> EdgeColoring:
    """Total 2-coloring of any simple graph: color 1 on F, color 2
    elsewhere. F must be accepted by check_f_certificate."""
    result = check_f_certificate(t, f_edges)
    if not isinstance(result, TreeFCertificate):
        raise CertificateRejectedError(result)
    return EdgeColoring(k=2, colors=tuple(1 if e in f_edges else 2 for e in range(t.m)))


def f_from_coloring(t: Graph, c: EdgeColoring) -> frozenset[int]:
    """Recover the accepted F (the color-1 edges) from a conflict-free
    total coloring of any simple graph with colors in {1, 2}; one of them
    may be absent, as on a graph whose every edge is a K2 component."""
    if len(c.colors) != t.m:
        raise NotTwoColorsError(f"coloring covers {len(c.colors)} edges, graph has {t.m}")
    if not c.is_total():
        raise NotTwoColorsError("coloring is partial")
    if not set(c.colors) <= {1, 2}:
        raise NotTwoColorsError(f"colors present: {sorted(set(c.colors))}")
    report = verify_cf(t, c)
    if report.unsatisfied:
        raise NotConflictFreeError(list(report.unsatisfied))
    return frozenset(e for e in range(t.m) if c.colors[e] == 1)


# ---------------------------------------------------------------------------
# Feasibility DP, in two passes. The forward pass (_forward_f) fills reach
# tables bottom-up and finds goal_f, the smallest F-degree the root can end
# with; an accepted F exists exactly when goal_f exists, which is all
# tree_cf_index needs. The replay (_replay_f) reads the witness F off the
# tables; decide_tree and decide_tree_two run it after the forward pass.
#
# Both passes run on the rooting that _require_tree returns, at the neighbour
# of the smallest-id leaf, so checking the input is the one search of the
# tree. The forward pass keeps reachability only: per vertex v and per
# membership m of its parent edge, a list indexed by v's final F-degree f that
# says whether some F below v meets every condition there. The condition of
# edge (v, child) pins the child's final F-degree to at most two values once f
# is assumed, so each f costs one pass over the children. That pass sorts the
# children into those that must join F (only membership 1 is reachable),
# those that must stay out and those that may do either. The membership sums
# the children reach are then every value from need, the number that must
# join, to can, the number that may: adding one child to an interval of sums
# keeps it, shifts it by one or widens it by one. So f is reachable exactly
# when every child allows some membership and need <= f - m <= can.
#
# The replay reads the witness top-down along the chosen branch. For each
# vertex it pins the children again for the chosen f, gives each child its
# smallest allowed pinned degree, and puts in F the children that must join
# plus the last f - m - need of those that may. That order fixes the witness:
# it is the one a search over membership sums finds when it keeps each sum's
# first predecessor, as tests/reference.py does.
#
# Nothing has to keep F nonempty and proper, for two reasons:
# 1. F = {} and F = E always fail. A tree with two or more edges has an edge
#    whose endpoint degrees sum to at least 3; F = {} gives it F-sum 0 and
#    non-F sum at least 3, and F = E fails it the mirror way. So any F that
#    meets every condition has an F edge and a non-F edge below the root.
# 2. Which kinds of edge lie below v (F only, non-F only, or both) is fixed by
#    v, f and m. If v has a grandchild g through child c, then deg(c) >= 2 and
#    edge cg fails when all edges below v are in F, or all are out, so both
#    kinds occur. Otherwise the edges below v are its child edges, and their
#    kinds follow from the sum f - m. So a search that also tracks these kinds,
#    as tests/reference.py does, never chooses between states by them: it
#    finds the same goal_f and the same witness.
# ---------------------------------------------------------------------------


def _forward_f(rooting: _Rooting) -> tuple[int | None, list[list[bool]], list[list[bool]]]:
    # The forward pass, on the rooting of a tree with at least two edges.
    # Returns goal_f, the smallest root F-degree some accepted F gives, or
    # None if there is no accepted F, and the reach tables.
    order, deg, children, _ = rooting
    n = len(order)
    # reach0[v][f] / reach1[v][f]: whether some F below v meets every
    # condition there when v ends with F-degree f and its parent edge is
    # outside / inside F
    reach0: list[list[bool]] = [[]] * n
    reach1: list[list[bool]] = [[]] * n
    leaf0, leaf1 = [True, False], [False, True]
    for v in reversed(order):
        kids = children[v]
        if not kids:
            reach0[v], reach1[v] = leaf0, leaf1
            continue
        dv = deg[v]
        r0 = [False] * (dv + 1)
        r1 = [False] * (dv + 1)
        for f in range(dv + 1):
            need = can = 0
            for c in kids:
                dc = deg[c]
                c0, c1 = reach0[c], reach1[c]
                hi = dv + dc - f
                # membership 0 pins the child's degree to 1 - f or hi - 2,
                # membership 1 to 2 - f or hi - 1
                g0 = (f <= 1 and c0[1 - f]) or (0 <= hi - 2 <= dc and c0[hi - 2])
                if (0 <= 2 - f <= dc and c1[2 - f]) or (hi - 1 <= dc and c1[hi - 1]):
                    can += 1
                    need += not g0
                elif not g0:
                    break
            else:
                r0[f] = need <= f <= can
                r1[f] = need < f <= can + 1
        reach0[v], reach1[v] = r0, r1
    root_reach = reach0[order[0]]
    goal_f = root_reach.index(True) if True in root_reach else None
    return goal_f, reach0, reach1


def _replay_f(rooting: _Rooting, goal_f: int, reach0: list[list[bool]],
              reach1: list[list[bool]]) -> frozenset[int]:
    # The witness F read top-down along the branch to goal_f.
    order, deg, children, up_edge = rooting
    f_edges: list[int] = []
    stack = [(order[0], 0, goal_f)]
    while stack:
        v, m, f = stack.pop()
        dv = deg[v]
        # per child its smallest allowed pinned degree for membership 0 and 1,
        # or -1 if that membership is not allowed; after this loop, spare is
        # the number of children that may join F and do. Every edge of a tree
        # with two or more edges has dv + dc >= 3, so 1 - f <= hi - 2 and
        # 2 - f <= hi - 1: the smallest allowed pin is the first allowed one
        # of (low, high).
        pins = []
        spare = f - m
        for c in children[v]:
            dc = deg[c]
            c0, c1 = reach0[c], reach1[c]
            hi = dv + dc - f
            fc0 = (1 - f if f <= 1 and c0[1 - f]
                   else hi - 2 if 0 <= hi - 2 <= dc and c0[hi - 2] else -1)
            fc1 = (2 - f if 0 <= 2 - f <= dc and c1[2 - f]
                   else hi - 1 if hi - 1 <= dc and c1[hi - 1] else -1)
            pins.append((c, fc0, fc1))
            spare -= fc0 < 0
        for c, fc0, fc1 in reversed(pins):
            if fc0 < 0 or (fc1 >= 0 and spare > 0):
                spare -= fc0 >= 0
                f_edges.append(up_edge[c])
                stack.append((c, 1, fc1))
            else:
                stack.append((c, 0, fc0))
    return frozenset(f_edges)


def decide_tree_two(t: Graph) -> frozenset[int] | None:
    """Find an accepted F for the tree, or None when no such subset exists.

    Agrees with brute force over all 2^m subsets; the witness it returns is
    deterministic for a given input.
    """
    rooting = _require_tree(t, 2)
    goal_f, reach0, reach1 = _forward_f(rooting)
    return None if goal_f is None else _replay_f(rooting, goal_f, reach0, reach1)


def decide_tree(t: Graph) -> tuple[int, frozenset[int] | None]:
    """Exact conflict-free index of a tree and its witness, from one DP run:
    (1, None) for a single edge, (2, F) when decide_tree_two accepts some F,
    else (3, None), since the bipartite construction always needs at most 3."""
    rooting = _require_tree(t, 1)
    if t.m == 1:
        return 1, None
    goal_f, reach0, reach1 = _forward_f(rooting)
    return (3, None) if goal_f is None else (2, _replay_f(rooting, goal_f, reach0, reach1))


def tree_cf_index(t: Graph) -> int:
    """Exact conflict-free chromatic index of a tree: 1, 2 or 3. Runs the
    forward pass of the DP only, with no witness replay."""
    rooting = _require_tree(t, 1)
    if t.m == 1:
        return 1
    return 3 if _forward_f(rooting)[0] is None else 2


def format_f_set(f_edges: frozenset[int]) -> str:
    """Sorted edge ids on one space-separated line."""
    return " ".join(str(e) for e in sorted(f_edges)) + "\n"
