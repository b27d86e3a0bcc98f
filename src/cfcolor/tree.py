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
# The tag an edge with membership x = [uv in F] earns by its F-sum 1 + x, or
# else by its non-F sum 2 - x: the conditions above, indexed by x.
_DEGREES_TAG = (COND_OUT_F_DEGREES, COND_IN_F_DEGREES)
_COMPLEMENT_TAG = (COND_OUT_F_COMPLEMENT, COND_IN_F_COMPLEMENT)


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
        x = eid in f_edges
        if df[u] + df[v] == 1 + x:
            tags.append(_DEGREES_TAG[x])
        elif (deg[u] - df[u]) + (deg[v] - df[v]) == 2 - x:
            tags.append(_COMPLEMENT_TAG[x])
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
# Feasibility DP, in two passes. The forward pass (_forward_f) gives each
# vertex a state bottom-up and finds goal_f, the smallest F-degree the root
# can end with; an accepted F exists exactly when goal_f exists, which is all
# tree_cf_index needs. The replay (_replay_f) reads the witness F off the
# states; decide_tree and decide_tree_two run it after the forward pass.
#
# Both passes run on the rooting that _require_tree returns, at the neighbour
# of the smallest-id leaf, so checking the input is the one search of the
# tree. The forward pass keeps reachability only: per vertex v and per
# membership m of its parent edge, a row of bits indexed by v's final F-degree
# f that says whether some F below v meets every condition there. v's state is
# one int holding v's degree dv and both rows: bits 0..dv are the row for
# m = 0, bits dv + 1..2dv + 1 the row for m = 1, and bit 2dv + 2 is set, so
# the state's bit length gives dv back. A leaf's state is _LEAF: F-degree 0
# with m = 0 and 1 with m = 1. The condition of edge (v, c) is
# check_f_certificate's rule solved for c's final F-degree: with x its
# membership, f + dF(c) = 1 + x or (dv - f) + (dc - dF(c)) = 2 - x. Once f is
# assumed, that pins dF(c) to 1 + x - f or dv + dc - f - 2 + x, so each f
# costs one pass over the children.
# That pass sorts the children into those that must join F (only membership 1
# is reachable), those that must stay out and those that may do either. The
# membership sums the children reach are then every value from need, the
# number that must join, to can, the number that may: adding one child to an
# interval of sums keeps it, shifts it by one or widens it by one. So f is
# reachable exactly when every child allows some membership and
# need <= f - m <= can.
#
# So v's state is a function of dv and of the multiset of its children's
# states alone, and few states occur: 18 over all 16,807 trees on 7 vertices,
# 45 once three random trees on 10**5 vertices are added. The forward pass
# therefore looks each vertex up in _TABLE, keyed by dv and its children's
# states in ascending order, and runs the per-f pass above (_transition) only
# on a miss. The table never changes an answer: it holds per-vertex
# transitions only, never a graph or a request, each value is a pure function
# of its key, and a state is a pure function of the rows, not a number handed
# out in turn. Its memory has a fixed bound. A vertex of degree above
# _MAX_DEGREE, or with a child of such degree, is computed and not stored, so
# a key is at most _MAX_DEGREE + 1 ints below _WIDE; the table stops growing
# at _CAP entries, and the next forward pass that finds it full clears it.
# Concurrent calls are safe: each reads and writes the table by single dict
# operations (get, store, clear), any entry it reads is the value it would
# compute itself, whichever call stored it, and a clear costs only misses.
# Calls that store at once may each pass the length check, so the table can
# hold _CAP plus one entry per other running call.
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
#    as tests/reference.py does, never chooses between its search states by
#    them: it finds the same goal_f and the same witness.
# ---------------------------------------------------------------------------

# A leaf's state: degree 1, row [1, 0] for m = 0, row [0, 1] for m = 1.
_LEAF = 0b1_10_01
_MAX_DEGREE = 16
# every state of a vertex of degree at most _MAX_DEGREE is below _WIDE
_WIDE = 1 << (2 * _MAX_DEGREE + 3)
_CAP = 1 << 14
_TABLE: dict[tuple[int, ...], int] = {}


def _transition(key: tuple[int, ...]) -> int:
    # The state of a vertex from its table key: its degree dv, then its
    # children's states in any order.
    dv = key[0]
    kids = [((s.bit_length() - 3) >> 1, s) for s in key[1:]]
    r0 = r1 = 0
    for f in range(dv + 1):
        need = can = 0
        for dc, s in kids:
            hi = dv + dc - f
            # membership 0 pins the child's degree to 1 - f or hi - 2,
            # membership 1 to 2 - f or hi - 1
            g0 = (f <= 1 and s >> (1 - f) & 1) or (0 <= hi - 2 <= dc and s >> (hi - 2) & 1)
            if ((0 <= 2 - f <= dc and s >> (dc + 3 - f) & 1)
                    or (hi - 1 <= dc and s >> (dc + hi) & 1)):
                can += 1
                need += not g0
            elif not g0:
                break
        else:
            r0 |= (need <= f <= can) << f
            r1 |= (need < f <= can + 1) << f
    return ((1 << (dv + 1) | r1) << (dv + 1)) | r0


def _forward_f(rooting: _Rooting) -> tuple[int | None, list[int]]:
    # The forward pass, on the rooting of a tree with at least two edges.
    # Returns goal_f, the smallest root F-degree some accepted F gives, or
    # None if there is no accepted F, and each vertex's state. Each vertex
    # with children costs one lookup in _TABLE; only a miss runs
    # _transition, whose answer the key fixes, so a hit, a miss, a stored
    # entry or a cleared table all give the same states. The table is
    # cleared here when full, and stores stop at _CAP entries.
    order, deg, children, _ = rooting
    table = _TABLE
    if len(table) >= _CAP:
        table.clear()
    state = [_LEAF] * len(order)
    state_of = state.__getitem__
    for v in reversed(order):
        kids = children[v]
        if kids:
            key = (deg[v], *sorted(map(state_of, kids)))
            s = table.get(key)
            if s is None:
                s = _transition(key)
                if deg[v] <= _MAX_DEGREE and key[-1] < _WIDE and len(table) < _CAP:
                    table[key] = s
            state[v] = s
    root = order[0]
    r0 = state[root] & ((1 << (deg[root] + 1)) - 1)
    return ((r0 & -r0).bit_length() - 1 if r0 else None), state


def _replay_f(rooting: _Rooting, goal_f: int, state: list[int]) -> frozenset[int]:
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
            s = state[c]
            hi = dv + dc - f
            fc0 = (1 - f if f <= 1 and s >> (1 - f) & 1
                   else hi - 2 if 0 <= hi - 2 <= dc and s >> (hi - 2) & 1 else -1)
            fc1 = (2 - f if 0 <= 2 - f <= dc and s >> (dc + 3 - f) & 1
                   else hi - 1 if hi - 1 <= dc and s >> (dc + hi) & 1 else -1)
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
    goal_f, state = _forward_f(rooting)
    return None if goal_f is None else _replay_f(rooting, goal_f, state)


def decide_tree(t: Graph) -> tuple[int, frozenset[int] | None]:
    """Exact conflict-free index of a tree and its witness, from one DP run:
    (1, None) for a single edge, (2, F) when decide_tree_two accepts some F,
    else (3, None), since the bipartite construction always needs at most 3."""
    rooting = _require_tree(t, 1)
    if t.m == 1:
        return 1, None
    goal_f, state = _forward_f(rooting)
    return (3, None) if goal_f is None else (2, _replay_f(rooting, goal_f, state))


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
