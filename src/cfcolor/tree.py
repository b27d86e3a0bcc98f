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

from dataclasses import dataclass

from .coloring import EdgeColoring, verify_cf
from .errors import (
    CertificateRejectedError,
    EdgeOutOfRangeError,
    FormatError,
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
COND_VIOLATED = "violated"


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
    deg = [len(a) for a in t.adjacency]
    # n - 1 edges make a tree exactly when the search reaches all n vertices.
    # Only a lone vertex is a tree without a leaf; any other leafless graph
    # with n - 1 edges has an isolated vertex, so a search from 0 falls short.
    root = t.adjacency[deg.index(1)][0][0] if 1 in deg else 0
    order = [root]
    children: list[list[int]] = [[] for _ in range(t.n)]
    up_edge = [-1] * t.n
    seen = [False] * t.n
    seen[root] = True
    for u in order:
        for v, eid in sorted(t.adjacency[u]):
            if not seen[v]:
                seen[v] = True
                children[u].append(v)
                up_edge[v] = eid
                order.append(v)
    if len(order) != t.n:
        raise NotATreeError("disconnected")
    if t.m < min_edges:
        raise TooFewEdgesError(t.m, min_edges)
    return order, deg, children, up_edge


def check_f_certificate(t: Graph, f_edges: frozenset[int]) -> TreeFCertificate | list[int]:
    """Evaluate the per-edge conditions for an edge subset F.

    Returns the certificate when F is nonempty, proper, and no edge is
    violated; otherwise the sorted list of violated edges (empty when the
    only failure is F being empty or all of E).
    """
    deg = _require_tree(t, 2)[1]
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
        rest_sum = (deg[u] - df[u]) + (deg[v] - df[v])
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
    if set(c.colors) != {1, 2}:
        raise NotTwoColorsError(f"colors present: {sorted(set(c.colors))}")
    report = verify_cf(t, c)
    if report.unsatisfied:
        raise NotConflictFreeError(list(report.unsatisfied))
    return frozenset(e for e in range(t.m) if c.colors[e] == 1)


# ---------------------------------------------------------------------------
# Feasibility DP, in two passes. The forward pass (_forward_f) fills reach
# tables bottom-up and finds goal_f, the smallest F-degree of the root that
# reaches flags 3; an accepted F exists exactly when goal_f exists, which is
# all tree_cf_index needs. The replay (_replay_f) reads the witness F off the
# tables; decide_tree and decide_tree_two run it after the forward pass.
#
# Both passes run on the rooting that _require_tree returns, at the neighbour
# of the smallest-id leaf, so checking the input is the one search of the
# tree. The flags of a vertex v are b = h1<<1 | h0, where h1 and h0 record
# whether the edges below v include an F edge and a non-F edge; a set of flags
# is a 4-bit mask with bit b set. The forward pass keeps reachability only:
# per vertex and per membership m of its parent edge, a list indexed by v's
# final F-degree f of the flag masks that some F below v reaches. The
# condition of edge (v, child) pins the child's final F-degree to at most two
# values once f is assumed, so each f costs one pass over the children. That
# pass keeps a list indexed by the membership sum s of the child edges so far,
# holding flag masks, and folds in each child through the image table _IMAGE.
# The sum only grows and must end at f - m, so sums above f are dropped.
#
# The replay reads the witness top-down along the chosen branch. For each
# vertex there only its chosen f is replayed, on int-coded states s*4 + b
# pruned above f - m, keeping for each state the first predecessor that
# reached it: states in insertion order, then membership 0 before 1, then
# the pinned child degree ascending, then child flags ascending. That order
# fixes the witness. A kept state's predecessors all have a smaller or equal
# sum, so the pruning does not change which predecessor comes first.
# ---------------------------------------------------------------------------


# Set bits of a flag mask, ascending.
_FLAGS_OF = tuple(tuple(b for b in range(4) if mask >> b & 1) for mask in range(16))


def _flag_image(mask: int, child_mask: int, mc: int) -> int:
    # Flags of v after one more child: v's flags, the child's flags, and the
    # child edge itself, an F edge (h1) when mc is 1 and a non-F edge (h0)
    # otherwise.
    edge = 2 if mc else 1
    flags = {b | cb | edge for b in _FLAGS_OF[mask] for cb in _FLAGS_OF[child_mask]}
    return sum(1 << b for b in flags)


# _IMAGE[mc][mask << 4 | child_mask]
_IMAGE = tuple(
    tuple(_flag_image(mask, child_mask, mc) for mask in range(16) for child_mask in range(16))
    for mc in (0, 1)
)


def _forward_f(rooting: _Rooting) -> tuple[int | None, list[list[int]], list[list[int]]]:
    # The forward pass, on the rooting of a tree with at least two edges.
    # Returns goal_f, the smallest root F-degree that reaches flags 3 (an F
    # edge and a non-F edge below the root) or None if none does, and the
    # reach tables.
    order, deg, children, _ = rooting
    n = len(order)
    image0, image1 = _IMAGE
    # reach0[v][f] / reach1[v][f]: the flag masks reachable below v when v
    # ends with F-degree f and its parent edge is outside / inside F
    reach0: list[list[int]] = [[]] * n
    reach1: list[list[int]] = [[]] * n
    leaf0, leaf1 = [1, 0], [0, 1]
    for v in reversed(order):
        kids = children[v]
        if not kids:
            reach0[v], reach1[v] = leaf0, leaf1
            continue
        dv = deg[v]
        r0 = [0] * (dv + 1)
        r1 = [0] * (dv + 1)
        for f in range(dv + 1):
            # The child flag masks each membership allows, given f. A child
            # that allows none rules f out before any combining.
            pairs = []
            for c in kids:
                dc = deg[c]
                c0, c1 = reach0[c], reach1[c]
                hi = dv + dc - f
                # membership 0 pins the child's degree to 1 - f or hi - 2,
                # membership 1 to 2 - f or hi - 1
                g0 = c0[1 - f] if f <= 1 else 0
                if 0 <= hi - 2 <= dc:
                    g0 |= c0[hi - 2]
                g1 = c1[2 - f] if 0 <= 2 - f <= dc else 0
                if hi - 1 <= dc:
                    g1 |= c1[hi - 1]
                if not (g0 or g1):
                    break
                pairs.append((g0, g1))
            else:
                sums = [1]
                for g0, g1 in pairs:
                    top = min(len(sums), f)
                    nxt = [0] * (top + 1)
                    for s, mask in enumerate(sums):
                        if mask:
                            if g0:
                                nxt[s] |= image0[mask << 4 | g0]
                            if g1 and s < top:
                                nxt[s + 1] |= image1[mask << 4 | g1]
                    sums = nxt
                if len(sums) > f:
                    r0[f] = sums[f]
                if 0 < f <= len(sums):
                    r1[f] = sums[f - 1]
        reach0[v], reach1[v] = r0, r1
    root_reach = reach0[order[0]]
    goal_f = next((f for f in range(len(root_reach)) if root_reach[f] & 8), None)
    return goal_f, reach0, reach1


def _replay_f(rooting: _Rooting, goal_f: int, reach0: list[list[int]],
              reach1: list[list[int]]) -> frozenset[int]:
    # The witness F read top-down along the branch to goal_f.
    order, deg, children, up_edge = rooting
    f_edges: list[int] = []
    stack = [(order[0], 0, goal_f, 3)]
    while stack:
        v, m, f, b = stack.pop()
        kids = children[v]
        dv = deg[v]
        limit = (f - m + 1) * 4
        layers: list[dict[int, tuple[int, int, int, int]]] = [{0: (0, 0, 0, 0)}]
        for c in kids:
            dc = deg[c]
            # (state increment, flag bits, membership, child degree, child
            # flags) in replay order
            opts = []
            for mc, table, lo, hi in ((0, reach0[c], 1 - f, dv + dc - 2 - f),
                                      (1, reach1[c], 2 - f, dv + dc - 1 - f)):
                for fc in sorted({lo, hi}):
                    if 0 <= fc <= dc:
                        for cb in _FLAGS_OF[table[fc]]:
                            opts.append((mc * 4, cb | (2 if mc else 1), mc, fc, cb))
            nxt: dict[int, tuple[int, int, int, int]] = {}
            for key in layers[-1]:
                for add, bits, mc, fc, cb in opts:
                    nk = (key + add) | bits
                    if nk < limit and nk not in nxt:
                        nxt[nk] = (key, mc, fc, cb)
            layers.append(nxt)
        state = (f - m) * 4 + b
        for idx in range(len(kids), 0, -1):
            state, mc, fc, cb = layers[idx][state]
            c = kids[idx - 1]
            if mc:
                f_edges.append(up_edge[c])
            if children[c]:
                stack.append((c, mc, fc, cb))
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


def parse_f_set(text: str) -> frozenset[int]:
    items = text.split()
    try:
        return frozenset(int(x) for x in items)
    except ValueError as exc:
        raise FormatError(f"edge ids must be integers, got {text!r}") from exc
