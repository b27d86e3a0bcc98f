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
from itertools import compress, count

from .coloring import EdgeColoring, verify_cf
from .errors import (
    CertificateRejectedError,
    EdgeOutOfRangeError,
    NotATreeError,
    NotConflictFreeError,
    NotTwoColorsError,
    TooFewEdgesError,
)
from .graph import Graph, reach

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


def _require_tree(t: Graph, min_edges: int) -> tuple[list[int], ...]:
    # Check that t is a tree with at least min_edges edges and return its
    # rooting at the neighbour of the smallest-id leaf: graph.reach's order
    # and parents from there, and the degrees. A vertex's children are the
    # block of the order reach found from it, deg - 1 long (deg at the root).
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
    parent = [-1] * t.n
    order = reach(neighbours, root, parent)
    if len(order) != t.n:
        raise NotATreeError("disconnected")
    if t.m < min_edges:
        raise TooFewEdgesError(t.m, min_edges)
    return order, deg, parent


def check_f_certificate(t: Graph, f_edges: frozenset[int]) -> TreeFCertificate | list[int]:
    """Evaluate the per-edge conditions for an edge subset F of any simple
    graph t, from its degrees alone.

    Returns the certificate when no edge is violated, otherwise the sorted
    list of violated edges. On a graph with a component of two or more
    edges, F = {} and F = E violate some edge, so they never pass there;
    on a graph whose every edge is a K2 component, every F passes.
    """
    m = t.m
    df = [0] * t.n
    for eid in f_edges:
        if not (0 <= eid < m):
            raise EdgeOutOfRangeError(eid, m)
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
    colors = [2] * t.m
    for e in f_edges:
        colors[e] = 1
    return EdgeColoring(k=2, colors=tuple(colors))


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
# vertex a state bottom-up and finds goal, the slot of the smallest F-degree
# the root can end with; an accepted F exists exactly when goal exists, which
# is all tree_cf_index needs. The replay (_replay_f) reads the witness F off
# the states; decide_tree and decide_tree_two run it after the forward pass.
#
# Both passes run on the rooting that _require_tree returns, so checking the
# input is the one search of the tree, graph.reach's. The condition of edge
# (v, c) is check_f_certificate's rule solved for c's final F-degree: with f
# and x the F-degree of v and the membership of the edge, f + dF(c) = 1 + x
# or (dv - f) + (dc - dF(c)) = 2 - x. Once f is assumed, that pins dF(c) to
# 1 + x - f or dv + dc - f - 2 + x, so each child must join F, must stay out,
# may do either or rules f out.
#
# docs/tree_automaton.md proves that this makes the DP a fixed finite
# automaton, built once at import by _automaton:
# - a vertex of degree dv can only end with an F-degree in its four slots
#   (0, 1, dv - 1, dv), and its class min(dv, 4) pins its children's slots as
#   dv does, so its state is its shape: its class and, per membership m of its
#   parent edge, the row of slots it can reach. Only 21 shapes occur;
# - per slot, the rows compare the number of children on one side of the edge
#   (in F for slots 0 and 1, out of F for the others) with 0 or 1 only. So the
#   forward pass folds the children into four sets of the counts 0 and 1 that
#   some choice of memberships reaches, one table step per child edge. The
#   fold does not depend on the order of the children, so each vertex is
#   folded into its parent as the breadth-first order is walked backwards.
#
# The replay reads the witness top-down along the chosen branch. For each
# vertex it pins the children again for the chosen slot j, gives each child
# its smallest allowed pinned F-degree, and puts in F the children that must
# join plus the last f - m - need of those that may in ascending id order,
# need being the number that must join. That order fixes the witness: it is
# the one a search over membership sums finds when it keeps each sum's first
# predecessor, as tests/reference.py does. Since each slot needs at most one
# child on its side, at most one child that may go either way leaves the
# default side d = j >> 1 (out of F at slots 0 and 1, in at 2 and 3): the
# highest-id one joins, or the lowest-id one stays out. So one child loop
# serves every slot, and no sort is needed.
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
#    them: it finds the same goal and the same witness.
# ---------------------------------------------------------------------------

# Per row, the count each slot needs on its side: the F children f - m of
# slots 0 and 1, and the non-F children dv - f - (1 - m) of slots 2 and 3,
# (1 - m) dropped at the root; -1 where the slot is out of reach.
_NEEDS = ((0, 1, 0, -1), (-1, 0, 1, 0), (0, 1, 1, 0))
# A fold holds bit 2j + k when slot j's side can hold k children; with no
# child folded, each side holds none.
_EMPTY = 0b01_01_01_01


def _row(d: int, fold: int, needs: tuple[int, ...]) -> int:
    # The slots a vertex of class d reaches from its fold, as bits. Below
    # class 3 two slots share an F-degree, and each is reached if one is.
    slots = (0, 1, d - 1, d)
    reached = [slots[j] for j, k in enumerate(needs) if k >= 0 and fold >> (2 * j + k) & 1]
    return sum(1 << j for j, f in enumerate(slots) if f in reached)


def _pins(d: int, j: int, shape: tuple[int, int, int]) -> tuple[int, int]:
    # The slot a child of this shape takes, per membership of its edge to a
    # parent of class d in slot j: the first allowed of its two pins, the low
    # one first, which is the smaller since d + dc >= 3; -1 if neither is.
    dc, *rows = shape
    f = (0, 1, d - 1, d)[j]
    slots = (0, 1, dc - 1, dc)
    found = [-1, -1]
    for x in (0, 1):
        for fc in (1 + x - f, d + dc - f - 2 + x):
            if fc in slots and rows[x] >> slots.index(fc) & 1:
                found[x] = slots.index(fc)
                break
    return found[0], found[1]


def _automaton() -> tuple[tuple, tuple, tuple, tuple]:
    # The automaton's tables: per fold, its fold after one more child of each
    # shape, its shape as a non-root vertex and the root's smallest slot it
    # gives (-1 for none); per class 2..4 and slot, each shape's pins. A fold
    # is a (class, sets) pair; folds 0, 1 and 2 hold no child of class 2, 3
    # and 4, and shape 0 is the leaf's. Each round steps every fold with
    # every shape; the last round finds nothing new, so its tables are whole.
    shapes = [(1, _row(1, _EMPTY, _NEEDS[0]), _row(1, _EMPTY, _NEEDS[1]))]
    folds = [(d, _EMPTY) for d in (2, 3, 4)]
    index = {fold: i for i, fold in enumerate(folds)}
    # per class and shape, the masks of the sets a child keeps (its edge may
    # lie off the slot's side) and shifts by one (it may lie on it)
    moves: dict[tuple[int, int], tuple[int, int]] = {}
    size = None
    while size != (len(folds), len(shapes)):
        size = len(folds), len(shapes)
        steps, shape_of, goals = [], [], []
        for d, fold in folds:
            shape = (d, _row(d, fold, _NEEDS[0]), _row(d, fold, _NEEDS[1]))
            if shape not in shapes:
                shapes.append(shape)
            shape_of.append(shapes.index(shape))
            root = _row(d, fold, _NEEDS[2])
            goals.append((root & -root).bit_length() - 1)
            row = []
            for s in range(len(shapes)):
                if (d, s) not in moves:
                    pins = [_pins(d, j, shapes[s]) for j in range(4)]
                    moves[d, s] = (sum((p[j > 1] >= 0) * 0b11 << 2 * j for j, p in enumerate(pins)),
                                   sum((p[j < 2] >= 0) * 0b10 << 2 * j for j, p in enumerate(pins)))
                keep, shift = moves[d, s]
                after = d, fold & keep | fold << 1 & shift
                if after not in index:
                    index[after] = len(folds)
                    folds.append(after)
                row.append(index[after])
            steps.append(tuple(row))
    pins = tuple(tuple(tuple(_pins(d, j, shape) for shape in shapes) for j in range(4))
                 for d in (2, 3, 4))
    return tuple(steps), tuple(shape_of), tuple(goals), pins


_STEP, _SHAPE, _GOAL, _PINS = _automaton()


def _forward_f(rooting: tuple[list[int], ...]) -> tuple[int, list[int]]:
    # The forward pass, on the rooting of a tree with at least two edges.
    # Returns goal, the root's smallest slot some accepted F gives, or -1 if
    # there is no accepted F, and each vertex's shape but the root's, whose
    # entry holds its fold.
    order, deg, parent = rooting
    step, shape_of = _STEP, _SHAPE
    # each vertex starts at the empty fold of its class, a leaf at -1; once
    # folded into its parent, its entry holds its shape
    fold = [d - 2 if d < 4 else 2 for d in deg]
    for v in order[:0:-1]:
        s = fold[v]
        s = fold[v] = shape_of[s] if s >= 0 else 0
        p = parent[v]
        fold[p] = step[fold[p]][s]
    return _GOAL[fold[order[0]]], fold


def _replay_f(t: Graph, rooting: tuple[list[int], ...], goal: int,
              shape: list[int]) -> frozenset[int]:
    # The witness F read top-down along the branch to the root's slot goal,
    # from each vertex's slot j and the membership m of its parent edge (2 at
    # the root, whose row of _NEEDS is the last). Its children are the next
    # block of the order, up to end; a leaf's is empty. short is the number
    # of children the slot still needs off the default side d once those that
    # cannot take d are there: 0 or 1, filled by the banner's pick.
    order, deg, parent = rooting
    n = len(order)
    slot, member = [0] * n, [0] * n
    root = order[0]
    slot[root], member[root] = goal, 2
    end = 1
    for v in order:
        dv = deg[v]
        if dv == 1:
            continue
        j, m = slot[v], member[v]
        pins = _PINS[(dv if dv < 4 else 4) - 2][j]
        short = _NEEDS[m][j]
        d = j >> 1
        o = d ^ 1
        pick = n if d else -1
        start, end = end, end + dv - (m < 2)
        for c in order[start:end]:
            pin = pins[shape[c]]
            if pin[d] < 0:
                member[c], slot[c] = o, pin[o]
                short -= 1
            else:
                member[c], slot[c] = d, pin[d]
                if pin[o] >= 0 and (c > pick) != d:
                    pick = c
        if short:
            member[pick], slot[pick] = o, pins[shape[pick]][o]
    member[root] = 0
    # edge (u, v) joins u to its parent v, or else v to its parent u; it is
    # in F when that child is
    return frozenset(compress(count(), [member[u if parent[u] == v else v] for u, v in t.edges]))


def decide_tree_two(t: Graph) -> frozenset[int] | None:
    """Find an accepted F for the tree, or None when no such subset exists.

    Agrees with brute force over all 2^m subsets; the witness it returns is
    deterministic for a given input.
    """
    rooting = _require_tree(t, 2)
    goal, shape = _forward_f(rooting)
    return None if goal < 0 else _replay_f(t, rooting, goal, shape)


def decide_tree(t: Graph) -> tuple[int, frozenset[int] | None]:
    """Exact conflict-free index of a tree and its witness, from one DP run:
    (1, None) for a single edge, (2, F) when decide_tree_two accepts some F,
    else (3, None), since the bipartite construction always needs at most 3."""
    rooting = _require_tree(t, 1)
    if t.m == 1:
        return 1, None
    goal, shape = _forward_f(rooting)
    return (3, None) if goal < 0 else (2, _replay_f(t, rooting, goal, shape))


def tree_cf_index(t: Graph) -> int:
    """Exact conflict-free chromatic index of a tree: 1, 2 or 3. Runs the
    forward pass of the DP only, with no witness replay."""
    rooting = _require_tree(t, 1)
    if t.m == 1:
        return 1
    return 3 if _forward_f(rooting)[0] < 0 else 2


def format_f_set(f_edges: frozenset[int]) -> str:
    """Sorted edge ids on one space-separated line."""
    return " ".join(str(e) for e in sorted(f_edges)) + "\n"
