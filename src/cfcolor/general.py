"""Conflict-free colorings of arbitrary graphs by class halving.

Given a proper vertex coloring with k classes, split the classes in half:
the edges crossing the split form a bipartite graph and get two fresh
colors via the dominating-set construction, and the edges inside either
half are split again with half as many classes. Numbering the classes
from 0, an edge is crossed at the highest bit in which its endpoints'
classes differ, so one pass over the edges gives each edge its level.
The partial coloring that results uses at most 2*ceil(log2 k) colors, one
extra color totalises it, and cycles are handled directly with an
alternating 2-coloring.

Each level runs on the parent graph's ids, through the construction core
that the bipartite module's public functions wrap. The levels are built
and colored one at a time, so only one level's neighbour and edge-id lists
are held; each list keeps the level's edges in ascending edge id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .bipartite import _dominate, _fill
from .coloring import UNCOLORED, EdgeColoring
from .errors import (
    CycleTooShortError,
    ImproperColoringError,
    SizeMismatchError,
)
from .graph import Graph, reach, require_no_isolated


@dataclass(frozen=True)
class VertexColoring:
    """Proper vertex coloring; class_of[v] lies in 1..k."""

    k: int
    class_of: tuple[int, ...]


def greedy_vertex_coloring(g: Graph) -> VertexColoring:
    """Saturation-guided greedy coloring (DSATUR).

    Repeatedly picks the uncolored vertex seeing the most distinct classes,
    ties broken by smallest id, and gives it the smallest free class.
    Deterministic, and exact on bipartite graphs: within a component the
    colored region grows connectedly, so saturation never exceeds one.

    Runs in O((n+m) log n) on a bucket queue by saturation (Brélaz 1979):
    buckets[s] is a heap of vertex ids, and a vertex is pushed into
    buckets[s] when its saturation reaches s; all start in buckets[0]. top
    is the highest bucket that can hold an uncolored vertex: none is more
    saturated than top, and every bucket above top is empty. A push raises
    an uncolored vertex's saturation by one, so to at most top + 1, and top
    follows it onto that empty bucket. An uncolored vertex of saturation
    top has its entry in buckets[top], and an uncolored vertex there has
    saturation top, so the first entry popped from buckets[top] whose vertex
    is uncolored names the most saturated uncolored vertex of smallest id.
    Entries of colored vertices are the only stale ones and are skipped;
    once buckets[top] is empty, no uncolored vertex has saturation top and
    top steps down.
    """
    class_of = [0] * g.n
    neighbour_classes: list[set[int]] = [set() for _ in range(g.n)]
    buckets = [list(range(g.n))]
    top = 0
    bucket = buckets[0]  # always buckets[top]
    for _ in range(g.n):
        while True:
            if bucket:
                best = heapq.heappop(bucket)
                if not class_of[best]:
                    break
            else:
                top -= 1
                bucket = buckets[top]
        c = 1
        while c in neighbour_classes[best]:
            c += 1
        class_of[best] = c
        for w in g.neighbours[best]:
            seen = neighbour_classes[w]
            if not class_of[w] and c not in seen:
                seen.add(c)
                s = len(seen)
                if s <= top:
                    heapq.heappush(buckets[s], w)
                else:  # s == top + 1, an empty bucket
                    if s == len(buckets):
                        buckets.append([])
                    top = s
                    bucket = buckets[s]
                    bucket.append(w)
    k = max(class_of, default=0)
    return VertexColoring(k=k, class_of=tuple(class_of))


def _validate_proper(g: Graph, vc: VertexColoring) -> None:
    if len(vc.class_of) != g.n:
        raise SizeMismatchError(g.n, len(vc.class_of))
    for v, c in enumerate(vc.class_of):
        if not (1 <= c <= vc.k):
            raise ImproperColoringError((v, v))
    for u, v in g.edges:
        if vc.class_of[u] == vc.class_of[v]:
            raise ImproperColoringError((u, v))


def _ceil_log2(k: int) -> int:
    return max(1, (k - 1).bit_length())


def _level_sides(neighbours: Sequence[Sequence[int]], zero: list[int], j: int) -> list[bool]:
    # Every level edge joins two classes that differ in bit j, so in a
    # component v is on X exactly when its class has the bit j of the root,
    # the component's smallest vertex; bipartition puts that vertex on X in
    # the compacted level too. The order of the walk does not matter.
    is_x = [False] * len(neighbours)
    parent = [-1] * len(neighbours)
    for root, a in enumerate(neighbours):
        if a and parent[root] < 0:
            for v in reach(neighbours, root, parent):
                is_x[v] = not (zero[v] ^ zero[root]) >> j & 1
    return is_x


def recursive_scf_coloring(g: Graph, vc: VertexColoring) -> EdgeColoring:
    """Partial conflict-free coloring with at most 2*ceil(log2 k) colors.

    Edge uv belongs to level j, the highest bit in which the zero-based
    classes of u and v differ: halving the classes first separates u and v
    there. The bit splits each level's edges into a bipartite graph, which
    takes colors 2j+1 and 2j+2 from the dominating-set construction run on
    it in ascending edge id, on g's own vertex ids. Side X of a component
    of the level is the class bit j of its smallest vertex, the side that
    ``bipartition`` gives it on the level renumbered from 0. The palette is
    2*ceil(log2 k) with the logarithm taken as at least 1, so a graph with
    no edges gets the empty coloring over 2 colors, as in bipartite mode.
    """
    _validate_proper(g, vc)
    require_no_isolated(g)
    k, colors = _halve(g, vc)
    return EdgeColoring(k=k, colors=tuple(colors))


def _halve(g: Graph, vc: VertexColoring) -> tuple[int, list[int]]:
    # The palette and colors of recursive_scf_coloring, for a proper vc and
    # a graph without isolated vertices; neither is checked here.
    zero = [c - 1 for c in vc.class_of]
    # level[eid]: one more than the level of edge eid, the bit length of
    # the xor of its endpoints' classes
    level = bytes((zero[u] ^ zero[v]).bit_length() for u, v in g.edges)
    out = [UNCOLORED] * g.m
    levels = _ceil_log2(vc.k)
    for j in range(levels):
        # nbrs[v] and ids[v]: the neighbours of v on level j and the ids of
        # the edges to them, in ascending edge id; one level's lists at a time
        nbrs: list[list[int]] = [[] for _ in range(g.n)]
        ids: list[list[int]] = [[] for _ in range(g.n)]
        for eid in compress(range(g.m), map((j + 1).__eq__, level)):
            u, v = g.edges[eid]
            nbrs[u].append(v)
            ids[u].append(eid)
            nbrs[v].append(u)
            ids[v].append(eid)
        _dominate(nbrs, ids, _level_sides(nbrs, zero, j), out, 2 * j)
        del nbrs, ids  # freed before the next level's lists are built
    return 2 * levels, out


def general_cf_coloring(g: Graph) -> tuple[EdgeColoring, VertexColoring]:
    """Total conflict-free coloring with at most 2*ceil(log2 k) + 1 colors,
    where k is the class count found by greedy_vertex_coloring: the partial
    of ``recursive_scf_coloring``, filled unverified as in ``extend_to_cf``.
    An isolated vertex is rejected before DSATUR runs, and DSATUR's
    coloring is proper by construction, so it is not checked again."""
    require_no_isolated(g)
    vc = greedy_vertex_coloring(g)
    return _fill(*_halve(g, vc)), vc


def cycle_cf_coloring(n: int) -> EdgeColoring:
    """Total 2-coloring of the n-cycle: edges alternate 1, 2, 1, 2, ...

    Around any edge the closed neighbourhood holds three consecutive cycle
    edges, and with the alternating pattern one of the two colors appears
    exactly once there, wrap-around included. Two colors are also necessary
    for n >= 3 since a single color repeats in every neighbourhood.
    """
    if n < 3:
        raise CycleTooShortError(n)
    return EdgeColoring(k=2, colors=tuple(1 if i % 2 == 0 else 2 for i in range(n)))
