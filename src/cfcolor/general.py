"""Conflict-free colorings of arbitrary graphs by class halving.

Given a proper vertex coloring with k classes, split the classes in half:
the edges crossing the split form a bipartite graph and get two fresh
colors via the dominating-set construction, and the edges inside either
half are split again with half as many classes. Numbering the classes
from 0, an edge is crossed at the highest bit in which its endpoints'
classes differ, so one pass over the edges sorts them into their levels.
The partial coloring that results uses at most 2*ceil(log2 k) colors, one
extra color totalises it, and cycles are handled directly with an
alternating 2-coloring.

Each level runs on the parent graph's ids, through the construction core
that the bipartite module's public functions wrap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .bipartite import _dominate, extend_to_cf
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

    Runs in O((n+m) log n): candidates wait in a heap keyed by
    (-saturation, id), and a vertex is pushed again whenever its saturation
    grows (Brélaz 1979). Saturation never falls, so a vertex's newest entry
    outranks its older ones and pops first; older entries surface only after
    the vertex is colored and are skipped. The first entry of an uncolored
    vertex is thus the most saturated, smallest-id uncolored vertex.
    """
    class_of = [0] * g.n
    neighbour_classes: list[set[int]] = [set() for _ in range(g.n)]
    heap = [(0, v) for v in range(g.n)]
    while heap:
        _, best = heapq.heappop(heap)
        if class_of[best]:
            continue
        c = 1
        while c in neighbour_classes[best]:
            c += 1
        class_of[best] = c
        for w, _ in g.adjacency[best]:
            seen = neighbour_classes[w]
            if not class_of[w] and c not in seen:
                seen.add(c)
                heapq.heappush(heap, (-len(seen), w))
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


def _level_sides(adjacency: list[list[tuple[int, int]]], zero: list[int], j: int) -> list[bool]:
    # Every level edge joins two classes that differ in bit j, so in a
    # component v is on X exactly when its class has the bit j of the root,
    # the component's smallest vertex; bipartition puts that vertex on X in
    # the compacted level too. The order of the walk does not matter.
    is_x = [False] * len(adjacency)
    seen = [False] * len(adjacency)
    for root, a in enumerate(adjacency):
        if a and not seen[root]:
            for v in reach(adjacency, root, seen):
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
    ``bipartition`` gives it on the level renumbered from 0.
    """
    _validate_proper(g, vc)
    require_no_isolated(g)
    if g.m == 0:
        return EdgeColoring(k=0, colors=())
    t = _ceil_log2(vc.k)
    zero = [c - 1 for c in vc.class_of]
    levels: list[list[int]] = [[] for _ in range(t)]
    for eid, (u, v) in enumerate(g.edges):
        levels[(zero[u] ^ zero[v]).bit_length() - 1].append(eid)
    out = [UNCOLORED] * g.m
    for j, cross in enumerate(levels):
        if not cross:
            continue
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid in cross:
            u, v = g.edges[eid]
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
        is_x = _level_sides(adjacency, zero, j)
        assert all(is_x[g.edges[eid][0]] != is_x[g.edges[eid][1]] for eid in cross)
        _dominate(adjacency, is_x, out, 2 * j)
    return EdgeColoring(k=2 * t, colors=tuple(out))


def general_cf_coloring(g: Graph) -> tuple[EdgeColoring, VertexColoring]:
    """Total conflict-free coloring with at most 2*ceil(log2 k) + 1 colors,
    where k is the class count found by greedy_vertex_coloring."""
    vc = greedy_vertex_coloring(g)
    partial = recursive_scf_coloring(g, vc)
    return extend_to_cf(g, partial), vc


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
