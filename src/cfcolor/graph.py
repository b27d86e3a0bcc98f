"""Immutable simple graphs with stable edge ids, plus bipartition testing.

Vertices are ``0..n-1``. Edges keep the order in which they were given and
are addressed everywhere by their position in that list (the edge id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    FormatError,
    IsolatedVertexError,
    SelfLoopError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    Attributes:
        n: number of vertices.
        edges: edge list as (u, v) pairs, edge id = list position.
        adjacency: per vertex, tuple of (neighbour, edge_id) in edge order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of the edge joining u and v, or None if absent. O(deg u)."""
        for w, eid in self.adjacency[u]:
            if w == v:
                return eid
        return None


def build_graph(n: int, edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Graph:
    """Validate an edge list and freeze it into a Graph.

    Rejects a negative n, then self loops, duplicate edges (in either
    orientation) and endpoint ids outside ``0..n-1``, whose error names the
    offending position.
    """
    if n < 0:
        raise SizeTooSmallError(f"vertex count must be >= 0, got {n}")
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    frozen: list[tuple[int, int]] = []
    for pos, (u, v) in enumerate(edges):
        if not (0 <= u < n):
            raise VertexOutOfRangeError(pos, u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(pos, v, n)
        if u == v:
            raise SelfLoopError(pos, u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(pos, (u, v))
        seen.add(key)
        adjacency[u].append((v, pos))
        adjacency[v].append((u, pos))
        frozen.append((u, v))
    return Graph(n=n, edges=tuple(frozen), adjacency=tuple(tuple(a) for a in adjacency))


def compact(edges: list[tuple[int, int]]) -> Graph:
    """The graph on the vertices the edges touch, renumbered in ascending
    order; edge ids and orientations follow the list."""
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    return build_graph(len(used), [(remap[u], remap[v]) for u, v in edges])


@dataclass(frozen=True)
class Bipartition:
    """Two-sided vertex labelling; side[v] is "X" or "Y"."""

    side: tuple[str, ...]

    def x_vertices(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == "X"]

    def y_vertices(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == "Y"]


@dataclass(frozen=True)
class OddCycle:
    """Witness of non-bipartiteness: an odd closed vertex sequence.

    Consecutive vertices are adjacent and the last is adjacent to the first.
    """

    vertices: tuple[int, ...]


def bipartition(g: Graph) -> Bipartition | OddCycle:
    """Two-color g by BFS, or return an odd cycle if that is impossible.

    Deterministic: each component is explored from its smallest vertex,
    which is labelled X; neighbours are visited in ascending id order.
    Isolated vertices therefore land on side X.
    """
    side: list[str | None] = [None] * g.n
    parent: list[int] = [-1] * g.n
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = "X"
        queue = [root]
        for u in queue:
            for v, _ in sorted(g.adjacency[u]):
                if side[v] is None:
                    side[v] = "Y" if side[u] == "X" else "X"
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u]:
                    return OddCycle(vertices=_close_cycle(u, v, parent))
    return Bipartition(side=tuple(side))


def _close_cycle(u: int, v: int, parent: list[int]) -> tuple[int, ...]:
    # Walk both endpoints up the BFS tree to their lowest common ancestor;
    # the two tree paths plus the edge uv form an odd cycle.
    up_u: list[int] = [u]
    up_v: list[int] = [v]
    # BFS puts an edge's ends at most one level apart and sides alternate by
    # level, so same-side u and v sit at equal depth and climb in lockstep.
    while up_u[-1] != up_v[-1]:
        up_u.append(parent[up_u[-1]])
        up_v.append(parent[up_v[-1]])
    # up_u ends at the LCA; attach the v-side path in reverse, LCA excluded.
    return tuple(up_u + up_v[-2::-1])


def reach(adjacency: Sequence[Sequence[tuple[int, int]]], root: int,
          seen: list[bool]) -> list[int]:
    """The vertices of root's component not yet marked in seen, root first,
    found breadth-first with each adjacency list read in its own order;
    each is marked in seen as it is found."""
    seen[root] = True
    found = [root]
    for u in found:
        for v, _ in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                found.append(v)
    return found


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    seen = [False] * g.n
    return [tuple(sorted(reach(g.adjacency, root, seen))) for root in range(g.n) if not seen[root]]


def has_isolated_vertex(g: Graph) -> bool:
    return any(len(a) == 0 for a in g.adjacency)


def require_no_isolated(g: Graph) -> None:
    """Raise IsolatedVertexError naming the smallest isolated vertex, if any."""
    for v in range(g.n):
        if g.degree(v) == 0:
            raise IsolatedVertexError(v)


def read_int_table(text: str, name: str, header: str, count_at: int, unit: str, row: str,
                   fields: str) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """Read a two-integer header, whose field ``count_at`` counts the rows,
    then those rows of two integers each; ``#`` lines and blank lines are
    skipped. The strings name the format's parts in FormatError messages.
    Rows are parsed lazily, so a caller's per-row checks keep their place
    in the error order."""
    rows = [line.split() for line in (raw.strip() for raw in text.splitlines())
            if line and not line.startswith("#")]
    if not rows:
        raise FormatError(f"empty {name} input")
    head = _int_pair(rows[0], "header", header)
    if len(rows) - 1 != head[count_at]:
        raise FormatError(f"header promises {head[count_at]} {unit}, found {len(rows) - 1}")
    return head[0], head[1], (_int_pair(r, row, fields) for r in rows[1:])


def _int_pair(tokens: list[str], what: str, fields: str) -> tuple[int, int]:
    if len(tokens) != 2:
        raise FormatError(f"{what} must be '{fields}', got {' '.join(tokens)!r}")
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise FormatError(f"{what} must be two integers, got {' '.join(tokens)!r}") from exc


def parse_edge_list(text: str) -> Graph:
    """Read the plain edge-list format.

    First non-comment line is ``n m``, followed by m lines ``u v``.
    Lines starting with ``#`` and blank lines are ignored. m edges touch at
    most 2m vertices, so n may exceed 2m by at most 65536 isolated vertices;
    a larger n is rejected before any adjacency list is allocated.
    """
    n, m, rows = read_int_table(text, "edge list", "n m", 1, "edges", "edge line", "u v")
    if n > 2 * m + 65536:
        raise FormatError(f"header promises {n} vertices for {m} edges, over 2*m + 65536")
    return build_graph(n, list(rows))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
