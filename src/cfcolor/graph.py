"""Immutable simple graphs with stable edge ids, plus bipartition testing.

Vertices are ``0..n-1``. Edges keep the order in which they were given and
are addressed everywhere by their position in that list (the edge id).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import eq, index
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    FormatError,
    IsolatedVertexError,
    SelfLoopError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph.

    Attributes:
        n: number of vertices.
        edges: edge list as (u, v) pairs, edge id = list position.
        neighbours: per vertex, tuple of neighbour ids in ascending edge id.
        incident: per vertex, tuple of the ids of the edges to those
            neighbours, parallel to ``neighbours``.

    All parts are immutable, so a pair or a per-vertex tuple may be one
    object shared between graphs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbours: tuple[tuple[int, ...], ...]
    incident: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbours[v])


def build_graph(n: int, edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Graph:
    """Validate an edge list and freeze it into a Graph.

    Rejects a negative n, then, at the first offending position, an edge
    that is not a pair of integers, a self loop, a duplicate edge (in either
    orientation) or an endpoint id outside ``0..n-1``; the error names the
    position.
    """
    return _index(n, _check_edges(n, edges))


def _check_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    # build_graph's rules, walked position by position: raise the first
    # error, or return the edges as tuples.
    if n < 0:
        raise SizeTooSmallError(f"vertex count must be >= 0, got {n}")
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for pos, e in enumerate(edges):
        try:
            pair = tuple(e)
            u, v = pair
            index(u), index(v)
        except (TypeError, ValueError):
            raise FormatError(f"edge {pos} is not a pair of integers: {e!r}") from None
        if not (0 <= u < n):
            raise VertexOutOfRangeError(pos, u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(pos, v, n)
        if u == v:
            raise SelfLoopError(pos, u)
        # An edge given as (u, v) with u < v is its own key: no new tuple.
        key = pair if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(pos, (u, v))
        seen.add(key)
        pairs.append(pair)
    return pairs


def _index(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    # The Graph of a checked edge list: each edge joins both ends' lists.
    neighbours: list[list[int]] = [[] for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for pos, (u, v) in enumerate(edges):
        neighbours[u].append(v)
        incident[u].append(pos)
        neighbours[v].append(u)
        incident[v].append(pos)
    return Graph(n=n, edges=tuple(edges), neighbours=tuple(map(tuple, neighbours)),
                 incident=tuple(map(tuple, incident)))


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
    """Two-color g, or return an odd cycle if that is impossible.

    Each component is walked breadth-first from its smallest vertex, which
    is labelled X, reading each neighbour tuple in its own order. In a
    bipartite component a vertex's side is the parity of its distance from
    that smallest vertex (X when even), and no visiting order changes a
    distance, so the sides are deterministic. Isolated vertices land on
    side X.

    Only when the walk meets an edge with both ends on one side is that
    component searched again, with neighbours in ascending id order; the
    first same-side edge of that search closes the OddCycle, so the witness
    too depends on the graph alone.
    """
    neighbours = g.neighbours
    side: list[str | None] = [None] * g.n
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = "X"
        queue = [root]
        for u in queue:
            su = side[u]
            other = "Y" if su == "X" else "X"
            for v in neighbours[u]:
                sv = side[v]
                if sv is None:
                    side[v] = other
                    queue.append(v)
                elif sv == su:
                    return _odd_cycle(g, root)
    return Bipartition(side=tuple(side))


def _odd_cycle(g: Graph, root: int) -> OddCycle:
    # Breadth-first search of root's component, which is not bipartite,
    # reading each vertex's neighbours in ascending id order as it is
    # reached; it stops at the first (u, v) pair whose ends share a depth
    # parity, so it sorts no list past that pair.
    neighbours = g.neighbours
    parent = [-1] * g.n
    parity = [0] * g.n
    parent[root] = root
    queue = [root]
    # one flat loop over the (u, v) pairs the search reads, so that the
    # break leaves the same-parity pair in u and v
    for u, v in ((u, v) for u in queue for v in sorted(neighbours[u])):
        if parent[v] < 0:
            parent[v] = u
            parity[v] = parity[u] ^ 1
            queue.append(v)
        elif parity[v] == parity[u]:
            break
    return OddCycle(vertices=_close_cycle(u, v, parent))


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


def reach(neighbours: Sequence[Sequence[int]], root: int, parent: list[int]) -> list[int]:
    """The vertices of root's component whose parent entry is still -1, root
    first, found breadth-first with each neighbour list read in its own
    order. Sets parent[root] = root and parent[v] = u for the vertex u that v
    is found from, so the vertices found from each u form one block of the
    result, in u's list order, and the blocks follow the result's order."""
    parent[root] = root
    found = [root]
    for u in found:
        for v in neighbours[u]:
            if parent[v] < 0:
                parent[v] = u
                found.append(v)
    return found


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    parent = [-1] * g.n
    return [tuple(sorted(reach(g.neighbours, root, parent)))
            for root in range(g.n) if parent[root] < 0]


def require_no_isolated(g: Graph) -> None:
    """Raise IsolatedVertexError naming the smallest isolated vertex, if any."""
    _require_no_isolated(g.neighbours)


def _require_no_isolated(neighbours: Sequence[Sequence[int]]) -> None:
    # require_no_isolated on bare neighbour lists or tuples
    if not all(neighbours):
        raise IsolatedVertexError(next(v for v, a in enumerate(neighbours) if not a))


def read_int_table(text: str, name: str, header: str, count_at: int, unit: str, row: str,
                   fields: str) -> tuple[int, int, Iterator[tuple[int, int]],
                                         tuple[list[int], list[int]] | None]:
    """Read a two-integer header, whose field ``count_at`` counts the rows,
    then those rows of two integers each; ``#`` lines and blank lines are
    skipped. The strings name the format's parts in FormatError messages.
    Canonical text as the format functions write it (ASCII, each line two
    JSON integers and one " ", a header counting the rows) is read in one
    bulk pass that no row can fail, so a caller's per-row checks keep their
    order, and its two columns come back as lists for a caller's bulk checks
    (None for other text). Other text goes line by line, lazily, so each
    error is raised at its row."""
    ints = _canonical_ints(text)
    if ints is not None and len(ints) // 2 - 1 == ints[count_at]:
        firsts, seconds = ints[2::2], ints[3::2]
        return ints[0], ints[1], zip(firsts, seconds), (firsts, seconds)
    rows = [r for r in map(str.split, text.splitlines()) if r and not r[0].startswith("#")]
    if not rows:
        raise FormatError(f"empty {name} input")
    head = _int_pair(rows[0], "header", header)
    if len(rows) - 1 != head[count_at]:
        raise FormatError(f"header promises {head[count_at]} {unit}, found {len(rows) - 1}")
    return head[0], head[1], (_int_pair(r, row, fields) for r in rows[1:]), None


_TO_LF = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)  # ASCII line breaks
_TO_COMMA = bytes.maketrans(b" \n", b",,")


def _canonical_ints(text: str) -> list[int] | None:
    # With each ASCII line break made one "\n" and a last one added if
    # missing, deleting the digits and "-" must leave " \n" per line: then
    # the text holds nothing else, and every line has one space. Made one
    # JSON array by turning spaces and breaks into commas, it is read by
    # json's scanner (C code in CPython), which refuses an empty token (so
    # each line is exactly "a b") and any token outside JSON's integer
    # grammar -?(0|[1-9][0-9]*), such as "007", "-" or one over the
    # int-digit limit.
    try:
        raw = text.encode("ascii")
        lf = (raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw).translate(_TO_LF)
        if not lf.endswith(b"\n"):
            lf += b"\n"
        layout = lf.translate(None, b"0123456789-")
        if layout != b" \n" * (len(layout) // 2):
            return None
        return json.loads(b"[" + lf[:-1].translate(_TO_COMMA) + b"]")
    except ValueError:  # not ASCII, or a token the scanner refuses
        return None


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
    a larger n is rejected before any neighbour list is allocated.
    """
    return _index(*_read_edges(text))


def _read_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    # parse_edge_list's vertex count and edges, checked but not indexed. The
    # columns of canonical text are checked in bulk: endpoint range by min and
    # max, self loops, duplicates in either orientation by one set of pairs.
    # Other text, and text a bulk check refuses, takes build_graph's walk.
    n, m, rows, columns = read_int_table(text, "edge list", "n m", 1, "edges", "edge line", "u v")
    if n > 2 * m + 65536:
        raise FormatError(f"header promises {n} vertices for {m} edges, over 2*m + 65536")
    edges = list(rows)
    if columns is not None:
        us, vs = columns
        pairs = set(edges)
        if (0 <= n and (not m or 0 <= min(min(us), min(vs)) and max(max(us), max(vs)) < n)
                and not any(map(eq, us, vs))
                and len(pairs) == m and pairs.isdisjoint(zip(vs, us))):
            return n, edges
    _check_edges(n, edges)
    return n, edges


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
