"""Partial edge colorings and the conflict-free satisfaction verifier.

An edge uv is *satisfied* when some color appears on exactly one colored
edge of its closed edge neighbourhood: all edges incident to u or to v,
including uv itself. A coloring (total or partial) is conflict-free when
every edge of the graph is satisfied.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import EdgeOutOfRangeError, FormatError, SizeMismatchError
from .graph import Graph, read_int_table

UNCOLORED = 0


@dataclass(frozen=True)
class EdgeColoring:
    """Per-edge color assignment; color 0 means uncolored.

    Attributes:
        k: size of the palette, assigned colors lie in 1..k.
        colors: color of each edge id, 0 for uncolored.
    """

    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"palette size must be >= 0, got {self.k}")
        for eid, c in enumerate(self.colors):
            if not (0 <= c <= self.k):
                raise ValueError(f"edge {eid} has color {c} outside 0..{self.k}")

    def is_total(self) -> bool:
        return all(c != UNCOLORED for c in self.colors)


@dataclass(frozen=True)
class SatisfactionReport:
    """Outcome of verifying a coloring edge by edge.

    ``witness[e]`` is the smallest color that appears exactly once in the
    colored closed neighbourhood of e; edges without such a color are listed
    in ``unsatisfied``. Together they cover every edge exactly once.
    """

    unsatisfied: tuple[int, ...]
    witness: dict[int, int] = field(hash=False)

    def conflict_free(self) -> bool:
        return not self.unsatisfied


def closed_neighborhood(g: Graph, e: int) -> list[int]:
    """Sorted edge ids incident to either endpoint of e (e included)."""
    if not (0 <= e < g.m):
        raise EdgeOutOfRangeError(e, g.m)
    u, v = g.edges[e]
    ids = {eid for _, eid in g.adjacency[u]}
    ids.update(eid for _, eid in g.adjacency[v])
    return sorted(ids)


def _check_sizes(g: Graph, c: EdgeColoring) -> None:
    if len(c.colors) != g.m:
        raise SizeMismatchError(g.m, len(c.colors))


def unique_color(count_u: Mapping[int, int] | Sequence[int],
                 count_v: Mapping[int, int] | Sequence[int],
                 own: int, palette: Iterable[int] | None = None) -> int | None:
    """Smallest color seen exactly once around edge uv, or None.

    count_u and count_v count the colors of the colored edges at u and at v;
    own is the color of uv (UNCOLORED if none). Color x appears
    count_u[x] + count_v[x] times around uv, minus one if uv carries x: uv
    is the only edge incident to both endpoints.

    Without a palette the counts are dicts holding only the colors present.
    With one, they are indexed by color and only the palette's colors are
    read: it must be ascending and include every color on the edges around
    uv.
    """
    if palette is not None:
        for col in palette:
            if count_u[col] + count_v[col] - (col == own) == 1:
                return col
        return None
    best: int | None = None
    for col, cnt in count_u.items():
        if cnt + count_v.get(col, 0) - (col == own) == 1 and (best is None or col < best):
            best = col
    for col, cnt in count_v.items():
        if col not in count_u and cnt - (col == own) == 1 and (best is None or col < best):
            best = col
    return best


def _vertex_counts(g: Graph, colors: tuple[int, ...], v: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _, eid in g.adjacency[v]:
        col = colors[eid]
        if col != UNCOLORED:
            counts[col] = counts.get(col, 0) + 1
    return counts


def is_satisfied(g: Graph, c: EdgeColoring, e: int) -> bool:
    """Does some color appear exactly once among colored edges around e?"""
    _check_sizes(g, c)
    if not (0 <= e < g.m):
        raise EdgeOutOfRangeError(e, g.m)
    u, v = g.edges[e]
    count_u = _vertex_counts(g, c.colors, u)
    count_v = _vertex_counts(g, c.colors, v)
    return unique_color(count_u, count_v, c.colors[e]) is not None


def verify_cf(g: Graph, c: EdgeColoring) -> SatisfactionReport:
    """Check every edge of g against c.

    Runs in O(sum over edges of deg(u) + deg(v)): the color counts of each
    vertex are taken once and every edge reads those of its two endpoints.
    """
    _check_sizes(g, c)
    per_vertex: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for (u, v), col in zip(g.edges, c.colors):
        if col == UNCOLORED:
            continue
        per_vertex[u][col] = per_vertex[u].get(col, 0) + 1
        per_vertex[v][col] = per_vertex[v].get(col, 0) + 1
    unsatisfied: list[int] = []
    witness: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges):
        best = unique_color(per_vertex[u], per_vertex[v], c.colors[eid])
        if best is None:
            unsatisfied.append(eid)
        else:
            witness[eid] = best
    return SatisfactionReport(unsatisfied=tuple(unsatisfied), witness=witness)


def colors_used(c: EdgeColoring) -> int:
    """Number of distinct colors actually assigned."""
    return len({x for x in c.colors if x != UNCOLORED})


def parse_coloring(text: str) -> EdgeColoring:
    """Read the coloring format: header ``m k`` then m lines ``edge_id color``.

    Edge ids must be exhaustive and ascending; color 0 marks uncolored.
    """
    m, k, rows = read_int_table(
        text, "coloring", "m k", 0, "entries", "entry", "edge_id color")
    if k < 0:
        raise FormatError(f"palette size must be >= 0, got {k}")
    colors: list[int] = []
    for expect, (eid, col) in enumerate(rows):
        if eid != expect:
            raise FormatError(f"edge ids must be 0..{m - 1} in order, got {eid} at line {expect}")
        if not (0 <= col <= k):
            raise FormatError(f"edge {eid} has color {col} outside 0..{k}")
        colors.append(col)
    return EdgeColoring(k=k, colors=tuple(colors))


def format_coloring(c: EdgeColoring) -> str:
    lines = [f"{len(c.colors)} {c.k}"]
    lines.extend(f"{eid} {col}" for eid, col in enumerate(c.colors))
    return "\n".join(lines) + "\n"
