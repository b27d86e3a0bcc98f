"""Partial edge colorings and the conflict-free satisfaction verifier.

An edge uv is *satisfied* when some color appears on exactly one colored
edge of its closed edge neighbourhood: all edges incident to u or to v,
including uv itself. A coloring (total or partial) is conflict-free when
every edge of the graph is satisfied.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import not_

from .errors import EdgeOutOfRangeError, FormatError, SizeMismatchError
from .graph import Graph, read_int_table

UNCOLORED = 0
# Largest color verify_cf checks with per-vertex bit masks: bit 0 (uncolored)
# plus one bit per color keeps every mask within a signed 64-bit word.
MASK_WIDTH = 62


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
        if self.colors and not (0 <= min(self.colors) and max(self.colors) <= self.k):
            eid, c = next((e, c) for e, c in enumerate(self.colors) if not 0 <= c <= self.k)
            raise ValueError(f"edge {eid} has color {c} outside 0..{self.k}")

    def is_total(self) -> bool:
        return all(c != UNCOLORED for c in self.colors)


@dataclass(frozen=True)
class SatisfactionReport:
    """Outcome of verifying a coloring edge by edge.

    ``witness[e]`` is the smallest color that appears exactly once in the
    colored closed neighbourhood of e; edges without such a color are listed
    in ``unsatisfied``. Together they cover every edge exactly once.
    ``witness`` is a read-only mapping in ascending edge id that compares
    and prints like a dict, whichever way verify_cf checked the coloring; on
    its bit-mask path the entries are built on first read, so a caller that
    reads only ``unsatisfied`` never pays for them.
    """

    unsatisfied: tuple[int, ...]
    witness: Mapping[int, int] = field(hash=False)

    def conflict_free(self) -> bool:
        return not self.unsatisfied


class _Witness(Mapping[int, int]):
    # verify_cf's witness, read-only on either side of MASK_WIDTH: the dict
    # path gives its dict whole; the mask path gives its per-edge masks, and
    # edge e maps to the lowest set bit of found[e] when found[e] is nonzero,
    # decoded into a dict on first read and kept.
    __slots__ = ("_found", "_dict")

    def __init__(self, found: list[int], decoded: dict[int, int] | None = None) -> None:
        self._found = found
        self._dict = decoded

    def _decoded(self) -> dict[int, int]:
        if self._dict is None:
            self._dict = {e: (w & -w).bit_length() - 1 for e, w in enumerate(self._found) if w}
        return self._dict

    def __getitem__(self, e: int) -> int:
        return self._decoded()[e]

    def __iter__(self) -> Iterator[int]:
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded())

    def __eq__(self, other: object) -> bool:
        return self._decoded() == other if isinstance(other, Mapping) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._decoded())


def closed_neighborhood(g: Graph, e: int) -> list[int]:
    """Sorted edge ids incident to either endpoint of e (e included)."""
    if not (0 <= e < g.m):
        raise EdgeOutOfRangeError(e, g.m)
    u, v = g.edges[e]
    ids = set(g.incident[u])
    ids.update(g.incident[v])
    return sorted(ids)


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


def verify_cf(g: Graph, c: EdgeColoring) -> SatisfactionReport:
    """Check every edge of g against c.

    While the largest color is at most MASK_WIDTH, one pass over the edges
    gives each vertex v two bit masks: present[v] has bit x when color x is
    on an edge at v, twice[v] when it is on two or more. once[v] is
    present[v] & ~twice[v] without bit 0 (uncolored). Color x is then seen
    exactly once around uv when it is once at one end and absent at the
    other, or when it is uv's own color and once at both ends (uv is the one
    edge they share): unique_color's rule count_u[x] + count_v[x] - [x = own]
    = 1 in bit form, and the witness is the lowest bit that rule leaves. This
    costs O(n + m) operations on ints of at most 63 bits; the witness keeps
    the masks and decodes them into its entries only when first read.

    A larger color would make the masks as wide as the color itself, and a
    coloring may carry colors near 10**9. Such a coloring keeps its counts
    in per-vertex dicts and checks each edge through unique_color instead,
    in O(sum over edges of deg(u) + deg(v)) time and memory linear in the
    input. On either path the witness is a read-only mapping.
    """
    return _verify_edges(g.n, g.edges, c.colors)


def _verify_edges(n: int, edges: Sequence[tuple[int, int]],
                  colors: Sequence[int]) -> SatisfactionReport:
    # verify_cf on a graph's vertex count and edge list, which must be valid:
    # the checks read no neighbour lists.
    if len(colors) != len(edges):
        raise SizeMismatchError(len(edges), len(colors))
    if max(colors, default=UNCOLORED) > MASK_WIDTH:
        per_vertex: list[dict[int, int]] = [{} for _ in range(n)]
        for (u, v), col in zip(edges, colors):
            if col != UNCOLORED:
                per_vertex[u][col] = per_vertex[u].get(col, 0) + 1
                per_vertex[v][col] = per_vertex[v].get(col, 0) + 1
        unsatisfied: list[int] = []
        witness: dict[int, int] = {}
        for eid, (u, v) in enumerate(edges):
            best = unique_color(per_vertex[u], per_vertex[v], colors[eid])
            if best is None:
                unsatisfied.append(eid)
            else:
                witness[eid] = best
        return SatisfactionReport(unsatisfied=tuple(unsatisfied), witness=_Witness([], witness))
    bits = [1 << x for x in colors]
    present = [0] * n
    twice = [0] * n
    for (u, v), b in zip(edges, bits):
        twice[u] |= present[u] & b
        present[u] |= b
        twice[v] |= present[v] & b
        present[v] |= b
    once = [p & ~(t | 1) for p, t in zip(present, twice)]
    found = [(once[u] & ~present[v]) | (once[v] & ~present[u]) | (once[u] & once[v] & b)
             for (u, v), b in zip(edges, bits)]
    return SatisfactionReport(
        unsatisfied=() if all(found) else tuple(compress(range(len(edges)), map(not_, found))),
        witness=_Witness(found))


def colors_used(c: EdgeColoring) -> int:
    """Number of distinct colors actually assigned."""
    return len(set(c.colors) - {UNCOLORED})


def parse_coloring(text: str) -> EdgeColoring:
    """Read the coloring format: header ``m k`` then m lines ``edge_id color``.

    Edge ids must be exhaustive and ascending; color 0 marks uncolored.
    Canonical text whose rows all pass is accepted by bulk checks of its
    id and color columns; otherwise the rows are checked one by one, and
    the first bad row raises.
    """
    m, k, rows, columns = read_int_table(
        text, "coloring", "m k", 0, "entries", "entry", "edge_id color")
    if k < 0:
        raise FormatError(f"palette size must be >= 0, got {k}")
    if columns is not None:
        ids, colors = columns
        if ids == list(range(m)) and (not colors or 0 <= min(colors) and max(colors) <= k):
            return EdgeColoring(k=k, colors=tuple(colors))
    colors = []
    for expect, (eid, col) in enumerate(rows):
        if eid != expect:
            raise FormatError(f"edge ids must be 0..{m - 1} in order, got {eid} at line {expect}")
        if not (0 <= col <= k):
            raise FormatError(f"edge {eid} has color {col} outside 0..{k}")
        colors.append(col)
    return EdgeColoring(k=k, colors=tuple(colors))


def format_coloring(c: EdgeColoring) -> str:
    # one % over the flat header-and-(id, color) sequence: no string per line
    m = len(c.colors)
    return ("%s %s\n" * (m + 1)) % (m, c.k, *chain.from_iterable(zip(range(m), c.colors)))
