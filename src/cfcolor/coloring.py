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
    and prints like a dict, whichever way verify_cf checked the coloring;
    its entries are built on first read, so a caller that reads only
    ``unsatisfied`` never pays for them.
    """

    unsatisfied: tuple[int, ...]
    witness: Mapping[int, int] = field(hash=False)

    def conflict_free(self) -> bool:
        return not self.unsatisfied


class _Witness(Mapping[int, int]):
    # verify_cf's witness, read-only on either side of MASK_WIDTH, built from
    # its per-edge list found: edge e maps to found[e] when that is nonzero,
    # as is on the wide path and by its lowest set bit on the mask path,
    # decoded into a dict on first read and kept.
    __slots__ = ("_found", "_wide", "_dict")

    def __init__(self, found: list[int], wide: bool) -> None:
        self._found = found
        self._wide = wide
        self._dict: dict[int, int] | None = None

    def _decoded(self) -> dict[int, int]:
        if self._dict is None:
            self._dict = ({e: w for e, w in enumerate(self._found) if w} if self._wide else
                          {e: (w & -w).bit_length() - 1 for e, w in enumerate(self._found) if w})
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
    return [f for f, pair in enumerate(g.edges) if u in pair or v in pair]


def unique_color(count_u: Sequence[int], count_v: Sequence[int], own: int,
                 palette: Iterable[int]) -> int | None:
    """Smallest color of the palette seen exactly once around edge uv, or None.

    count_u and count_v, indexed by color, count the colors of the colored
    edges at u and at v; own is the color of uv (UNCOLORED if none). Color x
    appears count_u[x] + count_v[x] times around uv, minus one if uv carries
    x: uv is the only edge incident to both endpoints. Only the palette's
    colors are read: it must be ascending and include every color on the
    edges around uv.
    """
    for col in palette:
        if count_u[col] + count_v[col] - (col == own) == 1:
            return col
    return None


def verify_cf(g: Graph, c: EdgeColoring) -> SatisfactionReport:
    """Check every edge of g against c.

    While the largest color is at most MASK_WIDTH, one pass over the edges
    gives each vertex v two bit masks: present[v] has bit x when color x is
    on an edge at v, twice[v] when it is on two or more. once[v] is
    present[v] & ~twice[v] without bit 0 (uncolored). Color x is then seen
    exactly once around uv when it is once at one end and absent at the
    other, or when it is uv's own color and once at both ends (uv is the one
    edge they share): unique_color's rule count_u[x] + count_v[x] - [x = own]
    = 1 in bit form. Each edge gets the mask of such colors, in O(n + m)
    operations on ints of at most 63 bits; its witness is the lowest bit.

    A larger color would make the masks as wide as the color itself, and a
    coloring may carry colors near 10**9. Such a coloring keeps per-vertex
    count dicts and each vertex's ascending list of once-seen colors. The
    candidates of edge uv are the first color in u's list absent at v, the
    mirror one from v's list, and uv's own color when it is once at both
    ends; each scan stops within deg(other end) + 1 steps, since every color
    it passes is on an edge at the other end. Either way an edge's entry is
    nonzero exactly when it is satisfied; the witness, a read-only mapping,
    decodes them on first read.
    """
    return _verify_edges(g.n, g.edges, c.colors)


def _verify_edges(n: int, edges: Sequence[tuple[int, int]],
                  colors: Sequence[int]) -> SatisfactionReport:
    # verify_cf on a graph's vertex count and edge list, which must be valid:
    # the checks read no neighbour lists.
    if len(colors) != len(edges):
        raise SizeMismatchError(len(edges), len(colors))
    wide = max(colors, default=UNCOLORED) > MASK_WIDTH
    if wide:
        count: list[dict[int, int]] = [{} for _ in range(n)]
        for (u, v), col in zip(edges, colors):
            if col != UNCOLORED:
                count[u][col] = count[u].get(col, 0) + 1
                count[v][col] = count[v].get(col, 0) + 1
        once_seen = [sorted([col for col, k in at.items() if k == 1]) for at in count]
        found: list[int] = []
        for (u, v), col in zip(edges, colors):
            at_u, at_v = count[u], count[v]
            best = col if col != UNCOLORED and at_u[col] == at_v[col] == 1 else 0
            for x in once_seen[u]:
                if x not in at_v:
                    if not best or x < best:
                        best = x
                    break
            for x in once_seen[v]:
                if x not in at_u:
                    if not best or x < best:
                        best = x
                    break
            found.append(best)
    else:
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
        witness=_Witness(found, wide))


def colors_used(c: EdgeColoring) -> int:
    """Number of distinct colors actually assigned."""
    return len(set(c.colors) - {UNCOLORED})


def parse_coloring(text: str) -> EdgeColoring:
    """Read the coloring format: header ``m k`` then m lines ``edge_id color``.

    Edge ids must be exhaustive and ascending; color 0 marks uncolored.
    Canonical text whose rows all pass is accepted by bulk checks of its
    id column and, in ``EdgeColoring``, its colors; otherwise the rows are
    checked one by one, and the first bad row raises.
    """
    m, k, rows, columns = read_int_table(
        text, "coloring", "m k", 0, "entries", "entry", "edge_id color")
    if k < 0:
        raise FormatError(f"palette size must be >= 0, got {k}")
    if columns is not None and columns[0] == list(range(m)):
        # EdgeColoring checks the color range; a color outside it falls
        # through to the walk, which names its row
        try:
            return EdgeColoring(k=k, colors=tuple(columns[1]))
        except ValueError:
            pass
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
