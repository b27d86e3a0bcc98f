"""Deterministic graph families and seeded random instances.

Random draws come from an explicit splitmix-style 64-bit mixer (below and in
the README) instead of Python's ``random`` so that a seed pins down the same
instance in any language:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Family constructors emit edges in lexicographic order by endpoint pair, so
equal parameters always give byte-identical graphs.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import EnumerationTooLargeError, ProbabilityOutOfRangeError, SizeTooSmallError
from .graph import Graph, _index, build_graph, compact

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

TREE_ENUMERATION_LIMIT = 9


class SplitMix64:
    """The 64-bit mixing generator documented in the module docstring."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform draw from 0..n-1, rejection sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError(f"need a positive range, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_bool(self, p: float) -> bool:
        """True with probability p (p scaled to a 64-bit threshold)."""
        return self.next_u64() < int(p * float(1 << 64))


def complete_bipartite(nx: int, ny: int) -> Graph:
    """K_{nx,ny}: side X is 0..nx-1, side Y is nx..nx+ny-1."""
    if nx < 1 or ny < 1:
        raise SizeTooSmallError(f"complete bipartite needs both sides >= 1, got {nx}, {ny}")
    edges = [(x, nx + y) for x in range(nx) for y in range(ny)]
    return build_graph(nx + ny, edges)


def complete(n: int) -> Graph:
    if n < 1:
        raise SizeTooSmallError(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    """C_n with edges (0,1), (1,2), ..., (n-1,0)."""
    if n < 3:
        raise SizeTooSmallError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 2:
        raise SizeTooSmallError(f"path needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star on n vertices: centre 0 joined to 1..n-1."""
    if n < 2:
        raise SizeTooSmallError(f"star needs n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def _require_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
        raise ProbabilityOutOfRangeError(p)


def random_bipartite(nx: int, ny: int, p: float, seed: int) -> Graph:
    """Each of the nx*ny cross pairs is kept with probability p.

    Isolated vertices are removed and ids compacted, so the result can be
    smaller than nx+ny (or empty). Same seed, same graph, byte for byte.
    """
    if nx < 1 or ny < 1:
        raise SizeTooSmallError(f"random bipartite needs both sides >= 1, got {nx}, {ny}")
    _require_probability(p)
    rng = SplitMix64(seed)
    edges = [
        (x, nx + y)
        for x in range(nx)
        for y in range(ny)
        if rng.next_bool(p)
    ]
    return compact(edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style draw over all vertex pairs, isolated vertices removed."""
    if n < 1:
        raise SizeTooSmallError(f"random graph needs n >= 1, got {n}")
    _require_probability(p)
    rng = SplitMix64(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.next_bool(p)]
    return compact(edges)


def _decode_prufer(n: int, seq: tuple[int, ...]) -> list[int]:
    # Classic decode: repeatedly join the smallest remaining leaf to the next
    # sequence entry, and the last leaf to n - 1, which is never the smallest
    # leaf. Guarantees a bijection with labelled trees. Returns the leaves in
    # that order: leaf i is joined to (seq + (n - 1,))[i]; the n - 1 edges are
    # distinct and in range, so they need no build_graph. Linear time: a
    # pointer only moves up, since the next leaf is the vertex just freed when
    # it is below the pointer, else the next degree-1 vertex past it.
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    ptr = leaf = degree.index(1)
    leaves = []
    for a in seq:
        leaves.append(leaf)
        degree[a] -= 1
        if degree[a] == 1 and a < ptr:
            leaf = a
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    leaves.append(leaf)
    return leaves


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labelled tree on n vertices via a seeded sequence draw."""
    if n < 2:
        raise SizeTooSmallError(f"tree needs n >= 2, got {n}")
    rng = SplitMix64(seed)
    seq = tuple(rng.next_below(n) for _ in range(n - 2))
    ends = zip(_decode_prufer(n, seq), seq + (n - 1,))
    return _index(n, sorted((min(u, v), max(u, v)) for u, v in ends))


def all_labeled_trees(n: int) -> Iterator[tuple[tuple[int, ...], Graph]]:
    """Yield (sequence, tree) for every labelled tree on n vertices.

    There are n^(n-2) of them; enumeration is capped at n <= 9. The trees of
    one call share their immutable parts: each edge pair, and each
    per-vertex neighbour or edge-id tuple, is one object for all of them.
    """
    if n < 2:
        raise SizeTooSmallError(f"tree needs n >= 2, got {n}")
    if n > TREE_ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(n, TREE_ENUMERATION_LIMIT)
    # bits[mask]: the set bits of mask, ascending; pair[u][v]: the edge (min, max).
    bits = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    pair: list[list[tuple[int, int]]] = [[(0, 0)] * n for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        pair[u][v] = pair[v][u] = (u, v)
    last = (n - 1,)
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = sorted([pair[leaf][a] for leaf, a in zip(_decode_prufer(n, seq), seq + last)])
        # Sorted edges list each vertex's neighbours ascending, in edge-id
        # order, so a vertex's neighbours and edge ids are two bit masks.
        near = [0] * n
        ids = [0] * n
        for pos, (u, v) in enumerate(edges):
            near[u] |= 1 << v
            near[v] |= 1 << u
            ids[u] |= 1 << pos
            ids[v] |= 1 << pos
        yield seq, Graph(n=n, edges=tuple(edges), neighbours=tuple(map(bits.__getitem__, near)),
                         incident=tuple(map(bits.__getitem__, ids)))
