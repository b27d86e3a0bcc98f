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


def _decode_prufer(n: int, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    # Classic decode: repeatedly join the smallest remaining leaf to the next
    # sequence entry. Guarantees a bijection with labelled trees. The edges
    # are in range, have u < v and are distinct: they need no build_graph.
    import heapq

    degree = [1] * n
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, a), max(leaf, a)))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labelled tree on n vertices via a seeded sequence draw."""
    if n < 2:
        raise SizeTooSmallError(f"tree needs n >= 2, got {n}")
    rng = SplitMix64(seed)
    seq = tuple(rng.next_below(n) for _ in range(n - 2))
    return _index(n, _decode_prufer(n, seq))


def all_labeled_trees(n: int) -> Iterator[tuple[tuple[int, ...], Graph]]:
    """Yield (sequence, tree) for every labelled tree on n vertices.

    There are n^(n-2) of them; enumeration is capped at n <= 9.
    """
    if n < 2:
        raise SizeTooSmallError(f"tree needs n >= 2, got {n}")
    if n > TREE_ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(n, TREE_ENUMERATION_LIMIT)
    for seq in itertools.product(range(n), repeat=n - 2):
        yield seq, _index(n, _decode_prufer(n, seq))
