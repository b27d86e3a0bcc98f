"""Conflict-free colorings of bipartite graphs via dominating-set certificates.

A minimal Y-dominating set D inside X has a private neighbour for each of
its members, which yields a matching M covering D. Each Y vertex colors
the edge to its smallest D-neighbour: color 1 if that edge is in M, else
color 2. This satisfies every edge while leaving most edges uncolored;
filling the rest with a third color gives a total conflict-free coloring.
So bipartite graphs need at most 2 colors partially and 3 totally.

One core, ``_dominate``, runs the construction on adjacency lists and side
flags. Functions given a Bipartition check it and wrap the core; those that
build the sides (``bipartite_cf_coloring``, ``general``'s levels) call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .coloring import UNCOLORED, EdgeColoring, verify_cf
from .errors import IsolatedYVertexError, NotBipartiteError, PartialNotSatisfyingError
from .graph import Bipartition, Graph, OddCycle, bipartition, require_no_isolated


@dataclass(frozen=True)
class DominationCertificate:
    """Checkable evidence behind the two-color construction.

    Attributes:
        dominating: minimal Y-dominating set D, sorted, subset of side X.
        private: for each x in D, the Y vertices whose only D-neighbour is x.
        matching: edge ids matching each x in D to one private neighbour.
    """

    dominating: tuple[int, ...]
    private: dict[int, tuple[int, ...]] = field(hash=False)
    matching: tuple[int, ...]


def _validate_sides(g: Graph, b: Bipartition) -> None:
    if len(b.side) != g.n or not set(b.side) <= {"X", "Y"}:
        raise NotBipartiteError()
    for u, v in g.edges:
        if b.side[u] == b.side[v]:
            raise NotBipartiteError()


def _dominate(
    adjacency: Sequence[Sequence[tuple[int, int]]], is_x: list[bool], colors: list[int], base: int
) -> DominationCertificate:
    """The construction on index arrays, unchecked: adjacency[v] holds v's
    (neighbour, edge id) pairs in ascending edge id, is_x[v] names v's side,
    and every edge joins the sides. Each Y vertex with a neighbour sets
    colors[eid] = base + 1 or base + 2 on the edge to its smallest
    D-neighbour. Returns the certificate of D.

    Deterministic: start from every X vertex with a neighbour, then scan
    once in ascending id order dropping any vertex whose removal keeps Y
    dominated. Each x then keeps a private neighbour (else it would have
    been dropped), and matching x to its smallest private neighbour is a
    matching since private sets are disjoint.

    One walk of D in ascending id then reads off the rest, first come,
    first served: the first member of D to reach y is y's smallest
    D-neighbour, and its edge is the one y colors. A y of cover 1 is
    reached by its owner alone, so x's private neighbours are exactly the
    y of cover 1 among those that x is the first to reach.
    """
    in_d = [x and bool(a) for x, a in zip(is_x, adjacency)]
    # cover[y] = number of D-members adjacent to y; it is read on Y only.
    # Every neighbour of y is an X vertex with a neighbour, so the starting
    # D holds all of them and y starts covered deg(y) times.
    cover = [len(a) for a in adjacency]
    # One pass suffices: an x kept at its scan has a neighbour y with
    # cover[y] == 1, and that y's only D-neighbour is x itself. Cover only
    # falls and x stays in D, so cover[y] stays 1 and a second pass would
    # keep x again; it would remove nothing.
    for x, a in enumerate(adjacency):
        if in_d[x] and all(cover[y] >= 2 for y, _ in a):
            in_d[x] = False
            for y, _ in a:
                cover[y] -= 1
    dominating = tuple(x for x, kept in enumerate(in_d) if kept)
    first = [-1] * len(adjacency)  # first[y]: the edge to y's smallest D-neighbour
    private = {}
    matching = []
    for x in dominating:
        owned = []
        for y, eid in adjacency[x]:
            if first[y] < 0:
                first[y] = eid
                colors[eid] = base + 2
                if cover[y] == 1:
                    owned.append(y)
        owned.sort()
        private[x] = tuple(owned)
        eid = first[owned[0]]
        colors[eid] = base + 1
        matching.append(eid)
    matching.sort()
    return DominationCertificate(dominating=dominating, private=private, matching=tuple(matching))


def _certified(g: Graph, b: Bipartition, colors: list[int]) -> DominationCertificate:
    _validate_sides(g, b)
    for y in b.y_vertices():
        if g.degree(y) == 0:
            raise IsolatedYVertexError(y)
    return _dominate(g.adjacency, [s == "X" for s in b.side], colors, 0)


def minimal_y_dominating_set(g: Graph, b: Bipartition) -> DominationCertificate:
    """Build a minimal set D in X dominating Y, with privates and matching.

    Checks the sides, then that no Y vertex is isolated, and runs the
    construction of ``_dominate`` (an isolated X vertex never joins D).
    """
    return _certified(g, b, [UNCOLORED] * g.m)


def check_certificate(g: Graph, b: Bipartition, cert: DominationCertificate) -> bool:
    """Re-derive every claim the certificate makes; True only if all hold.

    Checks: D lies in X and dominates all of Y; every listed private
    neighbour has exactly its owner as D-neighbour and every member of D
    owns at least one; private sets are pairwise disjoint; the matching is a
    matching of D-to-private edges covering D.
    """
    try:
        _validate_sides(g, b)
    except NotBipartiteError:
        return False
    d_set = set(cert.dominating)
    x_set = set(b.x_vertices())
    if not d_set <= x_set:
        return False
    for y in b.y_vertices():
        if not any(x in d_set for x, _ in g.adjacency[y]):
            return False
    if set(cert.private.keys()) != d_set:
        return False
    seen_private: set[int] = set()
    for x, ys in cert.private.items():
        if not ys:
            return False
        for y in ys:
            if not (0 <= y < g.n) or y in seen_private:
                return False
            if {w for w, _ in g.adjacency[y] if w in d_set} != {x}:
                return False
            seen_private.add(y)
    covered: set[int] = set()
    touched: set[int] = set()
    for eid in cert.matching:
        if not (0 <= eid < g.m):
            return False
        u, v = g.edges[eid]
        x, y = (u, v) if u in d_set else (v, u)
        if x not in d_set or y not in cert.private.get(x, ()):
            return False
        if x in touched or y in touched:
            return False
        touched.update((x, y))
        covered.add(x)
    return covered == d_set


def bipartite_scf_coloring(
    g: Graph, b: Bipartition
) -> tuple[EdgeColoring, DominationCertificate]:
    """Two-color enough edges of a bipartite graph to satisfy all of them.

    Every Y vertex colors exactly one edge, the one to its smallest
    D-neighbour: color 1 if it is in the matching M, else color 2. A
    matched y is private, so that edge is its M edge, and each M edge has
    its own private y. One colored edge at every Y vertex makes each edge
    see a color exactly once.
    """
    require_no_isolated(g)
    colors = [UNCOLORED] * g.m
    cert = _certified(g, b, colors)
    return EdgeColoring(k=2, colors=tuple(colors)), cert


def _fill(k: int, colors: Sequence[int]) -> EdgeColoring:
    """What ``extend_to_cf`` returns for the partial (k, colors), unverified."""
    if UNCOLORED in colors:
        fresh = min(set(range(1, k + 2)).difference(colors))  # colors lie in 0..k
        k = max(k, fresh)
        colors = [c if c != UNCOLORED else fresh for c in colors]
    return EdgeColoring(k=k, colors=tuple(colors))


def extend_to_cf(g: Graph, partial: EdgeColoring) -> EdgeColoring:
    """Fill the uncolored edges of a satisfying partial coloring.

    All uncolored edges receive one single color absent from the partial,
    which leaves every existing exactly-once witness intact. The fresh
    color is the smallest unused one: k+1 whenever the partial uses colors
    1..k, and a lower gap color when the palette is non-contiguous (class
    halving produces such partials when a level has no edges).

    Only the partial is verified; a partial that is not satisfying raises
    PartialNotSatisfyingError. The total needs no second check: an edge
    satisfied by color c in the partial still sees c exactly once, because
    the fresh color differs from c and recolors no colored edge. So the
    satisfying partials of ``bipartite_cf_coloring`` and ``general_cf_coloring``
    are filled unverified; a caller who wants a check runs ``verify_cf``.
    """
    report = verify_cf(g, partial)
    if report.unsatisfied:
        raise PartialNotSatisfyingError(list(report.unsatisfied))
    return _fill(partial.k, partial.colors)


def bipartite_cf_coloring(g: Graph) -> tuple[EdgeColoring, DominationCertificate]:
    """Total conflict-free coloring of a bipartite graph with at most 3 colors:
    the partial of ``bipartite_scf_coloring``, filled unverified as in ``extend_to_cf``."""
    require_no_isolated(g)
    b = bipartition(g)
    if isinstance(b, OddCycle):
        raise NotBipartiteError(b.vertices)
    colors = [UNCOLORED] * g.m
    cert = _dominate(g.adjacency, [s == "X" for s in b.side], colors, 0)
    return _fill(2, colors), cert


def format_certificate(cert: DominationCertificate) -> str:
    """Dump for golden tests: D line, one line per private set, M line."""
    lines = ["D: " + " ".join(str(x) for x in cert.dominating)]
    for x in cert.dominating:
        lines.append(f"P {x}: " + " ".join(str(y) for y in cert.private[x]))
    lines.append("M: " + " ".join(str(e) for e in cert.matching))
    return "\n".join(lines) + "\n"
