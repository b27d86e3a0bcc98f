"""Output checks that share no code with the package under test.

Every coloring the program emits is re-read here with this file's own
parsers and re-counted edge by edge from the definition: an edge is
satisfied when some color appears on exactly one colored edge incident to
either of its endpoints, itself included. The tree F-witness conditions are
re-derived from the degree identities, not taken from ``cfcolor.tree``.
"""

from __future__ import annotations


class CheckError(Exception):
    """An output of the program is wrong or malformed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def read_coloring(text: str, m: int) -> list[int]:
    """Colors per edge id from the ``m k`` / ``edge_id color`` format."""
    rows = _rows(text)
    require(bool(rows) and len(rows[0]) == 2, "coloring header missing")
    head_m, k = int(rows[0][0]), int(rows[0][1])
    require(head_m == m and len(rows) == m + 1, f"coloring covers {head_m} edges, graph has {m}")
    colors = []
    for eid, row in enumerate(rows[1:]):
        require(len(row) == 2 and int(row[0]) == eid, f"coloring row {eid} malformed")
        col = int(row[1])
        require(0 <= col <= k, f"edge {eid} color {col} outside 0..{k}")
        colors.append(col)
    return colors


def read_dot(text: str, edges: list[tuple[int, int]]) -> list[int]:
    """Colors per edge id from the DOT output, which must list every edge in order."""
    colors = []
    for line in text.splitlines():
        if " -- " not in line:
            continue
        lhs, _, attrs = line.strip().partition(" [")
        u, v = (int(x) for x in lhs.split(" -- "))
        eid = len(colors)
        require(eid < len(edges) and (u, v) == edges[eid], f"DOT edge {eid} is {u} -- {v}")
        colors.append(int(attrs.split('label="', 1)[1].split('"', 1)[0]))
    require(len(colors) == len(edges), f"DOT lists {len(colors)} of {len(edges)} edges")
    return colors


def unsatisfied_edges(n: int, edges: list[tuple[int, int]], colors: list[int]) -> list[int]:
    """Edges with no color appearing exactly once around them (color 0 = uncolored)."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)
    bad = []
    for eid, (u, v) in enumerate(edges):
        counts: dict[int, int] = {}
        for f in incident[u] + [f for f in incident[v] if f != eid]:
            col = colors[f]
            if col:
                counts[col] = counts.get(col, 0) + 1
        if 1 not in counts.values():
            bad.append(eid)
    return bad


def check_total_cf(n: int, edges: list[tuple[int, int]], colors: list[int], bound: int) -> int:
    """Require a total conflict-free coloring within ``bound`` colors; return colors used."""
    require(len(colors) == len(edges), "coloring length differs from edge count")
    require(all(1 <= c <= bound for c in colors), f"a color lies outside 1..{bound}")
    bad = unsatisfied_edges(n, edges, colors)
    require(not bad, f"{len(bad)} edges unsatisfied, first {bad[:5]}")
    return len(set(colors))


def f_witness_holds(n: int, edges: list[tuple[int, int]], f_edges: set[int]) -> bool:
    """The tree conditions for F (the color-1 edges of a total 2-coloring).

    With dF the F-degree and d the degree: an F edge uv needs
    dF(u)+dF(v) = 2 or the non-F degrees to sum to 1; a non-F edge needs
    dF(u)+dF(v) = 1 or the non-F degrees to sum to 2. F must be a proper,
    nonempty subset.
    """
    if not f_edges or len(f_edges) == len(edges):
        return False
    deg = [0] * n
    df = [0] * n
    for eid, (u, v) in enumerate(edges):
        deg[u] += 1
        deg[v] += 1
        if eid in f_edges:
            df[u] += 1
            df[v] += 1
    for eid, (u, v) in enumerate(edges):
        f_sum = df[u] + df[v]
        rest = deg[u] + deg[v] - f_sum
        if eid in f_edges:
            ok = f_sum == 2 or rest == 1
        else:
            ok = f_sum == 1 or rest == 2
        if not ok:
            return False
    return True


def check_f_witness(n: int, edges: list[tuple[int, int]], f_edges: set[int],
                    colors: list[int] | None = None) -> None:
    """F satisfies the conditions, and the 2-coloring it induces (or the one
    given, which must equal it) is conflict-free by direct recount."""
    require(all(0 <= e < len(edges) for e in f_edges), "F names an edge out of range")
    require(f_witness_holds(n, edges, f_edges), "F witness rejected")
    induced = [1 if e in f_edges else 2 for e in range(len(edges))]
    if colors is not None:
        require(colors == induced, "coloring differs from the one F induces")
    check_total_cf(n, edges, induced, 2)
