"""Reference implementations used as test oracles, of two kinds.

Verifying referees decide a question on their own and call none of the
package's predicates: satisfaction is recounted edge by edge from the
definition, exact indices come from unpruned enumeration, bipartiteness
from trying all side assignments, and tree questions from sweeping all
2^m edge subsets. ``test_reference_independence`` checks that the referees
it lists name no product predicate.

Refactor pins are the earlier, plainer implementations of constructions
that were since sped up, kept to pin their outputs. They may call the
package, since they check only that a rewrite changed nothing.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import product
from typing import Iterator

from cfcolor.bipartite import DominationCertificate, _validate_sides, bipartite_scf_coloring
from cfcolor.coloring import UNCOLORED, EdgeColoring
from cfcolor.errors import (
    CFColorError,
    DuplicateEdgeError,
    FormatError,
    IsolatedYVertexError,
    SelfLoopError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)
from cfcolor.general import VertexColoring, _ceil_log2, _validate_proper
from cfcolor.graph import (
    Bipartition,
    Graph,
    OddCycle,
    bipartition,
    build_graph,
    require_no_isolated,
)
from cfcolor.oracle import Exceeded, OracleBudget


def first_edge_list_error(n: int, edges: list[tuple[int, int]]) -> CFColorError | None:
    """The error a graph on n vertices with these edges must be refused
    with, or None: the first position with an endpoint outside 0..n-1
    (u before v), a self loop, or a pair an earlier position already has in
    either orientation, found by comparing vertex sets with every earlier
    position."""
    if n < 0:
        return SizeTooSmallError(f"vertex count must be >= 0, got {n}")
    for pos, (u, v) in enumerate(edges):
        for w in (u, v):
            if not 0 <= w < n:
                return VertexOutOfRangeError(pos, w, n)
        if u == v:
            return SelfLoopError(pos, u)
        if any({a, b} == {u, v} for a, b in edges[:pos]):
            return DuplicateEdgeError(pos, (u, v))
    return None


# The row reader as it was before canonical text got a bulk pass, kept
# verbatim: every text must give the same header, rows or FormatError.
def line_int_table(text: str, name: str, header: str, count_at: int, unit: str, row: str,
                   fields: str) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """Read a two-integer header, whose field ``count_at`` counts the rows,
    then those rows of two integers each; ``#`` lines and blank lines are
    skipped. The strings name the format's parts in FormatError messages.
    Rows are parsed lazily, so a caller's per-row checks keep their place
    in the error order."""
    rows = [r for r in map(str.split, text.splitlines()) if r and not r[0].startswith("#")]
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


def edge_adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex, its (neighbour, edge id) pairs in ascending edge id, read
    off the edge list alone, so no referee depends on the Graph's index."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    return adjacency


def naive_report(g: Graph, c: EdgeColoring) -> tuple[tuple[int, ...], dict[int, int]]:
    """Recount every closed neighbourhood from scratch: the colored edges
    that share an endpoint with e, e included."""
    assert len(c.colors) == g.m
    unsatisfied: list[int] = []
    witness: dict[int, int] = {}
    for e, (u, v) in enumerate(g.edges):
        counts = Counter(col for (a, b), col in zip(g.edges, c.colors)
                         if col != UNCOLORED and (a in (u, v) or b in (u, v)))
        once = sorted(col for col, cnt in counts.items() if cnt == 1)
        if once:
            witness[e] = once[0]
        else:
            unsatisfied.append(e)
    return tuple(unsatisfied), witness


def is_conflict_free(g: Graph, c: EdgeColoring) -> bool:
    unsatisfied, _ = naive_report(g, c)
    return not unsatisfied


def naive_cf_index(g: Graph, k_max: int) -> int | None:
    """Unpruned k^m enumeration of total colorings, smallest feasible k."""
    if g.m == 0:
        return 0
    for k in range(1, k_max + 1):
        for assignment in product(range(1, k + 1), repeat=g.m):
            if is_conflict_free(g, EdgeColoring(k=k, colors=assignment)):
                return k
    return None


def naive_scf_index(g: Graph, k_max: int) -> int | None:
    """Unpruned (k+1)^m enumeration of partial colorings."""
    if g.m == 0:
        return 0
    for k in range(1, k_max + 1):
        for assignment in product(range(0, k + 1), repeat=g.m):
            if is_conflict_free(g, EdgeColoring(k=k, colors=assignment)):
                return k
    return None


def brute_force_bipartite(g: Graph) -> bool:
    """Try all 2^n side assignments. Only sensible for n <= ~16."""
    for bits in range(1 << g.n):
        if all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges):
            return True
    return False


def tree_subset_sweep(t: Graph) -> tuple[bool, bool, bool]:
    """Sweep all 2^m edge subsets F of a tree, two predicates per subset.

    clause(F): F nonempty, proper, and every edge meets its degree-sum
    condition. counted(F): the total 2-coloring with color 1 on F is
    conflict-free by direct neighbourhood counting (the verifier's
    semantics, not the conditions).

    Returns (any clause-accepted F, any counted-conflict-free F, the two
    predicates agreed on every subset).
    """
    m = t.m
    inc = [0] * t.n
    for eid, (u, v) in enumerate(t.edges):
        inc[u] |= 1 << eid
        inc[v] |= 1 << eid
    per_edge = []
    for eid, (u, v) in enumerate(t.edges):
        per_edge.append((eid, inc[u], inc[v], inc[u].bit_count() + inc[v].bit_count()))
    full = (1 << m) - 1
    clause_any = False
    counted_any = False
    agree = True
    for f_bits in range(1 << m):
        clause_ok = 0 < f_bits < full
        counted_ok = True
        for eid, mask_u, mask_v, dsum in per_edge:
            df_sum = (f_bits & mask_u).bit_count() + (f_bits & mask_v).bit_count()
            in_f = f_bits >> eid & 1
            if clause_ok:
                if in_f:
                    clause_ok = df_sum == 2 or dsum - df_sum == 1
                else:
                    clause_ok = df_sum == 1 or dsum - df_sum == 2
            if counted_ok:
                n1 = df_sum - in_f
                n2 = dsum - 1 - n1
                counted_ok = n1 == 1 or n2 == 1
            if not clause_ok and not counted_ok:
                break
        # Subsets that are empty or everything never pass the conditions on
        # a tree with >= 2 edges, and no 1-colored tree with >= 2 edges is
        # conflict-free, so agreement must hold on every single subset.
        if clause_ok != counted_ok:
            agree = False
        clause_any = clause_any or clause_ok
        counted_any = counted_any or counted_ok
    return clause_any, counted_any, agree


def naive_dsatur(g: Graph) -> VertexColoring:
    """DSATUR by an O(n) scan per pick: the uncolored vertex seeing the
    most distinct classes, smallest id first, takes the smallest free class."""
    adjacency = edge_adjacency(g)
    class_of = [0] * g.n
    neighbour_classes: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        best = -1
        best_sat = -1
        for v in range(g.n):
            if class_of[v] == 0 and len(neighbour_classes[v]) > best_sat:
                best = v
                best_sat = len(neighbour_classes[v])
        c = 1
        while c in neighbour_classes[best]:
            c += 1
        class_of[best] = c
        for w, _ in adjacency[best]:
            neighbour_classes[w].add(c)
    k = max(class_of, default=0)
    return VertexColoring(k=k, class_of=tuple(class_of))


def fixed_point_y_dominating_set(g: Graph, b: Bipartition) -> tuple[int, ...]:
    """Minimal Y-dominating set in X: start from every X vertex with a
    neighbour and repeat ascending passes, dropping any vertex whose removal
    keeps Y dominated, until a full pass removes nothing."""
    adjacency = edge_adjacency(g)
    in_d = [False] * g.n
    for x in b.x_vertices():
        if adjacency[x]:
            in_d[x] = True
    cover = [0] * g.n
    for y in b.y_vertices():
        cover[y] = sum(1 for x, _ in adjacency[y] if in_d[x])
    changed = True
    while changed:
        changed = False
        for x in range(g.n):
            if not in_d[x]:
                continue
            if all(cover[y] >= 2 for y, _ in adjacency[x]):
                in_d[x] = False
                for y, _ in adjacency[x]:
                    cover[y] -= 1
                changed = True
    return tuple(x for x in range(g.n) if in_d[x])


# The dominating-set construction as it stood before it read its coloring
# off the certificate: the starting cover is recounted edge by edge, and the
# coloring rebuilds the matched Y vertices from M and scans each unmatched
# one for its smallest D-neighbour. Pins ``bipartite.minimal_y_dominating_set``
# and ``bipartite.bipartite_scf_coloring``.


def recount_minimal_y_dominating_set(g: Graph, b: Bipartition) -> DominationCertificate:
    _validate_sides(g, b)
    adjacency = edge_adjacency(g)
    y_all = b.y_vertices()
    for y in y_all:
        if not adjacency[y]:
            raise IsolatedYVertexError(y)
    in_d = [False] * g.n
    for x in b.x_vertices():
        if adjacency[x]:
            in_d[x] = True
    # cover[y] = number of D-members adjacent to y
    cover = [0] * g.n
    for y in y_all:
        cover[y] = sum(1 for x, _ in adjacency[y] if in_d[x])
    # One pass suffices: an x kept at its scan has a neighbour y with
    # cover[y] == 1, and that y's only D-neighbour is x itself. Cover only
    # falls and x stays in D, so cover[y] stays 1 and a second pass would
    # keep x again; it would remove nothing.
    for x in range(g.n):
        if in_d[x] and all(cover[y] >= 2 for y, _ in adjacency[x]):
            in_d[x] = False
            for y, _ in adjacency[x]:
                cover[y] -= 1
    dominating = tuple(x for x in range(g.n) if in_d[x])
    private: dict[int, tuple[int, ...]] = {}
    matching = []
    for x in dominating:
        owned = sorted((y, eid) for y, eid in adjacency[x] if cover[y] == 1)
        private[x] = tuple(y for y, _ in owned)
        matching.append(owned[0][1])
    return DominationCertificate(
        dominating=dominating, private=private, matching=tuple(sorted(matching))
    )


def scan_bipartite_scf_coloring(
    g: Graph, b: Bipartition
) -> tuple[EdgeColoring, DominationCertificate]:
    require_no_isolated(g)
    cert = recount_minimal_y_dominating_set(g, b)
    adjacency = edge_adjacency(g)
    colors = [UNCOLORED] * g.m
    matched_y: set[int] = set()
    d_set = set(cert.dominating)
    for eid in cert.matching:
        colors[eid] = 1
        u, v = g.edges[eid]
        matched_y.add(v if u in d_set else u)
    for y in b.y_vertices():
        if y in matched_y:
            continue
        best: tuple[int, int] | None = None
        for x, eid in adjacency[y]:
            if x in d_set and (best is None or x < best[0]):
                best = (x, eid)
        assert best is not None
        colors[best[1]] = 2
    return EdgeColoring(k=2, colors=tuple(colors)), cert


def sorted_bfs_bipartition(g: Graph) -> Bipartition | OddCycle:
    """Two-color g by BFS, or return an odd cycle if that is impossible.

    Deterministic: each component is explored from its smallest vertex,
    which is labelled X; neighbours are visited in ascending id order.
    Isolated vertices therefore land on side X.
    """
    adjacency = edge_adjacency(g)
    side: list[str | None] = [None] * g.n
    parent: list[int] = [-1] * g.n
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = "X"
        queue = [root]
        for u in queue:
            for v, _ in sorted(adjacency[u]):
                if side[v] is None:
                    side[v] = "Y" if side[u] == "X" else "X"
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u]:
                    return OddCycle(vertices=_sorted_bfs_close_cycle(u, v, parent))
    return Bipartition(side=tuple(side))


def _sorted_bfs_close_cycle(u: int, v: int, parent: list[int]) -> tuple[int, ...]:
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


_Flag = tuple[bool, bool]


def _root_and_order(t: Graph) -> tuple[int, list[int], list[int], list[list[int]]]:
    # Root, breadth-first order, the id of each vertex's edge to its parent
    # (-1 at the root) and children, all by ascending id.
    adjacency = edge_adjacency(t)
    leaf = min(v for v in range(t.n) if len(adjacency[v]) == 1)
    root = adjacency[leaf][0][0]
    up_edge = [-1] * t.n
    order: list[int] = [root]
    children: list[list[int]] = [[] for _ in range(t.n)]
    seen = [False] * t.n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, eid in sorted(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                up_edge[v] = eid
                children[u].append(v)
                order.append(v)
                queue.append(v)
    return root, order, up_edge, children


def _child_options(
    deg: list[int],
    v: int,
    c: int,
    f: int,
    feas_c: dict[int, dict[int, set[_Flag]]],
) -> list[tuple[int, int, bool, bool]]:
    # Options (membership, child F-degree, child subtree flags) compatible
    # with v having final F-degree f. Each clause pins the child degree.
    opts: list[tuple[int, int, bool, bool]] = []
    dv, dc = deg[v], deg[c]
    for mc in (0, 1):
        if mc == 1:
            pinned = {2 - f, dv + dc - 1 - f}
        else:
            pinned = {1 - f, dv + dc - 2 - f}
        table = feas_c.get(mc, {})
        for fc in sorted(pinned):
            for h1, h0 in sorted(table.get(fc, ())):
                opts.append((mc, fc, h1, h0))
    return opts


def _combine(
    deg: list[int],
    v: int,
    f: int,
    kids: list[int],
    feas: list[dict[int, dict[int, set[_Flag]]]],
    with_backpointers: bool,
) -> list[dict[tuple[int, bool, bool], tuple | None]]:
    # Forward DP over the children of v for one assumed final F-degree f.
    # States are (membership sum so far, has an F edge, has a non-F edge);
    # first insertion wins, which keeps witnesses deterministic.
    layers: list[dict[tuple[int, bool, bool], tuple | None]] = [
        {(0, False, False): None}
    ]
    for c in kids:
        opts = _child_options(deg, v, c, f, feas[c])
        nxt: dict[tuple[int, bool, bool], tuple | None] = {}
        if opts:
            for key in layers[-1]:
                s, h1, h0 = key
                for mc, fc, ch1, ch0 in opts:
                    nk = (s + mc, h1 | ch1 | (mc == 1), h0 | ch0 | (mc == 0))
                    if nk not in nxt:
                        nxt[nk] = (key, mc, fc, ch1, ch0) if with_backpointers else ()
        layers.append(nxt)
        if not nxt:
            break
    return layers


def naive_search_f(t: Graph) -> frozenset[int] | None:
    """The tree DP as first written, on dicts of sets of flag tuples: the
    forward pass keeps every state, and each vertex on the chosen branch
    re-runs its child DP with backpointers. Pins the witness of
    ``tree.decide_tree_two``; the graph must be a tree with at least two edges."""
    root, order, up_edge, children = _root_and_order(t)
    deg = [len(a) for a in edge_adjacency(t)]
    feas: list[dict[int, dict[int, set[_Flag]]]] = [dict() for _ in range(t.n)]
    for v in reversed(order):
        kids = children[v]
        table: dict[int, dict[int, set[_Flag]]] = {0: {}, 1: {}}
        if not kids:
            table[0][0] = {(False, False)}
            table[1][1] = {(False, False)}
        else:
            memberships = (0, 1) if v != root else (0,)
            for f in range(deg[v] + 1):
                layers = _combine(deg, v, f, kids, feas, with_backpointers=False)
                final = layers[-1] if len(layers) == len(kids) + 1 else {}
                for m in memberships:
                    s = f - m
                    flags = {(h1, h0) for (ss, h1, h0) in final if ss == s}
                    if flags:
                        table[m].setdefault(f, set()).update(flags)
        feas[v] = table
    goal_f = None
    for f in sorted(feas[root].get(0, ())):
        if (True, True) in feas[root][0][f]:
            goal_f = f
            break
    if goal_f is None:
        return None
    # Reconstruct by re-running the child DP along the chosen branch only.
    f_edges: set[int] = set()
    stack: list[tuple[int, int, int, bool, bool]] = [(root, 0, goal_f, True, True)]
    while stack:
        v, m, f, h1, h0 = stack.pop()
        kids = children[v]
        if not kids:
            continue
        layers = _combine(deg, v, f, kids, feas, with_backpointers=True)
        state = (f - m, h1, h0)
        for idx in range(len(kids), 0, -1):
            entry = layers[idx][state]
            assert entry is not None
            prev, mc, fc, ch1, ch0 = entry
            c = kids[idx - 1]
            if mc == 1:
                f_edges.add(up_edge[c])
            stack.append((c, mc, fc, ch1, ch0))
            state = prev
    return frozenset(f_edges)


# The oracle search as it stood with per-vertex counts in dicts, each
# assigned edge's checks run through a closure and ``all``. Only the names
# differ from the original. Pins ``oracle.exact_cf_index`` and
# ``oracle.exact_scf_index``: their results, their option order and their
# metering, so the states an exhausted budget reports match too.


class _DictBudgetHit(Exception):
    pass


def dict_count_search(
    g: Graph, k: int, allow_uncolored: bool, check_at: list[list[int]],
    meter: list[int], max_states: int,
) -> bool:
    """Is there a conflict-free assignment with colors 1..k (0 allowed when
    partial colorings are searched)? check_at[i] lists the edges to check
    once edge i is assigned."""
    m = g.m
    colors = [0] * m
    # per-vertex color counts over the edges assigned so far; 0 is not counted
    counts: list[dict[int, int]] = [{} for _ in range(g.n)]

    def fixed_ok(e: int) -> bool:
        # some color is seen exactly once around e; e itself is counted at
        # both of its ends
        u, v = g.edges[e]
        cu, cv, own = counts[u], counts[v], colors[e]
        return any(cu.get(x, 0) + cv.get(x, 0) - (x == own) == 1 for x in cu.keys() | cv.keys())

    # Depth-first over edge ids without recursion, so long inputs cannot
    # exhaust the interpreter stack: colors[i] holds the option being tried
    # at depth i and used[i] the largest color on edges 0..i-1. Options are
    # tried in ascending order and each one tried is metered, as a
    # recursive search would.
    lowest = 0 if allow_uncolored else 1
    used = [0] * (m + 1)
    i, col = 0, lowest
    while i < m:
        if col > min(k, used[i] + 1):
            # options at depth i exhausted: back up and undo the one above
            if i == 0:
                return False
            i -= 1
            col = colors[i]
        else:
            meter[0] += 1
            if meter[0] > max_states:
                raise _DictBudgetHit()
            colors[i] = col
            u, v = g.edges[i]
            if col:
                counts[u][col] = counts[u].get(col, 0) + 1
                counts[v][col] = counts[v].get(col, 0) + 1
            if all(fixed_ok(e) for e in check_at[i]):
                used[i + 1] = max(used[i], col)
                i, col = i + 1, lowest
                continue
        if col:
            u, v = g.edges[i]
            counts[u][col] -= 1
            counts[v][col] -= 1
        col += 1
    return True


def dict_count_smallest_k(
    g: Graph, k_max: int, allow_uncolored: bool, budget: OracleBudget
) -> int | None | Exceeded:
    require_no_isolated(g)
    if g.m == 0:
        return 0
    # An edge's satisfaction is final once the largest id in its closed
    # neighbourhood is assigned; check it exactly there. Adjacency lists are
    # in edge order, so each endpoint's last entry holds its largest id.
    adjacency = edge_adjacency(g)
    check_at: list[list[int]] = [[] for _ in range(g.m)]
    for e, (u, v) in enumerate(g.edges):
        check_at[max(adjacency[u][-1][1], adjacency[v][-1][1])].append(e)
    meter = [0]
    try:
        for k in range(1, k_max + 1):
            if dict_count_search(g, k, allow_uncolored, check_at, meter, budget.max_states):
                return k
    except _DictBudgetHit:
        return Exceeded(states=meter[0])
    return None


# The class-halving recursion as first written: each level renumbers the
# classes into a fresh dict and re-partitions every remaining edge. Pins the
# one-pass level assignment of ``general.recursive_scf_coloring``.


def _color_level(
    g: Graph,
    edge_ids: list[int],
    cls: dict[int, int],
    khat: int,
    out: list[int],
) -> None:
    # One recursion level: classes 1..half versus the rest. Cross edges are
    # bipartite and take the two top colors of this level; the rest recurse
    # with renumbered classes. Endpoints of no edge at a level simply drop
    # out, so subgraphs never contain isolated vertices.
    if not edge_ids or khat <= 1:
        return
    t = _ceil_log2(khat)
    half = 1 << (t - 1)
    cross: list[int] = []
    rest: list[int] = []
    for eid in edge_ids:
        u, v = g.edges[eid]
        if (cls[u] <= half) != (cls[v] <= half):
            cross.append(eid)
        else:
            rest.append(eid)
    if cross:
        verts = sorted({w for eid in cross for w in g.edges[eid]})
        local = {w: i for i, w in enumerate(verts)}
        sub = build_graph(len(verts), [
            (local[g.edges[eid][0]], local[g.edges[eid][1]]) for eid in cross
        ])
        b = bipartition(sub)
        assert not isinstance(b, OddCycle)
        partial, _ = bipartite_scf_coloring(sub, b)
        base = 2 * t - 2
        for local_eid, col in enumerate(partial.colors):
            if col != UNCOLORED:
                out[cross[local_eid]] = base + col
    if rest:
        sub_cls = {
            w: (cls[w] if cls[w] <= half else cls[w] - half)
            for eid in rest
            for w in g.edges[eid]
        }
        _color_level(g, rest, sub_cls, half, out)


def recursive_scf_coloring(g: Graph, vc: VertexColoring) -> EdgeColoring:
    """Partial conflict-free coloring with at most 2*ceil(log2 k) colors."""
    _validate_proper(g, vc)
    require_no_isolated(g)
    if g.m == 0:
        return EdgeColoring(k=0, colors=())
    out = [UNCOLORED] * g.m
    cls = {v: vc.class_of[v] for v in range(g.n)}
    _color_level(g, list(range(g.m)), cls, vc.k, out)
    return EdgeColoring(k=2 * _ceil_log2(vc.k), colors=tuple(out))
