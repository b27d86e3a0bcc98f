"""Exact conflict-free indices by pruned exhaustive search.

Intended for small instances: the search walks edges in id order, breaks
color symmetry canonically (edge 0 gets color 1, and color c may be used
only once colors below c appear), and prunes a branch as soon as some edge
whose closed neighbourhood is fully assigned has no exactly-once color.
Work is metered against an explicit budget in states, one per option tried
at one edge, counted over k = 1, 2, ... in turn; going over it is reported
as Exceeded(states=max(max_states, 0) + 1), never as a number.

Each k takes one of three levels, by its place above the lowest option
(0, uncolored, in a partial search; 1 in a total one):

- total k = 1 gives every edge color 1, which satisfies an edge exactly
  when its closed neighbourhood is itself: it is read off the degrees,
  with the states the search would meter;
- partial k = 1 and total k = 2 give each edge two options, so a coloring
  is the set S of edges that the first option leaves empty: the color-1
  edges in a partial search, the color-2 edges in a total one. An edge is
  satisfied exactly when S meets its closed neighbourhood once or, in a
  total coloring, all but once: ``_search_f`` runs on one S-count per
  vertex and one membership per edge, and only putting an edge into S or
  taking it out changes a count;
- higher k runs ``_search`` on per-vertex color counts, k + 1 slots each,
  and checks an edge through ``coloring.unique_color`` with the palette
  1..t, t the largest color assigned so far. k stays at most m, where
  all-distinct colors succeed.

Each search builds its own lists when it starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import unique_color
from .errors import BudgetExceededError
from .graph import Graph, require_no_isolated

DEFAULT_MAX_STATES = 100_000_000


@dataclass(frozen=True)
class Exceeded:
    """The search hit its budget before finishing."""

    states: int


def _search(
    g: Graph, checks: list[list[tuple[int, int, int, int]]], k: int, lowest: int,
    states: int, max_states: int,
) -> tuple[bool, int]:
    """Is there a conflict-free assignment with colors lowest..k, where each
    edge has three or more options? checks[i] holds (u, v, e, t) for each
    edge e = uv to check once edge i is assigned; t is not read. Takes and
    returns the states so far: past max_states, it stopped early."""
    edges = g.edges
    m = len(edges)
    # counts[v][x]: edges at v assigned color x so far (x = 0: never read)
    counts = [[0] * (k + 1) for _ in range(g.n)]
    colors = [0] * m
    # Depth-first over edge ids without recursion, so long inputs cannot
    # exhaust the interpreter stack: colors[i] holds the option being tried
    # at depth i and used[i] the largest color on edges 0..i-1. Options are
    # tried in ascending order and each one tried is metered, as a
    # recursive search would.
    used = [0] * (m + 1)
    i, col = 0, lowest
    while i < m:
        top = used[i]
        if col > k or col > top + 1:
            # options at depth i exhausted: back up and undo the one above
            if i == 0:
                return False, states
            i -= 1
            col = colors[i]
            u, v = edges[i]
        else:
            states += 1
            if states > max_states:
                return False, states
            colors[i] = col
            u, v = edges[i]
            counts[u][col] += 1
            counts[v][col] += 1
            if col > top:
                top = col
            # no color above top is on any edge yet
            palette = range(1, top + 1)
            for a, b, e, _ in checks[i]:
                if unique_color(counts[a], counts[b], colors[e], palette) is None:
                    break
            else:
                used[i + 1] = top
                i, col = i + 1, lowest
                continue
        counts[u][col] -= 1
        counts[v][col] -= 1
        col += 1
    return True, states


def _search_f(
    g: Graph, checks: list[list[tuple[int, int, int, int]]], fixed: int, states: int,
    max_states: int,
) -> tuple[bool, int]:
    """_search at the level with two options per edge, where a coloring is
    the set S of edges that the first option leaves empty: edge i tries
    "not in S" first, then "in S" unless i < fixed. member[e] says whether
    e is in S, cnt[v] counts the S edges at v, and S meets edge e = uv's
    closed neighbourhood c = cnt[u] + cnt[v] - member[e] times; e is
    satisfied when c == 1 or c == t, for its row (u, v, e, t) in checks.
    Same options, order and metering as _search."""
    edges = g.edges
    m = len(edges)
    member = [0] * m
    cnt = [0] * g.n
    i = 0
    # A pass moves on to depth i + 1 outside S, which changes no count; a
    # failure backs up past every depth already in S, taking each out, and
    # puts the edge it stops at into S. Taking depth fixed out ends the
    # search, as no depth below it has a second option; and depth 0 never
    # fails when fixed is 1: its only row, if any, is a K2 component, t = 0.
    while True:
        states += 1
        if states > max_states:
            return False, states
        for a, b, e, t in checks[i]:
            c = cnt[a] + cnt[b] - member[e]
            if c != 1 and c != t:
                break
        else:
            i += 1
            if i == m:
                return True, states
            continue
        while member[i]:
            member[i] = 0
            u, v = edges[i]
            cnt[u] -= 1
            cnt[v] -= 1
            if i == fixed:
                return False, states
            i -= 1
        member[i] = 1
        u, v = edges[i]
        cnt[u] += 1
        cnt[v] += 1


def _smallest_k(
    g: Graph, k_max: int, allow_uncolored: bool, max_states: int
) -> int | None | Exceeded:
    require_no_isolated(g)
    m = g.m
    if m == 0:
        return 0
    # An edge's satisfaction is final once the largest id in its closed
    # neighbourhood is assigned; check it exactly there. Edge-id lists are
    # ascending, so each endpoint's last entry is its largest id. t is the
    # other count of S in that neighbourhood that _search_f passes: 1 in a
    # partial search, d - 1 in a total one, d the neighbourhood's size.
    # Total k = 1 fails at the first depth whose row holds a t != 0 (m if
    # none does).
    incident = g.incident
    checks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
    fail = m
    for e, (u, v) in enumerate(g.edges):
        iu, iv = incident[u], incident[v]
        t = 1 if allow_uncolored else len(iu) + len(iv) - 2
        at = max(iu[-1], iv[-1])
        checks[at].append((u, v, e, t))
        if t and at < fail:
            fail = at
    lowest = 0 if allow_uncolored else 1
    states = 0
    for k in range(1, k_max + 1):
        if k == lowest:
            # Total k = 1, every edge in color 1: an edge passes exactly when
            # t == 0, so the search would meter one state per depth up to
            # depth fail, or all m, and stop at its budget.
            states = min(fail + 1, m, max(max_states, 0) + 1)
            found = fail == m and states <= max_states
        elif k == lowest + 1:
            found, states = _search_f(g, checks, lowest, states, max_states)
        else:
            found, states = _search(g, checks, k, lowest, states, max_states)
        if found:
            return k
        if states > max_states:
            return Exceeded(states=states)
    return None


def exact_cf_index(
    g: Graph, k_max: int, max_states: int = DEFAULT_MAX_STATES
) -> int | None | Exceeded:
    """Smallest k <= k_max admitting a total conflict-free k-coloring.

    None means the search completed and no such k exists; Exceeded means
    the budget of max_states states ran out first.
    """
    return _smallest_k(g, k_max, allow_uncolored=False, max_states=max_states)


def exact_scf_index(
    g: Graph, k_max: int, max_states: int = DEFAULT_MAX_STATES
) -> int | None | Exceeded:
    """Smallest k <= k_max admitting a partial conflict-free coloring
    (edges may stay uncolored; every edge of the graph must be satisfied)."""
    return _smallest_k(g, k_max, allow_uncolored=True, max_states=max_states)


def _indices(g: Graph, k_max: int, max_states: int) -> tuple[int | None, int | None]:
    """(scf, cf) for k <= k_max, the partial search first, each under its own
    budget; raises BudgetExceededError for the first search that runs out."""
    scf = exact_scf_index(g, k_max, max_states)
    if isinstance(scf, Exceeded):
        raise BudgetExceededError(scf.states)
    cf = exact_cf_index(g, k_max, max_states)
    if isinstance(cf, Exceeded):
        raise BudgetExceededError(cf.states)
    return scf, cf


def sandwich_check(g: Graph, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Exhaustively confirm scf <= cf <= scf + 1 on one graph, both at k_max
    = m, always enough because all-distinct colors are conflict-free. Raises
    BudgetExceededError if either search runs out of budget."""
    scf, cf = _indices(g, g.m, max_states)
    assert scf is not None and cf is not None
    return scf <= cf <= scf + 1
