"""Exact conflict-free indices by pruned exhaustive search.

Intended for small instances: the search walks edges in id order, breaks
color symmetry canonically (edge 0 gets color 1, and color c may be used
only once colors below c appear), and prunes a branch as soon as some edge
whose closed neighbourhood is fully assigned has no exactly-once color.
Work is metered against an explicit budget in states, one per option tried
at one edge, counted over k = 1, 2, ... in turn; going over it is reported
as Exceeded(states=max_states + 1), a distinct outcome, never a number.

Partial k = 1 and total k <= 2 give each edge at most two options, so a
coloring there is the set F of edges in color 1, and an edge is satisfied
exactly when F meets its closed neighbourhood once or, in a total
coloring, misses it once. Those levels, where nearly all states go, run
``_search_f`` on one F-count per vertex and one membership per edge.

Only a search past them (partial k >= 2, total k >= 3) builds the generic
search's count lists: each vertex keeps its color counts over the edges
assigned so far in a list indexed by color, shared by the searches for
each k (a failed search undoes all it assigned) and given its slot for
color k just before the search for k: n * (k + 1) slots for the k
reached, whatever k_max is; k stays at most m, where all-distinct colors
succeed. An edge is checked through ``coloring.unique_color`` with the
palette 1..t, t the largest color assigned so far: no higher color is on
any edge yet.
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
    ends: list[tuple[list[int], list[int]]], check_at: list[list[int]],
    palettes: list[range], k: int, lowest: int, states: int, max_states: int,
) -> tuple[bool, int]:
    """Is there a conflict-free assignment with colors lowest..k? ends[i]
    holds edge i's endpoint count lists, check_at[i] the edges to check once
    edge i is assigned. Takes and returns the states so far: past
    max_states, it stopped early. Runs only at the levels with three or more
    options per edge (partial k >= 2, total k >= 3); _search_f takes the
    levels below them."""
    m = len(ends)
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
            cu, cv = ends[i]
        else:
            states += 1
            if states > max_states:
                return False, states
            colors[i] = col
            cu, cv = ends[i]
            cu[col] += 1
            cv[col] += 1
            if col > top:
                top = col
            palette = palettes[top]
            for e in check_at[i]:
                a, b = ends[e]
                if unique_color(a, b, colors[e], palette) is None:
                    break
            else:
                used[i + 1] = top
                i, col = i + 1, lowest
                continue
        cu[col] -= 1
        cv[col] -= 1
        col += 1
    return True, states


def _search_f(
    ends: list[tuple[int, int]], checks: list[list[tuple[int, int, int, int]]],
    member: list[int], cnt: list[int], first: int, lone: int, states: int,
    max_states: int,
) -> tuple[bool, int]:
    """_search at a level with at most two options per edge, where a coloring
    is the set F of edges in color 1: edge i tries membership first, then
    1 - first unless i < lone. member[e] says whether e is in F, cnt[v]
    counts the F edges at v, and checks[i] holds (u, v, e, d) for each edge
    e = uv to check once edge i is assigned. F meets e's closed
    neighbourhood c = cnt[u] + cnt[v] - member[e] times, and e is satisfied
    when c == 1 or d - c == 1: d is the neighbourhood's size in a total
    search, 0 in a partial one. Same options, order and metering as
    _search; a failed search leaves cnt as it found it."""
    m = len(ends)
    i, x = 0, first
    member[0] = x
    u, v = ends[0]
    cnt[u] += x
    cnt[v] += x
    # The option x tried at depth i is already counted in: a pass moves on
    # to i + 1 with its first option, a failure flips x in place or backs
    # up past every depth whose options are used up.
    while True:
        states += 1
        if states > max_states:
            return False, states
        for a, b, e, d in checks[i]:
            c = cnt[a] + cnt[b] - member[e]
            if c != 1 and d - c != 1:
                break
        else:
            i += 1
            if i == m:
                return True, states
            x = first
            member[i] = x
            u, v = ends[i]
            cnt[u] += x
            cnt[v] += x
            continue
        while x != first or i < lone:
            cnt[u] -= x
            cnt[v] -= x
            if i == 0:
                return False, states
            i -= 1
            x = member[i]
            u, v = ends[i]
        x ^= 1
        member[i] = x
        step = 2 * x - 1
        cnt[u] += step
        cnt[v] += step


def _smallest_k(
    g: Graph, k_max: int, allow_uncolored: bool, max_states: int
) -> int | None | Exceeded:
    require_no_isolated(g)
    m = g.m
    if m == 0:
        return 0
    # An edge's satisfaction is final once the largest id in its closed
    # neighbourhood is assigned; check it exactly there. Edge-id lists are
    # ascending, so each endpoint's last entry is its largest id.
    incident = g.incident
    checks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
    for e, (u, v) in enumerate(g.edges):
        iu, iv = incident[u], incident[v]
        d = 0 if allow_uncolored else len(iu) + len(iv) - 1
        checks[max(iu[-1], iv[-1])].append((u, v, e, d))
    # The levels with at most two options per edge, as (first, lone) for
    # _search_f: partial k = 1 tries uncolored, then 1; total k = 1 gives
    # every edge color 1 (in F); total k = 2 tries 1, then 2, but edge 0
    # takes color 1 alone.
    levels = [(0, 0)] if allow_uncolored else [(1, m), (1, 1)]
    member = [0] * m
    cnt = [0] * g.n
    lowest = 0 if allow_uncolored else 1
    states = 0
    for k in range(1, k_max + 1):
        if k <= len(levels):
            first, lone = levels[k - 1]
            found, states = _search_f(g.edges, checks, member, cnt, first, lone, states, max_states)
        else:
            if k == len(levels) + 1:
                # counts[v][x]: edges at v assigned color x so far (x = 0: never read)
                counts = [[0] * k for _ in range(g.n)]
                ends = [(counts[u], counts[v]) for u, v in g.edges]
                check_at = [[e for _, _, e, _ in row] for row in checks]
                palettes = [range(1, t + 1) for t in range(k)]
            for row in counts:
                row.append(0)
            palettes.append(range(1, k + 1))
            found, states = _search(ends, check_at, palettes, k, lowest, states, max_states)
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
