"""Exact conflict-free indices by pruned exhaustive search.

Intended for small instances: the search walks edges in id order, breaks
color symmetry canonically (edge 0 gets color 1, and color c may be used
only once colors below c appear), and prunes a branch as soon as some edge
whose closed neighbourhood is fully assigned has no exactly-once color.
Work is metered in enumerated partial states against an explicit budget,
and running out of budget is reported as a distinct outcome, never as a
number.

Each vertex keeps its color counts over the edges assigned so far in a
list indexed by color. Symmetry breaking never assigns a color above m, so
a list has min(k, m) + 1 slots and a huge k allocates nothing k-sized. An
edge is checked through ``coloring.unique_color`` with the palette 1..t,
where t is the largest color assigned so far: no higher color is on any
edge yet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import unique_color
from .errors import BudgetExceededError
from .graph import Graph, require_no_isolated

DEFAULT_MAX_STATES = 100_000_000


@dataclass(frozen=True)
class OracleBudget:
    """Per-call cap on enumerated partial states."""

    max_states: int = DEFAULT_MAX_STATES


@dataclass(frozen=True)
class Exceeded:
    """The search hit its budget before finishing."""

    states: int


def _search(
    g: Graph, k: int, allow_uncolored: bool, check_at: list[list[int]],
    meter: list[int], max_states: int,
) -> bool:
    """Is there a conflict-free assignment with colors 1..k (0 allowed when
    partial colorings are searched)? check_at[i] lists the edges to check
    once edge i is assigned."""
    m = g.m
    edges = g.edges
    colors = [0] * m
    # counts[v][x]: edges at v assigned color x so far; slot 0 counts the
    # uncolored ones and is never read
    size = min(k, m) + 1
    counts = [[0] * size for _ in range(g.n)]
    # palettes[t]: the colors 1..t, which hold every color assigned while
    # the largest one so far is t
    palettes = [range(1, t + 1) for t in range(size)]

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
                raise BudgetExceededError(meter[0])
            colors[i] = col
            u, v = edges[i]
            counts[u][col] += 1
            counts[v][col] += 1
            top = max(used[i], col)
            palette = palettes[top]
            for e in check_at[i]:
                a, b = edges[e]
                if unique_color(counts[a], counts[b], colors[e], palette) is None:
                    break
            else:
                used[i + 1] = top
                i, col = i + 1, lowest
                continue
        u, v = edges[i]
        counts[u][col] -= 1
        counts[v][col] -= 1
        col += 1
    return True


def _smallest_k(
    g: Graph, k_max: int, allow_uncolored: bool, budget: OracleBudget
) -> int | None | Exceeded:
    require_no_isolated(g)
    if g.m == 0:
        return 0
    # An edge's satisfaction is final once the largest id in its closed
    # neighbourhood is assigned; check it exactly there. Adjacency lists are
    # in edge order, so each endpoint's last entry holds its largest id.
    check_at: list[list[int]] = [[] for _ in range(g.m)]
    for e, (u, v) in enumerate(g.edges):
        check_at[max(g.adjacency[u][-1][1], g.adjacency[v][-1][1])].append(e)
    meter = [0]
    try:
        for k in range(1, k_max + 1):
            if _search(g, k, allow_uncolored, check_at, meter, budget.max_states):
                return k
    except BudgetExceededError as exc:
        return Exceeded(states=exc.states)
    return None


def exact_cf_index(
    g: Graph, k_max: int, budget: OracleBudget = OracleBudget()
) -> int | None | Exceeded:
    """Smallest k <= k_max admitting a total conflict-free k-coloring.

    None means the search completed and no such k exists; Exceeded means
    the budget ran out first.
    """
    return _smallest_k(g, k_max, allow_uncolored=False, budget=budget)


def exact_scf_index(
    g: Graph, k_max: int, budget: OracleBudget = OracleBudget()
) -> int | None | Exceeded:
    """Smallest k <= k_max admitting a partial conflict-free coloring
    (edges may stay uncolored; every edge of the graph must be satisfied)."""
    return _smallest_k(g, k_max, allow_uncolored=True, budget=budget)


def sandwich_check(g: Graph, budget: OracleBudget = OracleBudget()) -> bool:
    """Exhaustively confirm scf <= cf <= scf + 1 on one graph.

    Both exact values are computed with k_max = m, always enough because
    all-distinct colors are trivially conflict-free. Raises
    BudgetExceededError if either search runs out of budget.
    """
    scf = exact_scf_index(g, g.m, budget)
    if isinstance(scf, Exceeded):
        raise BudgetExceededError(scf.states)
    cf = exact_cf_index(g, g.m, budget)
    if isinstance(cf, Exceeded):
        raise BudgetExceededError(cf.states)
    assert scf is not None and cf is not None
    return scf <= cf <= scf + 1
