"""Exact conflict-free indices by pruned exhaustive search.

Intended for small instances: the search walks edges in id order, breaks
color symmetry canonically (edge 0 gets color 1, and color c may be used
only once colors below c appear), and prunes a branch as soon as some edge
whose closed neighbourhood is fully assigned has no exactly-once color.
Work is metered against an explicit budget in states, one per option tried
at one edge, counted over k = 1, 2, ... in turn; going over it is reported
as Exceeded(states=max_states + 1), a distinct outcome, never a number.

Each vertex keeps its color counts over the edges assigned so far in a
list indexed by color, shared by the searches for each k (a failed search
undoes all it assigned) and given its slot for color k just before the
search for k: n * (k + 1) slots for the k reached, whatever k_max is; k
stays at most m, where all-distinct colors succeed. An edge is checked
through ``coloring.unique_color`` with the palette 1..t, t the largest
color assigned so far: no higher color is on any edge yet.
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
    ends: list[tuple[list[int], list[int]]], check_at: list[list[int]],
    palettes: list[range], k: int, lowest: int, states: int, max_states: int,
) -> tuple[bool, int]:
    """Is there a conflict-free assignment with colors lowest..k? ends[i]
    holds edge i's endpoint count lists, check_at[i] the edges to check once
    edge i is assigned. Takes and returns the states so far: past max_states, it stopped early."""
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


def _smallest_k(
    g: Graph, k_max: int, allow_uncolored: bool, budget: OracleBudget
) -> int | None | Exceeded:
    require_no_isolated(g)
    if g.m == 0:
        return 0
    # An edge's satisfaction is final once the largest id in its closed
    # neighbourhood is assigned; check it exactly there. Edge-id lists are
    # ascending, so each endpoint's last entry is its largest id.
    incident = g.incident
    check_at: list[list[int]] = [[] for _ in range(g.m)]
    for e, (u, v) in enumerate(g.edges):
        check_at[max(incident[u][-1], incident[v][-1])].append(e)
    # counts[v][x]: edges at v assigned color x so far (x = 0: never read)
    counts = [[0] for _ in range(g.n)]
    ends = [(counts[u], counts[v]) for u, v in g.edges]
    palettes = [range(1, 1)]
    lowest = 0 if allow_uncolored else 1
    states = 0
    for k in range(1, k_max + 1):
        for row in counts:
            row.append(0)
        palettes.append(range(1, k + 1))
        found, states = _search(ends, check_at, palettes, k, lowest, states, budget.max_states)
        if found:
            return k
        if states > budget.max_states:
            return Exceeded(states=states)
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
