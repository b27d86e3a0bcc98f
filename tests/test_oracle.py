import random
import tracemalloc

import pytest

from cfcolor.bipartite import bipartite_scf_coloring, extend_to_cf
from cfcolor.cli import main
from cfcolor.coloring import colors_used
from cfcolor.errors import BudgetExceededError, IsolatedVertexError
from cfcolor.general import cycle_cf_coloring, general_cf_coloring
from cfcolor.generators import (
    complete,
    complete_bipartite,
    cycle,
    path,
    random_graph,
    star,
)
from cfcolor.graph import bipartition, build_graph
from cfcolor.oracle import (
    DEFAULT_MAX_STATES,
    Exceeded,
    OracleBudget,
    exact_cf_index,
    exact_scf_index,
    sandwich_check,
)

from reference import dict_count_smallest_k, naive_cf_index, naive_scf_index


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 3), (5, 3), (6, 4)])
def test_complete_graph_indices(n, expected):
    assert exact_cf_index(complete(n), n) == expected


def test_complete_bipartite_indices():
    assert exact_cf_index(complete_bipartite(3, 3), 4) == 3
    assert exact_scf_index(complete_bipartite(3, 3), 4) == 2
    assert exact_cf_index(complete_bipartite(3, 4), 4) == 3


@pytest.mark.parametrize("n", range(3, 11))
def test_cycles_need_exactly_two(n):
    assert exact_cf_index(cycle(n), 3) == 2


def test_path_indices(p3, p4):
    assert exact_scf_index(p3, 3) == 1
    assert exact_cf_index(p3, 3) == 2
    assert exact_scf_index(p4, 3) == 1
    assert exact_cf_index(p4, 3) == 2


def test_smallest_three_color_tree(needs_three_tree):
    assert exact_cf_index(needs_three_tree, 4) == 3


def test_none_when_no_small_palette_works():
    assert exact_cf_index(complete(4), 2) is None
    assert exact_cf_index(complete_bipartite(3, 3), 2) is None


def test_agrees_with_unpruned_enumeration():
    corpus = [
        path(2), path(3), path(4), path(5),
        cycle(3), cycle(4), cycle(5), cycle(6),
        star(4), star(5), complete(4), complete_bipartite(2, 3),
        build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
    ]
    for seed in range(6):
        g = random_graph(6, 0.5, seed)
        if 0 < g.m <= 7:
            corpus.append(g)
    for g in corpus:
        assert exact_cf_index(g, 3) == naive_cf_index(g, 3), g.edges
        assert exact_scf_index(g, 3) == naive_scf_index(g, 3), g.edges


def test_indices_survive_vertex_relabeling(p4, c5, spider):
    rng = random.Random(31)
    for g in (p4, c5, spider, complete_bipartite(2, 3)):
        want_cf = exact_cf_index(g, 3)
        want_scf = exact_scf_index(g, 3)
        for _ in range(3):
            relabel = list(range(g.n))
            rng.shuffle(relabel)
            edges = [(relabel[u], relabel[v]) for u, v in g.edges]
            rng.shuffle(edges)
            h = build_graph(g.n, edges)
            assert exact_cf_index(h, 3) == want_cf
            assert exact_scf_index(h, 3) == want_scf


def test_constructions_never_beat_the_exact_index():
    for nx in range(1, 4):
        for ny in range(nx, 4):
            g = complete_bipartite(nx, ny)
            side = bipartition(g)
            partial, _ = bipartite_scf_coloring(g, side)
            total = extend_to_cf(g, partial)
            assert exact_scf_index(g, 3) <= colors_used(partial)
            assert exact_cf_index(g, 3) <= colors_used(total)
    for g in (path(4), cycle(5), star(5), complete(4)):
        total, _ = general_cf_coloring(g)
        exact = exact_cf_index(g, colors_used(total))
        assert exact is not None
        assert exact <= colors_used(total)
    for n in range(3, 9):
        assert colors_used(cycle_cf_coloring(n)) == exact_cf_index(cycle(n), 2) == 2


def test_budget_exhaustion_is_a_value():
    result = exact_cf_index(complete(6), 4, OracleBudget(max_states=200))
    assert isinstance(result, Exceeded)
    assert result.states >= 200


def test_sandwich_check_small_graphs(p4, c5, spider):
    assert sandwich_check(p4)
    assert sandwich_check(c5)
    assert sandwich_check(spider)
    assert sandwich_check(complete(4))


def test_sandwich_check_raises_on_tiny_budget():
    with pytest.raises(BudgetExceededError):
        sandwich_check(complete(6), OracleBudget(max_states=50))
    # on P4 the scf search fits in 4 states and the cf search needs 6
    assert exact_scf_index(path(4), 3, OracleBudget(max_states=4)) == 1
    with pytest.raises(BudgetExceededError):
        sandwich_check(path(4), OracleBudget(max_states=4))


def test_rejects_isolated_vertices():
    with pytest.raises(IsolatedVertexError):
        exact_cf_index(build_graph(2, []), 1)


def test_empty_graph_has_index_zero():
    assert exact_cf_index(build_graph(0, []), 1) == 0


def test_long_path_needs_no_recursion(capsys):
    # 1500 edges: one search level per edge, far past the interpreter's
    # recursion limit.
    code = main(["oracle", "--gen", "path:1500", "--k-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scf=1 cf=2" in out


@pytest.mark.parametrize("search,expected", [(exact_cf_index, 2), (exact_scf_index, 1)])
def test_huge_k_max_allocates_nothing_k_sized(search, expected):
    # count lists have min(k, m) + 1 slots, so k = 10**9 costs what k = m does
    g = path(3)
    tracemalloc.start()
    try:
        result = search(g, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < 16 * 1024


def _lock_corpus() -> list:
    # seeded random graphs on at most 8 vertices, sparse to dense
    rng = random.Random(8)
    corpus = []
    while len(corpus) < 60:
        g = random_graph(rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)), rng.randrange(2**32))
        if 2 <= g.m <= 14:
            corpus.append(g)
    return corpus


@pytest.mark.parametrize("search,allow_uncolored", [
    (exact_cf_index, False), (exact_scf_index, True),
])
def test_list_counts_match_dict_counts_over_a_budget_ladder(search, allow_uncolored):
    # same index, and under a short budget the same Exceeded.states, as the
    # search with dict counts: same options in the same order, same metering
    outcomes = set()
    for g in _lock_corpus():
        for k_max in (2, g.m):
            for states in (0, 1, 3, 10, 40, 150, 600, 2500, 10_000, DEFAULT_MAX_STATES):
                budget = OracleBudget(max_states=states)
                want = dict_count_smallest_k(g, k_max, allow_uncolored, budget)
                assert search(g, k_max, budget) == want, (g.edges, k_max, states)
                outcomes.add(type(want))
    assert {int, Exceeded} <= outcomes
