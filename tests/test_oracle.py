import random
import tracemalloc

import pytest

from cfcolor.bipartite import bipartite_scf_coloring, extend_to_cf
from cfcolor.cli import main
from cfcolor.coloring import colors_used
from cfcolor.errors import BudgetExceededError, IsolatedVertexError
from cfcolor.general import cycle_cf_coloring, general_cf_coloring
from cfcolor.generators import (
    all_labeled_trees,
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
    result = exact_cf_index(complete(6), 4, 200)
    assert result == Exceeded(states=201)


def test_sandwich_check_small_graphs(p4, c5, spider):
    assert sandwich_check(p4)
    assert sandwich_check(c5)
    assert sandwich_check(spider)
    assert sandwich_check(complete(4))


def test_sandwich_check_raises_on_tiny_budget():
    with pytest.raises(BudgetExceededError):
        sandwich_check(complete(6), 50)
    # on P4 the scf search fits in 4 states and the cf search needs 6
    assert exact_scf_index(path(4), 3, 4) == 1
    with pytest.raises(BudgetExceededError):
        sandwich_check(path(4), 4)


@pytest.mark.parametrize("spec,g", [
    ("path:4", path(4)), ("cycle:5", cycle(5)), ("star:4", star(4)),
    ("complete:3", complete(3)), ("complete-bipartite:2:3", complete_bipartite(2, 3)),
], ids=["P4", "C5", "K1,3", "K3", "K2,3"])
def test_cli_and_sandwich_check_run_out_at_the_same_state(capsys, spec, g):
    # `cfcolor oracle` with k_max = m and `sandwich_check` decide their
    # outcome the same way: the same states reported, or the same indices
    scf, cf = exact_scf_index(g, g.m), exact_cf_index(g, g.m)
    outcomes = set()
    for budget in range(61):
        code = main(["oracle", "--gen", spec, "--budget", str(budget)])
        out, err = capsys.readouterr()
        try:
            holds = sandwich_check(g, budget)
        except BudgetExceededError as exc:
            assert exc.states == budget + 1
            want = f"budget exceeded after {exc.states} states\n"
            assert (code, out, err) == (4, "", want), (spec, budget)
            outcomes.add("exceeded")
        else:
            verdict = "ok" if holds else "violated"
            want = f"scf={scf} cf={cf} sandwich={verdict}\n"
            assert (code, out, err) == (0 if holds else 3, want, ""), (spec, budget)
            outcomes.add(verdict)
    assert outcomes == {"exceeded", "ok"}, spec


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
                want = dict_count_smallest_k(g, k_max, allow_uncolored, states)
                assert search(g, k_max, states) == want, (g.edges, k_max, states)
                outcomes.add(type(want))
    assert {int, Exceeded} <= outcomes


def _smallest_budget(g, k_max: int, allow_uncolored: bool) -> int:
    # the smallest budget within which the reference search finishes, by
    # doubling and then bisection; budget 0 never finishes when m >= 1
    def finishes(states: int) -> bool:
        return not isinstance(dict_count_smallest_k(g, k_max, allow_uncolored, states), Exceeded)

    lo, hi = 0, 1
    while not finishes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("search,allow_uncolored", [
    (exact_cf_index, False), (exact_scf_index, True),
])
def test_budget_boundary_matches_dict_counts(search, allow_uncolored):
    # the whole search over k = 1, 2, ... takes S states; one budget less
    # must give up on state S itself, so the count carries across every k
    for g in _lock_corpus():
        for k_max in (2, g.m):
            s = _smallest_budget(g, k_max, allow_uncolored)
            want = dict_count_smallest_k(g, k_max, allow_uncolored, s)
            assert search(g, k_max, s - 1) == Exceeded(states=s), g.edges
            assert search(g, k_max, s) == want, (g.edges, k_max)


def _dense_corpus() -> list:
    # seeded dense graphs on 7-8 vertices with 10-13 edges, no isolated
    # vertex; seven of these eight have scf = 2 and cf = 3, so both F levels
    # fail only after searching every option
    rng = random.Random(0)
    corpus = []
    while len(corpus) < 8:
        n, m = rng.choice((7, 8)), rng.randint(10, 13)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        if len({v for e in pairs[:m] for v in e}) == n:
            corpus.append(build_graph(n, pairs[:m]))
    return corpus


def _seam_corpus() -> list:
    # every labelled tree on at most 6 vertices, paths, stars and cycles on
    # at most 8, K_{a,b} with a * b <= 12, matchings, the lock corpus, the
    # dense corpus and the empty graph
    corpus = [t for n in range(2, 7) for _seq, t in all_labeled_trees(n)]
    corpus += [path(n) for n in range(2, 9)] + [star(n) for n in range(2, 9)]
    corpus += [cycle(n) for n in range(3, 9)]
    corpus += [complete_bipartite(a, b) for a in range(1, 13) for b in range(a, 13) if a * b <= 12]
    # jK2 for j = 2..4, where total k = 1 succeeds after m states, and jK2
    # plus a P3 whose two edges come last, where total k = 1 first fails at
    # depth m - 1: m states again, but no success
    for j in range(2, 5):
        pairs = [(2 * i, 2 * i + 1) for i in range(j)]
        corpus.append(build_graph(2 * j, pairs))
        corpus.append(build_graph(2 * j + 3, pairs + [(2 * j, 2 * j + 1), (2 * j + 1, 2 * j + 2)]))
    return corpus + _lock_corpus() + _dense_corpus() + [build_graph(0, [])]


@pytest.mark.parametrize("search,allow_uncolored", [
    (exact_cf_index, False), (exact_scf_index, True),
])
def test_two_option_levels_meet_the_generic_search_at_the_same_states(search, allow_uncolored):
    # total k = 1 is read off the degrees, partial k = 1 and total k = 2 run
    # the F search, higher k the search on count lists; every k_max on
    # either side of those seams, 0 included, and every budget from 0 to
    # past the exact boundary give the dict-count search's outcome
    outcomes = set()
    for g in _seam_corpus():
        # k_max = 0 tries no state: None within budget 0, or 0 on no edges
        assert search(g, 0, 0) == (None if g.m else 0), g.edges
        for k_max in sorted({0, 1, 2, 3, g.m}):
            s = _smallest_budget(g, k_max, allow_uncolored)
            for states in sorted({0, 1, s - 1, s, DEFAULT_MAX_STATES}):
                want = dict_count_smallest_k(g, k_max, allow_uncolored, states)
                assert search(g, k_max, states) == want, (g.edges, k_max, states)
                outcomes.add(want if want is None else type(want))
    assert {int, None, Exceeded} <= outcomes
    # the dense corpus reaches the level above the F search: scf = 2, cf = 3
    top = 2 if allow_uncolored else 3
    assert [dict_count_smallest_k(g, 3, allow_uncolored, DEFAULT_MAX_STATES)
            for g in _dense_corpus()].count(top) == 7


@pytest.mark.parametrize("search,allow_uncolored", [
    (exact_cf_index, False), (exact_scf_index, True),
])
def test_a_negative_budget_runs_out_at_the_first_state(search, allow_uncolored):
    # a budget below 0 is spent as one of 0 is: Exceeded(states=1) once any
    # k is tried, never a count of 0 or less
    for g in (path(4), path(2), build_graph(4, [(0, 1), (2, 3)])):
        for k_max in sorted({0, 1, 2, 3, g.m}):
            for states in (-5, -1):
                want = dict_count_smallest_k(g, k_max, allow_uncolored, states)
                assert want == (Exceeded(states=1) if k_max else None)
                assert search(g, k_max, states) == want, (g.edges, k_max, states)
