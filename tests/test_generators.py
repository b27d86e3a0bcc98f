import itertools

import pytest

import cfcolor.generators as generators_mod
from cfcolor.errors import CFColorError, EnumerationTooLargeError, ProbabilityOutOfRangeError
from cfcolor.generators import (
    SplitMix64,
    all_labeled_trees,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_bipartite,
    random_graph,
    random_tree,
    star,
)
from cfcolor.graph import bipartition, build_graph, components, Bipartition
from reference import naive_prufer_edges


def test_complete_counts():
    g = complete(5)
    assert (g.n, g.m) == (5, 10)
    assert g.edges[0] == (0, 1)
    assert g.edges[-1] == (3, 4)


def test_complete_bipartite_layout():
    g = complete_bipartite(2, 3)
    assert (g.n, g.m) == (5, 6)
    assert g.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    b = bipartition(g)
    assert isinstance(b, Bipartition)
    assert b.x_vertices() == [0, 1]


def test_cycle_path_star():
    assert cycle(4).edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert path(4).edges == ((0, 1), (1, 2), (2, 3))
    s = star(4)
    assert s.n == 4
    assert s.edges == ((0, 1), (0, 2), (0, 3))
    assert s.degree(0) == 3


def test_splitmix64_known_stream():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    # Reference stream for seed 0, as produced by the standard splitmix64
    # update (see the module docstring for the constants).
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_next_below_uniform_and_bounded():
    rng = SplitMix64(42)
    draws = [rng.next_below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_splitmix64_next_below_rejects_empty_ranges_and_biased_draws(monkeypatch):
    rng = SplitMix64(42)
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.next_below(n)
    # 2**64 % 3 == 1, so the top draw 2**64 - 1 would favour 0 and is redrawn
    draws = iter([2**64 - 1, 5])
    monkeypatch.setattr(rng, "next_u64", lambda: next(draws))
    assert rng.next_below(3) == 2


def test_splitmix64_next_bool_extremes():
    rng = SplitMix64(1)
    assert not any(rng.next_bool(0.0) for _ in range(100))
    assert all(rng.next_bool(1.0) for _ in range(100))


def test_random_bipartite_is_deterministic_and_frozen():
    g = random_bipartite(8, 8, 0.5, 12345)
    assert (g.n, g.m) == (16, 44)
    again = random_bipartite(8, 8, 0.5, 12345)
    assert again.edges == g.edges
    assert isinstance(bipartition(g), Bipartition)


def test_random_bipartite_drops_isolated_vertices():
    g = random_bipartite(6, 6, 0.2, 99)
    assert not any(g.degree(v) == 0 for v in range(g.n))


@pytest.mark.parametrize("p", [-0.1, 1.7, float("nan"), float("inf"), float("-inf")])
def test_random_generators_reject_probability_outside_unit_interval(p):
    with pytest.raises(ProbabilityOutOfRangeError, match=r"\[0, 1\]"):
        random_graph(6, p, 1)
    with pytest.raises(ProbabilityOutOfRangeError, match=r"\[0, 1\]"):
        random_bipartite(3, 4, p, 1)
    assert issubclass(ProbabilityOutOfRangeError, CFColorError)


def test_random_generators_keep_probability_endpoints():
    assert random_graph(6, 1.0, 1) == complete(6)
    assert random_bipartite(3, 4, 1.0, 1) == complete_bipartite(3, 4)
    assert random_graph(6, 0.0, 1).m == random_bipartite(3, 4, 0.0, 1).m == 0


def test_random_graph_frozen():
    g = random_graph(20, 0.5, 7)
    assert (g.n, g.m) == (20, 91)


def test_random_tree_frozen():
    t = random_tree(9, 7)
    assert t.edges == (
        (0, 4),
        (0, 6),
        (1, 3),
        (2, 6),
        (3, 6),
        (3, 7),
        (5, 7),
        (7, 8),
    )


@pytest.mark.parametrize("n", range(3, 10))
def test_random_tree_is_a_tree(n):
    for seed in range(5):
        t = random_tree(n, seed)
        assert t.n == n and t.m == n - 1
        assert len(components(t)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 9, 10, 50, 333, 2000])
def test_random_tree_matches_the_textbook_decode(n):
    for seed in (0, 1, 7, 2**40 + 3):
        rng = SplitMix64(seed)
        seq = tuple(rng.next_below(n) for _ in range(n - 2))
        assert random_tree(n, seed) == build_graph(n, sorted(naive_prufer_edges(n, seq)))


@pytest.mark.parametrize("n", range(2, 9))
def test_all_labeled_trees_match_the_textbook_decode(n):
    trees = all_labeled_trees(n)
    for seq in itertools.product(range(n), repeat=n - 2):
        assert next(trees) == (seq, build_graph(n, sorted(naive_prufer_edges(n, seq))))
    assert next(trees, None) is None


def test_all_labeled_trees_share_their_parts():
    trees = [t for _, t in all_labeled_trees(7)]
    assert len({id(e) for t in trees for e in t.edges}) <= 21
    assert len({id(part) for t in trees for part in t.neighbours}) <= 2**7
    # a slotted Graph holds its three fields and no per-object __dict__
    assert not hasattr(trees[0], "__dict__")
    # the tables are built per call: no module-level container to share
    assert [name for name, value in vars(generators_mod).items() if not name.startswith("__")
            and isinstance(value, (list, dict, set, bytearray))] == []


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
def test_all_labeled_trees_cayley_counts(n, count):
    trees = list(all_labeled_trees(n))
    assert len(trees) == count
    seen = set()
    for seq, t in trees:
        assert len(seq) == n - 2
        assert t.m == n - 1 and len(components(t)) == 1
        seen.add(t.edges)
    assert len(seen) == count


def test_all_labeled_trees_edges_sorted():
    for _, t in all_labeled_trees(5):
        assert list(t.edges) == sorted(t.edges)


def test_all_labeled_trees_refuses_huge_n():
    with pytest.raises(EnumerationTooLargeError):
        next(all_labeled_trees(10))
