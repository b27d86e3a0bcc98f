import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor import general
from cfcolor.cli import main
from cfcolor.coloring import UNCOLORED, colors_used, verify_cf
from cfcolor.errors import CycleTooShortError, ImproperColoringError, IsolatedVertexError
from cfcolor.general import (
    VertexColoring,
    cycle_cf_coloring,
    general_cf_coloring,
    greedy_vertex_coloring,
    recursive_scf_coloring,
)
from cfcolor.generators import (
    complete,
    complete_bipartite,
    cycle,
    random_bipartite,
    random_graph,
    star,
)
from cfcolor.graph import Bipartition, bipartition, build_graph, format_edge_list

import reference
from reference import naive_dsatur

PETERSEN = build_graph(
    10,
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
    ],
)


def _levels(k: int) -> int:
    return max(1, math.ceil(math.log2(k)))


def test_greedy_vertex_coloring_is_proper():
    for seed in range(30):
        g = random_graph(15, 0.4, seed)
        vc = greedy_vertex_coloring(g)
        for u, v in g.edges:
            assert vc.class_of[u] != vc.class_of[v]
        assert set(vc.class_of) == set(range(1, vc.k + 1))


def test_greedy_anchors():
    assert greedy_vertex_coloring(complete(4)).k == 4
    assert greedy_vertex_coloring(cycle(4)).k == 2
    vc = greedy_vertex_coloring(cycle(5))
    assert vc.k == 3
    assert vc.class_of == (1, 2, 1, 2, 3)


def test_greedy_is_exact_on_bipartite_inputs():
    for seed in range(30):
        g = random_bipartite(7, 7, 0.4, seed)
        if g.m == 0:
            continue
        assert greedy_vertex_coloring(g).k == 2


def _sparse(n: int, m: int, seed: int):
    # m distinct random pairs on n vertices; vertices may be isolated and
    # the graph disconnected, which the generators never produce.
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(pairs, key=lambda e: rng.random()))


def _clique_and_path(n: int, p: int, clique_first: bool):
    clique = list(itertools.combinations(range(n), 2))
    tail = [(n + i, n + i + 1) for i in range(p - 1)]
    if not clique_first:  # the path takes the smallest ids
        clique = [(u + p, v + p) for u, v in clique]
        tail = [(u - n, v - n) for u, v in tail]
    return build_graph(n + p, clique + tail)


def _dsatur_cases():
    yield pytest.param(build_graph(0, []), id="empty")
    yield pytest.param(build_graph(1, []), id="single")
    yield pytest.param(build_graph(5, []), id="edgeless")
    yield pytest.param(build_graph(6, [(3, 4), (4, 5), (3, 5)]), id="isolated-and-triangle")
    yield pytest.param(
        build_graph(9, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7), (7, 8)]), id="disconnected")
    for n in range(1, 10):
        yield pytest.param(complete(n), id=f"complete-{n}")
    yield pytest.param(PETERSEN, id="petersen")
    for seed in range(40):
        # many equal saturations, hence many ties for the id rule to break
        yield pytest.param(random_graph(12, 0.5, seed), id=f"dense-{seed}")
        yield pytest.param(random_bipartite(6, 8, 0.35, seed), id=f"bipartite-{seed}")
    for seed in range(30):
        n = 5 + seed
        yield pytest.param(_sparse(n, n + seed % 7, seed), id=f"sparse-{seed}")
    # K_n colored first lifts the top saturation bucket to n - 1; the path
    # after it starts from saturation 0, so the top bucket falls step by step
    for n, p in ((3, 4), (5, 6), (8, 9)):
        yield pytest.param(_clique_and_path(n, p, True), id=f"K{n}-then-path-{p}")
        yield pytest.param(_clique_and_path(n, p, False), id=f"path-{p}-then-K{n}")
    yield pytest.param(complete(30), id="complete-30")  # saturations 0..29, one bucket each
    # 2,000 leaves wait in the saturation-1 bucket, the centre first or last
    yield pytest.param(star(2001), id="star-centre-first")
    yield pytest.param(build_graph(2001, [(v, 2000) for v in range(2000)]), id="star-centre-last")


@pytest.mark.parametrize("g", list(_dsatur_cases()))
def test_greedy_matches_naive_dsatur(g):
    assert greedy_vertex_coloring(g) == naive_dsatur(g)


def test_greedy_matches_naive_dsatur_at_3000_vertices():
    g = _sparse(3000, 3000 * 16 // 2, 7)
    vc = greedy_vertex_coloring(g)
    assert vc == naive_dsatur(g)
    assert vc.k >= 3


@st.composite
def pieced_graphs(draw):
    """Up to 30 vertices in one to four random pieces, ids shuffled across
    them, so components interleave and edgeless pieces are isolated vertices."""
    edges = []
    n = 0
    for size in draw(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4)):
        pairs = list(itertools.combinations(range(n, n + size), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges += [p for p, k in zip(pairs, keep) if k]
        n += size
    ids = draw(st.permutations(range(n)))
    return build_graph(n, [(ids[u], ids[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(pieced_graphs())
def test_greedy_matches_naive_dsatur_on_pieced_graphs(g):
    assert greedy_vertex_coloring(g) == naive_dsatur(g)


def _nx_graph(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx, h


def test_greedy_against_networkx_on_random_graphs():
    for seed in range(30):
        g = _sparse(40, 60 + 5 * seed, seed)
        _, h = _nx_graph(g)
        vc = greedy_vertex_coloring(g)
        assert all(vc.class_of[u] != vc.class_of[v] for u, v in h.edges)
        assert vc.k <= max((d for _, d in h.degree), default=0) + 1


def test_greedy_is_exact_on_bipartite_inputs_per_networkx():
    for seed in range(30):
        g = random_bipartite(10, 12, 0.25, seed)
        if g.m == 0:
            continue
        nx, h = _nx_graph(g)
        assert nx.is_bipartite(h)
        assert greedy_vertex_coloring(g).k == 2
        assert len(set(nx.greedy_color(h, strategy="DSATUR").values())) == 2


def test_petersen_greedy_three_classes():
    assert greedy_vertex_coloring(PETERSEN).k == 3


def test_recursion_rejects_improper_input(p3):
    with pytest.raises(ImproperColoringError):
        recursive_scf_coloring(p3, VertexColoring(k=1, class_of=(1, 1, 1)))


def test_two_class_case_reduces_to_bipartite_construction():
    from cfcolor.bipartite import bipartite_scf_coloring

    for seed in range(20):
        g = random_bipartite(6, 6, 0.5, seed)
        if g.m == 0:
            continue
        vc = greedy_vertex_coloring(g)
        assert vc.k == 2
        b = bipartition(g)
        assert isinstance(b, Bipartition)
        expected, _cert = bipartite_scf_coloring(g, b)
        assert recursive_scf_coloring(g, vc) == expected


def test_partial_color_budget_matches_class_count():
    for seed in range(40):
        g = random_graph(18, 0.45, seed)
        vc = greedy_vertex_coloring(g)
        col = recursive_scf_coloring(g, vc)
        t = _levels(vc.k)
        assert col.k == 2 * t
        assert colors_used(col) <= 2 * t
        assert verify_cf(g, col).conflict_free()


def test_level_color_segregation():
    # K8 forces three halving levels; edges crossing the first split must
    # carry the top two colors, everything else strictly lower ones.
    g = complete(8)
    vc = greedy_vertex_coloring(g)
    assert vc.k == 8
    col = recursive_scf_coloring(g, vc)
    t = _levels(vc.k)
    top = {2 * t - 1, 2 * t}
    half = 2 ** (t - 1)
    for eid, (u, v) in enumerate(g.edges):
        c = col.colors[eid]
        if c == UNCOLORED:
            continue
        crosses = (vc.class_of[u] <= half) != (vc.class_of[v] <= half)
        if crosses:
            assert c in top
        else:
            assert c not in top


def _hand_made_proper_coloring(seed: int):
    # classes drawn from 1..k with k not a power of two, so some classes stay
    # unused and gaps appear, including above the largest class used
    rng = random.Random(seed)
    k = rng.choice([k for k in range(3, 41) if k & (k - 1)])
    n = rng.randint(6, 50)
    class_of = [rng.randint(1, k) for _ in range(n)]
    if len(set(class_of)) == 1:
        class_of[0] = class_of[0] % k + 1
    pairs: set[tuple[int, int]] = set()
    for v in range(n):
        others = [w for w in range(n) if class_of[w] != class_of[v]]
        for w in rng.sample(others, min(len(others), rng.randint(1, 4))):
            pairs.add((min(v, w), max(v, w)))
    edges = sorted(pairs, key=lambda e: rng.random())
    return build_graph(n, edges), VertexColoring(k=k, class_of=tuple(class_of))


def _level_roots(g, vc):
    # (j, class bit j of the smallest vertex) for every component of every
    # level, found by union-find over the level's edges
    out = []
    for j in range(_levels(vc.k)):
        parent = list(range(g.n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        touched = set()
        for u, v in g.edges:
            if ((vc.class_of[u] - 1) ^ (vc.class_of[v] - 1)).bit_length() - 1 == j:
                parent[max(find(u), find(v))] = min(find(u), find(v))
                touched.update((u, v))
        out.extend((j, (vc.class_of[r] - 1) >> j & 1) for r in sorted({find(v) for v in touched}))
    return out


# Levels that split into several components, some of whose smallest vertex
# has class bit j = 1, so that component's side X is the bit-1 side.
SPLIT_LEVELS = {
    # level 0: the path 0-1-2 (vertex 0 in class 2, bit 1) and the edge 3-4
    "path-and-edge": (build_graph(5, [(0, 1), (1, 2), (3, 4)]),
                      VertexColoring(k=2, class_of=(2, 1, 2, 1, 2))),
    # level 1: {0, 1, 2} (vertex 0 in class 4, bit 1), {3, 4} and {5, 6, 7};
    # level 0: the edges 0-2 and 3-7, both with a bit-1 smallest vertex
    "three-and-two-components": (
        build_graph(8, [(6, 7), (0, 2), (3, 4), (1, 2), (3, 7), (5, 6), (0, 1)]),
        VertexColoring(k=4, class_of=(4, 1, 3, 2, 4, 2, 3, 1))),
    # the same graph with the edge order reversed and classes 4 and 1 swapped
    "three-and-two-components-swapped": (
        build_graph(8, [(0, 1), (5, 6), (3, 7), (1, 2), (3, 4), (0, 2), (6, 7)]),
        VertexColoring(k=4, class_of=(1, 4, 3, 2, 1, 2, 3, 4))),
    # level 2: stars on 0, 3 and 7, each centre the star's smallest vertex and
    # in a class of 5..7 (bit 1); levels 0 and 1 hold the other edges
    "stars-centre-first": (
        build_graph(12, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6), (7, 8), (9, 10), (9, 11),
                         (1, 2)]),
        VertexColoring(k=7, class_of=(5, 1, 2, 6, 3, 4, 1, 7, 2, 4, 3, 1))),
}


def test_split_levels_have_bit_one_roots():
    for g, vc in SPLIT_LEVELS.values():
        roots = _level_roots(g, vc)
        assert any(bit == 1 for _, bit in roots)
        assert any(sum(1 for j2, _ in roots if j2 == j) >= 2 for j, _ in roots)


def _halving_cases():
    for name, (g, vc) in SPLIT_LEVELS.items():
        yield pytest.param(g, vc, id=f"split-{name}")
    for seed, m in ((2000, 8000), (2001, 16000)):
        g = _sparse(2000, m, seed)
        g = build_graph(g.n, g.edges + tuple((v, (v + 1) % g.n) for v in range(g.n)
                                             if g.degree(v) == 0))
        yield pytest.param(g, greedy_vertex_coloring(g), id=f"dsatur-sparse-2000-{m}")
    for seed in range(40):
        g = _sparse(30 + seed, 60 + 3 * seed, seed)
        g = build_graph(g.n, g.edges + tuple((v, (v + 1) % g.n) for v in range(g.n)
                                             if g.degree(v) == 0))
        yield pytest.param(g, greedy_vertex_coloring(g), id=f"dsatur-sparse-{seed}")
        g = random_graph(16, 0.5, seed)
        if not any(g.degree(v) == 0 for v in range(g.n)):
            yield pytest.param(g, greedy_vertex_coloring(g), id=f"dsatur-dense-{seed}")
    for seed in range(60):
        g, vc = _hand_made_proper_coloring(seed)
        yield pytest.param(g, vc, id=f"hand-made-k{vc.k}-{seed}")
    for n in range(2, 18):
        g = complete(n)
        yield pytest.param(g, greedy_vertex_coloring(g), id=f"complete-{n}")
    yield pytest.param(PETERSEN, greedy_vertex_coloring(PETERSEN), id="petersen")


@pytest.mark.parametrize("g, vc", list(_halving_cases()))
def test_one_pass_levels_match_the_halving_recursion(g, vc):
    assert recursive_scf_coloring(g, vc) == reference.recursive_scf_coloring(g, vc)


def test_general_cf_coloring_bound():
    for seed in range(40):
        g = random_graph(20, 0.35, seed)
        total, vc = general_cf_coloring(g)
        assert total.is_total()
        assert colors_used(total) <= 2 * _levels(vc.k) + 1
        assert verify_cf(g, total).conflict_free()


def test_petersen_end_to_end():
    total, vc = general_cf_coloring(PETERSEN)
    assert vc.k == 3
    assert total.is_total()
    assert colors_used(total) <= 5
    assert verify_cf(PETERSEN, total).conflict_free()


def test_complete_graph_bounds():
    for n in range(2, 12):
        g = complete(n)
        total, vc = general_cf_coloring(g)
        assert vc.k == n
        assert colors_used(total) <= 2 * _levels(n) + 1
        assert verify_cf(g, total).conflict_free()


def test_works_on_disconnected_graphs():
    g = build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    total, _vc = general_cf_coloring(g)
    assert verify_cf(g, total).conflict_free()


def test_bipartite_input_stays_within_three_colors():
    g = complete_bipartite(4, 4)
    total, vc = general_cf_coloring(g)
    assert vc.k == 2
    assert colors_used(total) <= 3
    assert verify_cf(g, total).conflict_free()


@pytest.mark.parametrize("n", range(3, 12))
def test_cycle_coloring_two_colors(n):
    col = cycle_cf_coloring(n)
    assert col.k == 2
    assert col.is_total()
    assert colors_used(col) == 2
    assert verify_cf(cycle(n), col).conflict_free()


def test_cycle_coloring_rejects_short_cycles():
    with pytest.raises(CycleTooShortError):
        cycle_cf_coloring(2)


def test_general_rejects_an_isolated_vertex_before_dsatur(monkeypatch, tmp_path, capsys):
    def no_dsatur(g):
        raise AssertionError("DSATUR ran on a graph with an isolated vertex")

    monkeypatch.setattr(general, "greedy_vertex_coloring", no_dsatur)
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 1)])  # vertex 4 is isolated
    with pytest.raises(IsolatedVertexError) as info:
        general_cf_coloring(g)
    assert str(info.value) == "vertex 4 is isolated"
    src = tmp_path / "g.txt"
    src.write_text(format_edge_list(g))
    assert main(["color", "--mode", "general", "--input", str(src)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: vertex 4 is isolated\n")
