import itertools
import random
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.cli import main
from cfcolor.coloring import EdgeColoring, verify_cf
from cfcolor.errors import (
    CertificateRejectedError,
    NotATreeError,
    NotConflictFreeError,
    NotTwoColorsError,
    TooFewEdgesError,
)
from cfcolor.generators import (
    SplitMix64,
    all_labeled_trees,
    complete_bipartite,
    path,
    random_tree,
    star,
)
from cfcolor.graph import Graph, build_graph, format_edge_list
from cfcolor.oracle import exact_cf_index, exact_scf_index
from cfcolor.tree import (
    COND_IN_F_DEGREES,
    COND_OUT_F_DEGREES,
    TreeFCertificate,
    check_f_certificate,
    coloring_from_f,
    decide_tree,
    decide_tree_two,
    f_from_coloring,
    format_f_set,
    tree_cf_index,
)

from reference import _root_and_order as reference_rooting
from reference import naive_cf_index, naive_feasible_f_degrees, naive_report, naive_search_f


def _clause_accepts_any(t: Graph) -> bool:
    """Early-exit sweep over all 2^m edge subsets."""
    inc = [0] * t.n
    for eid, (u, v) in enumerate(t.edges):
        inc[u] |= 1 << eid
        inc[v] |= 1 << eid
    per_edge = [
        (eid, inc[u], inc[v], t.degree(u) + t.degree(v))
        for eid, (u, v) in enumerate(t.edges)
    ]
    for f_bits in range(1, (1 << t.m) - 1):
        ok = True
        for eid, mask_u, mask_v, dsum in per_edge:
            df_sum = (f_bits & mask_u).bit_count() + (f_bits & mask_v).bit_count()
            if f_bits >> eid & 1:
                ok = df_sum == 2 or dsum - df_sum == 1
            else:
                ok = df_sum == 1 or dsum - df_sum == 2
            if not ok:
                break
        if ok:
            return True
    return False


def test_accepts_middle_edge_of_p3(p3):
    result = check_f_certificate(p3, frozenset({1}))
    assert isinstance(result, TreeFCertificate)
    assert result.per_edge_condition == (COND_OUT_F_DEGREES, COND_IN_F_DEGREES)


def test_rejects_with_violated_edges(p4):
    # F = {first edge}: the far edge sees no F edge and three non-F edges.
    assert check_f_certificate(p4, frozenset({0})) == [2]


def test_rejects_empty_and_full_subsets(p4):
    assert check_f_certificate(p4, frozenset()) == [0, 1, 2]
    # On every tree, F = {} and F = E violate some edge. The DP keeps no
    # record of F being nonempty and proper, and check_f_certificate has no
    # clause for it: both rest on this.
    for n in range(3, 8):
        for _, t in all_labeled_trees(n):
            for f in (frozenset(), frozenset(range(t.m))):
                violated = check_f_certificate(t, f)
                assert isinstance(violated, list) and violated, (t.edges, f)


def test_certificate_requires_a_tree(c4):
    # only the DP entry points need a tree; the F check takes any graph
    for dp in (decide_tree_two, decide_tree, tree_cf_index):
        with pytest.raises(NotATreeError):
            dp(c4)
    with pytest.raises(TooFewEdgesError):
        decide_tree_two(path(2))


# The bipartite graph with minimum degree 3 of docs/cf2_min_degree_3.md,
# whose F = {0, 1, 2} is a dominating induced matching
_DIM_GRAPH = build_graph(10, [(0, 3), (1, 4), (2, 5), (0, 6), (0, 7), (1, 6), (1, 7), (2, 6),
                              (2, 7), (8, 3), (9, 3), (8, 4), (9, 4), (8, 5), (9, 5)])


def test_dim_graph_takes_two_colors():
    # minimum degree 3 does not force 3 colors on a bipartite graph: this
    # one has a dominating induced matching, so scf = 1 and cf = 2
    assert min(map(len, _DIM_GRAPH.neighbours)) == 3
    assert (exact_scf_index(_DIM_GRAPH, 3), exact_cf_index(_DIM_GRAPH, 3)) == (1, 2)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 5) for b in range(a, 20 // a + 1)])
def test_complete_bipartite_with_both_sides_three_or_more_takes_three_colors(a, b):
    # docs/cf2_min_degree_3.md, first corollary: no dominating induced
    # matching, so no total 2-coloring; the bipartite bound 3 is exact
    assert exact_cf_index(complete_bipartite(a, b), 3) == 3


@pytest.mark.parametrize("g", [
    pytest.param(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), id="c4"),
    pytest.param(build_graph(4, list(itertools.combinations(range(4), 2))), id="k4"),
    pytest.param(build_graph(5, [(x, y) for x in (0, 1) for y in (2, 3, 4)]), id="k23"),
    pytest.param(build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), id="p3+p3"),
    pytest.param(_DIM_GRAPH, id="dim-graph"),
])
def test_f_check_on_any_simple_graph(g):
    # the F conditions are per edge, on degrees alone: F passes exactly when
    # the 1-on-F / 2-elsewhere coloring is conflict-free by a full recount
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(g.m), r) for r in range(g.m + 1))
    for f in map(frozenset, subsets):
        two_coloring = EdgeColoring(k=2, colors=tuple(1 if e in f else 2 for e in range(g.m)))
        unsatisfied = naive_report(g, two_coloring)[0]
        result = check_f_certificate(g, f)
        assert isinstance(result, TreeFCertificate) == (not unsatisfied), (g.edges, f)
        if unsatisfied:
            assert result == list(unsatisfied)
            with pytest.raises(CertificateRejectedError):
                coloring_from_f(g, f)
        else:
            assert coloring_from_f(g, f) == two_coloring
    assert isinstance(check_f_certificate(_DIM_GRAPH, frozenset({0, 1, 2})), TreeFCertificate)


def test_coloring_from_f_round_trip(p3):
    col = coloring_from_f(p3, frozenset({1}))
    assert col == EdgeColoring(k=2, colors=(2, 1))
    assert verify_cf(p3, col).conflict_free()
    assert f_from_coloring(p3, col) == frozenset({1})


@pytest.mark.parametrize("g", [
    pytest.param(path(2), id="k2"),
    pytest.param(build_graph(4, [(0, 1), (2, 3)]), id="k2+k2"),
])
def test_f_round_trip_where_every_subset_passes(g):
    # every edge is a K2 component, so every F passes, F = {} and F = E
    # included, and their colorings use a single color
    for r in range(g.m + 1):
        for f in map(frozenset, itertools.combinations(range(g.m), r)):
            assert f_from_coloring(g, coloring_from_f(g, f)) == f


def test_coloring_from_f_rejects_bad_subset(p4):
    with pytest.raises(CertificateRejectedError) as exc:
        coloring_from_f(p4, frozenset({0}))
    assert exc.value.violated == [2]


def test_f_from_coloring_input_checks(p4):
    with pytest.raises(NotTwoColorsError):
        f_from_coloring(p4, EdgeColoring(k=2, colors=(1, 0, 2)))
    # one color is not refused as such: the conflict-free check decides
    with pytest.raises(NotConflictFreeError):
        f_from_coloring(p4, EdgeColoring(k=2, colors=(1, 1, 1)))
    with pytest.raises(NotTwoColorsError):
        f_from_coloring(p4, EdgeColoring(k=3, colors=(1, 3, 1)))
    with pytest.raises(NotConflictFreeError):
        f_from_coloring(p4, EdgeColoring(k=2, colors=(1, 1, 2)))


def test_decide_p3_witness(p3):
    assert decide_tree_two(p3) == frozenset({1})


def test_decide_star_witness():
    assert decide_tree_two(star(4)) == frozenset({2})


def test_decide_spider_witness(spider):
    assert decide_tree_two(spider) == frozenset({1, 3, 5})


def test_decide_needs_three(needs_three_tree):
    assert decide_tree_two(needs_three_tree) is None
    assert tree_cf_index(needs_three_tree) == 3


def test_witnesses_are_deterministic_and_verified():
    for n in range(3, 10):
        for seed in range(20):
            t = random_tree(n, seed)
            f = decide_tree_two(t)
            assert f == decide_tree_two(t)
            if f is not None:
                assert isinstance(check_f_certificate(t, f), TreeFCertificate)
                col = coloring_from_f(t, f)
                assert verify_cf(t, col).conflict_free()


def test_index_values():
    assert tree_cf_index(path(2)) == 1
    assert tree_cf_index(path(3)) == 2
    assert tree_cf_index(star(6)) == 2


def test_index_agrees_with_exhaustive_search_on_small_trees():
    for n in (4, 5):
        for _, t in all_labeled_trees(n):
            assert tree_cf_index(t) == naive_cf_index(t, 3)


def test_decide_matches_brute_force_on_random_trees():
    # 1000 seeded trees, sizes leaning small but reaching 17 edges.
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(1000):
        n = 3 + rng.next_below(8) + rng.next_below(9)
        t = random_tree(n, rng.next_u64())
        expect = _clause_accepts_any(t)
        f = decide_tree_two(t)
        assert (f is not None) == expect, f"n={n} edges={t.edges}"
        if f is not None:
            assert isinstance(check_f_certificate(t, f), TreeFCertificate)
        checked += 1
    assert checked == 1000


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conditions_track_the_verifier(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    t = random_tree(n, seed)
    subset = frozenset(
        e for e in range(t.m) if data.draw(st.booleans(), label=f"edge{e}")
    )
    accepted = isinstance(check_f_certificate(t, subset), TreeFCertificate)
    two_coloring = EdgeColoring(
        k=2, colors=tuple(1 if e in subset else 2 for e in range(t.m))
    )
    assert accepted == verify_cf(t, two_coloring).conflict_free()


def test_rejects_non_trees():
    with pytest.raises(NotATreeError):
        decide_tree_two(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotATreeError):
        tree_cf_index(build_graph(3, [(0, 1), (1, 2), (2, 0)]))


def test_f_set_round_trip():
    f = frozenset({4, 0, 2})
    assert format_f_set(f) == "0 2 4\n"
    assert frozenset(map(int, format_f_set(f).split())) == f
    assert format_f_set(frozenset()) == "\n"


def test_all_index_values_covered_at_n6():
    counts = {1: 0, 2: 0, 3: 0}
    for _, t in all_labeled_trees(6):
        counts[tree_cf_index(t)] += 1
    assert counts == {1: 0, 2: 936, 3: 360}


@pytest.mark.parametrize("entry, expect", [
    ("decide_tree", (2, frozenset({1, 3}))),
    ("decide_tree_two", frozenset({1, 3})),
    ("tree_cf_index", 2),
])
def test_one_tree_check_per_request(monkeypatch, entry, expect):
    import cfcolor.tree as tree_mod

    calls = []
    original = tree_mod._require_tree

    def counting(g, min_edges):
        calls.append(g.n)
        return original(g, min_edges)

    monkeypatch.setattr(tree_mod, "_require_tree", counting)
    assert getattr(tree_mod, entry)(path(5)) == expect
    assert calls == [5]


def test_index_only_dp_matches_decide_tree():
    # tree_cf_index skips the witness replay; the index must not change
    trees = [path(2)]
    for n in range(2, 8):
        trees.extend(t for _, t in all_labeled_trees(n))
    rng = SplitMix64(88)
    trees.extend(random_tree(2 + rng.next_below(59), rng.next_u64()) for _ in range(200))
    for t in trees:
        assert tree_cf_index(t) == decide_tree(t)[0], t.edges


def test_index_runs_no_witness_replay(monkeypatch, needs_three_tree):
    import cfcolor.tree as tree_mod

    def no_replay(*_args):
        raise AssertionError("tree_cf_index read off a witness")

    monkeypatch.setattr(tree_mod, "_replay_f", no_replay)
    assert [tree_cf_index(t) for t in (path(2), path(5), needs_three_tree)] == [1, 2, 3]


def _shuffled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> Graph:
    """The same tree under random vertex ids, edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return build_graph(n, out)


def _assert_same_witness(t: Graph) -> None:
    assert decide_tree_two(t) == naive_search_f(t), t.edges


def test_witness_matches_reference_dp_on_all_small_trees():
    for n in range(3, 8):
        for _, t in all_labeled_trees(n):
            _assert_same_witness(t)


def test_witness_matches_reference_dp_on_random_trees():
    rng = SplitMix64(77)
    for n in (*range(3, 60), 100, 250, 500, 1000, 2000):
        _assert_same_witness(random_tree(n, rng.next_u64()))


def test_witness_matches_reference_dp_on_stars():
    for d in range(2, 41):
        _assert_same_witness(star(d + 1))


def _seeded_random_trees() -> list[Graph]:
    # the trees of test_witness_matches_reference_dp_on_random_trees
    rng = SplitMix64(77)
    return [random_tree(n, rng.next_u64()) for n in (*range(3, 60), 100, 250, 500, 1000, 2000)]


def _spider(rng: random.Random, legs: list[int]) -> Graph:
    """Legs of the given lengths around centre 0, shuffled."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for v in range(nxt, nxt + length):
            edges.append((prev, v))
            prev = v
        nxt += length
    return _shuffled(rng, nxt, edges)


def _caterpillar(rng: random.Random, pendants: list[int]) -> Graph:
    """A spine with the given number of pendant leaves per spine vertex,
    shuffled."""
    spine = len(pendants)
    edges = [(v, v + 1) for v in range(spine - 1)]
    nxt = spine
    for v, count in enumerate(pendants):
        for _ in range(count):
            edges.append((v, nxt))
            nxt += 1
    return _shuffled(rng, nxt, edges)


def _shuffled_spiders_and_caterpillars() -> Iterator[Graph]:
    rng = random.Random(55)
    for _ in range(60):
        yield _spider(rng, [rng.randint(1, 4) for _ in range(rng.randint(3, 9))])
        yield _caterpillar(rng, [rng.randint(0, 4) for _ in range(rng.randint(2, 12))])


def _high_degree_hubs() -> Iterator[Graph]:
    # spiders and caterpillars whose hubs have degree 17-200
    rng = random.Random(17)
    for _ in range(8):
        yield _spider(rng, [rng.randint(1, 3) for _ in range(rng.randint(17, 200))])
        yield _caterpillar(rng, [rng.randint(16, 198) for _ in range(rng.randint(2, 5))])


def test_witness_matches_reference_dp_on_shuffled_spiders_and_caterpillars():
    for t in _shuffled_spiders_and_caterpillars():
        _assert_same_witness(t)


def test_witness_matches_reference_dp_on_free_trees():
    # every tree shape on 3-14 vertices, each under two seeded relabelings
    nx = pytest.importorskip("networkx")
    rng = random.Random(14)
    for n in range(3, 15):
        for shape in nx.nonisomorphic_trees(n):
            for _ in range(2):
                _assert_same_witness(_shuffled(rng, n, list(shape.edges())))


def test_witness_matches_reference_dp_at_hubs_of_degree_17_to_200():
    for d in range(17, 201):
        _assert_same_witness(star(d + 1))
    for t in _high_degree_hubs():
        _assert_same_witness(t)


def test_reach_rows_hold_only_the_four_slots():
    # docs/tree_automaton.md, the four-slot lemma: no vertex reaches an
    # F-degree outside (0, 1, dv - 1, dv), whatever its parent edge
    trees = [t for n in range(3, 8) for _, t in all_labeled_trees(n)]
    trees += _seeded_random_trees() + list(_shuffled_spiders_and_caterpillars())
    for t in trees:
        for v, reached in enumerate(naive_feasible_f_degrees(t)):
            assert reached <= {0, 1, t.degree(v) - 1, t.degree(v)}, (t.edges, v)


def test_every_shape_occurs_and_keeps_the_reference_witness():
    # docs/tree_automaton.md: the automaton has 21 shapes, each that of a
    # non-root vertex of some tree. Each shape is realized by a vertex of
    # degree 2, 3 or 4 whose children have shapes realized before; hung below
    # the path 0 - 1, the vertex gets id 2 and vertex 1 is the root.
    import cfcolor.tree as tree_mod

    children_of: dict[int, tuple[int, ...]] = {0: ()}
    grown = True
    while grown:
        grown = False
        for d in (2, 3, 4):
            for kids in itertools.combinations_with_replacement(sorted(children_of), d - 1):
                fold = d - 2
                for c in kids:
                    fold = tree_mod._STEP[fold][c]
                if tree_mod._SHAPE[fold] not in children_of:
                    children_of[tree_mod._SHAPE[fold]] = kids
                    grown = True
    assert sorted(children_of) == list(range(21))
    for shape, kids in children_of.items():
        edges = [(0, 1)]
        below = [(1, shape)]
        while below:
            parent, s = below.pop()
            edges.append((parent, len(edges) + 1))
            below.extend((len(edges), c) for c in children_of[s])
        t = build_graph(len(edges) + 1, edges)
        rooting = tree_mod._require_tree(t, 2)
        assert (rooting[0][0], tree_mod._forward_f(rooting)[1][2]) == (1, shape)
        _assert_same_witness(t)


def test_automaton_tables_are_fixed_and_in_range():
    import cfcolor.tree as tree_mod

    folds = len(tree_mod._STEP)
    assert len(tree_mod._SHAPE) == len(tree_mod._GOAL) == folds
    assert all(len(row) == 21 and all(0 <= fold < folds for fold in row) for row in tree_mod._STEP)
    assert all(1 <= shape < 21 for shape in tree_mod._SHAPE)
    assert all(-1 <= goal < 4 for goal in tree_mod._GOAL)
    assert [len(by_slot) for by_slot in tree_mod._PINS] == [4, 4, 4]
    assert all(len(pins) == 21 and all(-1 <= p < 4 for pair in pins for p in pair)
               for by_slot in tree_mod._PINS for pins in by_slot)
    # built once at import: no module-level container a call could change
    assert [name for name, value in vars(tree_mod).items() if not name.startswith("__")
            and isinstance(value, (list, dict, set, bytearray))] == []


# Extension: per n, how many free trees on n vertices need 3 colors, and how
# many of those are leaf-minimal (deleting any one leaf leaves a tree that
# needs at most 2). Confirmed against naive_search_f for every n up to 16.
_FREE_TREES = (1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)  # OEIS A000055
_FREE_TREES_NEEDING_3 = (0, 0, 0, 1, 2, 6, 12, 34, 78, 204, 507, 1332, 3442, 9086)
_LEAF_MINIMAL_NEEDING_3 = {6: 1, 10: 3, 14: 7, 16: 1}


def test_free_tree_census():
    nx = pytest.importorskip("networkx")
    trees, needing_3, leaf_minimal = [], [], {}
    for n in range(3, 17):
        trees.append(0)
        needing_3.append(0)
        for shape in nx.nonisomorphic_trees(n):
            edges = list(shape.edges())
            trees[-1] += 1
            if tree_cf_index(build_graph(n, edges)) < 3:
                continue
            needing_3[-1] += 1
            # ids above the deleted leaf x move down by one
            if all(tree_cf_index(build_graph(n - 1, [(u - (u > x), v - (v > x))
                                                      for u, v in edges if x not in (u, v)])) < 3
                   for x in shape if shape.degree(x) == 1):
                leaf_minimal[n] = leaf_minimal.get(n, 0) + 1
    assert (tuple(trees), tuple(needing_3)) == (_FREE_TREES, _FREE_TREES_NEEDING_3)
    assert leaf_minimal == _LEAF_MINIMAL_NEEDING_3


def test_tree_check_returns_the_reference_rooting():
    # the DP runs on the rooting the tree check returns. Its root and parents
    # must be the reference's, its order breadth-first from the root, and each
    # vertex's children its neighbours but the parent, in neighbour-tuple
    # order, so that sorted they are the reference's children. The blocks are
    # read with a running end index into the order, as the replay reads them
    from cfcolor.tree import _require_tree

    trees = [t for n in range(2, 8) for _, t in all_labeled_trees(n)]
    rng = SplitMix64(91)
    trees.extend(random_tree(2 + rng.next_below(59), rng.next_u64()) for _ in range(200))
    trees.extend(_shuffled_spiders_and_caterpillars())
    for t in trees:
        order, deg, parent = _require_tree(t, 1)
        root, _, _, ref_children = reference_rooting(t)
        assert (order[0], parent[root]) == (root, root), t.edges
        assert all(parent[c] == v for v in range(t.n) for c in ref_children[v]), t.edges
        blocks, end = [], 1
        for v in order:
            start, end = end, end + deg[v] - (v != root)
            blocks.append(order[start:end])
        # breadth-first: the children of the vertices, taken in order, follow the root
        assert sorted(order) == list(range(t.n))
        assert end == t.n, t.edges
        assert [root] + [c for block in blocks for c in block] == order, t.edges
        for v, block in zip(order, blocks):
            assert block == [u for u in t.neighbours[v] if u != parent[v]], t.edges
            assert sorted(block) == ref_children[v], t.edges
        assert deg == [t.degree(v) for v in range(t.n)]


def test_automaton_steps_commute():
    # docs/tree_automaton.md, Fact 4: folding in a child of shape a and then
    # one of shape b lands where b then a does, from every fold. So the fold
    # of a vertex does not depend on the order of its children, and folding
    # each vertex into its parent along the breadth-first order gives the
    # shapes that children in ascending id order give
    import cfcolor.tree as tree_mod

    step = tree_mod._STEP
    assert len(step) == 41
    for fold, row in enumerate(step):
        for a, b in itertools.product(range(21), repeat=2):
            assert step[row[a]][b] == step[row[b]][a], (fold, a, b)


def test_witness_slots_hold_at_most_one_child_on_their_side():
    # docs/tree_automaton.md, Fact 5: in every witness a vertex at slot 0 or
    # 1 has at most one F child and a vertex at slot 2 or 3 at most one
    # non-F child, so at most one child that may go either way leaves the
    # replay's default side. The tree on 2 vertices has no witness to check.
    import cfcolor.tree as tree_mod

    trees = itertools.chain((t for n in range(3, 9) for _, t in all_labeled_trees(n)),
                            _shuffled_spiders_and_caterpillars())
    for t in trees:
        f_edges = decide_tree_two(t)
        if f_edges is None:
            continue
        parent = tree_mod._require_tree(t, 2)[2]
        # per vertex, its F and non-F child edges and the membership of its
        # parent edge
        kids, up = [[0, 0] for _ in range(t.n)], [0] * t.n
        for e, (u, w) in enumerate(t.edges):
            p, c = (u, w) if parent[w] == u else (w, u)
            x = e in f_edges
            kids[p][x] += 1
            up[c] = x
        for v, (out_f, in_f) in enumerate(kids):
            f, dv = in_f + up[v], t.degree(v)
            assert f <= 1 or f >= dv - 1, (t.edges, v)
            assert f > 1 or in_f <= 1, (t.edges, v)
            assert f < dv - 1 or out_f <= 1, (t.edges, v)


@pytest.mark.parametrize("g", [
    # n - 1 edges and no leaf: some vertex is isolated
    pytest.param(build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)]), id="c4-isolated-first"),
    pytest.param(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]), id="c4-isolated-last"),
    pytest.param(build_graph(7, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)]),
                 id="two-triangles-isolated-middle"),
])
def test_leafless_graphs_are_disconnected(g, tmp_path, capsys):
    for dp in (decide_tree_two, decide_tree, tree_cf_index):
        with pytest.raises(NotATreeError, match="disconnected$"):
            dp(g)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(format_edge_list(g))
    assert main(["decide-tree", "--input", str(graph_file)]) == 2
    assert capsys.readouterr().err == "error: input graph is not a tree: disconnected\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_relabelling_preserves_index_and_witness_validity(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    t = random_tree(n, data.draw(st.integers(min_value=0, max_value=2**32)))
    h = _shuffled(random.Random(data.draw(st.integers(min_value=0, max_value=2**32))),
                  n, list(t.edges))
    index, f_edges = decide_tree(h)
    assert index == tree_cf_index(t)
    if index == 2:
        assert isinstance(check_f_certificate(h, f_edges), TreeFCertificate)
        assert verify_cf(h, coloring_from_f(h, f_edges)).conflict_free()
    else:
        assert f_edges is None
