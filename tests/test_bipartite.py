import dataclasses
import random

import pytest

from cfcolor.bipartite import (
    _fill,
    bipartite_cf_coloring,
    bipartite_scf_coloring,
    check_certificate,
    extend_to_cf,
    format_certificate,
    minimal_y_dominating_set,
)
from cfcolor.coloring import UNCOLORED, EdgeColoring, colors_used, verify_cf
from cfcolor.errors import (
    IsolatedVertexError,
    IsolatedYVertexError,
    NotBipartiteError,
    PartialNotSatisfyingError,
)
from cfcolor.general import (
    _ceil_log2,
    general_cf_coloring,
    greedy_vertex_coloring,
    recursive_scf_coloring,
)
from cfcolor.generators import (
    complete,
    complete_bipartite,
    cycle,
    path,
    random_bipartite,
    random_graph,
    random_tree,
    star,
)
from cfcolor.graph import Bipartition, bipartition, build_graph, components
from cfcolor.tree import tree_cf_index

import reference
from reference import fixed_point_y_dominating_set


def _bip(g) -> Bipartition:
    b = bipartition(g)
    assert isinstance(b, Bipartition)
    return b


def test_k33_certificate_golden():
    g = complete_bipartite(3, 3)
    cert = minimal_y_dominating_set(g, _bip(g))
    assert cert.dominating == (2,)
    assert cert.private == {2: (3, 4, 5)}
    # Vertex 2's smallest private neighbour is 3; edge (2, 3) has id 6.
    assert cert.matching == (6,)
    assert format_certificate(cert) == "D: 2\nP 2: 3 4 5\nM: 6\n"


def test_p4_certificate_golden(p4):
    # The ascending prune drops vertex 0 (vertex 2 already covers 1), so
    # vertex 2 alone dominates {1, 3} and both stay private to it.
    cert = minimal_y_dominating_set(p4, _bip(p4))
    assert cert.dominating == (2,)
    assert cert.private == {2: (1, 3)}
    assert cert.matching == (1,)
    assert format_certificate(cert) == "D: 2\nP 2: 1 3\nM: 1\n"


def test_minimality_every_member_has_private_neighbor():
    for seed in range(40):
        g = random_bipartite(6, 7, 0.4, seed)
        if g.m == 0:
            continue
        cert = minimal_y_dominating_set(g, _bip(g))
        for x in cert.dominating:
            assert cert.private[x], f"{x} has no private neighbour (seed {seed})"


def test_one_pass_matches_fixed_point_loop():
    checked = 0
    for seed in range(400):
        g = random_bipartite(2 + seed % 11, 2 + seed % 13, (0.1, 0.25, 0.5, 0.8)[seed % 4], seed)
        if g.m == 0 or not all(g.adjacency):
            continue
        b = _bip(g)
        assert minimal_y_dominating_set(g, b).dominating == fixed_point_y_dominating_set(g, b)
        checked += 1
    assert checked >= 300


def test_p4_partial_coloring(p4):
    col, _cert = bipartite_scf_coloring(p4, _bip(p4))
    assert col == EdgeColoring(k=2, colors=(UNCOLORED, 1, 2))
    assert verify_cf(p4, col).conflict_free()


def test_k33_partial_coloring_uses_both_colors():
    g = complete_bipartite(3, 3)
    col, _cert = bipartite_scf_coloring(g, _bip(g))
    assert col.k == 2
    assert sorted(c for c in col.colors if c) == [1, 2, 2]
    assert verify_cf(g, col).conflict_free()


def test_every_y_vertex_sees_exactly_one_colored_edge():
    for seed in range(60):
        g = random_bipartite(7, 7, 0.35, seed)
        if g.m == 0:
            continue
        b = _bip(g)
        col, _cert = bipartite_scf_coloring(g, b)
        for y in b.y_vertices():
            touched = [e for _, e in g.adjacency[y] if col.colors[e] != UNCOLORED]
            assert len(touched) == 1, f"y={y} seed={seed}"


def test_extend_to_cf_p4(p4):
    partial, _cert = bipartite_scf_coloring(p4, _bip(p4))
    total = extend_to_cf(p4, partial)
    assert total == EdgeColoring(k=3, colors=(3, 1, 2))
    assert verify_cf(p4, total).conflict_free()


def test_extend_uses_fresh_color_when_needed():
    g = complete_bipartite(3, 3)
    partial, _cert = bipartite_scf_coloring(g, _bip(g))
    total = extend_to_cf(g, partial)
    assert total.is_total()
    assert colors_used(total) == 3
    assert verify_cf(g, total).conflict_free()


def test_extend_picks_a_gap_color():
    # A satisfying partial whose palette skips color 1: the fill must use
    # the gap, not a color already present.
    g = path(4)
    partial = EdgeColoring(k=3, colors=(UNCOLORED, 2, 3))
    total = extend_to_cf(g, partial)
    assert total.colors == (1, 2, 3)


def test_extend_leaves_total_colorings_alone(p3):
    col = EdgeColoring(k=2, colors=(1, 2))
    assert extend_to_cf(p3, col) == col


def test_extend_rejects_unsatisfying_partial(p3):
    bad = EdgeColoring(k=1, colors=(1, 1))
    with pytest.raises(PartialNotSatisfyingError):
        extend_to_cf(p3, bad)


def test_bipartite_cf_coloring_end_to_end():
    for seed in range(60):
        g = random_bipartite(6, 8, 0.5, seed)
        if g.m == 0:
            continue
        total, cert = bipartite_cf_coloring(g)
        assert total.is_total()
        assert colors_used(total) <= 3
        assert verify_cf(g, total).conflict_free()
        assert check_certificate(g, _bip(g), cert)


# Seeded corpus for the constructions, which do not verify their output.
REFEREE_BIPARTITE = [
    g for seed in range(25)
    for g in (random_bipartite(3, 5, 0.5, seed), random_bipartite(6, 6, 0.3, seed),
              random_bipartite(9, 4, 0.6, seed))
    if g.m
] + [cycle(n) for n in (4, 6, 8)] + [complete_bipartite(1, 4), complete_bipartite(4, 5)]
REFEREE_TREES = [t for t in (random_tree(n, s) for n in range(6, 16) for s in range(1, 9))
                 if tree_cf_index(t) == 3]
REFEREE_GENERAL = [
    g for seed in range(25)
    for g in (random_graph(7, 0.5, seed), random_graph(10, 0.3, seed),
              random_graph(12, 0.6, seed))
    if g.m
] + [cycle(5), cycle(7), complete(6)]


def test_constructions_pass_the_referee():
    assert len(REFEREE_TREES) >= 10
    for g in REFEREE_BIPARTITE + REFEREE_TREES:
        total, cert = bipartite_cf_coloring(g)
        b = _bip(g)
        partial, partial_cert = bipartite_scf_coloring(g, b)
        assert reference.naive_report(g, total)[0] == ()
        assert total.is_total() and colors_used(total) <= 3
        assert check_certificate(g, b, cert)
        assert (total, cert) == (extend_to_cf(g, partial), partial_cert)
    for g in REFEREE_BIPARTITE + REFEREE_TREES + REFEREE_GENERAL:
        total, vc = general_cf_coloring(g)
        assert reference.naive_report(g, total)[0] == ()
        assert total.is_total() and colors_used(total) <= 2 * _ceil_log2(vc.k) + 1
        assert total == extend_to_cf(g, recursive_scf_coloring(g, vc))


def test_fill_equals_extend_on_satisfying_partials():
    partials = [(path(4), EdgeColoring(k=3, colors=(3, UNCOLORED, 3))),  # golden extend/gap-color
                (path(4), EdgeColoring(k=3, colors=(UNCOLORED, 2, 3))),
                (path(3), EdgeColoring(k=2, colors=(1, 2))),
                (path(3), EdgeColoring(k=4, colors=(UNCOLORED, 1)))]
    for g in REFEREE_BIPARTITE + REFEREE_TREES:
        partials.append((g, bipartite_scf_coloring(g, _bip(g))[0]))
    for g in REFEREE_BIPARTITE + REFEREE_TREES + REFEREE_GENERAL:
        partials.append((g, recursive_scf_coloring(g, greedy_vertex_coloring(g))))
    refused = []
    for g, partial in partials:
        unsatisfied, _ = reference.naive_report(g, partial)
        if unsatisfied:
            with pytest.raises(PartialNotSatisfyingError) as exc:
                extend_to_cf(g, partial)
            assert exc.value.unsatisfied == list(unsatisfied)
            refused.append(partial)
        else:
            assert _fill(partial.k, partial.colors) == extend_to_cf(g, partial)
    # the gap-color partial leaves edge 1 unsatisfied: only extend_to_cf checks
    assert refused == [partials[0][1]]
    assert _fill(3, (3, UNCOLORED, 3)) == EdgeColoring(k=3, colors=(3, 1, 3))


def test_bipartite_cf_rejects_odd_cycle(c5):
    with pytest.raises(NotBipartiteError) as exc:
        bipartite_cf_coloring(c5)
    assert exc.value.odd_cycle is not None
    assert len(exc.value.odd_cycle) % 2 == 1


def test_scf_rejects_isolated_vertex():
    from cfcolor.graph import build_graph

    g = build_graph(3, [(0, 1)])
    with pytest.raises(IsolatedVertexError):
        bipartite_scf_coloring(g, _bip(g))


def test_even_cycles_get_at_most_three_colors():
    for n in (4, 6, 8, 10):
        g = cycle(n)
        total, _cert = bipartite_cf_coloring(g)
        assert colors_used(total) <= 3
        assert verify_cf(g, total).conflict_free()


def test_check_certificate_accepts_genuine():
    for seed in range(40):
        g = random_bipartite(6, 6, 0.4, seed)
        if g.m == 0:
            continue
        b = _bip(g)
        assert check_certificate(g, b, minimal_y_dominating_set(g, b))


def test_check_certificate_rejects_tampering():
    g = complete_bipartite(3, 3)
    b = _bip(g)
    cert = minimal_y_dominating_set(g, b)

    # Nothing dominates Y any more.
    empty = dataclasses.replace(cert, dominating=(), private={}, matching=())
    assert not check_certificate(g, b, empty)
    # Vertex 3 has two D-neighbours, so it is not private to 1.
    fat = dataclasses.replace(
        cert, dominating=(1, 2), private={1: (3,), 2: (4, 5)}, matching=(3, 7)
    )
    assert not check_certificate(g, b, fat)
    # Edge 0 joins vertex 0 (outside D) to vertex 3.
    stray = dataclasses.replace(cert, matching=(0,))
    assert not check_certificate(g, b, stray)
    # Two matching edges sharing vertex 2 are not a matching.
    doubled = dataclasses.replace(cert, matching=(6, 7))
    assert not check_certificate(g, b, doubled)
    # Private set claimed empty for its owner.
    hollow = dataclasses.replace(cert, private={2: ()})
    assert not check_certificate(g, b, hollow)
    # D names the Y vertex 3.
    assert not check_certificate(g, b, dataclasses.replace(cert, dominating=(2, 3)))
    # Private sets keyed by more, or fewer, vertices than D holds.
    extra = dataclasses.replace(cert, private={1: (3,), 2: (4, 5)})
    assert not check_certificate(g, b, extra)
    assert not check_certificate(g, b, dataclasses.replace(cert, private={}))
    # Private neighbours and matching edges named by ids outside the graph:
    # -1 would index vertex 5's list or edge 8, n and m no list at all.
    assert cert.private == {2: (3, 4, 5)}
    for y in (-1, g.n, 99):
        outside = dataclasses.replace(cert, private={2: (3, 4, 5, y)})
        assert not check_certificate(g, b, outside)
    for eid in (-1, g.m):
        assert not check_certificate(g, b, dataclasses.replace(cert, matching=(eid,)))


def test_construction_is_deterministic():
    g = random_bipartite(8, 8, 0.5, 12345)
    b = _bip(g)
    assert bipartite_scf_coloring(g, b) == bipartite_scf_coloring(g, b)
    assert bipartite_cf_coloring(g) == bipartite_cf_coloring(g)


def test_p3_total_needs_only_two(p3):
    partial, _cert = bipartite_scf_coloring(p3, _bip(p3))
    assert partial.colors == (UNCOLORED, 1)
    total = extend_to_cf(p3, partial)
    assert total.colors == (2, 1)
    assert colors_used(total) == 2


def test_single_edge():
    total, cert = bipartite_cf_coloring(path(2))
    assert total.colors == (1,)
    assert cert.dominating == (0,)


def test_equal_certificates_and_reports_hash_equal():
    g = complete_bipartite(3, 4)
    b = _bip(g)
    (partial, cert), (partial2, cert2) = (bipartite_scf_coloring(g, b) for _ in range(2))
    assert cert == cert2 and cert is not cert2
    assert hash(cert) == hash(cert2)
    assert len({cert, cert2}) == 1
    report, report2 = verify_cf(g, partial), verify_cf(g, partial2)
    assert report == report2 and report is not report2
    assert hash(report) == hash(report2)
    assert len({report, report2}) == 1
    # the dict fields still take part in equality
    assert dataclasses.replace(cert, private={}) != cert
    assert dataclasses.replace(report, witness={}) != report


def _disjoint_union(g, h, rng):
    # h's vertices are interleaved with g's at random positions, so that
    # components do not occupy contiguous id ranges
    order = list(range(g.n + h.n))
    rng.shuffle(order)
    edges = [(order[u], order[v]) for u, v in g.edges]
    edges += [(order[g.n + u], order[g.n + v]) for u, v in h.edges]
    rng.shuffle(edges)
    return build_graph(g.n + h.n, edges)


def _flipped(b):
    return Bipartition(side=tuple("Y" if s == "X" else "X" for s in b.side))


def _lock_cases():
    rng = random.Random(7)
    for seed in range(120):
        g = random_bipartite(2 + seed % 9, 2 + seed % 11, (0.15, 0.3, 0.6)[seed % 3], seed)
        yield g
        h = random_bipartite(2 + seed % 5, 3 + seed % 4, 0.5, seed + 1000)
        yield _disjoint_union(g, h, rng)
    for n in range(2, 12):
        yield star(n)
    for a in range(1, 7):
        for b in range(1, 7):
            yield complete_bipartite(a, b)


def _assert_matches_reference(g, b):
    for side in (b, _flipped(b)):
        assert minimal_y_dominating_set(g, side) == \
            reference.recount_minimal_y_dominating_set(g, side)
        assert bipartite_scf_coloring(g, side) == reference.scan_bipartite_scf_coloring(g, side)


def test_construction_matches_the_recounting_reference():
    connected = disconnected = 0
    for g in _lock_cases():
        _assert_matches_reference(g, _bip(g))
        if len(components(g)) == 1:
            connected += 1
        else:
            disconnected += 1
    assert connected >= 100 and disconnected >= 150


def _shuffled_bipartite(rng, m: int, side: int):
    # m distinct pairs between two sides of `side` vertices, with the ids of
    # both sides interleaved at random and the edges in random order, so an
    # adjacency list (ascending edge id) is not in neighbour-id order;
    # vertices that drew no edge are dropped
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        pairs.add((rng.randrange(side), side + rng.randrange(side)))
    used = sorted({v for pair in pairs for v in pair})
    ids = list(range(len(used)))
    rng.shuffle(ids)
    new = dict(zip(used, ids))
    edges = [(new[u], new[v]) for u, v in sorted(pairs)]
    rng.shuffle(edges)
    return build_graph(len(used), edges)


def _benchmark_scale_cases():
    rng = random.Random(2022)
    g = _shuffled_bipartite(rng, 20_000, 2_500)
    yield pytest.param(g, id="20k-edges")
    yield pytest.param(_disjoint_union(g, _shuffled_bipartite(rng, 20_000, 2_500), rng),
                       id="two-20k-edge-components-interleaved")


@pytest.mark.parametrize("g", list(_benchmark_scale_cases()))
def test_one_pass_construction_at_benchmark_scale(g):
    assert any([w for w, _ in a] != sorted(w for w, _ in a) for a in g.adjacency)
    b = _bip(g)
    total, cert = bipartite_cf_coloring(g)
    assert cert == reference.recount_minimal_y_dominating_set(g, b)
    assert check_certificate(g, b, cert)
    # some member of D reaches its private neighbours out of id order
    order = {x: [y for y, _ in g.adjacency[x] if y in ys] for x, ys in cert.private.items()}
    assert any(order[x] != list(ys) for x, ys in cert.private.items())
    partial, partial_cert = bipartite_scf_coloring(g, b)
    assert (partial, partial_cert) == reference.scan_bipartite_scf_coloring(g, b)
    assert total == extend_to_cf(g, partial)


def test_level_subgraphs_match_the_recounting_reference():
    # Each class-halving level is built here as a graph of its own: its
    # edges are those whose endpoints' zero-based classes differ highest at
    # bit j, their vertices are renumbered in ascending order, and
    # bipartition gives the sides. The product's colors on the level must be
    # 2j plus the reference construction's colors on that graph.
    checked = 0
    for seed in range(40):
        g = random_graph(14 + seed % 9, 0.45, seed)
        if not all(g.adjacency):
            continue
        vc = greedy_vertex_coloring(g)
        colors = recursive_scf_coloring(g, vc).colors
        levels: dict[int, list[int]] = {}
        for eid, (u, v) in enumerate(g.edges):
            j = ((vc.class_of[u] - 1) ^ (vc.class_of[v] - 1)).bit_length() - 1
            levels.setdefault(j, []).append(eid)
        for j, cross in levels.items():
            used = sorted({w for eid in cross for w in g.edges[eid]})
            local = {w: i for i, w in enumerate(used)}
            sub = build_graph(len(used), [(local[g.edges[eid][0]], local[g.edges[eid][1]])
                                          for eid in cross])
            b = _bip(sub)
            _assert_matches_reference(sub, b)
            expected, _ = reference.scan_bipartite_scf_coloring(sub, b)
            assert [colors[eid] for eid in cross] == \
                [UNCOLORED if c == UNCOLORED else 2 * j + c for c in expected.colors]
            checked += 1
    assert checked >= 60


def test_side_labels_other_than_x_and_y_are_rejected():
    # the construction reads every vertex that is not on X as a Y vertex, so
    # a third label must not reach it
    g = build_graph(3, [(0, 1), (1, 2)])
    b = Bipartition(side=("X", "Z", "X"))
    for build in (minimal_y_dominating_set, bipartite_scf_coloring):
        with pytest.raises(NotBipartiteError):
            build(g, b)
    cert = minimal_y_dominating_set(g, Bipartition(side=("Y", "X", "Y")))
    assert not check_certificate(g, Bipartition(side=("Y", "X", "y")), cert)


def test_dominating_set_matches_reference_with_isolated_x_and_on_bad_input():
    # an isolated X vertex is allowed and never joins D
    g = build_graph(5, [(0, 1), (0, 3), (2, 3)])
    b = Bipartition(side=("X", "Y", "X", "Y", "X"))
    assert minimal_y_dominating_set(g, b) == reference.recount_minimal_y_dominating_set(g, b)
    # both check the sides before the Y degrees, and name the same vertex
    for bad, error in [
        (Bipartition(side=("X", "X", "X", "Y", "Y")), NotBipartiteError),
        (Bipartition(side=("X", "Y", "X", "Y")), NotBipartiteError),
        (Bipartition(side=("X", "Y", "X", "Y", "Y")), IsolatedYVertexError),
    ]:
        messages = []
        for build in (minimal_y_dominating_set, reference.recount_minimal_y_dominating_set):
            with pytest.raises(error) as info:
                build(g, bad)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
