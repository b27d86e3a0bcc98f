import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cfcolor.coloring import (
    UNCOLORED,
    EdgeColoring,
    closed_neighborhood,
    colors_used,
    format_coloring,
    is_satisfied,
    parse_coloring,
    unique_color,
    verify_cf,
)
from cfcolor.bipartite import bipartite_scf_coloring
from cfcolor.errors import FormatError, SizeMismatchError
from cfcolor.generators import complete_bipartite, path, random_bipartite
from cfcolor.graph import Bipartition, bipartition, build_graph

from reference import naive_report


@st.composite
def graph_with_coloring(draw, max_n: int = 8, max_k: int = 4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    g = build_graph(n, edges)
    k = draw(st.integers(min_value=1, max_value=max_k))
    cols = draw(
        st.lists(
            st.integers(min_value=0, max_value=k), min_size=g.m, max_size=g.m
        )
    )
    return g, EdgeColoring(k=k, colors=tuple(cols))


def test_edge_coloring_validates_range():
    with pytest.raises(ValueError):
        EdgeColoring(k=2, colors=(1, 3))
    with pytest.raises(ValueError):
        EdgeColoring(k=2, colors=(-1,))


def test_is_total():
    assert EdgeColoring(k=2, colors=(1, 2)).is_total()
    assert not EdgeColoring(k=2, colors=(1, UNCOLORED)).is_total()


def test_closed_neighborhood_c4(c4):
    assert closed_neighborhood(c4, 0) == [0, 1, 3]


def test_closed_neighborhood_includes_self(p3):
    assert closed_neighborhood(p3, 0) == [0, 1]
    assert closed_neighborhood(p3, 1) == [0, 1]


def test_is_satisfied_counts_shared_edge_once(p3):
    # Both edges colored 1: color 1 appears twice in either closed
    # neighborhood, so nothing appears exactly once.
    col = EdgeColoring(k=1, colors=(1, 1))
    assert not is_satisfied(p3, col, 0)
    col2 = EdgeColoring(k=2, colors=(1, 2))
    assert is_satisfied(p3, col2, 0)


def test_uncolored_edges_are_invisible(p4):
    col = EdgeColoring(k=1, colors=(1, UNCOLORED, 1))
    # Middle edge sees colors {1, 1} from its neighbors plus nothing of
    # its own; no color is unique.
    assert not is_satisfied(p4, col, 1)
    # End edges see only one colored edge each (themselves).
    assert is_satisfied(p4, col, 0)
    assert is_satisfied(p4, col, 2)


def test_satisfied_partial_survives_fresh_color_fill():
    # Filling every uncolored edge with one color absent from a satisfying
    # partial coloring must keep every edge satisfied: the old witness colors
    # still occur exactly once, so re-verification is a pure formality.
    instances = [complete_bipartite(2, 3), complete_bipartite(3, 3), path(6)]
    for seed in (3, 11):
        g = random_bipartite(5, 5, 0.6, seed)
        if all(g.adjacency[v] for v in range(g.n)):
            instances.append(g)
    for g in instances:
        side = bipartition(g)
        assert isinstance(side, Bipartition)
        partial, _ = bipartite_scf_coloring(g, side)
        assert verify_cf(g, partial).conflict_free()
        fresh = partial.k + 1
        filled = EdgeColoring(
            k=fresh,
            colors=tuple(fresh if c == UNCOLORED else c for c in partial.colors),
        )
        assert filled.is_total()
        assert verify_cf(g, filled).conflict_free()


def test_verify_cf_report(p4):
    col = EdgeColoring(k=1, colors=(1, UNCOLORED, 1))
    rep = verify_cf(p4, col)
    assert rep.unsatisfied == (1,)
    assert not rep.conflict_free()
    good = verify_cf(p4, EdgeColoring(k=2, colors=(1, 2, 1)))
    assert good.conflict_free()
    assert good.unsatisfied == ()


def test_verify_witness_is_smallest_unique_color(p3):
    rep = verify_cf(p3, EdgeColoring(k=3, colors=(2, 3)))
    assert rep.witness[0] == 2
    assert rep.witness[1] == 2


def test_unique_color_same_on_dict_and_list_counts():
    rng = random.Random(5)
    for _ in range(3000):
        k = rng.randint(1, 8)
        per_side = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(k + 1)] for _ in range(2)]
        own = rng.randint(0, k)
        dicts = [{x: c for x, c in enumerate(counts) if x and c} for counts in per_side]
        want = unique_color(dicts[0], dicts[1], own)
        once = [x for x in range(1, k + 1)
                if per_side[0][x] + per_side[1][x] - (x == own) == 1]
        assert want == (once[0] if once else None)
        # slot 0 counts uncolored edges and is never read; the palette may
        # run past the largest color present, up to the end of the lists
        highest = max((x for d in dicts for x in d), default=0)
        for top in range(highest, k + 1):
            assert unique_color(per_side[0], per_side[1], own, range(1, top + 1)) == want


@given(graph_with_coloring())
def test_verify_cf_matches_naive_recount(gc):
    g, col = gc
    expected_unsat, expected_witness = naive_report(g, col)
    report = verify_cf(g, col)
    assert report.unsatisfied == expected_unsat
    assert report.witness == expected_witness
    for e in range(g.m):
        assert is_satisfied(g, col, e) == (e not in expected_unsat)


@given(graph_with_coloring(max_n=6))
def test_unsatisfied_set_invariant_under_color_permutation(gc):
    g, col = gc
    base = verify_cf(g, col).unsatisfied
    perm = {0: 0}
    perm.update({c: (c % col.k) + 1 for c in range(1, col.k + 1)})
    permuted = EdgeColoring(k=col.k, colors=tuple(perm[c] for c in col.colors))
    assert verify_cf(g, permuted).unsatisfied == base


def test_colors_used():
    assert colors_used(EdgeColoring(k=5, colors=(2, UNCOLORED, 2, 4))) == 2
    assert colors_used(EdgeColoring(k=3, colors=(UNCOLORED,))) == 0


def test_coloring_round_trip():
    col = EdgeColoring(k=3, colors=(1, UNCOLORED, 3))
    text = format_coloring(col)
    assert text == "3 3\n0 1\n1 0\n2 3\n"
    assert parse_coloring(text) == col


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n",
        "2 2\n0 1\n",
        "1 2\n0 1\n1 2\n",
        "1 2\n1 1\n",
        "1 2\n0 3\n",
        "1 0\n0 1\n",
        "0 -1\n",
        "1 -1\n0 0\n",
    ],
)
def test_coloring_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_coloring(text)


def test_verify_rejects_size_mismatch(p3):
    with pytest.raises(SizeMismatchError):
        verify_cf(p3, EdgeColoring(k=2, colors=(1,)))
