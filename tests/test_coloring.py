import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor import coloring
from cfcolor.coloring import (
    MASK_WIDTH,
    UNCOLORED,
    EdgeColoring,
    closed_neighborhood,
    colors_used,
    format_coloring,
    parse_coloring,
    unique_color,
    verify_cf,
)
from cfcolor.bipartite import bipartite_scf_coloring
from cfcolor.errors import FormatError, SizeMismatchError
from cfcolor.generators import complete, complete_bipartite, path, random_bipartite
from cfcolor.graph import Bipartition, Graph, bipartition, build_graph

from reference import naive_report


# Palettes on both sides of verify_cf's mask width: contiguous 1..k, sparse
# ones with gaps (as general mode's levels leave), and colors near 10**9.
PALETTES = st.one_of(
    st.integers(min_value=1, max_value=4).map(lambda k: list(range(1, k + 1))),
    st.lists(st.integers(min_value=1, max_value=2 * MASK_WIDTH), min_size=1, max_size=6,
             unique=True).map(sorted),
    st.lists(st.integers(min_value=10**9 - 6, max_value=10**9), min_size=1, max_size=4,
             unique=True).map(sorted),
)


@st.composite
def graph_with_coloring(draw, max_n: int = 8, max_k: int = 4, palettes=None):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    g = build_graph(n, edges)
    if palettes is None:
        k = draw(st.integers(min_value=1, max_value=max_k))
        cols = draw(
            st.lists(
                st.integers(min_value=0, max_value=k), min_size=g.m, max_size=g.m
            )
        )
    else:
        palette = draw(palettes)
        k = palette[-1]
        cols = draw(st.lists(st.sampled_from([UNCOLORED, *palette]), min_size=g.m, max_size=g.m))
    return g, EdgeColoring(k=k, colors=tuple(cols))


def test_edge_coloring_validates_range():
    with pytest.raises(ValueError):
        EdgeColoring(k=2, colors=(1, 3))
    with pytest.raises(ValueError):
        EdgeColoring(k=2, colors=(-1,))
    with pytest.raises(ValueError, match=r"^edge 1 has color 3 outside 0\.\.2$"):
        EdgeColoring(k=2, colors=(1, 3, -1))


def test_is_total():
    assert EdgeColoring(k=2, colors=(1, 2)).is_total()
    assert not EdgeColoring(k=2, colors=(1, UNCOLORED)).is_total()


def test_closed_neighborhood_c4(c4):
    assert closed_neighborhood(c4, 0) == [0, 1, 3]


def test_closed_neighborhood_includes_self(p3):
    assert closed_neighborhood(p3, 0) == [0, 1]
    assert closed_neighborhood(p3, 1) == [0, 1]


def test_verify_cf_counts_shared_edge_once(p3):
    # Both edges colored 1: color 1 appears twice in either closed
    # neighborhood, so nothing appears exactly once.
    col = EdgeColoring(k=1, colors=(1, 1))
    assert verify_cf(p3, col).unsatisfied == (0, 1)
    col2 = EdgeColoring(k=2, colors=(1, 2))
    assert verify_cf(p3, col2).unsatisfied == ()


def test_uncolored_edges_are_invisible(p4):
    col = EdgeColoring(k=1, colors=(1, UNCOLORED, 1))
    # Middle edge sees colors {1, 1} from its neighbors plus nothing of
    # its own; no color is unique. End edges see only one colored edge each
    # (themselves).
    assert verify_cf(p4, col).unsatisfied == (1,)


def test_satisfied_partial_survives_fresh_color_fill():
    # Filling every uncolored edge with one color absent from a satisfying
    # partial coloring must keep every edge satisfied: the old witness colors
    # still occur exactly once, so re-verification is a pure formality.
    instances = [complete_bipartite(2, 3), complete_bipartite(3, 3), path(6)]
    for seed in (3, 11):
        g = random_bipartite(5, 5, 0.6, seed)
        if all(g.neighbours[v] for v in range(g.n)):
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


def _dict_unique_color(count_u: dict[int, int], count_v: dict[int, int], own: int) -> int | None:
    # unique_color's rule on dicts holding only the colors present
    return min((x for x in count_u.keys() | count_v.keys()
                if count_u.get(x, 0) + count_v.get(x, 0) - (x == own) == 1), default=None)


def test_unique_color_same_on_dict_and_list_counts():
    rng = random.Random(5)
    for _ in range(3000):
        k = rng.randint(1, 8)
        per_side = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(k + 1)] for _ in range(2)]
        own = rng.randint(0, k)
        dicts = [{x: c for x, c in enumerate(counts) if x and c} for counts in per_side]
        want = _dict_unique_color(dicts[0], dicts[1], own)
        once = [x for x in range(1, k + 1)
                if per_side[0][x] + per_side[1][x] - (x == own) == 1]
        assert want == (once[0] if once else None)
        # slot 0 counts uncolored edges and is never read; the palette may
        # run past the largest color present, up to the end of the lists
        highest = max((x for d in dicts for x in d), default=0)
        for top in range(highest, k + 1):
            assert unique_color(per_side[0], per_side[1], own, range(1, top + 1)) == want
        # verify_cf's mask rule on a graph with these counts: edge 0 is uv,
        # every other edge hangs a leaf off u or v. uv itself is one of the
        # edges counted at each end, so own's counts are raised to 1 if 0.
        if own:
            for counts in per_side:
                counts[own] = max(counts[own], 1)
        edges, cols = [(0, 1)], [own]
        for end, counts in enumerate(per_side):
            for x, cnt in enumerate(counts):
                for _ in range(cnt - (x == own != UNCOLORED)):
                    edges.append((end, len(edges) + 1))
                    cols.append(x)
        star = build_graph(len(edges) + 1, edges)
        report = verify_cf(star, EdgeColoring(k=k, colors=tuple(cols)))
        dicts = [{x: c for x, c in enumerate(counts) if x and c} for counts in per_side]
        assert report.witness.get(0) == _dict_unique_color(dicts[0], dicts[1], own)


@settings(max_examples=300)
@given(graph_with_coloring(palettes=PALETTES))
def test_verify_cf_matches_naive_recount(gc):
    g, col = gc
    expected_unsat, expected_witness = naive_report(g, col)
    report = verify_cf(g, col)
    assert report.unsatisfied == expected_unsat
    assert report.witness == expected_witness


def _k12_colorings():
    # K12 has 66 edges: enough for more distinct colors than the mask width
    rng = random.Random(12)
    m = complete(12).m
    spread = rng.sample(range(1, m + 1), m)
    yield "largest-at-width", [x if x <= MASK_WIDTH else rng.randint(0, MASK_WIDTH) for x in spread]
    yield "one-over-width", [MASK_WIDTH + 1 if e == 7 else rng.randint(0, 3) for e in range(m)]
    yield "more-distinct-than-width", spread
    yield "mostly-distinct", [rng.choice((UNCOLORED, x, spread[0])) for x in spread]
    yield "near-a-billion", [10**9 - rng.randint(0, 70) for _ in range(m)]
    yield "gaps", [rng.choice((UNCOLORED, 1, 5, 9, 40, MASK_WIDTH)) for _ in range(m)]


@pytest.mark.parametrize("colors", [pytest.param(c, id=name) for name, c in _k12_colorings()])
def test_verify_cf_either_side_of_the_mask_width(colors):
    # colors up to MASK_WIDTH take the bit-mask path, whose witness decodes
    # mask bits; a larger color takes the per-vertex once-list path, whose
    # witness holds the colors themselves
    g = complete(12)
    col = EdgeColoring(k=max(colors), colors=tuple(colors))
    report = verify_cf(g, col)
    assert (report.unsatisfied, report.witness) == naive_report(g, col)
    assert report.witness._wide == (max(colors) > MASK_WIDTH)


def _caterpillar(spine: int, legs: int) -> Graph:
    # a path on vertices 0..spine-1, each spine vertex with its own legs
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return build_graph(spine * (legs + 1), edges)


def _wide_colorings(m: int):
    rng = random.Random(m)
    repeated = [rng.choice((UNCOLORED, MASK_WIDTH + 1, MASK_WIDTH + 2, 10**9)) for _ in range(m)]
    yield "distinct", [MASK_WIDTH + 1 + e for e in range(m)]
    yield "repeated", repeated
    yield "repeated-and-one-singleton", [10**9 - 1 if e == m // 2 else x
                                         for e, x in enumerate(repeated)]


@pytest.mark.parametrize("g", [pytest.param(complete_bipartite(1, 300), id="star-300"),
                               pytest.param(_caterpillar(10, 30), id="caterpillar-10x30")])
def test_wide_colors_at_high_degree_match_the_naive_recount(g):
    # every color is above the mask width, at vertices of degree up to 300
    assert max(map(len, g.neighbours)) >= 30
    for name, colors in _wide_colorings(g.m):
        col = EdgeColoring(k=max(colors), colors=tuple(colors))
        report = verify_cf(g, col)
        assert (report.unsatisfied, report.witness) == naive_report(g, col), name


def test_wide_colors_match_the_naive_recount_with_few_or_many_distinct():
    # colors above MASK_WIDTH, with at most MASK_WIDTH distinct ones or more;
    # uncolored edges throughout
    rng = random.Random(30)
    kinds = {"few": 0, "many": 0}
    for case in range(400):
        # odd cases have enough edges for more than MASK_WIDTH distinct colors
        n = rng.randint(13, 40) if case % 2 else rng.randint(2, 40)
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(MASK_WIDTH + 10, min(len(pairs), 200)) if case % 2 else \
            rng.randint(1, min(len(pairs), 150))
        g = build_graph(n, rng.sample(pairs, m))
        distinct = rng.choice((MASK_WIDTH + 1, 2 * MASK_WIDTH, g.m) if case % 2 else
                              (1, 2, MASK_WIDTH))
        low = rng.choice((MASK_WIDTH + 1, 10**9 - 3 * g.m))
        palette = rng.sample(range(low, low + 3 * g.m + 3), min(distinct, g.m))
        colors = [rng.choice(palette) if rng.random() < 0.9 else UNCOLORED for _ in range(g.m)]
        if max(colors) <= MASK_WIDTH:
            continue
        kinds["few" if len(set(colors) - {UNCOLORED}) <= MASK_WIDTH else "many"] += 1
        col = EdgeColoring(k=max(colors), colors=tuple(colors))
        report = verify_cf(g, col)
        assert (report.unsatisfied, report.witness) == naive_report(g, col), case
    assert min(kinds.values()) >= 50, kinds


def test_wide_distinct_colors_on_a_large_star_scan_two_colors_per_edge_end(monkeypatch):
    # The centre sees every color once. Each scan of a vertex's once-seen
    # list stops within deg(other end) + 1 steps: at most 2 on the centre's
    # list, whose other end is a leaf, and 1 on a leaf's list of one color.
    # Checking each edge against the centre's full color set instead would
    # take m steps per edge.
    steps: list[int] = []

    class _CountedList(list):
        def __iter__(self):
            steps.append(0)
            for x in list.__iter__(self):
                steps[-1] += 1
                yield x

    monkeypatch.setattr(coloring, "sorted", lambda items: _CountedList(sorted(items)),
                        raising=False)
    m = 20_000
    g = complete_bipartite(1, m)
    col = EdgeColoring(k=MASK_WIDTH + m, colors=tuple(range(MASK_WIDTH + 1, MASK_WIDTH + m + 1)))
    report = verify_cf(g, col)
    # edge 0 has the smallest color and is once at both ends; every other
    # edge sees color MASK_WIDTH + 1 once, on edge 0
    assert report.unsatisfied == ()
    assert report.witness == {e: MASK_WIDTH + 1 for e in range(m)}
    assert len(steps) == 2 * m
    assert max(steps) <= 2


def _assert_reads_like_dict(witness, expected: dict[int, int]) -> None:
    assert len(witness) == len(expected)
    assert list(witness) == list(expected) == sorted(expected)
    assert list(witness.items()) == list(expected.items())
    assert repr(witness) == repr(expected) and str(witness) == str(expected)
    assert witness == expected and expected == witness
    assert not (witness != expected or expected != witness)
    assert dict(witness) == expected
    for e in range(-1, max(expected, default=0) + 2):
        assert (e in witness) == (e in expected)
        assert witness.get(e) == expected.get(e)
    if expected:
        e = next(iter(expected))
        assert witness[e] == expected[e]
        changed = {**expected, e: expected[e] + 1}
        assert witness != changed and changed != witness
        assert witness != {} and {} != witness
    assert witness != list(expected) and list(expected) != witness


@pytest.mark.parametrize("colors", [pytest.param(c, id=name) for name, c in _k12_colorings()]
                         + [pytest.param([1] * 66, id="all-unsatisfied")])
def test_witness_reads_like_the_reference_dict(colors):
    # on either side of the mask width, with and without unsatisfied edges
    g = complete(12)
    col = EdgeColoring(k=max(colors), colors=tuple(colors))
    report = verify_cf(g, col)
    expected_unsat, expected = naive_report(g, col)
    assert report.unsatisfied == expected_unsat
    _assert_reads_like_dict(report.witness, expected)
    # a report still copies, compares and hashes by its fields
    again = verify_cf(g, col)
    assert again == report and hash(again) == hash(report)
    assert dataclasses.replace(report) == report
    assert dataclasses.replace(report, witness=dict(expected)) == report
    assert dataclasses.replace(report, witness={-1: 1}) != report


@pytest.mark.parametrize("top", [MASK_WIDTH, MASK_WIDTH + 1], ids=["masks", "dicts"])
def test_witness_is_read_only_on_both_sides_of_the_mask_width(top):
    g = complete_bipartite(1, 4)
    col = EdgeColoring(k=top, colors=(top, 1, 1, 3))
    report = verify_cf(g, col)
    expected = naive_report(g, col)[1]
    assert expected == {0: 3, 1: 3, 2: 3, 3: 3}
    with pytest.raises(TypeError):
        report.witness[0] = 5
    with pytest.raises(TypeError):
        del report.witness[0]
    _assert_reads_like_dict(report.witness, expected)


def test_witness_of_a_conflict_free_coloring_is_decoded_once():
    g = complete_bipartite(1, 4)  # a star: every edge sees the one edge of color 1
    col = EdgeColoring(k=2, colors=(2, 2, 1, 2))
    report = verify_cf(g, col)
    assert report.unsatisfied == ()
    assert report.witness._decoded() is report.witness._decoded()
    _assert_reads_like_dict(report.witness, naive_report(g, col)[1])


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


@pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize("row, message", [
    ("9 1", "edge ids must be 0..6 in order, got 9 at line {at}"),
    ("{at} 4", "edge {at} has color 4 outside 0..3"),
    ("{at} -1", "edge {at} has color -1 outside 0..3"),
], ids=["bad-id", "color-above-k", "negative-color"])
def test_bad_row_raises_its_error_wherever_it_sits(at, row, message):
    # a canonical text fails the bulk checks and is walked row by row, so
    # the first bad row raises what the row-by-row check alone raises
    rows = [f"{e} {e % 4}" for e in range(7)]
    rows[at] = row.format(at=at)
    with pytest.raises(FormatError) as info:
        parse_coloring("7 3\n" + "".join(r + "\n" for r in rows))
    assert str(info.value) == message.format(at=at)


def test_verify_rejects_size_mismatch(p3):
    with pytest.raises(SizeMismatchError):
        verify_cf(p3, EdgeColoring(k=2, colors=(1,)))
