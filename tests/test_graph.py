import itertools

import pytest
from hypothesis import given, strategies as st

from cfcolor.errors import (
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)
from cfcolor.generators import complete_bipartite
from cfcolor.graph import (
    Bipartition,
    OddCycle,
    bipartition,
    build_graph,
    components,
    format_edge_list,
    has_isolated_vertex,
    parse_edge_list,
)

from reference import brute_force_bipartite


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, k in zip(pairs, keep) if k])


def test_build_graph_basics(c4):
    assert c4.n == 4
    assert c4.m == 4
    assert c4.degree(0) == 2
    assert c4.adjacency[0] == ((1, 0), (3, 3))
    assert c4.edge_id(2, 3) == 2
    assert c4.edge_id(0, 2) is None


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError) as exc:
        build_graph(3, [(0, 1), (2, 2)])
    assert exc.value.position == 1


def test_build_graph_rejects_duplicate_either_orientation():
    with pytest.raises(DuplicateEdgeError) as exc:
        build_graph(2, [(0, 1), (1, 0)])
    assert exc.value.position == 1


def test_build_graph_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(-1, 2)])


def test_build_graph_rejects_negative_vertex_count():
    # the vertex count is at fault, not an edge: there may be none
    for n in (-1, -2):
        with pytest.raises(SizeTooSmallError) as exc:
            build_graph(n, [])
        assert str(exc.value) == f"size too small: vertex count must be >= 0, got {n}"


def test_bipartition_c4_sides(c4):
    b = bipartition(c4)
    assert isinstance(b, Bipartition)
    assert b.side == ("X", "Y", "X", "Y")


def test_bipartition_k33_puts_first_side_on_x():
    b = bipartition(complete_bipartite(3, 3))
    assert isinstance(b, Bipartition)
    assert b.x_vertices() == [0, 1, 2]
    assert b.y_vertices() == [3, 4, 5]


def test_bipartition_smallest_vertex_is_x_per_component():
    g = build_graph(4, [(0, 1), (2, 3)])
    b = bipartition(g)
    assert b.side[0] == "X" and b.side[2] == "X"


def test_bipartition_odd_cycle_witness(c5):
    w = bipartition(c5)
    assert isinstance(w, OddCycle)
    verts = w.vertices
    assert len(verts) % 2 == 1 and len(verts) >= 3
    assert len(set(verts)) == len(verts)
    ring = list(verts) + [verts[0]]
    for a, b in zip(ring, ring[1:]):
        assert c5.edge_id(a, b) is not None


@given(graphs())
def test_bipartition_agrees_with_brute_force(g):
    result = bipartition(g)
    assert isinstance(result, Bipartition) == brute_force_bipartite(g)
    if isinstance(result, OddCycle):
        verts = result.vertices
        assert len(verts) % 2 == 1
        ring = list(verts) + [verts[0]]
        assert all(g.edge_id(a, b) is not None for a, b in zip(ring, ring[1:]))
    else:
        for u, v in g.edges:
            assert result.side[u] != result.side[v]


def test_components_sorted():
    g = build_graph(6, [(4, 5), (0, 1), (1, 2)])
    assert components(g) == [(0, 1, 2), (3,), (4, 5)]


def test_has_isolated_vertex():
    assert has_isolated_vertex(build_graph(3, [(0, 1)]))
    assert not has_isolated_vertex(build_graph(2, [(0, 1)]))


def test_edge_list_round_trip(c4):
    text = format_edge_list(c4)
    assert text == "4 4\n0 1\n1 2\n2 3\n3 0\n"
    assert parse_edge_list(text).edges == c4.edges


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle-free graph\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 x\n",
        "a b\n0 1\n",
        "2 1\n0 1 2\n",
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


@pytest.mark.parametrize("text", ["2000000000 0", "65537 0\n", "65539 1\n0 1\n"])
def test_edge_list_rejects_vertex_count_beyond_its_edges(text, monkeypatch):
    import cfcolor.graph as graph_mod

    def refuse(*_args):
        raise AssertionError("build_graph called for a hostile header")

    monkeypatch.setattr(graph_mod, "build_graph", refuse)
    with pytest.raises(FormatError, match="over 2\\*m \\+ 65536"):
        parse_edge_list(text)


def test_edge_list_allows_65536_isolated_vertices_beyond_its_edges():
    g = parse_edge_list("65538 1\n0 1\n")
    assert (g.n, g.edges) == (65538, ((0, 1),))


@given(graphs(max_n=8))
def test_edge_list_round_trip_any(g):
    assert parse_edge_list(format_edge_list(g)).edges == g.edges
