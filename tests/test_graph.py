import gc
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor import graph as graph_mod
from cfcolor.coloring import EdgeColoring, format_coloring, parse_coloring
from cfcolor.errors import (
    CFColorError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    SizeTooSmallError,
    VertexOutOfRangeError,
)
from cfcolor.generators import complete_bipartite
from cfcolor.graph import (
    Bipartition,
    Graph,
    OddCycle,
    bipartition,
    build_graph,
    components,
    format_edge_list,
    parse_edge_list,
    read_int_table,
)

from reference import (
    brute_force_bipartite,
    first_edge_list_error,
    line_int_table,
    sorted_bfs_bipartition,
)


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
    assert c4.neighbours[0] == (1, 3)
    assert c4.incident[0] == (0, 3)
    assert c4.edges == ((0, 1), (1, 2), (2, 3), (3, 0))


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


@st.composite
def faulty_edge_lists(draw):
    """A vertex count and a simple edge list on it, with up to three faults
    injected at drawn positions: an endpoint out of range, a self loop, or a
    repeat of an earlier edge, possibly reversed."""
    n = draw(st.integers(min_value=-1, max_value=7))
    pairs = list(itertools.combinations(range(max(n, 0)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(edges)))
        kind = draw(st.sampled_from(["out-of-range", "self-loop", "duplicate", "reversed"]))
        if kind == "out-of-range":
            bad = draw(st.sampled_from([-2, -1, max(n, 0), max(n, 0) + 1]))
            ok = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
            fault = (bad, ok) if draw(st.booleans()) else (ok, bad)
        elif kind == "self-loop":
            w = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
            fault = (w, w)
        elif pos > 0:
            u, v = edges[draw(st.integers(min_value=0, max_value=pos - 1))]
            fault = (v, u) if kind == "reversed" else (u, v)
        else:
            continue
        edges.insert(pos, fault)
    return n, edges


@settings(max_examples=400)
@given(faulty_edge_lists())
def test_build_graph_first_error_matches_reference(case):
    n, edges = case
    expected = first_edge_list_error(n, edges)
    try:
        g = build_graph(n, edges)
    except CFColorError as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert expected is None
        assert g.edges == tuple(edges)
        pairs = [list(zip(a, ids)) for a, ids in zip(g.neighbours, g.incident)]
        assert all((v, pos) in pairs[u] and (u, pos) in pairs[v]
                   for pos, (u, v) in enumerate(edges))
        assert sum(map(len, g.neighbours)) == sum(map(len, g.incident)) == 2 * len(edges)
        assert all(list(ids) == sorted(ids) for ids in g.incident)


@settings(max_examples=400)
@given(faulty_edge_lists(), st.booleans())
def test_verify_reader_first_error_matches_reference(case, commented):
    # the verify reader checks canonical text in bulk and other text (here,
    # with a comment line) by build_graph's walk
    n, edges = case
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    expected = first_edge_list_error(n, edges)
    try:
        read = graph_mod._read_edges("# note\n" + text if commented else text)
    except CFColorError as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert expected is None
        assert (read[0], list(read[1])) == (n, edges)


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
    pairs = {frozenset(e) for e in c5.edges}
    for a, b in zip(ring, ring[1:]):
        assert frozenset((a, b)) in pairs


@given(graphs())
def test_bipartition_agrees_with_brute_force(g):
    result = bipartition(g)
    assert isinstance(result, Bipartition) == brute_force_bipartite(g)
    if isinstance(result, OddCycle):
        verts = result.vertices
        assert len(verts) % 2 == 1
        assert len(set(verts)) == len(verts)
        ring = list(verts) + [verts[0]]
        pairs = {frozenset(e) for e in g.edges}
        assert all(frozenset((a, b)) in pairs for a, b in zip(ring, ring[1:]))
    else:
        for u, v in g.edges:
            assert result.side[u] != result.side[v]


PIECES = st.lists(st.tuples(st.sampled_from(["bipartite", "odd-cycle"]),
                            st.integers(1, 4), st.integers(0, 4)), max_size=4)


def _pieces_graph(rng: random.Random, pieces: list[tuple[str, int, int]], bridges: int,
                  isolated: int) -> Graph:
    """A disjoint union of bipartite pieces (sides of a and b + 1 vertices,
    each cross pair an edge with probability 1/2) and odd cycles (length
    2a + 1 with b pendant vertices), plus isolated vertices and up to
    `bridges` random edges anywhere; then random vertex ids, edge order and
    orientation."""
    n = isolated
    edges: set[tuple[int, int]] = set()
    for kind, a, b in pieces:
        if kind == "bipartite":
            edges.update((n + x, n + a + y) for x in range(a) for y in range(b + 1)
                         if rng.random() < 0.5)
            n += a + b + 1
        else:
            length = 2 * a + 1
            edges.update((n + i, n + (i + 1) % length) for i in range(length))
            edges.update((n + rng.randrange(length + i), n + length + i) for i in range(b))
            n += length + b
    for _ in range(bridges if n >= 2 else 0):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in sorted(edges)]
    rng.shuffle(out)
    return build_graph(n, out)


@settings(max_examples=300)
@given(PIECES, st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_bipartition_matches_sorted_bfs(pieces, bridges, isolated, rng):
    g = _pieces_graph(rng, pieces, bridges, isolated)
    assert bipartition(g) == sorted_bfs_bipartition(g)


def test_bipartition_matches_sorted_bfs_on_a_seeded_corpus():
    kinds = {Bipartition: 0, OddCycle: 0}
    for seed in range(400):
        rng = random.Random(seed)
        # odd seeds may draw odd cycles; on even seeds only bridges make them
        kinds_drawn = ["bipartite", "odd-cycle"][:1 + seed % 2]
        pieces = [(rng.choice(kinds_drawn), rng.randint(1, 6), rng.randint(0, 6))
                  for _ in range(rng.randint(1, 5))]
        g = _pieces_graph(rng, pieces, rng.randint(0, 4), rng.randint(0, 3))
        result = bipartition(g)
        assert result == sorted_bfs_bipartition(g), (g.n, g.edges)
        kinds[type(result)] += 1
    assert min(kinds.values()) >= 100, kinds


def _union_find_components(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(members) for members in groups.values())


def test_components_sorted():
    g = build_graph(6, [(4, 5), (0, 1), (1, 2)])
    assert components(g) == [(0, 1, 2), (3,), (4, 5)]
    # components reads neighbour tuples in edge order, so shuffling the edge
    # list and flipping edges must not change its sorted output.
    with_isolated = 0
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, n)))
        expected = _union_find_components(n, edges)
        with_isolated += any(len(c) == 1 for c in expected)
        for _ in range(3):
            rng.shuffle(edges)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            assert components(build_graph(n, edges)) == expected
    assert with_isolated >= 20


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


def test_parsed_graph_memory_at_80k_edges():
    # A bipartite graph with 10,000 vertices per side and 80,000 edges, as
    # canonical text. Measured under tracemalloc with CPython 3.11, the Graph
    # that parse_edge_list returns holds 15.5 MiB: the edge tuples and their
    # ints, plus per vertex a tuple of neighbours and a tuple of edge ids.
    # One (neighbour, edge id) tuple per edge end instead held 21.9 MiB.
    rng = random.Random(2027)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 80_000:
        pairs.add((rng.randrange(10_000), 10_000 + rng.randrange(10_000)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    text = "20000 80000\n" + "".join(f"{u} {v}\n" for u, v in edges)
    del pairs, edges
    gc.collect()  # no earlier garbage is freed inside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = parse_edge_list(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.m == 80_000
    assert held < 18 * 2**20


@pytest.mark.parametrize("text", ["2000000000 0", "65537 0\n", "65539 1\n0 1\n"])
def test_edge_list_rejects_vertex_count_beyond_its_edges(text, monkeypatch):
    def refuse(*_args):
        raise AssertionError("index built for a hostile header")

    monkeypatch.setattr(graph_mod, "_index", refuse)
    with pytest.raises(FormatError, match="over 2\\*m \\+ 65536"):
        parse_edge_list(text)


def test_edge_list_allows_65536_isolated_vertices_beyond_its_edges():
    g = parse_edge_list("65538 1\n0 1\n")
    assert (g.n, g.edges) == (65538, ((0, 1),))


@given(graphs(max_n=8))
def test_edge_list_round_trip_any(g):
    assert parse_edge_list(format_edge_list(g)).edges == g.edges


def _stripped_rows(text: str) -> list[list[str]]:
    # The row expression the reader used before it split raw lines: strip
    # each line, then skip blanks and lines starting with "#", then split.
    return [line.split() for line in (raw.strip() for raw in text.splitlines())
            if line and not line.startswith("#")]


# read_int_table's arguments for each text format, as its two readers pass them.
_FORMATS = {
    "edge list": ("edge list", "n m", 1, "edges", "edge line", "u v"),
    "coloring": ("coloring", "m k", 0, "entries", "entry", "edge_id color"),
}


def _reader_outcome(reader, text: str, fmt: str) -> tuple[int, int, list[tuple[int, int]]] | str:
    try:
        a, b, rows = reader(text, *_FORMATS[fmt])[:3]
        return a, b, list(rows)
    except FormatError as exc:
        return str(exc)


def _assert_rows_as_stripped(text: str) -> None:
    # The stripped rows, one per line with single spaces, are read the same
    # way by any row rule; the reader must give text the same outcome.
    plain = "".join(" ".join(row) + "\n" for row in _stripped_rows(text))
    assert (_reader_outcome(read_int_table, text, "edge list")
            == _reader_outcome(read_int_table, plain, "edge list"))


@pytest.mark.parametrize("text", [
    "3 2\t\n0\t1\r\n1 2\r\n",
    "\x0c3 2\n0 1\x0c1 2\x0c",
    "\xa03\xa02\n0 1\n1\xa02\xa0\n",
    "3 2\u20280 1\u2028  # note\u20281 2",
    "   # indented\n\n \t \n3 2\n\t# tab\n0 1\n\xa0#\xa0nbsp\n1 2\n",
    "3 2\r\n0 1 # trailing\r\n1 2\r\n",
    "3 2\n0 1\n\x85 1 2\n",
    "3 2\n0 1\n",
    "\xa0\n\u3000\r\n\x0c",
    "3 2\n0\x1fx\n1 2\n",
], ids=["tab-crlf", "form-feed", "nbsp", "line-separator", "indented-comments",
        "trailing-comment", "next-line", "short", "whitespace-only", "unit-separator"])
def test_row_reader_matches_stripped_lines(text):
    _assert_rows_as_stripped(text)


_SPACES = [" ", "\t", "\xa0", "\u3000", "\x1f"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def table_texts(draw):
    """Edge-list-like text with data rows, comments and blank lines, every
    space and line break drawn from Unicode's whitespace and line breaks."""
    body = draw(st.lists(st.one_of(
        st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda p: f"{p[0]} {p[1]}"),
        st.sampled_from(["", "# note", "#", "#0 1", "0 1 2", "x 1", "7"])), max_size=6))
    count = sum(1 for line in body if line and not line.startswith("#"))
    lines = [draw(st.sampled_from([f"9 {count}", f"9 {count + 1}", "9"]))] + body
    pad = st.sampled_from(["", *_SPACES])
    return "".join(draw(pad) + line.replace(" ", draw(st.sampled_from(_SPACES))) + draw(pad)
                   + draw(st.sampled_from(_BREAKS)) for line in lines)


@settings(max_examples=300)
@given(table_texts())
def test_row_reader_matches_stripped_lines_any(text):
    _assert_rows_as_stripped(text)


# Integer spellings int() or JSON's integer grammar takes or refuses: a
# sign, an underscore, leading zeros, a lone "-", an exponent, more digits
# than int() converts, a non-ASCII digit, a letter.
_TOKENS = st.one_of(st.integers(-2, 9).map(str),
                    st.sampled_from(["+1", "+5", "-0", "1_0", "007", "-", "1e3", "9" * 5000,
                                     "\u0663", "x"]))
_ASCII_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@st.composite
def near_canonical_texts(draw):
    """Text in or next to the canonical form: "a b" rows with unusual
    integer spellings, a header count off by one at times, LF or CRLF breaks
    (now and then another ASCII break, a lone " " or a malformed line), and
    the final break sometimes missing."""
    rows = draw(st.lists(st.tuples(_TOKENS, _TOKENS).map(" ".join), max_size=6))
    count = str(len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    other = draw(_TOKENS)
    lines = [draw(st.sampled_from([f"{other} {count}", f"{count} {other}", f"{count} {count}"]))]
    lines += rows
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from([" ", "", "7", "1 2 3", " 4", "5 "]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    brk = draw(st.sampled_from(["\n", "\r\n"]))
    breaks = [draw(st.sampled_from(_ASCII_BREAKS)) if draw(st.integers(0, 9)) == 0 else brk
              for _ in lines]
    if draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + b for line, b in zip(lines, breaks))


# Texts whose breaks the bulk pass could misread: every ASCII break, a
# space-free line between "\r" and "\n", a missing last break after one,
# and text that is not ASCII or cannot be encoded at all.
_TRICKY = ["2 1\x1c0 1\x1d1 2\x1e", "2 1\x0b0 1\x0c", "1 1\r3\n 4\n", "1 1\n 4\n5",
           "1 1\n\ud800 1\n", "1 1\n\u0663 1\n"]


@settings(max_examples=400)
@given(st.one_of(table_texts(), near_canonical_texts(), st.sampled_from(_TRICKY)),
       st.sampled_from(sorted(_FORMATS)))
def test_row_reader_matches_the_line_by_line_referee(text, fmt):
    assert _reader_outcome(read_int_table, text, fmt) == _reader_outcome(line_int_table, text, fmt)


def _canonical_by_definition(text: str) -> bool:
    # read_int_table's docstring: ASCII, every line exactly two tokens and
    # one " " (whether the tokens are integers is checked apart).
    lines = text.splitlines()
    return (text.isascii() and bool(lines)
            and all(line.split(" ") == line.split() and len(line.split()) == 2 for line in lines))


_JSON_INT = re.compile("-?(0|[1-9][0-9]*)")


def _json_int(token: str) -> bool:
    # JSON's integer grammar, within the digits int() converts
    if not _JSON_INT.fullmatch(token):
        return False
    try:
        int(token)
    except ValueError:
        return False
    return True


@settings(max_examples=400)
@given(st.one_of(table_texts(), near_canonical_texts(), st.sampled_from(_TRICKY)))
def test_bulk_pass_takes_exactly_the_canonical_texts(text):
    ints = graph_mod._canonical_ints(text)
    tokens = text.split()
    assert (ints is not None) == (_canonical_by_definition(text) and all(map(_json_int, tokens)))
    if ints is not None:
        assert ints == list(map(int, tokens))


def test_canonical_text_skips_the_row_parser(monkeypatch):
    def refuse(*_args):
        raise AssertionError("row parser reached")

    monkeypatch.setattr(graph_mod, "_int_pair", refuse)
    g = complete_bipartite(3, 4)
    assert parse_edge_list(format_edge_list(g)) == g
    c = EdgeColoring(k=3, colors=(1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0))
    assert parse_coloring(format_coloring(c)) == c
    with pytest.raises(AssertionError, match="row parser reached"):
        parse_edge_list("# note\n" + format_edge_list(g))


@pytest.mark.parametrize("edges, coloring, valid", [
    ("3 2\n0 1\n1 2\n", "2 2\n0 1\n1 2\n", True),
    ("3 2\n0 1\n1 0\n", "2 2\n0 1\n1 3\n", False),
    ("3 2\n0 1\n1 1\n", "2 2\n1 1\n0 2\n", False),
    ("# note\n3 2\n0 1\n1 2\n", "# note\n2 2\n0 1\n1 2\n", True),
], ids=["canonical", "duplicate-edge-color-above-k", "self-loop-ids-out-of-order", "commented"])
def test_each_parse_reads_the_text_once(monkeypatch, edges, coloring, valid):
    # whether the bulk checks pass, fail or never run, the canonical read
    # runs once per parse
    calls = []
    original = graph_mod._canonical_ints

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(graph_mod, "_canonical_ints", counting)
    for parse, text in ((parse_edge_list, edges), (graph_mod._read_edges, edges),
                        (parse_coloring, coloring)):
        calls.clear()
        try:
            parse(text)
        except CFColorError:
            assert not valid, parse.__name__
        else:
            assert valid, parse.__name__
        assert calls == [text], parse.__name__
