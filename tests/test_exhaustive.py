"""The paper's bound checked on every small bipartite graph.

``networkx.graph_atlas_g()`` lists every graph on up to 7 vertices, one per
isomorphism class. The 87 of them that are bipartite and have no isolated
vertex (2 to 7 vertices) each go through the construction, its
certificate, the exact oracle and, for trees, the DP. The (n, scf, cf)
census is then pinned, so a regression anywhere shows up as a changed
count.
"""

from collections import Counter

import pytest

from cfcolor.bipartite import bipartite_scf_coloring, check_certificate, extend_to_cf
from cfcolor.coloring import colors_used, verify_cf
from cfcolor.graph import Bipartition, bipartition, build_graph, components
from cfcolor.oracle import exact_cf_index, exact_scf_index
from cfcolor.tree import decide_tree

# (vertices, exact scf index, exact cf index) -> number of atlas graphs
ATLAS_CENSUS = {
    (2, 1, 1): 1, (3, 1, 2): 1,
    (4, 1, 1): 1, (4, 1, 2): 2, (4, 2, 2): 1,
    (5, 1, 2): 4, (5, 2, 2): 1, (5, 2, 3): 1,
    (6, 1, 1): 1, (6, 1, 2): 10, (6, 2, 2): 3, (6, 2, 3): 8,
    (7, 1, 2): 20, (7, 2, 2): 7, (7, 2, 3): 26,
}


def _atlas_bipartite_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 2 and min(d for _, d in h.degree()) > 0 and nx.is_bipartite(h):
            yield build_graph(n, list(h.edges()))


def test_bound_and_census_on_every_atlas_bipartite_graph():
    census: Counter = Counter()
    for g in _atlas_bipartite_graphs():
        b = bipartition(g)
        assert isinstance(b, Bipartition)
        partial, cert = bipartite_scf_coloring(g, b)
        total = extend_to_cf(g, partial)
        assert colors_used(partial) <= 2 and colors_used(total) <= 3
        assert verify_cf(g, partial).conflict_free() and verify_cf(g, total).conflict_free()
        assert check_certificate(g, b, cert)
        scf, cf = exact_scf_index(g, 3), exact_cf_index(g, 3)
        assert scf is not None and cf is not None
        assert scf <= 2 and cf <= 3 and scf <= cf <= scf + 1, g.edges
        if g.m == g.n - 1 and len(components(g)) == 1:
            assert decide_tree(g)[0] == cf, g.edges
        census[(g.n, scf, cf)] += 1
    assert dict(census) == ATLAS_CENSUS
    assert sum(census.values()) == 87
