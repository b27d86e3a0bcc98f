"""Conflict-free edge colorings.

An edge coloring (possibly partial) is conflict-free when every edge of the
graph sees some color exactly once among the colored edges incident to its
endpoints, itself included. This package builds such colorings (2 partial /
3 total colors for bipartite graphs, logarithmically many for general
graphs, the exact optimum for trees and cycles), verifies them, produces
checkable certificates, and cross-checks everything against exhaustive
search oracles on small instances.
"""

from .bipartite import (
    DominationCertificate,
    bipartite_cf_coloring,
    bipartite_scf_coloring,
    check_certificate,
    extend_to_cf,
    format_certificate,
    minimal_y_dominating_set,
)
from .coloring import (
    UNCOLORED,
    EdgeColoring,
    SatisfactionReport,
    closed_neighborhood,
    colors_used,
    format_coloring,
    parse_coloring,
    verify_cf,
)
from .errors import CFColorError
from .general import (
    VertexColoring,
    cycle_cf_coloring,
    general_cf_coloring,
    greedy_vertex_coloring,
    recursive_scf_coloring,
)
from .graph import (
    Bipartition,
    Graph,
    OddCycle,
    bipartition,
    build_graph,
    components,
    format_edge_list,
    parse_edge_list,
)
from .oracle import (
    Exceeded,
    exact_cf_index,
    exact_scf_index,
    sandwich_check,
)
from .tree import (
    TreeFCertificate,
    check_f_certificate,
    coloring_from_f,
    decide_tree_two,
    f_from_coloring,
    format_f_set,
    tree_cf_index,
)

__all__ = [
    "UNCOLORED",
    "Bipartition",
    "CFColorError",
    "DominationCertificate",
    "EdgeColoring",
    "Exceeded",
    "Graph",
    "OddCycle",
    "SatisfactionReport",
    "TreeFCertificate",
    "VertexColoring",
    "bipartite_cf_coloring",
    "bipartite_scf_coloring",
    "bipartition",
    "build_graph",
    "check_certificate",
    "check_f_certificate",
    "closed_neighborhood",
    "coloring_from_f",
    "colors_used",
    "components",
    "cycle_cf_coloring",
    "decide_tree_two",
    "exact_cf_index",
    "exact_scf_index",
    "extend_to_cf",
    "f_from_coloring",
    "format_certificate",
    "format_coloring",
    "format_edge_list",
    "format_f_set",
    "general_cf_coloring",
    "greedy_vertex_coloring",
    "minimal_y_dominating_set",
    "parse_coloring",
    "parse_edge_list",
    "recursive_scf_coloring",
    "sandwich_check",
    "tree_cf_index",
    "verify_cf",
]

__version__ = "0.1.0"
