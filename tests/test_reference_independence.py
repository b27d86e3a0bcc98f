"""The verifying referees of ``tests/reference.py`` decide their questions on
their own: none of them names a predicate of the package they check, so a
fault in that predicate cannot hide in the referee too. Nor do they read a
Graph's index (its per-vertex neighbour and edge-id tuples, or the degrees
read off them): they read the edge list, so a fault in the index cannot
hide in the referee either. The refactor pins
there, earlier implementations kept only to pin outputs, may call the
package and are not listed."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

REFERENCE = Path(__file__).with_name("reference.py")

VERIFYING_REFEREES = {
    "naive_report", "is_conflict_free", "naive_cf_index", "naive_scf_index",
    "tree_subset_sweep", "naive_search_f", "_naive_forward", "naive_feasible_f_degrees",
    "_root_and_order", "_child_options", "_combine", "dict_count_search",
    "dict_count_smallest_k", "edge_adjacency", "naive_prufer_edges",
}
PRODUCT_PREDICATES = {
    "unique_color", "closed_neighborhood", "verify_cf", "is_satisfied", "edge_id",
    "check_f_certificate",
}
PRODUCT_INDEX = {"neighbours", "incident", "_index", "degree"}


def _identifiers(node: ast.AST) -> Iterator[tuple[int, str]]:
    """Every name and attribute that node's code mentions, nested functions
    included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr


def test_verifying_referees_name_no_product_predicate():
    module = ast.parse(REFERENCE.read_text(), str(REFERENCE))
    # a predicate imported under another name is still that predicate
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    referees = {node.name: node for node in module.body
                if isinstance(node, ast.FunctionDef) and node.name in VERIFYING_REFEREES}
    assert set(referees) == VERIFYING_REFEREES
    named = [f"{name}:{line}: {ident}"
             for name, node in sorted(referees.items())
             for line, ident in _identifiers(node)
             if imported.get(ident, ident) in PRODUCT_PREDICATES | PRODUCT_INDEX]
    assert named == []
