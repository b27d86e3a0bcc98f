"""
Two colors for the hard part, one more to finish
================================================

Walk through the bipartite construction on a couple of graphs: find a
minimal dominating set on one side, read off the private-neighbour
certificate, color a handful of edges with 2 colors so that *every* edge
has a uniquely-colored edge next to it, then fill the rest with a third.
"""

from cfcolor import (
    bipartite_scf_coloring,
    bipartition,
    check_certificate,
    colors_used,
    extend_to_cf,
    format_certificate,
    format_coloring,
    minimal_y_dominating_set,
    verify_cf,
)
from cfcolor.generators import complete_bipartite, random_bipartite

# --- K_{3,3}: the classic six-vertex example ------------------------------

g = complete_bipartite(3, 3)
b = bipartition(g)
print(f"K(3,3): n={g.n} m={g.m}")
print("sides:", " ".join(f"{v}:{s}" for v, s in enumerate(b.side)))

cert = minimal_y_dominating_set(g, b)
print("\ncertificate (D dominates the Y side, P lists private neighbours,")
print("M is the matching into them, as edge ids):")
print(format_certificate(cert), end="")
print("re-checked from scratch:", check_certificate(g, b, cert))

partial, _ = bipartite_scf_coloring(g, b)
print("\npartial coloring (0 = uncolored):", partial.colors)
print("colors used:", colors_used(partial))
report = verify_cf(g, partial)
print("all 9 edges satisfied already?", report.conflict_free())
print("uniquely-seen color per edge:", report.witness)

total = extend_to_cf(g, partial)
print("\nfilled up with one fresh color:", total.colors)
print("colors used:", colors_used(total), "(never more than 3)")
print(format_coloring(total), end="")

# --- a random instance, same story ----------------------------------------

g = random_bipartite(10, 14, 0.3, seed=2718)
b = bipartition(g)
print(f"\nrandom bipartite: n={g.n} m={g.m}")
cert = minimal_y_dominating_set(g, b)
print(f"|D| = {len(cert.dominating)} of {len(b.x_vertices())} X-vertices")

partial, _ = bipartite_scf_coloring(g, b)
total = extend_to_cf(g, partial)
print(f"partial uses {colors_used(partial)} colors on "
      f"{sum(1 for c in partial.colors if c)} of {g.m} edges")
print(f"total uses {colors_used(total)} colors; "
      f"conflict-free: {verify_cf(g, total).conflict_free()}")

# The key invariant behind the 2-color bound: every Y-side vertex ends up
# touching exactly one colored edge.
touched = [
    sum(1 for e, pair in enumerate(g.edges) if y in pair and partial.colors[e])
    for y in b.y_vertices()
]
print("colored edges seen per Y vertex:", sorted(set(touched)))
