"""
Exact answers by exhaustive search (with a meter on it)
=======================================================

The oracle tries palettes k = 1, 2, ... and runs a pruned depth-first
search over colorings, checking each edge the moment its neighbourhood is
fully assigned. Small graphs only -- but exact, and independent of the
constructive algorithms, which makes it the referee for everything else.
"""

from cfcolor import (
    Exceeded,
    exact_cf_index,
    exact_scf_index,
    sandwich_check,
)
from cfcolor.generators import complete, complete_bipartite, cycle, path

# Total vs partial index on some named graphs.
print("graph          total  partial")
for name, g in [
    ("P4", path(4)),
    ("C5", cycle(5)),
    ("C6", cycle(6)),
    ("K4", complete(4)),
    ("K(3,3)", complete_bipartite(3, 3)),
]:
    cf = exact_cf_index(g, g.m)
    scf = exact_scf_index(g, g.m)
    print(f"{name:<14} {cf:>5}  {scf:>7}")

# The partial index never trails the total one by more than 1.
print("\nsandwich (partial <= total <= partial+1) on K4:", sandwich_check(complete(4)))

# Complete graphs grow slowly: the exact values for n = 2..6.
print("\ncomplete graphs:")
for n in range(2, 7):
    print(f"  K{n}: {exact_cf_index(complete(n), n)}")

# Budgets make "too big" an explicit outcome instead of a hang.
result = exact_cf_index(complete(7), 6, max_states=500)
if isinstance(result, Exceeded):
    print(f"\nK7 with a 500-state budget: gave up after {result.states} states")

# And k_max makes "nothing this small" explicit too.
print("K4 restricted to 2 colors:", exact_cf_index(complete(4), 2))
