"""Recovering the cyclic subgroup lattice from an unlabeled graph.

Start from the enhanced power graph of C2 x C6 with its vertex identities
erased.  Its maximal cliques are the maximal cyclic subgroups; clique sizes
and pairwise intersection sizes alone pin down the whole order-labelled
Hasse diagram:

  * three maximal cliques of size 6, pairwise meeting in 3 vertices,
  * so the order-3 and order-1 candidates of all three cliques coincide,
  * while each clique keeps a private order-2 subgroup.

That yields 8 nodes (orders 1, 2, 2, 2, 3, 6, 6, 6) and 10 cover relations,
and the same procedure works for any enhanced power graph.  Each node comes
with its name, the lowest maximal clique above it: a maximal node is named
by the clique it came from.
"""

import itertools

from latgraph import (
    build_group,
    build_lattice,
    epow_oracle,
    labeled_lattice_isomorphism,
    lattice_from_epow,
    maximal_cliques,
    parse_group_expr,
)
from latgraph.power_graphs import SimpleGraph

G = build_group(parse_group_expr("Z(2)xZ(6)")).group
graph = epow_oracle(G)

# pretend the graph arrived unlabeled: shuffle its vertices
perm = [7, 2, 9, 4, 11, 0, 5, 10, 3, 8, 1, 6]
anonymous = SimpleGraph.from_edges(
    graph.vertex_count, [(perm[u], perm[v]) for u, v in graph.edges()]
)

cliques = maximal_cliques(anonymous)
print("maximal clique sizes:", [len(c) for c in cliques])
for (i, a), (j, b) in itertools.combinations(enumerate(cliques), 2):
    print(f"  |clique {i} ∩ clique {j}| = {len(set(a) & set(b))}")

rebuilt = lattice_from_epow(anonymous)
lattice = rebuilt.lattice
print("\nreconstructed lattice:")
print("  node orders:", sorted(lattice.orders))
print("  cover count:", len(lattice.covers))
lower = {lo for lo, _ in lattice.covers}
print("  maximal nodes and the cliques they came from:")
for u in lattice.nodes():
    if u not in lower:
        print(f"    node {u} (order {lattice.orders[u]}): clique {rebuilt.clique_of[u]}")

reference = build_lattice(G).lattice
match = labeled_lattice_isomorphism(lattice, reference)
print("\nagrees with the lattice computed from the group table:", match.found)

# graphs that are not enhanced power graphs are refused with a diagnosis
from latgraph import NotAnEnhancedPowerGraph

path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
try:
    lattice_from_epow(path)
except NotAnEnhancedPowerGraph as exc:
    print("\nthe path on 3 vertices is rejected:", exc)
